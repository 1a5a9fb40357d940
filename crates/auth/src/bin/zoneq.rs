//! `zoneq` — a dig-style query tool for zone files.
//!
//! ```text
//! zoneq <zonefile> <name> [type] [+tcp] [+bufsize=N]
//! zoneq --check <zonefile>
//! ```
//!
//! Loads a master file and answers the query exactly as the simulated
//! authoritative server would (authoritative answers, referrals,
//! NXDOMAIN/NODATA with the SOA), printing a dig-like summary. The
//! default path is UDP semantics: answers larger than the advertised
//! EDNS size (`+bufsize=N`, default 4096) come back truncated with
//! `TC=1`. With `+tcp`, a truncated answer is retried through the
//! server's stream path (RFC 7766: no size limit), exactly as a
//! resolver falls back after a slip. With `--check`, parses the zone
//! and prints its canonical form instead — a quick lint for
//! hand-written zones. Output cut short by a closed pipe (`| head`) ends
//! quietly with status 0.

use std::io::{self, ErrorKind, Write};

use dike_auth::{zonefile, AuthServer};
use dike_netsim::{Addr, SimTime};
use dike_wire::{Message, Name, RecordType};

fn usage() -> ! {
    eprintln!(
        "usage: zoneq <zonefile> <name> [type] [+tcp] [+bufsize=N] | zoneq --check <zonefile>"
    );
    std::process::exit(2);
}

fn main() {
    let mut tcp = false;
    let mut bufsize: u16 = 4096;
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(opt) = arg.strip_prefix('+') {
            if opt == "tcp" {
                tcp = true;
            } else if let Some(v) = opt.strip_prefix("bufsize=") {
                bufsize = v.parse().unwrap_or_else(|e| {
                    eprintln!("zoneq: bad +bufsize: {e}");
                    std::process::exit(2);
                });
            } else {
                eprintln!("zoneq: unknown option +{opt}");
                usage();
            }
        } else {
            positional.push(arg);
        }
    }
    let mut out = io::stdout().lock();
    let written = match positional.as_slice() {
        [flag, path] if flag == "--check" => check(path, &mut out),
        [path, name] => query(path, name, "A", tcp, bufsize, &mut out),
        [path, name, qtype] => query(path, name, qtype, tcp, bufsize, &mut out),
        _ => usage(),
    };
    match written.and_then(|()| out.flush()) {
        Ok(()) => {}
        // The reader stopped early (`| head`): not a failure.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("zoneq: writing output: {e}");
            std::process::exit(1);
        }
    }
}

fn load(path: &str) -> dike_auth::Zone {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("zoneq: reading {path}: {e}");
        std::process::exit(2);
    });
    zonefile::read(std::io::BufReader::new(file), None).unwrap_or_else(|e| {
        eprintln!("zoneq: {e}");
        std::process::exit(1);
    })
}

fn check(path: &str, out: &mut impl Write) -> io::Result<()> {
    let zone = load(path);
    writeln!(
        out,
        "; zone {} ok: serial {}, {} records",
        zone.origin(),
        zone.serial(),
        zone.record_count()
    )?;
    out.write_all(zone.to_zonefile().as_bytes())
}

fn query(
    path: &str,
    name: &str,
    qtype: &str,
    tcp: bool,
    bufsize: u16,
    out: &mut impl Write,
) -> io::Result<()> {
    let zone = load(path);
    let qname = Name::parse(name).unwrap_or_else(|e| {
        eprintln!("zoneq: bad name {name}: {e}");
        std::process::exit(2);
    });
    let qtype = match qtype.to_ascii_uppercase().as_str() {
        "A" => RecordType::A,
        "AAAA" => RecordType::AAAA,
        "NS" => RecordType::NS,
        "CNAME" => RecordType::CNAME,
        "SOA" => RecordType::SOA,
        "MX" => RecordType::MX,
        "TXT" => RecordType::TXT,
        "PTR" => RecordType::PTR,
        "SRV" => RecordType::SRV,
        "DS" => RecordType::DS,
        other => {
            eprintln!("zoneq: unsupported type {other}");
            std::process::exit(2);
        }
    };

    let mut server = AuthServer::new().with_zone(Box::new(zone));
    let q = Message::iterative_query(0x5a51, qname.clone(), qtype).with_edns(bufsize);
    let mut resp = server.handle_query(SimTime::ZERO, &q);
    let mut via = "UDP";
    if resp.truncated && tcp {
        // The TC=1 fallback a resolver would take: same question, stream
        // semantics, no payload limit.
        writeln!(out, ";; Truncated, retrying over TCP (RFC 7766)")?;
        resp = server
            .answer_stream(SimTime::ZERO, Addr(0), &q)
            .expect("queries always get a stream answer");
        via = "TCP";
    }

    writeln!(
        out,
        ";; ->>HEADER<<- opcode: QUERY, status: {}, id: {}",
        resp.rcode, resp.id
    )?;
    let mut flags = vec!["qr"];
    if resp.authoritative {
        flags.push("aa");
    }
    if resp.truncated {
        flags.push("tc");
    }
    writeln!(
        out,
        ";; flags: {}; QUERY: 1, ANSWER: {}, AUTHORITY: {}, ADDITIONAL: {}",
        flags.join(" "),
        resp.answers.len(),
        resp.authorities.len(),
        resp.additionals.len()
    )?;
    writeln!(out, "\n;; QUESTION SECTION:\n;{qname}.\t\tIN\t{qtype}")?;
    for (label, records) in [
        ("ANSWER", &resp.answers),
        ("AUTHORITY", &resp.authorities),
        ("ADDITIONAL", &resp.additionals),
    ] {
        if records.is_empty() {
            continue;
        }
        writeln!(out, "\n;; {label} SECTION:")?;
        for r in records {
            writeln!(out, "{r}")?;
        }
    }
    let size = dike_wire::codec::encoded_len(&resp).unwrap_or(0);
    writeln!(out, "\n;; MSG SIZE  rcvd: {size} ({via})")
}
