//! A master-file (zone file) parser for the subset the experiments use.
//!
//! Supported syntax:
//!
//! ```text
//! $ORIGIN cachetest.nl.
//! $TTL 3600
//! @              IN SOA   ns1 hostmaster 2018052200 14400 3600 1209600 60
//! @              IN NS    ns1.cachetest.nl.
//! ns1      3600  IN A     198.51.100.1
//! www      60       A     203.0.113.1      ; comment
//! alias          IN CNAME www
//! ```
//!
//! Rules: `;` starts a comment; `@` means the origin; names without a
//! trailing dot are relative to the origin; TTL and class (`IN`) are
//! optional per record (TTL falls back to `$TTL`); supported types are
//! SOA, NS, A, AAAA, CNAME, TXT, MX, PTR, SRV and DS.
//!
//! [`read`] parses from any buffered reader one line at a time, so a
//! server loading a file never holds its text and the zone at once;
//! [`parse`] reads a string through it.

use std::fmt;
use std::io::BufRead;
use std::net::{Ipv4Addr, Ipv6Addr};

use dike_wire::{Name, RData, Record, SoaData};

use crate::zone::Zone;

/// Errors from the zone-file parser, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line where the problem is.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses `text` into a [`Zone`], as [`read`] does.
pub fn parse(text: &str, default_origin: Option<&Name>) -> Result<Zone, ParseError> {
    read(text.as_bytes(), default_origin)
}

/// Reads a zone file into a [`Zone`], one line at a time. The file must
/// contain `$ORIGIN` (or the caller's `default_origin`) and exactly one
/// SOA record, which must come before any other record. Lines end at
/// `\n` or `\r\n`, as [`str::lines`] splits them; a line that is not
/// UTF-8, or a read that fails, is an error naming that line.
pub fn read(mut input: impl BufRead, default_origin: Option<&Name>) -> Result<Zone, ParseError> {
    let mut origin: Option<Name> = default_origin.cloned();
    let mut default_ttl: Option<u32> = None;
    let mut zone: Option<Zone> = None;
    let mut last_name: Option<Name> = None;
    let mut buf = Vec::new();

    for lineno in 1.. {
        buf.clear();
        let got = input.read_until(b'\n', &mut buf);
        if got.map_err(|e| err(lineno, format!("read failed: {e}")))? == 0 {
            break;
        }
        let mut bytes = buf.as_slice();
        if let Some(rest) = bytes.strip_suffix(b"\n") {
            bytes = rest.strip_suffix(b"\r").unwrap_or(rest);
        }
        let raw_line = std::str::from_utf8(bytes).map_err(|_| err(lineno, "line is not UTF-8"))?;
        let line = strip_comment(raw_line);
        if line.trim().is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = line.trim().strip_prefix("$ORIGIN") {
            let name = rest.trim();
            origin = Some(Name::parse(name).map_err(|e| err(lineno, format!("bad $ORIGIN: {e}")))?);
            continue;
        }
        if let Some(rest) = line.trim().strip_prefix("$TTL") {
            default_ttl = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| err(lineno, "bad $TTL value"))?,
            );
            continue;
        }

        let origin_name = origin
            .clone()
            .ok_or_else(|| err(lineno, "record before $ORIGIN"))?;

        // A line starting with whitespace reuses the previous owner name.
        let starts_blank = raw_line.starts_with([' ', '\t']);
        let mut tokens: Vec<&str> = line.split_whitespace().collect();
        let owner = if starts_blank {
            last_name
                .clone()
                .ok_or_else(|| err(lineno, "continuation line with no previous owner"))?
        } else {
            let raw = tokens.remove(0);
            resolve_name(raw, &origin_name).map_err(|e| err(lineno, e))?
        };
        last_name = Some(owner.clone());

        // Optional TTL and optional class, in either order per RFC 1035.
        let mut ttl: Option<u32> = None;
        loop {
            match tokens.first() {
                Some(tok) if tok.chars().all(|c| c.is_ascii_digit()) && ttl.is_none() => {
                    // A digit string too large for u32 is a malformed TTL.
                    let raw = tokens.remove(0);
                    ttl = Some(
                        raw.parse()
                            .map_err(|_| err(lineno, format!("TTL {raw} out of range")))?,
                    );
                }
                // Mnemonics are case-insensitive (RFC 4343).
                Some(tok) if tok.eq_ignore_ascii_case("IN") => {
                    tokens.remove(0);
                }
                _ => break,
            }
        }
        let ttl = ttl
            .or(default_ttl)
            .ok_or_else(|| err(lineno, "no TTL and no $TTL default"))?;

        if tokens.is_empty() {
            return Err(err(lineno, "missing record type"));
        }
        let rtype = tokens.remove(0).to_ascii_uppercase();
        let rdata = parse_rdata(&rtype, &tokens, &origin_name, lineno)?;

        match rdata {
            RData::Soa(soa) => {
                if zone.is_some() {
                    return Err(err(lineno, "duplicate SOA"));
                }
                if owner != origin_name {
                    return Err(err(lineno, "SOA owner must be the origin"));
                }
                zone = Some(Zone::new(origin_name, ttl, *soa));
            }
            other => {
                let z = zone
                    .as_mut()
                    .ok_or_else(|| err(lineno, "record before SOA"))?;
                if !owner.is_subdomain_of(z.origin()) {
                    return Err(err(lineno, format!("{owner} outside zone {}", z.origin())));
                }
                z.add(Record::new(owner, ttl, other));
            }
        }
    }

    zone.ok_or_else(|| err(0, "no SOA record in zone file"))
}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn resolve_name(token: &str, origin: &Name) -> Result<Name, String> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = token.strip_suffix('.') {
        return Name::parse(absolute).map_err(|e| format!("bad name {token}: {e}"));
    }
    // Relative: append the origin.
    let combined = format!("{token}.{origin}");
    Name::parse(&combined).map_err(|e| format!("bad name {token}: {e}"))
}

fn parse_rdata(
    rtype: &str,
    tokens: &[&str],
    origin: &Name,
    lineno: usize,
) -> Result<RData, ParseError> {
    let need = |n: usize| -> Result<(), ParseError> {
        if tokens.len() < n {
            Err(err(lineno, format!("{rtype} needs {n} fields")))
        } else {
            Ok(())
        }
    };
    match rtype {
        "A" => {
            need(1)?;
            let addr: Ipv4Addr = tokens[0]
                .parse()
                .map_err(|_| err(lineno, format!("bad IPv4 address {}", tokens[0])))?;
            Ok(RData::A(addr))
        }
        "AAAA" => {
            need(1)?;
            let addr: Ipv6Addr = tokens[0]
                .parse()
                .map_err(|_| err(lineno, format!("bad IPv6 address {}", tokens[0])))?;
            Ok(RData::Aaaa(addr))
        }
        "NS" => {
            need(1)?;
            Ok(RData::Ns(
                resolve_name(tokens[0], origin).map_err(|e| err(lineno, e))?,
            ))
        }
        "CNAME" => {
            need(1)?;
            Ok(RData::Cname(
                resolve_name(tokens[0], origin).map_err(|e| err(lineno, e))?,
            ))
        }
        "PTR" => {
            need(1)?;
            Ok(RData::Ptr(
                resolve_name(tokens[0], origin).map_err(|e| err(lineno, e))?,
            ))
        }
        "SRV" => {
            need(4)?;
            let num = |i: usize, what: &str| -> Result<u16, ParseError> {
                tokens[i]
                    .parse()
                    .map_err(|_| err(lineno, format!("bad SRV {what}")))
            };
            Ok(RData::Srv {
                priority: num(0, "priority")?,
                weight: num(1, "weight")?,
                port: num(2, "port")?,
                target: resolve_name(tokens[3], origin).map_err(|e| err(lineno, e))?,
            })
        }
        "MX" => {
            need(2)?;
            let preference = tokens[0]
                .parse()
                .map_err(|_| err(lineno, "bad MX preference"))?;
            Ok(RData::Mx {
                preference,
                exchange: resolve_name(tokens[1], origin).map_err(|e| err(lineno, e))?,
            })
        }
        "TXT" => {
            need(1)?;
            let joined = tokens.join(" ");
            let text = joined.trim_matches('"');
            Ok(RData::Txt(vec![text.as_bytes().to_vec()]))
        }
        "DS" => {
            need(4)?;
            let key_tag = tokens[0]
                .parse()
                .map_err(|_| err(lineno, "bad DS key tag"))?;
            let algorithm = tokens[1]
                .parse()
                .map_err(|_| err(lineno, "bad DS algorithm"))?;
            let digest_type = tokens[2]
                .parse()
                .map_err(|_| err(lineno, "bad DS digest type"))?;
            let hex = tokens[3..].join("");
            let digest = parse_hex(&hex).ok_or_else(|| err(lineno, "bad DS digest hex"))?;
            Ok(RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            })
        }
        "SOA" => {
            need(7)?;
            let num = |i: usize| -> Result<u32, ParseError> {
                tokens[i]
                    .parse()
                    .map_err(|_| err(lineno, format!("bad SOA field {}", tokens[i])))
            };
            Ok(RData::Soa(Box::new(SoaData {
                mname: resolve_name(tokens[0], origin).map_err(|e| err(lineno, e))?,
                rname: resolve_name(tokens[1], origin).map_err(|e| err(lineno, e))?,
                serial: num(2)?,
                refresh: num(3)?,
                retry: num(4)?,
                expire: num(5)?,
                minimum: num(6)?,
            })))
        }
        other => Err(err(lineno, format!("unsupported record type {other}"))),
    }
}

/// Decodes hex digit pairs. Works on bytes, so a multi-byte character is
/// a bad digit, never a slice through a char boundary.
fn parse_hex(s: &str) -> Option<Vec<u8>> {
    let digit = |b: &u8| char::from(*b).to_digit(16);
    s.as_bytes()
        .chunks(2)
        .map(|pair| match pair {
            [hi, lo] => Some(((digit(hi)? << 4) | digit(lo)?) as u8),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneAnswer;
    use dike_wire::{Question, RecordType};

    const SAMPLE: &str = r#"
$ORIGIN cachetest.nl.
$TTL 3600
@              IN SOA   ns1 hostmaster 2018052200 14400 3600 1209600 60
@              IN NS    ns1.cachetest.nl.
@              IN NS    ns2.cachetest.nl.
ns1            IN A     198.51.100.1
ns2            IN A     198.51.100.2
www      60    IN A     203.0.113.1      ; the website
alias          IN CNAME www
mail           IN MX    10 mx1
mx1            IN A     203.0.113.25
txt            IN TXT   "hello world"
v6             IN AAAA  2001:db8::1
"#;

    #[test]
    fn parses_sample_zone() {
        let z = parse(SAMPLE, None).unwrap();
        assert_eq!(z.origin().to_string(), "cachetest.nl");
        assert_eq!(z.serial(), 2018052200);
        // SOA + 2 NS + 4 A + CNAME + MX + TXT + AAAA = 11.
        assert_eq!(z.record_count(), 11);
    }

    #[test]
    fn relative_names_get_origin_appended() {
        let z = parse(SAMPLE, None).unwrap();
        assert!(z
            .rrset(&Name::parse("www.cachetest.nl").unwrap(), RecordType::A)
            .is_some());
    }

    #[test]
    fn per_record_ttl_overrides_default() {
        let z = parse(SAMPLE, None).unwrap();
        let www = z
            .rrset(&Name::parse("www.cachetest.nl").unwrap(), RecordType::A)
            .unwrap();
        assert_eq!(www[0].ttl, 60);
        let ns1 = z
            .rrset(&Name::parse("ns1.cachetest.nl").unwrap(), RecordType::A)
            .unwrap();
        assert_eq!(ns1[0].ttl, 3600);
    }

    #[test]
    fn parsed_zone_answers_queries() {
        let z = parse(SAMPLE, None).unwrap();
        assert!(matches!(
            z.answer(&Question::new(
                Name::parse("alias.cachetest.nl").unwrap(),
                RecordType::A
            )),
            ZoneAnswer::Authoritative { .. }
        ));
        assert!(matches!(
            z.answer(&Question::new(
                Name::parse("gone.cachetest.nl").unwrap(),
                RecordType::A
            )),
            ZoneAnswer::NxDomain { .. }
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "; pure comment\n\n$ORIGIN x.nl.\n$TTL 60\n@ IN SOA ns h 1 2 3 4 5\n";
        let z = parse(text, None).unwrap();
        assert_eq!(z.origin().to_string(), "x.nl");
    }

    #[test]
    fn record_before_soa_is_an_error() {
        let text = "$ORIGIN x.nl.\n$TTL 60\nwww IN A 1.2.3.4\n";
        let e = parse(text, None).unwrap_err();
        assert!(e.message.contains("before SOA"), "{e}");
    }

    #[test]
    fn missing_origin_is_an_error() {
        let text = "@ 60 IN SOA ns h 1 2 3 4 5\n";
        assert!(parse(text, None).is_err());
        // But a default origin fixes it.
        let z = parse(text, Some(&Name::parse("y.nl").unwrap())).unwrap();
        assert_eq!(z.origin().to_string(), "y.nl");
    }

    #[test]
    fn unknown_type_is_an_error_with_line_number() {
        let text = "$ORIGIN x.nl.\n$TTL 60\n@ IN SOA ns h 1 2 3 4 5\nwww IN WKS whatever\n";
        let e = parse(text, None).unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn ds_record_parses_hex() {
        let text = "$ORIGIN nl.\n$TTL 86400\n@ IN SOA ns h 1 2 3 4 5\n@ IN DS 34112 8 2 deadbeef\n";
        let z = parse(text, None).unwrap();
        let ds = z
            .rrset(&Name::parse("nl").unwrap(), RecordType::DS)
            .unwrap();
        match &ds[0].rdata {
            RData::Ds {
                key_tag, digest, ..
            } => {
                assert_eq!(*key_tag, 34112);
                assert_eq!(digest, &vec![0xde, 0xad, 0xbe, 0xef]);
            }
            other => panic!("expected DS, got {other:?}"),
        }
    }

    #[test]
    fn class_mnemonic_is_case_insensitive() {
        for class in ["IN", "in", "In", "iN"] {
            let text =
                format!("$ORIGIN x.nl.\n@ 60 {class} SOA ns h 1 2 3 4 5\nx 60 {class} A 1.2.3.4\n");
            let z = parse(&text, None).unwrap_or_else(|e| panic!("{class}: {e}"));
            assert!(z
                .rrset(&Name::parse("x.x.nl").unwrap(), RecordType::A)
                .is_some());
        }
    }

    #[test]
    fn continuation_lines_reuse_owner() {
        let text =
            "$ORIGIN x.nl.\n$TTL 60\n@ IN SOA ns h 1 2 3 4 5\nwww IN A 1.2.3.4\n    IN A 1.2.3.5\n";
        let z = parse(text, None).unwrap();
        let rs = z
            .rrset(&Name::parse("www.x.nl").unwrap(), RecordType::A)
            .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn crlf_text_reads_as_its_lf_form() {
        let crlf = SAMPLE.replace('\n', "\r\n");
        let z = parse(&crlf, None).unwrap();
        assert_eq!(z.to_zonefile(), parse(SAMPLE, None).unwrap().to_zonefile());
    }

    /// A reader whose every read fails.
    struct Fails;

    impl std::io::Read for Fails {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("device gone"))
        }
    }

    #[test]
    fn a_failed_read_names_its_line() {
        let text = "$ORIGIN x.nl.\n$TTL 60\n@ IN SO";
        let input = std::io::BufReader::new(std::io::Read::chain(text.as_bytes(), Fails));
        let e = read(input, None).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("device gone"), "{e}");
    }

    #[test]
    fn a_line_that_is_not_utf8_is_an_error_naming_it() {
        let text =
            b"$ORIGIN x.nl.\n$TTL 60\n@ IN SOA ns h 1 2 3 4 5\nwww IN TXT \xff\nok IN A 1.2.3.4\n";
        let e = read(&text[..], None).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("UTF-8"), "{e}");
    }
}
