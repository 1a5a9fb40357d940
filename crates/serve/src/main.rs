//! `dike-serve` — the workspace's auth/defense stack on a real UDP
//! socket. See EXPERIMENTS.md for a quickstart.
//!
//! ```text
//! dike-serve [--bind ADDR:PORT] [--tcp-bind ADDR:PORT]
//!            [--plan FILE.json] [--cookie-secret HEX]
//!            [--zonefile FILE] [--cachetest-ttl SECS]
//!            [--telemetry-json FILE] [--telemetry-http ADDR:PORT]
//!            [--every-secs N]
//! ```
//!
//! With no zone flags the server hosts the paper's `cachetest.nl`
//! measurement zone. `--plan` mounts the same hand-rolled JSON
//! `DefensePlan` format the simulator's experiments use
//! (`DefensePlan::to_json`). `--tcp-bind` adds a DNS-over-TCP listener
//! (RFC 7766 framing) sharing the same zones — where resolvers land
//! after a TC=1 slip. A `cookie` defense in the plan arms the mounted
//! gate's RFC 7873 exemption; `--cookie-secret` arms both halves (the
//! server mints cookies and the gate exempts queries whose cookie
//! validates) and overrides the plan's secret. Runs until killed.

use std::net::{Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use dike_auth::{zonefile, AuthServer, CacheTestZone};
use dike_defense::DefensePlan;
use dike_serve::{LiveServer, ServeConfig};

fn usage() -> ! {
    eprintln!(
        "usage: dike-serve [--bind ADDR:PORT] [--tcp-bind ADDR:PORT] \
         [--plan FILE.json] [--cookie-secret HEX] \
         [--zonefile FILE] [--cachetest-ttl SECS] \
         [--telemetry-json FILE] [--telemetry-http ADDR:PORT] [--every-secs N]"
    );
    exit(2);
}

fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("dike-serve: {what}: {err}");
    exit(1);
}

fn main() {
    let mut config = ServeConfig {
        bind: "127.0.0.1:5300".parse().expect("literal socket addr"),
        ..ServeConfig::default()
    };
    let mut zonefiles: Vec<PathBuf> = Vec::new();
    let mut cachetest_ttl: u32 = 60;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("dike-serve: {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--bind" => {
                config.bind = value("--bind")
                    .parse::<SocketAddr>()
                    .unwrap_or_else(|e| fail("--bind", e));
            }
            "--tcp-bind" => {
                config.tcp_bind = Some(
                    value("--tcp-bind")
                        .parse::<SocketAddr>()
                        .unwrap_or_else(|e| fail("--tcp-bind", e)),
                );
            }
            "--cookie-secret" => {
                let raw = value("--cookie-secret");
                let digits = raw.strip_prefix("0x").unwrap_or(&raw);
                config.cookie_secret = Some(
                    u64::from_str_radix(digits, 16).unwrap_or_else(|e| fail("--cookie-secret", e)),
                );
            }
            "--plan" => {
                let path = value("--plan");
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| fail("--plan", e));
                let plan = DefensePlan::from_json(&text).unwrap_or_else(|e| fail("--plan", e));
                config.plan = Some(plan);
            }
            "--zonefile" => zonefiles.push(PathBuf::from(value("--zonefile"))),
            "--cachetest-ttl" => {
                cachetest_ttl = value("--cachetest-ttl")
                    .parse()
                    .unwrap_or_else(|e| fail("--cachetest-ttl", e));
            }
            "--telemetry-json" => {
                config.telemetry_json = Some(PathBuf::from(value("--telemetry-json")));
            }
            "--telemetry-http" => {
                config.telemetry_http = Some(
                    value("--telemetry-http")
                        .parse::<SocketAddr>()
                        .unwrap_or_else(|e| fail("--telemetry-http", e)),
                );
            }
            "--every-secs" => {
                let secs: u64 = value("--every-secs")
                    .parse()
                    .unwrap_or_else(|e| fail("--every-secs", e));
                config.telemetry_every = Duration::from_secs(secs.max(1));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("dike-serve: unknown flag {other}");
                usage();
            }
        }
    }

    let mut server = AuthServer::new();
    if zonefiles.is_empty() {
        server.add_zone(Box::new(CacheTestZone::new(
            cachetest_ttl,
            &[Ipv4Addr::new(198, 51, 100, 1)],
        )));
    } else {
        for path in &zonefiles {
            let file = std::fs::File::open(path).unwrap_or_else(|e| fail("--zonefile", e));
            let zone = zonefile::read(std::io::BufReader::new(file), None)
                .unwrap_or_else(|e| fail(&format!("--zonefile {}", path.display()), e));
            server.add_zone(Box::new(zone));
        }
    }

    let handle = LiveServer::start(config, server).unwrap_or_else(|e| fail("failed to start", e));
    eprintln!("dike-serve: listening on udp://{}", handle.local_addr());
    if let Some(tcp) = handle.tcp_local_addr() {
        eprintln!("dike-serve: listening on tcp://{tcp}");
    }
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
