//! Quickstart: run a DNS-DDoS scenario end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's world — a probe population querying a test zone
//! through a calibrated mix of recursive resolvers — and hits both
//! authoritative servers with a 90% packet-loss DDoS for an hour, then
//! prints what the clients experienced.

use dike::experiments::{AttackPlan, ExperimentSetup, Report};

fn main() {
    let report = Report::run(&ExperimentSetup {
        // 90% ingress loss at both authoritatives, minutes 60-120.
        attack: Some(AttackPlan::loss(0.90).window_min(60, 60)),
        seed: 42,
        // 300 probes (each has 1-3 local recursives, its vantage points),
        // 30-minute records like a conservative zone, one round every
        // 10 minutes for three hours.
        ..ExperimentSetup::paced(300, 1800, 10, 180)
    });

    println!("clients: {} vantage points", report.output.n_vps);
    println!(
        "queries: {} total, {:.1}% answered OK overall",
        report.output.log.records.len(),
        report.ok_fraction() * 100.0
    );
    println!(
        "during the 90% attack: {:.1}% of queries still answered (paper: ~60%)",
        report.ok_fraction_during_attack().unwrap_or(f64::NAN) * 100.0
    );
    println!(
        "cache miss rate: {:.1}% (paper: ~30%)",
        report.miss_rate() * 100.0
    );
    println!(
        "authoritative offered load during attack: {:.1}x normal (paper: up to 8x)",
        report.traffic_multiplier().unwrap_or(f64::NAN)
    );

    println!("\nper-round client outcomes:");
    println!(
        "{:>5} {:>6} {:>9} {:>10} {:>8}",
        "min", "OK", "SERVFAIL", "no answer", "OK frac"
    );
    for bin in &report.outcomes {
        println!(
            "{:>5} {:>6} {:>9} {:>10} {:>7.1}%",
            bin.start_min,
            bin.ok,
            bin.servfail,
            bin.no_answer,
            bin.ok_fraction() * 100.0
        );
    }
}
