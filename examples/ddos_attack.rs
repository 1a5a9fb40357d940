//! Reproduce one of the paper's DDoS experiments (Table 4) and print the
//! client- and server-side views.
//!
//! ```text
//! cargo run --release --example ddos_attack -- H
//! ```
//!
//! The argument is the experiment letter (A–I); default is `H` (90%
//! packet loss, 30-minute TTL — the paper's headline "more than half of
//! clients still get answers" scenario).

use dike::experiments::ddos::{run_ddos, DdosExperiment};

fn main() {
    let letter = std::env::args()
        .nth(1)
        .and_then(|s| s.chars().next())
        .unwrap_or('H');
    let exp = DdosExperiment::from_letter(letter).unwrap_or_else(|| {
        eprintln!("unknown experiment '{letter}', expected A-I");
        std::process::exit(2);
    });
    let p = exp.params();
    println!(
        "Experiment {}: TTL {}s, {}% loss at {} from minute {} for {} minutes",
        p.name,
        p.ttl,
        (p.loss * 100.0) as u32,
        if p.both_ns { "both NSes" } else { "one NS" },
        p.ddos_start_min,
        p.ddos_duration_min
    );

    let r = run_ddos(exp, 0.04, 42);
    println!(
        "{} probes / {} vantage points\n",
        r.output.n_probes, r.output.n_vps
    );

    println!("client view (Figure 6/8 shape):");
    println!(
        "{:>5} {:>6} {:>9} {:>10}",
        "min", "OK", "SERVFAIL", "no answer"
    );
    for b in &r.outcomes {
        let marker = if b.start_min >= p.ddos_start_min
            && b.start_min < p.ddos_start_min + p.ddos_duration_min
        {
            " <== attack"
        } else {
            ""
        };
        println!(
            "{:>5} {:>6} {:>9} {:>10}{marker}",
            b.start_min, b.ok, b.servfail, b.no_answer
        );
    }

    println!("\nserver view (Figure 10 shape):");
    println!(
        "{:>5} {:>6} {:>9} {:>12} {:>13}",
        "min", "NS", "A-for-NS", "AAAA-for-NS", "AAAA-for-PID"
    );
    for b in r.output.server.bins() {
        println!(
            "{:>5} {:>6} {:>9} {:>12} {:>13}",
            b.start_min, b.ns, b.a_for_ns, b.aaaa_for_ns, b.aaaa_for_pid
        );
    }

    println!(
        "\nOK during attack: {:.1}%   offered-load multiplier: {:.1}x",
        r.ok_fraction_during_attack().unwrap_or(f64::NAN) * 100.0,
        r.traffic_multiplier().unwrap_or(f64::NAN)
    );
}
