//! Server-side defenses under the paper's §7 tension: Experiment H's 90%
//! ingress loss plus a spoofed query flood at both authoritatives, with
//! and without RRL (slip 2).
//!
//! ```text
//! cargo run --release --example defense_rrl
//! ```
//!
//! RRL starves the spoofed fleet — each source gets a trickle of
//! answers — while the TC=1 slips keep rate-limited legitimate
//! resolvers alive via retry. The run prints the serialized defense
//! plan, the per-round client view for both runs, and the telemetry cut
//! of the defense counters.

use dike::experiments::defense::{defense_setup, DefensePreset};
use dike::experiments::setup::run_experiment;
use dike::netsim::SimDuration;
use dike::stats::timeseries::outcome_timeseries;
use dike::telemetry::MetricValue;

fn main() {
    let mins = |m: u64| SimDuration::from_mins(m);
    let scale = 0.03;
    let seed = 42;

    let plan = defense_setup(DefensePreset::RrlSlip, scale, seed)
        .defense
        .expect("RrlSlip installs a plan");
    println!("defense plan:\n  {}\n", plan.to_json());

    let undefended = run_experiment(&defense_setup(DefensePreset::None, scale, seed));
    let defended = run_experiment(&defense_setup(DefensePreset::RrlSlip, scale, seed));

    println!("client view (minutes 60-120 under attack):");
    println!("{:>5} {:>12} {:>12}", "min", "OK (none)", "OK (rrl-slip)");
    let none_bins = outcome_timeseries(&undefended.log, mins(10));
    let rrl_bins = outcome_timeseries(&defended.log, mins(10));
    for (a, b) in none_bins.iter().zip(&rrl_bins) {
        let marker = if (60..120).contains(&a.start_min) {
            "  <== attack + flood"
        } else {
            ""
        };
        println!("{:>5} {:>12} {:>12}{marker}", a.start_min, a.ok, b.ok);
    }

    let spoofed_none = undefended.spoofed.expect("flood installed");
    let spoofed_rrl = defended.spoofed.expect("flood installed");
    println!(
        "\nspoofed fleet: {} queries sent; served {} undefended vs {} under RRL \
         (plus {} TC=1 slips)",
        spoofed_rrl.sent,
        spoofed_none.full_answers,
        spoofed_rrl.full_answers,
        spoofed_rrl.truncated_answers,
    );

    // The defense counters' telemetry cut: cumulative values per
    // 10-minute snapshot, straight from the registry.
    let reg = defended.metrics.expect("defense_setup sets telemetry");
    let metrics = ["defense_drops", "rrl_limited", "rrl_slipped"];
    println!("\ndefense telemetry (cumulative per snapshot):");
    print!("{:>5}", "min");
    for m in metrics {
        print!(" {:>14}", m);
    }
    println!();
    for (idx, at) in reg.snapshot_times().iter().enumerate() {
        print!("{:>5}", at / 60_000_000_000);
        for m in metrics {
            let v = match reg.value_at("netsim", None, m, idx as u32) {
                Some(MetricValue::Counter(c)) => c,
                _ => 0,
            };
            print!(" {:>14}", v);
        }
        println!();
    }
}
