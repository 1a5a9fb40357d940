//! Sweep attack intensity in parallel — the paper's §5.4 experiment
//! design ("we sweep the space of attack intensities") as a handful of
//! lines on the [`SweepEngine`].
//!
//! ```text
//! cargo run --release --example attack_sweep
//! ```

use dike::experiments::{AttackPlan, ExperimentSetup, SweepAxis, SweepEngine};

fn main() {
    let base = ExperimentSetup {
        attack: Some(AttackPlan::complete().window_min(60, 60)),
        seed: 42,
        ..ExperimentSetup::paced(200, 1800, 10, 150)
    };

    let rates = vec![0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0];
    println!("running {} scenario arms in parallel ...\n", rates.len());
    let loss_of = rates.clone();
    let mut points: Vec<_> = SweepEngine::new(base)
        .axis(SweepAxis::attack_loss(rates))
        .replicates(1)
        .run_fold(move |job, report| (loss_of[job.arm], report))
        .into_iter()
        .flatten()
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));

    println!(
        "{:>6} {:>18} {:>18} {:>14}",
        "loss", "OK during attack", "server load mult", "p90 latency"
    );
    for (loss, report) in &points {
        let p90 = report
            .latencies
            .iter()
            .filter(|b| b.start_min >= 60 && b.start_min < 120)
            .filter_map(|b| b.summary.map(|s| s.p90))
            .fold(0.0f64, f64::max);
        println!(
            "{:>5.0}% {:>17.1}% {:>17.1}x {:>11.0}ms",
            loss * 100.0,
            report.ok_fraction_during_attack().unwrap_or(f64::NAN) * 100.0,
            report.traffic_multiplier().unwrap_or(f64::NAN),
            p90
        );
    }
    println!(
        "\nthe paper's two defenses in one table: caches keep the answered\n\
         fraction high until loss nears 100%, while retries pay for it with\n\
         tail latency and multiplied load at the authoritatives."
    );
}
