//! Population-scale sweep — the paper's §5.4 intensity sweep crossed
//! with the cache-TTL axis of Tables 4–5, run through the streaming
//! `SweepEngine`: every arm folds into a compact summary the moment it
//! finishes, so memory stays O(arms) however dense the grid gets.
//!
//! ```text
//! cargo run --release --example sweep_grid
//! ```

use dike::experiments::{AttackPlan, ExperimentSetup, SweepAxis, SweepEngine};

fn main() {
    let base = ExperimentSetup {
        attack: Some(AttackPlan::complete().window_min(60, 60)),
        seed: 42,
        ..ExperimentSetup::paced(120, 1800, 10, 150)
    };

    let engine = SweepEngine::new(base)
        .axis(SweepAxis::attack_loss(vec![0.0, 0.5, 0.9, 1.0]))
        .axis(SweepAxis::cache_ttl_secs(vec![60, 1800, 3600]))
        .replicates(3);
    println!(
        "running {} arms x {} replicates in parallel ...\n",
        engine.arm_count(),
        engine.replicates
    );
    let result = engine.run();

    println!(
        "{:>6} {:>7} {:>26} {:>16}",
        "loss", "TTL", "OK during attack (p10-p90)", "load mult (p50)"
    );
    for arm in &result.arms {
        let ok = arm.ok_during_attack;
        let mult = arm.traffic_multiplier;
        println!(
            "{:>6} {:>7} {:>26} {:>16}",
            arm.coords[0].1,
            arm.coords[1].1,
            ok.map(|b| format!(
                "{:.1}% ({:.1}-{:.1})",
                b.median * 100.0,
                b.lo * 100.0,
                b.hi * 100.0
            ))
            .unwrap_or_else(|| "-".into()),
            mult.map(|b| format!("{:.1}x", b.median))
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "\nlong TTLs blunt every attack intensity short of complete failure\n\
         (the paper's dike); short TTLs collapse as soon as loss bites, and\n\
         the retry storm multiplies load at the authoritatives either way."
    );
}
