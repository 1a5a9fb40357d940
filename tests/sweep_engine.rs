//! Sweep-engine contract tests: worker-count-independent output,
//! memory-bounded streaming aggregation, and paired-seed bit-identity
//! with direct runs.

use dike::experiments::{
    AttackPlan, ExperimentSetup, ReplicateSummary, Report, SweepAxis, SweepEngine,
};

fn tiny_base() -> ExperimentSetup {
    ExperimentSetup {
        attack: Some(AttackPlan::loss(0.9).window_min(10, 10)),
        seed: 9,
        ..ExperimentSetup::paced(4, 600, 10, 30)
    }
}

/// The headline determinism contract: a two-axis grid with seed
/// replicates exports byte-identical JSON whether it ran on one
/// worker or on every core the machine has (`threads(0)` resolves to
/// `available_parallelism`, exercising the detection path end to end).
#[test]
fn sweep_exports_are_byte_identical_for_one_and_many_workers() {
    let grid = || {
        SweepEngine::new(tiny_base())
            .axis(SweepAxis::attack_loss(vec![0.0, 0.75, 1.0]))
            .axis(SweepAxis::cache_ttl_secs(vec![60, 1800]))
            .replicates(2)
    };
    let serial = grid().threads(1).run();
    let parallel = grid().threads(0).run();
    assert_eq!(serial.to_json(), parallel.to_json());
}

/// A 64-arm × 4-replicate grid (256 simulator runs) retains exactly one
/// compact `ReplicateSummary` per cell — O(arms) memory, never
/// O(arms × full reports). The fold signature takes `Report` by value,
/// so retaining it would require an explicit choice; the standard fold
/// provably drops it (a `ReplicateSummary` holds no log, server view or
/// registry, just scalars and a downsampled ECDF).
#[test]
fn large_grid_retains_only_compact_summaries() {
    let minimal = ExperimentSetup {
        attack: Some(AttackPlan::complete().window_min(10, 10)),
        seed: 3,
        ..ExperimentSetup::paced(2, 1800, 10, 20)
    };
    let result = SweepEngine::new(minimal)
        .axis(SweepAxis::attack_loss(vec![
            0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999, 1.0,
        ]))
        .axis(SweepAxis::cache_ttl_secs(vec![60, 600, 1800, 3600]))
        .replicates(4)
        .run();

    assert_eq!(result.arms.len(), 64);
    for arm in &result.arms {
        assert_eq!(arm.replicates.len(), 4);
        for rep in &arm.replicates {
            assert!(rep.queries > 0, "every cell actually ran");
            assert!(rep.latency_ecdf.len() <= 32, "ECDF stays downsampled");
        }
    }
    // The whole result stays small enough to be a value type: a rough
    // upper bound on the retained bytes per cell, far below one report's
    // query log alone.
    let cells = result.arms.len() * 4;
    let per_cell = std::mem::size_of::<ReplicateSummary>() + 32 * 16;
    assert!(cells * per_cell < 1 << 20, "summaries stay under a MiB");
}

/// A one-replicate sweep (replicate 0 runs the base seed verbatim) must
/// match running each arm's setup directly — same seed, same loss, bit
/// for bit in the outcome series.
#[test]
fn paired_sweep_is_identical_to_direct_runs() {
    let rates = vec![0.0, 0.9, 1.0];
    let points = SweepEngine::new(tiny_base())
        .axis(SweepAxis::attack_loss(rates.clone()))
        .replicates(1)
        .run_fold(|_job, report| report);
    assert_eq!(points.len(), rates.len());
    for (reps, &loss) in points.iter().zip(&rates) {
        let report = &reps[0];
        let direct = Report::run(&ExperimentSetup {
            attack: Some(AttackPlan::loss(loss).window_min(10, 10)),
            ..tiny_base()
        });
        assert_eq!(report.outcomes, direct.outcomes);
        assert_eq!(
            report.output.log.records.len(),
            direct.output.log.records.len()
        );
        assert_eq!(
            report.ok_fraction_during_attack(),
            direct.ok_fraction_during_attack()
        );
    }
}

/// Replicate seeds are derived, not sequential: replicates share seeds
/// across arms (common random numbers), and replicate 0 is the base
/// seed itself.
#[test]
fn paired_replicates_share_randomness_across_arms() {
    let engine = SweepEngine::new(tiny_base())
        .axis(SweepAxis::attack_loss(vec![0.2, 0.8]))
        .replicates(3);
    for rep in 0..3 {
        assert_eq!(engine.setup_for(0, rep).seed, engine.setup_for(1, rep).seed);
    }
    assert_eq!(
        engine.setup_for(0, 0).seed,
        9,
        "replicate 0 = the base seed"
    );
    let seeds: std::collections::HashSet<u64> = (0..3).map(|r| engine.job_seed(r)).collect();
    assert_eq!(seeds.len(), 3, "replicates draw distinct seeds");
}
