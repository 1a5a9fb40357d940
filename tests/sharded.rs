//! Sharded-engine regressions: the parallel engine's outcome is a pure
//! function of `(setup, seed)` — independent of the shard count and of
//! thread scheduling — and `shards: 1` still routes to the
//! single-threaded engine, so its pinned digest never moves.

use dike::defense::{Defense, DefensePlan};
use dike::experiments::setup::{AttackPlan, AttackScope};
use dike::experiments::{run_experiment_sharded, ExperimentOutput, ExperimentSetup, Report};
use dike::faults::{Fault, FaultPlan};
use dike::netsim::{NodeId, SimDuration};

/// Record count plus the full-field log digest.
fn digest(out: &ExperimentOutput) -> (usize, u64) {
    (out.log.records.len(), out.log.digest())
}

/// The `tests/determinism.rs` fixed setup, with an explicit shard count.
fn fixed_setup(shards: usize) -> ExperimentSetup {
    ExperimentSetup {
        seed: 1414,
        attack: Some(AttackPlan::loss(0.9).window_min(30, 30)),
        shards,
        ..ExperimentSetup::paced(25, 1800, 10, 90)
    }
}

/// A full-topology setup for driving `run_experiment_sharded` directly:
/// partial attack at both authoritatives, audit always on.
fn sharded_setup(shards: usize) -> ExperimentSetup {
    let mut setup = ExperimentSetup::new(20, 1800);
    setup.seed = 2026;
    setup.round_interval = SimDuration::from_mins(10);
    setup.rounds = 6;
    setup.total_duration = SimDuration::from_mins(70);
    setup.attack = Some(AttackPlan {
        start_min: 20,
        duration_min: 40,
        loss: 0.9,
        scope: AttackScope::BothNs,
    });
    setup.audit = true;
    setup.shards = shards;
    setup
}

/// `shards: 0` and `shards: 1` are the identity: `Report::run` routes
/// both to the single-threaded engine, so the pinned
/// `fixed_seed_log_matches_pinned_digest` value governs them.
#[test]
fn one_shard_is_the_single_threaded_engine() {
    let [zero, one] = [0, 1].map(|k| digest(&Report::run(&fixed_setup(k)).output));
    assert!(one.0 > 0);
    assert_eq!(zero, one, "shards: 1 must not change the engine");
}

/// The headline invariant: K ∈ {1, 2, 4, 8} shard cuts of the full
/// experiment topology produce byte-identical logs.
#[test]
fn shard_count_never_changes_the_outcome() {
    let base = digest(&run_experiment_sharded(&sharded_setup(1)));
    assert!(base.0 > 0, "the run produced records");
    for k in [2usize, 4, 8] {
        let out = run_experiment_sharded(&sharded_setup(k));
        assert_eq!(digest(&out), base, "shards = {k} diverged");
    }
}

/// The round loop earns its keep: horizons come from the delays actually
/// sampled, so a two-shard run takes fewer barrier crossings than it has
/// events (at the bare 1 ms floor it took nearly one each), and a
/// one-shard run — no peers, nothing parked — is the `[0, L)` opening
/// round plus one round for everything else.
#[test]
fn rounds_are_fewer_than_events() {
    let two = run_experiment_sharded(&sharded_setup(2)).perf;
    assert!(two.sync_rounds > 0 && two.sync_rounds < two.events_popped);
    let one = run_experiment_sharded(&sharded_setup(1)).perf;
    assert!((1..=2).contains(&one.sync_rounds), "{}", one.sync_rounds);
    let legacy = Report::run(&fixed_setup(1)).output.perf;
    assert_eq!(legacy.sync_rounds, 0);
}

/// Run-twice determinism with the full supported fault + defense
/// surface armed: a resolver crash/restart (owner-shard local fault), a
/// bursty link degrade with latency inflation (replicated to every
/// sender shard), the classic random-drop attack, and RRL at both
/// authoritatives (shard 0) — twice, byte-identical, audits clean.
#[test]
fn faulted_defended_sharded_run_is_deterministic() {
    let run = || {
        let mut setup = sharded_setup(4);
        let ns = dike::experiments::topology::ns_addrs();
        // Node 10 is deep in the resolver population (the hierarchy is
        // nodes 0–3); crash it mid-attack and bring it back cold.
        setup.faults = Some(
            FaultPlan::new()
                .with(Fault::crash_restart(
                    NodeId(10),
                    SimDuration::from_mins(25).after_zero(),
                    SimDuration::from_mins(10),
                    true,
                ))
                .with(
                    Fault::link_degrade(
                        ns[1],
                        SimDuration::from_mins(30).after_zero(),
                        SimDuration::from_mins(20),
                        0.5,
                        8.0,
                    )
                    .with_latency_factor(2.0),
                ),
        );
        let rrl = dike::defense::RrlConfig {
            rate_qps: 5.0,
            burst: 10.0,
            slip: 0,
            prefix_bits: 24,
        };
        setup.defense = Some(
            DefensePlan::new()
                .with(Defense::rrl(ns[0], rrl))
                .with(Defense::rrl(ns[1], rrl)),
        );
        digest(&run_experiment_sharded(&setup))
    };
    let first = run();
    assert!(first.0 > 0);
    assert_eq!(first, run(), "same setup, same seed, different log");
}
