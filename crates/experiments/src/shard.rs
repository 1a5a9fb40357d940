//! The sharded parallel experiment driver: one Table 4 scenario cut
//! across K worker threads, deterministically.
//!
//! [`run_experiment_sharded`] builds the world exactly as
//! [`crate::setup::run_experiment`] would — same topology module, same
//! population seed, same build order — then dismantles the staging
//! simulator and deals its nodes into K [`Simulator::new_sharded`]
//! shards over contiguous address slices ([`even_starts`]). The shards
//! run under [`ShardedSim`]'s conservative round loop; the
//! outcome is a function of `(setup, seed)` only, never of K or thread
//! scheduling (see `DESIGN.md` §5.10).
//!
//! Two deliberate semantic differences from the single-threaded engine
//! (which keeps its pinned digest):
//!
//! * randomness comes from per-node streams instead of one global
//!   stream, so shard membership cannot reorder draws;
//! * every one-way delay is clamped to the cross-shard lookahead floor
//!   ([`DEFAULT_LOOKAHEAD`], 1 ms). That is below every calibrated
//!   *median* here but inside the tail of the shortest last-mile paths
//!   (`topology::build` gives 60 % of probes a LogNormal with a 2–11 ms
//!   median and σ 0.25), so the clamp does bind: on 0.005 % of the
//!   sampled delays of a 4.6k-probe run under 90 % loss.
//!
//! Feature gates: parts of the stack that route through global
//! single-threaded state (TCP connections, cookies, telemetry
//! snapshots, service queues, the auxiliary attack fleets, per-probe
//! drill-down, anycast scale-out) are rejected up front with a clear
//! panic rather than silently miscounted. The supported surface —
//! the classic random-drop attack, node crash/restart faults, bursty
//! link degrades, RRL/admission/cookie-less defenses, regional
//! latency — covers every Table 4 scenario and the fault/defense
//! sweeps.

use dike_defense::Defense;
use dike_faults::{Fault, FaultPlan};
use dike_netsim::{
    even_starts, trace, NodeId, ShardConfig, ShardedSim, SimDuration, Simulator, DEFAULT_LOOKAHEAD,
};
use dike_stats::server_view::ServerView;

use crate::setup::{audit_enabled, sole, ExperimentOutput, ExperimentSetup};
use crate::topology::{self, BuildConfig};

/// Panics listing every setup feature the sharded engine cannot honour.
fn reject_unsupported(setup: &ExperimentSetup) {
    let mut unsupported: Vec<&str> = Vec::new();
    if setup.tcp.is_some() {
        unsupported.push("tcp fallback");
    }
    if setup.cookie_secret.is_some() {
        unsupported.push("dns cookies");
    }
    if setup.tcp_exhaustion.is_some() {
        unsupported.push("tcp exhaustion fleet");
    }
    if setup.nxns.is_some() {
        unsupported.push("nxns attack");
    }
    if setup.spoofed_flood.is_some() {
        unsupported.push("spoofed flood fleet");
    }
    if setup.late_wave.is_some() {
        unsupported.push("late resolver wave");
    }
    if setup.telemetry.is_some() {
        unsupported.push("telemetry snapshots");
    }
    if setup.track_probe.is_some() {
        unsupported.push("per-probe drill-down");
    }
    if setup.defense.as_ref().is_some_and(|d| {
        d.defenses
            .iter()
            .any(|d| matches!(d, Defense::ScaleOut { .. }))
    }) {
        unsupported.push("anycast scale-out defense");
    }
    if setup
        .faults
        .as_ref()
        .is_some_and(|f| f.faults.iter().any(|f| matches!(f, Fault::Flood { .. })))
    {
        unsupported.push("queue-flood fault");
    }
    assert!(
        unsupported.is_empty(),
        "sharded runs (shards = {}) do not support: {}; \
         run single-threaded (shards = 1) instead",
        setup.shards,
        unsupported.join(", ")
    );
}

/// Which shard owns global node index `g`, given slice start indices.
fn owner_shard(bounds: &[usize], g: usize) -> usize {
    bounds.partition_point(|b| *b <= g) - 1
}

/// Runs one experiment on the sharded parallel engine.
///
/// `setup.shards == 1` is accepted (a one-shard world on one worker
/// thread) and produces the *same* digest as any other shard count —
/// useful for identity tests; [`crate::setup::run_experiment`] only
/// dispatches here for `shards >= 2`.
///
/// # Panics
///
/// On unsupported setup features (see the module docs), on more shards
/// than nodes, and — when auditing is enabled — on any conservation
/// violation in the cross-shard ledger.
pub fn run_experiment_sharded(setup: &ExperimentSetup) -> ExperimentOutput {
    let k = setup.shards.max(1);
    reject_unsupported(setup);

    // Stage the world in a throwaway single-threaded simulator: the
    // topology module runs unchanged, so the population, addressing and
    // link fabric are byte-for-byte those of a `shards = 1` run.
    let mut staging = Simulator::new(setup.seed);
    let topo = topology::build(&mut staging, &BuildConfig::from(setup));
    let (nodes, links) = staging.dismantle();
    let n = nodes.len();
    assert!(
        k <= n,
        "{k} shards for {n} nodes: every shard needs at least one node"
    );

    // Contiguous even slices of the global node order. `starts` holds
    // the first *address* of each slice; subtracting the base address
    // turns them into node-index bounds.
    let starts = even_starts(n, k);
    let bounds: Vec<usize> = starts.iter().map(|s| (s - starts[0]) as usize).collect();
    // The hierarchy (root, nl, ns1, ns2) anchors the low end of the
    // address space; defenses and the server view assume it stays
    // together on shard 0.
    let first_cut = bounds.get(1).copied().unwrap_or(n);
    assert!(
        first_cut >= 4,
        "shard 0 ({first_cut} nodes) must hold the whole DNS hierarchy"
    );

    let mut nodes = nodes.into_iter();
    let mut shards: Vec<Simulator> = (0..k)
        .map(|i| {
            let hi = bounds.get(i + 1).copied().unwrap_or(n);
            let mut sim = Simulator::new_sharded(
                setup.seed,
                ShardConfig {
                    id: i,
                    starts: starts.clone(),
                    floor: DEFAULT_LOOKAHEAD,
                },
            );
            *sim.links_mut() = links.clone();
            for _ in bounds[i]..hi {
                sim.add_node(nodes.next().expect("bounds cover the node list"));
            }
            sim
        })
        .collect();
    debug_assert!(nodes.next().is_none(), "every node was dealt to a shard");

    // Server-side accounting: the view filters on the ns addresses
    // (shard 0), but the shared sink goes to every shard so the
    // accounting point — datagram arrival at the defended ingress —
    // is identical to the single-threaded engine's no matter where a
    // query originated. Bin counters are sums, so cross-thread
    // interleaving cannot change the result.
    let view = ServerView::new(topo.ns, SimDuration::from_mins(10));
    let (view_handle, sink) = trace::shared(view);
    for sim in &mut shards {
        sim.add_sink(sink.clone());
    }
    drop(sink);

    // The classic attack and any extra faults, dealt to shards:
    //
    // * ingress-loss and link-degrade faults go to *every* shard — loss
    //   draws happen on the destination's shard, but the degrade's
    //   latency factor applies at the sender, so all senders must see
    //   the same window;
    // * node crashes go to the owning shard only, with the node id
    //   rebased from the global build order to the shard's local space.
    let mut per_shard: Vec<FaultPlan> = vec![FaultPlan::new(); k];
    let mut all_faults: Vec<Fault> = Vec::new();
    if let Some(plan) = setup.attack {
        debug_assert_eq!(plan.targets()[0], topo.ns[0]);
        all_faults.push(plan.fault());
    }
    if let Some(plan) = &setup.faults {
        all_faults.extend(plan.faults.iter().cloned());
    }
    for fault in all_faults {
        match fault {
            Fault::NodeDown { node, at, restart } => {
                let g = node.0 as usize;
                assert!(g < n, "fault names node {g}, world has {n}");
                let s = owner_shard(&bounds, g);
                per_shard[s].push(Fault::NodeDown {
                    node: NodeId((g - bounds[s]) as u32),
                    at,
                    restart,
                });
            }
            Fault::Flood { .. } => unreachable!("rejected by reject_unsupported"),
            replicated @ (Fault::LinkDegrade { .. } | Fault::RandomDrop { .. }) => {
                for plan in &mut per_shard {
                    plan.push(replicated.clone());
                }
            }
        }
    }
    for (i, (sim, plan)) in shards.iter_mut().zip(&per_shard).enumerate() {
        plan.schedule(sim)
            .unwrap_or_else(|(j, e)| panic!("invalid fault plan on shard {i} (fault {j}): {e}"));
    }

    // Defenses guard the authoritatives' ingress, and the whole
    // hierarchy lives on shard 0 (asserted above).
    if let Some(defense) = &setup.defense {
        defense
            .schedule(&mut shards[0])
            .unwrap_or_else(|(i, e)| panic!("invalid defense plan (defense {i}): {e}"));
    }

    let mut sharded = ShardedSim::new(shards);
    sharded.run_until(setup.total_duration.after_zero());
    if audit_enabled(setup) {
        sharded.audit().assert_clean();
    }
    let perf = sharded.perf();
    drop(sharded); // release the Arc clones the shard simulators hold

    let mut log = sole(topo.log, "log");
    // Shard threads append concurrently; the record *set* is
    // deterministic but the raw order is not. Canonical order is what
    // digests compare.
    log.canonicalize();
    let server = sole(view_handle, "view");

    let n_vps = topo.vps.len();
    ExperimentOutput {
        log,
        server,
        vps: topo.vps,
        google_backends: topo.google_backends,
        public_r1s: topo.public_r1s,
        n_probes: topo.n_probes,
        n_vps,
        metrics: None,
        perf,
        spoofed: None,
        late: None,
        exhaustion: None,
        nxns: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{AttackPlan, AttackScope};

    fn digest(out: &ExperimentOutput) -> (usize, u64) {
        (out.log.records.len(), out.log.digest())
    }

    fn small_setup() -> ExperimentSetup {
        let mut setup = ExperimentSetup::new(12, 1800);
        setup.rounds = 3;
        setup.total_duration = SimDuration::from_mins(60);
        setup.attack = Some(AttackPlan {
            start_min: 20,
            duration_min: 30,
            loss: 0.75,
            scope: AttackScope::BothNs,
        });
        setup.audit = true;
        setup
    }

    #[test]
    fn shard_count_does_not_change_the_digest() {
        let base = {
            let mut s = small_setup();
            s.shards = 1;
            digest(&run_experiment_sharded(&s))
        };
        assert!(base.0 > 0, "the run produced records");
        for k in [2, 3, 4] {
            let mut s = small_setup();
            s.shards = k;
            let out = crate::setup::run_experiment(&s);
            assert_eq!(digest(&out), base, "shards = {k} diverged");
        }
    }

    #[test]
    fn unsupported_features_are_rejected_loudly() {
        let mut s = small_setup();
        s.shards = 2;
        s.telemetry = Some(dike_telemetry::TelemetryConfig::every_mins(10));
        let err = std::panic::catch_unwind(|| run_experiment_sharded(&s))
            .expect_err("telemetry must be rejected");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("telemetry"), "panic said: {msg}");
    }
}
