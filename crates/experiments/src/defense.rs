//! Server-side defenses under the paper's attacks: the §7 tension,
//! measured.
//!
//! The paper's client-side story (§5–6) is that retries plus caches keep
//! most users alive through severe attacks. This module adds the
//! operator's side: the same Table-4 scenario (Experiment H's 90% loss)
//! with a spoofed-source flood hammering the authoritatives, replayed
//! under each server-side defense from `dike-defense` — RRL in drop and
//! slip modes, class-based admission control, and anycast scale-out.
//! The question the comparison answers is the §7 trade-off: how much
//! spoofed traffic each defense refuses to serve, and what that costs
//! the legitimate clients the paper measured.
//!
//! Two rules keep the comparison honest:
//!
//! * The legitimate workload is byte-identical across variants — the
//!   defense layer draws no randomness, so the "none" row reproduces
//!   the plain Experiment H run exactly.
//! * The spoofed fleet is deterministic too: timer-paced sources, one
//!   node per spoofed address, staggered starts — no RNG.

use std::sync::Arc;

use dike_defense::{ClassifierKind, Defense, DefensePlan, RrlConfig};
use dike_netsim::{
    Addr, ClassedQueueConfig, Context, DefenseLedger, Node, SimDuration, SimTime, Simulator,
    TimerToken,
};
use dike_telemetry::sync::Mutex;
use dike_telemetry::TelemetryConfig;
use dike_wire::{Message, Name, RecordType};

use crate::ddos::DdosExperiment;
use crate::report::Report;
use crate::setup::{AttackPlan, ExperimentSetup};

// ---------------------------------------------------------------------
// The spoofed-source flood
// ---------------------------------------------------------------------

/// A deterministic spoofed-source query flood against the cachetest.nl
/// authoritatives: `sources` timer-paced sender nodes, each with its own
/// simulated address (RRL sees distinct sources), alternating between
/// the two name servers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoofedFlood {
    /// Number of distinct spoofed sources (one node each).
    pub sources: usize,
    /// Sustained queries per second per source.
    pub qps_per_source: f64,
    /// Minutes after start when the flood begins.
    pub start_min: u64,
    /// Flood duration in minutes.
    pub duration_min: u64,
}

impl SpoofedFlood {
    /// A flood aligned with an attack window.
    pub fn aligned_with(attack: &AttackPlan, sources: usize, qps_per_source: f64) -> SpoofedFlood {
        SpoofedFlood {
            sources,
            qps_per_source,
            start_min: attack.start_min,
            duration_min: attack.duration_min,
        }
    }
}

/// What the spoofed fleet saw: its offered load and what the
/// authoritatives actually served it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpoofedStats {
    /// Queries the fleet sent.
    pub sent: u64,
    /// Full (non-truncated) answers received — the served volume a
    /// reflection attack would amplify.
    pub full_answers: u64,
    /// Truncated TC=1 answers received (RRL slips; useless to an
    /// amplification attack).
    pub truncated_answers: u64,
}

/// One spoofed source: paces queries with a timer, tallies what comes
/// back. Deterministic — the only per-source variation is the start
/// stagger, derived from the source index.
struct SpoofedSource {
    targets: [Addr; 2],
    first_fire: SimDuration,
    interval: SimDuration,
    end: SimTime,
    query_id: u16,
    next_target: usize,
    stats: Arc<Mutex<SpoofedStats>>,
}

impl Node for SpoofedSource {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.first_fire, TimerToken(0));
    }

    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _len: usize) {
        if msg.is_response {
            let mut stats = self.stats.lock();
            if msg.truncated {
                stats.truncated_answers += 1;
            } else {
                stats.full_answers += 1;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        if ctx.now() >= self.end {
            return;
        }
        let name = Name::parse(&format!("{}.cachetest.nl", self.query_id)).unwrap();
        let q = Message::iterative_query(self.query_id, name, RecordType::AAAA);
        let dst = self.targets[self.next_target % 2];
        self.next_target += 1;
        ctx.send(dst, &q);
        self.stats.lock().sent += 1;
        ctx.set_timer(self.interval, TimerToken(0));
    }
}

/// Adds the fleet to a built world. Returns the shared tally; callers
/// unwrap it after the simulator is dropped.
pub(crate) fn install_spoofed_flood(
    sim: &mut Simulator,
    flood: &SpoofedFlood,
    targets: [Addr; 2],
) -> Arc<Mutex<SpoofedStats>> {
    let stats = Arc::new(Mutex::new(SpoofedStats::default()));
    let start = SimDuration::from_mins(flood.start_min);
    let end = (start + SimDuration::from_mins(flood.duration_min)).after_zero();
    let interval = SimDuration::from_secs_f64(1.0 / flood.qps_per_source.max(0.001));
    for i in 0..flood.sources {
        // Stagger sources across one pacing interval so the fleet's
        // aggregate is smooth, not `sources`-sized pulses.
        let stagger =
            SimDuration::from_nanos(interval.as_nanos() * i as u64 / flood.sources.max(1) as u64);
        sim.add_node(Box::new(SpoofedSource {
            targets,
            first_fire: start + stagger,
            interval,
            end,
            query_id: 50_000u16.wrapping_add(i as u16),
            next_target: i % 2,
            stats: stats.clone(),
        }));
    }
    stats
}

// ---------------------------------------------------------------------
// The late-resolver wave (history-classifier false positives)
// ---------------------------------------------------------------------

/// Query pacing of one late-wave resolver: one query per 30 seconds
/// (0.033 qps). That is far below every preset's RRL rate of 0.1 qps,
/// so rate limiting never triggers: what refuses these sources is
/// classification, not volume.
pub const LATE_RESOLVER_QPS: f64 = 1.0 / 30.0;

/// A wave of *legitimate* resolvers that first appear after the attack
/// onset — the history classifier's blind spot. `ClassifierKind::History`
/// whitelists sources seen before its cutoff (the onset); a resolver that
/// sends its first query afterwards is indistinguishable from a spoofed
/// source and lands in the unknown class, sharing its thin admission
/// slice with the flood. This fleet measures that false-positive cost:
/// timer-paced, slow (well under every RRL rate), deterministic sources
/// arriving at a steady rate through the attack window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LateResolverWave {
    /// New resolvers arriving per minute, spread evenly over the window.
    /// Each then queries at [`LATE_RESOLVER_QPS`].
    pub arrivals_per_min: f64,
    /// Minutes after start when the first resolver arrives (the attack
    /// onset, so every arrival postdates the history cutoff).
    pub start_min: u64,
    /// Arrival window in minutes (the attack duration); each resolver
    /// queries from its arrival until the window closes.
    pub window_min: u64,
}

impl LateResolverWave {
    /// Number of resolver nodes the wave installs.
    pub fn count(&self) -> usize {
        (self.arrivals_per_min * self.window_min as f64).ceil() as usize
    }
}

/// Adds the wave to a built world, reusing the timer-paced source node:
/// on the wire a late legitimate resolver and a slow spoofed source are
/// the same traffic — which is exactly why history classification
/// cannot tell them apart. Returns the shared tally.
pub(crate) fn install_late_wave(
    sim: &mut Simulator,
    wave: &LateResolverWave,
    targets: [Addr; 2],
) -> Arc<Mutex<SpoofedStats>> {
    let stats = Arc::new(Mutex::new(SpoofedStats::default()));
    let n = wave.count();
    let interval = SimDuration::from_secs_f64(1.0 / LATE_RESOLVER_QPS);
    let end = SimDuration::from_mins(wave.start_min + wave.window_min).after_zero();
    for i in 0..n {
        let arrival = SimDuration::from_secs_f64(
            wave.start_min as f64 * 60.0 + i as f64 * 60.0 / wave.arrivals_per_min.max(0.001),
        );
        sim.add_node(Box::new(SpoofedSource {
            targets,
            first_fire: arrival,
            interval,
            end,
            // Distinct probe-name space from the flood (50_000..), so the
            // server-side view can tell the fleets apart if it cares.
            query_id: 40_000u16.wrapping_add(i as u16),
            next_target: i % 2,
            stats: stats.clone(),
        }));
    }
    stats
}

// ---------------------------------------------------------------------
// Defense presets
// ---------------------------------------------------------------------

/// The defense configurations the §7 comparison (and the sweep engine's
/// defense axis) steps through. Each maps to a [`DefensePlan`] against
/// the two cachetest.nl authoritatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefensePreset {
    /// No server-side defense: the paper's original scenario.
    None,
    /// RRL, silent-drop action.
    RrlDrop,
    /// RRL, slip-every-2nd action (TC=1 answers).
    RrlSlip,
    /// History-classified weighted admission control.
    Admission,
    /// Admission control plus delayed capacity scale-out.
    ScaleOut,
}

/// All presets, in comparison-table order.
pub const ALL_PRESETS: [DefensePreset; 5] = [
    DefensePreset::None,
    DefensePreset::RrlDrop,
    DefensePreset::RrlSlip,
    DefensePreset::Admission,
    DefensePreset::ScaleOut,
];

impl DefensePreset {
    /// The comparison-table label.
    pub fn label(self) -> &'static str {
        match self {
            DefensePreset::None => "none",
            DefensePreset::RrlDrop => "rrl-drop",
            DefensePreset::RrlSlip => "rrl-slip",
            DefensePreset::Admission => "admission",
            DefensePreset::ScaleOut => "scale-out",
        }
    }

    /// The RRL parameters the presets share: per-address buckets (the
    /// simulated world assigns addresses densely, so a /24 would lump
    /// legitimate resolvers in with spoofed sources), rates far above a
    /// cached resolver's per-address trickle and far below a flood
    /// source's sustained stream. Each authoritative runs its own
    /// limiter, so a source's allowance is twice `rate_qps`.
    fn rrl_config(slip: u32) -> RrlConfig {
        RrlConfig {
            rate_qps: 0.1,
            burst: 4.0,
            slip,
            prefix_bits: 32,
        }
    }

    /// This preset as a plan against `targets`, for an attack starting
    /// at `onset`.
    pub fn plan(self, targets: [Addr; 2], onset: SimTime) -> DefensePlan {
        let mut plan = DefensePlan::new();
        match self {
            DefensePreset::None => {}
            DefensePreset::RrlDrop => {
                for t in targets {
                    plan.push(Defense::rrl(t, Self::rrl_config(0)).starting_at(onset));
                }
            }
            DefensePreset::RrlSlip => {
                for t in targets {
                    plan.push(Defense::rrl(t, Self::rrl_config(2)).starting_at(onset));
                }
            }
            DefensePreset::Admission | DefensePreset::ScaleOut => {
                for t in targets {
                    plan.push(Defense::Admission {
                        target: t,
                        start: onset,
                        queue: ClassedQueueConfig {
                            // Sized to the attack: the unknown class
                            // (where history classification puts the
                            // spoofed fleet) gets a thin slice and a
                            // short buffer; known resolvers keep an
                            // ample share.
                            rate_pps: 60.0,
                            weights: [8.0, 1.0, 1.0],
                            capacity: [500, 20, 20],
                        },
                        classifier: ClassifierKind::History { cutoff: onset },
                    });
                    if self == DefensePreset::ScaleOut {
                        plan.push(Defense::scale_out(
                            t,
                            onset,
                            SimDuration::from_mins(10),
                            8.0,
                        ));
                    }
                }
            }
        }
        plan
    }
}

// ---------------------------------------------------------------------
// The comparison runner
// ---------------------------------------------------------------------

/// One row of the defense comparison table.
#[derive(Debug, Clone)]
pub struct DefenseRow {
    /// Which defense.
    pub preset: DefensePreset,
    /// Legitimate-client OK fraction during the attack window
    /// (per-query weighted, like Table 4's analysis).
    pub ok_during_attack: Option<f64>,
    /// The spoofed fleet's tally.
    pub spoofed: SpoofedStats,
    /// Queries the defense layer refused (drops + sheds), from the
    /// netsim counters.
    pub defense_drops: u64,
    /// RRL-limited queries (drop + slip).
    pub rrl_limited: u64,
    /// Limited queries answered TC=1.
    pub rrl_slipped: u64,
    /// Admission sheds summed over classes.
    pub shed: u64,
    /// Scale-out provisioning actions fired.
    pub scaleouts: u64,
}

/// The full §7 comparison: one row per preset.
#[derive(Debug, Clone)]
pub struct DefenseComparison {
    /// The scenario's attack (Experiment H's 90% loss window).
    pub attack: AttackPlan,
    /// The spoofed flood all rows share.
    pub flood: SpoofedFlood,
    /// One row per [`ALL_PRESETS`] entry, in order.
    pub rows: Vec<DefenseRow>,
}

/// Experiment H (Table 4: 90% loss at both name servers, minutes
/// 60–120, TTL 1800) plus a 24 × 10 qps spoofed flood over the attack
/// window, with telemetry cuts on the figures' 10-minute grid — the
/// scenario the §7 and cookie comparisons run their arms under. `scale`
/// scales the probe population exactly like [`crate::ddos::run_ddos`];
/// no probe is tracked for Table 7.
pub(crate) fn flooded_experiment_h(scale: f64, seed: u64) -> ExperimentSetup {
    let p = DdosExperiment::H.params();
    let attack = p.attack();
    let mut setup = ExperimentSetup::table4_paced(scale, p.ttl, p.total_min, seed);
    setup.attack = Some(attack);
    setup.spoofed_flood = Some(SpoofedFlood::aligned_with(&attack, 24, 10.0));
    setup.telemetry = Some(TelemetryConfig::every_mins(10));
    setup
}

/// The flooded Experiment H scenario with `preset` armed at the attack
/// onset.
pub fn defense_setup(preset: DefensePreset, scale: f64, seed: u64) -> ExperimentSetup {
    let mut setup = flooded_experiment_h(scale, seed);
    setup.arm_defense(|ns, onset| preset.plan(ns, onset));
    setup
}

/// Runs one preset and derives its comparison row.
pub fn run_defense_case(preset: DefensePreset, scale: f64, seed: u64) -> DefenseRow {
    let report = Report::run(&defense_setup(preset, scale, seed));
    let reg = report.metrics().expect("defense_setup sets telemetry");
    let ledger = DefenseLedger::from_registry(reg, "netsim");
    DefenseRow {
        preset,
        ok_during_attack: report.ok_fraction_during_attack(),
        spoofed: report.spoofed_stats().unwrap_or_default(),
        defense_drops: ledger.defense_drops,
        rrl_limited: ledger.rrl_limited,
        rrl_slipped: ledger.rrl_slipped,
        shed: ledger.shed(),
        scaleouts: reg
            .counter_total("netsim", None, "scaleout_activations")
            .unwrap_or(0),
    }
}

/// Runs every preset under the identical scenario and seed.
pub fn run_defense_comparison(scale: f64, seed: u64) -> DefenseComparison {
    let probe = defense_setup(DefensePreset::None, scale, seed);
    DefenseComparison {
        attack: probe.attack.unwrap(),
        flood: probe.spoofed_flood.unwrap(),
        rows: ALL_PRESETS
            .into_iter()
            .map(|p| run_defense_case(p, scale, seed))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_labels_and_produce_valid_plans() {
        let ns = crate::topology::ns_addrs();
        let onset = SimDuration::from_mins(60).after_zero();
        for p in ALL_PRESETS {
            let namesakes = ALL_PRESETS.iter().filter(|q| q.label() == p.label());
            assert_eq!(namesakes.count(), 1, "{} names one preset", p.label());
            let plan = p.plan(ns, onset);
            plan.validate().expect("preset plans validate");
            // And they survive the portable JSON format.
            let back = DefensePlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(plan, back);
        }
        assert!(DefensePreset::None.plan(ns, onset).is_empty());
    }

    /// Golden `Debug` of what every preset runs under, captured at
    /// commit 747963d from the hand-built setup (`RrlSlip`, scale 0.012,
    /// seed 29).
    #[test]
    fn defense_setup_matches_the_captured_setup() {
        let setup = defense_setup(DefensePreset::RrlSlip, 0.012, 29);
        assert_eq!(
            setup.track_probe, None,
            "no Table 7 drill-down (and sharded runs reject one)"
        );
        assert_eq!((setup.n_probes, setup.ttl, setup.rounds), (110, 1800, 18));
        assert_eq!(
            format!(
                "{:?}",
                (
                    setup.attack,
                    setup.spoofed_flood,
                    &setup.defense,
                    setup.telemetry
                )
            ),
            "(Some(AttackPlan { start_min: 60, duration_min: 60, loss: 0.9, scope: BothNs }), \
             Some(SpoofedFlood { sources: 24, qps_per_source: 10.0, start_min: 60, \
             duration_min: 60 }), \
             Some(DefensePlan { defenses: [\
             Rrl { target: Addr(167772163), start: SimTime(3600000000000), config: \
             RrlConfig { rate_qps: 0.1, burst: 4.0, slip: 2, prefix_bits: 32 } }, \
             Rrl { target: Addr(167772164), start: SimTime(3600000000000), config: \
             RrlConfig { rate_qps: 0.1, burst: 4.0, slip: 2, prefix_bits: 32 } }] }), \
             Some(TelemetryConfig { snapshot_interval_nanos: 600000000000 }))"
        );
    }

    /// The §7 acceptance numbers at reduced scale: RRL-with-slip must
    /// hold legitimate clients within 5 points of the undefended run
    /// while refusing at least half the spoofed fleet's served volume.
    #[test]
    fn rrl_slip_protects_the_server_without_hurting_clients() {
        let none = run_defense_case(DefensePreset::None, 0.012, 29);
        let slip = run_defense_case(DefensePreset::RrlSlip, 0.012, 29);
        let ok_none = none.ok_during_attack.expect("attack rounds have traffic");
        let ok_slip = slip.ok_during_attack.expect("attack rounds have traffic");
        assert!(
            ok_slip >= ok_none - 0.05,
            "slip hurts clients: {ok_slip} vs {ok_none}"
        );
        assert!(none.spoofed.full_answers > 0, "undefended server amplifies");
        assert!(
            (slip.spoofed.full_answers as f64) < 0.5 * none.spoofed.full_answers as f64,
            "served spoofed volume {} not halved from {}",
            slip.spoofed.full_answers,
            none.spoofed.full_answers
        );
        assert!(slip.rrl_slipped > 0, "slip mode slips");
        assert_eq!(none.defense_drops, 0);
    }

    /// Admission control with history classification sheds the
    /// unknown-class flood while known resolvers keep their share.
    #[test]
    fn admission_sheds_the_spoofed_class() {
        let adm = run_defense_case(DefensePreset::Admission, 0.012, 29);
        assert!(adm.shed > 0, "unknown class saturates and sheds");
        let ok = adm.ok_during_attack.expect("attack rounds have traffic");
        assert!(ok > 0.3, "known resolvers keep service: {ok}");
    }
}
