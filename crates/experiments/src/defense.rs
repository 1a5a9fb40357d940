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
//!   node per spoofed address, staggered starts, one encoded query per
//!   source — no RNG.

use std::sync::Arc;

use dike_defense::{ClassifierKind, Defense, DefensePlan, RrlConfig};
use dike_netsim::{
    Addr, ClassedQueueConfig, Context, DefenseLedger, Node, SimDuration, SimTime, Simulator,
    TimerToken,
};
use dike_telemetry::sync::Mutex;
use dike_telemetry::TelemetryConfig;
use dike_wire::{Message, Name, RecordType};

use crate::cookies::ExhaustionStats;
use crate::ddos::DdosExperiment;
use crate::report::Report;
use crate::setup::{AttackPlan, ExperimentSetup};
use crate::sweep::{SweepAxis, SweepEngine};

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

/// First query id of the spoofed flood; source `i` sends id
/// `FLOOD_FIRST_ID + i`.
const FLOOD_FIRST_ID: u16 = 50_000;

/// First query id of the late wave; resolver `i` sends id
/// `WAVE_FIRST_ID + i`, below the flood's range and above every probe's.
pub(crate) const WAVE_FIRST_ID: u16 = 40_000;

/// Most sources a flood may have: their ids run from
/// [`FLOOD_FIRST_ID`] to `u16::MAX` without wrapping into the probe ids.
const MAX_FLOOD_SOURCES: usize = (u16::MAX - FLOOD_FIRST_ID) as usize + 1;

/// Most resolvers a late wave may install: their ids run from
/// [`WAVE_FIRST_ID`] up to, not into, the flood's range.
const MAX_LATE_ARRIVALS: usize = (FLOOD_FIRST_ID - WAVE_FIRST_ID) as usize;

/// Why a spoofed flood or late wave cannot be installed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FleetError {
    /// The rate is NaN, infinite or out of range: a flood needs a
    /// positive rate, a wave a non-negative one.
    RateOutOfRange(f64),
    /// The flood's rate paces its sources below one nanosecond, so a
    /// source would re-arm at the same instant forever.
    ZeroInterval(f64),
    /// More flood sources than the 15,536 query ids from 50,000 up.
    TooManySources(usize),
    /// More late resolvers than the 10,000 query ids from 40,000 up to
    /// the flood's range.
    TooManyArrivals(usize),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::RateOutOfRange(r) => write!(f, "rate {r} is out of range"),
            FleetError::ZeroInterval(r) => {
                write!(f, "rate {r} q/s paces a source below one nanosecond")
            }
            FleetError::TooManySources(n) => {
                write!(
                    f,
                    "{n} sources exceed the {MAX_FLOOD_SOURCES} flood query ids"
                )
            }
            FleetError::TooManyArrivals(n) => {
                write!(
                    f,
                    "{n} arrivals exceed the {MAX_LATE_ARRIVALS} late-wave query ids"
                )
            }
        }
    }
}

impl std::error::Error for FleetError {}

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

    /// One source's pacing interval.
    fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.qps_per_source)
    }

    /// Checks that the flood can be installed: a finite positive rate
    /// that paces each source at least one nanosecond apart, and no more
    /// sources than query ids.
    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        let rate = self.qps_per_source;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(FleetError::RateOutOfRange(rate));
        }
        if self.interval() == SimDuration::ZERO {
            return Err(FleetError::ZeroInterval(rate));
        }
        if self.sources > MAX_FLOOD_SOURCES {
            return Err(FleetError::TooManySources(self.sources));
        }
        Ok(())
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
    /// The source's one query, encoded at its first tick and resent as
    /// the same refcounted bytes on every later one.
    payload: Option<Arc<[u8]>>,
    next_target: usize,
    stats: Arc<Mutex<SpoofedStats>>,
}

/// The query a source with `id` sends, every tick: an iterative
/// `{id}.cachetest.nl AAAA` carrying `id` as its message id.
fn spoofed_query(id: u16) -> Message {
    let name = Name::parse(&format!("{id}.cachetest.nl")).expect("a numeric label parses");
    Message::iterative_query(id, name, RecordType::AAAA)
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
        let id = self.query_id;
        let payload = self
            .payload
            .get_or_insert_with(|| ctx.encode(&spoofed_query(id)))
            .clone();
        let dst = self.targets[self.next_target % 2];
        self.next_target += 1;
        ctx.send_wire(dst, payload);
        self.stats.lock().sent += 1;
        ctx.set_timer(self.interval, TimerToken(0));
    }
}

/// Adds the fleet to a built world, or refuses an invalid flood before
/// adding anything. Returns the shared tally; callers unwrap it after
/// the simulator is dropped.
pub(crate) fn install_spoofed_flood(
    sim: &mut Simulator,
    flood: &SpoofedFlood,
    targets: [Addr; 2],
) -> Result<Arc<Mutex<SpoofedStats>>, FleetError> {
    flood.validate()?;
    let stats = Arc::new(Mutex::new(SpoofedStats::default()));
    let start = SimDuration::from_mins(flood.start_min);
    let end = (start + SimDuration::from_mins(flood.duration_min)).after_zero();
    let interval = flood.interval();
    for i in 0..flood.sources {
        // Stagger sources across one pacing interval so the fleet's
        // aggregate is smooth, not `sources`-sized pulses.
        let stagger = interval.as_nanos() as u128 * i as u128 / flood.sources as u128;
        sim.add_node(Box::new(SpoofedSource {
            targets,
            first_fire: start + SimDuration::from_nanos(stagger as u64),
            interval,
            end,
            query_id: FLOOD_FIRST_ID + i as u16,
            payload: None,
            next_target: i % 2,
            stats: stats.clone(),
        }));
    }
    Ok(stats)
}

// ---------------------------------------------------------------------
// The late-resolver wave (history-classifier false positives)
// ---------------------------------------------------------------------

/// Query pacing of one late-wave resolver: one query per 30 seconds
/// (0.033 qps). That is far below every preset's RRL rate of 0.1 qps,
/// so rate limiting never triggers: what refuses these sources is
/// classification, not volume.
pub(crate) const LATE_RESOLVER_QPS: f64 = 1.0 / 30.0;

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
    /// Each then queries once every 30 seconds.
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

    /// Checks that the wave can be installed: a finite non-negative
    /// arrival rate, and no more resolvers than query ids.
    pub(crate) fn validate(&self) -> Result<(), FleetError> {
        let rate = self.arrivals_per_min;
        if !rate.is_finite() || rate < 0.0 {
            return Err(FleetError::RateOutOfRange(rate));
        }
        if self.count() > MAX_LATE_ARRIVALS {
            return Err(FleetError::TooManyArrivals(self.count()));
        }
        Ok(())
    }
}

/// Adds the wave to a built world, reusing the timer-paced source node:
/// on the wire a late legitimate resolver and a slow spoofed source are
/// the same traffic — which is exactly why history classification
/// cannot tell them apart. Refuses an invalid wave before adding
/// anything; returns the shared tally.
pub(crate) fn install_late_wave(
    sim: &mut Simulator,
    wave: &LateResolverWave,
    targets: [Addr; 2],
) -> Result<Arc<Mutex<SpoofedStats>>, FleetError> {
    wave.validate()?;
    let stats = Arc::new(Mutex::new(SpoofedStats::default()));
    let n = wave.count();
    let interval = SimDuration::from_secs_f64(1.0 / LATE_RESOLVER_QPS);
    let end = SimDuration::from_mins(wave.start_min + wave.window_min).after_zero();
    for i in 0..n {
        let arrival = SimDuration::from_secs_f64(
            wave.start_min as f64 * 60.0 + i as f64 * 60.0 / wave.arrivals_per_min,
        );
        sim.add_node(Box::new(SpoofedSource {
            targets,
            first_fire: arrival,
            interval,
            end,
            // Distinct probe-name space from the flood (50_000..), so the
            // server-side view can tell the fleets apart if it cares.
            query_id: WAVE_FIRST_ID + i as u16,
            payload: None,
            next_target: i % 2,
            stats: stats.clone(),
        }));
    }
    Ok(stats)
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
// The comparison grid
// ---------------------------------------------------------------------

/// One defended run, read off its [`Report`]: what the legitimate
/// clients kept, what the spoofed and late fleets were served, and the
/// defense layer's ledger. The row of the `defense`, `cookies` and
/// `falsepos` tables.
#[derive(Debug, Clone)]
pub struct DefenseRow {
    /// Legitimate-client OK fraction during the attack window
    /// (per-query weighted, like Table 4's analysis).
    pub ok_during_attack: Option<f64>,
    /// The spoofed fleet's tally.
    pub spoofed: SpoofedStats,
    /// The late legitimate wave's tally. Its answered share is the
    /// complement of the history classifier's false-positive cost.
    pub late: SpoofedStats,
    /// Queries the defense layer refused (drops + sheds).
    pub defense_drops: u64,
    /// RRL-limited queries (drop + slip).
    pub rrl_limited: u64,
    /// Limited queries answered TC=1.
    pub rrl_slipped: u64,
    /// Admission sheds summed over classes.
    pub shed: u64,
    /// Scale-out provisioning actions fired.
    pub scaleouts: u64,
    /// Queries that bypassed the gate on a validated cookie.
    pub cookie_exempt: u64,
    /// TC=1 answers that triggered a resolver TCP retry.
    pub tcp_fallbacks: u64,
    /// TCP retries that produced a full answer.
    pub tcp_answers: u64,
    /// TCP retries that timed out or were reset.
    pub tcp_failures: u64,
    /// Handshakes the servers shed with RST (table full).
    pub syn_refused: u64,
    /// The hog fleet's tally, when the run had one.
    pub exhaustion: Option<ExhaustionStats>,
}

impl DefenseRow {
    /// Reads the row off a run that collected telemetry.
    pub fn of(report: &Report) -> DefenseRow {
        let out = &report.output;
        let reg = out
            .metrics
            .as_ref()
            .expect("defended runs collect telemetry");
        let ledger = DefenseLedger::from_registry(reg, "netsim");
        let netsim = |name| reg.counter_total("netsim", None, name).unwrap_or(0);
        DefenseRow {
            ok_during_attack: report.ok_fraction_during_attack(),
            spoofed: out.spoofed.unwrap_or_default(),
            late: out.late.unwrap_or_default(),
            defense_drops: ledger.defense_drops,
            rrl_limited: ledger.rrl_limited,
            rrl_slipped: ledger.rrl_slipped,
            shed: ledger.shed(),
            scaleouts: netsim("scaleout_activations"),
            cookie_exempt: ledger.cookie_exempt,
            tcp_fallbacks: reg.counter_sum("resolver", "tcp_fallbacks"),
            tcp_answers: reg.counter_sum("resolver", "tcp_answers"),
            tcp_failures: reg.counter_sum("resolver", "tcp_failures"),
            syn_refused: netsim("tcp_syn_refused"),
            exhaustion: out.exhaustion,
        }
    }
}

/// Experiment H (Table 4: 90% loss at both name servers, minutes 60–120,
/// TTL 1800) plus a 24 × 10 qps spoofed flood over the attack window,
/// with telemetry cuts on the figures' 10-minute grid — the base of the
/// §7 and cookie grids. `scale` scales the probe population exactly like
/// [`crate::ddos::run_ddos`]; no probe is tracked for Table 7.
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
/// onset: one arm of [`defense_grid`].
pub fn defense_setup(preset: DefensePreset, scale: f64, seed: u64) -> ExperimentSetup {
    let mut setup = flooded_experiment_h(scale, seed);
    setup.arm_defense(|ns, onset| preset.plan(ns, onset));
    setup
}

/// The `repro defense` grid: the flooded Experiment H scenario, one arm
/// per [`ALL_PRESETS`] entry.
pub fn defense_grid(scale: f64, seed: u64) -> SweepEngine {
    SweepEngine::new(flooded_experiment_h(scale, seed))
        .axis(SweepAxis::defense_preset(ALL_PRESETS.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{run_experiment, sole};
    use dike_netsim::trace::{self, MemoryTrace};
    use dike_netsim::{LatencyModel, LinkParams, LinkTable};

    fn flood(sources: usize, qps_per_source: f64) -> SpoofedFlood {
        SpoofedFlood {
            sources,
            qps_per_source,
            start_min: 1,
            duration_min: 1,
        }
    }

    fn wave(arrivals_per_min: f64, window_min: u64) -> LateResolverWave {
        LateResolverWave {
            arrivals_per_min,
            start_min: 1,
            window_min,
        }
    }

    #[test]
    fn a_flood_rate_must_be_finite_and_positive() {
        for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
            let err = flood(1, rate).validate().unwrap_err();
            assert_eq!(format!("{err:?}"), format!("RateOutOfRange({rate:?})"));
        }
        assert_eq!(flood(1, 1e-300).validate(), Ok(()));
    }

    /// A valid but very slow flood: the stagger of source 23 inside a
    /// 10^18 ns interval is past `u64::MAX` before the division.
    #[test]
    fn a_slow_flood_staggers_without_overflow() {
        let mut sim = Simulator::new(1);
        let slow = flood(24, 1e-9);
        assert!(install_spoofed_flood(&mut sim, &slow, [Addr(1), Addr(2)]).is_ok());
    }

    #[test]
    fn a_flood_paces_its_sources_at_least_a_nanosecond_apart() {
        assert_eq!(flood(1, 1e9).validate(), Ok(()));
        assert_eq!(flood(1, 1e9).interval(), SimDuration::from_nanos(1));
        for rate in [2e9, 1e12, f64::MAX] {
            assert_eq!(
                flood(1, rate).validate(),
                Err(FleetError::ZeroInterval(rate))
            );
        }
    }

    #[test]
    fn flood_query_ids_never_wrap_into_probe_ids() {
        assert_eq!(flood(MAX_FLOOD_SOURCES, 1.0).validate(), Ok(()));
        assert_eq!(
            FLOOD_FIRST_ID as usize + MAX_FLOOD_SOURCES - 1,
            u16::MAX as usize
        );
        assert_eq!(
            flood(15_537, 1.0).validate(),
            Err(FleetError::TooManySources(15_537))
        );
    }

    #[test]
    fn a_wave_rate_must_be_finite_and_non_negative() {
        for rate in [f64::NAN, f64::INFINITY, -0.5] {
            let err = wave(rate, 60).validate().unwrap_err();
            assert_eq!(format!("{err:?}"), format!("RateOutOfRange({rate:?})"));
        }
        let empty = wave(0.0, 60);
        assert_eq!((empty.validate(), empty.count()), (Ok(()), 0));
    }

    #[test]
    fn wave_query_ids_stay_below_the_flood() {
        assert_eq!(wave(100.0, 100).count(), MAX_LATE_ARRIVALS);
        assert_eq!(wave(100.0, 100).validate(), Ok(()));
        assert_eq!(
            WAVE_FIRST_ID as usize + MAX_LATE_ARRIVALS,
            FLOOD_FIRST_ID as usize
        );
        assert_eq!(
            wave(100.01, 100).validate(),
            Err(FleetError::TooManyArrivals(10_001))
        );
    }

    /// A small run, refused before its first event.
    fn run_with(configure: impl FnOnce(&mut ExperimentSetup)) {
        let mut setup = ExperimentSetup::paced(4, 1800, 10, 20);
        configure(&mut setup);
        run_experiment(&setup);
    }

    #[test]
    #[should_panic(expected = "invalid spoofed flood: rate inf is out of range")]
    fn run_experiment_rejects_an_unpaced_flood() {
        run_with(|s| s.spoofed_flood = Some(flood(1, f64::INFINITY)));
    }

    #[test]
    #[should_panic(expected = "invalid late wave: rate inf is out of range")]
    fn run_experiment_rejects_an_endless_wave() {
        run_with(|s| s.late_wave = Some(wave(f64::INFINITY, 60)));
    }

    /// Takes every datagram, answers none.
    struct Silent;

    impl Node for Silent {
        fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
    }

    /// The fleet alone against two silent targets: every arrival is its
    /// source's one query, the tally counts every tick the pacing
    /// allows, and each source's query is encoded once and decoded once
    /// for all of them.
    #[test]
    fn each_source_sends_its_one_encoded_query_every_tick() {
        let mut sim = Simulator::new(3);
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
            loss: 0.0,
        });
        let targets = [0, 1].map(|_| sim.add_node(Box::new(Silent)).1);
        let (recorded, sink) = trace::shared(MemoryTrace::default());
        sim.add_sink(sink);
        let fleet = flood(3, 2.0);
        let stats = install_spoofed_flood(&mut sim, &fleet, targets).expect("valid flood");
        sim.run_until(SimDuration::from_mins(3).after_zero());
        let perf = sim.perf();
        drop(sim);
        let events = sole(recorded, "trace").events;
        let stats = sole(stats, "spoofed tally");

        // Source i starts i/3 of a 0.5 s interval into the minute and
        // fires until the minute ends.
        let interval = fleet.interval().as_nanos();
        let window = SimDuration::from_mins(fleet.duration_min).as_nanos();
        let sources = fleet.sources as u64;
        let ticks: u64 = (0..sources)
            .map(|i| (window - interval * i / sources).div_ceil(interval))
            .sum();
        assert_eq!(ticks, 3 * 120);
        assert_eq!(stats.sent, ticks);
        assert_eq!(events.len() as u64, stats.sent);

        // Sources were added in order after the targets, so their
        // addresses rank them: the i-th lowest sends id 50,000 + i.
        let mut srcs: Vec<Addr> = events.iter().map(|e| e.src).collect();
        srcs.sort();
        srcs.dedup();
        assert_eq!(srcs.len(), fleet.sources);
        let mut payload_bytes = 0;
        for (i, &src) in srcs.iter().enumerate() {
            let id = FLOOD_FIRST_ID + i as u16;
            let name = Name::parse(&format!("{id}.cachetest.nl")).unwrap();
            let query = Message::iterative_query(id, name, RecordType::AAAA);
            let len = dike_wire::codec::encode(&query).unwrap().len();
            for e in events.iter().filter(|e| e.src == src) {
                assert!(targets.contains(&e.dst));
                assert_eq!(e.msg.as_ref(), Some(&query));
                assert_eq!(e.wire_len, len);
            }
            payload_bytes += len as u64;
        }
        // One encode per source, however many ticks it sends, and one
        // decode: every later arrival reuses its source's first.
        assert_eq!(perf.bytes_encoded, payload_bytes);
        assert_eq!(perf.datagrams_sent, ticks);
        assert_eq!(perf.datagrams_decoded, ticks);
        assert_eq!(perf.decode_calls, sources);
    }

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
        let engine = defense_grid(0.012, 29);
        assert_eq!(
            engine.coord_labels(2),
            [("defense".into(), "rrl-slip".into())]
        );
        let setup = engine.setup_for(2, 0);
        assert_eq!(
            format!("{setup:?}"),
            format!("{:?}", defense_setup(DefensePreset::RrlSlip, 0.012, 29)),
            "the grid's arm is the setup `defense_setup` builds"
        );
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
    fn row(preset: DefensePreset) -> DefenseRow {
        DefenseRow::of(&Report::run(&defense_setup(preset, 0.012, 29)))
    }

    #[test]
    fn rrl_slip_protects_the_server_without_hurting_clients() {
        let none = row(DefensePreset::None);
        let slip = row(DefensePreset::RrlSlip);
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
        let adm = row(DefensePreset::Admission);
        assert!(adm.shed > 0, "unknown class saturates and sheds");
        let ok = adm.ok_during_attack.expect("attack rounds have traffic");
        assert!(ok > 0.3, "known resolvers keep service: {ok}");
    }
}
