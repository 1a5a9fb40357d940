#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-faults
//!
//! Composable fault plans for the simulator.
//!
//! The paper emulates DDoS as one mechanism — random drop at the
//! authoritatives' ingress (§5.1) — and names richer failure modes
//! ("degraded but not failed" servers, queueing collapse) as future
//! work. This crate is that fault layer: a [`FaultPlan`] is a list of
//! [`Fault`]s, each scheduled through the simulator's event system, so a
//! fault scenario is data — built in code and composable (crash a
//! server *while* its sibling's link burns and the flood ramps).
//!
//! The fault taxonomy (DESIGN.md §5.3):
//!
//! * [`Fault::NodeDown`] — crash a node at an instant; optionally restart
//!   it after a delay, warm (cache survives) or cold (cache wiped — the
//!   paper's cache-loss sensitivity axis).
//! * [`Fault::LinkDegrade`] — degraded-but-not-failed: bursty
//!   Gilbert–Elliott loss plus latency inflation at one address, the
//!   congestion signature of a real volumetric attack rather than
//!   memoryless drop.
//! * [`Fault::Flood`] — queueing collapse: drives the fraction of a
//!   [`ServiceQueue`](dike_netsim::ServiceQueue)'s capacity consumed by
//!   attack traffic as a [`Waveform`] (square / pulse / ramp).
//! * [`Fault::RandomDrop`] — the paper's original mechanism, random drop
//!   at the targets' ingress, so every historical scenario is also a
//!   `FaultPlan`; shaped by the same [`Waveform`]s (square by default).
//!
//! This crate is the one scheduler of attack waveforms: a flood and a
//! drop expand their window into the same steps of a [`Waveform`], and
//! differ only in what a step sets.
//!
//! Everything is validated up front ([`FaultPlan::validate`]) — a plan
//! either schedules completely or not at all — and scheduling draws no
//! randomness, so a run with an empty plan is bit-identical to a run
//! with no plan.

use dike_attack::{Attack, AttackError};
use dike_netsim::{
    Addr, DegradeParams, IngressGate, NodeId, QueueConfig, SimDuration, SimTime, Simulator,
};

/// Restart half of a crash/restart pair: bring the node back `after` the
/// crash, optionally wiping volatile state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Restart {
    /// Downtime: how long after the crash the node comes back.
    pub after: SimDuration,
    /// Whether the restart loses cached state (cold) or keeps it (warm).
    pub cold_cache: bool,
}

/// Time-varying attack intensity across a fault's window: what a
/// [`Fault::Flood`] drives its background load with and a
/// [`Fault::RandomDrop`] its drop rate. Real volumetric attacks are
/// rarely flat: booter-driven floods pulse on and off, and build-ups
/// ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Full peak for the whole window (on/off — the paper's emulation).
    Square,
    /// Booter-style pulsing: `period` per cycle, the first `duty`
    /// fraction of each cycle at peak, the rest clean.
    Pulse {
        /// Cycle length.
        period: SimDuration,
        /// Fraction of each cycle spent at peak, in `(0, 1]`.
        duty: f64,
    },
    /// Linear build-up from 0 to the peak in `steps` equal stairs.
    Ramp {
        /// Stair count (≥ 1).
        steps: u32,
    },
}

/// Most level changes one shaped fault may expand to, one control event
/// each. The largest shape in the tree has 120 (1 s pulses over 60 s).
const MAX_WAVEFORM_LEVELS: u64 = 100_000;

impl Waveform {
    /// Rejects a pulse with a zero period or a `duty` outside `(0, 1]`,
    /// and a shape that [`Waveform::levels`] would expand to more than
    /// [`MAX_WAVEFORM_LEVELS`] levels over `duration`.
    fn validate(self, duration: SimDuration) -> Result<(), FaultError> {
        let levels = match self {
            Waveform::Square => 2,
            Waveform::Pulse { period, duty } => {
                if period == SimDuration::ZERO || !(duty > 0.0 && duty <= 1.0) {
                    return Err(FaultError::WaveformOutOfRange(self));
                }
                let cycles = duration.as_nanos().div_ceil(period.as_nanos());
                cycles.saturating_mul(2)
            }
            Waveform::Ramp { steps } => u64::from(steps.max(1)) + 1,
        };
        if levels > MAX_WAVEFORM_LEVELS {
            return Err(FaultError::WaveformOutOfRange(self));
        }
        Ok(())
    }

    /// Expands the window `[start, start + duration)` at `peak`
    /// intensity into the instants the intensity changes and the level
    /// it takes there, in scheduling order. The last level is 0: the
    /// attack is over.
    fn levels(self, start: SimTime, duration: SimDuration, peak: f64) -> Vec<(SimTime, f64)> {
        let end = start + duration;
        match self {
            Waveform::Square => vec![(start, peak), (end, 0.0)],
            Waveform::Pulse { period, duty } => {
                let on_len = period.mul_f64(duty.clamp(0.01, 1.0));
                let mut levels = Vec::new();
                let mut t = start;
                while t < end {
                    levels.push((t, peak));
                    levels.push(((t + on_len).min(end), 0.0));
                    t += period;
                }
                levels
            }
            Waveform::Ramp { steps } => {
                let steps = steps.max(1);
                let stair = duration.as_nanos() / steps as u64;
                let mut levels: Vec<_> = (0..steps)
                    .map(|k| {
                        let at = start + SimDuration::from_nanos(stair * k as u64);
                        (at, peak * (k as f64 + 1.0) / steps as f64)
                    })
                    .collect();
                levels.push((end, 0.0));
                levels
            }
        }
    }
}

/// One fault. See the crate docs for the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Crash `node` at `at`; optionally restart it later.
    NodeDown {
        /// The node to crash (auth, resolver, anything).
        node: NodeId,
        /// Crash instant.
        at: SimTime,
        /// Optional restart; `None` means the node stays down.
        restart: Option<Restart>,
    },
    /// Degraded-but-not-failed: bursty loss + latency inflation toward
    /// `target` from `start` for `duration`.
    LinkDegrade {
        /// The degraded destination address.
        target: Addr,
        /// When the degradation begins.
        start: SimTime,
        /// How long it lasts.
        duration: SimDuration,
        /// Long-run loss fraction in `[0, 1]`.
        mean_loss: f64,
        /// Mean loss-burst length in packets (≥ 1); larger = burstier.
        mean_burst: f64,
        /// Multiplier on sampled path latency toward the target (≥ 1 in
        /// any physical scenario; 1.0 = loss only).
        latency_factor: f64,
    },
    /// Queueing collapse: attack traffic consumes `peak_load` of the
    /// ingress queue's service capacity, shaped by `shape`.
    Flood {
        /// The flooded address (must have an ingress queue — see `queue`).
        target: Addr,
        /// When the flood begins.
        start: SimTime,
        /// How long it lasts.
        duration: SimDuration,
        /// Peak fraction of service capacity consumed, in `(0, 1]`.
        peak_load: f64,
        /// Load waveform across the window.
        shape: Waveform,
        /// Queue to install in front of `target` when the plan is
        /// scheduled. `None` reuses a queue installed elsewhere (the
        /// flood is a no-op against an address with no queue).
        queue: Option<QueueConfig>,
    },
    /// The paper's iptables-style random drop: `attack.loss` is the
    /// peak drop rate, shaped by `shape`.
    RandomDrop {
        /// Targets, peak loss and window.
        attack: Attack,
        /// Drop-rate waveform across the window.
        shape: Waveform,
    },
}

/// Why a [`Fault`] (or the plan containing it) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The embedded [`Attack`] failed its own validation.
    Attack(AttackError),
    /// A degrade's `mean_loss` is outside `[0, 1]` (or not a number).
    DegradeLossOutOfRange(f64),
    /// A degrade's `mean_burst` is below 1 packet (or not a number).
    DegradeBurstOutOfRange(f64),
    /// A degrade's `latency_factor` is below 1 (or not a number): the
    /// fault layer models congestion, which never speeds a path up.
    LatencyFactorOutOfRange(f64),
    /// A flood's `peak_load` is outside `(0, 1]` (or not a number).
    FloodLoadOutOfRange(f64),
    /// A windowed fault (`LinkDegrade`, `Flood`) has zero duration and
    /// would silently do nothing.
    ZeroDuration(&'static str),
    /// A restart with zero downtime: the crash and restart would race at
    /// the same instant.
    ZeroRestartDelay,
    /// A waveform that cannot be scheduled: a pulse with a zero period or
    /// a `duty` outside `(0, 1]` (or not a number), or a shape whose
    /// expansion over its window exceeds 100,000 level changes (each one
    /// control event).
    WaveformOutOfRange(Waveform),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Attack(e) => write!(f, "{e}"),
            FaultError::DegradeLossOutOfRange(l) => {
                write!(f, "degrade mean_loss {l} is outside [0, 1]")
            }
            FaultError::DegradeBurstOutOfRange(b) => {
                write!(f, "degrade mean_burst {b} is below 1 packet")
            }
            FaultError::LatencyFactorOutOfRange(x) => {
                write!(f, "latency_factor {x} is below 1")
            }
            FaultError::FloodLoadOutOfRange(l) => {
                write!(f, "flood peak_load {l} is outside (0, 1]")
            }
            FaultError::ZeroDuration(kind) => write!(f, "{kind} has zero duration"),
            FaultError::ZeroRestartDelay => write!(f, "restart delay is zero"),
            FaultError::WaveformOutOfRange(s) => write!(
                f,
                "{s:?}: a zero period, a duty outside (0, 1] or over {MAX_WAVEFORM_LEVELS} levels"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<AttackError> for FaultError {
    fn from(e: AttackError) -> Self {
        FaultError::Attack(e)
    }
}

impl Fault {
    /// A crash with no restart.
    pub fn node_down(node: NodeId, at: SimTime) -> Fault {
        Fault::NodeDown {
            node,
            at,
            restart: None,
        }
    }

    /// A crash followed by a restart `after` later. `cold_cache` wipes
    /// volatile state on the way back up.
    pub fn crash_restart(node: NodeId, at: SimTime, after: SimDuration, cold_cache: bool) -> Fault {
        Fault::NodeDown {
            node,
            at,
            restart: Some(Restart { after, cold_cache }),
        }
    }

    /// A loss-only bursty degrade (latency factor 1).
    pub fn link_degrade(
        target: Addr,
        start: SimTime,
        duration: SimDuration,
        mean_loss: f64,
        mean_burst: f64,
    ) -> Fault {
        Fault::LinkDegrade {
            target,
            start,
            duration,
            mean_loss,
            mean_burst,
            latency_factor: 1.0,
        }
    }

    /// Adds latency inflation to a [`Fault::LinkDegrade`]; no-op on
    /// other variants.
    pub fn with_latency_factor(mut self, factor: f64) -> Fault {
        if let Fault::LinkDegrade { latency_factor, .. } = &mut self {
            *latency_factor = factor;
        }
        self
    }

    /// A square-wave flood; installs `queue` in front of the target.
    pub fn flood(
        target: Addr,
        start: SimTime,
        duration: SimDuration,
        peak_load: f64,
        queue: QueueConfig,
    ) -> Fault {
        Fault::Flood {
            target,
            start,
            duration,
            peak_load,
            shape: Waveform::Square,
            queue: Some(queue),
        }
    }

    /// Reshapes a [`Fault::Flood`]'s or [`Fault::RandomDrop`]'s
    /// waveform; no-op on other variants.
    pub fn with_shape(mut self, new_shape: Waveform) -> Fault {
        if let Fault::Flood { shape, .. } | Fault::RandomDrop { shape, .. } = &mut self {
            *shape = new_shape;
        }
        self
    }

    /// The paper's random-drop attack, square: full loss for the whole
    /// window.
    pub fn random_drop(attack: Attack) -> Fault {
        Fault::RandomDrop {
            attack,
            shape: Waveform::Square,
        }
    }

    /// Checks this fault's parameters.
    pub fn validate(&self) -> Result<(), FaultError> {
        match self {
            Fault::NodeDown { restart, .. } => {
                if let Some(r) = restart {
                    if r.after == SimDuration::ZERO {
                        return Err(FaultError::ZeroRestartDelay);
                    }
                }
                Ok(())
            }
            Fault::LinkDegrade {
                duration,
                mean_loss,
                mean_burst,
                latency_factor,
                ..
            } => {
                if !mean_loss.is_finite() || !(0.0..=1.0).contains(mean_loss) {
                    return Err(FaultError::DegradeLossOutOfRange(*mean_loss));
                }
                if !mean_burst.is_finite() || *mean_burst < 1.0 {
                    return Err(FaultError::DegradeBurstOutOfRange(*mean_burst));
                }
                if !latency_factor.is_finite() || *latency_factor < 1.0 {
                    return Err(FaultError::LatencyFactorOutOfRange(*latency_factor));
                }
                if *duration == SimDuration::ZERO {
                    return Err(FaultError::ZeroDuration("link degrade"));
                }
                Ok(())
            }
            Fault::Flood {
                duration,
                peak_load,
                shape,
                ..
            } => {
                if !(peak_load.is_finite() && *peak_load > 0.0 && *peak_load <= 1.0) {
                    return Err(FaultError::FloodLoadOutOfRange(*peak_load));
                }
                if *duration == SimDuration::ZERO {
                    return Err(FaultError::ZeroDuration("flood"));
                }
                shape.validate(*duration)
            }
            Fault::RandomDrop { attack, shape } => {
                attack.validate()?;
                shape.validate(attack.duration)
            }
        }
    }

    fn schedule(&self, sim: &mut Simulator) {
        match self {
            Fault::NodeDown { node, at, restart } => {
                sim.schedule_node_down(*at, *node);
                if let Some(r) = restart {
                    sim.schedule_node_up(*at + r.after, *node, r.cold_cache);
                }
            }
            Fault::LinkDegrade {
                target,
                start,
                duration,
                mean_loss,
                mean_burst,
                latency_factor,
            } => {
                let (t, params) = (
                    *target,
                    DegradeParams::bursty_loss(*mean_loss, *mean_burst)
                        .with_latency_factor(*latency_factor),
                );
                sim.schedule_control(*start, move |w| {
                    w.links_mut().set_degrade(t, params);
                });
                let t = *target;
                sim.schedule_control(*start + *duration, move |w| {
                    w.links_mut().clear_degrade(t);
                });
            }
            Fault::Flood {
                target,
                start,
                duration,
                peak_load,
                shape,
                queue,
            } => {
                if let Some(cfg) = queue {
                    sim.world_mut().set_ingress_queue(*target, *cfg);
                }
                let t = *target;
                for (at, load) in shape.levels(*start, *duration, *peak_load) {
                    sim.schedule_control(at, move |w| {
                        if let Some(q) = w.gate_mut(t).and_then(IngressGate::queue_mut) {
                            q.inject_background_load(load);
                        }
                    });
                }
            }
            Fault::RandomDrop { attack, shape } => {
                for (at, loss) in shape.levels(attack.start, attack.duration, attack.loss) {
                    let targets = attack.targets.clone();
                    // Level 0 removes the filter, so a finished attack
                    // leaves the fabric's empty-map fast path behind.
                    sim.schedule_control(at, move |w| {
                        for t in &targets {
                            if loss > 0.0 {
                                w.links_mut().set_ingress_loss(*t, loss);
                            } else {
                                w.links_mut().clear_ingress_loss(*t);
                            }
                        }
                    });
                }
            }
        }
    }
}

/// A composable fault scenario: any number of faults, scheduled together.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, in any order (each carries its own times).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (scheduling it is a no-op).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault (builder-style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds a fault in place.
    pub fn push(&mut self, fault: Fault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Validates every fault; the index of the first invalid fault is
    /// reported alongside its error.
    pub fn validate(&self) -> Result<(), (usize, FaultError)> {
        for (i, f) in self.faults.iter().enumerate() {
            f.validate().map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Validates the whole plan, then schedules every fault. All-or-
    /// nothing: an invalid fault anywhere means nothing is installed.
    pub fn schedule(&self, sim: &mut Simulator) -> Result<(), (usize, FaultError)> {
        self.validate()?;
        for f in &self.faults {
            f.schedule(sim);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_netsim::{Context, LatencyModel, LinkParams, LinkTable, Node, TimerToken};
    use dike_telemetry::sync::Mutex;
    use dike_wire::{Message, Name, RecordType};
    use std::sync::Arc;

    fn t(secs: u64) -> SimTime {
        SimDuration::from_secs(secs).after_zero()
    }

    fn d(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn validation_rejects_bad_faults_with_index() {
        let plan = FaultPlan::new()
            .with(Fault::node_down(NodeId(0), t(1)))
            .with(Fault::link_degrade(Addr(1), t(0), d(10), 1.5, 10.0));
        match plan.validate() {
            Err((1, FaultError::DegradeLossOutOfRange(l))) => assert_eq!(l, 1.5),
            other => panic!("expected index-1 loss error, got {other:?}"),
        }
        let bad = [
            Fault::link_degrade(Addr(1), t(0), d(10), 0.5, 0.2),
            Fault::link_degrade(Addr(1), t(0), d(10), 0.5, 10.0).with_latency_factor(0.5),
            Fault::link_degrade(Addr(1), t(0), SimDuration::ZERO, 0.5, 10.0),
            Fault::flood(
                Addr(1),
                t(0),
                d(10),
                0.0,
                QueueConfig::small_authoritative(),
            ),
            Fault::flood(
                Addr(1),
                t(0),
                d(10),
                1.5,
                QueueConfig::small_authoritative(),
            ),
            Fault::crash_restart(NodeId(0), t(1), SimDuration::ZERO, true),
            Fault::random_drop(Attack::partial(vec![], 0.5, t(0), d(10))),
            Fault::random_drop(Attack::partial(vec![Addr(1)], 2.0, t(0), d(10))),
        ];
        for f in bad {
            assert!(f.validate().is_err(), "{f:?} should be invalid");
        }
        // An invalid plan schedules nothing.
        let mut sim = Simulator::new(1);
        let invalid = FaultPlan::new().with(Fault::link_degrade(Addr(1), t(0), d(10), 2.0, 5.0));
        assert!(invalid.schedule(&mut sim).is_err());
    }

    #[test]
    fn drops_are_square_by_default() {
        let drop = Fault::random_drop(Attack::partial(vec![Addr(3)], 0.75, t(5), d(60)));
        assert!(matches!(
            drop,
            Fault::RandomDrop {
                shape: Waveform::Square,
                ..
            }
        ));
    }

    /// Shapes that `Waveform::levels` cannot expand in bounded time and
    /// memory: each is rejected up front, as a drop and as a flood, and
    /// `schedule` returns instead of looping.
    #[test]
    fn unschedulable_waveforms_are_rejected() {
        let pulse = |period, duty| Waveform::Pulse { period, duty };
        let bad = [
            pulse(SimDuration::ZERO, 0.5),
            pulse(d(10), 0.0),
            pulse(d(10), 1.5),
            pulse(d(10), -0.25),
            pulse(d(10), f64::NAN),
            pulse(d(10), f64::INFINITY),
            // 60 s of 1 ns cycles: 1.2 × 10^11 levels.
            pulse(SimDuration::from_nanos(1), 0.5),
            Waveform::Ramp { steps: u32::MAX },
        ];
        let drop = Fault::random_drop(Attack::partial(vec![Addr(3)], 0.75, t(5), d(60)));
        let flood = Fault::flood(
            Addr(4),
            t(5),
            d(60),
            0.9,
            QueueConfig::small_authoritative(),
        );
        for shape in bad {
            for fault in [drop.clone(), flood.clone()] {
                let fault = fault.with_shape(shape);
                let err = fault.validate().unwrap_err();
                assert!(
                    matches!(err, FaultError::WaveformOutOfRange(_)),
                    "{shape:?}: {err}"
                );
                let plan = FaultPlan::new().with(fault);
                let scheduled = plan.schedule(&mut Simulator::new(1));
                assert!(
                    matches!(scheduled, Err((0, FaultError::WaveformOutOfRange(_)))),
                    "{shape:?}"
                );
            }
        }
        // The cap counts levels exactly: 60 s of 1.2 ms cycles is 100,000
        // levels, one cycle more is over. The largest shape in use passes.
        for (shape, ok) in [
            (pulse(SimDuration::from_micros(1_200), 0.5), true),
            (pulse(SimDuration::from_nanos(1_199_999), 0.5), false),
            (Waveform::Ramp { steps: 99_999 }, true),
            (Waveform::Ramp { steps: 100_000 }, false),
            (pulse(d(1), 0.5), true),
        ] {
            assert_eq!(flood.clone().with_shape(shape).validate().is_ok(), ok);
            if ok {
                assert!(shape.levels(t(5), d(60), 0.9).len() <= 100_000);
            }
        }
        assert_eq!(pulse(d(1), 0.5).levels(t(0), d(60), 0.9).len(), 120);
    }

    #[test]
    fn waveforms_expand_to_levels_of_the_peak() {
        let levels = |shape: Waveform| shape.levels(t(0), d(90), 0.9);
        assert_eq!(levels(Waveform::Square), [(t(0), 0.9), (t(90), 0.0)]);
        let pulse = Waveform::Pulse {
            period: d(40),
            duty: 0.5,
        };
        assert_eq!(
            levels(pulse),
            [
                (t(0), 0.9),
                (t(20), 0.0),
                (t(40), 0.9),
                (t(60), 0.0),
                (t(80), 0.9),
                (t(90), 0.0)
            ],
            "the last cycle is cut at the window's end"
        );
        let ramp = levels(Waveform::Ramp { steps: 3 });
        let at: Vec<SimTime> = ramp.iter().map(|l| l.0).collect();
        assert_eq!(at, [t(0), t(30), t(60), t(90)]);
        for (got, want) in ramp.iter().map(|l| l.1).zip([0.3, 0.6, 0.9, 0.0]) {
            assert!((got - want).abs() < 1e-12, "{ramp:?}");
        }
    }

    /// Runs `plan` on an empty world, sampling the ingress loss at
    /// `target` at each of `at_secs`; returns the samples and the
    /// control events the plan itself pushed.
    fn loss_trace(plan: &FaultPlan, target: Addr, at_secs: &[u64]) -> (Vec<f64>, u64) {
        let mut sim = Simulator::new(1);
        plan.schedule(&mut sim).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for &s in at_secs {
            let seen = seen.clone();
            sim.schedule_control(t(s), move |w| {
                seen.lock().push(w.links().ingress_loss(target));
            });
        }
        sim.run_until_idle();
        let events = sim.perf().events_popped - at_secs.len() as u64;
        let seen = seen.lock().clone();
        (seen, events)
    }

    #[test]
    fn square_drop_sets_and_clears_every_target_in_two_events() {
        let (a, b) = (Addr(42), Addr(43));
        let plan = FaultPlan::new().with(Fault::random_drop(Attack::partial(
            vec![a, b],
            0.9,
            t(10),
            d(20),
        )));
        for target in [a, b] {
            let (seen, events) = loss_trace(&plan, target, &[5, 15, 25, 35]);
            assert_eq!(seen, [0.0, 0.9, 0.9, 0.0]);
            assert_eq!(events, 2, "one event sets every target, one clears them");
        }
        // A bystander is never filtered.
        assert_eq!(loss_trace(&plan, Addr(44), &[15]).0, [0.0]);
    }

    #[test]
    fn shaped_drops_pulse_and_ramp_from_zero() {
        let target = Addr(5);
        let attack = Attack::partial(vec![target], 0.8, t(0), d(100));
        let pulsed = FaultPlan::new().with(Fault::random_drop(attack.clone()).with_shape(
            Waveform::Pulse {
                period: d(20),
                duty: 0.5,
            },
        ));
        assert_eq!(
            loss_trace(&pulsed, target, &[5, 15, 25, 35, 45, 105]).0,
            [0.8, 0.0, 0.8, 0.0, 0.8, 0.0]
        );
        let ramp = FaultPlan::new().with(
            Fault::random_drop(Attack {
                duration: d(90),
                ..attack
            })
            .with_shape(Waveform::Ramp { steps: 4 }),
        );
        let (seen, _) = loss_trace(&ramp, target, &[10, 30, 50, 80, 95]);
        for (got, want) in seen.iter().zip([0.2, 0.4, 0.6, 0.8, 0.0]) {
            assert!((got - want).abs() < 1e-12, "{seen:?}");
        }
    }

    #[test]
    fn drop_at_time_zero_filters_the_first_packet() {
        // Control events at equal times run FIFO, so the sample
        // (scheduled after the plan) sees the t=0 filter in place.
        let target = Addr(7);
        let plan = FaultPlan::new().with(Fault::random_drop(Attack::complete_failure(
            vec![target],
            SimTime::ZERO,
            d(10),
        )));
        assert_eq!(loss_trace(&plan, target, &[0]).0, [1.0]);
    }

    #[test]
    fn overlapping_drops_last_writer_wins_including_the_clear() {
        // Two overlapping windows on one target: the later set overwrites
        // the earlier filter, and the earlier attack's end *clears* the
        // filter outright — drops compose by overwrite, not by stacking.
        // Pinned so anyone changing the semantics must come here.
        let target = Addr(8);
        let plan = FaultPlan::new()
            .with(Fault::random_drop(Attack::partial(
                vec![target],
                0.5,
                SimTime::ZERO,
                d(100),
            )))
            .with(Fault::random_drop(Attack::partial(
                vec![target],
                0.9,
                t(50),
                d(100),
            )));
        assert_eq!(
            loss_trace(&plan, target, &[25, 75, 125, 175]).0,
            [0.5, 0.9, 0.0, 0.0],
            "a's end at t=100 clears b's filter too (overwrite semantics)"
        );
    }

    #[test]
    fn drop_window_past_end_of_run_never_fires() {
        let mut sim = Simulator::new(12);
        let target = Addr(9);
        FaultPlan::new()
            .with(Fault::random_drop(Attack::partial(
                vec![target],
                0.9,
                t(500),
                d(100),
            )))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until(t(100));
        assert_eq!(sim.links_mut().ingress_loss(target), 0.0);
    }

    /// A node that answers every query (echo) — enough traffic machinery
    /// to see faults act end-to-end.
    struct Echo;
    impl Node for Echo {
        fn on_datagram(
            &mut self,
            ctx: &mut Context<'_>,
            src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
            if !msg.is_response {
                ctx.send(src, &Message::response_to(msg));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}
    }

    /// Sends one query per second and counts replies.
    struct Chatter {
        target: Addr,
        replies: Arc<Mutex<u64>>,
        remaining: u32,
    }
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(d(1), TimerToken(0));
        }
        fn on_datagram(
            &mut self,
            _ctx: &mut Context<'_>,
            _src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
            if msg.is_response {
                *self.replies.lock() += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
            let q = Message::query(1, Name::parse("x.nl").unwrap(), RecordType::A);
            ctx.send(self.target, &q);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(d(1), TimerToken(0));
            }
        }
    }

    fn echo_sim(seed: u64, queries: u32) -> (Simulator, Addr, NodeId, Arc<Mutex<u64>>) {
        let mut sim = Simulator::new(seed);
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            loss: 0.0,
        });
        let (echo_id, echo_addr) = sim.add_node(Box::new(Echo));
        let replies = Arc::new(Mutex::new(0));
        sim.add_node(Box::new(Chatter {
            target: echo_addr,
            replies: replies.clone(),
            remaining: queries.saturating_sub(1),
        }));
        (sim, echo_addr, echo_id, replies)
    }

    #[test]
    fn crash_restart_fault_blacks_out_the_middle() {
        let (mut sim, _, echo_id, replies) = echo_sim(5, 30);
        FaultPlan::new()
            .with(Fault::crash_restart(echo_id, t(10), d(10), false))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        sim.audit().assert_clean();
        // ~30 queries, ~10 lost during the 10s outage.
        let got = *replies.lock();
        assert!((15..=21).contains(&got), "replies={got}");
    }

    #[test]
    fn total_degrade_fault_is_a_window_of_loss() {
        let (mut sim, echo_addr, _, replies) = echo_sim(6, 30);
        FaultPlan::new()
            .with(Fault::link_degrade(echo_addr, t(10), d(10), 1.0, 50.0))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        sim.audit().assert_clean();
        let got = *replies.lock();
        assert!((15..=21).contains(&got), "replies={got}");
    }

    #[test]
    fn flood_fault_delays_service_through_the_queue() {
        // Peak load 0.99 on a 1000 pps queue → 100 ms service time, far
        // above the 20 ms clean round trip. Replies still arrive (it is
        // degradation, not failure), but the run's clock stretches.
        let (mut sim, echo_addr, _, replies) = echo_sim(7, 10);
        FaultPlan::new()
            .with(Fault::flood(
                echo_addr,
                t(0),
                d(60),
                0.99,
                QueueConfig {
                    rate_pps: 1_000.0,
                    capacity: 1_000,
                },
            ))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        sim.audit().assert_clean();
        assert_eq!(*replies.lock(), 10, "flood degrades, does not fail");
    }

    #[test]
    fn empty_plan_is_a_scheduling_no_op() {
        let (mut sim, _, _, replies) = echo_sim(8, 10);
        FaultPlan::new().schedule(&mut sim).unwrap();
        sim.run_until_idle();
        sim.audit().assert_clean();
        assert_eq!(*replies.lock(), 10);
    }
}
