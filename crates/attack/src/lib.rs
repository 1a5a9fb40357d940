#![warn(missing_docs)]

//! # dike-attack
//!
//! DDoS attack scenarios for the simulator.
//!
//! The paper emulates DDoS by "dropping some fraction or all incoming DNS
//! queries to each authoritative ... randomly with Linux iptables" (§5.1).
//! [`Attack`] is exactly that: a scheduled random-drop filter at the
//! targets' ingress, installed at `start` and removed `duration` later.
//!
//! Table 4's scenarios are all expressible as one `Attack`:
//!
//! | Experiment | loss | scope |
//! |---|---|---|
//! | A, B, C | 1.0 | both name servers |
//! | D | 0.5 | one name server |
//! | E | 0.5 | both |
//! | F, G | 0.75 | both |
//! | H, I | 0.9 | both |

use dike_netsim::{Addr, SimDuration, SimTime, Simulator};

/// One scheduled attack: `loss`-fraction random drop at each target's
/// ingress from `start` for `duration`.
#[derive(Debug, Clone, PartialEq)]
pub struct Attack {
    /// The victim addresses (authoritative servers).
    pub targets: Vec<Addr>,
    /// Drop probability in `[0, 1]`; 1.0 is complete failure.
    pub loss: f64,
    /// When the attack begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
}

/// Why an [`Attack`] (or the fault plan embedding it) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackError {
    /// `loss` is outside `[0, 1]` (or not a number).
    LossOutOfRange(f64),
    /// `duration` is zero: the attack would install and remove its
    /// filters at the same instant, silently doing nothing.
    ZeroDuration,
    /// No targets: scheduling would silently do nothing.
    NoTargets,
}

impl std::fmt::Display for AttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackError::LossOutOfRange(l) => {
                write!(f, "attack loss {l} is outside [0, 1]")
            }
            AttackError::ZeroDuration => write!(f, "attack duration is zero"),
            AttackError::NoTargets => write!(f, "attack has no targets"),
        }
    }
}

impl std::error::Error for AttackError {}

impl Attack {
    /// A complete failure of every target (Experiments A–C).
    pub fn complete_failure(targets: Vec<Addr>, start: SimTime, duration: SimDuration) -> Self {
        Attack {
            targets,
            loss: 1.0,
            start,
            duration,
        }
    }

    /// A partial attack dropping `loss` of incoming packets
    /// (Experiments D–I).
    pub fn partial(targets: Vec<Addr>, loss: f64, start: SimTime, duration: SimDuration) -> Self {
        Attack {
            targets,
            loss,
            start,
            duration,
        }
    }

    /// When the attack ends.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Checks the parameters: `loss` must be a number in `[0, 1]`, the
    /// duration non-zero, and there must be at least one target.
    pub fn validate(&self) -> Result<(), AttackError> {
        if !self.loss.is_finite() || !(0.0..=1.0).contains(&self.loss) {
            return Err(AttackError::LossOutOfRange(self.loss));
        }
        if self.duration == SimDuration::ZERO {
            return Err(AttackError::ZeroDuration);
        }
        if self.targets.is_empty() {
            return Err(AttackError::NoTargets);
        }
        Ok(())
    }

    /// Validates, then schedules. The checked entry point: a sweep built
    /// from config input should reject a bad arm loudly instead of
    /// silently running a no-op attack.
    pub fn try_schedule(&self, sim: &mut Simulator) -> Result<(), AttackError> {
        self.validate()?;
        self.schedule(sim);
        Ok(())
    }

    /// Installs the attack into the simulator: a control event sets the
    /// ingress filters at `start`; another clears them at `end`.
    ///
    /// Trusted entry point: parameters are debug-asserted, not checked
    /// (the filter layer clamps loss defensively either way). Use
    /// [`Attack::try_schedule`] for config-derived attacks.
    pub fn schedule(&self, sim: &mut Simulator) {
        debug_assert!(self.validate().is_ok(), "invalid attack: {self:?}");
        let targets_on = self.targets.clone();
        let loss = self.loss;
        sim.schedule_control(self.start, move |w| {
            for t in &targets_on {
                w.links_mut().set_ingress_loss(*t, loss);
            }
        });
        let targets_off = self.targets.clone();
        sim.schedule_control(self.end(), move |w| {
            for t in &targets_off {
                w.links_mut().clear_ingress_loss(*t);
            }
        });
    }
}

/// Time-varying attack intensity.
///
/// Real volumetric attacks are rarely flat: booter-driven floods pulse
/// on and off, and build-ups ramp. A waveform turns one [`Attack`] into
/// the corresponding schedule of ingress-loss changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Constant loss for the whole duration (the paper's emulation).
    Constant,
    /// On/off pulsing: `period` per cycle, the first `duty` fraction at
    /// full intensity, the rest clean.
    Pulsed {
        /// Cycle length.
        period: SimDuration,
        /// Fraction of each cycle spent attacking, in `(0, 1]`.
        duty: f64,
    },
    /// Linear ramp from `from × loss` to `loss` across the duration, in
    /// `steps` equal stairs.
    Ramp {
        /// Starting fraction of the peak loss.
        from: f64,
        /// Stair count (≥1).
        steps: u32,
    },
}

impl Attack {
    /// Schedules this attack shaped by `waveform`.
    pub fn schedule_with_waveform(&self, sim: &mut Simulator, waveform: Waveform) {
        match waveform {
            Waveform::Constant => self.schedule(sim),
            Waveform::Pulsed { period, duty } => {
                let duty = duty.clamp(0.01, 1.0);
                let on_len = period.mul_f64(duty);
                let mut t = self.start;
                while t < self.end() {
                    let targets_on = self.targets.clone();
                    let loss = self.loss;
                    sim.schedule_control(t, move |w| {
                        for tgt in &targets_on {
                            w.links_mut().set_ingress_loss(*tgt, loss);
                        }
                    });
                    let off_at = (t + on_len).min(self.end());
                    let targets_off = self.targets.clone();
                    sim.schedule_control(off_at, move |w| {
                        for tgt in &targets_off {
                            w.links_mut().clear_ingress_loss(*tgt);
                        }
                    });
                    t += period;
                }
            }
            Waveform::Ramp { from, steps } => {
                let steps = steps.max(1);
                let from = from.clamp(0.0, 1.0);
                let stair = SimDuration::from_nanos(self.duration.as_nanos() / steps as u64);
                for k in 0..steps {
                    let frac = from + (1.0 - from) * (k as f64 + 1.0) / steps as f64;
                    let loss = (self.loss * frac).clamp(0.0, 1.0);
                    let targets = self.targets.clone();
                    let at = self.start + SimDuration::from_nanos(stair.as_nanos() * k as u64);
                    sim.schedule_control(at, move |w| {
                        for tgt in &targets {
                            w.links_mut().set_ingress_loss(*tgt, loss);
                        }
                    });
                }
                let targets = self.targets.clone();
                sim.schedule_control(self.end(), move |w| {
                    for tgt in &targets {
                        w.links_mut().clear_ingress_loss(*tgt);
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn attack_sets_and_clears_filters_on_schedule() {
        let mut sim = Simulator::new(1);
        let target = Addr(42);
        let attack = Attack::partial(
            vec![target],
            0.9,
            SimDuration::from_secs(10).after_zero(),
            SimDuration::from_secs(20),
        );
        attack.schedule(&mut sim);

        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        for t in [5u64, 15, 25, 35] {
            let seen = seen.clone();
            sim.schedule_control(SimDuration::from_secs(t).after_zero(), move |w| {
                seen.lock()
                    .unwrap()
                    .push((t, w.links().ingress_loss(target)));
            });
        }
        sim.run_until_idle();
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen.as_slice(),
            &[(5, 0.0), (15, 0.9), (25, 0.9), (35, 0.0)]
        );
    }

    #[test]
    fn complete_failure_is_loss_one() {
        let a = Attack::complete_failure(
            vec![Addr(1), Addr(2)],
            SimTime::ZERO,
            SimDuration::from_mins(60),
        );
        assert_eq!(a.loss, 1.0);
        assert_eq!(a.end(), SimDuration::from_mins(60).after_zero());
    }

    #[test]
    fn pulsed_waveform_toggles_the_filter() {
        let mut sim = Simulator::new(3);
        let target = Addr(5);
        Attack::partial(
            vec![target],
            0.8,
            SimDuration::from_secs(0).after_zero(),
            SimDuration::from_secs(100),
        )
        .schedule_with_waveform(
            &mut sim,
            Waveform::Pulsed {
                period: SimDuration::from_secs(20),
                duty: 0.5,
            },
        );
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        for t in [5u64, 15, 25, 35, 45, 105] {
            let seen = seen.clone();
            sim.schedule_control(SimDuration::from_secs(t).after_zero(), move |w| {
                seen.lock()
                    .unwrap()
                    .push((t, w.links().ingress_loss(target)));
            });
        }
        sim.run_until_idle();
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen.as_slice(),
            &[
                (5, 0.8),
                (15, 0.0),
                (25, 0.8),
                (35, 0.0),
                (45, 0.8),
                (105, 0.0)
            ]
        );
    }

    #[test]
    fn ramp_waveform_climbs_in_stairs() {
        let mut sim = Simulator::new(4);
        let target = Addr(6);
        Attack::partial(
            vec![target],
            0.9,
            SimDuration::from_secs(0).after_zero(),
            SimDuration::from_secs(90),
        )
        .schedule_with_waveform(
            &mut sim,
            Waveform::Ramp {
                from: 0.0,
                steps: 3,
            },
        );
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        for t in [10u64, 40, 70, 95] {
            let seen = seen.clone();
            sim.schedule_control(SimDuration::from_secs(t).after_zero(), move |w| {
                seen.lock().unwrap().push(w.links().ingress_loss(target));
            });
        }
        sim.run_until_idle();
        let seen = seen.lock().unwrap();
        assert!((seen[0] - 0.3).abs() < 1e-9, "{seen:?}");
        assert!((seen[1] - 0.6).abs() < 1e-9, "{seen:?}");
        assert!((seen[2] - 0.9).abs() < 1e-9, "{seen:?}");
        assert_eq!(seen[3], 0.0, "{seen:?}");
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let base = Attack::partial(
            vec![Addr(1)],
            0.5,
            SimTime::ZERO,
            SimDuration::from_secs(10),
        );
        assert_eq!(base.validate(), Ok(()));
        let mut a = base.clone();
        a.loss = 1.5;
        assert_eq!(a.validate(), Err(AttackError::LossOutOfRange(1.5)));
        a.loss = -0.1;
        assert_eq!(a.validate(), Err(AttackError::LossOutOfRange(-0.1)));
        a.loss = f64::NAN;
        assert!(matches!(a.validate(), Err(AttackError::LossOutOfRange(_))));
        let mut a = base.clone();
        a.duration = SimDuration::ZERO;
        assert_eq!(a.validate(), Err(AttackError::ZeroDuration));
        let mut a = base.clone();
        a.targets.clear();
        assert_eq!(a.validate(), Err(AttackError::NoTargets));
        // try_schedule refuses without touching the simulator.
        let mut sim = Simulator::new(9);
        a = base;
        a.loss = 2.0;
        assert!(a.try_schedule(&mut sim).is_err());
    }

    #[test]
    fn attack_at_time_zero_filters_the_first_packet() {
        let mut sim = Simulator::new(10);
        let target = Addr(7);
        Attack::complete_failure(vec![target], SimTime::ZERO, SimDuration::from_secs(10))
            .try_schedule(&mut sim)
            .unwrap();
        let seen = std::sync::Arc::new(Mutex::new(f64::NAN));
        {
            let seen = seen.clone();
            // Control events at equal times run FIFO, so this observer
            // (scheduled after the attack) sees the t=0 filter in place.
            sim.schedule_control(SimTime::ZERO, move |w| {
                *seen.lock().unwrap() = w.links().ingress_loss(target);
            });
        }
        sim.run_until_idle();
        assert_eq!(*seen.lock().unwrap(), 1.0);
    }

    #[test]
    fn overlapping_attacks_last_writer_wins_including_the_clear() {
        // Two overlapping windows on one target: the later set overwrites
        // the earlier filter, and the earlier attack's end *clears* the
        // filter outright — attacks compose by overwrite, not by stacking.
        // Pinned so anyone changing the semantics must come here.
        let mut sim = Simulator::new(11);
        let target = Addr(8);
        let a = Attack::partial(
            vec![target],
            0.5,
            SimTime::ZERO,
            SimDuration::from_secs(100),
        );
        let b = Attack::partial(
            vec![target],
            0.9,
            SimDuration::from_secs(50).after_zero(),
            SimDuration::from_secs(100),
        );
        a.try_schedule(&mut sim).unwrap();
        b.try_schedule(&mut sim).unwrap();
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        for t in [25u64, 75, 125, 175] {
            let seen = seen.clone();
            sim.schedule_control(SimDuration::from_secs(t).after_zero(), move |w| {
                seen.lock()
                    .unwrap()
                    .push((t, w.links().ingress_loss(target)));
            });
        }
        sim.run_until_idle();
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[(25, 0.5), (75, 0.9), (125, 0.0), (175, 0.0)],
            "a's end at t=100 clears b's filter too (overwrite semantics)"
        );
    }

    #[test]
    fn attack_window_past_end_of_run_never_fires() {
        let mut sim = Simulator::new(12);
        let target = Addr(9);
        Attack::partial(
            vec![target],
            0.9,
            SimDuration::from_secs(500).after_zero(),
            SimDuration::from_secs(100),
        )
        .try_schedule(&mut sim)
        .unwrap();
        sim.run_until(SimDuration::from_secs(100).after_zero());
        assert_eq!(sim.links_mut().ingress_loss(target), 0.0);
    }

    #[test]
    fn scoped_attack_leaves_other_targets_alone() {
        let mut sim = Simulator::new(2);
        let victim = Addr(1);
        let bystander = Addr(2);
        Attack::partial(
            vec![victim],
            0.5,
            SimTime::ZERO,
            SimDuration::from_secs(100),
        )
        .schedule(&mut sim);
        let seen = std::sync::Arc::new(Mutex::new((0.0f64, 0.0f64)));
        {
            let seen = seen.clone();
            sim.schedule_control(SimDuration::from_secs(50).after_zero(), move |w| {
                *seen.lock().unwrap() = (
                    w.links().ingress_loss(victim),
                    w.links().ingress_loss(bystander),
                );
            });
        }
        sim.run_until_idle();
        assert_eq!(*seen.lock().unwrap(), (0.5, 0.0));
    }
}
