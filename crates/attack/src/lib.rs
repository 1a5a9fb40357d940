#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-attack
//!
//! DDoS attack scenarios for the simulator.
//!
//! The paper emulates DDoS by "dropping some fraction or all incoming DNS
//! queries to each authoritative ... randomly with Linux iptables" (§5.1).
//! [`Attack`] is exactly that, as data: a random-drop filter at the
//! targets' ingress from `start` for `duration`, with its validation.
//! `dike-faults` runs it as `Fault::RandomDrop`, square or shaped.
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

use dike_netsim::{Addr, SimDuration, SimTime};

/// One attack: `loss`-fraction random drop at each target's
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
    /// No targets: the attack would silently do nothing.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_failure_is_loss_one() {
        let a = Attack::complete_failure(
            vec![Addr(1), Addr(2)],
            SimTime::ZERO,
            SimDuration::from_mins(60),
        );
        assert_eq!(a.loss, 1.0);
        assert_eq!(a.duration, SimDuration::from_mins(60));
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
        let mut a = base;
        a.targets.clear();
        assert_eq!(a.validate(), Err(AttackError::NoTargets));
    }
}
