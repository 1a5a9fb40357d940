//! Oracle test for the defense engines: random plans and random query
//! streams run through the engines of [`DefensePlan::build_engines`] and
//! through a reference model side by side, and every query must get the
//! same [`IngressVerdict`] from both.
//!
//! The model is the engine's earlier design kept as plain code, under
//! new names: a classifier trait with one struct per classifier (the
//! history one remembers every source's first sighting, forever), a
//! boxed classifier per admission layer, and a rate limiter with its own
//! three-way outcome that the engine translates into a verdict. The
//! engine under test keeps one classifier enum whose history set stops
//! growing at the cutoff, and a rate limiter that answers in verdicts.
//!
//! `DIKE_CASES` scales the case count (CI runs 2000 in release).

use std::collections::BTreeMap;

use dike_defense::{ClassifierKind, Defense, DefensePlan, RrlConfig};
use dike_netsim::{
    Addr, ClassedQueue, ClassedQueueConfig, IngressDefense, IngressVerdict, QueueClass,
    QueueOutcome, SimDuration, SimTime,
};
use dike_telemetry::check::{self, Gen};
use dike_wire::{Message, Name, RecordType};

// ---------------------------------------------------------------------
// The reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Answer,
    Drop,
    Slip,
}

struct Bucket {
    tokens: f64,
    refilled: SimTime,
    limited: u64,
}

struct ModelRrl {
    config: RrlConfig,
    buckets: BTreeMap<u32, Bucket>,
}

impl ModelRrl {
    fn check(&mut self, now: SimTime, src: Addr) -> Outcome {
        let mask = match self.config.prefix_bits {
            0 => 0,
            b if b >= 32 => u32::MAX,
            b => u32::MAX << (32 - b),
        };
        let burst = self.config.burst.max(1.0);
        let bucket = self.buckets.entry(src.0 & mask).or_insert(Bucket {
            tokens: burst,
            refilled: now,
            limited: 0,
        });
        let elapsed = now.since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.config.rate_qps).min(burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return Outcome::Answer;
        }
        bucket.limited += 1;
        if self.config.slip > 0 && bucket.limited.is_multiple_of(self.config.slip as u64) {
            Outcome::Slip
        } else {
            Outcome::Drop
        }
    }
}

trait Classify {
    fn classify(&self, src: Addr) -> QueueClass;
    fn observe(&mut self, _now: SimTime, _src: Addr) {}
}

struct Lists {
    known: Vec<Addr>,
    flagged: Vec<Addr>,
}

impl Classify for Lists {
    fn classify(&self, src: Addr) -> QueueClass {
        if self.flagged.contains(&src) {
            QueueClass::Flagged
        } else if self.known.contains(&src) {
            QueueClass::Known
        } else {
            QueueClass::Unknown
        }
    }
}

struct FirstSeen {
    cutoff: SimTime,
    first_seen: BTreeMap<Addr, SimTime>,
}

impl Classify for FirstSeen {
    fn classify(&self, src: Addr) -> QueueClass {
        match self.first_seen.get(&src) {
            Some(first) if *first < self.cutoff => QueueClass::Known,
            _ => QueueClass::Unknown,
        }
    }

    fn observe(&mut self, now: SimTime, src: Addr) {
        self.first_seen.entry(src).or_insert(now);
    }
}

fn build_classifier(kind: &ClassifierKind) -> Box<dyn Classify> {
    match kind {
        ClassifierKind::Static { known, flagged } => Box::new(Lists {
            known: known.clone(),
            flagged: flagged.clone(),
        }),
        ClassifierKind::History { cutoff } => Box::new(FirstSeen {
            cutoff: *cutoff,
            first_seen: BTreeMap::new(),
        }),
    }
}

#[derive(Default)]
struct ModelEngine {
    rrl: Option<(SimTime, ModelRrl)>,
    admission: Option<(SimTime, ClassedQueue, Box<dyn Classify>)>,
}

impl ModelEngine {
    fn on_query(&mut self, now: SimTime, src: Addr, msg: &Message) -> IngressVerdict {
        if msg.is_response {
            return IngressVerdict::Pass;
        }
        let mut queued = None;
        if let Some((start, queue, classifier)) = &mut self.admission {
            classifier.observe(now, src);
            if now >= *start {
                let class = classifier.classify(src);
                match queue.offer(now, class) {
                    QueueOutcome::Dropped => return IngressVerdict::Shed(class),
                    QueueOutcome::Enqueued(d) => queued = Some((d, class)),
                }
            }
        }
        if let Some((start, rrl)) = &mut self.rrl {
            if now >= *start {
                match rrl.check(now, src) {
                    Outcome::Drop => return IngressVerdict::RrlDrop,
                    Outcome::Slip => return IngressVerdict::RrlSlip,
                    Outcome::Answer => {}
                }
            }
        }
        match queued {
            Some((delay, class)) => IngressVerdict::Enqueue { delay, class },
            None => IngressVerdict::Pass,
        }
    }

    fn scale_capacity(&mut self, factor: f64) {
        if let Some((_, queue, _)) = &mut self.admission {
            queue.scale_capacity(factor);
        }
    }
}

fn model_engines(plan: &DefensePlan) -> BTreeMap<Addr, ModelEngine> {
    let mut engines: BTreeMap<Addr, ModelEngine> = BTreeMap::new();
    for d in &plan.defenses {
        match d {
            Defense::Rrl {
                target,
                start,
                config,
            } => {
                let rrl = ModelRrl {
                    config: *config,
                    buckets: BTreeMap::new(),
                };
                engines.entry(*target).or_default().rrl = Some((*start, rrl));
            }
            Defense::Admission {
                target,
                start,
                queue,
                classifier,
            } => {
                engines.entry(*target).or_default().admission = Some((
                    *start,
                    ClassedQueue::new(*queue),
                    build_classifier(classifier),
                ));
            }
            Defense::Cookie { .. } | Defense::ScaleOut { .. } => {}
        }
    }
    engines
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Sources spread over three /24s, so /24 buckets aggregate and /32
/// buckets do not.
fn source_pool(g: &mut Gen) -> Vec<Addr> {
    let prefixes = [0x0a00_0000u32, 0x0a00_0100, 0xc633_6400];
    g.vec(2..10, |g| Addr(*g.pick(&prefixes) | g.range(1..6u32)))
}

fn time_in(g: &mut Gen, secs: u64) -> SimTime {
    SimTime::from_nanos(g.range(0..secs * 1_000_000_000))
}

fn arb_rrl(g: &mut Gen, target: Addr) -> Defense {
    Defense::Rrl {
        target,
        start: if g.bool() {
            SimTime::ZERO
        } else {
            time_in(g, 20)
        },
        config: RrlConfig {
            rate_qps: *g.pick(&[0.5, 2.0, 5.0, 20.0]),
            burst: *g.pick(&[1.0, 2.0, 4.5]),
            slip: g.range(0..=3u32),
            prefix_bits: *g.pick(&[24, 32]),
        },
    }
}

fn arb_admission(g: &mut Gen, target: Addr, pool: &[Addr]) -> Defense {
    let classifier = if g.bool() {
        let pick = |g: &mut Gen| g.vec(0..4, |g| *g.pick(pool));
        ClassifierKind::Static {
            known: pick(g),
            flagged: pick(g),
        }
    } else {
        ClassifierKind::History {
            cutoff: time_in(g, 20),
        }
    };
    Defense::Admission {
        target,
        start: if g.bool() {
            SimTime::ZERO
        } else {
            time_in(g, 20)
        },
        queue: ClassedQueueConfig {
            rate_pps: *g.pick(&[1.0, 10.0, 200.0]),
            // Known always has weight, so the total is never zero; a
            // zero weight disables its class.
            weights: [
                *g.pick(&[1.0, 8.0]),
                *g.pick(&[0.0, 1.0, 3.0]),
                *g.pick(&[0.0, 0.5]),
            ],
            capacity: [g.range(0..6u32), g.range(0..6u32), g.range(0..3u32)],
        },
        classifier,
    }
}

/// RRL and/or admission at one to three targets.
fn arb_plan(g: &mut Gen, pool: &[Addr]) -> DefensePlan {
    let mut plan = DefensePlan::new();
    for i in 0..g.range(1..4u32) {
        let target = Addr(0xc612_0001 + i);
        let (rrl, admission) = match g.range(0..3u32) {
            0 => (true, false),
            1 => (false, true),
            _ => (true, true),
        };
        if rrl {
            plan.push(arb_rrl(g, target));
        }
        if admission {
            plan.push(arb_admission(g, target, pool));
        }
    }
    plan
}

/// The instants a layer changes behaviour at: starts and cutoffs. The
/// stream lands on each exactly.
fn edges(plan: &DefensePlan) -> Vec<SimTime> {
    let mut at: Vec<SimTime> = plan
        .defenses
        .iter()
        .flat_map(|d| match d {
            Defense::Rrl { start, .. } => vec![*start],
            Defense::Admission {
                start, classifier, ..
            } => match classifier {
                ClassifierKind::History { cutoff } => vec![*start, *cutoff],
                ClassifierKind::Static { .. } => vec![*start],
            },
            _ => vec![],
        })
        .collect();
    at.sort_unstable();
    at
}

// ---------------------------------------------------------------------
// The property
// ---------------------------------------------------------------------

#[test]
fn the_engines_match_the_reference_model() {
    check::cases(
        "the_engines_match_the_reference_model",
        check::count(256),
        |g| {
            let mut pool = source_pool(g);
            let plan = arb_plan(g, &pool);
            plan.validate().expect("generated plans are valid");
            let edges = edges(&plan);
            let mut engines = plan.build_engines();
            let mut model = model_engines(&plan);
            let targets: Vec<Addr> = engines.keys().copied().collect();
            let name = Name::parse("q.example").unwrap();

            let mut now = SimTime::ZERO;
            let mut fresh = 0u32;
            for step in 0..g.range(0..400usize) {
                // Land on the next start or cutoff exactly, or step ahead
                // by nothing (same-instant bursts), a few ms, or seconds.
                match edges.iter().find(|&&e| e > now) {
                    Some(&edge) if g.range(0..6u32) == 0 => now = edge,
                    _ => {
                        let ms = *g.pick(&[0, 0, 1, 7, 150, 1_300]);
                        now += SimDuration::from_millis(ms);
                    }
                }
                // Past the first edge, fresh sources join the pool: the
                // spoofed flood a history classifier must not trust.
                if edges.first().is_some_and(|&e| now >= e) && g.range(0..8u32) == 0 {
                    fresh += 1;
                    pool.push(Addr(0xcb00_7100 + fresh));
                }
                let target = *g.pick(&targets);
                if g.range(0..40u32) == 0 {
                    let factor = *g.pick(&[1.0, 2.0, 3.5]);
                    engines.get_mut(&target).unwrap().scale_capacity(factor);
                    model.get_mut(&target).unwrap().scale_capacity(factor);
                    continue;
                }
                let src = *g.pick(&pool);
                let query = Message::query(step as u16, name.clone(), RecordType::A);
                let msg = if g.range(0..10u32) == 0 {
                    Message::response_to(&query)
                } else {
                    query
                };
                let got = engines.get_mut(&target).unwrap().on_query(now, src, &msg);
                let want = model.get_mut(&target).unwrap().on_query(now, src, &msg);
                assert_eq!(
                    got, want,
                    "step {step} at {now:?}: {src:?} -> {target:?}\nplan {plan:?}"
                );
            }
        },
    );
}
