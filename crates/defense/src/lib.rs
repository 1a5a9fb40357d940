#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-defense
//!
//! Composable, serializable server-side DDoS defenses for the simulator —
//! the authoritative operator's half of the arms race the paper measures
//! from the client side (§7: "server-side defenses change the tension
//! between serving everyone and staying up").
//!
//! A [`DefensePlan`] is a list of [`Defense`]s, validated up front and
//! scheduled all-or-nothing, exactly like a
//! [`FaultPlan`](https://docs.rs/dike-faults): a defense scenario is
//! data — buildable in code, serializable to JSON for record/replay, and
//! composable with a fault plan (RRL *while* the flood ramps).
//!
//! The defense taxonomy (DESIGN.md §5.5):
//!
//! * [`Defense::Rrl`] — BIND/NSD-style response-rate limiting: one token
//!   bucket per source prefix; over-rate queries are dropped, or every
//!   Nth is answered with a truncated TC=1 response (*slip*) so honest
//!   clients fail over to TCP-or-elsewhere while spoofed floods gain
//!   nothing.
//! * [`Defense::Admission`] — priority scheduling: a weighted-class
//!   ingress scheduler ([`ClassedQueue`]) with per-class buffers, fed by
//!   a source classifier ([`ClassifierKind`]) that sorts sources into
//!   known-resolver / unknown / flagged classes (Rizvi et al.'s
//!   admission control).
//! * [`Defense::ScaleOut`] — anycast scale-out: after a configurable
//!   detection delay, multiply the target's service capacity and
//!   optionally join standby replicas into its anycast catchment.
//! * [`Defense::Cookie`] — RFC 7873 DNS-cookie validation on the same
//!   ingress gate: queries carrying a full cookie that validates under
//!   the secret bypass RRL and admission entirely. Return routability
//!   is proven, so the source cannot be a spoofed flood — rate
//!   limiting real resolvers becomes unnecessary.
//!
//! Everything is deterministic: no defense draws randomness, every
//! decision is a pure function of sim time, the source address, and the
//! defense's serializable configuration. An empty plan schedules nothing
//! and leaves a run bit-identical to a defense-free build.

use std::collections::{BTreeMap, BTreeSet};

use dike_netsim::{
    Addr, ClassedQueue, ClassedQueueConfig, IngressDefense, IngressVerdict, NodeId, QueueClass,
    QueueOutcome, SimDuration, SimTime, Simulator,
};
use dike_telemetry::json::{self, Field, Writer};
use dike_wire::Message;

// ---------------------------------------------------------------------
// RRL: per-source-prefix token buckets
// ---------------------------------------------------------------------

/// Response-rate-limiting parameters (the knobs of BIND's `rate-limit`
/// block, reduced to what the simulation distinguishes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RrlConfig {
    /// Sustained responses per second allowed per source prefix.
    pub rate_qps: f64,
    /// Bucket depth in responses: how large a burst a quiet prefix may
    /// spend at once (≥ 1).
    pub burst: f64,
    /// Slip interval: `0` drops every over-rate query silently; `n > 0`
    /// answers every `n`-th over-rate query with a truncated TC=1
    /// response instead (BIND's `slip n`).
    pub slip: u32,
    /// Aggregation prefix length in bits (BIND's `ipv4-prefix-length`,
    /// default 24): sources sharing the top `prefix_bits` bits share one
    /// bucket.
    pub prefix_bits: u8,
}

impl RrlConfig {
    /// Rate limiting with silent drops at `rate_qps` per /24.
    pub(crate) fn drop_at(rate_qps: f64) -> RrlConfig {
        RrlConfig {
            rate_qps,
            burst: rate_qps.max(1.0),
            slip: 0,
            prefix_bits: 24,
        }
    }

    /// Rate limiting that slips a TC=1 answer every `slip`-th limited
    /// query (the operationally recommended mode).
    pub fn slip_at(rate_qps: f64, slip: u32) -> RrlConfig {
        RrlConfig {
            slip,
            ..RrlConfig::drop_at(rate_qps)
        }
    }

    fn mask(&self) -> u32 {
        match self.prefix_bits {
            0 => 0,
            b if b >= 32 => u32::MAX,
            b => u32::MAX << (32 - b),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled: SimTime,
    /// Over-rate queries seen by this bucket, for the slip cadence.
    limited: u64,
}

/// The RRL engine: one token bucket per source prefix, refilled in sim
/// time. Deterministic — no RNG, and the slip cadence is a per-bucket
/// counter, not a coin flip.
#[derive(Debug, Clone)]
pub struct Rrl {
    config: RrlConfig,
    buckets: BTreeMap<u32, Bucket>,
}

impl Rrl {
    /// A fresh limiter; every prefix starts with a full bucket.
    pub fn new(config: RrlConfig) -> Rrl {
        Rrl {
            config,
            buckets: BTreeMap::new(),
        }
    }

    /// Accounts one query from `src` at `now` and says what to do with
    /// it: [`IngressVerdict::Pass`] under rate, [`IngressVerdict::RrlDrop`]
    /// or [`IngressVerdict::RrlSlip`] over it.
    pub fn check(&mut self, now: SimTime, src: Addr) -> IngressVerdict {
        let key = src.0 & self.config.mask();
        let burst = self.config.burst.max(1.0);
        let bucket = self.buckets.entry(key).or_insert(Bucket {
            tokens: burst,
            refilled: now,
            limited: 0,
        });
        let elapsed = now.since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.config.rate_qps).min(burst);
        bucket.refilled = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            return IngressVerdict::Pass;
        }
        bucket.limited += 1;
        if self.config.slip > 0 && bucket.limited.is_multiple_of(self.config.slip as u64) {
            IngressVerdict::RrlSlip
        } else {
            IngressVerdict::RrlDrop
        }
    }
}

// ---------------------------------------------------------------------
// Source classification
// ---------------------------------------------------------------------

/// The serializable description of a source classifier — what a
/// [`Defense::Admission`] carries. Either kind is deterministic: no RNG,
/// no wall clock.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierKind {
    /// A fixed allowlist/blocklist: listed `known` sources are served
    /// first-class, listed `flagged` sources last, everyone else in the
    /// middle. List order and repeats do not matter.
    Static {
        /// First-class sources.
        known: Vec<Addr>,
        /// Last-class sources.
        flagged: Vec<Addr>,
    },
    /// History-based (Rizvi et al.): sources seen before `cutoff` —
    /// attack onset, in practice — are *known* resolvers; sources that
    /// appear only after it are *unknown* (spoofed floods land here).
    History {
        /// The trust cutoff (attack onset).
        cutoff: SimTime,
    },
}

/// The live classifier an admission layer runs, built from its
/// [`ClassifierKind`].
enum Classifier {
    /// The kind's lists, sorted and deduplicated for binary search.
    Static {
        known: Vec<Addr>,
        flagged: Vec<Addr>,
    },
    /// The sources observed before `cutoff`. Arrivals at or after the
    /// cutoff are never inserted, so the set stops growing at attack
    /// onset however many addresses a flood forges.
    History {
        cutoff: SimTime,
        seen: BTreeSet<Addr>,
    },
}

impl Classifier {
    fn new(kind: &ClassifierKind) -> Classifier {
        let sorted = |list: &[Addr]| {
            let mut list = list.to_vec();
            list.sort_unstable();
            list.dedup();
            list
        };
        match kind {
            ClassifierKind::Static { known, flagged } => Classifier::Static {
                known: sorted(known),
                flagged: sorted(flagged),
            },
            ClassifierKind::History { cutoff } => Classifier::History {
                cutoff: *cutoff,
                seen: BTreeSet::new(),
            },
        }
    }

    /// Learns from one arriving query. Query times never decrease, so a
    /// source inserted here is one whose *first* sighting preceded the
    /// cutoff.
    fn observe(&mut self, now: SimTime, src: Addr) {
        if let Classifier::History { cutoff, seen } = self {
            if now < *cutoff {
                seen.insert(src);
            }
        }
    }

    /// The class traffic from `src` is served in.
    fn classify(&self, src: Addr) -> QueueClass {
        match self {
            Classifier::Static { flagged, .. } if flagged.binary_search(&src).is_ok() => {
                QueueClass::Flagged
            }
            Classifier::Static { known, .. } if known.binary_search(&src).is_ok() => {
                QueueClass::Known
            }
            Classifier::History { seen, .. } if seen.contains(&src) => QueueClass::Known,
            _ => QueueClass::Unknown,
        }
    }
}

// ---------------------------------------------------------------------
// The engine: classifier → admission → RRL, in front of one ingress
// ---------------------------------------------------------------------

struct AdmissionLayer {
    start: SimTime,
    queue: ClassedQueue,
    classifier: Classifier,
}

/// The composed defense pipeline installed in front of one server
/// address. Layers evaluate in the documented order — classifier →
/// admission → RRL — and each is inert before its activation instant,
/// so a defense can be armed mid-run without a control event.
#[derive(Default)]
pub struct DefenseEngine {
    rrl: Option<(SimTime, Rrl)>,
    admission: Option<AdmissionLayer>,
}

impl IngressDefense for DefenseEngine {
    fn on_query(&mut self, now: SimTime, src: Addr, msg: &Message) -> IngressVerdict {
        if msg.is_response {
            return IngressVerdict::Pass;
        }
        let mut queued = None;
        if let Some(adm) = &mut self.admission {
            // The classifier watches everything, even before the layer
            // arms: a history classifier must learn the pre-attack
            // population to be useful once admission starts shedding.
            adm.classifier.observe(now, src);
            if now >= adm.start {
                let class = adm.classifier.classify(src);
                match adm.queue.offer(now, class) {
                    QueueOutcome::Dropped => return IngressVerdict::Shed(class),
                    QueueOutcome::Enqueued(d) => queued = Some((d, class)),
                }
            }
        }
        let rrl = match &mut self.rrl {
            Some((start, rrl)) if now >= *start => rrl.check(now, src),
            _ => IngressVerdict::Pass,
        };
        match (rrl, queued) {
            (IngressVerdict::Pass, Some((delay, class))) => {
                IngressVerdict::Enqueue { delay, class }
            }
            (verdict, _) => verdict,
        }
    }

    fn scale_capacity(&mut self, factor: f64) {
        if let Some(adm) = &mut self.admission {
            adm.queue.scale_capacity(factor);
        }
    }
}

// ---------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------

/// One defense. See the crate docs for the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum Defense {
    /// Response-rate limiting at `target` from `start` on.
    Rrl {
        /// The defended ingress address.
        target: Addr,
        /// When the limiter arms (queries before this pass freely).
        start: SimTime,
        /// Bucket parameters.
        config: RrlConfig,
    },
    /// Weighted-class admission control at `target` from `start` on.
    Admission {
        /// The defended ingress address.
        target: Addr,
        /// When the scheduler arms. The classifier observes traffic
        /// from t=0 regardless, so history classification works.
        start: SimTime,
        /// Per-class rates and buffers.
        queue: ClassedQueueConfig,
        /// How sources map to classes.
        classifier: ClassifierKind,
    },
    /// RFC 7873 cookie validation at `target`: queries carrying a full
    /// cookie valid under `secret` skip the RRL and admission layers.
    /// Requires an [`Defense::Rrl`] or [`Defense::Admission`] at the
    /// same target in the same plan — the exemption lives on that gate
    /// and is meaningless without one.
    Cookie {
        /// The defended ingress address.
        target: Addr,
        /// The server-cookie secret; must match what the authoritative
        /// server mints with, or no exemption ever fires.
        secret: u64,
    },
    /// Anycast scale-out: `detection_delay` after `at`, multiply
    /// `target`'s service capacity and optionally join standby replicas
    /// into its anycast group.
    ScaleOut {
        /// The defended address (a VIP if `join` is non-empty).
        target: Addr,
        /// Attack onset, as the operator's monitoring sees it.
        at: SimTime,
        /// Time from onset to the provisioning action taking effect.
        detection_delay: SimDuration,
        /// Factor (≥ 1) applied to the ingress queue's and the defense
        /// engine's service rates.
        capacity_factor: f64,
        /// Standby replicas appended to the target VIP's catchment.
        join: Vec<NodeId>,
    },
}

/// Why a [`Defense`] (or the plan containing it) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseError {
    /// An RRL `rate_qps` that is zero, negative, or not a number.
    RrlRateOutOfRange(f64),
    /// An RRL `burst` below one response (or not a number).
    RrlBurstOutOfRange(f64),
    /// An RRL prefix length above 32 bits.
    PrefixBitsOutOfRange(u8),
    /// An admission `rate_pps` that is zero, negative, or not a number.
    AdmissionRateOutOfRange(f64),
    /// A negative (or non-finite) class weight.
    WeightOutOfRange(f64),
    /// All three class weights are zero: the scheduler would shed
    /// every query, which is an outage, not a defense.
    ZeroTotalWeight,
    /// A scale-out `capacity_factor` below 1 (or not a number): scaling
    /// out never shrinks capacity.
    ScaleFactorOutOfRange(f64),
    /// Two defenses install the same layer at the same target; the
    /// second would silently replace the first.
    DuplicateLayer(&'static str, Addr),
    /// A cookie defense whose target has no RRL or admission layer in
    /// the plan: there is no gate to carry the exemption.
    CookieWithoutGate(Addr),
}

impl std::fmt::Display for DefenseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DefenseError::RrlRateOutOfRange(r) => {
                write!(f, "rrl rate_qps {r} is not a positive rate")
            }
            DefenseError::RrlBurstOutOfRange(b) => {
                write!(f, "rrl burst {b} is below 1 response")
            }
            DefenseError::PrefixBitsOutOfRange(b) => {
                write!(f, "rrl prefix_bits {b} exceeds 32")
            }
            DefenseError::AdmissionRateOutOfRange(r) => {
                write!(f, "admission rate_pps {r} is not a positive rate")
            }
            DefenseError::WeightOutOfRange(w) => {
                write!(f, "class weight {w} is negative or not a number")
            }
            DefenseError::ZeroTotalWeight => {
                write!(f, "all class weights are zero")
            }
            DefenseError::ScaleFactorOutOfRange(x) => {
                write!(f, "capacity_factor {x} is below 1")
            }
            DefenseError::DuplicateLayer(kind, addr) => {
                write!(f, "duplicate {kind} layer at {addr:?}")
            }
            DefenseError::CookieWithoutGate(addr) => {
                write!(
                    f,
                    "cookie defense at {addr:?} has no rrl/admission layer to exempt from"
                )
            }
        }
    }
}

impl std::error::Error for DefenseError {}

impl Defense {
    /// RRL armed from t=0.
    pub fn rrl(target: Addr, config: RrlConfig) -> Defense {
        Defense::Rrl {
            target,
            start: SimTime::ZERO,
            config,
        }
    }

    /// Admission control armed from t=0.
    pub fn admission(
        target: Addr,
        queue: ClassedQueueConfig,
        classifier: ClassifierKind,
    ) -> Defense {
        Defense::Admission {
            target,
            start: SimTime::ZERO,
            queue,
            classifier,
        }
    }

    /// Cookie validation under `secret` (pair with [`Defense::rrl`] or
    /// [`Defense::admission`] at the same target).
    pub fn cookie(target: Addr, secret: u64) -> Defense {
        Defense::Cookie { target, secret }
    }

    /// Scale-out with no standby replicas (capacity multiplication
    /// only).
    pub fn scale_out(
        target: Addr,
        at: SimTime,
        detection_delay: SimDuration,
        capacity_factor: f64,
    ) -> Defense {
        Defense::ScaleOut {
            target,
            at,
            detection_delay,
            capacity_factor,
            join: Vec::new(),
        }
    }

    /// Delays a layer's activation; no-op on [`Defense::ScaleOut`]
    /// (which already has `detection_delay`).
    pub fn starting_at(mut self, when: SimTime) -> Defense {
        match &mut self {
            Defense::Rrl { start, .. } | Defense::Admission { start, .. } => *start = when,
            Defense::ScaleOut { .. } | Defense::Cookie { .. } => {}
        }
        self
    }

    /// Checks this defense's parameters.
    pub fn validate(&self) -> Result<(), DefenseError> {
        match self {
            Defense::Rrl { config, .. } => {
                if !config.rate_qps.is_finite() || config.rate_qps <= 0.0 {
                    return Err(DefenseError::RrlRateOutOfRange(config.rate_qps));
                }
                if !config.burst.is_finite() || config.burst < 1.0 {
                    return Err(DefenseError::RrlBurstOutOfRange(config.burst));
                }
                if config.prefix_bits > 32 {
                    return Err(DefenseError::PrefixBitsOutOfRange(config.prefix_bits));
                }
                Ok(())
            }
            Defense::Admission { queue, .. } => {
                if !queue.rate_pps.is_finite() || queue.rate_pps <= 0.0 {
                    return Err(DefenseError::AdmissionRateOutOfRange(queue.rate_pps));
                }
                for w in queue.weights {
                    if !w.is_finite() || w < 0.0 {
                        return Err(DefenseError::WeightOutOfRange(w));
                    }
                }
                if queue.weights.iter().sum::<f64>() <= 0.0 {
                    return Err(DefenseError::ZeroTotalWeight);
                }
                Ok(())
            }
            Defense::ScaleOut {
                capacity_factor, ..
            } => {
                if !capacity_factor.is_finite() || *capacity_factor < 1.0 {
                    return Err(DefenseError::ScaleFactorOutOfRange(*capacity_factor));
                }
                Ok(())
            }
            // Any secret is a valid secret; the gate requirement is a
            // plan-level check (DefensePlan::validate).
            Defense::Cookie { .. } => Ok(()),
        }
    }

    fn target(&self) -> Addr {
        match self {
            Defense::Rrl { target, .. }
            | Defense::Admission { target, .. }
            | Defense::Cookie { target, .. }
            | Defense::ScaleOut { target, .. } => *target,
        }
    }
}

/// A composable defense scenario: any number of defenses, scheduled
/// together. RRL and admission layers aimed at the same target compose
/// into one [`DefenseEngine`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DefensePlan {
    /// The defenses, in any order (each carries its own times).
    pub defenses: Vec<Defense>,
}

impl DefensePlan {
    /// An empty plan (scheduling it is a no-op).
    pub fn new() -> Self {
        DefensePlan::default()
    }

    /// Adds a defense (builder-style).
    pub fn with(mut self, defense: Defense) -> Self {
        self.defenses.push(defense);
        self
    }

    /// Adds a defense in place.
    pub fn push(&mut self, defense: Defense) -> &mut Self {
        self.defenses.push(defense);
        self
    }

    /// Whether the plan contains no defenses.
    pub fn is_empty(&self) -> bool {
        self.defenses.is_empty()
    }

    /// Number of defenses in the plan.
    pub fn len(&self) -> usize {
        self.defenses.len()
    }

    /// Validates every defense (and plan-level coherence: at most one
    /// RRL and one admission layer per target); the index of the first
    /// invalid defense is reported alongside its error.
    pub fn validate(&self) -> Result<(), (usize, DefenseError)> {
        let mut seen: Vec<(&'static str, Addr)> = Vec::new();
        for (i, d) in self.defenses.iter().enumerate() {
            d.validate().map_err(|e| (i, e))?;
            let layer = match d {
                Defense::Rrl { .. } => Some("rrl"),
                Defense::Admission { .. } => Some("admission"),
                Defense::Cookie { .. } => Some("cookie"),
                Defense::ScaleOut { .. } => None,
            };
            if let Some(kind) = layer {
                let key = (kind, d.target());
                if seen.contains(&key) {
                    return Err((i, DefenseError::DuplicateLayer(kind, d.target())));
                }
                seen.push(key);
            }
        }
        // A cookie exemption needs a gate to exempt from; list order
        // does not matter (the gate may come later in the plan).
        for (i, d) in self.defenses.iter().enumerate() {
            if let Defense::Cookie { target, .. } = d {
                let gated = seen
                    .iter()
                    .any(|(k, a)| a == target && (*k == "rrl" || *k == "admission"));
                if !gated {
                    return Err((i, DefenseError::CookieWithoutGate(*target)));
                }
            }
        }
        Ok(())
    }

    /// Composes the plan's per-target [`DefenseEngine`]s (RRL +
    /// admission at one address share a pipeline). This is the piece of
    /// [`DefensePlan::schedule`] that is world-agnostic: the simulator
    /// installs the engines behind ingress gates, and `dike-serve`
    /// mounts the same engines in front of live sockets. ScaleOut
    /// defenses are control-plane actions and produce no engine.
    pub fn build_engines(&self) -> BTreeMap<Addr, DefenseEngine> {
        let mut engines: BTreeMap<Addr, DefenseEngine> = BTreeMap::new();
        for d in &self.defenses {
            match d {
                Defense::Rrl {
                    target,
                    start,
                    config,
                } => {
                    engines.entry(*target).or_default().rrl = Some((*start, Rrl::new(*config)));
                }
                Defense::Admission {
                    target,
                    start,
                    queue,
                    classifier,
                } => {
                    engines.entry(*target).or_default().admission = Some(AdmissionLayer {
                        start: *start,
                        queue: ClassedQueue::new(*queue),
                        classifier: Classifier::new(classifier),
                    });
                }
                // Cookie exemptions live on the ingress gate, not the
                // engine; scale-out is control-plane. Neither builds an
                // engine layer.
                Defense::Cookie { .. } | Defense::ScaleOut { .. } => {}
            }
        }
        engines
    }

    /// Validates the whole plan, then installs every defense. All-or-
    /// nothing: an invalid defense anywhere means nothing is installed.
    pub fn schedule(&self, sim: &mut Simulator) -> Result<(), (usize, DefenseError)> {
        self.validate()?;
        for (addr, engine) in self.build_engines() {
            sim.world_mut().set_ingress_defense(addr, Box::new(engine));
        }
        for d in &self.defenses {
            if let Defense::Cookie { target, secret } = d {
                // The engines above installed the gate; validation
                // guarantees one exists for this target.
                sim.world_mut()
                    .set_ingress_cookie_secret(*target, Some(*secret));
            }
            if let Defense::ScaleOut {
                target,
                at,
                detection_delay,
                capacity_factor,
                join,
            } = d
            {
                let (t, factor, join) = (*target, *capacity_factor, join.clone());
                sim.schedule_control(*at + *detection_delay, move |w| {
                    w.note_scaleout_activation();
                    if let Some(gate) = w.gate_mut(t) {
                        gate.scale_capacity(factor);
                    }
                    if !join.is_empty() {
                        let mut members = w
                            .anycast_mut()
                            .members(t)
                            .map(|m| m.to_vec())
                            .unwrap_or_default();
                        for n in join {
                            if !members.contains(&n) {
                                members.push(n);
                            }
                        }
                        w.anycast_mut().set_group(t, members);
                    }
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------
//
// A plan's record/replay form: `{"defenses":[{"kind":…,…},…]}`, one
// flat object per defense. As in `dike-faults`, this section only maps
// fields to keys; the format itself (escaping, number syntax, strict
// parsing, range-checked field access) lives in `dike_telemetry::json`,
// the workspace's one codec. `dike-serve --plan FILE` feeds `from_json`
// an operator's file, so it rejects what it does not understand.

impl DefensePlan {
    /// Serializes the plan to one-line JSON.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("defenses").begin_array();
        for d in &self.defenses {
            defense_json(d, &mut w);
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Parses [`DefensePlan::to_json`] output. Returns a description of
    /// the first problem on malformed input.
    pub fn from_json(text: &str) -> Result<DefensePlan, String> {
        let doc = json::parse(text)?;
        let defenses = doc
            .named("plan")
            .get("defenses")?
            .array()?
            .map(defense_from_json)
            .collect::<Result<_, _>>()?;
        Ok(DefensePlan { defenses })
    }
}

fn u64_array(w: &mut Writer, key: &str, xs: impl IntoIterator<Item = u32>) {
    w.key(key).begin_array();
    for x in xs {
        w.u64(x.into());
    }
    w.end_array();
}

fn defense_json(d: &Defense, w: &mut Writer) {
    w.begin_object();
    match d {
        Defense::Rrl {
            target,
            start,
            config,
        } => {
            w.key("kind").str("rrl");
            w.key("target").u64(target.0.into());
            w.key("start_ns").u64(start.as_nanos());
            w.key("rate_qps").f64(config.rate_qps);
            w.key("burst").f64(config.burst);
            w.key("slip").u64(config.slip.into());
            w.key("prefix_bits").u64(config.prefix_bits.into());
        }
        Defense::Admission {
            target,
            start,
            queue,
            classifier,
        } => {
            w.key("kind").str("admission");
            w.key("target").u64(target.0.into());
            w.key("start_ns").u64(start.as_nanos());
            w.key("rate_pps").f64(queue.rate_pps);
            w.key("weights").begin_array();
            for x in queue.weights {
                w.f64(x);
            }
            w.end_array();
            u64_array(w, "capacity", queue.capacity);
            match classifier {
                ClassifierKind::Static { known, flagged } => {
                    w.key("classifier").str("static");
                    u64_array(w, "known", known.iter().map(|a| a.0));
                    u64_array(w, "flagged", flagged.iter().map(|a| a.0));
                }
                ClassifierKind::History { cutoff } => {
                    w.key("classifier").str("history");
                    w.key("cutoff_ns").u64(cutoff.as_nanos());
                }
            }
        }
        Defense::Cookie { target, secret } => {
            w.key("kind").str("cookie");
            w.key("target").u64(target.0.into());
            w.key("secret").u64(*secret);
        }
        Defense::ScaleOut {
            target,
            at,
            detection_delay,
            capacity_factor,
            join,
        } => {
            w.key("kind").str("scale_out");
            w.key("target").u64(target.0.into());
            w.key("at_ns").u64(at.as_nanos());
            w.key("detection_delay_ns").u64(detection_delay.as_nanos());
            w.key("capacity_factor").f64(*capacity_factor);
            u64_array(w, "join", join.iter().map(|n| n.0));
        }
    }
    w.end_object();
}

fn time(f: Field<'_>, key: &str) -> Result<SimTime, String> {
    Ok(SimTime::from_nanos(f.get(key)?.uint()?))
}

/// The `u32` elements of array `key`, wrapped (as `Addr` or `NodeId`).
fn u32_array<T>(f: Field<'_>, key: &str, wrap: fn(u32) -> T) -> Result<Vec<T>, String> {
    f.get(key)?.array()?.map(|x| x.uint().map(wrap)).collect()
}

/// Array `key` as exactly three elements, one per [`QueueClass`].
fn per_class<'a, T>(
    f: Field<'a>,
    key: &'a str,
    element: impl Fn(Field<'a>) -> Result<T, String>,
) -> Result<[T; 3], String> {
    let xs: Vec<T> = f
        .get(key)?
        .array()?
        .map(element)
        .collect::<Result<_, _>>()?;
    xs.try_into()
        .map_err(|_| format!("field \"{key}\" needs exactly 3 elements"))
}

fn defense_from_json(f: Field<'_>) -> Result<Defense, String> {
    match f.get("kind")?.str()? {
        "rrl" => Ok(Defense::Rrl {
            target: Addr(f.get("target")?.uint()?),
            start: time(f, "start_ns")?,
            config: RrlConfig {
                rate_qps: f.get("rate_qps")?.f64()?,
                burst: f.get("burst")?.f64()?,
                slip: f.get("slip")?.uint()?,
                prefix_bits: f.get("prefix_bits")?.uint()?,
            },
        }),
        "admission" => Ok(Defense::Admission {
            target: Addr(f.get("target")?.uint()?),
            start: time(f, "start_ns")?,
            queue: ClassedQueueConfig {
                rate_pps: f.get("rate_pps")?.f64()?,
                weights: per_class(f, "weights", Field::f64)?,
                capacity: per_class(f, "capacity", Field::uint)?,
            },
            classifier: match f.get("classifier")?.str()? {
                "static" => ClassifierKind::Static {
                    known: u32_array(f, "known", Addr)?,
                    flagged: u32_array(f, "flagged", Addr)?,
                },
                "history" => ClassifierKind::History {
                    cutoff: time(f, "cutoff_ns")?,
                },
                other => return Err(format!("unknown classifier \"{other}\"")),
            },
        }),
        "cookie" => Ok(Defense::Cookie {
            target: Addr(f.get("target")?.uint()?),
            secret: f.get("secret")?.uint()?,
        }),
        "scale_out" => Ok(Defense::ScaleOut {
            target: Addr(f.get("target")?.uint()?),
            at: time(f, "at_ns")?,
            detection_delay: SimDuration::from_nanos(f.get("detection_delay_ns")?.uint()?),
            capacity_factor: f.get("capacity_factor")?.f64()?,
            join: u32_array(f, "join", NodeId)?,
        }),
        other => Err(format!("unknown defense kind \"{other}\"")),
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

    fn full_plan() -> DefensePlan {
        DefensePlan::new()
            .with(Defense::rrl(Addr(0x0a00_0001), RrlConfig::slip_at(5.0, 2)).starting_at(t(10)))
            .with(Defense::admission(
                Addr(0x0a00_0001),
                ClassedQueueConfig::protective(2_000.0),
                ClassifierKind::History { cutoff: t(60) },
            ))
            .with(Defense::admission(
                Addr(0x0a00_0002),
                ClassedQueueConfig {
                    rate_pps: 500.0,
                    weights: [4.0, 2.0, 0.0],
                    capacity: [100, 20, 0],
                },
                ClassifierKind::Static {
                    known: vec![Addr(1), Addr(2)],
                    flagged: vec![Addr(9)],
                },
            ))
            .with(Defense::ScaleOut {
                target: Addr(0xc612_0001),
                at: t(60),
                detection_delay: d(300),
                capacity_factor: 3.0,
                join: vec![NodeId(7), NodeId(8)],
            })
            .with(Defense::cookie(Addr(0x0a00_0001), 0x5eed_c001))
    }

    #[test]
    fn json_round_trip_preserves_every_defense() {
        let plan = full_plan();
        let json = plan.to_json();
        let back = DefensePlan::from_json(&json).unwrap();
        assert_eq!(plan, back);
        // And the round-tripped plan serializes identically (stable form).
        assert_eq!(json, back.to_json());
    }

    /// Every row is a plan the parser accepted before it moved onto
    /// `dike_telemetry::json` (non-finite numbers, integers truncated
    /// with `as`, first-duplicate-wins, Unicode `trim`). The error must
    /// name the offending field.
    #[test]
    fn from_json_rejects_hostile_plans() {
        let rrl = |tail: &str| format!(r#"{{"kind":"rrl","start_ns":0,{tail}}}"#);
        let admission = |tail: &str| {
            format!(
                r#"{{"kind":"admission","target":1,"start_ns":0,"rate_pps":100,"weights":[8,3,1],{tail}}}"#
            )
        };
        let rows = [
            (rrl(r#""target":1,"rate_qps":inf,"burst":5,"slip":2,"prefix_bits":24"#), "byte"),
            (rrl(r#""target":1,"rate_qps":5,"burst":NaN,"slip":2,"prefix_bits":24"#), "byte"),
            (rrl(r#""target":1,"rate_qps":5,"burst":Infinity,"slip":2,"prefix_bits":24"#), "byte"),
            (rrl(r#""target":1,"rate_qps":5,"burst":5,"slip":2,"prefix_bits":280"#), "\"prefix_bits\""),
            (rrl(r#""target":1,"rate_qps":5,"burst":5,"slip":4294967296,"prefix_bits":24"#), "\"slip\""),
            (rrl(r#""target":4294967297,"rate_qps":5,"burst":5,"slip":2,"prefix_bits":24"#), "\"target\""),
            (
                rrl(r#""target":1,"target":2,"rate_qps":5,"burst":5,"slip":2,"prefix_bits":24"#),
                "duplicate field \"target\"",
            ),
            (
                admission(r#""capacity":[1000,4294967296,20],"classifier":"history","cutoff_ns":0"#),
                "\"capacity\"",
            ),
            (
                admission(r#""capacity":[9,9,9],"classifier":"static","known":[4294967297],"flagged":[]"#),
                "\"known\"",
            ),
            (
                r#"{"kind":"scale_out","target":1,"at_ns":0,"detection_delay_ns":1,"capacity_factor":2,"join":[4294967303]}"#
                    .to_string(),
                "\"join\"",
            ),
        ];
        for (defense, needle) in rows {
            let err =
                DefensePlan::from_json(&format!(r#"{{"defenses":[{defense}]}}"#)).unwrap_err();
            assert!(err.contains(needle), "{defense}: {err}");
        }
        // Trailing bytes: a no-break space is not JSON whitespace.
        let err = DefensePlan::from_json("{\"defenses\":[]}\u{a0}").unwrap_err();
        assert!(err.contains("trailing bytes"), "{err}");
    }

    /// A plan file written before the move (integral floats print as
    /// `5`, not `5.0`) still reads back as the same plan.
    #[test]
    fn plans_written_by_the_old_writer_still_parse() {
        let old = concat!(
            r#"{"defenses":[{"kind":"rrl","target":167772161,"start_ns":10000000000,"#,
            r#""rate_qps":5,"burst":5,"slip":2,"prefix_bits":24},"#,
            r#"{"kind":"admission","target":167772161,"start_ns":0,"rate_pps":2000,"#,
            r#""weights":[8,3,1],"capacity":[1000,200,20],"classifier":"history","cutoff_ns":60000000000},"#,
            r#"{"kind":"admission","target":167772162,"start_ns":0,"rate_pps":500,"#,
            r#""weights":[4,2,0],"capacity":[100,20,0],"classifier":"static","known":[1,2],"flagged":[9]},"#,
            r#"{"kind":"scale_out","target":3323068417,"at_ns":60000000000,"detection_delay_ns":300000000000,"#,
            r#""capacity_factor":3,"join":[7,8]},"#,
            r#"{"kind":"cookie","target":167772161,"secret":1592639489}]}"#,
        );
        assert_eq!(DefensePlan::from_json(old).unwrap(), full_plan());
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = DefensePlan::new();
        assert!(plan.is_empty());
        assert_eq!(DefensePlan::from_json(&plan.to_json()).unwrap(), plan);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(DefensePlan::from_json("").is_err());
        assert!(DefensePlan::from_json("[]").is_err());
        assert!(DefensePlan::from_json("{\"defenses\":[{}]}").is_err());
        assert!(DefensePlan::from_json("{\"defenses\":[{\"kind\":\"martian\"}]}").is_err());
        assert!(
            DefensePlan::from_json("{\"defenses\":[{\"kind\":\"rrl\",\"target\":1}]}").is_err(),
            "missing fields"
        );
        assert!(
            DefensePlan::from_json(
                "{\"defenses\":[{\"kind\":\"admission\",\"target\":1,\"start_ns\":0,\
                 \"rate_pps\":10,\"weights\":[1,2],\"capacity\":[1,2,3],\
                 \"classifier\":\"history\",\"cutoff_ns\":0}]}"
            )
            .is_err(),
            "weights must have 3 elements"
        );
    }

    #[test]
    fn validation_rejects_bad_defenses_with_index() {
        let plan = DefensePlan::new()
            .with(Defense::rrl(Addr(1), RrlConfig::drop_at(5.0)))
            .with(Defense::rrl(Addr(2), RrlConfig::drop_at(0.0)));
        match plan.validate() {
            Err((1, DefenseError::RrlRateOutOfRange(r))) => assert_eq!(r, 0.0),
            other => panic!("expected index-1 rate error, got {other:?}"),
        }
        let bad = [
            Defense::rrl(
                Addr(1),
                RrlConfig {
                    burst: 0.5,
                    ..RrlConfig::drop_at(5.0)
                },
            ),
            Defense::rrl(
                Addr(1),
                RrlConfig {
                    prefix_bits: 40,
                    ..RrlConfig::drop_at(5.0)
                },
            ),
            Defense::admission(
                Addr(1),
                ClassedQueueConfig::protective(0.0),
                ClassifierKind::History { cutoff: t(0) },
            ),
            Defense::admission(
                Addr(1),
                ClassedQueueConfig {
                    rate_pps: 100.0,
                    weights: [1.0, -2.0, 1.0],
                    capacity: [1, 1, 1],
                },
                ClassifierKind::History { cutoff: t(0) },
            ),
            Defense::admission(
                Addr(1),
                ClassedQueueConfig {
                    rate_pps: 100.0,
                    weights: [0.0, 0.0, 0.0],
                    capacity: [1, 1, 1],
                },
                ClassifierKind::History { cutoff: t(0) },
            ),
            Defense::scale_out(Addr(1), t(0), d(60), 0.5),
        ];
        for b in bad {
            assert!(b.validate().is_err(), "{b:?} should be invalid");
        }
        // Duplicate layers at one target are a plan-level error.
        let dup = DefensePlan::new()
            .with(Defense::rrl(Addr(1), RrlConfig::drop_at(5.0)))
            .with(Defense::rrl(Addr(1), RrlConfig::drop_at(9.0)));
        match dup.validate() {
            Err((1, DefenseError::DuplicateLayer("rrl", a))) => assert_eq!(a, Addr(1)),
            other => panic!("expected duplicate-layer error, got {other:?}"),
        }
        // An invalid plan schedules nothing.
        let mut sim = Simulator::new(1);
        let invalid = DefensePlan::new().with(Defense::rrl(Addr(1), RrlConfig::drop_at(-1.0)));
        assert!(invalid.schedule(&mut sim).is_err());
    }

    #[test]
    fn cookie_without_a_gate_is_rejected() {
        let lone = DefensePlan::new().with(Defense::cookie(Addr(1), 7));
        match lone.validate() {
            Err((0, DefenseError::CookieWithoutGate(a))) => assert_eq!(a, Addr(1)),
            other => panic!("expected cookie-without-gate error, got {other:?}"),
        }
        // A gate at a *different* target does not satisfy the check.
        let elsewhere = DefensePlan::new()
            .with(Defense::rrl(Addr(2), RrlConfig::drop_at(5.0)))
            .with(Defense::cookie(Addr(1), 7));
        assert!(elsewhere.validate().is_err());
        // The gate may come later in the plan than the cookie.
        let reordered =
            DefensePlan::new()
                .with(Defense::cookie(Addr(1), 7))
                .with(Defense::admission(
                    Addr(1),
                    ClassedQueueConfig::protective(1_000.0),
                    ClassifierKind::History { cutoff: t(60) },
                ));
        assert!(reordered.validate().is_ok());
    }

    #[test]
    fn rrl_buckets_refill_in_sim_time() {
        let mut rrl = Rrl::new(RrlConfig::drop_at(2.0)); // 2 qps, burst 2
        let src = Addr(0x0a00_0001);
        // Burst drains the bucket…
        assert_eq!(rrl.check(t(0), src), IngressVerdict::Pass);
        assert_eq!(rrl.check(t(0), src), IngressVerdict::Pass);
        assert_eq!(rrl.check(t(0), src), IngressVerdict::RrlDrop);
        // …and a second later two tokens are back.
        assert_eq!(rrl.check(t(1), src), IngressVerdict::Pass);
        assert_eq!(rrl.check(t(1), src), IngressVerdict::Pass);
        assert_eq!(rrl.check(t(1), src), IngressVerdict::RrlDrop);
        // A different /24 has its own bucket.
        assert_eq!(rrl.check(t(1), Addr(0x0a00_0101)), IngressVerdict::Pass);
    }

    #[test]
    fn rrl_slip_answers_every_nth_limited_query() {
        let mut rrl = Rrl::new(RrlConfig::slip_at(1.0, 2));
        let src = Addr(0x0a00_0001);
        assert_eq!(rrl.check(t(0), src), IngressVerdict::Pass);
        let outcomes: Vec<IngressVerdict> = (0..4).map(|_| rrl.check(t(0), src)).collect();
        assert_eq!(
            outcomes,
            [
                IngressVerdict::RrlDrop,
                IngressVerdict::RrlSlip,
                IngressVerdict::RrlDrop,
                IngressVerdict::RrlSlip
            ]
        );
    }

    #[test]
    fn rrl_aggregates_by_prefix() {
        let mut rrl = Rrl::new(RrlConfig::drop_at(1.0));
        // Two addresses in the same /24 share one bucket.
        assert_eq!(rrl.check(t(0), Addr(0x0a00_0001)), IngressVerdict::Pass);
        assert_eq!(rrl.check(t(0), Addr(0x0a00_0002)), IngressVerdict::RrlDrop);
    }

    #[test]
    fn history_classifier_trusts_the_pre_attack_population() {
        let mut c = Classifier::new(&ClassifierKind::History { cutoff: t(60) });
        c.observe(t(10), Addr(1));
        c.observe(t(60), Addr(2));
        c.observe(t(70), Addr(3));
        assert_eq!(c.classify(Addr(1)), QueueClass::Known);
        assert_eq!(
            c.classify(Addr(2)),
            QueueClass::Unknown,
            "seen at the cutoff"
        );
        assert_eq!(c.classify(Addr(3)), QueueClass::Unknown);
        assert_eq!(c.classify(Addr(4)), QueueClass::Unknown, "never seen");
        let Classifier::History { seen, .. } = &c else {
            unreachable!()
        };
        assert_eq!(seen.len(), 1, "nothing seen from the cutoff on is kept");
        // Re-observing after the cutoff must not demote a known source.
        c.observe(t(80), Addr(1));
        assert_eq!(c.classify(Addr(1)), QueueClass::Known);
    }

    #[test]
    fn static_classifier_routes_all_three_classes() {
        let c = Classifier::new(&ClassifierKind::Static {
            known: vec![Addr(5), Addr(5)],
            flagged: vec![Addr(6)],
        });
        assert_eq!(c.classify(Addr(5)), QueueClass::Known);
        assert_eq!(c.classify(Addr(6)), QueueClass::Flagged);
        assert_eq!(c.classify(Addr(7)), QueueClass::Unknown);
    }

    /// A node that answers every query (echo).
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

    /// Sends `qps` queries per second and tallies full vs truncated
    /// replies.
    struct Chatter {
        target: Addr,
        full: Arc<Mutex<u64>>,
        truncated: Arc<Mutex<u64>>,
        interval: SimDuration,
        remaining: u32,
    }
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.interval, TimerToken(0));
        }
        fn on_datagram(
            &mut self,
            _ctx: &mut Context<'_>,
            _src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
            if msg.is_response {
                if msg.truncated {
                    *self.truncated.lock() += 1;
                } else {
                    *self.full.lock() += 1;
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
            let q = Message::query(1, Name::parse("x.nl").unwrap(), RecordType::A);
            ctx.send(self.target, &q);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(self.interval, TimerToken(0));
            }
        }
    }

    fn defended_sim(
        seed: u64,
        qps: u64,
        queries: u32,
    ) -> (Simulator, Addr, Arc<Mutex<u64>>, Arc<Mutex<u64>>) {
        let mut sim = Simulator::new(seed);
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            loss: 0.0,
        });
        let (_, echo_addr) = sim.add_node(Box::new(Echo));
        let full = Arc::new(Mutex::new(0));
        let truncated = Arc::new(Mutex::new(0));
        sim.add_node(Box::new(Chatter {
            target: echo_addr,
            full: full.clone(),
            truncated: truncated.clone(),
            interval: SimDuration::from_millis(1000 / qps.max(1)),
            remaining: queries.saturating_sub(1),
        }));
        (sim, echo_addr, full, truncated)
    }

    #[test]
    fn rrl_drop_thins_an_over_rate_source() {
        // 10 qps against a 2 qps limit: roughly 1/5 of queries answered.
        let (mut sim, addr, full, truncated) = defended_sim(3, 10, 100);
        DefensePlan::new()
            .with(Defense::rrl(addr, RrlConfig::drop_at(2.0)))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        let got = *full.lock();
        assert!((15..=30).contains(&got), "answered={got}");
        assert_eq!(*truncated.lock(), 0, "drop mode never truncates");
        assert!(report.rrl_limited > 0);
        assert_eq!(report.rrl_slipped, 0);
        assert_eq!(report.defense_drops, report.rrl_limited);
    }

    #[test]
    fn rrl_slip_converts_some_drops_into_tc_answers() {
        let (mut sim, addr, full, truncated) = defended_sim(4, 10, 100);
        DefensePlan::new()
            .with(Defense::rrl(addr, RrlConfig::slip_at(2.0, 2)))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert!(*full.lock() > 0);
        let tc = *truncated.lock();
        assert!(tc > 10, "every 2nd limited query slips: tc={tc}");
        assert_eq!(report.rrl_slipped, tc);
        assert!(report.rrl_slipped <= report.rrl_limited);
    }

    /// Like `Chatter` but every query carries a complete, valid DNS
    /// cookie for `target` minted with `secret`.
    struct CookieChatter {
        target: Addr,
        secret: u64,
        full: Arc<Mutex<u64>>,
        interval: SimDuration,
        remaining: u32,
    }
    impl Node for CookieChatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.interval, TimerToken(0));
        }
        fn on_datagram(
            &mut self,
            _ctx: &mut Context<'_>,
            _src: Addr,
            msg: &Message,
            _wire_len: usize,
        ) {
            if msg.is_response && !msg.truncated {
                *self.full.lock() += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
            let mut q = Message::query(1, Name::parse("x.nl").unwrap(), RecordType::A);
            let client = dike_wire::cookie::client_cookie_for(ctx.self_addr().0, self.target.0);
            let server = dike_wire::cookie::server_cookie(&client, ctx.self_addr().0, self.secret);
            dike_wire::cookie::set_cookie(
                &mut q,
                1232,
                &dike_wire::Cookie {
                    client,
                    server: Some(server.to_vec()),
                },
            );
            ctx.send(self.target, &q);
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(self.interval, TimerToken(0));
            }
        }
    }

    #[test]
    fn valid_cookies_are_exempt_from_rrl() {
        let secret = 0xfeed_beef;
        let mut sim = Simulator::new(11);
        *sim.links_mut() = LinkTable::new(LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(10)),
            loss: 0.0,
        });
        let (_, echo_addr) = sim.add_node(Box::new(Echo));
        let full = Arc::new(Mutex::new(0));
        // 10 qps against a 2 qps limit would thin an ordinary source to
        // ~1/5 (see rrl_drop_thins_an_over_rate_source); a cookie-bearing
        // source sails through untouched.
        sim.add_node(Box::new(CookieChatter {
            target: echo_addr,
            secret,
            full: full.clone(),
            interval: SimDuration::from_millis(100),
            remaining: 99,
        }));
        DefensePlan::new()
            .with(Defense::rrl(echo_addr, RrlConfig::drop_at(2.0)))
            .with(Defense::cookie(echo_addr, secret))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert_eq!(*full.lock(), 100, "every cookie query is answered");
        assert_eq!(report.rrl_limited, 0);
        assert_eq!(sim.world_mut().defense_ledger().cookie_exempt, 100);
    }

    #[test]
    fn admission_with_zero_flagged_weight_sheds_flagged_sources() {
        let (mut sim, addr, full, _) = defended_sim(5, 5, 50);
        // The single chatter is flagged; its class weight is zero.
        let chatter_addr = Addr(0x0a00_0002);
        DefensePlan::new()
            .with(Defense::admission(
                addr,
                ClassedQueueConfig {
                    rate_pps: 1_000.0,
                    weights: [8.0, 3.0, 0.0],
                    capacity: [100, 100, 0],
                },
                ClassifierKind::Static {
                    known: vec![],
                    flagged: vec![chatter_addr],
                },
            ))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert_eq!(*full.lock(), 0, "flagged class is fully shed");
        assert_eq!(report.shed_by_class[QueueClass::Flagged.index()], 50);
    }

    #[test]
    fn admission_enqueues_known_sources_with_service_delay() {
        let (mut sim, addr, full, _) = defended_sim(6, 5, 20);
        let chatter_addr = Addr(0x0a00_0002);
        DefensePlan::new()
            .with(Defense::admission(
                addr,
                ClassedQueueConfig::protective(1_000.0),
                ClassifierKind::Static {
                    known: vec![chatter_addr],
                    flagged: vec![],
                },
            ))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert_eq!(*full.lock(), 20, "known class admits everything");
        assert_eq!(report.defense_drops, 0);
    }

    #[test]
    fn empty_plan_is_a_scheduling_no_op() {
        let (mut sim, _, full, _) = defended_sim(8, 5, 10);
        DefensePlan::new().schedule(&mut sim).unwrap();
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert_eq!(*full.lock(), 10);
        assert_eq!(report.defense_drops, 0);
    }

    #[test]
    fn scale_out_fires_after_the_detection_delay() {
        let (mut sim, addr, full, _) = defended_sim(9, 5, 10);
        DefensePlan::new()
            .with(Defense::scale_out(addr, t(0), d(1), 4.0))
            .schedule(&mut sim)
            .unwrap();
        sim.run_until_idle();
        let report = sim.audit();
        report.assert_clean();
        assert_eq!(*full.lock(), 10);
        assert_eq!(report.scaleout_activations, 1);
    }
}
