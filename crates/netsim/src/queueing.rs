//! Ingress queueing — the paper's named future work.
//!
//! §5.1: "DDoS attacks are also accompanied by queueing delay, since
//! buffers at and near the target are full. We do not model queueing
//! delay ... a study that adds queueing latency to the attack model is
//! interesting future work."
//!
//! [`ServiceQueue`] is that model: a single-server deterministic queue
//! (M/D/1-style virtual queue) in front of a node's ingress. Each
//! arriving datagram occupies the server for `1/rate`; arrivals finding
//! the queue longer than `capacity` are tail-dropped. Because the
//! simulator is event-driven, the queue is tracked *virtually* — one
//! `busy_until` instant per queue — with O(1) work per arrival.
//!
//! Attach queues per destination address via `World::set_ingress_queue`
//! (reached through [`crate::Simulator::world_mut`]), which puts one in
//! that address's [`crate::IngressGate`] behind any defense; attack traffic
//! is modeled by [`ServiceQueue::inject_background_load`], which
//! consumes a fraction of the service capacity exactly the way a
//! volumetric flood does.

use crate::time::{SimDuration, SimTime};

/// Configuration of one ingress queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// Service rate in datagrams per second.
    pub rate_pps: f64,
    /// Maximum queue length (datagrams waiting); arrivals beyond it are
    /// dropped.
    pub capacity: u32,
}

impl QueueConfig {
    /// A queue sized for a small authoritative: 10k q/s, 100 ms of
    /// buffer.
    pub fn small_authoritative() -> Self {
        QueueConfig {
            rate_pps: 10_000.0,
            capacity: 1_000,
        }
    }
}

/// The outcome of offering one datagram to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueOutcome {
    /// Accepted; deliver after this additional queueing delay.
    Enqueued(SimDuration),
    /// Tail-dropped: the buffer was full.
    Dropped,
}

/// A virtual single-server queue.
#[derive(Debug, Clone, Copy)]
pub struct ServiceQueue {
    config: QueueConfig,
    /// When the server frees up for work already accepted.
    busy_until: SimTime,
    /// Fraction of the service rate consumed by background (attack)
    /// traffic; effective rate = rate × (1 − load).
    background_load: f64,
    /// Cached effective per-datagram service time. Only the rate and the
    /// background load determine it, so it is recomputed on those three
    /// mutation paths (`new`, `inject_background_load`, `scale_capacity`)
    /// instead of rebuilding the same division on every offer and
    /// backlog probe.
    service_time: SimDuration,
    /// Statistics.
    accepted: u64,
    dropped: u64,
    peak_backlog: u32,
}

impl ServiceQueue {
    /// An empty queue.
    pub fn new(config: QueueConfig) -> Self {
        ServiceQueue {
            config,
            busy_until: SimTime::ZERO,
            background_load: 0.0,
            service_time: Self::effective_service_time(config.rate_pps, 0.0),
            accepted: 0,
            dropped: 0,
            peak_backlog: 0,
        }
    }

    /// Sets the fraction of capacity eaten by a volumetric flood
    /// (0 = none, 0.9 = only 10% of the rate serves real queries).
    pub fn inject_background_load(&mut self, load: f64) {
        self.background_load = load.clamp(0.0, 0.999);
        self.service_time =
            Self::effective_service_time(self.config.rate_pps, self.background_load);
    }

    fn effective_service_time(rate_pps: f64, background_load: f64) -> SimDuration {
        let effective = rate_pps * (1.0 - background_load);
        SimDuration::from_secs_f64(1.0 / effective.max(1.0))
    }

    /// The effective per-datagram service time.
    fn service_time(&self) -> SimDuration {
        self.service_time
    }

    /// Current backlog, in datagrams, at `now`.
    pub fn backlog(&self, now: SimTime) -> u32 {
        let waiting = self.busy_until.since(now);
        let per = self.service_time().as_secs_f64();
        if per <= 0.0 {
            0
        } else {
            (waiting.as_secs_f64() / per).floor() as u32
        }
    }

    /// Offers one datagram at `now`.
    pub fn offer(&mut self, now: SimTime) -> QueueOutcome {
        let backlog = self.backlog(now);
        if backlog >= self.config.capacity {
            self.dropped += 1;
            return QueueOutcome::Dropped;
        }
        self.peak_backlog = self.peak_backlog.max(backlog + 1);
        let start = self.busy_until.max(now);
        let done = start + self.service_time();
        self.busy_until = done;
        self.accepted += 1;
        QueueOutcome::Enqueued(done.since(now))
    }

    /// Multiplies the service rate in place — anycast scale-out adding
    /// replica capacity behind the same ingress point. Factors below 1
    /// are rejected (scale-out never removes capacity).
    pub fn scale_capacity(&mut self, factor: f64) {
        if factor.is_finite() && factor >= 1.0 {
            self.config.rate_pps *= factor;
            self.service_time =
                Self::effective_service_time(self.config.rate_pps, self.background_load);
        }
    }

    /// Carries `old`'s counters over into this queue, so the statistics
    /// of an address survive a replacement of its queue.
    pub(crate) fn keep_counts_of(&mut self, old: &ServiceQueue) {
        self.accepted = old.accepted;
        self.dropped = old.dropped;
        self.peak_backlog = old.peak_backlog;
    }

    /// Datagrams accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Datagrams tail-dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The deepest backlog (including the arrival being admitted) any
    /// accepted datagram has seen.
    pub fn peak_backlog(&self) -> u32 {
        self.peak_backlog
    }
}

/// Priority class of one arriving datagram, assigned by a source
/// classifier (see `dike-defense`). The discriminant indexes per-class
/// arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueClass {
    /// A source seen behaving like a resolver before the attack, or on a
    /// static allowlist.
    Known,
    /// Everyone else — new sources, including legitimate first-timers.
    Unknown,
    /// Explicitly flagged (suspected attack) sources.
    Flagged,
}

/// All classes, in priority order.
pub const QUEUE_CLASSES: [QueueClass; 3] =
    [QueueClass::Known, QueueClass::Unknown, QueueClass::Flagged];

impl QueueClass {
    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            QueueClass::Known => 0,
            QueueClass::Unknown => 1,
            QueueClass::Flagged => 2,
        }
    }

    /// The telemetry counter of queries shed from this class's queue.
    pub(crate) fn shed_metric(self) -> &'static str {
        match self {
            QueueClass::Known => "shed_known",
            QueueClass::Unknown => "shed_unknown",
            QueueClass::Flagged => "shed_flagged",
        }
    }

    /// The telemetry histogram of this class's admission queue delay.
    pub(crate) fn queue_delay_metric(self) -> &'static str {
        match self {
            QueueClass::Known => "defense_queue_delay_known",
            QueueClass::Unknown => "defense_queue_delay_unknown",
            QueueClass::Flagged => "defense_queue_delay_flagged",
        }
    }
}

/// Configuration of a weighted-class admission scheduler: one service
/// rate split across the three [`QueueClass`]es by weight, with a
/// per-class buffer. A class with weight 0 is shed outright.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassedQueueConfig {
    /// Total service rate in datagrams per second, shared by all classes.
    pub rate_pps: f64,
    /// Relative service weights for `[known, unknown, flagged]`; each
    /// class gets `rate_pps × weight / Σweights`.
    pub weights: [f64; 3],
    /// Per-class buffer capacity (datagrams waiting).
    pub capacity: [u32; 3],
}

impl ClassedQueueConfig {
    /// A protective default: known resolvers get most of the capacity,
    /// unknown sources a slice, flagged sources a trickle.
    pub fn protective(rate_pps: f64) -> Self {
        ClassedQueueConfig {
            rate_pps,
            weights: [8.0, 3.0, 1.0],
            capacity: [1_000, 200, 20],
        }
    }
}

/// A weighted-class admission scheduler: three virtual single-server
/// queues sharing one configured rate by weight. Arrivals carry a
/// [`QueueClass`]; a full class sheds (tail-drops) its own arrivals
/// without touching the others, so a flagged flood cannot displace
/// known-resolver traffic (Rizvi et al.'s layered-defense scheduling,
/// deterministic and O(1) per arrival like [`ServiceQueue`]).
#[derive(Debug, Clone, Copy)]
pub struct ClassedQueue {
    queues: [ServiceQueue; 3],
}

impl ClassedQueue {
    /// An empty scheduler. Zero-weight classes get a rate of 0 (their
    /// `ServiceQueue` floors the effective rate at 1/s with capacity 0,
    /// shedding everything).
    pub fn new(config: ClassedQueueConfig) -> Self {
        let total: f64 = config.weights.iter().copied().map(|w| w.max(0.0)).sum();
        let queues = core::array::from_fn(|i| {
            let share = if total > 0.0 {
                config.weights[i].max(0.0) / total
            } else {
                0.0
            };
            let mut q = QueueConfig {
                rate_pps: config.rate_pps * share,
                capacity: config.capacity[i],
            };
            if share == 0.0 {
                q.capacity = 0;
            }
            ServiceQueue::new(q)
        });
        ClassedQueue { queues }
    }

    /// Offers one datagram of the given class at `now`.
    pub fn offer(&mut self, now: SimTime, class: QueueClass) -> QueueOutcome {
        self.queues[class.index()].offer(now)
    }

    /// Multiplies every class's service rate — scale-out capacity.
    pub fn scale_capacity(&mut self, factor: f64) {
        for q in &mut self.queues {
            q.scale_capacity(factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimDuration::from_millis(ms).after_zero()
    }

    #[test]
    fn idle_queue_adds_one_service_time() {
        let mut q = ServiceQueue::new(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 10,
        });
        match q.offer(at(0)) {
            QueueOutcome::Enqueued(d) => assert_eq!(d.as_millis(), 1),
            QueueOutcome::Dropped => panic!("idle queue must accept"),
        }
    }

    #[test]
    fn backlog_grows_with_burst_arrivals() {
        let mut q = ServiceQueue::new(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 100,
        });
        let mut last = SimDuration::ZERO;
        for _ in 0..50 {
            match q.offer(at(0)) {
                QueueOutcome::Enqueued(d) => {
                    assert!(d >= last, "delays are monotone within a burst");
                    last = d;
                }
                QueueOutcome::Dropped => panic!("capacity not reached"),
            }
        }
        // 50th datagram waits ~50 service times.
        assert_eq!(last.as_millis(), 50);
        assert_eq!(q.backlog(at(0)), 50);
    }

    #[test]
    fn full_queue_tail_drops() {
        let mut q = ServiceQueue::new(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 5,
        });
        let mut drops = 0;
        for _ in 0..10 {
            if q.offer(at(0)) == QueueOutcome::Dropped {
                drops += 1;
            }
        }
        assert!(drops >= 4, "beyond capacity 5, arrivals drop: {drops}");
        assert_eq!(q.dropped(), drops);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut q = ServiceQueue::new(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 100,
        });
        for _ in 0..50 {
            let _ = q.offer(at(0));
        }
        assert_eq!(q.backlog(at(0)), 50);
        assert_eq!(q.backlog(at(25)), 25);
        assert_eq!(q.backlog(at(60)), 0);
        // A fresh arrival after the drain sees only its own service time.
        match q.offer(at(60)) {
            QueueOutcome::Enqueued(d) => assert_eq!(d.as_millis(), 1),
            QueueOutcome::Dropped => panic!("drained queue accepts"),
        }
    }

    #[test]
    fn background_load_slows_service() {
        let mut q = ServiceQueue::new(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 1_000,
        });
        q.inject_background_load(0.9);
        match q.offer(at(0)) {
            // Effective rate 100/s → 10 ms per datagram.
            QueueOutcome::Enqueued(d) => assert_eq!(d.as_millis(), 10),
            QueueOutcome::Dropped => panic!("accepts"),
        }
    }

    #[test]
    fn peak_backlog_tracks_the_deepest_accepted_arrival() {
        let mut q = ServiceQueue::new(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 10,
        });
        for _ in 0..20 {
            let _ = q.offer(at(0));
        }
        // 10 accepted (depths 1..=10), the rest tail-dropped.
        assert_eq!(q.peak_backlog(), 10);
        assert_eq!(q.accepted(), 10);
        assert_eq!(q.dropped(), 10);
        // Draining never lowers the recorded peak.
        assert_eq!(q.backlog(at(1_000)), 0);
        assert_eq!(q.peak_backlog(), 10);
    }

    #[test]
    fn scale_capacity_speeds_service_and_rejects_shrinkage() {
        let mut q = ServiceQueue::new(QueueConfig {
            rate_pps: 1_000.0,
            capacity: 10,
        });
        q.scale_capacity(0.5); // ignored
        q.scale_capacity(10.0);
        match q.offer(at(0)) {
            // 10k/s → 0.1 ms per datagram.
            QueueOutcome::Enqueued(d) => assert_eq!(d, SimDuration::from_micros(100)),
            QueueOutcome::Dropped => panic!("accepts"),
        }
    }

    #[test]
    fn classed_queue_isolates_a_flagged_flood() {
        let mut q = ClassedQueue::new(ClassedQueueConfig {
            rate_pps: 1_200.0,
            weights: [8.0, 3.0, 1.0],
            capacity: [100, 50, 5],
        });
        // Saturate the flagged class far beyond its buffer.
        let mut flagged_drops = 0;
        for _ in 0..100 {
            if q.offer(at(0), QueueClass::Flagged) == QueueOutcome::Dropped {
                flagged_drops += 1;
            }
        }
        assert!(flagged_drops > 90, "flagged class sheds: {flagged_drops}");
        // Known-resolver traffic is untouched by the flood: an arrival
        // sees only its own class's (empty) queue.
        match q.offer(at(0), QueueClass::Known) {
            QueueOutcome::Enqueued(d) => {
                // Known share = 1200 × 8/12 = 800/s → 1.25 ms.
                assert_eq!(d, SimDuration::from_micros(1_250));
            }
            QueueOutcome::Dropped => panic!("known class must accept"),
        }
        assert_eq!(q.queues[QueueClass::Known.index()].accepted(), 1);
        assert_eq!(
            q.queues[QueueClass::Flagged.index()].dropped(),
            flagged_drops
        );
    }

    #[test]
    fn zero_weight_class_sheds_everything() {
        let mut q = ClassedQueue::new(ClassedQueueConfig {
            rate_pps: 1_000.0,
            weights: [1.0, 1.0, 0.0],
            capacity: [10, 10, 10],
        });
        assert_eq!(q.offer(at(0), QueueClass::Flagged), QueueOutcome::Dropped);
        assert!(matches!(
            q.offer(at(0), QueueClass::Known),
            QueueOutcome::Enqueued(_)
        ));
    }
}
