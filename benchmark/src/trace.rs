//! The traced pass's instruments: in-memory spans around the harness's
//! calls into each layer, and a sampling [`TraceSink`] that captures the
//! workload's own traffic for replay.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (name, start, end, parent; one pass id per workload pass), kept in
//! memory and written as JSON lines when the pass ends. A layer's self
//! time is its span minus what its children cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use dike_netsim::trace::{Disposition, TraceSink};
use dike_netsim::{Addr, SimTime};
use dike_wire::Message;

use crate::gen::SplitMix64;

/// A recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's epoch to the start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch to the end.
    pub end_ns: u64,
    /// Operations the span covered (events, messages, records).
    pub count: u64,
}

impl Span {
    /// Seconds the span lasted.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Nanoseconds per covered operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.end_ns - self.start_ns) as f64 / self.count as f64
        }
    }
}

/// Collects the spans of one workload pass.
#[derive(Debug)]
pub struct Tracer {
    pass: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose spans carry `pass` as their shared identifier.
    pub fn new(pass: String) -> Self {
        Tracer {
            pass,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` under a span; `f` returns its result and the number of
    /// operations it covered. Returns the result and the span's index
    /// (the `parent` of any child span).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer, usize) -> (R, u64),
    ) -> (R, usize) {
        let id = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        let (result, count) = f(self, id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.count = count;
        (result, id)
    }

    /// The span at `id`.
    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"pass\": \"{}\", \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                self.pass, s.name, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }

    /// Writes the spans to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

/// Where a sampled datagram was headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A query arriving at one of the two measured authoritatives.
    NsQuery,
    /// A query arriving at the root or TLD server.
    HierarchyQuery,
    /// A query arriving anywhere else (stub → recursive, forwarder →
    /// upstream).
    ResolverQuery,
    /// A response on its way back.
    Response,
}

/// One sampled datagram.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Destination role.
    pub role: Role,
    /// Arrival time.
    pub at: SimTime,
    /// Sender.
    pub src: Addr,
    /// The decoded message.
    pub msg: Message,
}

/// A reservoir of at most `capacity` datagrams out of everything the
/// simulator offers its sinks (Algorithm R, seeded, so the sample is a
/// function of the run).
pub struct SampleSink {
    ns: [Addr; 2],
    hierarchy: [Addr; 2],
    capacity: usize,
    rng: SplitMix64,
    /// Datagrams observed (sampled or not).
    pub seen: u64,
    /// The reservoir.
    pub samples: Vec<Sample>,
}

/// The traced pass keeps at most this many messages.
pub const SAMPLE_CAPACITY: usize = 200_000;

impl SampleSink {
    /// A sink that tells authoritative ingress apart by address.
    pub fn new(ns: [Addr; 2], hierarchy: [Addr; 2], capacity: usize, seed: u64) -> Self {
        SampleSink {
            ns,
            hierarchy,
            capacity,
            rng: SplitMix64::new(seed ^ 0x7ace),
            seen: 0,
            samples: Vec::with_capacity(capacity.min(1 << 16)),
        }
    }

    fn role(&self, dst: Addr, msg: &Message) -> Role {
        if msg.is_response {
            Role::Response
        } else if self.ns.contains(&dst) {
            Role::NsQuery
        } else if self.hierarchy.contains(&dst) {
            Role::HierarchyQuery
        } else {
            Role::ResolverQuery
        }
    }
}

impl TraceSink for SampleSink {
    fn observe(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        msg: Option<&Message>,
        _wire_len: usize,
        _disposition: Disposition,
    ) {
        let Some(msg) = msg else { return };
        self.seen += 1;
        let slot = if self.samples.len() < self.capacity {
            self.samples.len()
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j >= self.capacity {
                return;
            }
            j
        };
        let sample = Sample {
            role: self.role(dst, msg),
            at: now,
            src,
            msg: msg.clone(),
        };
        if slot == self.samples.len() {
            self.samples.push(sample);
        } else {
            self.samples[slot] = sample;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_wire::{Name, RecordType};

    #[test]
    fn spans_nest_and_serialize_one_per_line() {
        let mut t = Tracer::new("unit-1".to_owned());
        let ((), outer) = t.span("outer.op", None, |t, me| {
            t.span("inner.op", Some(me), |_, _| ((), 3));
            ((), 1)
        });
        assert_eq!(t.get(outer).name, "outer.op");
        let inner = t.find("inner.op").expect("recorded");
        assert_eq!(inner.parent, Some(outer));
        assert_eq!(inner.count, 3);
        assert!(t.get(outer).start_ns <= inner.start_ns && inner.end_ns <= t.get(outer).end_ns);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"pass\": \"unit-1\", \"id\": 0, \"parent\": null"));
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\": 0, \"name\": \"inner.op\""));
    }

    #[test]
    fn reservoir_is_bounded_seeded_and_bucketed() {
        let ns = [Addr(3), Addr(4)];
        let run = |seed| {
            let mut sink = SampleSink::new(ns, [Addr(1), Addr(2)], 50, seed);
            for i in 0..1000u32 {
                let q =
                    Message::iterative_query(i as u16, Name::parse("x.nl").unwrap(), RecordType::A);
                let dst = Addr(1 + i % 6);
                sink.observe(
                    SimTime::ZERO,
                    Addr(99),
                    dst,
                    Some(&q),
                    30,
                    Disposition::Delivered,
                );
            }
            sink
        };
        let a = run(1);
        assert_eq!(a.seen, 1000);
        assert_eq!(a.samples.len(), 50);
        let ids = |s: &SampleSink| s.samples.iter().map(|x| x.msg.id).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&run(1)));
        assert_ne!(ids(&a), ids(&run(2)));
        assert!(a.samples.iter().any(|s| s.role == Role::NsQuery));
        assert!(a.samples.iter().any(|s| s.role == Role::HierarchyQuery));
        assert!(a.samples.iter().any(|s| s.role == Role::ResolverQuery));
        // Late arrivals do enter the reservoir.
        assert!(a.samples.iter().any(|s| s.msg.id >= 500));
    }
}
