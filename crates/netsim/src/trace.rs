//! Observation: pluggable sinks that see every datagram at its
//! destination's ingress, whether it is delivered or dropped.
//!
//! The paper's server-side analysis (§6) counts queries *offered to* the
//! authoritatives — including those the emulated DDoS then drops ("we
//! measure queries before they are dropped"). Sinks therefore observe
//! both outcomes, with [`Disposition`] saying which.

use std::sync::Arc;

use dike_telemetry::sync::Mutex;
use dike_wire::Message;

use crate::addr::Addr;
use crate::time::SimTime;

/// What happened to a datagram at the destination ingress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Handed to the destination node.
    Delivered,
    /// Dropped by ambient or attack loss.
    Dropped,
    /// The destination address has no node (blackholed).
    NoRoute,
    /// The payload failed to decode; counted and dropped at ingress.
    Malformed,
}

/// Receives every datagram event. Implementations aggregate in place;
/// storing raw events is possible ([`MemoryTrace`]) but expensive at full
/// experiment scale.
pub trait TraceSink: Send {
    /// One datagram reached `dst`'s ingress at `now`. `msg` is the payload
    /// decoded once at ingress; it is `None` exactly when `disposition` is
    /// [`Disposition::Malformed`].
    fn observe(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        msg: Option<&Message>,
        wire_len: usize,
        disposition: Disposition,
    );
}

/// A shared, thread-safe handle to a sink, so experiments can keep a
/// reference while the simulator drives it.
pub(crate) type SharedSink = Arc<Mutex<dyn TraceSink>>;

/// Wraps a concrete sink into the shared, type-erased handle that
/// [`Simulator::add_sink`](crate::Simulator::add_sink) takes, plus a
/// typed handle for reading results after the run.
pub fn shared<T: TraceSink + 'static>(sink: T) -> (Arc<Mutex<T>>, SharedSink) {
    let typed = Arc::new(Mutex::new(sink));
    let erased: SharedSink = typed.clone();
    (typed, erased)
}

/// One recorded datagram event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Arrival time at the ingress.
    pub at: SimTime,
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Decoded message (cloned); `None` for malformed payloads.
    pub msg: Option<Message>,
    /// Encoded size in octets.
    pub wire_len: usize,
    /// Delivered, dropped, unroutable, or malformed.
    pub disposition: Disposition,
}

/// A sink that stores every event — for tests and small scenarios only.
#[derive(Debug, Default)]
pub struct MemoryTrace {
    /// The recorded events, in arrival order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for MemoryTrace {
    fn observe(
        &mut self,
        now: SimTime,
        src: Addr,
        dst: Addr,
        msg: Option<&Message>,
        wire_len: usize,
        disposition: Disposition,
    ) {
        self.events.push(TraceEvent {
            at: now,
            src,
            dst,
            msg: msg.cloned(),
            wire_len,
            disposition,
        });
    }
}

/// A sink that just counts, cheaply, by disposition.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingTrace {
    /// Datagrams handed to nodes.
    pub delivered: u64,
    /// Datagrams dropped by loss.
    pub dropped: u64,
    /// Datagrams to addresses without nodes.
    pub no_route: u64,
    /// Datagrams whose payload failed to decode.
    pub malformed: u64,
    /// Total payload octets observed (all dispositions).
    pub octets: u64,
}

impl TraceSink for CountingTrace {
    fn observe(
        &mut self,
        _now: SimTime,
        _src: Addr,
        _dst: Addr,
        _msg: Option<&Message>,
        wire_len: usize,
        disposition: Disposition,
    ) {
        match disposition {
            Disposition::Delivered => self.delivered += 1,
            Disposition::Dropped => self.dropped += 1,
            Disposition::NoRoute => self.no_route += 1,
            Disposition::Malformed => self.malformed += 1,
        }
        self.octets += wire_len as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_wire::{Message, Name, RecordType};

    #[test]
    fn counting_trace_tallies_by_disposition() {
        let msg = Message::query(1, Name::parse("nl").unwrap(), RecordType::A);
        let mut c = CountingTrace::default();
        c.observe(
            SimTime::ZERO,
            Addr(1),
            Addr(2),
            Some(&msg),
            30,
            Disposition::Delivered,
        );
        c.observe(
            SimTime::ZERO,
            Addr(1),
            Addr(2),
            Some(&msg),
            30,
            Disposition::Dropped,
        );
        c.observe(
            SimTime::ZERO,
            Addr(1),
            Addr(3),
            Some(&msg),
            30,
            Disposition::NoRoute,
        );
        c.observe(
            SimTime::ZERO,
            Addr(1),
            Addr(3),
            None,
            30,
            Disposition::Malformed,
        );
        assert_eq!(
            (c.delivered, c.dropped, c.no_route, c.malformed),
            (1, 1, 1, 1)
        );
        assert_eq!(c.octets, 120);
    }

    #[test]
    fn shared_handle_reads_after_erasure() {
        let (typed, erased) = shared(CountingTrace::default());
        let msg = Message::query(1, Name::parse("nl").unwrap(), RecordType::A);
        erased.lock().observe(
            SimTime::ZERO,
            Addr(1),
            Addr(2),
            Some(&msg),
            10,
            Disposition::Delivered,
        );
        assert_eq!(typed.lock().delivered, 1);
    }
}
