//! The node-facing service seam: the small trait surface server logic
//! is written against, so the same code serves simulated traffic (via
//! [`crate::Context`]) and real UDP sockets (via the `dike-serve`
//! crate's live context) without knowing which world it lives in.
//!
//! The seam is deliberately narrow (DESIGN.md §5.6):
//!
//! * [`Clock`] — "what time is it": virtual [`SimTime`] in the
//!   simulator, a monotonic wall-clock anchor mapped onto the same
//!   type in live mode. Node logic must take time from here, never
//!   from `std::time` directly, so simulated and live runs share one
//!   notion of now.
//! * [`Transport`] — "send these bytes": pooled encode plus datagram
//!   send, with the encode-once idiom ([`Transport::encode`] +
//!   [`Transport::send_wire`]) preserved so size-limit checks never
//!   re-encode.
//! * The ingress hook — [`crate::IngressGate`] (in [`crate::defense`])
//!   — owns the `IngressDefense` verdict accounting; both the
//!   simulator's delivery pipeline and a live socket loop run arriving
//!   queries through a gate and obey its [`crate::GateAction`].
//!
//! Two rules keep implementations honest: no hidden reliance on
//! simulated time (everything flows through [`Clock::now`]) and no
//! `World`-global state in node logic (everything a handler needs
//! arrives through its context argument).

use std::sync::Arc;

use dike_wire::Message;

use crate::addr::Addr;
use crate::node::Context;
use crate::time::SimTime;

/// A source of "now". The simulator hands out virtual time; live
/// contexts map a monotonic wall-clock onto the same [`SimTime`] type
/// (nanoseconds since the server started).
pub trait Clock {
    /// The current instant.
    fn now(&self) -> SimTime;
}

/// A datagram transport: pooled message encoding plus sends. The
/// simulator's implementation routes through the event heap; the live
/// implementation writes to a UDP socket. Either way, [`Transport::encode`]
/// followed by [`Transport::send_wire`] encodes exactly once, and the
/// payload is refcounted so fan-out sends share one buffer.
pub trait Transport {
    /// The local address replies are sent from (in the simulator this is
    /// the delivery address, so anycast answers come from the VIP).
    fn self_addr(&self) -> Addr;

    /// Encodes `msg` through the transport's pooled encoder without
    /// sending it — use with [`Transport::send_wire`] when the encoded
    /// form is needed anyway (size-limit checks, retransmit reuse).
    ///
    /// # Panics
    /// Panics if the message fails to encode — a node producing an
    /// unencodable message is a bug, not a runtime condition.
    fn encode(&mut self, msg: &Message) -> Arc<[u8]>;

    /// Sends an already-encoded payload to `dst`.
    fn send_wire(&mut self, dst: Addr, payload: Arc<[u8]>);

    /// Encodes and sends in one step.
    ///
    /// # Panics
    /// Panics if the message fails to encode (see [`Transport::encode`]).
    fn send(&mut self, dst: Addr, msg: &Message) {
        let payload = self.encode(msg);
        self.send_wire(dst, payload);
    }
}

impl Clock for Context<'_> {
    fn now(&self) -> SimTime {
        Context::now(self)
    }
}

impl Transport for Context<'_> {
    fn self_addr(&self) -> Addr {
        Context::self_addr(self)
    }

    fn encode(&mut self, msg: &Message) -> Arc<[u8]> {
        Context::encode(self, msg)
    }

    fn send_wire(&mut self, dst: Addr, payload: Arc<[u8]>) {
        Context::send_wire(self, dst, payload)
    }

    fn send(&mut self, dst: Addr, msg: &Message) {
        Context::send(self, dst, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A seam double: collects sends in memory. What `dike-serve` does
    /// with a socket, tests do with a Vec.
    struct Recorder {
        now: SimTime,
        local: Addr,
        enc: dike_wire::codec::EncodeBuffer,
        sent: Vec<(Addr, Arc<[u8]>)>,
    }

    impl Clock for Recorder {
        fn now(&self) -> SimTime {
            self.now
        }
    }

    impl Transport for Recorder {
        fn self_addr(&self) -> Addr {
            self.local
        }
        fn encode(&mut self, msg: &Message) -> Arc<[u8]> {
            self.enc.encode(msg).expect("encodable")
        }
        fn send_wire(&mut self, dst: Addr, payload: Arc<[u8]>) {
            self.sent.push((dst, payload));
        }
    }

    fn serve_one<C: Clock + Transport>(ctx: &mut C, src: Addr, msg: &Message) {
        // Generic service logic: the shape AuthServer::serve_datagram
        // uses — encode once, reuse the bytes for the send.
        assert!(ctx.now() >= SimTime::ZERO);
        let resp = Message::response_to(msg);
        let wire = ctx.encode(&resp);
        ctx.send_wire(src, wire);
    }

    #[test]
    fn seam_double_serves_like_a_context() {
        let q = Message::query(
            7,
            dike_wire::Name::parse("x.nl").unwrap(),
            dike_wire::RecordType::A,
        );
        let mut rec = Recorder {
            now: SimDuration::from_secs(1).after_zero(),
            local: Addr(0x7f00_0001),
            enc: dike_wire::codec::EncodeBuffer::new(),
            sent: Vec::new(),
        };
        serve_one(&mut rec, Addr(0x0a00_0009), &q);
        assert_eq!(rec.sent.len(), 1);
        assert_eq!(rec.sent[0].0, Addr(0x0a00_0009));
        let resp = dike_wire::codec::decode(&rec.sent[0].1).unwrap();
        assert_eq!(resp.id, 7);
        assert!(resp.is_response);
    }
}
