//! Datagrams: what moves across links.

use std::sync::Arc;

use dike_wire::Message;

use crate::addr::Addr;

/// A UDP-style datagram carrying one DNS message.
///
/// The payload is stored in *wire form*: the sender's message is encoded at
/// send time and decoded at delivery, so nothing a node observes can bypass
/// the codec ("codec in the loop", DESIGN.md §5.2).
///
/// The payload is refcounted, cut to size by the world's encoder, so
/// cloning a datagram (retransmits, duplicate delivery) shares the
/// underlying buffer instead of copying it.
#[derive(Debug, Clone)]
pub(crate) struct Datagram {
    /// Source address.
    pub(crate) src: Addr,
    /// Destination address.
    pub(crate) dst: Addr,
    /// Encoded DNS payload.
    pub(crate) payload: Arc<[u8]>,
}

impl Datagram {
    /// Size of the DNS payload in octets (traffic accounting uses this;
    /// the simulator does not model IP/UDP header overhead).
    pub(crate) fn wire_len(&self) -> usize {
        self.payload.len()
    }

    /// Decodes the payload back into a [`Message`].
    pub(crate) fn message(&self) -> Result<Message, dike_wire::codec::CodecError> {
        dike_wire::codec::decode(&self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_wire::{codec, Message, Name, RecordType};

    #[test]
    fn datagram_round_trips_message() {
        let msg = Message::query(9, Name::parse("cachetest.nl").unwrap(), RecordType::AAAA);
        let d = Datagram {
            src: Addr(1),
            dst: Addr(2),
            payload: codec::encode(&msg).unwrap().into(),
        };
        assert_eq!(d.message().unwrap(), msg);
        assert_eq!(d.wire_len(), d.payload.len());
    }

    #[test]
    fn clone_shares_payload_storage() {
        let msg = Message::query(1, Name::parse("x.nl").unwrap(), RecordType::A);
        let d = Datagram {
            src: Addr(1),
            dst: Addr(2),
            payload: codec::encode(&msg).unwrap().into(),
        };
        let d2 = d.clone();
        assert_eq!(d.payload, d2.payload);
    }
}
