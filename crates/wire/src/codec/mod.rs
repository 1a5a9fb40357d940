//! Binary wire codec (RFC 1035 §4.1) with name compression.
//!
//! [`encode`] serializes a [`Message`](crate::Message) to its
//! on-the-wire octets, compressing names against every name previously
//! written (§4.1.4). [`decode`] parses octets back into a
//! [`Message`](crate::Message), following compression pointers with
//! strict loop and bounds protection.
//!
//! The codec is lossless for every [`crate::RData`] variant, including
//! `Unknown`, which is what the property tests in this crate assert.

mod decode;
mod encode;
mod error;

pub use decode::decode;
pub use encode::{encode, encoded_len, EncodeBuffer};
pub use error::CodecError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, MessageBuilder, Name, RData, Rcode, Record, RecordType, SoaData};
    use std::net::{Ipv4Addr, Ipv6Addr};

    /// Encodes `msg` and decodes the result.
    fn round_trip(msg: &Message) -> Result<Message, CodecError> {
        decode(&encode(msg)?)
    }

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn round_trip_simple_query() {
        let m = Message::query(0x1414, name("1414.cachetest.nl"), RecordType::AAAA);
        assert_eq!(round_trip(&m).unwrap(), m);
    }

    #[test]
    fn round_trip_query_with_edns() {
        let m = Message::query(7, name("nl"), RecordType::DS).with_edns(1232);
        assert_eq!(round_trip(&m).unwrap(), m);
    }

    #[test]
    fn round_trip_full_response() {
        let q = Message::iterative_query(9, name("1414.cachetest.nl"), RecordType::AAAA);
        let m = MessageBuilder::respond_to(&q)
            .authoritative()
            .answer(Record::new(
                name("1414.cachetest.nl"),
                3600,
                RData::Aaaa("fd0f:3897:faf7:a375:1:586::3c".parse::<Ipv6Addr>().unwrap()),
            ))
            .authority(Record::new(
                name("cachetest.nl"),
                3600,
                RData::Ns(name("ns1.cachetest.nl")),
            ))
            .authority(Record::new(
                name("cachetest.nl"),
                3600,
                RData::Ns(name("ns2.cachetest.nl")),
            ))
            .additional(Record::new(
                name("ns1.cachetest.nl"),
                3600,
                RData::A(Ipv4Addr::new(198, 51, 100, 1)),
            ))
            .additional(Record::new(
                name("ns2.cachetest.nl"),
                3600,
                RData::A(Ipv4Addr::new(198, 51, 100, 2)),
            ))
            .build();
        assert_eq!(round_trip(&m).unwrap(), m);
    }

    #[test]
    fn round_trip_soa_negative_answer() {
        let q = Message::iterative_query(11, name("gone.cachetest.nl"), RecordType::A);
        let m = MessageBuilder::respond_to(&q)
            .authoritative()
            .rcode(Rcode::NxDomain)
            .authority(Record::new(
                name("cachetest.nl"),
                3600,
                RData::Soa(Box::new(SoaData {
                    mname: name("ns1.cachetest.nl"),
                    rname: name("hostmaster.cachetest.nl"),
                    serial: 2018052200,
                    refresh: 14400,
                    retry: 3600,
                    expire: 1209600,
                    minimum: 60,
                })),
            ))
            .build();
        assert_eq!(round_trip(&m).unwrap(), m);
    }

    #[test]
    fn round_trip_every_rdata_variant() {
        let q = Message::iterative_query(12, name("x.nl"), RecordType::A);
        let m = MessageBuilder::respond_to(&q)
            .answer(Record::new(
                name("x.nl"),
                1,
                RData::A(Ipv4Addr::new(1, 2, 3, 4)),
            ))
            .answer(Record::new(
                name("x.nl"),
                2,
                RData::Aaaa(Ipv6Addr::LOCALHOST),
            ))
            .answer(Record::new(name("x.nl"), 3, RData::Ns(name("ns.x.nl"))))
            .answer(Record::new(name("x.nl"), 4, RData::Cname(name("y.nl"))))
            .answer(Record::new(name("x.nl"), 5, RData::Ptr(name("p.nl"))))
            .answer(Record::new(
                name("x.nl"),
                6,
                RData::Mx {
                    preference: 10,
                    exchange: name("mx.x.nl"),
                },
            ))
            .answer(Record::new(
                name("x.nl"),
                7,
                RData::Txt(vec![b"hello".to_vec(), b"world".to_vec()]),
            ))
            .answer(Record::new(
                name("nl"),
                86400,
                RData::Ds {
                    key_tag: 34112,
                    algorithm: 8,
                    digest_type: 2,
                    digest: vec![0xde, 0xad, 0xbe, 0xef],
                },
            ))
            .answer(Record::new(
                name("_dns._udp.x.nl"),
                8,
                RData::Srv {
                    priority: 10,
                    weight: 60,
                    port: 853,
                    target: name("resolver.x.nl"),
                },
            ))
            .answer(Record::new(
                name("nl"),
                86400,
                RData::Dnskey {
                    flags: 257,
                    protocol: 3,
                    algorithm: 8,
                    key: vec![0x03, 0x01, 0x00, 0x01],
                },
            ))
            .answer(Record::new(
                name("x.nl"),
                9,
                RData::Unknown {
                    rtype: 4242,
                    data: vec![1, 2, 3, 4, 5],
                },
            ))
            .build();
        assert_eq!(round_trip(&m).unwrap(), m);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = Message::iterative_query(13, name("cachetest.nl"), RecordType::NS);
        let m = MessageBuilder::respond_to(&q)
            .authoritative()
            .answer(Record::new(
                name("cachetest.nl"),
                3600,
                RData::Ns(name("ns1.cachetest.nl")),
            ))
            .answer(Record::new(
                name("cachetest.nl"),
                3600,
                RData::Ns(name("ns2.cachetest.nl")),
            ))
            .build();
        let bytes = encode(&m).unwrap();
        // Uncompressed, "cachetest.nl" (14 octets) appears three times and
        // "nsX.cachetest.nl" twice more; compression must beat that easily.
        let uncompressed_estimate = 12 + 14 + 4 + 2 * (14 + 10 + 2 + 18);
        assert!(
            bytes.len() < uncompressed_estimate,
            "expected compression to reduce {uncompressed_estimate}, got {}",
            bytes.len()
        );
        assert_eq!(decode(&bytes).unwrap(), m);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let m = Message::query(1, name("cachetest.nl"), RecordType::A);
        let bytes = encode(&m).unwrap();
        for cut in 0..bytes.len() {
            // Every prefix must decode to an error or a (possibly different)
            // message — never panic.
            let _ = decode(&bytes[..cut]);
        }
    }

    #[test]
    fn pointer_loop_is_rejected() {
        // Hand-built message: header + one question whose name is a pointer
        // to itself at offset 12.
        let mut bytes = vec![0u8; 12];
        bytes[4] = 0; // qdcount low byte set below
        bytes[5] = 1;
        bytes.extend_from_slice(&[0xc0, 0x0c]); // pointer to offset 12 (itself)
        bytes.extend_from_slice(&[0, 1, 0, 1]); // qtype A, qclass IN
        assert!(matches!(
            decode(&bytes),
            Err(CodecError::CompressionLoop) | Err(CodecError::BadPointer(_))
        ));
    }

    #[test]
    fn forward_pointer_is_rejected() {
        // A pointer may only point backwards (RFC 1035 §4.1.4: "prior
        // occurrence").
        let mut bytes = vec![0u8; 12];
        bytes[5] = 1;
        bytes.extend_from_slice(&[0xc0, 0x20]); // pointer to offset 32 (beyond)
        bytes.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(decode(&bytes), Err(CodecError::BadPointer(_))));
    }

    #[test]
    fn encoded_len_matches_encode() {
        let q = Message::iterative_query(21, name("1414.cachetest.nl"), RecordType::AAAA);
        let m = MessageBuilder::respond_to(&q)
            .authoritative()
            .answer(Record::new(
                name("1414.cachetest.nl"),
                3600,
                RData::Aaaa(Ipv6Addr::LOCALHOST),
            ))
            .build();
        assert_eq!(encoded_len(&m).unwrap(), encode(&m).unwrap().len());
    }
}
