#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-wire
//!
//! DNS data model and RFC 1035 wire codec.
//!
//! This crate implements the subset of the DNS protocol exercised by the
//! *When the Dike Breaks* experiments, from scratch:
//!
//! * [`Name`] — domain names with case-insensitive comparison, label
//!   arithmetic, and the RFC 1035 length limits.
//! * [`RecordType`], [`RecordClass`], [`Rcode`], [`Opcode`] — protocol
//!   enumerations with lossless `u16` round-trips.
//! * [`RData`] — typed record data (A, AAAA, NS, CNAME, SOA, TXT, DS, MX,
//!   PTR, OPT, plus an opaque escape hatch).
//! * [`Record`], [`Question`], [`Message`] — resource records and full
//!   messages with builder-style constructors for queries, answers,
//!   referrals and error responses.
//! * [`codec`] — binary encode/decode with RFC 1035 §4.1.4 name
//!   compression, loop-safe decompression, and EDNS0 OPT handling.
//!
//! Every datagram the simulator moves is serialized through this codec, so
//! message semantics and sizes match what real resolvers exchange.
//!
//! ```
//! use dike_wire::{Message, Name, RecordType, codec};
//!
//! let q = Message::query(0x1414, Name::parse("1414.cachetest.nl").unwrap(), RecordType::AAAA);
//! let bytes = codec::encode(&q).unwrap();
//! let back = codec::decode(&bytes).unwrap();
//! assert_eq!(q, back);
//! ```

pub mod codec;
pub mod cookie;
mod message;
mod name;
mod rdata;
mod record;
mod types;

pub use cookie::Cookie;
pub use message::{Message, MessageBuilder, Question};
pub use name::{Name, NameError};
pub use rdata::{RData, SoaData};
pub use record::Record;
pub use types::{Opcode, Rcode, RecordClass, RecordType};

/// The conventional maximum payload of a plain (non-EDNS0) DNS-over-UDP
/// message, per RFC 1035 §2.3.4.
pub const MAX_UDP_PAYLOAD: usize = 512;

/// The EDNS0 payload size the simulator's resolvers advertise by default.
pub const EDNS_UDP_PAYLOAD: u16 = 1232;
