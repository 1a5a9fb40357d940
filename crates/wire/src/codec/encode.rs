//! Message encoder with RFC 1035 §4.1.4 name compression.
//!
//! The encoder is built around [`EncodeBuffer`], a reusable scratch buffer
//! designed for the simulator's hot path: one `EncodeBuffer` per run amortizes
//! all encode-side allocation but the payload's own. Output payloads are
//! refcounted `Arc<[u8]>`s cut to size from the scratch buffer, so duplicating
//! a datagram (retransmits, fan-out) is a pointer bump, not a copy. The
//! name-compression table is a flat arena of registered suffixes scanned
//! linearly — messages carry a handful of names, so a linear probe beats
//! hashing every suffix key into a `HashMap`.

use std::sync::Arc;

use super::error::CodecError;
use crate::message::{Message, Question};
use crate::name::Name;
use crate::rdata::RData;
use crate::record::Record;

/// Offsets above this cannot be expressed in a 14-bit compression pointer.
const MAX_POINTER_TARGET: usize = 0x3fff;

/// Encodes a message into wire format.
///
/// One-shot convenience over [`EncodeBuffer`]; hot paths should hold an
/// `EncodeBuffer` and call [`EncodeBuffer::encode`] to reuse its storage.
pub fn encode(msg: &Message) -> Result<Vec<u8>, CodecError> {
    let mut enc = EncodeBuffer::new();
    enc.message_checked(msg)?;
    Ok(enc.buf)
}

/// The encoded size of `msg`, computed by encoding it. Exposed so traffic
/// accounting can size datagrams without holding onto the buffer.
pub fn encoded_len(msg: &Message) -> Result<usize, CodecError> {
    EncodeBuffer::new().encoded_len(msg)
}

/// A suffix registered for compression: `key_len` octets at `key_start` in
/// the arena (length-prefixed lowercase labels, i.e. wire form), first
/// written at `offset` in the message being encoded.
struct SuffixEntry {
    key_start: u32,
    key_len: u16,
    offset: u16,
}

/// Big-endian appends, as the wire wants them.
trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_slice(&mut self, v: &[u8]);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// Reusable encoder state: a scratch output buffer plus the per-message
/// name-compression table.
///
/// `encode` resets the compression table, serializes into the scratch
/// `Vec`, and copies the written bytes out as a refcounted `Arc<[u8]>` — one
/// allocation of exactly the payload's size per message; the scratch keeps
/// its capacity for the next one.
pub struct EncodeBuffer {
    buf: Vec<u8>,
    /// Wire-form bytes of every registered suffix, appended per name.
    arena: Vec<u8>,
    /// Registration-ordered suffix table; scanned linearly on lookup.
    entries: Vec<SuffixEntry>,
}

impl Default for EncodeBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl EncodeBuffer {
    /// A fresh buffer. One per run (or per thread) is the intended granularity.
    pub fn new() -> Self {
        EncodeBuffer {
            buf: Vec::with_capacity(4096),
            arena: Vec::with_capacity(256),
            entries: Vec::with_capacity(16),
        }
    }

    /// Encodes `msg`, returning the payload as a refcounted `Arc<[u8]>`.
    /// Byte-for-byte identical to [`encode`].
    pub fn encode(&mut self, msg: &Message) -> Result<Arc<[u8]>, CodecError> {
        self.message_checked(msg)?;
        Ok(Arc::from(&self.buf[..]))
    }

    /// The encoded size of `msg` without cutting a payload: encodes into
    /// the scratch buffer and reads its length. Allocation-free once the
    /// buffer is warm.
    pub fn encoded_len(&mut self, msg: &Message) -> Result<usize, CodecError> {
        self.message_checked(msg)?;
        Ok(self.buf.len())
    }

    fn message_checked(&mut self, msg: &Message) -> Result<(), CodecError> {
        self.buf.clear();
        self.arena.clear();
        self.entries.clear();
        self.message(msg)?;
        if self.buf.len() > u16::MAX as usize {
            return Err(CodecError::MessageTooLong(self.buf.len()));
        }
        Ok(())
    }

    fn message(&mut self, msg: &Message) -> Result<(), CodecError> {
        self.header(msg);
        for q in &msg.questions {
            self.question(q)?;
        }
        for r in &msg.answers {
            self.record(r)?;
        }
        for r in &msg.authorities {
            self.record(r)?;
        }
        for r in &msg.additionals {
            self.record(r)?;
        }
        Ok(())
    }

    fn header(&mut self, msg: &Message) {
        self.buf.put_u16(msg.id);
        let mut flags: u16 = 0;
        if msg.is_response {
            flags |= 1 << 15;
        }
        flags |= (msg.opcode.to_u8() as u16) << 11;
        if msg.authoritative {
            flags |= 1 << 10;
        }
        if msg.truncated {
            flags |= 1 << 9;
        }
        if msg.recursion_desired {
            flags |= 1 << 8;
        }
        if msg.recursion_available {
            flags |= 1 << 7;
        }
        if msg.authentic_data {
            flags |= 1 << 5;
        }
        if msg.checking_disabled {
            flags |= 1 << 4;
        }
        flags |= msg.rcode.to_u8() as u16;
        self.buf.put_u16(flags);
        self.buf.put_u16(msg.questions.len() as u16);
        self.buf.put_u16(msg.answers.len() as u16);
        self.buf.put_u16(msg.authorities.len() as u16);
        self.buf.put_u16(msg.additionals.len() as u16);
    }

    fn question(&mut self, q: &Question) -> Result<(), CodecError> {
        self.name(&q.name)?;
        self.buf.put_u16(q.qtype.to_u16());
        self.buf.put_u16(q.qclass.to_u16());
        Ok(())
    }

    fn record(&mut self, r: &Record) -> Result<(), CodecError> {
        self.name(&r.name)?;
        self.buf.put_u16(r.rdata.record_type().to_u16());
        self.buf.put_u16(r.class.to_u16());
        self.buf.put_u32(r.ttl);
        // Reserve RDLENGTH, encode RDATA, then patch the length in.
        let len_pos = self.buf.len();
        self.buf.put_u16(0);
        let start = self.buf.len();
        self.rdata(&r.rdata)?;
        let rdlen = self.buf.len() - start;
        if rdlen > u16::MAX as usize {
            return Err(CodecError::MessageTooLong(rdlen));
        }
        self.buf[len_pos..len_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
        Ok(())
    }

    fn rdata(&mut self, rdata: &RData) -> Result<(), CodecError> {
        match rdata {
            RData::A(a) => self.buf.put_slice(&a.octets()),
            RData::Aaaa(a) => self.buf.put_slice(&a.octets()),
            // Names inside RDATA are compressible for the types RFC 1035
            // defines as using compressed names (NS, CNAME, PTR, SOA, MX).
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => self.name(n)?,
            RData::Soa(soa) => {
                self.name(&soa.mname)?;
                self.name(&soa.rname)?;
                self.buf.put_u32(soa.serial);
                self.buf.put_u32(soa.refresh);
                self.buf.put_u32(soa.retry);
                self.buf.put_u32(soa.expire);
                self.buf.put_u32(soa.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                self.buf.put_u16(*preference);
                self.name(exchange)?;
            }
            RData::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(CodecError::CharStringTooLong(s.len()));
                    }
                    self.buf.put_u8(s.len() as u8);
                    self.buf.put_slice(s);
                }
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => {
                self.buf.put_u16(*priority);
                self.buf.put_u16(*weight);
                self.buf.put_u16(*port);
                // RFC 2782: the target is NOT compressed.
                self.name_uncompressed(target);
            }
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                key,
            } => {
                self.buf.put_u16(*flags);
                self.buf.put_u8(*protocol);
                self.buf.put_u8(*algorithm);
                self.buf.put_slice(key);
            }
            RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                self.buf.put_u16(*key_tag);
                self.buf.put_u8(*algorithm);
                self.buf.put_u8(*digest_type);
                self.buf.put_slice(digest);
            }
            RData::Opt(bytes) => self.buf.put_slice(bytes),
            RData::Unknown { data, .. } => self.buf.put_slice(data),
        }
        Ok(())
    }

    /// Writes `name` without compression (types whose RDATA names must
    /// not be compressed, per RFC 3597's reading of RFC 2782 et al.).
    /// The name's stored wire run is already the bytes to emit.
    fn name_uncompressed(&mut self, name: &Name) {
        self.buf.put_slice(name.as_wire_run());
        self.buf.put_u8(0);
    }

    /// Writes `name`, compressing against previously written suffixes: the
    /// longest already-seen suffix is replaced by a pointer, and every new
    /// suffix written here is registered for later reuse. Registration order
    /// and first-match-wins semantics replicate the original `HashMap`
    /// encoder exactly, so output bytes are unchanged. Suffix keys are
    /// tails of the name's stored wire run, so lookup is one `memcmp` per
    /// candidate entry.
    fn name(&mut self, name: &Name) -> Result<(), CodecError> {
        let run = name.as_wire_run();
        let mut sub = 0usize; // wire offset of the current suffix in the run
        let mut appended: Option<(usize, usize)> = None; // (arena start, sub at append)
        while sub < run.len() {
            let needle = &run[sub..];
            if let Some(off) = self.find_suffix(needle) {
                self.buf.put_u16(0xc000 | off as u16);
                return Ok(());
            }
            // Register this suffix at the current position (only if the
            // offset is still pointer-expressible). The run's remaining
            // bytes are appended to the arena once, on the first registered
            // suffix; shorter suffixes are sub-slices of the same stretch.
            let here = self.buf.len();
            if here <= MAX_POINTER_TARGET {
                let (arena_start, sub0) = *appended.get_or_insert_with(|| {
                    let start = self.arena.len();
                    self.arena.extend_from_slice(needle);
                    (start, sub)
                });
                self.entries.push(SuffixEntry {
                    key_start: (arena_start + (sub - sub0)) as u32,
                    key_len: needle.len() as u16,
                    offset: here as u16,
                });
            }
            let step = 1 + run[sub] as usize;
            self.buf.put_slice(&run[sub..sub + step]);
            sub += step;
        }
        self.buf.put_u8(0);
        Ok(())
    }

    /// Finds the registration offset of the suffix whose wire-run bytes
    /// equal `needle`, scanning entries in registration order so the first
    /// registration wins — the same tie-break the `HashMap` encoder had.
    fn find_suffix(&self, needle: &[u8]) -> Option<usize> {
        for e in &self.entries {
            let start = e.key_start as usize;
            if e.key_len as usize == needle.len()
                && &self.arena[start..start + needle.len()] == needle
            {
                return Some(e.offset as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Name, RecordType};

    #[test]
    fn header_layout_is_exact() {
        let m = Message::query(0xabcd, Name::root(), RecordType::A);
        let bytes = encode(&m).unwrap();
        assert_eq!(&bytes[0..2], &[0xab, 0xcd]);
        // RD bit set, everything else clear: flags = 0x0100.
        assert_eq!(&bytes[2..4], &[0x01, 0x00]);
        // QDCOUNT=1, others 0.
        assert_eq!(&bytes[4..12], &[0, 1, 0, 0, 0, 0, 0, 0]);
        // Root name is a single zero octet, then qtype/qclass.
        assert_eq!(&bytes[12..], &[0, 0, 1, 0, 1]);
    }

    #[test]
    fn second_occurrence_becomes_pointer() {
        let mut enc = EncodeBuffer::new();
        enc.buf.put_slice(&[0u8; 12]); // fake header so offsets are realistic
        let n = Name::parse("cachetest.nl").unwrap();
        enc.name(&n).unwrap();
        let first_len = enc.buf.len();
        enc.name(&n).unwrap();
        // The second write must be exactly one 2-octet pointer.
        assert_eq!(enc.buf.len(), first_len + 2);
        assert_eq!(enc.buf[first_len] & 0xc0, 0xc0);
    }

    #[test]
    fn partial_suffix_is_reused() {
        let mut enc = EncodeBuffer::new();
        enc.buf.put_slice(&[0u8; 12]);
        enc.name(&Name::parse("ns1.cachetest.nl").unwrap()).unwrap();
        let before = enc.buf.len();
        enc.name(&Name::parse("ns2.cachetest.nl").unwrap()).unwrap();
        // "ns2" label (4 octets) + pointer (2) = 6.
        assert_eq!(enc.buf.len(), before + 6);
    }

    #[test]
    fn reused_buffer_is_byte_identical_to_fresh() {
        use crate::{MessageBuilder, RData, Record};
        let q = Message::iterative_query(7, Name::parse("a.cachetest.nl").unwrap(), RecordType::NS);
        let m = MessageBuilder::respond_to(&q)
            .answer(Record::new(
                Name::parse("a.cachetest.nl").unwrap(),
                60,
                RData::Ns(Name::parse("ns1.cachetest.nl").unwrap()),
            ))
            .build();
        let mut pooled = EncodeBuffer::new();
        let one_shot = encode(&m).unwrap();
        // Several sequential encodes from the same pool must all match the
        // one-shot encoder bit for bit (compression state fully resets).
        for _ in 0..3 {
            assert_eq!(pooled.encode(&m).unwrap().as_ref(), &one_shot[..]);
        }
        assert_eq!(pooled.encoded_len(&m).unwrap(), one_shot.len());
        assert_eq!(
            pooled.encode(&q).unwrap().as_ref(),
            &encode(&q).unwrap()[..]
        );
    }
}
