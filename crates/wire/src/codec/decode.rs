//! Message decoder with strict bounds and pointer-loop protection.

use std::net::{Ipv4Addr, Ipv6Addr};

use super::error::CodecError;
use crate::message::{Message, Question};
use crate::name::{Name, NameBuilder};
use crate::rdata::{RData, SoaData};
use crate::record::Record;
use crate::types::{Opcode, Rcode, RecordClass, RecordType};

/// Upper bound on pointer hops while decoding one name. A legitimate name
/// has at most 127 labels; anything needing more hops is hostile input.
const MAX_POINTER_HOPS: usize = 128;

/// Decodes a wire-format message.
pub fn decode(bytes: &[u8]) -> Result<Message, CodecError> {
    let mut dec = Decoder { bytes, pos: 0 };
    dec.message()
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn message(&mut self) -> Result<Message, CodecError> {
        let id = self.u16()?;
        let flags = self.u16()?;
        let qdcount = self.u16()?;
        let ancount = self.u16()?;
        let nscount = self.u16()?;
        let arcount = self.u16()?;

        let mut msg = Message {
            id,
            is_response: flags & (1 << 15) != 0,
            opcode: Opcode::from_u8(((flags >> 11) & 0x0f) as u8),
            authoritative: flags & (1 << 10) != 0,
            truncated: flags & (1 << 9) != 0,
            recursion_desired: flags & (1 << 8) != 0,
            recursion_available: flags & (1 << 7) != 0,
            authentic_data: flags & (1 << 5) != 0,
            checking_disabled: flags & (1 << 4) != 0,
            rcode: Rcode::from_u8((flags & 0x0f) as u8),
            questions: Vec::with_capacity(qdcount as usize),
            answers: Vec::with_capacity(ancount.min(64) as usize),
            authorities: Vec::with_capacity(nscount.min(64) as usize),
            additionals: Vec::with_capacity(arcount.min(64) as usize),
        };

        for _ in 0..qdcount {
            msg.questions.push(self.question()?);
        }
        for _ in 0..ancount {
            msg.answers.push(self.record()?);
        }
        for _ in 0..nscount {
            msg.authorities.push(self.record()?);
        }
        for _ in 0..arcount {
            msg.additionals.push(self.record()?);
        }
        Ok(msg)
    }

    fn question(&mut self) -> Result<Question, CodecError> {
        let name = self.name()?;
        let qtype = RecordType::from_u16(self.u16()?);
        let qclass = RecordClass::from_u16(self.u16()?);
        Ok(Question {
            name,
            qtype,
            qclass,
        })
    }

    fn record(&mut self) -> Result<Record, CodecError> {
        let name = self.name()?;
        let rtype = RecordType::from_u16(self.u16()?);
        let class = RecordClass::from_u16(self.u16()?);
        let ttl = self.u32()?;
        let rdlen = self.u16()? as usize;
        let rdata_end = self
            .pos
            .checked_add(rdlen)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(CodecError::Truncated)?;
        let rdata = self.rdata(rtype, rdlen)?;
        if self.pos != rdata_end {
            return Err(CodecError::RdataLength {
                declared: rdlen,
                consumed: rdlen + self.pos - rdata_end,
            });
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }

    fn rdata(&mut self, rtype: RecordType, rdlen: usize) -> Result<RData, CodecError> {
        match rtype {
            RecordType::A => {
                let o = self.take(4)?;
                Ok(RData::A(Ipv4Addr::new(o[0], o[1], o[2], o[3])))
            }
            RecordType::AAAA => {
                let o = self.take(16)?;
                let mut oct = [0u8; 16];
                oct.copy_from_slice(o);
                Ok(RData::Aaaa(Ipv6Addr::from(oct)))
            }
            RecordType::NS => Ok(RData::Ns(self.name()?)),
            RecordType::CNAME => Ok(RData::Cname(self.name()?)),
            RecordType::PTR => Ok(RData::Ptr(self.name()?)),
            RecordType::SOA => Ok(RData::Soa(Box::new(SoaData {
                mname: self.name()?,
                rname: self.name()?,
                serial: self.u32()?,
                refresh: self.u32()?,
                retry: self.u32()?,
                expire: self.u32()?,
                minimum: self.u32()?,
            }))),
            RecordType::MX => Ok(RData::Mx {
                preference: self.u16()?,
                exchange: self.name()?,
            }),
            RecordType::TXT => {
                let end = self.pos + rdlen;
                let mut strings = Vec::new();
                while self.pos < end {
                    let len = self.u8()? as usize;
                    strings.push(self.take(len)?.to_vec());
                }
                Ok(RData::Txt(strings))
            }
            RecordType::SRV => Ok(RData::Srv {
                priority: self.u16()?,
                weight: self.u16()?,
                port: self.u16()?,
                target: self.name()?,
            }),
            RecordType::DNSKEY => {
                if rdlen < 4 {
                    return Err(CodecError::Truncated);
                }
                let flags = self.u16()?;
                let protocol = self.u8()?;
                let algorithm = self.u8()?;
                let key = self.take(rdlen - 4)?.to_vec();
                Ok(RData::Dnskey {
                    flags,
                    protocol,
                    algorithm,
                    key,
                })
            }
            RecordType::DS => {
                if rdlen < 4 {
                    return Err(CodecError::Truncated);
                }
                let key_tag = self.u16()?;
                let algorithm = self.u8()?;
                let digest_type = self.u8()?;
                let digest = self.take(rdlen - 4)?.to_vec();
                Ok(RData::Ds {
                    key_tag,
                    algorithm,
                    digest_type,
                    digest,
                })
            }
            RecordType::OPT => Ok(RData::Opt(self.take(rdlen)?.to_vec())),
            other => Ok(RData::Unknown {
                rtype: other.to_u16(),
                data: self.take(rdlen)?.to_vec(),
            }),
        }
    }

    /// Decodes a possibly-compressed name starting at the current cursor.
    /// The cursor always advances past the name's in-place representation,
    /// regardless of how many pointers were followed.
    fn name(&mut self) -> Result<Name, CodecError> {
        let mut name = NameBuilder::new();
        let mut cursor = self.pos;
        // Where the in-place name ends; set when the first pointer is met.
        let mut resume: Option<usize> = None;
        let mut hops = 0usize;

        loop {
            let len = *self.bytes.get(cursor).ok_or(CodecError::Truncated)? as usize;
            match len {
                0 => {
                    cursor += 1;
                    break;
                }
                l if l & 0xc0 == 0xc0 => {
                    let second = *self.bytes.get(cursor + 1).ok_or(CodecError::Truncated)? as usize;
                    let target = ((l & 0x3f) << 8) | second;
                    // RFC 1035 pointers reference a *prior* occurrence.
                    if target >= cursor {
                        return Err(CodecError::BadPointer(target));
                    }
                    if resume.is_none() {
                        resume = Some(cursor + 2);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(CodecError::CompressionLoop);
                    }
                    cursor = target;
                }
                l if l & 0xc0 != 0 => {
                    // 0x40/0x80 prefixes are reserved (RFC 1035 §4.1.4).
                    return Err(CodecError::BadPointer(cursor));
                }
                l => {
                    let start = cursor + 1;
                    let end = start + l;
                    let bytes = self.bytes.get(start..end).ok_or(CodecError::Truncated)?;
                    name.push_label(bytes)?;
                    cursor = end;
                }
            }
        }

        self.pos = resume.unwrap_or(cursor);
        Ok(name.finish())
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CodecError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_hand_built_query() {
        // Query for "nl" A IN, id 0x0102, RD set.
        let bytes = [
            0x01, 0x02, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0, // header
            2, b'n', b'l', 0, // name "nl"
            0, 1, 0, 1, // A IN
        ];
        let m = decode(&bytes).unwrap();
        assert_eq!(m.id, 0x0102);
        assert!(m.recursion_desired);
        assert!(!m.is_response);
        let q = m.question().unwrap();
        assert_eq!(q.name.to_string(), "nl");
        assert_eq!(q.qtype, RecordType::A);
    }

    #[test]
    fn decode_compressed_answer() {
        // Response with the answer name compressed to the question name.
        let bytes = [
            0x00, 0x01, 0x84, 0x00, 0, 1, 0, 1, 0, 0, 0, 0, // header: QR+AA
            2, b'n', b'l', 0, 0, 1, 0, 1, // question "nl" A IN at offset 12
            0xc0, 12, // answer name: pointer to offset 12
            0, 1, 0, 1, // A IN
            0, 0, 0, 60, // TTL 60
            0, 4, 192, 0, 2, 1, // RDLENGTH 4, 192.0.2.1
        ];
        let m = decode(&bytes).unwrap();
        assert!(m.is_response && m.authoritative);
        assert_eq!(m.answers.len(), 1);
        assert_eq!(m.answers[0].name.to_string(), "nl");
        assert_eq!(m.answers[0].ttl, 60);
        assert_eq!(m.answers[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
    }

    #[test]
    fn rdlen_mismatch_is_rejected() {
        // NS record whose RDLENGTH claims 20 octets but the name is 6.
        let bytes = [
            0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0, // header, 1 answer
            2, b'n', b'l', 0, // owner "nl"
            0, 2, 0, 1, // NS IN
            0, 0, 0, 60, // TTL
            0, 20, // RDLENGTH 20 (wrong)
            2, b'n', b's', 0, // actually 4+... hmm name "ns" = 4 octets
        ];
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn reserved_label_prefix_rejected() {
        let bytes = [
            0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, // header, 1 question
            0x40, 0, // reserved 0b01 prefix
            0, 1, 0, 1,
        ];
        assert!(matches!(decode(&bytes), Err(CodecError::BadPointer(_))));
    }

    #[test]
    fn empty_input_truncated() {
        assert_eq!(decode(&[]), Err(CodecError::Truncated));
    }
}
