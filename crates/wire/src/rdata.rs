//! Typed resource record data.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::name::Name;
use crate::types::RecordType;

/// SOA record data (RFC 1035 §3.3.13). The experiments use the serial to
/// tag zone rotations and `minimum` for negative-cache TTLs (RFC 2308).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaData {
    /// Primary name server.
    pub mname: Name,
    /// Responsible mailbox, encoded as a name.
    pub rname: Name,
    /// Zone serial number; incremented on every zone reload.
    pub serial: u32,
    /// Secondary refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expiry, seconds.
    pub expire: u32,
    /// Minimum / negative-cache TTL (RFC 2308), seconds.
    pub minimum: u32,
}

/// Resource record data. Each variant stores decoded, typed content;
/// [`RData::Unknown`] carries anything else opaquely so unknown records
/// survive a decode/encode round trip.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address. The controlled experiments encode
    /// `prefix:serial:probeid:ttl` in this field (paper §3.2).
    Aaaa(Ipv6Addr),
    /// Name server.
    Ns(Name),
    /// Canonical name.
    Cname(Name),
    /// Start of authority, boxed: its two names and five counters would
    /// otherwise set the size of every `RData`, and only one record of a
    /// negative answer is an SOA.
    Soa(Box<SoaData>),
    /// Pointer.
    Ptr(Name),
    /// Mail exchange.
    Mx {
        /// Preference; lower is preferred.
        preference: u16,
        /// Exchange host.
        exchange: Name,
    },
    /// Text record: one or more character strings of up to 255 octets.
    Txt(Vec<Vec<u8>>),
    /// Service locator (RFC 2782): `_service._proto.name`.
    Srv {
        /// Priority; lower is tried first.
        priority: u16,
        /// Weight among same-priority targets.
        weight: u16,
        /// Service port.
        port: u16,
        /// Target host.
        target: Name,
    },
    /// DNSSEC public key (RFC 4034 §2), carried opaquely.
    Dnskey {
        /// Flags field (256 = ZSK, 257 = KSK).
        flags: u16,
        /// Protocol, always 3.
        protocol: u8,
        /// DNSSEC algorithm number.
        algorithm: u8,
        /// The public key bytes.
        key: Vec<u8>,
    },
    /// Delegation signer digest (RFC 4034 §5).
    Ds {
        /// Key tag of the referenced DNSKEY.
        key_tag: u16,
        /// DNSSEC algorithm number.
        algorithm: u8,
        /// Digest algorithm number.
        digest_type: u8,
        /// The digest itself.
        digest: Vec<u8>,
    },
    /// EDNS0 OPT pseudo-record payload: raw option bytes.
    Opt(Vec<u8>),
    /// Any other record type, carried as raw octets.
    Unknown {
        /// The record type this data belongs to.
        rtype: u16,
        /// Raw RDATA octets.
        data: Vec<u8>,
    },
}

impl RData {
    /// The [`RecordType`] this data corresponds to.
    pub(crate) fn record_type(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Aaaa(_) => RecordType::AAAA,
            RData::Ns(_) => RecordType::NS,
            RData::Cname(_) => RecordType::CNAME,
            RData::Soa(_) => RecordType::SOA,
            RData::Ptr(_) => RecordType::PTR,
            RData::Mx { .. } => RecordType::MX,
            RData::Txt(_) => RecordType::TXT,
            RData::Srv { .. } => RecordType::SRV,
            RData::Dnskey { .. } => RecordType::DNSKEY,
            RData::Ds { .. } => RecordType::DS,
            RData::Opt(_) => RecordType::OPT,
            RData::Unknown { rtype, .. } => RecordType::from_u16(*rtype),
        }
    }

    /// For NS/CNAME/PTR/MX data, the name the record points at. Resolvers
    /// chase these to find addresses ("glue chasing").
    pub fn target_name(&self) -> Option<&Name> {
        match self {
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => Some(n),
            RData::Mx { exchange, .. } => Some(exchange),
            RData::Srv { target, .. } => Some(target),
            _ => None,
        }
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Ptr(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(strings) => {
                for (i, s) in strings.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "\"{}\"", String::from_utf8_lossy(s))?;
                }
                Ok(())
            }
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => write!(f, "{priority} {weight} {port} {target}"),
            RData::Dnskey {
                flags,
                protocol,
                algorithm,
                key,
            } => {
                write!(f, "{flags} {protocol} {algorithm} ")?;
                for b in key {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
            RData::Ds {
                key_tag,
                algorithm,
                digest_type,
                digest,
            } => {
                write!(f, "{key_tag} {algorithm} {digest_type} ")?;
                for b in digest {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
            RData::Opt(bytes) => write!(f, "OPT({} octets)", bytes.len()),
            RData::Unknown { rtype, data } => {
                write!(f, "\\# {} ", data.len())?;
                for b in data {
                    write!(f, "{b:02x}")?;
                }
                write!(f, " ; TYPE{rtype}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_of_each_variant() {
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).record_type(), RecordType::A);
        assert_eq!(
            RData::Aaaa(Ipv6Addr::LOCALHOST).record_type(),
            RecordType::AAAA
        );
        assert_eq!(
            RData::Ns(Name::parse("ns1.dns.nl").unwrap()).record_type(),
            RecordType::NS
        );
        assert_eq!(
            RData::Unknown {
                rtype: 999,
                data: vec![]
            }
            .record_type(),
            RecordType::Unknown(999)
        );
    }

    #[test]
    fn target_name_for_pointer_types() {
        let ns = Name::parse("ns1.cachetest.nl").unwrap();
        assert_eq!(RData::Ns(ns.clone()).target_name(), Some(&ns));
        assert_eq!(RData::Cname(ns.clone()).target_name(), Some(&ns));
        assert_eq!(
            RData::Mx {
                preference: 10,
                exchange: ns.clone()
            }
            .target_name(),
            Some(&ns)
        );
        assert_eq!(RData::A(Ipv4Addr::LOCALHOST).target_name(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            RData::A(Ipv4Addr::new(192, 0, 2, 1)).to_string(),
            "192.0.2.1"
        );
        let soa = RData::Soa(Box::new(SoaData {
            mname: Name::parse("ns1.dns.nl").unwrap(),
            rname: Name::parse("hostmaster.dns.nl").unwrap(),
            serial: 7,
            refresh: 3600,
            retry: 600,
            expire: 86400,
            minimum: 60,
        }));
        assert_eq!(
            soa.to_string(),
            "ns1.dns.nl hostmaster.dns.nl 7 3600 600 86400 60"
        );
    }
}
