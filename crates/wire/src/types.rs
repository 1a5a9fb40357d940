//! Protocol enumerations: record types and classes, opcodes, response codes.

use std::fmt;

/// DNS resource record types (RFC 1035 §3.2.2 and successors).
///
/// Only the types exercised by the experiments get named variants; anything
/// else round-trips through [`RecordType::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    NS,
    /// Canonical name (alias).
    CNAME,
    /// Start of authority.
    SOA,
    /// Domain name pointer (reverse lookups).
    PTR,
    /// Mail exchange.
    MX,
    /// Text record.
    TXT,
    /// IPv6 host address (RFC 3596).
    AAAA,
    /// Service locator (RFC 2782).
    SRV,
    /// EDNS0 pseudo-record (RFC 6891).
    OPT,
    /// DNSSEC public key (RFC 4034). Carried for completeness; DNSSEC
    /// validation is out of the paper's (and this library's) scope.
    DNSKEY,
    /// Delegation signer (RFC 4034) — queried in the root-DITL experiment.
    DS,
    /// RRset signature (RFC 4034). Carried opaquely; DNSSEC validation is
    /// out of scope.
    RRSIG,
    /// Any other type, preserved numerically.
    Unknown(u16),
}

impl RecordType {
    /// The wire value.
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::NS => 2,
            RecordType::CNAME => 5,
            RecordType::SOA => 6,
            RecordType::PTR => 12,
            RecordType::MX => 15,
            RecordType::TXT => 16,
            RecordType::AAAA => 28,
            RecordType::SRV => 33,
            RecordType::OPT => 41,
            RecordType::DS => 43,
            RecordType::RRSIG => 46,
            RecordType::DNSKEY => 48,
            RecordType::Unknown(v) => v,
        }
    }

    /// Parses a wire value; unknown values are preserved, and known values
    /// never map to `Unknown`.
    pub(crate) fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::NS,
            5 => RecordType::CNAME,
            6 => RecordType::SOA,
            12 => RecordType::PTR,
            15 => RecordType::MX,
            16 => RecordType::TXT,
            28 => RecordType::AAAA,
            33 => RecordType::SRV,
            41 => RecordType::OPT,
            43 => RecordType::DS,
            46 => RecordType::RRSIG,
            48 => RecordType::DNSKEY,
            other => RecordType::Unknown(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::NS => write!(f, "NS"),
            RecordType::CNAME => write!(f, "CNAME"),
            RecordType::SOA => write!(f, "SOA"),
            RecordType::PTR => write!(f, "PTR"),
            RecordType::MX => write!(f, "MX"),
            RecordType::TXT => write!(f, "TXT"),
            RecordType::AAAA => write!(f, "AAAA"),
            RecordType::SRV => write!(f, "SRV"),
            RecordType::OPT => write!(f, "OPT"),
            RecordType::DS => write!(f, "DS"),
            RecordType::RRSIG => write!(f, "RRSIG"),
            RecordType::DNSKEY => write!(f, "DNSKEY"),
            RecordType::Unknown(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// DNS classes. Everything here is `IN`; other classes are preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordClass {
    /// The Internet.
    IN,
    /// Chaos — still queried in the wild for server identification.
    CH,
    /// Any other class.
    Unknown(u16),
}

impl RecordClass {
    /// The wire value.
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            RecordClass::IN => 1,
            RecordClass::CH => 3,
            RecordClass::Unknown(v) => v,
        }
    }

    /// Parses a wire value.
    pub(crate) fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::IN,
            3 => RecordClass::CH,
            other => RecordClass::Unknown(other),
        }
    }
}

impl fmt::Display for RecordClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordClass::IN => write!(f, "IN"),
            RecordClass::CH => write!(f, "CH"),
            RecordClass::Unknown(v) => write!(f, "CLASS{v}"),
        }
    }
}

/// Message opcodes (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// Zone change notification (RFC 1996).
    Notify,
    /// Dynamic update (RFC 2136).
    Update,
    /// Anything else.
    Unknown(u8),
}

impl Opcode {
    /// The 4-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Unknown(v) => v & 0x0f,
        }
    }

    /// Parses a 4-bit wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Unknown(other),
        }
    }
}

/// Response codes (RFC 1035 §4.1.1). The experiments observe `NOERROR`,
/// `SERVFAIL`, `NXDOMAIN` and `REFUSED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error condition.
    NoError,
    /// The server could not interpret the query.
    FormErr,
    /// The server failed to complete the request — what resolvers return
    /// when every authoritative is unreachable.
    ServFail,
    /// The queried name does not exist (authoritative only).
    NxDomain,
    /// The server does not support the request.
    NotImp,
    /// The server refuses to answer for policy reasons.
    Refused,
    /// Any other code.
    Unknown(u8),
}

impl Rcode {
    /// The 4-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Unknown(v) => v & 0x0f,
        }
    }

    /// Parses a 4-bit wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Unknown(other),
        }
    }

    /// True for codes that indicate the answer (or its absence) is
    /// authoritative data rather than a failure: `NOERROR` and `NXDOMAIN`.
    pub fn is_conclusive(self) -> bool {
        matches!(self, Rcode::NoError | Rcode::NxDomain)
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Unknown(v) => write!(f, "RCODE{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_u16_round_trip() {
        for v in 0..300u16 {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn known_types_have_assigned_numbers() {
        assert_eq!(RecordType::A.to_u16(), 1);
        assert_eq!(RecordType::NS.to_u16(), 2);
        assert_eq!(RecordType::AAAA.to_u16(), 28);
        assert_eq!(RecordType::OPT.to_u16(), 41);
        assert_eq!(RecordType::DS.to_u16(), 43);
        assert_eq!(RecordType::from_u16(28), RecordType::AAAA);
    }

    #[test]
    fn unknown_never_shadows_known() {
        assert_ne!(RecordType::from_u16(1), RecordType::Unknown(1));
    }

    #[test]
    fn class_round_trip() {
        for v in 0..10u16 {
            assert_eq!(RecordClass::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn opcode_round_trip_is_4_bits() {
        for v in 0..16u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
        }
        assert_eq!(Opcode::from_u8(0x10), Opcode::Query);
    }

    #[test]
    fn rcode_round_trip_and_conclusive() {
        for v in 0..16u8 {
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
        assert!(Rcode::NoError.is_conclusive());
        assert!(Rcode::NxDomain.is_conclusive());
        assert!(!Rcode::ServFail.is_conclusive());
        assert!(!Rcode::Refused.is_conclusive());
    }

    #[test]
    fn display_matches_convention() {
        assert_eq!(RecordType::AAAA.to_string(), "AAAA");
        assert_eq!(RecordType::Unknown(99).to_string(), "TYPE99");
        assert_eq!(Rcode::ServFail.to_string(), "SERVFAIL");
    }
}
