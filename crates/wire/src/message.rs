//! DNS messages: header flags, questions and the four record sections.

use std::fmt;

use crate::name::Name;
use crate::rdata::RData;
use crate::record::Record;
use crate::types::{Opcode, Rcode, RecordClass, RecordType};

/// A question: the name/type/class a query asks about.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub name: Name,
    /// Queried type.
    pub qtype: RecordType,
    /// Queried class.
    pub(crate) qclass: RecordClass,
}

impl Question {
    /// Creates an `IN`-class question.
    pub fn new(name: Name, qtype: RecordType) -> Self {
        Question {
            name,
            qtype,
            qclass: RecordClass::IN,
        }
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.name, self.qclass, self.qtype)
    }
}

/// A complete DNS message (RFC 1035 §4.1).
///
/// Bit-level header flags are expanded into named booleans; the section
/// counts implied by the wire header are derived from the vectors when
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction ID, echoed by responders.
    pub id: u16,
    /// True for responses (the `QR` bit).
    pub is_response: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative Answer: set by authoritative servers on answers from
    /// their own zones; clear on referrals (see paper Appendix A).
    pub authoritative: bool,
    /// Message was truncated to fit the transport.
    pub truncated: bool,
    /// Recursion Desired: stubs set this; iterative resolver queries clear it.
    pub recursion_desired: bool,
    /// Recursion Available: set by recursive resolvers on their responses.
    pub recursion_available: bool,
    /// Authentic Data (DNSSEC, RFC 4035); carried but not validated here.
    pub authentic_data: bool,
    /// Checking Disabled (DNSSEC, RFC 4035).
    pub checking_disabled: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section — NS records in referrals, SOA in negative answers.
    pub authorities: Vec<Record>,
    /// Additional section — glue addresses, OPT pseudo-record.
    pub additionals: Vec<Record>,
}

impl Message {
    /// A new, empty query skeleton.
    fn blank(id: u16) -> Self {
        Message {
            id,
            is_response: false,
            opcode: Opcode::Query,
            authoritative: false,
            truncated: false,
            recursion_desired: false,
            recursion_available: false,
            authentic_data: false,
            checking_disabled: false,
            rcode: Rcode::NoError,
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// A standard recursive query (`RD` set) for `name`/`qtype` — what a
    /// stub sends to its recursive resolver.
    pub fn query(id: u16, name: Name, qtype: RecordType) -> Self {
        let mut m = Message::blank(id);
        m.recursion_desired = true;
        m.questions.push(Question::new(name, qtype));
        m
    }

    /// An iterative query (`RD` clear) — what a recursive resolver sends to
    /// an authoritative server.
    pub fn iterative_query(id: u16, name: Name, qtype: RecordType) -> Self {
        let mut m = Message::blank(id);
        m.questions.push(Question::new(name, qtype));
        m
    }

    /// Builds the response skeleton for `query`: same ID, question echoed,
    /// `QR` set, `RD` copied.
    pub fn response_to(query: &Message) -> Self {
        let mut m = Message::blank(query.id);
        m.is_response = true;
        m.opcode = query.opcode;
        m.recursion_desired = query.recursion_desired;
        m.questions = query.questions.clone();
        m
    }

    /// A failure response (`SERVFAIL`, `REFUSED`, ...) to `query`.
    pub fn error_response(query: &Message, rcode: Rcode) -> Self {
        let mut m = Message::response_to(query);
        m.rcode = rcode;
        m
    }

    /// The first (and in practice only) question, if present.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// True if this response is a referral: not authoritative, no answers,
    /// and NS records in the authority section (paper Appendix A, RFC 8499).
    pub fn is_referral(&self) -> bool {
        self.is_response
            && !self.authoritative
            && self.rcode == Rcode::NoError
            && self.answers.is_empty()
            && self.authorities.iter().any(|r| r.rtype() == RecordType::NS)
    }

    /// True if this is a negative answer: conclusive rcode, no answers, and
    /// either NXDOMAIN or an SOA in the authority section (RFC 2308).
    pub fn is_negative(&self) -> bool {
        self.is_response
            && self.answers.is_empty()
            && (self.rcode == Rcode::NxDomain
                || (self.rcode == Rcode::NoError && self.authoritative && !self.is_referral()))
    }

    /// The negative-cache TTL from the authority-section SOA, if present
    /// (RFC 2308 §5: the minimum of the SOA TTL and its `minimum` field).
    pub fn negative_ttl(&self) -> Option<u32> {
        self.authorities.iter().find_map(|r| match &r.rdata {
            RData::Soa(soa) => Some(r.ttl.min(soa.minimum)),
            _ => None,
        })
    }

    /// Appends an EDNS0 OPT pseudo-record advertising `payload_size`.
    pub fn with_edns(mut self, payload_size: u16) -> Self {
        self.additionals.push(Record {
            name: Name::root(),
            class: RecordClass::Unknown(payload_size),
            ttl: 0,
            rdata: RData::Opt(Vec::new()),
        });
        self
    }

    /// The EDNS0 advertised payload size, if an OPT record is present.
    pub fn edns_payload_size(&self) -> Option<u16> {
        self.additionals
            .iter()
            .find(|r| r.rtype() == RecordType::OPT)
            .map(|r| r.class.to_u16())
    }
}

/// Fluent builder for responses, used by the authoritative server.
#[derive(Debug)]
pub struct MessageBuilder {
    msg: Message,
}

impl MessageBuilder {
    /// Starts a response to `query`.
    pub fn respond_to(query: &Message) -> Self {
        MessageBuilder {
            msg: Message::response_to(query),
        }
    }

    /// Marks the response authoritative (`AA`).
    pub fn authoritative(mut self) -> Self {
        self.msg.authoritative = true;
        self
    }

    /// Sets the response code.
    pub fn rcode(mut self, rcode: Rcode) -> Self {
        self.msg.rcode = rcode;
        self
    }

    /// Adds an answer record.
    pub fn answer(mut self, r: Record) -> Self {
        self.msg.answers.push(r);
        self
    }

    /// Adds an authority-section record.
    pub fn authority(mut self, r: Record) -> Self {
        self.msg.authorities.push(r);
        self
    }

    /// Adds an additional-section record.
    pub fn additional(mut self, r: Record) -> Self {
        self.msg.additionals.push(r);
        self
    }

    /// Finishes the message.
    pub fn build(self) -> Message {
        self.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdata::SoaData;
    use std::net::Ipv4Addr;

    fn q() -> Message {
        Message::query(
            1,
            Name::parse("1414.cachetest.nl").unwrap(),
            RecordType::AAAA,
        )
    }

    #[test]
    fn query_sets_rd_and_question() {
        let m = q();
        assert!(m.recursion_desired);
        assert!(!m.is_response);
        assert_eq!(m.question().unwrap().qtype, RecordType::AAAA);
    }

    #[test]
    fn iterative_query_clears_rd() {
        let m = Message::iterative_query(2, Name::parse("nl").unwrap(), RecordType::NS);
        assert!(!m.recursion_desired);
    }

    #[test]
    fn response_echoes_id_and_question() {
        let query = q();
        let resp = Message::response_to(&query);
        assert!(resp.is_response);
        assert_eq!(resp.id, query.id);
        assert_eq!(resp.questions, query.questions);
    }

    #[test]
    fn referral_detection() {
        let query =
            Message::iterative_query(3, Name::parse("cachetest.nl").unwrap(), RecordType::AAAA);
        let referral = MessageBuilder::respond_to(&query)
            .authority(Record::new(
                Name::parse("nl").unwrap(),
                3600,
                RData::Ns(Name::parse("ns1.dns.nl").unwrap()),
            ))
            .additional(Record::new(
                Name::parse("ns1.dns.nl").unwrap(),
                3600,
                RData::A(Ipv4Addr::new(192, 0, 2, 10)),
            ))
            .build();
        assert!(referral.is_referral());
        assert!(!referral.authoritative);

        let auth_answer = MessageBuilder::respond_to(&query)
            .authoritative()
            .answer(Record::new(
                Name::parse("cachetest.nl").unwrap(),
                60,
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            ))
            .build();
        assert!(!auth_answer.is_referral());
    }

    #[test]
    fn negative_answer_detection_and_ttl() {
        let query = Message::iterative_query(
            4,
            Name::parse("nope.cachetest.nl").unwrap(),
            RecordType::AAAA,
        );
        let soa = SoaData {
            mname: Name::parse("ns1.cachetest.nl").unwrap(),
            rname: Name::parse("hostmaster.cachetest.nl").unwrap(),
            serial: 1,
            refresh: 3600,
            retry: 600,
            expire: 86400,
            minimum: 60,
        };
        let neg = MessageBuilder::respond_to(&query)
            .authoritative()
            .rcode(Rcode::NxDomain)
            .authority(Record::new(
                Name::parse("cachetest.nl").unwrap(),
                3600,
                RData::Soa(Box::new(soa)),
            ))
            .build();
        assert!(neg.is_negative());
        // RFC 2308: min(SOA record TTL, SOA minimum) = min(3600, 60).
        assert_eq!(neg.negative_ttl(), Some(60));
    }

    #[test]
    fn error_response_keeps_question() {
        let query = q();
        let err = Message::error_response(&query, Rcode::ServFail);
        assert_eq!(err.rcode, Rcode::ServFail);
        assert_eq!(err.questions, query.questions);
        assert!(err.is_response);
    }

    #[test]
    fn edns_round_trip_via_additionals() {
        let m = q().with_edns(1232);
        assert_eq!(m.edns_payload_size(), Some(1232));
        assert_eq!(q().edns_payload_size(), None);
    }

    #[test]
    fn builder_appends_answers_in_order() {
        let query = q();
        let m = MessageBuilder::respond_to(&query)
            .authoritative()
            .answer(Record::new(
                Name::parse("cachetest.nl").unwrap(),
                60,
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            ))
            .answer(Record::new(
                Name::parse("cachetest.nl").unwrap(),
                60,
                RData::Ns(Name::parse("ns1.cachetest.nl").unwrap()),
            ))
            .build();
        let types: Vec<RecordType> = m.answers.iter().map(Record::rtype).collect();
        assert_eq!(types, [RecordType::A, RecordType::NS]);
    }
}
