//! The authoritative server node.

use std::sync::Arc;

use dike_netsim::{Addr, Context, Node, SimDuration, SimTime, TimerToken};
use dike_wire::{Message, MessageBuilder, Opcode, Question, Rcode};

use crate::zone::{Zone, ZoneAnswer};

/// Something that can answer questions for a zone. [`Zone`] implements it
/// for static content; [`crate::CacheTestZone`] adds synthesis and serial
/// rotation.
pub trait ZoneProvider: Send {
    /// The zone origin this provider serves.
    fn origin(&self) -> &dike_wire::Name;

    /// Answers one question at virtual time `now`.
    fn answer(&mut self, now: SimTime, q: &Question) -> ZoneAnswer;

    /// If `Some`, the server calls [`ZoneProvider::rotate`] at this
    /// interval (the paper reloads its zone every 10 minutes).
    fn rotation_interval(&self) -> Option<SimDuration> {
        None
    }

    /// Performs a zone rotation / reload.
    fn rotate(&mut self, now: SimTime) {
        let _ = now;
    }
}

impl ZoneProvider for Zone {
    fn origin(&self) -> &dike_wire::Name {
        Zone::origin(self)
    }

    fn answer(&mut self, _now: SimTime, q: &Question) -> ZoneAnswer {
        Zone::answer(self, q)
    }
}

/// Counters kept by an [`AuthServer`], broken down the way the paper's
/// server-side analysis slices traffic (queries by type, answers vs
/// referrals vs negatives). All values are cumulative since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AuthStats {
    /// Queries answered, on every path: [`AuthServer::handle_query`],
    /// [`AuthServer::respond`] and [`AuthServer::answer_stream`].
    pub(crate) queries: u64,
    /// Queries asking for an A record.
    pub(crate) queries_a: u64,
    /// Queries asking for a AAAA record.
    pub(crate) queries_aaaa: u64,
    /// Queries asking for an NS record.
    pub(crate) queries_ns: u64,
    /// Queries for any other record type (or malformed/no question).
    pub(crate) queries_other: u64,
    /// Authoritative answers with records (`AA` set, answer section
    /// non-empty before any truncation).
    pub(crate) answers: u64,
    /// Delegations to a child zone (`AA` clear, NS in authority).
    pub(crate) referrals: u64,
    /// Negative answers: NODATA plus NXDOMAIN.
    pub(crate) negatives: u64,
    /// The NXDOMAIN subset of `negatives`.
    pub(crate) nxdomain: u64,
    /// Errors: REFUSED, FORMERR, NOTIMP.
    pub(crate) errors: u64,
    /// Responses truncated to fit the client's advertised payload size.
    pub(crate) truncated: u64,
}

/// An authoritative DNS server hosting one or more zones.
///
/// For each query the deepest zone whose origin contains the query name
/// answers; questions matching no zone get `REFUSED`, like a correctly
/// configured BIND. Responses echo the query id and question and set `AA`
/// for authoritative data (clear on referrals — the distinction the
/// paper's Appendix A measures).
pub struct AuthServer {
    zones: Vec<Box<dyn ZoneProvider>>,
    stats: AuthStats,
    /// RFC 7873 server-cookie secret. When set, responses to queries
    /// carrying a client cookie get the server half minted in — the
    /// other side of the `IngressGate` cookie-validation exemption.
    cookie_secret: Option<u64>,
}

/// Timer tokens: rotation timer per zone index.
const ROTATE_BASE: u64 = 1_000;

impl AuthServer {
    /// A server with no zones; add some with [`AuthServer::add_zone`].
    pub fn new() -> Self {
        AuthServer {
            zones: Vec::new(),
            stats: AuthStats::default(),
            cookie_secret: None,
        }
    }

    /// Builder-style RFC 7873 cookie secret. Must match the secret the
    /// ingress defense validates with, or exemptions never fire.
    pub fn with_cookie_secret(mut self, secret: u64) -> Self {
        self.cookie_secret = Some(secret);
        self
    }

    /// Sets or clears the cookie secret.
    pub fn set_cookie_secret(&mut self, secret: Option<u64>) {
        self.cookie_secret = secret;
    }

    /// Adds a zone to serve.
    pub fn add_zone(&mut self, zone: Box<dyn ZoneProvider>) -> &mut Self {
        self.zones.push(zone);
        self
    }

    /// Builder-style zone addition.
    pub fn with_zone(mut self, zone: Box<dyn ZoneProvider>) -> Self {
        self.zones.push(zone);
        self
    }

    /// Index of the deepest zone containing `name`.
    fn zone_for(&self, name: &dike_wire::Name) -> Option<usize> {
        self.zones
            .iter()
            .enumerate()
            .filter(|(_, z)| name.is_subdomain_of(z.origin()))
            .max_by_key(|(_, z)| z.origin().label_count())
            .map(|(i, _)| i)
    }

    /// Answers `query`, producing the full response message. Responses
    /// larger than the transport allows (the client's EDNS0 advertised
    /// size, or RFC 1035's 512 octets without EDNS) are truncated: the
    /// record sections are emptied and the `TC` bit set, telling the
    /// client to retry elsewhere, or over TCP (DESIGN.md §5.8,
    /// [`AuthServer::answer_stream`]).
    pub fn handle_query(&mut self, now: SimTime, query: &Message) -> Message {
        // NOTE: keep in sync with `respond`, which encodes once through
        // the caller's encoder instead of calling `encoded_len`.
        let mut resp = self.answer_query(now, query);
        match dike_wire::codec::encoded_len(&resp) {
            Ok(len) if len > Self::payload_limit(query) => self.truncate(&mut resp),
            _ => {}
        }
        resp
    }

    /// The client's advertised maximum response size (EDNS0, or RFC
    /// 1035's 512 octets without it). RFC 6891 §6.2.3: advertised
    /// values below 512 are treated as exactly 512, so a malformed or
    /// adversarial tiny advertisement cannot force truncation of every
    /// response.
    fn payload_limit(query: &Message) -> usize {
        query
            .edns_payload_size()
            .map(|s| (s as usize).max(dike_wire::MAX_UDP_PAYLOAD))
            .unwrap_or(dike_wire::MAX_UDP_PAYLOAD)
    }

    /// Empties the record sections and sets `TC`.
    fn truncate(&mut self, resp: &mut Message) {
        resp.truncated = true;
        resp.answers.clear();
        resp.authorities.clear();
        resp.additionals.clear();
        self.stats.truncated += 1;
    }

    /// Answers one datagram from `src` at `now` and returns the bytes to
    /// send back (`None` for a response message: authoritatives only
    /// answer queries): [`AuthServer::answer_stream`]'s answer, truncated
    /// when it exceeds the client's payload limit. It is encoded once
    /// through `encode`, and those bytes serve both the size check and
    /// the reply; only a truncated answer is encoded a second time.
    /// [`Node::on_datagram`] calls this with the simulator's pooled
    /// encoder and `dike-serve`'s socket loop with its own, so the two
    /// worlds send byte-identical answers.
    pub fn respond(
        &mut self,
        now: SimTime,
        src: Addr,
        query: &Message,
        mut encode: impl FnMut(&Message) -> Arc<[u8]>,
    ) -> Option<Arc<[u8]>> {
        let mut resp = self.answer_stream(now, src, query)?;
        let wire = encode(&resp);
        if wire.len() <= Self::payload_limit(query) {
            return Some(wire);
        }
        self.truncate(&mut resp);
        // RFC 7873 §5.2: even a truncated response carries the server
        // cookie, so the client's TCP retry (or UDP retry through a
        // cookie-validating limiter) is already exempt.
        self.mint_cookie(src, query, &mut resp);
        Some(encode(&resp))
    }

    /// Answers one query received over a stream transport (TCP). No
    /// truncation: RFC 7766 lifts the UDP payload limit, which is the
    /// whole point of falling back after TC=1. Returns `None` for
    /// responses (authoritatives only answer queries).
    pub fn answer_stream(&mut self, now: SimTime, src: Addr, query: &Message) -> Option<Message> {
        if query.is_response {
            return None;
        }
        let mut resp = self.answer_query(now, query);
        self.mint_cookie(src, query, &mut resp);
        Some(resp)
    }

    /// Completes the cookie in `resp` when a secret is configured and
    /// `query` carried a client cookie. A no-op otherwise, so servers
    /// without the knob answer byte-identically to before.
    fn mint_cookie(&self, src: Addr, query: &Message, resp: &mut Message) {
        if let Some(secret) = self.cookie_secret {
            dike_wire::cookie::complete(resp, query, src.0, secret);
        }
    }

    /// Zone indices that want periodic rotation, with their intervals.
    /// The simulator drives these through timers ([`Node::on_start`] /
    /// [`Node::on_timer`]); a live serve loop tracks deadlines on the
    /// wall clock and calls [`AuthServer::rotate_zone`].
    pub fn rotation_schedule(&self) -> Vec<(usize, SimDuration)> {
        self.zones
            .iter()
            .enumerate()
            .filter_map(|(i, z)| z.rotation_interval().map(|ivl| (i, ivl)))
            .collect()
    }

    /// Rotates zone `index` at time `now` (no-op for unknown indices).
    pub fn rotate_zone(&mut self, index: usize, now: SimTime) {
        if let Some(zone) = self.zones.get_mut(index) {
            zone.rotate(now);
        }
    }

    fn answer_query(&mut self, now: SimTime, query: &Message) -> Message {
        self.stats.queries += 1;
        match query.question().map(|q| q.qtype) {
            Some(dike_wire::RecordType::A) => self.stats.queries_a += 1,
            Some(dike_wire::RecordType::AAAA) => self.stats.queries_aaaa += 1,
            Some(dike_wire::RecordType::NS) => self.stats.queries_ns += 1,
            _ => self.stats.queries_other += 1,
        }
        if query.opcode != Opcode::Query {
            self.stats.errors += 1;
            return Message::error_response(query, Rcode::NotImp);
        }
        let Some(q) = query.question() else {
            self.stats.errors += 1;
            return Message::error_response(query, Rcode::FormErr);
        };
        let Some(zi) = self.zone_for(&q.name) else {
            self.stats.errors += 1;
            return Message::error_response(query, Rcode::Refused);
        };
        let q = q.clone();
        match self.zones[zi].answer(now, &q) {
            ZoneAnswer::Authoritative {
                answers,
                additionals,
            } => {
                self.stats.answers += 1;
                let mut b = MessageBuilder::respond_to(query).authoritative();
                for r in answers {
                    b = b.answer(r);
                }
                for r in additionals {
                    b = b.additional(r);
                }
                b.build()
            }
            ZoneAnswer::NoData { soa } => {
                self.stats.negatives += 1;
                MessageBuilder::respond_to(query)
                    .authoritative()
                    .authority(soa)
                    .build()
            }
            ZoneAnswer::NxDomain { soa } => {
                self.stats.negatives += 1;
                self.stats.nxdomain += 1;
                MessageBuilder::respond_to(query)
                    .authoritative()
                    .rcode(Rcode::NxDomain)
                    .authority(soa)
                    .build()
            }
            ZoneAnswer::Referral { ns, glue } => {
                // Referrals are not authoritative (AA clear) — this is what
                // lets resolvers rank the child's own answer above the
                // parent's glue (Appendix A / RFC 2181 §5.4.1).
                self.stats.referrals += 1;
                let mut b = MessageBuilder::respond_to(query);
                for r in ns {
                    b = b.authority(r);
                }
                for r in glue {
                    b = b.additional(r);
                }
                b.build()
            }
            ZoneAnswer::NotInZone => {
                self.stats.errors += 1;
                Message::error_response(query, Rcode::Refused)
            }
        }
    }
}

impl Default for AuthServer {
    fn default() -> Self {
        AuthServer::new()
    }
}

impl Node for AuthServer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for (i, zone) in self.zones.iter().enumerate() {
            if let Some(interval) = zone.rotation_interval() {
                ctx.set_timer(interval, TimerToken(ROTATE_BASE + i as u64));
            }
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _wire_len: usize) {
        if let Some(wire) = self.respond(ctx.now(), src, msg, |m| ctx.encode(m)) {
            ctx.send_wire(src, wire);
        }
    }

    fn on_tcp_message(
        &mut self,
        ctx: &mut Context<'_>,
        conn: dike_netsim::TcpConnId,
        peer: Addr,
        msg: &Message,
        _wire_len: usize,
    ) {
        // TCP service shares the zone logic with the datagram path but
        // never truncates; the client closes when satisfied, and the
        // listener's idle reaper covers clients that don't.
        let now = ctx.now();
        if let Some(resp) = self.answer_stream(now, peer, msg) {
            ctx.tcp_send(conn, &resp);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        let idx = (token.0 - ROTATE_BASE) as usize;
        if let Some(zone) = self.zones.get_mut(idx) {
            let now = ctx.now();
            zone.rotate(now);
            if let Some(interval) = zone.rotation_interval() {
                ctx.set_timer(interval, token);
            }
        }
    }

    fn publish_metrics(&self, out: &mut dike_telemetry::NodePublisher<'_>) {
        let s = &self.stats;
        out.counter("auth", "queries", s.queries);
        out.counter("auth", "queries_a", s.queries_a);
        out.counter("auth", "queries_aaaa", s.queries_aaaa);
        out.counter("auth", "queries_ns", s.queries_ns);
        out.counter("auth", "queries_other", s.queries_other);
        out.counter("auth", "answers", s.answers);
        out.counter("auth", "referrals", s.referrals);
        out.counter("auth", "negatives", s.negatives);
        out.counter("auth", "nxdomain", s.nxdomain);
        out.counter("auth", "errors", s.errors);
        out.counter("auth", "truncated", s.truncated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachetest::{decode_probe_aaaa, CacheTestZone};
    use crate::zone::default_soa;
    use dike_wire::{Name, RData, Record, RecordType};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    fn server() -> AuthServer {
        AuthServer::new().with_zone(Box::new(CacheTestZone::new(
            60,
            &[Ipv4Addr::new(198, 51, 100, 1)],
        )))
    }

    #[test]
    fn answers_probe_query_with_aa() {
        let mut s = server();
        let q = Message::iterative_query(5, name("1414.cachetest.nl"), RecordType::AAAA);
        let resp = s.handle_query(SimTime::ZERO, &q);
        assert!(resp.authoritative);
        assert_eq!(resp.rcode, Rcode::NoError);
        assert_eq!(resp.id, 5);
        let RData::Aaaa(addr) = resp.answers[0].rdata else {
            panic!("expected AAAA")
        };
        assert_eq!(decode_probe_aaaa(addr).unwrap().probe_id, 1414);
        assert_eq!(s.stats.queries, 1);
    }

    #[test]
    fn out_of_zone_query_refused() {
        let mut s = server();
        let q = Message::iterative_query(6, name("example.com"), RecordType::A);
        let resp = s.handle_query(SimTime::ZERO, &q);
        assert_eq!(resp.rcode, Rcode::Refused);
    }

    #[test]
    fn deepest_zone_wins() {
        // A server hosting both "nl" and "cachetest.nl": queries under
        // cachetest.nl must be answered from the child zone, not referred
        // by the parent.
        let nl_origin = name("nl");
        let mut nl = Zone::new(nl_origin.clone(), 3600, default_soa(&nl_origin));
        nl.add(Record::new(
            name("cachetest.nl"),
            3600,
            RData::Ns(name("ns1.cachetest.nl")),
        ));
        nl.add(Record::new(
            name("ns1.cachetest.nl"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 1)),
        ));
        let mut s = AuthServer::new()
            .with_zone(Box::new(nl))
            .with_zone(Box::new(CacheTestZone::new(
                60,
                &[Ipv4Addr::new(198, 51, 100, 1)],
            )));
        let q = Message::iterative_query(7, name("9.cachetest.nl"), RecordType::AAAA);
        let resp = s.handle_query(SimTime::ZERO, &q);
        assert!(resp.authoritative, "child zone answers, parent would refer");
        assert_eq!(resp.answers.len(), 1);

        // But a query for something else under nl refers or NXDOMAINs from
        // the parent.
        let q2 = Message::iterative_query(8, name("other.nl"), RecordType::A);
        let resp2 = s.handle_query(SimTime::ZERO, &q2);
        assert_eq!(resp2.rcode, Rcode::NxDomain);
    }

    #[test]
    fn parent_returns_referral_for_delegated_child() {
        let nl_origin = name("nl");
        let mut nl = Zone::new(nl_origin.clone(), 3600, default_soa(&nl_origin));
        nl.add(Record::new(
            name("cachetest.nl"),
            3600,
            RData::Ns(name("ns1.cachetest.nl")),
        ));
        nl.add(Record::new(
            name("ns1.cachetest.nl"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 1)),
        ));
        let mut s = AuthServer::new().with_zone(Box::new(nl));
        let q = Message::iterative_query(9, name("1414.cachetest.nl"), RecordType::AAAA);
        let resp = s.handle_query(SimTime::ZERO, &q);
        assert!(resp.is_referral());
        assert!(!resp.authoritative);
        assert_eq!(resp.authorities[0].rtype(), RecordType::NS);
        assert_eq!(resp.additionals.len(), 1, "glue A record");
    }

    #[test]
    fn nodata_negative_has_soa_for_negative_ttl() {
        let mut s = server();
        let q = Message::iterative_query(10, name("ns1.cachetest.nl"), RecordType::AAAA);
        let resp = s.handle_query(SimTime::ZERO, &q);
        assert!(resp.is_negative());
        // SOA minimum is 60 in the default SOA.
        assert_eq!(resp.negative_ttl(), Some(60));
    }

    /// A zone with enough TXT data at one name to blow past 512 octets:
    /// four 200-octet strings at `fat.big.test`.
    fn fat_zone() -> Zone {
        let origin = name("big.test");
        let mut z = Zone::new(origin.clone(), 3600, default_soa(&origin));
        for i in 0..4 {
            z.add(Record::new(
                name("fat.big.test"),
                60,
                RData::Txt(vec![vec![b'a' + i as u8; 200]]),
            ));
        }
        z
    }

    #[test]
    fn oversized_response_is_truncated_without_edns() {
        let mut s = AuthServer::new().with_zone(Box::new(fat_zone()));

        // Plain 512-octet client: truncated, empty sections.
        let q = Message::iterative_query(21, name("fat.big.test"), RecordType::TXT);
        let resp = s.handle_query(SimTime::ZERO, &q);
        assert!(resp.truncated, "TC set");
        assert!(resp.answers.is_empty());
        assert!(
            dike_wire::codec::encoded_len(&resp).unwrap() <= dike_wire::MAX_UDP_PAYLOAD,
            "the truncated response itself fits"
        );

        // An EDNS client advertising 1232 gets the full answer.
        let q = Message::iterative_query(22, name("fat.big.test"), RecordType::TXT).with_edns(1232);
        let resp = s.handle_query(SimTime::ZERO, &q);
        assert!(!resp.truncated);
        assert_eq!(resp.answers.len(), 4);
    }

    #[test]
    fn tiny_edns_advertisement_is_clamped_to_512() {
        // RFC 6891 §6.2.3: values below 512 are treated as 512, so an
        // EDNS query advertising a tiny payload behaves exactly like a
        // plain 512-octet client — not like a client that can accept
        // nothing at all.
        let mut s = server();
        for tiny in [0u16, 12, 511] {
            let q = Message::iterative_query(23, name("1414.cachetest.nl"), RecordType::AAAA)
                .with_edns(tiny);
            let resp = s.handle_query(SimTime::ZERO, &q);
            assert!(!resp.truncated, "fits in 512, adv={tiny}");
            assert_eq!(resp.answers.len(), 1);
        }
        assert_eq!(s.stats.truncated, 0);
    }

    #[test]
    fn stats_count_dispositions_and_qtypes() {
        let nl_origin = name("nl");
        let mut nl = Zone::new(nl_origin.clone(), 3600, default_soa(&nl_origin));
        nl.add(Record::new(
            name("cachetest.nl"),
            3600,
            RData::Ns(name("ns1.cachetest.nl")),
        ));
        nl.add(Record::new(
            name("ns1.cachetest.nl"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 1)),
        ));
        // In-zone data above the delegation cut: answered authoritatively.
        nl.add(Record::new(
            name("www.nl"),
            3600,
            RData::A(Ipv4Addr::new(198, 51, 100, 2)),
        ));
        let mut s = AuthServer::new().with_zone(Box::new(nl));

        // Referral (AAAA): below the cachetest.nl delegation cut.
        let q = Message::iterative_query(1, name("7.cachetest.nl"), RecordType::AAAA);
        s.handle_query(SimTime::ZERO, &q);
        // Authoritative answer (A).
        let q = Message::iterative_query(2, name("www.nl"), RecordType::A);
        s.handle_query(SimTime::ZERO, &q);
        // NXDOMAIN (NS).
        let q = Message::iterative_query(3, name("missing.nl"), RecordType::NS);
        s.handle_query(SimTime::ZERO, &q);
        // Refused: out of zone.
        let q = Message::iterative_query(4, name("example.com"), RecordType::A);
        s.handle_query(SimTime::ZERO, &q);

        let st = s.stats;
        assert_eq!(st.queries, 4);
        assert_eq!(st.queries_a, 2);
        assert_eq!(st.queries_aaaa, 1);
        assert_eq!(st.queries_ns, 1);
        assert_eq!(st.answers, 1);
        assert_eq!(st.referrals, 1);
        assert_eq!(st.negatives, 1);
        assert_eq!(st.nxdomain, 1);
        assert_eq!(st.errors, 1);
        assert_eq!(st.truncated, 0);
    }

    #[test]
    fn answer_stream_never_truncates() {
        let mut s = AuthServer::new().with_zone(Box::new(fat_zone()));
        let q = Message::iterative_query(31, name("fat.big.test"), RecordType::TXT);
        // The same query truncates over UDP (no EDNS, > 512 octets)…
        let udp = s.handle_query(SimTime::ZERO, &q);
        assert!(udp.truncated);
        // …but streams whole over TCP.
        let tcp = s
            .answer_stream(SimTime::ZERO, dike_netsim::Addr(0x0a00_0007), &q)
            .unwrap();
        assert!(!tcp.truncated);
        assert_eq!(tcp.answers.len(), 4);
        assert_eq!(s.stats.truncated, 1, "only the UDP path truncated");
    }

    /// Runs [`AuthServer::respond`] with a counting encoder and returns
    /// the reply, decoded, with the number of encodes it took.
    fn respond_counting(s: &mut AuthServer, src: Addr, q: &Message) -> (Option<Message>, usize) {
        let mut enc = dike_wire::codec::EncodeBuffer::new();
        let mut encodes = 0;
        let wire = s.respond(SimTime::ZERO, src, q, |m| {
            encodes += 1;
            enc.encode(m).expect("encodable")
        });
        let reply = wire.map(|w| dike_wire::codec::decode(&w).expect("decodable"));
        (reply, encodes)
    }

    #[test]
    fn respond_truncates_then_re_mints_the_cookie() {
        use dike_wire::cookie;
        let mut s = AuthServer::new()
            .with_zone(Box::new(fat_zone()))
            .with_cookie_secret(0x5eed);
        let src = Addr(0x0a00_0009);
        let client = cookie::Cookie::client_only(cookie::client_cookie_for(src.0, 0x0a00_0001));
        let query = |id, qname| {
            let mut q = Message::iterative_query(id, name(qname), RecordType::TXT).with_edns(512);
            cookie::set_cookie(&mut q, 512, &client);
            q
        };
        let validates =
            |m: &Message| cookie::cookie_of(m).is_some_and(|c| cookie::validate(&c, src.0, 0x5eed));

        // Over the limit: encoded, truncated, re-minted, encoded again.
        let (reply, encodes) = respond_counting(&mut s, src, &query(41, "fat.big.test"));
        let reply = reply.expect("a query is answered");
        assert!(reply.truncated);
        assert!(reply.answers.is_empty() && reply.authorities.is_empty());
        assert_eq!(reply.additionals.len(), 1, "only the OPT survives");
        assert!(
            validates(&reply),
            "the TC=1 answer carries the server cookie"
        );
        assert_eq!(encodes, 2);
        assert_eq!(s.stats.truncated, 1);

        // Within the limit: one encode, the same cookie.
        let (reply, encodes) = respond_counting(&mut s, src, &query(42, "thin.big.test"));
        let reply = reply.expect("a query is answered");
        assert!(!reply.truncated);
        assert!(validates(&reply));
        assert_eq!(encodes, 1);
        assert_eq!(s.stats.truncated, 1);

        // A response message: no answer, no encode, no query counted.
        let mut stray = query(43, "fat.big.test");
        stray.is_response = true;
        assert_eq!(respond_counting(&mut s, src, &stray), (None, 0));
        assert_eq!(s.stats.queries, 2);
    }

    #[test]
    fn cookie_secret_mints_the_server_half() {
        use dike_wire::cookie;
        let mut s = server().with_cookie_secret(0x5eed);
        let src = dike_netsim::Addr(0x0a00_0009);
        let client = cookie::client_cookie_for(src.0, 0x0a00_0001);
        let mut q = Message::iterative_query(32, name("1414.cachetest.nl"), RecordType::AAAA)
            .with_edns(1232);
        cookie::set_cookie(&mut q, 1232, &dike_wire::Cookie::client_only(client));
        let resp = s.answer_stream(SimTime::ZERO, src, &q).unwrap();
        let minted = cookie::cookie_of(&resp).expect("cookie echoed");
        assert_eq!(minted.client, client);
        assert!(cookie::validate(&minted, src.0, 0x5eed));
        assert!(!cookie::validate(&minted, src.0 + 1, 0x5eed), "addr-bound");

        // Without a secret the response carries no cookie at all.
        let mut plain = server();
        let resp = plain.answer_stream(SimTime::ZERO, src, &q).unwrap();
        assert!(cookie::cookie_of(&resp).is_none());
    }

    #[test]
    fn non_query_opcode_is_notimp() {
        let mut s = server();
        let mut q = Message::iterative_query(11, name("1.cachetest.nl"), RecordType::AAAA);
        q.opcode = Opcode::Update;
        let resp = s.handle_query(SimTime::ZERO, &q);
        assert_eq!(resp.rcode, Rcode::NotImp);
    }
}
