//! Sim/live parity: the same zone and defense plan, driven once through
//! the simulator and once through a `dike-serve` socket on 127.0.0.1,
//! must produce byte-identical answers and matching defense ledgers.
//!
//! This is the acceptance test of DESIGN.md §5.6: `AuthServer::respond`
//! and the ingress gate are the same code in both worlds, so any
//! divergence here means one side grew a hidden dependency on its world.

use std::io::{Read as _, Write as _};
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use dike_auth::{AuthServer, CacheTestZone, ZoneAnswer, ZoneProvider};
use dike_defense::{Defense, DefensePlan, RrlConfig};
use dike_netsim::{
    Addr, Context, DefenseLedger, LatencyModel, LinkParams, LinkTable, Node, SimDuration, SimTime,
    Simulator,
};
use dike_serve::{LiveServer, ServeConfig};
use dike_telemetry::sync::Mutex;
use dike_wire::{codec, Message, Name, Question, RecordType};
use std::net::Ipv4Addr;

const QUERY_COUNT: u16 = 6;

fn zone() -> CacheTestZone {
    CacheTestZone::new(60, &[Ipv4Addr::new(198, 51, 100, 1)])
}

fn query(id: u16) -> Message {
    Message::query(
        id,
        Name::parse("1414.cachetest.nl").unwrap(),
        RecordType::AAAA,
    )
}

/// RRL tight enough that of six rapid queries from one source, exactly
/// two are answered and four slip as TC=1 — and slow enough to refill
/// (0.01 tokens/s) that the outcome is identical whether the six
/// queries take microseconds (live loopback) or simulated milliseconds.
fn rrl_config() -> RrlConfig {
    RrlConfig {
        rate_qps: 0.01,
        burst: 2.0,
        slip: 1,
        prefix_bits: 24,
    }
}

/// Sim client: fires the fixed query sequence at t=0 and records every
/// response it gets back.
struct RecordingClient {
    server: Addr,
    replies: Arc<Mutex<Vec<Message>>>,
}

impl Node for RecordingClient {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for id in 1..=QUERY_COUNT {
            ctx.send(self.server, &query(id));
        }
    }

    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, msg: &Message, _len: usize) {
        if msg.is_response {
            self.replies.lock().push(msg.clone());
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: dike_netsim::TimerToken) {}
}

/// Runs the scenario in the simulator: returns each response re-encoded
/// to wire bytes (keyed by DNS id) plus the run's defense ledger.
fn run_sim(plan: Option<&DefensePlan>) -> (Vec<(u16, Vec<u8>)>, DefenseLedger) {
    let mut sim = Simulator::new(7);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    let (_, auth_addr) = sim.add_node(Box::new(AuthServer::new().with_zone(Box::new(zone()))));
    if let Some(plan) = plan {
        // Re-target the plan at the sim server's address; the live side
        // mounts the first engine regardless of target.
        let mut retargeted = DefensePlan::new();
        for d in &plan.defenses {
            let Defense::Rrl { start, config, .. } = d else {
                panic!("parity scenario only uses RRL");
            };
            retargeted.push(Defense::Rrl {
                target: auth_addr,
                start: *start,
                config: *config,
            });
        }
        retargeted.schedule(&mut sim).expect("valid plan");
    }
    let replies = Arc::new(Mutex::new(Vec::new()));
    sim.add_node(Box::new(RecordingClient {
        server: auth_addr,
        replies: replies.clone(),
    }));
    sim.run_until(SimDuration::from_secs(10).after_zero());
    let ledger = sim.world_mut().defense_ledger();
    drop(sim);
    let replies = replies.lock();
    let wires = replies
        .iter()
        .map(|m| (m.id, codec::encode(m).expect("response re-encodes")))
        .collect();
    (wires, ledger)
}

/// Runs the scenario against a live server in lock-step (send one
/// query, wait for its reply) so arrival order matches the simulator's
/// deterministic delivery order.
fn run_live(plan: Option<DefensePlan>) -> (Vec<(u16, Vec<u8>)>, DefenseLedger) {
    let server = AuthServer::new().with_zone(Box::new(zone()));
    let handle = LiveServer::start(
        ServeConfig {
            plan,
            ..ServeConfig::default()
        },
        server,
    )
    .expect("bind loopback");
    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    client.connect(handle.local_addr()).expect("connect");

    let mut wires = Vec::new();
    let mut buf = [0u8; 4096];
    for id in 1..=QUERY_COUNT {
        let q = codec::encode(&query(id)).expect("query encodes");
        client.send(&q).expect("send query");
        let len = client.recv(&mut buf).unwrap_or_else(|e| {
            panic!(
                "no reply to query {id} within 5s (every query must be answered or slipped): {e}"
            )
        });
        let resp = codec::decode(&buf[..len]).expect("reply decodes");
        assert_eq!(resp.id, id, "replies arrive lock-step");
        wires.push((id, buf[..len].to_vec()));
    }
    let ledger = handle.defense_ledger();
    handle.stop();
    (wires, ledger)
}

fn assert_same_wires(sim: &[(u16, Vec<u8>)], live: &[(u16, Vec<u8>)]) {
    assert_eq!(sim.len(), live.len(), "same number of responses");
    for (id, live_bytes) in live {
        let sim_bytes = sim
            .iter()
            .find(|(sid, _)| sid == id)
            .map(|(_, b)| b)
            .unwrap_or_else(|| panic!("sim produced no response for id {id}"));
        assert_eq!(
            sim_bytes, live_bytes,
            "response bytes for id {id} differ between sim and live"
        );
    }
}

#[test]
fn undefended_answers_are_byte_identical() {
    let (sim_wires, sim_ledger) = run_sim(None);
    let (live_wires, live_ledger) = run_live(None);
    assert_eq!(sim_wires.len(), QUERY_COUNT as usize);
    assert_same_wires(&sim_wires, &live_wires);
    assert_eq!(sim_ledger, DefenseLedger::default());
    assert_eq!(live_ledger, DefenseLedger::default());
}

#[test]
fn rrl_slip_parity_including_ledgers() {
    let plan = DefensePlan::new().with(Defense::rrl(Addr(0), rrl_config()));
    let (sim_wires, sim_ledger) = run_sim(Some(&plan));
    let (live_wires, live_ledger) = run_live(Some(plan));

    // Every query gets a reply (slip=1 answers every limited query).
    assert_eq!(sim_wires.len(), QUERY_COUNT as usize);
    assert_same_wires(&sim_wires, &live_wires);

    // The first two spend the burst; the rest are TC=1 slips.
    for (id, bytes) in &live_wires {
        let msg = codec::decode(bytes).expect("decodes");
        if *id <= 2 {
            assert!(!msg.truncated, "query {id} answered in full");
            assert!(!msg.answers.is_empty());
        } else {
            assert!(msg.truncated, "query {id} slipped as TC=1");
            assert!(msg.answers.is_empty());
        }
    }

    let expected = DefenseLedger {
        defense_drops: 4,
        rrl_limited: 4,
        rrl_slipped: 4,
        cookie_exempt: 0,
        shed_by_class: [0, 0, 0],
    };
    assert_eq!(sim_ledger, expected, "sim ledger");
    assert_eq!(live_ledger, expected, "live ledger");
}

/// Sends one RFC 7766 length-framed query over an open TCP stream and
/// returns the framed reply's bytes.
fn tcp_exchange(stream: &mut TcpStream, q: &Message) -> Vec<u8> {
    let wire = codec::encode(q).expect("query encodes");
    let frame = (wire.len() as u16).to_be_bytes();
    stream.write_all(&frame).expect("send frame length");
    stream.write_all(&wire).expect("send query");
    let mut len = [0u8; 2];
    stream.read_exact(&mut len).expect("reply frame length");
    let mut body = vec![0u8; u16::from_be_bytes(len) as usize];
    stream.read_exact(&mut body).expect("reply body");
    body
}

/// Sends one UDP query and returns the reply's bytes.
fn udp_exchange(client: &UdpSocket, q: &Message) -> Vec<u8> {
    let wire = codec::encode(q).expect("query encodes");
    client.send(&wire).expect("send query");
    let mut buf = [0u8; 4096];
    let len = client.recv(&mut buf).expect("reply within timeout");
    buf[..len].to_vec()
}

fn udp_client(handle: &LiveServer) -> UdpSocket {
    let client = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    client.connect(handle.local_addr()).expect("connect");
    client
}

/// The TCP pin: the same query over UDP and over the RFC 7766 stream
/// must produce byte-identical answers on an undefended server — and
/// when a tight RRL gate slips UDP queries as TC=1, the TCP path (which
/// a completed handshake exempts from the gate, exactly as in the
/// simulator) still returns that same full answer.
#[test]
fn tcp_answers_match_udp_and_bypass_the_gate() {
    // Phase 1: undefended parity, byte for byte.
    let handle = LiveServer::start(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".parse().unwrap()),
            ..ServeConfig::default()
        },
        AuthServer::new().with_zone(Box::new(zone())),
    )
    .expect("bind loopback");
    let tcp_addr = handle.tcp_local_addr().expect("tcp listener is live");
    let client = udp_client(&handle);
    let udp_bytes = udp_exchange(&client, &query(1));
    let mut stream = TcpStream::connect(tcp_addr).expect("tcp connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let tcp_bytes = tcp_exchange(&mut stream, &query(1));
    assert_eq!(
        udp_bytes, tcp_bytes,
        "UDP and TCP answers to the same query must be byte-identical"
    );
    drop(stream);
    let stats = handle.stop();
    assert_eq!(stats.tcp_connections, 1);
    assert_eq!(stats.tcp_queries, 1);

    // Phase 2: a gate that slips UDP does not touch the stream path.
    let plan = DefensePlan::new().with(Defense::rrl(Addr(0), rrl_config()));
    let handle = LiveServer::start(
        ServeConfig {
            plan: Some(plan),
            tcp_bind: Some("127.0.0.1:0".parse().unwrap()),
            ..ServeConfig::default()
        },
        AuthServer::new().with_zone(Box::new(zone())),
    )
    .expect("bind loopback");
    let tcp_addr = handle.tcp_local_addr().expect("tcp listener is live");
    let client = udp_client(&handle);
    let full_udp = udp_exchange(&client, &query(1)); // burst token 1
    udp_exchange(&client, &query(2)); // burst token 2
    let slipped = codec::decode(&udp_exchange(&client, &query(3))).expect("slip decodes");
    assert!(slipped.truncated, "third rapid UDP query slips as TC=1");
    assert!(slipped.answers.is_empty());

    // The TC=1 retry: same question over TCP gets the full answer the
    // gate was withholding, byte-identical (modulo DNS id) to the
    // pre-limit UDP answer.
    let mut stream = TcpStream::connect(tcp_addr).expect("tcp connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let retry_bytes = tcp_exchange(&mut stream, &query(1));
    assert_eq!(
        retry_bytes, full_udp,
        "the TCP retry recovers the exact answer UDP was slipping"
    );
    drop(stream);

    let ledger = handle.defense_ledger();
    assert_eq!(ledger.rrl_limited, 1, "only the UDP slip hit the gate");
    handle.stop();
}

/// RFC 7873 end to end on real sockets: a gate that slips everyone
/// else lets the client whose cookie validates sail straight through —
/// and the slip itself is what hands the client that cookie.
#[test]
fn cookie_exempt_client_sails_past_the_slipping_gate() {
    use dike_wire::cookie;
    const SECRET: u64 = 0xd1ce_7873;
    let plan = DefensePlan::new().with(Defense::rrl(Addr(0), rrl_config()));
    let handle = LiveServer::start(
        ServeConfig {
            plan: Some(plan),
            cookie_secret: Some(SECRET),
            ..ServeConfig::default()
        },
        AuthServer::new().with_zone(Box::new(zone())),
    )
    .expect("bind loopback");
    let client = udp_client(&handle);
    let src = 0x7f00_0001; // 127.0.0.1 as the gate keys it

    // Two plain queries spend the burst.
    for id in 1..=2u16 {
        let resp = codec::decode(&udp_exchange(&client, &query(id))).expect("decodes");
        assert!(!resp.truncated, "query {id} answered in full");
    }

    // Query 3 carries a client-only cookie. It is rate-limited — a
    // client cookie alone proves nothing — but the TC=1 slip comes back
    // with the server half minted in: the slip IS the cookie handshake.
    let mut q3 = query(3);
    let client_cookie = cookie::client_cookie_for(src, src);
    cookie::set_cookie(&mut q3, 1232, &cookie::Cookie::client_only(client_cookie));
    let slip = codec::decode(&udp_exchange(&client, &q3)).expect("slip decodes");
    assert!(slip.truncated, "query 3 slipped as TC=1");
    let learned = cookie::cookie_of(&slip).expect("slip completes the cookie");
    assert!(
        cookie::validate(&learned, src, SECRET),
        "the slipped cookie validates for our source"
    );

    // Query 4 presents the full cookie: exempt, answered in full while
    // the bucket is still empty.
    let mut q4 = query(4);
    cookie::set_cookie(&mut q4, 1232, &learned);
    let exempt = codec::decode(&udp_exchange(&client, &q4)).expect("decodes");
    assert!(!exempt.truncated, "cookie-bearing query bypasses the gate");
    assert!(!exempt.answers.is_empty());

    // Query 5, plain again, still slips: the exemption is per-cookie,
    // not a hole in the gate.
    let still = codec::decode(&udp_exchange(&client, &query(5))).expect("decodes");
    assert!(still.truncated, "cookieless query still slips");

    let ledger = handle.defense_ledger();
    let expected = DefenseLedger {
        defense_drops: 2,
        rrl_limited: 2,
        rrl_slipped: 2,
        cookie_exempt: 1,
        shed_by_class: [0, 0, 0],
    };
    assert_eq!(ledger, expected, "gate ledger");
    handle.stop();
}

/// A plan's own cookie layer arms the live gate's exemption, as
/// `DefensePlan::schedule` does in the simulator, with no
/// `ServeConfig.cookie_secret` set.
#[test]
fn a_plans_cookie_layer_exempts_on_the_live_gate() {
    use dike_wire::cookie;
    const SECRET: u64 = 0xc00c_1e5e;
    let plan = DefensePlan::new()
        .with(Defense::rrl(Addr(0), rrl_config()))
        .with(Defense::cookie(Addr(0), SECRET));
    let handle = LiveServer::start(
        ServeConfig {
            plan: Some(plan),
            ..ServeConfig::default()
        },
        AuthServer::new().with_zone(Box::new(zone())),
    )
    .expect("bind loopback");
    let client = udp_client(&handle);
    let src = 0x7f00_0001; // 127.0.0.1 as the gate keys it

    // Two plain queries spend the burst.
    for id in 1..=2u16 {
        let resp = codec::decode(&udp_exchange(&client, &query(id))).expect("decodes");
        assert!(!resp.truncated, "query {id} answered in full");
    }

    let mut q = query(3);
    let client_cookie = cookie::client_cookie_for(src, src);
    let full = cookie::Cookie {
        client: client_cookie,
        server: Some(cookie::server_cookie(&client_cookie, src, SECRET).to_vec()),
    };
    cookie::set_cookie(&mut q, 1232, &full);
    let resp = codec::decode(&udp_exchange(&client, &q)).expect("decodes");
    assert!(!resp.truncated, "the plan's cookie layer exempts the query");

    let ledger = handle.defense_ledger();
    assert_eq!(ledger.cookie_exempt, 1, "{ledger:?}");
    assert_eq!(ledger.rrl_limited, 0, "{ledger:?}");
    handle.stop();
}

/// A static zone with every shape of answer: apex NS with in-zone
/// addresses, a CNAME, an empty non-terminal (`deep`, `b.deep`) and a
/// delegation with glue.
const ZONEFILE: &str = "\
$ORIGIN example.test.
$TTL 300
@         IN SOA   ns1 hostmaster 7 14400 3600 1209600 60
@         IN NS    ns1
@         IN NS    ns2
ns1       IN A     192.0.2.1
ns2       IN A     192.0.2.2
ns2       IN AAAA  2001:db8::2
www    60 IN A     192.0.2.80
alias     IN CNAME www
a.b.deep  IN TXT   \"leaf\"
sub       IN NS    ns.sub
ns.sub    IN A     192.0.2.53
";

/// A zone-file zone on a live socket: each kind of answer is
/// byte-identical to what the in-process server encodes.
#[test]
fn a_zone_file_zone_is_served_byte_identically() {
    let zone = || Box::new(dike_auth::zonefile::parse(ZONEFILE, None).expect("zone parses"));
    let mut reference = AuthServer::new().with_zone(zone());
    let handle = LiveServer::start(ServeConfig::default(), AuthServer::new().with_zone(zone()))
        .expect("bind loopback");
    let client = udp_client(&handle);

    use dike_wire::Rcode::{NoError, NxDomain};
    use RecordType::{A, NS};
    // (name in the zone, type, rcode, AA, [answers, authorities, additionals])
    let cases = [
        ("nope", A, NxDomain, true, [0, 1, 0]),
        ("b.deep", A, NoError, true, [0, 1, 0]),
        ("x.sub", A, NoError, false, [0, 1, 1]),
        ("@", NS, NoError, true, [2, 0, 3]),
        ("alias", A, NoError, true, [2, 0, 0]),
    ];
    for (i, (label, qtype, rcode, aa, counts)) in cases.into_iter().enumerate() {
        let name = match label {
            "@" => Name::parse("example.test").unwrap(),
            _ => Name::parse(&format!("{label}.example.test")).unwrap(),
        };
        let q = Message::query(i as u16 + 1, name, qtype);
        let expected = codec::encode(&reference.handle_query(SimTime::ZERO, &q)).unwrap();
        let live = udp_exchange(&client, &q);
        assert_eq!(
            live, expected,
            "{label} {qtype}: live and in-process differ"
        );
        let m = codec::decode(&live).expect("decodes");
        let counts_seen = [m.answers.len(), m.authorities.len(), m.additionals.len()];
        assert_eq!(
            (m.rcode, m.authoritative, counts_seen),
            (rcode, aa, counts),
            "{label} {qtype}"
        );
    }
    handle.stop();
}

/// A zone whose lookup panics on one name: the stand-in for any bug in
/// a handler that runs under the server's lock.
struct Tripwire(CacheTestZone);

const TRAP: &str = "666.cachetest.nl";

impl ZoneProvider for Tripwire {
    fn origin(&self) -> &Name {
        self.0.origin()
    }

    fn answer(&mut self, now: SimTime, q: &Question) -> ZoneAnswer {
        assert!(
            q.name != Name::parse(TRAP).unwrap(),
            "tripwire name queried"
        );
        self.0.answer(now, q)
    }
}

/// One TCP connection thread dying mid-query must cost that connection
/// and nothing else: the UDP loop keeps answering and every accessor
/// keeps reading.
#[test]
fn a_panicking_tcp_handler_does_not_take_the_udp_loop_down() {
    let handle = LiveServer::start(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".parse().unwrap()),
            ..ServeConfig::default()
        },
        AuthServer::new().with_zone(Box::new(Tripwire(zone()))),
    )
    .expect("bind loopback");
    let tcp_addr = handle.tcp_local_addr().expect("tcp listener is live");

    // The trap query over TCP: its connection thread panics inside the
    // zone lookup, lock held. The peer sees the stream close with no
    // reply — and by then the unwinding thread has released the lock.
    let mut stream = TcpStream::connect(tcp_addr).expect("tcp connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let trap = Message::query(9, Name::parse(TRAP).unwrap(), RecordType::AAAA);
    let wire = codec::encode(&trap).expect("query encodes");
    stream
        .write_all(&(wire.len() as u16).to_be_bytes())
        .expect("send frame length");
    stream.write_all(&wire).expect("send query");
    let mut reply = Vec::new();
    let closed = stream.read_to_end(&mut reply);
    assert!(
        matches!(closed, Ok(0)) || closed.is_err(),
        "the trapped connection closes without a reply: {closed:?}"
    );

    let client = udp_client(&handle);
    let answer = codec::decode(&udp_exchange(&client, &query(1))).expect("decodes");
    assert!(!answer.answers.is_empty(), "UDP is still served in full");
    assert!(handle.telemetry_json().contains("datagrams_received"));
    let stats = handle.stop();
    assert_eq!(stats.tcp_connections, 1);
    assert_eq!(stats.tcp_queries, 0, "the trapped query was never answered");
    assert_eq!(stats.datagrams_received, 1);
}

/// The accept loop blocks in `accept`; `stop()` wakes it with one
/// loopback connection, which must neither hang the join nor count as a
/// client.
#[test]
fn stop_wakes_an_idle_tcp_listener() {
    let handle = LiveServer::start(
        ServeConfig {
            tcp_bind: Some("127.0.0.1:0".parse().unwrap()),
            ..ServeConfig::default()
        },
        AuthServer::new().with_zone(Box::new(zone())),
    )
    .expect("bind loopback");
    let started = std::time::Instant::now();
    let stats = handle.stop();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "stop took {:?}",
        started.elapsed()
    );
    assert_eq!(stats.tcp_connections, 0, "the wake-up is not a client");
}
