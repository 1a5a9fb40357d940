#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! # dike-serve
//!
//! The same [`AuthServer`] and [`DefensePlan`] layers that run inside
//! the simulator, mounted on real UDP sockets via `std::net`
//! (DESIGN.md §5.6).
//!
//! Both worlds answer a datagram the same way: run it through an
//! [`IngressGate`], then call [`AuthServer::respond`] with the current
//! time and an encoder, and send the bytes it returns. The simulator
//! passes virtual time and its pooled encoder; the socket loop passes
//! wall-clock time since start-up and its own [`EncodeBuffer`]. That one function
//! is what makes the loopback parity test possible: the same queries
//! against the same zone and plan produce byte-identical answers and
//! matching defense ledgers in both modes.
//!
//! Threading model: one thread per UDP socket (queries are independent;
//! the socket thread owns the encode buffer and takes the one state
//! lock once per datagram), an optional TCP accept thread plus one thread
//! per DNS-over-TCP connection (RFC 7766 two-byte length framing,
//! served through [`AuthServer::answer_stream`] — the function the
//! simulator's `on_tcp_message` path uses, so stream answers match the
//! sim byte for byte), and an optional telemetry thread that publishes
//! live snapshots — to a JSON file, a trivial HTTP endpoint, or both —
//! on a fixed interval.
//!
//! Like the simulator, the TCP path bypasses the [`IngressGate`]: RRL
//! and its kin police the spoofable datagram ingress, while a completed
//! TCP handshake already proves return-routability. That asymmetry is
//! the mechanism behind the paper's TC=1 slip recovery, so the live
//! server preserves it.

use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dike_auth::AuthServer;
use dike_defense::{Defense, DefensePlan};
use dike_netsim::{Addr, DefenseLedger, GateAction, IngressGate, Node, SimDuration, SimTime};
use dike_telemetry::sync::Mutex;
use dike_telemetry::{MetricsRegistry, NodePublisher};
use dike_wire::codec::{self, EncodeBuffer};

/// How long the socket thread blocks in `recv_from` before re-checking
/// the shutdown flag and due zone rotations.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// A monotonic wall clock mapped onto [`SimTime`]: nanoseconds since
/// the server started, so the `now` the socket loop hands
/// [`AuthServer::respond`] and the [`IngressGate`] has the simulator's
/// type and its "time starts at zero" convention.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose zero is now.
    pub(crate) fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// The current instant.
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

/// The [`Addr`] of a socket peer: the IPv4 address as a `u32` (the
/// low 32 bits for IPv6). Ports are deliberately dropped — an [`Addr`]
/// is what RRL prefix aggregation and classifiers key on, and those
/// operate on hosts, not flows.
pub(crate) fn addr_of_peer(peer: SocketAddr) -> Addr {
    match peer.ip() {
        IpAddr::V4(ip) => Addr(u32::from(ip)),
        IpAddr::V6(ip) => {
            let o = ip.octets();
            Addr(u32::from_be_bytes([o[12], o[13], o[14], o[15]]))
        }
    }
}

/// Socket-loop counters, next to (not inside) the [`AuthServer`] stats:
/// these count datagrams the server logic never saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Datagrams read off the socket.
    pub datagrams_received: u64,
    /// Datagrams that failed to decode as DNS messages.
    pub undecodable: u64,
    /// Replies (including RRL slips) the OS refused to send.
    pub(crate) send_errors: u64,
    /// DNS-over-TCP connections accepted.
    pub tcp_connections: u64,
    /// Queries answered over TCP (RFC 7766 framed).
    pub tcp_queries: u64,
}

impl ServeStats {
    /// Adds the UDP loop's send errors since its last fold and zeroes
    /// `pending`. A sum, not a store: TCP connection threads increment
    /// `send_errors` on the shared record directly.
    fn fold_send_errors(&mut self, pending: &mut u64) {
        self.send_errors += std::mem::take(pending);
    }
}

/// Configuration for [`LiveServer::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// UDP address to serve on (port 0 picks an ephemeral port).
    pub bind: SocketAddr,
    /// Defense layers to mount in front of the socket. The plan is
    /// validated, its engines composed exactly as the simulator would
    /// ([`DefensePlan::build_engines`]), and the first target's engine
    /// installed behind an [`IngressGate`] — a live instance serves one
    /// ingress. A cookie defense at that target arms the gate's
    /// exemption. ScaleOut defenses are control-plane actions and are
    /// ignored in live mode.
    pub plan: Option<DefensePlan>,
    /// If set, a DNS-over-TCP listener on this address serves the same
    /// zones through [`AuthServer::answer_stream`] with RFC 7766
    /// two-byte length framing. TCP answers skip truncation and bypass
    /// the ingress gate, mirroring the simulator's stream path — this
    /// is where a resolver lands after a TC=1 slip.
    pub tcp_bind: Option<SocketAddr>,
    /// RFC 7873 cookie secret, applied to both sides of the handshake: the
    /// [`AuthServer`] mints server cookies into responses, and the
    /// ingress gate (when a plan is mounted) exempts queries whose
    /// cookie validates. Overrides any secret already set on either,
    /// the plan's cookie defense included.
    pub cookie_secret: Option<u64>,
    /// Interval between telemetry snapshots.
    pub telemetry_every: Duration,
    /// If set, each snapshot rewrites this file with the full registry
    /// as JSON.
    pub telemetry_json: Option<PathBuf>,
    /// If set, a TCP listener on this address answers every connection
    /// with an HTTP/1.0 response carrying the latest snapshot JSON.
    pub telemetry_http: Option<SocketAddr>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".parse().expect("literal socket addr"),
            plan: None,
            tcp_bind: None,
            cookie_secret: None,
            telemetry_every: Duration::from_secs(10),
            telemetry_json: None,
            telemetry_http: None,
        }
    }
}

/// Everything the threads mutate.
struct Core {
    server: AuthServer,
    gate: Option<IngressGate>,
    stats: ServeStats,
    registry: MetricsRegistry,
}

/// Shared state between the socket, telemetry, and caller threads.
struct Shared {
    /// Behind the non-poisoning mutex: a handler that panicked mid-query
    /// (one TCP connection thread, say) must not take the UDP loop down
    /// with it, and everything in [`Core`] is counters and tables that
    /// stay valid after every single store, so there is no half-done
    /// update to inherit.
    core: Mutex<Core>,
    clock: WallClock,
}

/// A running live server: one UDP socket thread, an optional telemetry
/// thread, and accessors mirroring the simulator's post-run views so
/// tests can compare the two worlds. Dropping the handle stops the
/// server.
pub struct LiveServer {
    local_addr: SocketAddr,
    tcp_local_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl LiveServer {
    /// Binds the socket(s), mounts the defense plan, and starts serving
    /// `server`'s zones. Returns once every listener is live.
    pub fn start(config: ServeConfig, mut server: AuthServer) -> std::io::Result<LiveServer> {
        let socket = UdpSocket::bind(config.bind)?;
        socket.set_read_timeout(Some(POLL_INTERVAL))?;
        let local_addr = socket.local_addr()?;

        let mut gate = match &config.plan {
            Some(plan) => {
                plan.validate().map_err(|(i, e)| {
                    std::io::Error::new(ErrorKind::InvalidInput, format!("defense {i}: {e}"))
                })?;
                plan.build_engines()
                    .into_iter()
                    .next()
                    .map(|(target, engine)| {
                        let mut gate = IngressGate::new(Box::new(engine));
                        // The plan's cookie layer at the mounted target, as
                        // `DefensePlan::schedule` arms it in the simulator.
                        gate.set_cookie_secret(plan.defenses.iter().find_map(|d| match d {
                            Defense::Cookie { target: t, secret } if *t == target => Some(*secret),
                            _ => None,
                        }));
                        gate
                    })
            }
            None => None,
        };
        if let Some(secret) = config.cookie_secret {
            // One knob arms both halves of the RFC 7873 handshake: the
            // server mints, the gate validates and exempts.
            server.set_cookie_secret(Some(secret));
            if let Some(gate) = &mut gate {
                gate.set_cookie_secret(Some(secret));
            }
        }

        let tcp_listener = match &config.tcp_bind {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let tcp_local_addr = tcp_listener.as_ref().map(|l| l.local_addr()).transpose()?;

        let rotations = server.rotation_schedule();
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                server,
                gate,
                stats: ServeStats::default(),
                registry: MetricsRegistry::new(),
            }),
            clock: WallClock::new(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            threads.push(std::thread::spawn(move || {
                socket_loop(&socket, &shared, &shutdown, rotations);
            }));
        }
        if let Some(listener) = tcp_listener {
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            threads.push(std::thread::spawn(move || {
                tcp_accept_loop(&listener, &shared, &shutdown);
            }));
        }
        if config.telemetry_json.is_some() || config.telemetry_http.is_some() {
            let listener = match &config.telemetry_http {
                Some(addr) => {
                    let l = TcpListener::bind(addr)?;
                    l.set_nonblocking(true)?;
                    Some(l)
                }
                None => None,
            };
            let shared = Arc::clone(&shared);
            let shutdown = Arc::clone(&shutdown);
            let every = config.telemetry_every;
            let json_path = config.telemetry_json.clone();
            threads.push(std::thread::spawn(move || {
                telemetry_loop(&shared, &shutdown, every, json_path, listener);
            }));
        }

        Ok(LiveServer {
            local_addr,
            tcp_local_addr,
            shared,
            shutdown,
            threads,
        })
    }

    /// The bound UDP address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound DNS-over-TCP address, when `tcp_bind` was configured
    /// (useful with port 0).
    pub fn tcp_local_addr(&self) -> Option<SocketAddr> {
        self.tcp_local_addr
    }

    /// Socket-loop counters so far.
    pub fn stats(&self) -> ServeStats {
        self.shared.core.lock().stats
    }

    /// The ingress gate's drop accounting — the same [`DefenseLedger`]
    /// shape `World::defense_ledger` returns, which is what the
    /// parity test compares. Zeroed when no plan is mounted.
    pub fn defense_ledger(&self) -> DefenseLedger {
        let core = self.shared.core.lock();
        core.gate.as_ref().map(|g| *g.ledger()).unwrap_or_default()
    }

    /// Publishes a snapshot now and returns the registry as JSON — the
    /// same document the telemetry file/endpoint carries.
    pub fn telemetry_json(&self) -> String {
        publish_snapshot(&self.shared)
    }

    /// Stops the threads and returns the final socket-loop counters.
    pub fn stop(mut self) -> ServeStats {
        self.halt();
        self.stats()
    }

    /// Raises the shutdown flag, wakes the TCP accept loop (blocked in
    /// `accept`) with one loopback connection, and joins every thread.
    fn halt(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        // SeqCst: the accept loop loads the flag after `accept` returns
        // the wake-up connection, which is opened only after this store.
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(mut addr) = self.tcp_local_addr {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr.ip() {
                    IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The per-socket serve loop: decode, run the ingress gate, answer
/// through [`AuthServer::respond`]. Mirrors the simulator's delivery
/// pipeline — the gate did all defense accounting, the loop only obeys
/// the [`GateAction`].
fn socket_loop(
    socket: &UdpSocket,
    shared: &Shared,
    shutdown: &AtomicBool,
    rotations: Vec<(usize, SimDuration)>,
) {
    let mut enc = EncodeBuffer::new();
    let mut buf = [0u8; 4096];
    let mut send_errors: u64 = 0;
    let mut due: Vec<(usize, SimDuration, SimTime)> = rotations
        .into_iter()
        .map(|(i, ivl)| (i, ivl, SimTime::ZERO + ivl))
        .collect();
    while !shutdown.load(Ordering::Relaxed) {
        let now = shared.clock.now();
        for r in &mut due {
            // Zone rotation, driven by the wall clock the way the
            // simulator drives it by timer events.
            while now >= r.2 {
                shared.core.lock().server.rotate_zone(r.0, now);
                r.2 += r.1;
            }
        }
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok(hit) => hit,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => continue,
        };
        let decoded = codec::decode(&buf[..len]);
        let src = addr_of_peer(peer);
        let now = shared.clock.now();
        // One lock per datagram: count it, run the gate, serve it.
        let mut core = shared.core.lock();
        core.stats.datagrams_received += 1;
        core.stats.fold_send_errors(&mut send_errors);
        let Ok(msg) = decoded else {
            core.stats.undecodable += 1;
            continue;
        };
        let action = core.gate.as_mut().map(|gate| gate.on_query(now, src, &msg));
        let reply = match action {
            Some(GateAction::Drop { slip }) => {
                slip.map(|resp| enc.encode(&resp).expect("slip response encodes"))
            }
            // An accepted-with-delay query is served immediately: the
            // queueing delay is recorded in the gate's histograms, but a
            // single-socket loop does not hold the reply back (the
            // simulator models the wait; a live thread sleeping would
            // head-of-line-block every later query instead).
            Some(GateAction::DeliverAfter(_)) | Some(GateAction::Deliver) | None => {
                core.server.respond(now, src, &msg, |m| {
                    enc.encode(m).expect("server response encodes")
                })
            }
        };
        drop(core);
        if let Some(payload) = reply {
            if socket.send_to(&payload, peer).is_err() {
                send_errors += 1;
            }
        }
    }
    shared.core.lock().stats.fold_send_errors(&mut send_errors);
}

/// The DNS-over-TCP accept loop: block in `accept`, spawn a thread per
/// connection, and join them all before exiting so `stop()` leaves no
/// thread behind. Shutdown wakes it with one connection, which is
/// dropped uncounted.
fn tcp_accept_loop(listener: &TcpListener, shared: &Arc<Shared>, shutdown: &Arc<AtomicBool>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, peer)) => {
                shared.core.lock().stats.tcp_connections += 1;
                let shared = Arc::clone(shared);
                let shutdown = Arc::clone(shutdown);
                conns.push(std::thread::spawn(move || {
                    tcp_conn_loop(stream, peer, &shared, &shutdown);
                }));
            }
            // Out of descriptors and the like: back off instead of spinning.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    for t in conns {
        let _ = t.join();
    }
}

/// Reads exactly `buf.len()` bytes, riding out read timeouts while the
/// server is up. `Ok(false)` means a clean stop: the peer closed before
/// sending anything, or shutdown was requested.
fn read_full(
    stream: &mut impl Read,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(false);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false) // clean close between messages
                } else {
                    Err(std::io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "peer closed mid-message",
                    ))
                };
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// One accepted DNS-over-TCP connection, served by [`serve_stream`].
fn tcp_conn_loop(stream: TcpStream, peer: SocketAddr, shared: &Shared, shutdown: &AtomicBool) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    serve_stream(stream, addr_of_peer(peer), shared, shutdown);
}

/// RFC 7766 framing (two-byte big-endian length before every message,
/// both directions) over any byte stream from `src`, answered through
/// [`AuthServer::answer_stream`] — no truncation, no ingress gate, the
/// same semantics as the simulator's `on_tcp_message` path. Serves any
/// number of queries until the peer closes or errors.
fn serve_stream(mut stream: impl Read + Write, src: Addr, shared: &Shared, shutdown: &AtomicBool) {
    let mut enc = EncodeBuffer::new();
    let mut len_prefix = [0u8; 2];
    let mut body = Vec::new();
    loop {
        match read_full(&mut stream, &mut len_prefix, shutdown) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let len = u16::from_be_bytes(len_prefix) as usize;
        body.resize(len, 0);
        match read_full(&mut stream, &mut body, shutdown) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        let Ok(msg) = codec::decode(&body) else {
            shared.core.lock().stats.undecodable += 1;
            continue;
        };
        let now = shared.clock.now();
        let resp = shared.core.lock().server.answer_stream(now, src, &msg);
        let Some(resp) = resp else { continue };
        let payload = enc.encode(&resp).expect("stream response encodes");
        debug_assert!(
            payload.len() <= u16::MAX as usize,
            "DNS message fits a frame"
        );
        let frame_len = (payload.len() as u16).to_be_bytes();
        // Counted before the write so a caller that has the reply in
        // hand never observes a stale counter.
        shared.core.lock().stats.tcp_queries += 1;
        if stream.write_all(&frame_len).is_err() || stream.write_all(&payload).is_err() {
            shared.core.lock().stats.send_errors += 1;
            return;
        }
    }
}

/// Publishes one telemetry snapshot (socket stats, auth counters, gate
/// ledger and per-class delay histograms — the same metric names the
/// simulator's standard cuts use) and returns the registry as JSON.
fn publish_snapshot(shared: &Shared) -> String {
    let now = shared.clock.now();
    let mut core = shared.core.lock();
    let Core {
        server,
        gate,
        stats,
        registry: reg,
    } = &mut *core;
    reg.record_counter(
        "serve",
        None,
        "datagrams_received",
        stats.datagrams_received,
    );
    reg.record_counter("serve", None, "undecodable", stats.undecodable);
    reg.record_counter("serve", None, "send_errors", stats.send_errors);
    reg.record_counter("serve", None, "tcp_connections", stats.tcp_connections);
    reg.record_counter("serve", None, "tcp_queries", stats.tcp_queries);
    server.publish_metrics(&mut NodePublisher::new(reg, 0));
    if let Some(gate) = gate {
        let ledger = gate.ledger();
        ledger.publish(gate.queue_delays(), reg, "serve");
        reg.record_counter(
            "serve",
            None,
            DefenseLedger::COOKIE_EXEMPT_METRIC,
            ledger.cookie_exempt,
        );
    }
    reg.snapshot(now.as_nanos());
    reg.to_json()
}

/// The telemetry loop: snapshot on the interval, rewrite the JSON file,
/// and drain any pending HTTP connections with the latest document.
fn telemetry_loop(
    shared: &Shared,
    shutdown: &AtomicBool,
    every: Duration,
    json_path: Option<PathBuf>,
    listener: Option<TcpListener>,
) {
    let mut next = Instant::now() + every;
    let mut latest = publish_snapshot(shared);
    while !shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(POLL_INTERVAL);
        if Instant::now() >= next {
            next += every;
            latest = publish_snapshot(shared);
            if let Some(path) = &json_path {
                let _ = std::fs::write(path, &latest);
            }
        }
        if let Some(listener) = &listener {
            while let Ok((stream, _)) = listener.accept() {
                serve_http_snapshot(stream, &latest);
            }
        }
    }
    if let Some(path) = &json_path {
        let _ = std::fs::write(path, publish_snapshot(shared));
    }
}

/// Answers one telemetry connection: read whatever request arrived,
/// reply HTTP/1.0 with the JSON body, close.
fn serve_http_snapshot(mut stream: TcpStream, body: &str) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut scratch = [0u8; 1024];
    let _ = stream.read(&mut scratch);
    let _ = write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_telemetry::check;
    use dike_wire::Message;

    #[test]
    fn wall_clock_is_monotonic_from_zero() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn udp_send_errors_fold_into_the_shared_count_without_erasing_tcp() {
        // Two TCP write failures are already on the shared record when
        // the UDP loop folds in three of its own.
        let mut stats = ServeStats {
            send_errors: 2,
            ..ServeStats::default()
        };
        let mut pending = 3;
        stats.fold_send_errors(&mut pending);
        assert_eq!((stats.send_errors, pending), (5, 0));
        // The next datagram's fold has nothing new to add.
        stats.fold_send_errors(&mut pending);
        assert_eq!(stats.send_errors, 5);
    }

    /// An in-memory connection: the peer's bytes in, the server's out.
    struct Pipe {
        from_peer: std::io::Cursor<Vec<u8>>,
        to_peer: Vec<u8>,
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.from_peer.read(buf)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.to_peer.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serves `from_peer` as one connection's whole input and returns the
    /// server's frames, each of which must be a decodable response.
    fn serve_bytes(from_peer: Vec<u8>) -> Vec<Message> {
        use dike_auth::CacheTestZone;
        let zone = CacheTestZone::new(60, &[std::net::Ipv4Addr::new(198, 51, 100, 1)]);
        let mut server = AuthServer::new().with_zone(Box::new(zone));
        server.set_cookie_secret(Some(7));
        let shared = Shared {
            core: Mutex::new(Core {
                server,
                gate: None,
                stats: ServeStats::default(),
                registry: MetricsRegistry::new(),
            }),
            clock: WallClock::new(),
        };
        let mut pipe = Pipe {
            from_peer: std::io::Cursor::new(from_peer),
            to_peer: Vec::new(),
        };
        serve_stream(&mut pipe, Addr(9), &shared, &AtomicBool::new(false));

        let mut replies = Vec::new();
        let mut rest = &pipe.to_peer[..];
        while !rest.is_empty() {
            let len = usize::from(u16::from_be_bytes([rest[0], rest[1]]));
            let reply =
                codec::decode(&rest[2..2 + len]).expect("the server frames what it encodes");
            assert!(reply.is_response);
            replies.push(reply);
            rest = &rest[2 + len..];
        }
        let stats = shared.core.lock().stats;
        assert_eq!(stats.tcp_queries, replies.len() as u64);
        replies
    }

    fn framed(msg: &Message) -> Vec<u8> {
        let wire = codec::encode(msg).unwrap();
        let mut frame = (wire.len() as u16).to_be_bytes().to_vec();
        frame.extend(wire);
        frame
    }

    fn query(id: u16) -> Message {
        let name = dike_wire::Name::parse("1414.cachetest.nl").unwrap();
        Message::query(id, name, dike_wire::RecordType::AAAA)
    }

    #[test]
    fn tcp_framing_never_panics_on_noise() {
        check::cases("tcp_framing_never_panics_on_noise", 256, |g| {
            // Whatever the first two bytes claim, the stream ends early,
            // on time or late; a length of zero frames an empty message.
            let mut noise = g.bytes(0..600);
            if g.bool() && noise.len() >= 2 {
                let claim = g.range(0..=noise.len() as u16 - 2);
                noise[..2].copy_from_slice(&claim.to_be_bytes());
            }
            serve_bytes(noise);
        });
    }

    #[test]
    fn tcp_framing_never_panics_on_a_damaged_conversation() {
        check::cases(
            "tcp_framing_never_panics_on_a_damaged_conversation",
            256,
            |g| {
                let queries: Vec<Message> = (1..=g.range(1..5u16)).map(query).collect();
                let mut stream: Vec<u8> = queries.iter().flat_map(framed).collect();
                assert_eq!(serve_bytes(stream.clone()).len(), queries.len());

                // One byte overwritten (a length prefix among them), then the
                // tail cut anywhere: never more replies than frames sent.
                let at = g.range(0..stream.len());
                stream[at] = g.range(0..=u8::MAX);
                stream.truncate(g.range(at..=stream.len()));
                assert!(serve_bytes(stream).len() <= queries.len());
            },
        );
    }

    #[test]
    fn peer_addr_drops_the_port() {
        let a: SocketAddr = "10.0.0.7:5353".parse().unwrap();
        let b: SocketAddr = "10.0.0.7:9".parse().unwrap();
        assert_eq!(addr_of_peer(a), addr_of_peer(b));
        assert_eq!(addr_of_peer(a), Addr(0x0a00_0007));
    }
}
