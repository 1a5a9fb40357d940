//! The `serve-udp` workload: the release `dike-serve` binary hosting a
//! seeded zone, driven over loopback by one client thread and one UDP
//! socket in a closed loop with a fixed window of outstanding queries.
//!
//! Closed loop because the callers being modelled — resolvers — each wait
//! for a reply; with the server thread saturated the window makes median
//! latency ≡ window / throughput (Little), which is why latency is a
//! layer metric here and throughput the end-to-end one. Loopback only:
//! nothing about wire latency is claimed.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use dike_auth::{zonefile, AuthServer};
use dike_defense::{Defense, DefensePlan, RrlConfig};
use dike_netsim::{Addr, SimTime};
use dike_wire::Message;

use crate::gen::{self, Template};
use crate::metrics::Outcome;
use crate::numeric::{median, percentile, relative_spread};
use crate::trace::Tracer;
use crate::{os, replay, Fault, RunOptions, REPS, SMOKE_DIVISOR};

/// Host names in the served zone.
const ZONE_NAMES: usize = 100_000;
/// Queries per repetition (fixed work).
const QUERIES_PER_REP: usize = 600_000;
/// Distinct pre-encoded queries the send order draws from.
const TEMPLATES: usize = 4_096;
/// Outstanding queries in the closed loop.
const WINDOW: usize = 16;
/// A query unanswered for this long has failed; it is not retransmitted.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(1);
/// How long a spawned server may take to report its sockets.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Set-ups per run: one before each repetition and the rest on their
/// own; the median is reported.
const SETUPS: u32 = 9;

/// A child process that is killed and reaped when dropped, on every
/// exit path including a panic.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A spawned `dike-serve` that has reported its sockets.
struct Server {
    child: Reaped,
    /// Kept open so the server never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    udp: SocketAddr,
    tcp: Option<SocketAddr>,
    spawned: Instant,
    /// Seconds from spawn to the server reporting its sockets.
    start_s: f64,
}

/// The `dike-serve` binary built next to this harness.
fn server_binary() -> PathBuf {
    let me = std::env::current_exe().expect("own path");
    me.with_file_name("dike-serve")
}

impl Server {
    /// Spawns the server on ephemeral loopback ports and waits for it to
    /// report them on stderr (it binds after parsing the zone file).
    fn spawn(zonefile: &Path, tcp: bool, plan: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(server_binary());
        cmd.args(["--bind", "127.0.0.1:0", "--zonefile"])
            .arg(zonefile);
        if tcp {
            cmd.args(["--tcp-bind", "127.0.0.1:0"]);
        }
        if let Some(plan) = plan {
            cmd.arg("--plan").arg(plan);
        }
        let spawned = Instant::now();
        let mut child = Reaped(
            cmd.stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", server_binary().display()))?,
        );
        let mut stderr = BufReader::new(child.0.stderr.take().expect("stderr is piped"));
        let (mut udp, mut tcp_addr) = (None, None);
        let mut line = String::new();
        while udp.is_none() || (tcp && tcp_addr.is_none()) {
            line.clear();
            let n = stderr
                .read_line(&mut line)
                .map_err(|e| format!("read server stderr: {e}"))?;
            if n == 0 {
                return Err("dike-serve exited before listening".to_owned());
            }
            if spawned.elapsed() > START_TIMEOUT {
                return Err("dike-serve did not listen in time".to_owned());
            }
            let parse = |prefix: &str| -> Option<SocketAddr> {
                line.trim().split(prefix).nth(1)?.parse().ok()
            };
            if let Some(a) = parse("listening on udp://") {
                udp = Some(a);
            } else if let Some(a) = parse("listening on tcp://") {
                tcp_addr = Some(a);
            }
        }
        Ok(Server {
            child,
            _stderr: stderr,
            udp: udp.expect("loop ends with the udp address"),
            tcp: tcp_addr,
            spawned,
            start_s: spawned.elapsed().as_secs_f64(),
        })
    }

    fn pid(&self) -> u32 {
        self.child.0.id()
    }
}

/// What one closed-loop pass saw.
#[derive(Debug, Default)]
struct LoopResult {
    /// Answers byte-identical to the reference.
    correct: u64,
    /// Answers that differed from the reference.
    mismatches: u64,
    /// Queries unanswered within [`ANSWER_TIMEOUT`].
    timeouts: u64,
    /// First query sent → last answer received, seconds.
    elapsed_s: f64,
}

/// The client: one connected UDP socket, the templates, the send order.
struct Client<'a> {
    socket: UdpSocket,
    templates: &'a [Template],
    order: &'a [u16],
}

impl<'a> Client<'a> {
    fn connect(server: SocketAddr, templates: &'a [Template], order: &'a [u16]) -> Client<'a> {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
        socket.connect(server).expect("connect loopback");
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("set timeout");
        Client {
            socket,
            templates,
            order,
        }
    }

    /// Sends the first `count` queries of the order, never more than
    /// `window` outstanding, checking every answer against its
    /// reference. With `latencies`, records each answered query's
    /// microseconds.
    fn closed_loop(
        &self,
        count: usize,
        window: usize,
        mut latencies: Option<&mut Vec<f64>>,
    ) -> LoopResult {
        let mut result = LoopResult::default();
        // Message IDs are the low 16 bits of the send sequence; with at
        // most `window` queries outstanding they never collide.
        let mut awaiting: Vec<Option<u16>> = vec![None; 1 << 16];
        let mut in_flight: VecDeque<(u16, Instant)> = VecDeque::with_capacity(window);
        let mut scratch = [0u8; 512];
        let mut answer = [0u8; 4096];
        let mut next = 0usize;
        let mut outstanding = 0usize;
        let start = Instant::now();
        let mut last_answer = start;
        while next < count || outstanding > 0 {
            while outstanding < window && next < count {
                let template = self.order[next];
                let query = &self.templates[usize::from(template)].query;
                let id = next as u16;
                let wire = &mut scratch[..query.len()];
                wire.copy_from_slice(query);
                wire[..2].copy_from_slice(&id.to_be_bytes());
                self.socket.send(wire).expect("loopback send");
                awaiting[usize::from(id)] = Some(template);
                in_flight.push_back((id, Instant::now()));
                outstanding += 1;
                next += 1;
            }
            match self.socket.recv(&mut answer) {
                Ok(len) if len >= 2 => {
                    let id = u16::from_be_bytes([answer[0], answer[1]]);
                    // A stray answer (to a query already timed out) is
                    // not counted twice.
                    if let Some(template) = awaiting[usize::from(id)].take() {
                        let expected = &self.templates[usize::from(template)].expected;
                        if answer[2..len] == expected[2..] {
                            result.correct += 1;
                        } else {
                            result.mismatches += 1;
                        }
                        outstanding -= 1;
                        last_answer = Instant::now();
                        if let Some(l) = latencies.as_deref_mut() {
                            if let Some((_, sent)) = in_flight.iter().find(|(i, _)| *i == id) {
                                l.push((last_answer - *sent).as_secs_f64() * 1e6);
                            }
                        }
                    }
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => panic!("loopback recv: {e}"),
            }
            // Retire the front of the send-ordered queue: answered
            // entries leave, and an unanswered one older than the
            // timeout has failed.
            while let Some((id, sent)) = in_flight.front().copied() {
                if awaiting[usize::from(id)].is_none() {
                    in_flight.pop_front();
                } else if sent.elapsed() > ANSWER_TIMEOUT {
                    awaiting[usize::from(id)] = None;
                    in_flight.pop_front();
                    result.timeouts += 1;
                    outstanding -= 1;
                } else {
                    break;
                }
            }
        }
        result.elapsed_s = (last_answer - start).as_secs_f64();
        result
    }
}

/// One RFC 7766 exchange on `stream`; true when the answer matches.
fn tcp_exchange(stream: &mut TcpStream, template: &Template, id: u16) -> std::io::Result<bool> {
    let mut frame = Vec::with_capacity(template.query.len() + 2);
    frame.extend_from_slice(&(template.query.len() as u16).to_be_bytes());
    frame.extend_from_slice(&template.query);
    frame[2..4].copy_from_slice(&id.to_be_bytes());
    stream.write_all(&frame)?;
    let mut len = [0u8; 2];
    stream.read_exact(&mut len)?;
    let mut body = vec![0u8; usize::from(u16::from_be_bytes(len))];
    stream.read_exact(&mut body)?;
    Ok(body.len() >= 2 && body[..2] == id.to_be_bytes() && body[2..] == template.expected[2..])
}

/// The generated inputs of one run.
struct Inputs {
    zonefile: PathBuf,
    templates: Vec<Template>,
    order: Vec<u16>,
    /// Seconds `zonefile::parse` took on the generated text, in process.
    zone_parse_s: f64,
    /// The reference server, for the traced replay.
    reference: AuthServer,
    /// The template queries as messages, for the traced replay.
    queries: Vec<Message>,
}

/// The zone file is several megabytes per seed; it goes when the run does.
impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.zonefile);
    }
}

fn make_inputs(opts: &RunOptions, queries_per_rep: usize) -> Result<Inputs, String> {
    let shrink = if opts.smoke { SMOKE_DIVISOR } else { 1 };
    let (zone, hosts) = gen::zone(opts.seed, ZONE_NAMES / shrink);
    let text = zone.to_zonefile();
    let dir = Path::new(&opts.out_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let zonefile = dir.join(format!("zone-{}.zone", opts.seed));
    std::fs::write(&zonefile, &text).map_err(|e| format!("write {}: {e}", zonefile.display()))?;

    // The reference is built from the same text the server will read.
    let t0 = Instant::now();
    let parsed = zonefile::parse(&text, None).map_err(|e| format!("generated zone: {e}"))?;
    let zone_parse_s = t0.elapsed().as_secs_f64();
    let mut reference = AuthServer::new().with_zone(Box::new(parsed));

    let queries = gen::query_mix(opts.seed, &hosts, TEMPLATES);
    let mut templates = gen::templates(&queries, |q| reference.handle_query(SimTime::ZERO, q));
    let order = gen::send_order(opts.seed, templates.len(), queries_per_rep);
    if opts.inject == Some(Fault::CorruptAnswer) {
        // Not the template of the first send, which the set-up probe
        // uses: the fault should surface in the timed loop's own count.
        let victim = order
            .iter()
            .find(|t| **t != order[0])
            .map_or(0, |t| usize::from(*t));
        let last = templates[victim].expected.len() - 1;
        templates[victim].expected[last] ^= 0x01;
    }
    Ok(Inputs {
        zonefile,
        templates,
        order,
        zone_parse_s,
        reference,
        queries,
    })
}

/// One repetition: a fresh server, its set-up, the timed closed loop.
struct Rep {
    /// Spawn → first correct answer, seconds (zone-file parse included).
    setup_s: f64,
    /// Spawn → sockets reported, seconds.
    start_s: f64,
    /// The closed loop.
    run: LoopResult,
    /// Server user + system CPU seconds over the closed loop.
    cpu_s: f64,
    /// Server peak resident set, MiB.
    peak_rss_mb: f64,
}

/// A set-up: spawns a server on `inputs`' zone file and waits for its
/// first correct answer. Returns the seconds that took with the pair.
fn set_up<'a>(
    inputs: &'a Inputs,
    plan: Option<&Path>,
) -> Result<(Server, Client<'a>, f64), String> {
    let server = Server::spawn(&inputs.zonefile, false, plan)?;
    let client = Client::connect(server.udp, &inputs.templates, &inputs.order);
    let first = client.closed_loop(1, 1, None);
    if first.correct != 1 {
        return Err(format!(
            "first answer after start was wrong or missing: {first:?}"
        ));
    }
    let setup_s = server.spawned.elapsed().as_secs_f64();
    Ok((server, client, setup_s))
}

fn run_rep(inputs: &Inputs, count: usize, plan: Option<&Path>) -> Result<Rep, String> {
    let (server, client, setup_s) = set_up(inputs, plan)?;
    let cpu0 = os::cpu_seconds(Some(server.pid()));
    let run = client.closed_loop(count, WINDOW, None);
    let cpu_s = os::cpu_seconds(Some(server.pid())) - cpu0;
    Ok(Rep {
        setup_s,
        start_s: server.start_s,
        run,
        cpu_s,
        peak_rss_mb: os::peak_rss_mb(Some(server.pid())),
    })
}

/// Runs `serve-udp`: [`REPS`] fresh-server repetitions, the byte-identity
/// gate, the end-to-end metrics, and — with `opts.trace` — the extra
/// traced pass.
pub fn run(opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let count = QUERIES_PER_REP / if opts.smoke { SMOKE_DIVISOR } else { 1 };
    let inputs = match make_inputs(opts, count) {
        Ok(i) => i,
        Err(why) => {
            out.attempted = 1;
            out.fail(why);
            return out;
        }
    };

    let mut reps = Vec::new();
    for _ in 0..REPS {
        match run_rep(&inputs, count, None) {
            Ok(rep) => reps.push(rep),
            Err(why) => out.fail(why),
        }
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    for _ in REPS..if opts.smoke { REPS } else { SETUPS } {
        match set_up(&inputs, None) {
            Ok((_, _, setup_s)) => setups.push(setup_s),
            Err(why) => out.fail(why),
        }
    }
    out.attempted = (count * REPS as usize) as u64;
    if reps.is_empty() {
        return out;
    }
    let mismatches: u64 = reps.iter().map(|r| r.run.mismatches).sum();
    let timeouts: u64 = reps.iter().map(|r| r.run.timeouts).sum();
    out.failed = mismatches + timeouts;
    out.check(mismatches == 0, || {
        format!("{mismatches} answers differed from the in-process reference")
    });

    let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let time_to_result_s = med(|r| r.run.elapsed_s);
    let throughput = med(|r| r.run.correct as f64 / r.run.elapsed_s);
    let cpu_s = med(|r| r.cpu_s);
    out.set("time_to_result_s", time_to_result_s);
    out.set("throughput", throughput);
    out.set("setup_s", median(&setups));
    out.set("cpu_s", cpu_s);
    out.set("peak_rss_mb", med(|r| r.peak_rss_mb));

    if opts.trace {
        let ttrs: Vec<f64> = reps.iter().map(|r| r.run.elapsed_s).collect();
        out.set("harness.rep_spread", relative_spread(&ttrs));
        out.set("serve.start_s", med(|r| r.start_s));
        let cpu_us_per_query = cpu_s * 1e6 / count as f64;
        out.set("serve.cpu_us_per_query", cpu_us_per_query);
        out.set("serve.busy_share", cpu_us_per_query * throughput / 1e6);
        out.set("serve.timeouts", timeouts as f64);
        out.set("serve.mismatches", mismatches as f64);
        out.set("auth.zone_parse_s", inputs.zone_parse_s);
        out.set("auth.queries", count as f64);
        if let Err(why) = traced_run(opts, inputs, count, time_to_result_s, &mut out) {
            out.fail(why);
        }
    }
    out
}

/// The extra pass `--trace` makes: the same closed loop with per-query
/// timestamps, the same server used differently (window 1, TCP, a gate
/// mounted), and the template traffic replayed through `wire` and `auth`.
fn traced_run(
    opts: &RunOptions,
    mut inputs: Inputs,
    count: usize,
    untraced_ttr_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let shrink = if opts.smoke { SMOKE_DIVISOR } else { 1 };
    let mut tracer = Tracer::new(format!("serve-udp-{}", opts.seed));
    let result = tracer
        .span("trace.pass", None, |tracer, me| {
            let r = (|| -> Result<(), String> {
                let (server, _) = tracer.span("serve.spawn", Some(me), |_, _| {
                    (Server::spawn(&inputs.zonefile, true, None), 1)
                });
                let server = server?;
                let client = Client::connect(server.udp, &inputs.templates, &inputs.order);

                let mut latencies = Vec::with_capacity(count);
                let (traced, _) = tracer.span("serve.closed_loop", Some(me), |_, _| {
                    let r = client.closed_loop(count, WINDOW, Some(&mut latencies));
                    let n = r.correct;
                    (r, n)
                });
                out.set(
                    "harness.tracing_overhead",
                    traced.elapsed_s / untraced_ttr_s,
                );
                out.set("serve.latency_p99_us", percentile(&latencies, 99.0));

                let mut rtts = Vec::new();
                tracer.span("serve.udp_window1", Some(me), |_, _| {
                    let r = client.closed_loop(50_000 / shrink, 1, Some(&mut rtts));
                    ((), r.correct)
                });
                out.set("serve.udp_rtt_p50_us", percentile(&rtts, 50.0));
                out.set("serve.udp_rtt_p99_us", percentile(&rtts, 99.0));

                // One persistent RFC 7766 connection.
                let tcp = server.tcp.expect("spawned with --tcp-bind");
                let io = |e: std::io::Error| format!("tcp to {tcp}: {e}");
                let n_tcp = 20_000 / shrink;
                let (tcp_result, _) = tracer.span("serve.tcp_persistent", Some(me), |_, _| {
                    let r = (|| -> Result<(Vec<f64>, u64), String> {
                        let mut stream = TcpStream::connect(tcp).map_err(io)?;
                        stream.set_nodelay(true).map_err(io)?;
                        stream.set_read_timeout(Some(ANSWER_TIMEOUT)).map_err(io)?;
                        let mut rtts = Vec::with_capacity(n_tcp);
                        let mut wrong = 0;
                        for i in 0..n_tcp {
                            let template = &inputs.templates[usize::from(inputs.order[i])];
                            let t0 = Instant::now();
                            if !tcp_exchange(&mut stream, template, i as u16).map_err(io)? {
                                wrong += 1;
                            }
                            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        Ok((rtts, wrong))
                    })();
                    (r, n_tcp as u64)
                });
                let (tcp_rtts, mut tcp_wrong) = tcp_result?;
                out.set("serve.tcp_rtt_p50_us", percentile(&tcp_rtts, 50.0));

                // Connect + query + close, per query.
                let n_conn = 200 / shrink.min(10);
                let (conn_result, _) = tracer.span("serve.tcp_per_query", Some(me), |_, _| {
                    let r = (|| -> Result<(Vec<f64>, u64), String> {
                        let mut costs = Vec::with_capacity(n_conn);
                        let mut wrong = 0;
                        for i in 0..n_conn {
                            let template = &inputs.templates[usize::from(inputs.order[i])];
                            let t0 = Instant::now();
                            let mut stream = TcpStream::connect(tcp).map_err(io)?;
                            stream.set_nodelay(true).map_err(io)?;
                            stream.set_read_timeout(Some(ANSWER_TIMEOUT)).map_err(io)?;
                            if !tcp_exchange(&mut stream, template, i as u16).map_err(io)? {
                                wrong += 1;
                            }
                            drop(stream);
                            costs.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                        Ok((costs, wrong))
                    })();
                    (r, n_conn as u64)
                });
                let (conn_costs, conn_wrong) = conn_result?;
                tcp_wrong += conn_wrong;
                out.set("serve.tcp_conn_per_query_us", median(&conn_costs));
                out.check(tcp_wrong == 0, || {
                    format!("{tcp_wrong} TCP answers differed from the reference")
                });
                drop(client);
                drop(server);

                // The same traffic with an ingress gate mounted: an RRL
                // whose rate nothing on loopback reaches, so every query
                // pays the verdict and none is refused.
                let plan = DefensePlan::new().with(Defense::rrl(
                    Addr(0x7f00_0001),
                    RrlConfig {
                        rate_qps: 1e9,
                        burst: 1e9,
                        slip: 2,
                        prefix_bits: 24,
                    },
                ));
                let plan_path = Path::new(&opts.out_dir).join("plan-rrl.json");
                std::fs::write(&plan_path, plan.to_json())
                    .map_err(|e| format!("write {}: {e}", plan_path.display()))?;
                let (gated, _) = tracer.span("serve.gated", Some(me), |_, _| {
                    (run_rep(&inputs, count, Some(&plan_path)), count as u64)
                });
                let gated = gated?;
                out.check(gated.run.correct == count as u64, || {
                    format!("gated server answered {} of {count}", gated.run.correct)
                });
                out.set(
                    "serve.gated_cpu_us_per_query",
                    gated.cpu_s * 1e6 / count as f64,
                );
                Ok(())
            })();

            // Replay the template traffic through the layers in process,
            // in the server's directions: it decodes the queries and
            // encodes the answers.
            let reference = &mut inputs.reference;
            let queries = &inputs.queries;
            let answers: Vec<Message> = queries
                .iter()
                .map(|q| reference.handle_query(SimTime::ZERO, q))
                .collect();
            let query_wires: Vec<Vec<u8>> =
                inputs.templates.iter().map(|t| t.query.clone()).collect();
            let (encode_ns, decode_ns) = replay::wire_costs(
                tracer,
                me,
                &answers.iter().collect::<Vec<_>>(),
                &query_wires,
            );
            out.set("wire.encode_ns", encode_ns);
            out.set("wire.decode_ns", decode_ns);
            let ((), span) = tracer.span("auth.handle_query", Some(me), |_, _| {
                for q in queries {
                    std::hint::black_box(reference.handle_query(SimTime::ZERO, q));
                }
                ((), queries.len() as u64)
            });
            out.set("auth.handle_query_ns", tracer.get(span).ns_per_op());
            (r, 1)
        })
        .0;

    let path = Path::new(&opts.out_dir).join("trace-serve-udp.jsonl");
    tracer
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_wire::codec;

    fn smoke(tag: &str, inject: Option<Fault>) -> RunOptions {
        RunOptions {
            seed: 42,
            trace: false,
            smoke: true,
            inject,
            out_dir: crate::test_dir(tag),
        }
    }

    /// The closed loop against an in-process UDP echo of the reference:
    /// exercises windowing, ID patching and byte comparison without the
    /// server binary (which `cargo test` does not build first).
    fn with_reference_server(tag: &str, corrupt: bool, f: impl FnOnce(SocketAddr, &Inputs)) {
        let opts = smoke(tag, corrupt.then_some(Fault::CorruptAnswer));
        let inputs = make_inputs(&opts, 2_000).expect("inputs");
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = socket.local_addr().unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let text = std::fs::read_to_string(&inputs.zonefile).unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = stop.clone();
        let server = std::thread::spawn(move || {
            let mut auth =
                AuthServer::new().with_zone(Box::new(zonefile::parse(&text, None).unwrap()));
            let mut buf = [0u8; 4096];
            while !stop2.load(std::sync::atomic::Ordering::SeqCst) {
                let Ok((len, peer)) = socket.recv_from(&mut buf) else {
                    continue;
                };
                let q = codec::decode(&buf[..len]).unwrap();
                let resp = codec::encode(&auth.handle_query(SimTime::ZERO, &q)).unwrap();
                socket.send_to(&resp, peer).unwrap();
            }
        });
        f(addr, &inputs);
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn closed_loop_verifies_every_answer() {
        with_reference_server("serve-ok", false, |addr, inputs| {
            let client = Client::connect(addr, &inputs.templates, &inputs.order);
            let mut lat = Vec::new();
            let r = client.closed_loop(2_000, WINDOW, Some(&mut lat));
            assert_eq!((r.correct, r.mismatches, r.timeouts), (2_000, 0, 0));
            assert_eq!(lat.len(), 2_000);
            assert!(r.elapsed_s > 0.0);
        });
    }

    #[test]
    fn one_corrupted_expected_answer_is_caught() {
        with_reference_server("serve-corrupt", true, |addr, inputs| {
            let client = Client::connect(addr, &inputs.templates, &inputs.order);
            let r = client.closed_loop(2_000, WINDOW, None);
            assert!(r.mismatches >= 1, "{r:?}");
            assert_eq!(r.correct + r.mismatches, 2_000);
        });
    }

    #[test]
    fn unanswered_queries_time_out_and_are_not_retransmitted() {
        let opts = smoke("serve-timeout", None);
        let inputs = make_inputs(&opts, 8).expect("inputs");
        // A bound socket nobody reads from: every query is lost.
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(sink.local_addr().unwrap(), &inputs.templates, &inputs.order);
        let r = client.closed_loop(8, 4, None);
        assert_eq!((r.correct, r.timeouts), (0, 8));
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
