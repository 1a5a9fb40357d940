//! Record simulated authoritative traffic to a JSONL capture, then
//! replay it through the paper's §4.1 passive analysis — the ENTRADA
//! workflow (capture at the `.nl` servers, mine inter-arrivals offline)
//! in miniature.
//!
//! ```text
//! cargo run --release --example record_and_replay
//! ```

use std::io::BufWriter;

use dike::netsim::trace_io::{read_jsonl, replay, JsonlTraceWriter};
use dike::netsim::{trace, LatencyModel, LinkParams, LinkTable, SimDuration, Simulator};
use dike::stats::passive::PassiveAnalyzer;
use dike::wire::{Name, RecordType};

fn main() {
    // --- Phase 1: record. A small world: one authoritative zone with
    // five nameserver A records (the paper's ns1-ns5.dns.nl), a handful
    // of resolvers with different cache behaviours, Poisson-ish clients.
    let mut sim = Simulator::new(7);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::LogNormal {
            median: SimDuration::from_millis(12),
            sigma: 0.3,
        },
        loss: 0.0,
    });

    let zone_text = "\
$ORIGIN dns.nl.
$TTL 3600
@    IN SOA ns1 hostmaster 1 14400 3600 1209600 60
ns1  IN A 194.0.28.1
ns2  IN A 194.0.28.2
ns3  IN A 194.0.28.3
ns4  IN A 194.0.28.4
ns5  IN A 194.0.28.5
";
    let zone = dike::auth::zonefile::parse(zone_text, None).expect("valid zone");
    let (_, auth) = sim.add_node(Box::new(
        dike::auth::AuthServer::new().with_zone(Box::new(zone)),
    ));

    // Capture everything that reaches the authoritative.
    let capture_path = std::env::temp_dir().join("dike_capture.jsonl");
    let file = std::fs::File::create(&capture_path).expect("create capture file");
    let (writer, sink) = trace::shared(JsonlTraceWriter::new(BufWriter::new(file)));
    sim.add_sink(sink);

    // Resolvers + clients (a compressed version of the Figure 4 world).
    use dike::resolver::{profiles, RecursiveResolver};
    for i in 0..30 {
        let mut cfg = profiles::unbound_like(vec![auth]);
        if i % 7 == 0 {
            cfg.cache.max_ttl = 1800; // a TTL capper
        }
        // Every fifth resolver is a fragmented farm: a frontend over three
        // backends, each with its own cache.
        let farm = if i % 5 == 0 { 3 } else { 1 };
        let backends: Vec<_> = (0..farm)
            .map(|_| {
                sim.add_node(Box::new(RecursiveResolver::new(cfg.clone())))
                    .1
            })
            .collect();
        let r = if farm == 1 {
            backends[0]
        } else {
            let frontend = profiles::farm_frontend(backends);
            sim.add_node(Box::new(RecursiveResolver::new(frontend))).1
        };
        sim.add_node(Box::new(PollingClient {
            resolver: r,
            i,
            next_id: 0,
        }));
    }

    sim.run_until(SimDuration::from_secs(4 * 3600).after_zero());
    drop(sim);
    drop(
        std::sync::Arc::try_unwrap(writer)
            .unwrap_or_else(|_| panic!("single owner"))
            .into_inner(),
    );

    // --- Phase 2: replay offline.
    let bytes = std::fs::read(&capture_path).expect("read capture");
    println!(
        "captured {} KiB of traffic to {}",
        bytes.len() / 1024,
        capture_path.display()
    );
    let (rows, bad) = read_jsonl(std::io::Cursor::new(bytes));
    println!("{} rows ({bad} malformed)", rows.len());

    let names: Vec<Name> = (1..=5)
        .map(|i| Name::parse(&format!("ns{i}.dns.nl")).unwrap())
        .collect();
    let mut analyzer = PassiveAnalyzer::new([auth], names, RecordType::A);
    replay(&rows, &mut analyzer);
    let report = analyzer.analyze(3600, 5);

    println!(
        "\npassive analysis (paper 4.1): {} sources analyzed, {} queries",
        report.analyzed_sources, report.total_queries
    );
    println!(
        "AA (refreshed at/after TTL): {}   AC (early refetch): {}",
        report.aa_intervals, report.ac_intervals
    );
    println!(
        "median-dt mass within 10% of the TTL: {:.0}%  (paper: the largest peak)",
        report.frac_at_ttl * 100.0
    );
}

/// A client that queries one of the five names every 45-90 seconds.
struct PollingClient {
    resolver: dike::netsim::Addr,
    i: u64,
    next_id: u16,
}

impl dike::netsim::Node for PollingClient {
    fn on_start(&mut self, ctx: &mut dike::netsim::Context<'_>) {
        ctx.set_timer(
            SimDuration::from_secs(self.i % 40),
            dike::netsim::TimerToken(0),
        );
    }
    fn on_datagram(
        &mut self,
        _ctx: &mut dike::netsim::Context<'_>,
        _src: dike::netsim::Addr,
        _msg: &dike::wire::Message,
        _l: usize,
    ) {
    }
    fn on_timer(&mut self, ctx: &mut dike::netsim::Context<'_>, _t: dike::netsim::TimerToken) {
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let n = ctx.rng().random_range(1..=5u32);
        ctx.send(
            self.resolver,
            &dike::wire::Message::query(
                self.next_id,
                Name::parse(&format!("ns{n}.dns.nl")).unwrap(),
                RecordType::A,
            ),
        );
        let gap = ctx.rng().random_range(45..90);
        ctx.set_timer(SimDuration::from_secs(gap), dike::netsim::TimerToken(0));
    }
}
