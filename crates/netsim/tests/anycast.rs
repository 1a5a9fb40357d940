//! Anycast behaviour end to end: catchment routing, replies from the
//! VIP, and per-site attacks that only affect their own catchment.

use std::sync::Arc;

use dike_telemetry::sync::Mutex;

use dike_netsim::{
    Addr, Context, LatencyModel, LinkParams, LinkTable, Node, SimDuration, Simulator, TimerToken,
};
use dike_wire::{Message, Name, RData, Record, RecordType};

/// An answering site that tags its responses with its site number so the
/// test can see which member served each client.
struct Site {
    site_no: u8,
}

impl Node for Site {
    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if msg.is_response {
            return;
        }
        let mut resp = Message::response_to(msg);
        resp.authoritative = true;
        resp.answers.push(Record::new(
            msg.question().unwrap().name.clone(),
            60,
            RData::A(std::net::Ipv4Addr::new(10, 99, 0, self.site_no)),
        ));
        ctx.send(src, &resp);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _t: TimerToken) {}
}

/// A client that queries the VIP once and records (answered, site, src).
struct Client {
    vip: Addr,
    result: Arc<Mutex<Option<(u8, Addr)>>>,
}

impl Node for Client {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, src: Addr, msg: &Message, _l: usize) {
        if let Some(RData::A(a)) = msg.answers.first().map(|r| &r.rdata) {
            *self.result.lock() = Some((a.octets()[3], src));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: TimerToken) {
        ctx.send(
            self.vip,
            &Message::query(1, Name::parse("x.nl").unwrap(), RecordType::A),
        );
    }
}

/// Per-client observation handle: (site number, response source).
type ClientResult = Arc<Mutex<Option<(u8, Addr)>>>;

fn build(
    n_sites: u8,
    n_clients: usize,
    seed: u64,
) -> (Simulator, Addr, Vec<Addr>, Vec<ClientResult>) {
    let mut sim = Simulator::new(seed);
    *sim.links_mut() = LinkTable::new(LinkParams {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: 0.0,
    });
    let mut ids = Vec::new();
    let mut site_addrs = Vec::new();
    for s in 0..n_sites {
        let (id, addr) = sim.add_node(Box::new(Site { site_no: s }));
        ids.push(id);
        site_addrs.push(addr);
    }
    let vip = sim.add_anycast_group(&ids);
    let mut results = Vec::new();
    for _ in 0..n_clients {
        let result = Arc::new(Mutex::new(None));
        sim.add_node(Box::new(Client {
            vip,
            result: result.clone(),
        }));
        results.push(result);
    }
    (sim, vip, site_addrs, results)
}

#[test]
fn clients_spread_over_sites_and_replies_come_from_the_vip() {
    let (mut sim, vip, _sites, results) = build(4, 60, 1);
    sim.run_until(SimDuration::from_secs(10).after_zero());

    let mut seen_sites = std::collections::HashSet::new();
    for r in &results {
        let (site, src) = r.lock().expect("every client answered");
        assert_eq!(src, vip, "responses must come from the anycast address");
        seen_sites.insert(site);
    }
    assert!(
        seen_sites.len() >= 3,
        "catchments spread over sites: {seen_sites:?}"
    );
}

#[test]
fn same_client_always_lands_on_the_same_site() {
    // Run twice with the same topology: catchment is a pure function of
    // (source, vip), so the site assignment is identical.
    let collect = |seed| {
        let (mut sim, _vip, _sites, results) = build(4, 30, seed);
        sim.run_until(SimDuration::from_secs(10).after_zero());
        results
            .iter()
            .map(|r| r.lock().expect("answered").0)
            .collect::<Vec<u8>>()
    };
    assert_eq!(collect(1), collect(2), "catchment ignores the RNG seed");
}

#[test]
fn per_site_attack_only_kills_its_own_catchment() {
    let (mut sim, _vip, sites, results) = build(4, 80, 3);
    // Blackhole site 0 before anyone queries.
    let victim = sites[0];
    sim.links_mut().set_ingress_loss(victim, 1.0);
    sim.run_until(SimDuration::from_secs(10).after_zero());

    let mut answered_by_site = std::collections::HashMap::new();
    let mut unanswered = 0;
    for r in &results {
        match *r.lock() {
            Some((site, _)) => *answered_by_site.entry(site).or_insert(0usize) += 1,
            None => unanswered += 1,
        }
    }
    // Site 0's catchment (~1/4 of clients) got nothing; everyone else
    // was untouched — the paper's description of the Nov 2015 root DDoS,
    // where some letters/sites failed while others served normally.
    assert!(unanswered > 8, "site-0 catchment starved: {unanswered}");
    assert!(!answered_by_site.contains_key(&0), "site 0 never answers");
    let served: usize = answered_by_site.values().sum();
    assert_eq!(served + unanswered, 80);
    assert!(served > 45, "other catchments unaffected: {served}");
}

#[test]
fn vip_wide_attack_hits_every_catchment() {
    let (mut sim, vip, _sites, results) = build(4, 40, 4);
    sim.links_mut().set_ingress_loss(vip, 1.0);
    sim.run_until(SimDuration::from_secs(10).after_zero());
    assert!(
        results.iter().all(|r| r.lock().is_none()),
        "a filter on the VIP drops everything"
    );
}
