//! Paper §6.2 / Fig. 16: how much BIND-like and Unbound-like resolvers
//! query each level of the hierarchy, with the authoritatives up and
//! under complete failure.

use std::collections::HashMap;
use std::sync::Arc;

use dike_netsim::trace::{Disposition, TraceSink};
use dike_netsim::{Addr, Context, Node, SimDuration, SimTime, Simulator, TimerToken};
use dike_resolver::{profiles, RecursiveResolver, ResolverConfig};
use dike_wire::{Message, Name, RecordType};

use crate::topology::add_hierarchy;

/// Which software profile to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Software {
    /// BIND 9.10-like.
    Bind,
    /// Unbound 1.5.8-like.
    Unbound,
}

impl Software {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Software::Bind => "BIND",
            Software::Unbound => "Unbound",
        }
    }

    fn config(self, roots: Vec<Addr>) -> ResolverConfig {
        match self {
            Software::Bind => profiles::bind_like(roots),
            Software::Unbound => profiles::unbound_like(roots),
        }
    }
}

/// Fig. 16's bars: queries offered to each hierarchy level for one cold
/// resolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBreakdown {
    /// Queries to the root server.
    pub to_root: u64,
    /// Queries to the `nl` TLD server (the paper's `.net`).
    pub to_tld: u64,
    /// Queries to the `cachetest.nl` authoritatives.
    pub to_target: u64,
}

impl QueryBreakdown {
    /// All queries.
    pub fn total(&self) -> u64 {
        self.to_root + self.to_tld + self.to_target
    }
}

/// Counts queries per destination address.
#[derive(Debug)]
struct PerDstCounter {
    counts: HashMap<Addr, u64>,
}

impl TraceSink for PerDstCounter {
    fn observe(
        &mut self,
        _now: SimTime,
        _src: Addr,
        dst: Addr,
        msg: Option<&Message>,
        _wire_len: usize,
        _disposition: Disposition,
    ) {
        if msg.is_some_and(|m| !m.is_response) {
            *self.counts.entry(dst).or_insert(0) += 1;
        }
    }
}

/// A one-shot client that fires a single recursive query at `t`=1 s.
struct OneShot {
    resolver: Addr,
    qname: Name,
}

impl Node for OneShot {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs(1), TimerToken(0));
    }
    fn on_datagram(&mut self, _ctx: &mut Context<'_>, _src: Addr, _msg: &Message, _l: usize) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        ctx.send(
            self.resolver,
            &Message::query(1, self.qname.clone(), RecordType::AAAA),
        );
    }
}

/// Runs one cold-cache resolution of `sub.cachetest.nl` and counts the
/// queries offered to each hierarchy level. With `ddos`, both target
/// authoritatives are fully blackholed before the query fires.
pub(crate) fn run_software(software: Software, ddos: bool, seed: u64) -> QueryBreakdown {
    let mut sim = Simulator::new(seed);
    let (root, nl, ns) = add_hierarchy(&mut sim, 3600);
    let (_, resolver) = sim.add_node(Box::new(RecursiveResolver::new(
        software.config(vec![root]),
    )));
    sim.add_node(Box::new(OneShot {
        resolver,
        qname: Name::parse("77.cachetest.nl").expect("static"),
    }));
    let (counter, sink) = dike_netsim::trace::shared(PerDstCounter {
        counts: HashMap::new(),
    });
    sim.add_sink(sink);
    if ddos {
        sim.links_mut().set_ingress_loss(ns[0], 1.0);
        sim.links_mut().set_ingress_loss(ns[1], 1.0);
    }
    sim.run_until(SimDuration::from_mins(5).after_zero());
    drop(sim);
    let counts = Arc::try_unwrap(counter)
        .expect("one owner")
        .into_inner()
        .counts;
    QueryBreakdown {
        to_root: counts.get(&root).copied().unwrap_or(0),
        to_tld: counts.get(&nl).copied().unwrap_or(0),
        to_target: counts.get(&ns[0]).copied().unwrap_or(0)
            + counts.get(&ns[1]).copied().unwrap_or(0),
    }
}

/// Runs `reps` repetitions (distinct seeds) and returns the mean
/// breakdown, as the paper repeated its 100 trials.
pub fn run_software_mean(software: Software, ddos: bool, reps: u64) -> QueryBreakdown {
    let mut sum = QueryBreakdown::default();
    for seed in 0..reps.max(1) {
        let b = run_software(software, ddos, 1000 + seed);
        sum.to_root += b.to_root;
        sum.to_tld += b.to_tld;
        sum.to_target += b.to_target;
    }
    QueryBreakdown {
        to_root: sum.to_root / reps.max(1),
        to_tld: sum.to_tld / reps.max(1),
        to_target: sum.to_target / reps.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_operation_takes_a_handful_of_queries() {
        let bind = run_software(Software::Bind, false, 1);
        // Walk the hierarchy once (1 query to the root), then the target
        // query plus glue-validating infra lookups at the TLD and target.
        assert_eq!(bind.to_root, 1, "{bind:?}");
        assert!((1..=2).contains(&bind.to_tld), "{bind:?}");
        assert!((1..=4).contains(&bind.to_target), "{bind:?}");
        assert!(bind.total() <= 8, "{bind:?}");

        let unbound = run_software(Software::Unbound, false, 1);
        assert!(
            unbound.total() >= bind.total(),
            "unbound probes more: {unbound:?} vs {bind:?}"
        );
    }

    #[test]
    fn failure_multiplies_queries_and_unbound_exceeds_bind() {
        let bind_up = run_software_mean(Software::Bind, false, 5);
        let bind_down = run_software_mean(Software::Bind, true, 5);
        let unbound_down = run_software_mean(Software::Unbound, true, 5);
        // Paper: BIND 3 → 12 (4×), Unbound 5–6 → up to 46. Our profiles
        // differ in the absolute counts (EXPERIMENTS.md records the
        // deviation) but the shape must hold: failure multiplies traffic
        // and Unbound retries hardest.
        assert!(
            bind_down.total() as f64 >= bind_up.total() as f64 * 2.0,
            "bind {bind_up:?} -> {bind_down:?}"
        );
        assert!(
            unbound_down.total() > bind_down.total(),
            "unbound retries hardest: {unbound_down:?} vs {bind_down:?}"
        );
        assert!(
            unbound_down.to_target as f64 >= 2.0 * bind_down.to_target as f64 / 2.0,
            "unbound hammers the target: {unbound_down:?}"
        );
    }
}
