//! IP anycast: one address, many sites.
//!
//! The paper's background (§2.2) and implications (§8) lean on anycast:
//! each DNS "server" (a root letter, a provider's NS) is one IP address
//! announced from many sites, with BGP pinning each client to a site —
//! the *catchment*. Catchments are "very stable across the Internet"
//! (§2.2, citing Wei & Heidemann), and a DDoS overwhelms *sites*, not
//! addresses: some catchments see total loss while others are fine
//! (§8's description of the Nov 2015 root event).
//!
//! [`AnycastTable`] models exactly that: a virtual address backed by
//! member nodes, a deterministic per-source catchment, and per-site
//! ingress filters (install loss on a member's unicast address to attack
//! that site).

use dike_telemetry::hash::FastMap;
use dike_telemetry::rng::splitmix64;

use crate::addr::{Addr, NodeId};

/// The anycast registry: virtual address → member nodes.
#[derive(Debug, Default)]
pub struct AnycastTable {
    groups: FastMap<Addr, Vec<NodeId>>,
}

impl AnycastTable {
    /// An empty table.
    pub fn new() -> Self {
        AnycastTable::default()
    }

    /// Registers (or replaces) an anycast group. `vip` must not collide
    /// with any unicast node address; the simulator enforces this.
    pub fn set_group(&mut self, vip: Addr, members: Vec<NodeId>) {
        debug_assert!(!members.is_empty(), "anycast group needs members");
        self.groups.insert(vip, members);
    }

    /// The members of a group.
    pub fn members(&self, vip: Addr) -> Option<&[NodeId]> {
        self.groups.get(&vip).map(|v| v.as_slice())
    }

    /// The site serving `src` — the catchment. Deterministic in
    /// `(src, vip)`, like stable BGP routing; different sources spread
    /// over sites.
    pub fn catchment(&self, vip: Addr, src: Addr) -> Option<NodeId> {
        // Fast path: runs without anycast skip the hash on every datagram.
        if self.groups.is_empty() {
            return None;
        }
        let members = self.groups.get(&vip)?;
        let h = splitmix64(src.0 as u64 ^ ((vip.0 as u64) << 32));
        Some(members[(h % members.len() as u64) as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AnycastTable {
        let mut t = AnycastTable::new();
        t.set_group(Addr(1000), vec![NodeId(1), NodeId(2), NodeId(3)]);
        t
    }

    #[test]
    fn catchment_is_stable_per_source() {
        let t = table();
        let first = t.catchment(Addr(1000), Addr(42)).unwrap();
        for _ in 0..100 {
            assert_eq!(t.catchment(Addr(1000), Addr(42)), Some(first));
        }
    }

    #[test]
    fn catchments_spread_over_sites() {
        let t = table();
        let mut seen = std::collections::HashSet::new();
        for src in 0..200u32 {
            seen.insert(t.catchment(Addr(1000), Addr(src)).unwrap());
        }
        assert_eq!(seen.len(), 3, "all three sites attract some clients");
    }

    #[test]
    fn catchment_shares_are_roughly_even() {
        let t = table();
        let mut counts = std::collections::HashMap::new();
        let n = 3000;
        for src in 0..n {
            *counts
                .entry(t.catchment(Addr(1000), Addr(src)).unwrap())
                .or_insert(0usize) += 1;
        }
        for (_, c) in counts {
            let share = c as f64 / n as f64;
            assert!((0.25..0.42).contains(&share), "share {share}");
        }
    }

    #[test]
    fn non_anycast_addresses_have_no_catchment() {
        let t = table();
        assert_eq!(t.catchment(Addr(7), Addr(42)), None);
    }
}
