//! The network fabric: latency models, static loss, and dynamic
//! ingress-loss filters (the DDoS emulation mechanism).

use dike_telemetry::hash::FastMap;
use dike_telemetry::rng::Rng;

use crate::addr::Addr;
use crate::sim::{FIRST_ADDR, FIRST_VIP};
use crate::time::SimDuration;

/// How long a datagram takes to cross a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// A constant delay.
    Fixed(SimDuration),
    /// Log-normal around a median — the classic shape of Internet RTT
    /// distributions; `sigma` is the log-space standard deviation.
    LogNormal {
        /// Median one-way delay.
        median: SimDuration,
        /// Log-space sigma; 0.3–0.6 resembles wide-area paths.
        sigma: f64,
    },
}

impl LatencyModel {
    /// Samples a one-way delay.
    pub fn sample(&self, rng: &mut Rng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::LogNormal { median, sigma } => {
                // Box–Muller from two uniforms; exp(sigma * z) scales the
                // median multiplicatively.
                let u1: f64 = rng.random_range(f64::EPSILON..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                median.mul_f64((sigma * z).exp())
            }
        }
    }
}

/// Per-path parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way delay model.
    pub latency: LatencyModel,
    /// Baseline random loss probability in `[0, 1]` — ambient packet loss,
    /// independent of any attack.
    pub loss: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency: LatencyModel::LogNormal {
                median: SimDuration::from_millis(20),
                sigma: 0.4,
            },
            loss: 0.0,
        }
    }
}

/// A two-state Gilbert–Elliott loss process: the channel toward a
/// destination is either *Good* or *Bad*, with independent loss rates in
/// each state and per-arrival transition probabilities between them.
///
/// The paper emulates DDoS as Bernoulli (i.i.d.) random drop; real
/// resource-exhaustion events produce *bursty* loss — stretches where
/// nearly everything dies, separated by windows where most packets
/// survive. The Gilbert–Elliott chain is the standard minimal model of
/// that burstiness (mean loss alone does not determine resolver retry
/// behaviour: 50% i.i.d. loss and 50% duty-cycle blackout look identical
/// on average but very different to a 5-second client timeout).
///
/// The chain is stepped once per arriving datagram: first the state
/// transition is sampled, then the loss draw uses the *post-transition*
/// state. Both draws come from the run's seeded RNG, so fault runs stay
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GilbertElliott {
    /// Per-arrival probability of moving Good → Bad.
    pub(crate) p_enter_bad: f64,
    /// Per-arrival probability of moving Bad → Good.
    pub(crate) p_exit_bad: f64,
    /// Loss probability while Good (ambient residual loss).
    pub(crate) loss_good: f64,
    /// Loss probability while Bad (the burst).
    pub(crate) loss_bad: f64,
}

impl GilbertElliott {
    /// A bursty process with the given stationary mean loss and mean
    /// burst length (in arrivals). `mean_loss` is achieved by setting
    /// `loss_bad = 1` inside bursts and `loss_good = 0` outside, with the
    /// stationary Bad-state probability equal to `mean_loss`.
    pub(crate) fn bursty(mean_loss: f64, mean_burst_len: f64) -> Self {
        let mean_loss = mean_loss.clamp(0.0, 1.0);
        // Stationary P(Bad) = p_enter / (p_enter + p_exit) = mean_loss.
        // Total loss pins the chain in Bad (p_exit = 0): with any exit
        // probability the stationary loss could not reach 1.
        let (p_enter_bad, p_exit_bad) = if mean_loss >= 1.0 {
            (1.0, 0.0)
        } else {
            let p_exit = 1.0 / mean_burst_len.max(1.0);
            (
                (p_exit * mean_loss / (1.0 - mean_loss)).clamp(0.0, 1.0),
                p_exit,
            )
        };
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Steps the chain one arrival: transitions `state` (true = Bad),
    /// then samples a drop from the post-transition state.
    pub(crate) fn sample_drop(&self, state: &mut bool, rng: &mut Rng) -> bool {
        let flip = if *state {
            self.p_exit_bad
        } else {
            self.p_enter_bad
        };
        if flip > 0.0 && rng.random_bool(flip.clamp(0.0, 1.0)) {
            *state = !*state;
        }
        let loss = if *state {
            self.loss_bad
        } else {
            self.loss_good
        };
        loss > 0.0 && rng.random_bool(loss.clamp(0.0, 1.0))
    }
}

/// A degraded-but-not-failed condition on every path toward one
/// destination: bursty Gilbert–Elliott loss plus latency inflation
/// (congested queues upstream of the target slow what they do not drop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeParams {
    /// The loss process.
    pub(crate) ge: GilbertElliott,
    /// Multiplier on the sampled path latency (≥ 1.0 for inflation;
    /// values below 1 are allowed but physically dubious). Applied at
    /// send time, so it affects datagrams launched while the degrade is
    /// installed.
    pub latency_factor: f64,
}

impl DegradeParams {
    /// Bursty loss at `mean_loss` with no latency inflation.
    pub fn bursty_loss(mean_loss: f64, mean_burst_len: f64) -> Self {
        DegradeParams {
            ge: GilbertElliott::bursty(mean_loss, mean_burst_len),
            latency_factor: 1.0,
        }
    }

    /// Adds latency inflation.
    pub fn with_latency_factor(mut self, factor: f64) -> Self {
        self.latency_factor = factor.max(0.0);
        self
    }
}

/// Installed degrade state: the parameters plus the chain's current
/// state (true = Bad).
#[derive(Debug, Clone, Copy)]
struct DegradeEntry {
    params: DegradeParams,
    bad: bool,
}

/// The routing fabric: a default path model, optional per-node access
/// profiles, and dynamic per-destination ingress loss used to emulate
/// DDoS.
///
/// Ingress loss models the paper's emulation exactly: "we simulate a DDoS
/// attack by dropping some fraction or all incoming DNS queries to each
/// authoritative ... randomly with Linux iptables" (§5.1). Loss applies to
/// datagrams *arriving at* the filtered address, so replies from the
/// target are unaffected (a query must get in before an answer exists).
#[derive(Debug, Clone)]
pub struct LinkTable {
    default: LinkParams,
    /// Access profiles (a node's last mile), dense-indexed by
    /// `addr - FIRST_ADDR` over the global unicast pool, so every shard
    /// of a sharded world holds the same clone. Empty when no node has
    /// one.
    access: Vec<Option<LinkParams>>,
    ingress_loss: FastMap<Addr, f64>,
    degrade: FastMap<Addr, DegradeEntry>,
}

impl LinkTable {
    /// A fabric where every path uses `default`.
    pub fn new(default: LinkParams) -> Self {
        LinkTable {
            default,
            access: Vec::new(),
            ingress_loss: FastMap::default(),
            degrade: FastMap::default(),
        }
    }

    /// Gives `node` an access profile: every path to or from it uses
    /// `params` (the sender's profile wins when both ends have one).
    ///
    /// # Panics
    /// Panics if `node` is not a unicast node address; an anycast VIP has
    /// no last mile of its own.
    pub fn set_access(&mut self, node: Addr, params: LinkParams) {
        assert!(
            (FIRST_ADDR..FIRST_VIP).contains(&node.0),
            "access profile for {node}, which is not a unicast node address"
        );
        let idx = (node.0 - FIRST_ADDR) as usize;
        if idx >= self.access.len() {
            self.access.resize(idx + 1, None);
        }
        self.access[idx] = Some(params);
    }

    /// The access profile of `addr`, if it has one.
    fn access(&self, addr: Addr) -> Option<LinkParams> {
        let idx = addr.0.wrapping_sub(FIRST_ADDR) as usize;
        self.access.get(idx).copied().flatten()
    }

    /// The parameters governing `src → dst`: the sender's access profile,
    /// else the receiver's, else the default.
    pub fn params(&self, src: Addr, dst: Addr) -> LinkParams {
        // Fast path: most fabrics install no profiles at all.
        if self.access.is_empty() {
            return self.default;
        }
        self.access(src)
            .or_else(|| self.access(dst))
            .unwrap_or(self.default)
    }

    /// Installs (or updates) an ingress drop filter: datagrams destined to
    /// `dst` are dropped with probability `rate`. `rate = 1.0` is the
    /// complete-failure scenario (Experiments A–C).
    pub fn set_ingress_loss(&mut self, dst: Addr, rate: f64) {
        self.ingress_loss.insert(dst, rate.clamp(0.0, 1.0));
    }

    /// Removes the ingress filter on `dst` (attack over).
    pub fn clear_ingress_loss(&mut self, dst: Addr) {
        self.ingress_loss.remove(&dst);
    }

    /// Current ingress loss rate toward `dst` (0 when unfiltered).
    pub fn ingress_loss(&self, dst: Addr) -> f64 {
        if self.ingress_loss.is_empty() {
            return 0.0;
        }
        self.ingress_loss.get(&dst).copied().unwrap_or(0.0)
    }

    /// Installs (or replaces) a Gilbert–Elliott degrade toward `dst`.
    /// The chain starts in the Good state.
    pub fn set_degrade(&mut self, dst: Addr, params: DegradeParams) {
        self.degrade
            .insert(dst, DegradeEntry { params, bad: false });
    }

    /// Removes the degrade on `dst` (condition cleared).
    pub fn clear_degrade(&mut self, dst: Addr) {
        self.degrade.remove(&dst);
    }

    /// The latency multiplier currently applied to sends toward `dst`
    /// (1.0 when no degrade is installed).
    pub fn latency_factor(&self, dst: Addr) -> f64 {
        if self.degrade.is_empty() {
            return 1.0;
        }
        self.degrade
            .get(&dst)
            .map(|e| e.params.latency_factor)
            .unwrap_or(1.0)
    }

    /// Steps the degrade chain toward `dst` for one arrival and returns
    /// whether the datagram is lost to the burst process. Draws from
    /// `rng` only when a degrade is installed, so fault-free runs keep an
    /// untouched RNG stream.
    pub(crate) fn degrade_drop(&mut self, dst: Addr, rng: &mut Rng) -> bool {
        if self.degrade.is_empty() {
            return false;
        }
        match self.degrade.get_mut(&dst) {
            Some(e) => e.params.ge.sample_drop(&mut e.bad, rng),
            None => false,
        }
    }

    /// Decides the fate of one datagram in one call — `None` if dropped,
    /// `Some(delay)` if delivered after `delay`: the reference the loss
    /// tests below draw against (the simulator samples the delay at send
    /// and the loss at arrival).
    #[cfg(test)]
    fn transmit(&self, src: Addr, dst: Addr, rng: &mut Rng) -> Option<SimDuration> {
        let params = self.params(src, dst);
        // Ambient loss and attack loss are independent Bernoulli trials.
        if params.loss > 0.0 && rng.random_bool(params.loss.clamp(0.0, 1.0)) {
            return None;
        }
        let attack = self.ingress_loss(dst);
        if attack > 0.0 && rng.random_bool(attack) {
            return None;
        }
        Some(params.latency.sample(rng))
    }
}

impl Default for LinkTable {
    fn default() -> Self {
        LinkTable::new(LinkParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    #[test]
    fn fixed_latency_is_fixed() {
        let m = LatencyModel::Fixed(SimDuration::from_millis(10));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.sample(&mut r), SimDuration::from_millis(10));
        }
    }

    #[test]
    fn lognormal_median_is_roughly_centered() {
        let m = LatencyModel::LogNormal {
            median: SimDuration::from_millis(20),
            sigma: 0.4,
        };
        let mut r = rng();
        let mut below = 0;
        let n = 4000;
        for _ in 0..n {
            if m.sample(&mut r) < SimDuration::from_millis(20) {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "median fraction {frac}");
    }

    fn fast() -> LinkParams {
        LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
            loss: 0.0,
        }
    }

    #[test]
    fn access_profile_covers_both_directions() {
        let mut t = LinkTable::default();
        let probe = Addr(FIRST_ADDR + 7);
        let (r1, r2) = (Addr(FIRST_ADDR + 1), Addr(FIRST_ADDR + 40));
        t.set_access(probe, fast());
        for other in [r1, r2] {
            assert_eq!(t.params(probe, other), fast(), "sends from the node");
            assert_eq!(t.params(other, probe), fast(), "sends to the node");
        }
    }

    #[test]
    fn paths_without_a_profile_use_the_default() {
        let mut t = LinkTable::default();
        t.set_access(Addr(FIRST_ADDR + 7), fast());
        let (a, b) = (Addr(FIRST_ADDR), Addr(FIRST_ADDR + 8));
        assert_eq!(t.params(a, b), LinkParams::default());
        assert_eq!(t.params(b, a), LinkParams::default());
        // Beyond the table's end, and below the unicast pool.
        let far = Addr(FIRST_ADDR + 10_000);
        assert_eq!(t.params(far, a), LinkParams::default());
        assert_eq!(t.params(Addr(1), Addr(2)), LinkParams::default());
    }

    #[test]
    fn the_senders_profile_wins() {
        let mut t = LinkTable::default();
        let (a, b) = (Addr(FIRST_ADDR), Addr(FIRST_ADDR + 1));
        let slow = LinkParams {
            latency: LatencyModel::Fixed(SimDuration::from_millis(90)),
            loss: 0.0,
        };
        t.set_access(a, fast());
        t.set_access(b, slow);
        assert_eq!(t.params(a, b), fast());
        assert_eq!(t.params(b, a), slow);
    }

    #[test]
    fn a_vip_falls_outside_the_table() {
        let mut t = LinkTable::default();
        t.set_access(Addr(FIRST_ADDR), fast());
        let vip = Addr(FIRST_VIP);
        let other = Addr(FIRST_ADDR + 3);
        assert_eq!(t.params(other, vip), LinkParams::default());
        assert_eq!(t.params(vip, other), LinkParams::default());
    }

    #[test]
    #[should_panic(expected = "not a unicast node address")]
    fn a_vip_gets_no_profile() {
        LinkTable::default().set_access(Addr(FIRST_VIP), fast());
    }

    #[test]
    fn full_ingress_loss_drops_everything() {
        let mut t = LinkTable::default();
        t.set_ingress_loss(Addr(9), 1.0);
        let mut r = rng();
        for _ in 0..100 {
            assert!(t.transmit(Addr(1), Addr(9), &mut r).is_none());
        }
        // Other destinations unaffected.
        assert!(t.transmit(Addr(1), Addr(8), &mut r).is_some());
    }

    #[test]
    fn partial_ingress_loss_matches_rate() {
        let mut t = LinkTable::default();
        t.set_ingress_loss(Addr(9), 0.9);
        let mut r = rng();
        let n = 20_000;
        let delivered = (0..n)
            .filter(|_| t.transmit(Addr(1), Addr(9), &mut r).is_some())
            .count();
        let rate = delivered as f64 / n as f64;
        assert!(
            (rate - 0.1).abs() < 0.02,
            "expected ~10% delivery, got {rate}"
        );
    }

    #[test]
    fn clearing_filter_restores_delivery() {
        let mut t = LinkTable::default();
        t.set_ingress_loss(Addr(9), 1.0);
        t.clear_ingress_loss(Addr(9));
        assert_eq!(t.ingress_loss(Addr(9)), 0.0);
        let mut r = rng();
        assert!(t.transmit(Addr(1), Addr(9), &mut r).is_some());
    }

    #[test]
    fn loss_rate_is_clamped() {
        let mut t = LinkTable::default();
        t.set_ingress_loss(Addr(9), 7.5);
        assert_eq!(t.ingress_loss(Addr(9)), 1.0);
    }

    #[test]
    fn gilbert_elliott_bursty_hits_target_mean_loss() {
        let ge = GilbertElliott::bursty(0.5, 20.0);
        // Loss is certain in Bad and absent in Good, so the mean loss is
        // the stationary probability of Bad.
        assert_eq!((ge.loss_good, ge.loss_bad), (0.0, 1.0));
        let bad = ge.p_enter_bad / (ge.p_enter_bad + ge.p_exit_bad);
        assert!((bad - 0.5).abs() < 1e-9);
        let mut r = rng();
        let mut state = false;
        let n = 100_000;
        let dropped = (0..n)
            .filter(|_| ge.sample_drop(&mut state, &mut r))
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "empirical loss {rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty_not_iid() {
        // With mean burst length 50, drops cluster: the number of
        // loss-run boundaries is far below what i.i.d. loss at the same
        // mean rate would produce.
        let ge = GilbertElliott::bursty(0.3, 50.0);
        let mut r = rng();
        let mut state = false;
        let n = 50_000;
        let outcomes: Vec<bool> = (0..n).map(|_| ge.sample_drop(&mut state, &mut r)).collect();
        let transitions = outcomes.windows(2).filter(|w| w[0] != w[1]).count();
        // i.i.d. at p=0.3 flips outcome with probability 2·p·(1−p)=0.42
        // per step (~21k transitions over 50k steps); the bursty chain
        // changes outcome a couple orders of magnitude less often.
        assert!(
            transitions < n / 5,
            "expected clustered losses, saw {transitions} transitions"
        );
    }

    #[test]
    fn degrade_installs_and_clears() {
        let mut t = LinkTable::default();
        let dst = Addr(4);
        assert_eq!(t.latency_factor(dst), 1.0);
        t.set_degrade(
            dst,
            DegradeParams::bursty_loss(1.0, 10.0).with_latency_factor(3.0),
        );
        assert_eq!(t.latency_factor(dst), 3.0);
        let mut r = rng();
        // Mean loss 1.0 puts the chain permanently in Bad with loss 1.0.
        for _ in 0..50 {
            assert!(t.degrade_drop(dst, &mut r));
        }
        t.clear_degrade(dst);
        assert!(!t.degrade_drop(dst, &mut r));
        assert_eq!(t.latency_factor(dst), 1.0);
    }

    #[test]
    fn degrade_on_other_destination_draws_no_rng() {
        // A degrade on one address must not perturb the RNG stream of
        // traffic toward others (fault-free digest stability).
        let mut t = LinkTable::default();
        t.set_degrade(Addr(4), DegradeParams::bursty_loss(0.9, 5.0));
        let mut r1 = rng();
        let mut r2 = rng();
        assert!(!t.degrade_drop(Addr(5), &mut r1));
        assert_eq!(r1.next_u64(), r2.next_u64(), "RNG advanced for clean dst");
    }
}
