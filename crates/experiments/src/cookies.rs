//! TCP fallback and DNS cookies under the Table-4 flood: making the
//! slip path honest, and attackable.
//!
//! The §7 comparison treats an RRL slip (a TC=1 answer) as a free pass:
//! the paper's resolvers "retry over TCP" by assumption. This module
//! closes the loop with the simulated connection transport — slips only
//! help if the resolver actually dials, pays the handshake RTT, and the
//! server has a connection slot free — and adds the RFC 7873 cookie
//! alternative, where a validated cookie exempts a legitimate resolver
//! from RRL entirely so no retry is needed at all.
//!
//! Three defended arms bracket the design space, with an undefended
//! baseline and a connection-table exhaustion variant to make the TCP
//! path's own attack surface measurable:
//!
//! * `rrl-drop` — silent drops; legitimate resolvers caught by the
//!   limiter lose queries (the §7 collateral).
//! * `rrl-slip+tcp` — TC=1 slips plus a real TC=1 → TCP retry path at
//!   every resolver; recovery costs a handshake and a connection slot.
//! * `rrl-slip+tcp` under SYN-hogging — the same arm while hog nodes
//!   keep the authoritatives' connection tables full: handshakes are
//!   shed with RST (graceful — UDP service is untouched), so slipped
//!   queries go back to being losses.
//! * `cookies` — drop-mode RRL with a cookie exemption: resolvers that
//!   learned a server cookie bypass the limiter, spoofed sources (which
//!   cannot complete the cookie exchange) are suppressed entirely.

use std::sync::Arc;

use dike_defense::{Defense, DefensePlan, RrlConfig};
use dike_netsim::{
    Addr, Context, Node, SimDuration, SimTime, Simulator, TcpConfig, TcpConnId, TimerToken,
};
use dike_telemetry::sync::Mutex;

use crate::defense::flooded_experiment_h;
use crate::setup::{AttackPlan, ExperimentSetup};
use crate::sweep::{SweepAxis, SweepEngine};

/// The cookie secret the comparison arms share between the
/// authoritatives (minting) and the ingress gates (validation).
pub(crate) const COOKIE_SECRET: u64 = 0x7873_c00c_1e5e_c4e7;

// ---------------------------------------------------------------------
// The connection-table exhaustion attack
// ---------------------------------------------------------------------

/// Sustained connection attempts per second per target of a
/// [`TcpExhaustion`] attack. Against a 64-slot table with a 10 s idle
/// reaper, the hogs re-fill slots ~5× faster than the reaper frees them.
const HOG_CONNS_PER_SEC: f64 = 30.0;

/// A TCP connection-table exhaustion attack: hog nodes dial the
/// authoritatives and hold every connection they win until the server's
/// idle reaper closes it, re-dialing continuously. With
/// `HOG_CONNS_PER_SEC × idle_timeout ≥ table_capacity` the table stays
/// full and legitimate TCP retries are shed with RST.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpExhaustion {
    /// Minutes after start when the hogs begin dialing.
    pub start_min: u64,
    /// Attack duration in minutes.
    pub duration_min: u64,
}

impl TcpExhaustion {
    /// An exhaustion attack aligned with an attack window.
    pub fn aligned_with(attack: &AttackPlan) -> TcpExhaustion {
        TcpExhaustion {
            start_min: attack.start_min,
            duration_min: attack.duration_min,
        }
    }
}

/// What the hog fleet saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhaustionStats {
    /// Connections dialed.
    pub dialed: u64,
    /// Handshakes that completed (slots won and held).
    pub established: u64,
    /// Dials refused or torn down with RST (table full, or the server's
    /// crash handling).
    pub refused: u64,
}

/// One hog: timer-paced dials against a single target, holding every
/// established connection (the server's idle reaper is the only thing
/// that frees the slot). Deterministic — no RNG.
struct TcpHog {
    target: Addr,
    first_fire: SimDuration,
    interval: SimDuration,
    end: SimTime,
    stats: Arc<Mutex<ExhaustionStats>>,
}

impl Node for TcpHog {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.first_fire, TimerToken(0));
    }

    fn on_datagram(
        &mut self,
        _ctx: &mut Context<'_>,
        _src: Addr,
        _msg: &dike_wire::Message,
        _len: usize,
    ) {
        // Hogs never send datagrams, so nothing legitimate arrives here.
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: TimerToken) {
        if ctx.now() >= self.end {
            return;
        }
        ctx.tcp_connect(self.target);
        self.stats.lock().dialed += 1;
        ctx.set_timer(self.interval, TimerToken(0));
    }

    fn on_tcp_connected(&mut self, _ctx: &mut Context<'_>, _conn: TcpConnId, _peer: Addr) {
        // Hold the slot: never send, never close.
        self.stats.lock().established += 1;
    }

    fn on_tcp_closed(&mut self, _ctx: &mut Context<'_>, _conn: TcpConnId, reset: bool) {
        if reset {
            self.stats.lock().refused += 1;
        }
    }
}

/// Adds the hog fleet (one node per target) to a built world. Returns
/// the shared tally; callers unwrap it after the simulator is dropped.
pub(crate) fn install_tcp_exhaustion(
    sim: &mut Simulator,
    exhaustion: &TcpExhaustion,
    targets: [Addr; 2],
) -> Arc<Mutex<ExhaustionStats>> {
    let stats = Arc::new(Mutex::new(ExhaustionStats::default()));
    let start = SimDuration::from_mins(exhaustion.start_min);
    let end = (start + SimDuration::from_mins(exhaustion.duration_min)).after_zero();
    let interval = SimDuration::from_secs_f64(1.0 / HOG_CONNS_PER_SEC);
    for (i, target) in targets.into_iter().enumerate() {
        // Stagger the two hogs by half an interval so their dials
        // interleave instead of pulsing together.
        let stagger = SimDuration::from_nanos(interval.as_nanos() * i as u64 / 2);
        sim.add_node(Box::new(TcpHog {
            target,
            first_fire: start + stagger,
            interval,
            end,
            stats: stats.clone(),
        }));
    }
    stats
}

// ---------------------------------------------------------------------
// The comparison arms
// ---------------------------------------------------------------------

/// One arm of the `repro cookies` comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CookieArm {
    /// No defense — the legit-success and amplification baseline.
    Undefended,
    /// Silent-drop RRL (the §7 collateral case).
    RrlDrop,
    /// Slip-2 RRL plus a real resolver TCP-retry path and listeners at
    /// the authoritatives.
    SlipTcp,
    /// [`CookieArm::SlipTcp`] while hog nodes keep the connection
    /// tables full.
    SlipTcpExhausted,
    /// Drop-mode RRL with an RFC 7873 cookie exemption.
    Cookies,
}

/// All arms, in comparison-table order.
pub(crate) const ALL_ARMS: [CookieArm; 5] = [
    CookieArm::Undefended,
    CookieArm::RrlDrop,
    CookieArm::SlipTcp,
    CookieArm::SlipTcpExhausted,
    CookieArm::Cookies,
];

impl CookieArm {
    /// The comparison-table label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            CookieArm::Undefended => "undefended",
            CookieArm::RrlDrop => "rrl-drop",
            CookieArm::SlipTcp => "rrl-slip+tcp",
            CookieArm::SlipTcpExhausted => "rrl-slip+tcp (hogged)",
            CookieArm::Cookies => "rrl-drop+cookies",
        }
    }

    /// Arms this arm's defenses, transport and hog fleet on the flooded
    /// Experiment H scenario: the arm's mutation in [`cookie_grid`].
    fn apply(self, setup: &mut ExperimentSetup) {
        // Much tighter than the §7 presets' 0.1 qps: this comparison
        // needs the collateral the paper worries about — legitimate
        // aggregating resolvers caught by the limiter — so the
        // drop/slip/cookie contrast is visible. At 0.002 qps a prefix
        // gets its burst token and then roughly one answer every eight
        // minutes; every recursive serving more than one client trips it
        // during the attack.
        let rrl = |slip: u32, ns: [Addr; 2], onset: SimTime| {
            let cfg = RrlConfig {
                rate_qps: 0.002,
                burst: 1.0,
                slip,
                prefix_bits: 32,
            };
            let mut plan = DefensePlan::new();
            for t in ns {
                plan.push(Defense::rrl(t, cfg).starting_at(onset));
            }
            plan
        };
        match self {
            CookieArm::Undefended => {}
            CookieArm::RrlDrop => setup.arm_defense(|ns, onset| rrl(0, ns, onset)),
            CookieArm::SlipTcp | CookieArm::SlipTcpExhausted => {
                setup.arm_defense(|ns, onset| rrl(2, ns, onset));
                setup.tcp = Some(TcpConfig::default());
                if self == CookieArm::SlipTcpExhausted {
                    let attack = setup.attack.expect("Experiment H attacks");
                    setup.tcp_exhaustion = Some(TcpExhaustion::aligned_with(&attack));
                }
            }
            CookieArm::Cookies => {
                // Drop-mode RRL; `arm_defense` adds the exemption at both
                // gates because the secret is set.
                setup.cookie_secret = Some(COOKIE_SECRET);
                setup.arm_defense(|ns, onset| rrl(0, ns, onset));
            }
        }
    }
}

/// The `repro cookies` grid: the flooded Experiment H scenario of
/// [`crate::defense::defense_grid`] (so rows are comparable across the
/// two repro targets), one arm per comparison-table row: undefended,
/// RRL drop, RRL slip + TCP, the same with hogged connection tables, and
/// RRL drop with a cookie exemption.
pub fn cookie_grid(scale: f64, seed: u64) -> SweepEngine {
    SweepEngine::new(flooded_experiment_h(scale, seed)).axis(SweepAxis::new(
        "arm",
        ALL_ARMS.map(|arm| (arm.label(), move |s: &mut ExperimentSetup| arm.apply(s))),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::DefenseRow;

    #[test]
    fn arm_setups_are_internally_consistent() {
        let engine = cookie_grid(0.01, 7);
        for (i, arm) in ALL_ARMS.into_iter().enumerate() {
            assert_eq!(engine.coord_labels(i), [("arm".into(), arm.label().into())]);
            let setup = engine.setup_for(i, 0);
            if let Some(plan) = &setup.defense {
                plan.validate().expect("arm plans validate");
            }
            match arm {
                CookieArm::Undefended => assert!(setup.defense.is_none()),
                CookieArm::RrlDrop => assert!(setup.tcp.is_none()),
                CookieArm::SlipTcp => {
                    assert!(setup.tcp.is_some());
                    assert!(setup.tcp_exhaustion.is_none());
                }
                CookieArm::SlipTcpExhausted => {
                    assert!(setup.tcp.is_some());
                    assert!(setup.tcp_exhaustion.is_some());
                }
                CookieArm::Cookies => {
                    assert_eq!(setup.cookie_secret, Some(COOKIE_SECRET));
                    assert!(setup.tcp.is_none());
                }
            }
        }
    }

    /// Golden `Debug` of what the arms run under, captured at commit
    /// 747963d from the hand-built setup (cookie arm, scale 0.012, seed
    /// 29).
    #[test]
    fn cookie_setup_matches_the_captured_setup() {
        let setup = cookie_grid(0.012, 29).setup_for(4, 0);
        assert_eq!(setup.track_probe, None, "no Table 7 drill-down");
        assert_eq!((setup.n_probes, setup.ttl, setup.rounds), (110, 1800, 18));
        assert_eq!(
            format!(
                "{:?}",
                (
                    setup.attack,
                    setup.spoofed_flood,
                    &setup.defense,
                    setup.telemetry
                )
            ),
            "(Some(AttackPlan { start_min: 60, duration_min: 60, loss: 0.9, scope: BothNs }), \
             Some(SpoofedFlood { sources: 24, qps_per_source: 10.0, start_min: 60, \
             duration_min: 60 }), \
             Some(DefensePlan { defenses: [\
             Rrl { target: Addr(167772163), start: SimTime(3600000000000), config: \
             RrlConfig { rate_qps: 0.002, burst: 1.0, slip: 0, prefix_bits: 32 } }, \
             Rrl { target: Addr(167772164), start: SimTime(3600000000000), config: \
             RrlConfig { rate_qps: 0.002, burst: 1.0, slip: 0, prefix_bits: 32 } }, \
             Cookie { target: Addr(167772163), secret: 8679492065154745575 }, \
             Cookie { target: Addr(167772164), secret: 8679492065154745575 }] }), \
             Some(TelemetryConfig { snapshot_interval_nanos: 600000000000 }))"
        );
    }

    /// The acceptance contract at reduced scale, all three ways:
    ///
    /// * slip+TCP recovers legitimate success relative to silent drops
    ///   while the connection table has headroom;
    /// * exhaustion degrades the TCP path (refused handshakes, failed
    ///   retries) without touching UDP service;
    /// * cookies hold legitimate success at the undefended level while
    ///   suppressing the spoofed fleet's served volume entirely.
    #[test]
    fn three_way_comparison_meets_the_acceptance_contract() {
        let rows = cookie_grid(0.012, 29).run_rows(|report| DefenseRow::of(&report));
        let [undefended, drop, slip, hogged, cookies] = &rows[..] else {
            panic!("one row per arm: {rows:?}")
        };
        let ok = |r: &DefenseRow| r.ok_during_attack.expect("attack rounds have traffic");

        // The TCP path actually runs: slips trigger dials, dials earn
        // full answers, and legit success beats silent drops.
        assert!(slip.tcp_fallbacks > 0, "slips must trigger TCP retries");
        assert!(slip.tcp_answers > 0, "TCP retries must earn answers");
        assert!(
            ok(slip) > ok(drop),
            "slip+TCP recovers what drops lose: {} vs {}",
            ok(slip),
            ok(drop)
        );

        // Exhaustion: the hogs keep the table full, so handshakes shed
        // and TCP recovery degrades — but UDP service is no worse than
        // the same arm without hogs would leave it (the drop floor).
        assert!(hogged.syn_refused > 0, "full tables shed SYNs with RST");
        assert!(
            hogged.exhaustion.expect("hog fleet ran").refused > 0,
            "hogs themselves get refused once the table is full"
        );
        assert!(
            hogged.tcp_answers < slip.tcp_answers,
            "exhaustion must cut TCP recovery: {} vs {}",
            hogged.tcp_answers,
            slip.tcp_answers
        );
        assert!(
            ok(hogged) >= ok(drop) - 0.02,
            "UDP service survives exhaustion: {} vs drop floor {}",
            ok(hogged),
            ok(drop)
        );

        // Cookies: legitimate success within half a point of undefended,
        // spoofed served volume suppressed to the gate's floor (every
        // fresh bucket spends its one burst token before limiting, so
        // literal zero is impossible by construction — ≥99.5% of the
        // undefended served volume must be refused).
        assert!(
            ok(cookies) >= ok(undefended) - 0.005,
            "cookies keep legit success at the undefended level: {} vs {}",
            ok(cookies),
            ok(undefended)
        );
        assert!(cookies.cookie_exempt > 0, "the exemption must fire");
        assert!(
            undefended.spoofed.full_answers > 0,
            "undefended server amplifies"
        );
        assert!(
            (cookies.spoofed.full_answers as f64) < 0.005 * undefended.spoofed.full_answers as f64,
            "spoofed sources cannot complete the cookie exchange: {} vs {}",
            cookies.spoofed.full_answers,
            undefended.spoofed.full_answers
        );
    }
}
