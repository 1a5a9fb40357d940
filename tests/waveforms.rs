//! Attack-waveform integration: pulsed floods against a cached zone are
//! absorbed (caches refresh in the clean half of each cycle), which is
//! the flip side of the paper's finding that caches ride out anything
//! shorter than a TTL.

use dike::attack::Attack;
use dike::experiments::topology::{build, BuildConfig};
use dike::experiments::PopulationMix;
use dike::faults::{Fault, FaultPlan, Waveform};
use dike::netsim::{QueueConfig, QueueOutcome, ServiceQueue, SimDuration, Simulator};
use dike::stats::timeseries::outcome_timeseries;

fn run(waveform: Waveform, loss: f64, seed: u64) -> f64 {
    let mut sim = Simulator::new(seed);
    let topo = build(
        &mut sim,
        &BuildConfig {
            n_probes: 80,
            ttl: 1800,
            mix: PopulationMix::default(),
            first_round_spread: SimDuration::from_mins(8),
            round_interval: SimDuration::from_mins(10),
            round_jitter: SimDuration::from_mins(3),
            rounds: 15,
            population_seed: 7,
            regional_latency: true,
            resolver_tcp_fallback: false,
            cookie_secret: None,
            resolver_max_fetch: None,
            nxns: None,
        },
    );
    FaultPlan::new()
        .with(
            Fault::random_drop(Attack::partial(
                topo.ns.to_vec(),
                loss,
                SimDuration::from_mins(60).after_zero(),
                SimDuration::from_mins(60),
            ))
            .with_shape(waveform),
        )
        .schedule(&mut sim)
        .expect("a valid attack");
    sim.run_until(SimDuration::from_mins(150).after_zero());
    drop(sim);
    let log = std::sync::Arc::try_unwrap(topo.log)
        .expect("single owner")
        .into_inner();
    let bins = outcome_timeseries(&log, SimDuration::from_mins(10));
    let during: Vec<_> = bins
        .iter()
        .filter(|b| b.start_min >= 60 && b.start_min < 120 && b.total() > 0)
        .collect();
    during.iter().map(|b| b.ok_fraction()).sum::<f64>() / during.len().max(1) as f64
}

#[test]
fn pulsed_total_outages_are_absorbed_by_caches() {
    // 100% loss half the time (10-minute cycles) with a 30-minute TTL:
    // every cache entry survives the on-phase, and the off-phase
    // refreshes whatever expired.
    let pulsed = run(
        Waveform::Pulse {
            period: SimDuration::from_mins(10),
            duty: 0.5,
        },
        1.0,
        21,
    );
    assert!(
        pulsed > 0.70,
        "pulsed 100% outages barely dent a cached zone: {pulsed}"
    );

    // The same *average* intensity applied constantly (50% loss) is also
    // absorbed — retries cover random loss. Both beat a constant 100%
    // outage by a wide margin.
    let constant_half = run(Waveform::Square, 0.5, 21);
    let constant_full = run(Waveform::Square, 1.0, 21);
    assert!(constant_half > 0.85, "{constant_half}");
    assert!(
        constant_full < pulsed - 0.3,
        "a sustained outage is far worse than pulses of the same peak: {constant_full} vs {pulsed}"
    );
}

// ---------------------------------------------------------------------
// ServiceQueue × flood waveforms: the queueing model under the same
// square/pulse/ramp load shapes the fault engine's floods drive.
// ---------------------------------------------------------------------

/// Offers `n` arrivals at fixed 10 ms spacing under a time-varying
/// background load, returning the queue plus the last accepted delay.
fn drive_queue(load_at: impl Fn(u64) -> f64, n: u64) -> (ServiceQueue, SimDuration) {
    let mut q = ServiceQueue::new(QueueConfig {
        rate_pps: 150.0,
        capacity: 40,
    });
    let mut last_delay = SimDuration::ZERO;
    for i in 0..n {
        let now = SimDuration::from_millis(i * 10).after_zero();
        q.inject_background_load(load_at(i * 10));
        if let QueueOutcome::Enqueued(d) = q.offer(now) {
            last_delay = d;
        }
    }
    (q, last_delay)
}

#[test]
fn queue_backlog_is_monotone_in_background_load() {
    // Identical arrival pattern, increasing constant flood intensity:
    // the deepest backlog any arrival sees, the drop count, and the
    // final queueing delay can only grow — and every arrival is always
    // accounted for (accepted + dropped = offered).
    let n = 600;
    let mut prev: Option<(u32, u64, SimDuration)> = None;
    for load in [0.0, 0.5, 0.8, 0.95, 0.99] {
        let (q, delay) = drive_queue(|_| load, n);
        assert_eq!(q.accepted() + q.dropped(), n, "conservation at load {load}");
        if let Some((peak, dropped, last)) = prev {
            assert!(
                q.peak_backlog() >= peak,
                "peak backlog fell from {peak} to {} at load {load}",
                q.peak_backlog()
            );
            assert!(
                q.dropped() >= dropped,
                "drops fell from {dropped} to {} at load {load}",
                q.dropped()
            );
            assert!(
                delay >= last,
                "final delay fell from {last:?} to {delay:?} at load {load}"
            );
        }
        prev = Some((q.peak_backlog(), q.dropped(), delay));
    }
    // The heaviest load must actually overwhelm the buffer.
    let (q, _) = drive_queue(|_| 0.99, n);
    assert!(q.dropped() > 0, "a 99% flood must tail-drop");
    assert_eq!(q.peak_backlog(), 40, "buffer fills to capacity");
}

#[test]
fn flood_waveforms_conserve_offered_datagrams() {
    // The three Waveform profiles the fault engine schedules, as load
    // functions of time (ms): a sustained square, a 50%-duty pulse with
    // 2-second halves, and a four-step ramp to the same 80% peak. The
    // peak is chosen so a full buffer drains within one clean half:
    // service times are fixed at enqueue, so a backlog built under a
    // harsher load would outlive the pulse's off-phase entirely.
    let peak = 0.8;
    let square = |_t: u64| peak;
    let pulse = |t: u64| {
        if (t / 2_000).is_multiple_of(2) {
            peak
        } else {
            0.0
        }
    };
    let ramp = |t: u64| {
        let step = (t / 1_500).min(3);
        peak * (step as f64 + 1.0) / 4.0
    };

    let n = 600;
    let (sq, _) = drive_queue(square, n);
    let (pu, _) = drive_queue(pulse, n);
    let (ra, _) = drive_queue(ramp, n);

    // Conservation holds for every waveform: nothing vanishes between
    // the offered count and the accepted/dropped ledger.
    for (label, q) in [("square", &sq), ("pulse", &pu), ("ramp", &ra)] {
        assert_eq!(
            q.accepted() + q.dropped(),
            n,
            "{label} wave loses datagrams"
        );
    }

    // A sustained peak is the worst case: the duty-cycled pulse drains
    // in its clean half, and the ramp's early low-intensity phase
    // accepts what the square would have dropped.
    assert!(
        sq.dropped() >= pu.dropped(),
        "square {} < pulse {}",
        sq.dropped(),
        pu.dropped()
    );
    assert!(
        sq.dropped() >= ra.dropped(),
        "square {} < ramp {}",
        sq.dropped(),
        ra.dropped()
    );
    assert!(sq.dropped() > 0, "the square wave must overload the queue");
}

#[test]
fn ramping_attacks_degrade_gradually() {
    let ramp = run(Waveform::Ramp { steps: 6 }, 1.0, 22);
    let flat = run(Waveform::Square, 1.0, 22);
    assert!(
        ramp > flat + 0.1,
        "a ramp's early low-intensity phase keeps more clients alive: {ramp} vs {flat}"
    );
}
