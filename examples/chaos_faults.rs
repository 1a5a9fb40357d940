//! Composed faults against the paper's topology: crash one authoritative
//! (cold-cache restart half an hour later) while its sibling's link
//! burns with bursty Gilbert–Elliott loss and 3x latency inflation.
//!
//! ```text
//! cargo run --release --example chaos_faults
//! ```
//!
//! Neither fault is expressible as the paper's random drop: the crash is
//! a hard binary outage with a restart edge, the degrade is correlated
//! loss plus congestion delay. The run prints the fault plan,
//! the per-round client view, and the sim-time telemetry cut of the
//! fault counters.

use dike::experiments::setup::{run_experiment, ExperimentSetup};
use dike::experiments::topology;
use dike::faults::{Fault, FaultPlan};
use dike::netsim::SimDuration;
use dike::stats::timeseries::outcome_timeseries;
use dike::telemetry::{MetricValue, TelemetryConfig};

fn main() {
    let mins = |m: u64| SimDuration::from_mins(m);
    let [ns1, _] = topology::ns_node_ids();
    let [_, ns2_addr] = topology::ns_addrs();

    // Minute 60: ns1 crashes; minute 90: it returns with a cold cache.
    // Minutes 60-120: ns2's link runs at 85% mean loss in ~30-packet
    // bursts, with every surviving packet paying 3x latency.
    let plan = FaultPlan::new()
        .with(Fault::crash_restart(
            ns1,
            mins(60).after_zero(),
            mins(30),
            true,
        ))
        .with(
            Fault::link_degrade(ns2_addr, mins(60).after_zero(), mins(60), 0.85, 30.0)
                .with_latency_factor(3.0),
        );
    println!("fault plan:\n  {plan:?}\n");

    let mut setup = ExperimentSetup::new(300, 1800);
    setup.seed = 42;
    setup.rounds = 18;
    setup.round_interval = mins(10);
    setup.total_duration = mins(180);
    setup.faults = Some(plan);
    setup.telemetry = Some(TelemetryConfig::every_mins(10));
    setup.audit = true; // end the run with the invariant auditor

    let out = run_experiment(&setup);
    println!(
        "{} probes / {} vantage points, audit clean\n",
        out.n_probes, out.n_vps
    );

    println!("client view:");
    println!(
        "{:>5} {:>6} {:>9} {:>10}",
        "min", "OK", "SERVFAIL", "no answer"
    );
    for b in outcome_timeseries(&out.log, mins(10)) {
        let marker = if (60..120).contains(&b.start_min) {
            "  <== ns1 down / ns2 degraded"
        } else {
            ""
        };
        println!(
            "{:>5} {:>6} {:>9} {:>10}{marker}",
            b.start_min, b.ok, b.servfail, b.no_answer
        );
    }

    // The fault counters' telemetry cut: cumulative values per 10-minute
    // snapshot, straight from the registry the simulator filled.
    let reg = out.metrics.expect("telemetry requested");
    let metrics = [
        "node_crashes",
        "node_restarts",
        "datagrams_dropped_node_down",
        "datagrams_dropped_degrade",
        "timers_suppressed_crash",
    ];
    println!("\nfault telemetry (cumulative per snapshot):");
    print!("{:>5}", "min");
    for m in metrics {
        print!(
            " {:>12}",
            m.trim_start_matches("datagrams_dropped_")
                .trim_start_matches("timers_")
        );
    }
    println!();
    for (idx, at) in reg.snapshot_times().iter().enumerate() {
        print!("{:>5}", at / 60_000_000_000);
        for m in metrics {
            let v = match reg.value_at("netsim", None, m, idx as u32) {
                Some(MetricValue::Counter(c)) => c,
                _ => 0,
            };
            print!(" {:>12}", v);
        }
        println!();
    }
}
