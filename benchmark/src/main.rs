//! The repository's benchmark harness (see `README.md` next to this
//! package for the workload and metric catalogue).
//!
//! ```text
//! dike-benchmark --workload W [--seed N] [--seconds S] [--trace [0|1]]
//!                [--smoke] [--inject FAULT]
//! ```
//!
//! One workload per process, so that the peak resident set it reports is
//! that workload's own; `run.sh` without `--workload` starts one process
//! after another. At most two busy threads, at most one client socket.
//! `--seconds` is accepted, because the benchmark driver passes it, and
//! changes nothing: work per run is fixed. Prints
//! every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1`
//! the per-layer ones. Exits non-zero when a correctness check failed.

mod gen;
mod metrics;
mod micro;
mod numeric;
mod os;
mod replay;
mod serve;
mod sim;
mod trace;

use std::process::ExitCode;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use sim::SimWorkload;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["ddos-h", "flood-rrl", "sharded-k2", "serve-udp"];

/// Same-seed repetitions of the timed section; the median is reported.
/// Each is calibrated to take about 5 s on the reference box, which is
/// where `run_seconds` = 15 in `BENCHMARK.json` comes from.
pub const REPS: u32 = 3;

/// `--smoke` divides every scale, rate and count by this.
pub const SMOKE_DIVISOR: usize = 50;

/// A deliberate fault, to show that the correctness gate bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Run the second repetition of a simulator workload with another
    /// seed: the repetitions no longer agree.
    PerturbSeed,
    /// Flip one bit of one expected `serve-udp` answer.
    CorruptAnswer,
}

/// What every workload needs to know about this invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Make the extra traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Scales ÷ 50: every workload and check, no timing claims.
    pub smoke: bool,
    /// A deliberate fault.
    pub inject: Option<Fault>,
    /// Where generated inputs and span files go.
    pub out_dir: String,
}

/// A scratch directory for one unit test.
#[cfg(test)]
pub fn test_dir(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("dike-benchmark-{tag}-{}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dike-benchmark --workload {} [--seed N] [--seconds S] \
         [--trace [0|1]] [--smoke] [--inject perturb-seed|corrupt-answer]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Runs the workload called `name`, one of [`WORKLOADS`].
fn run_workload(name: &str, opts: &RunOptions) -> Outcome {
    match name {
        "ddos-h" => sim::run(SimWorkload::DdosH, opts),
        "flood-rrl" => sim::run(SimWorkload::FloodRrl, opts),
        "sharded-k2" => sim::run(SimWorkload::ShardedK2, opts),
        "serve-udp" => serve::run(opts),
        _ => unreachable!("workload names are validated against WORKLOADS"),
    }
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut opts = RunOptions {
        seed: 42,
        trace: false,
        smoke: false,
        inject: None,
        // `run.sh` starts the harness from the root of the checkout.
        out_dir: "benchmark/out".to_owned(),
    };

    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => match args.next() {
                Some(w) if WORKLOADS.contains(&w.as_str()) => workload = Some(w),
                _ => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => return usage(),
            },
            // Fixed work: the value is checked and otherwise unused.
            "--seconds" => {
                if args.next().and_then(|v| v.parse::<u64>().ok()).is_none() {
                    return usage();
                }
            }
            "--trace" => {
                // Bare `--trace` means on; `--trace 0|1` is also accepted.
                opts.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            "--inject" => {
                opts.inject = match args.next().as_deref() {
                    Some("perturb-seed") => Some(Fault::PerturbSeed),
                    Some("corrupt-answer") => Some(Fault::CorruptAnswer),
                    _ => return usage(),
                }
            }
            _ => return usage(),
        }
    }
    let Some(name) = workload else {
        return usage();
    };

    let outcome = run_workload(&name, &opts);
    println!("# workload {name}  seed {}  repetitions {REPS}", opts.seed);
    print!("{}", outcome.to_text(&END_TO_END));
    if opts.trace {
        print!("{}", outcome.to_text(&PER_LAYER));
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        outcome.attempted,
        if outcome.correct() {
            outcome.failed
        } else {
            outcome.attempted
        }
    );
    for why in &outcome.check_failures {
        eprintln!("check failed ({name}): {why}");
    }
    println!(
        "{}",
        outcome.to_json(if opts.trace { &PER_LAYER } else { &END_TO_END })
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
