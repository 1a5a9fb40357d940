//! `repro` — regenerates every table and figure from *When the Dike
//! Breaks* (IMC 2018).
//!
//! ```text
//! repro <target> [--scale X] [--seed N]
//! repro --list
//! ```
//!
//! The targets are the rows of `TARGETS`; `all` runs the ones marked
//! so, in table order.
//!
//! `sweep` runs the population-scale attack-intensity × TTL grid through
//! [`SweepEngine`] (paper Tables 4/5 as a dense grid instead
//! of the nine lettered experiments); `--grid-json` exports the
//! per-arm summaries. It is deliberately not part of `all` — grids are
//! sized by `--replicates`/`--scale` and can dwarf the lettered runs.
//!
//! The comparison targets — `queueing`, `defense`, `cookies` and `nxns`
//! — run on the same engine, as `falsepos` does: one base setup, one
//! axis of arms, one table row (or column) per arm. `--threads` sets the
//! engine's workers for every grid target and never changes a byte of
//! output; `--replicates` applies to `sweep` and `falsepos`, since a
//! comparison runs each arm once.
//!
//! `--scale` scales the probe population (1.0 ≈ the paper's 9.2k probes;
//! the default 0.05 runs every target in a few minutes). Output is the
//! same rows/series the paper reports; EXPERIMENTS.md records
//! paper-vs-measured values.

use std::collections::HashMap;

use dike_experiments::baseline::{run_baseline, BaselineResult, BASELINES};
use dike_experiments::cookies::cookie_grid;
use dike_experiments::ddos::{DdosExperiment, ALL};
use dike_experiments::defense::{defense_grid, DefenseRow, SpoofedFlood, ALL_PRESETS};
use dike_experiments::degraded::{run_degraded, DegradedParams, FLOOD_LOAD};
use dike_experiments::glue;
use dike_experiments::implications;
use dike_experiments::nxns::{nxns_grid, nxns_row, NXNS_QUERIES};
use dike_experiments::production::{run_nl, run_root, NlConfig, RootConfig};
use dike_experiments::software::{run_software_mean, Software};
use dike_experiments::topology::PROBE_ID_LIMIT;
use dike_experiments::{AttackPlan, ExperimentSetup, Report, SweepAxis, SweepEngine};
use dike_netsim::{QueueConfig, SimDuration};
use dike_stats::table::{pct, ratio, TextTable};
use dike_stats::timeseries::class_timeseries;
use dike_telemetry::json::Writer;
use dike_wire::RecordType;

struct Args {
    target: String,
    scale: f64,
    seed: u64,
    json: Option<String>,
    metrics: Option<String>,
    /// `sweep`: JSON export path for the full sweep result.
    grid_json: Option<String>,
    /// Grid targets: worker threads (0 = available parallelism).
    threads: usize,
    /// `sweep` and `falsepos`: seed replicates per arm.
    replicates: u32,
}

/// What the command line asks for.
enum Action {
    /// Run `Args::target`.
    Run(Args),
    /// `--list`: print [`target_list`].
    List,
    /// `--help`: print [`help`].
    Help,
}

const USAGE: &str = "usage: repro <target> [--scale X] [--seed N] [--json FILE] [--metrics FILE]";

/// The value of `flag`, parsed; `what` names it in the error.
fn value<T: std::str::FromStr>(flag: &str, what: &str, v: Option<String>) -> Result<T, String> {
    v.and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// Reads the command line (without the program name). Anything it does
/// not understand — an unknown `--option` or target, a second target —
/// is an error, never ignored. `--list` and `--help` win over whatever else is
/// there, as soon as they are read.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Action, String> {
    let mut args = Args {
        target: String::from("all"),
        scale: 0.05,
        seed: 42,
        json: None,
        metrics: None,
        grid_json: None,
        threads: 0,
        replicates: 3,
    };
    let mut target = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = value(&a, "a number", it.next())?;
                if !(args.scale.is_finite() && args.scale > 0.0) {
                    return Err(format!(
                        "--scale must be positive and finite, not {}",
                        args.scale
                    ));
                }
            }
            "--seed" => args.seed = value(&a, "an integer", it.next())?,
            "--json" => args.json = Some(value(&a, "a path", it.next())?),
            "--metrics" => args.metrics = Some(value(&a, "a path", it.next())?),
            "--grid-json" => args.grid_json = Some(value(&a, "a path", it.next())?),
            "--threads" => args.threads = value(&a, "an integer", it.next())?,
            "--replicates" => args.replicates = value(&a, "an integer", it.next())?,
            "--list" => return Ok(Action::List),
            "--help" | "-h" => return Ok(Action::Help),
            option if option.starts_with('-') => return Err(format!("unknown option '{option}'")),
            word => {
                let name = word.to_lowercase();
                if name != "all" && !TARGETS.iter().any(|(t, ..)| *t == name) {
                    return Err(format!("unknown target '{word}' (try --help)"));
                }
                if target.replace(name).is_some() {
                    return Err(format!("unexpected argument '{word}'"));
                }
            }
        }
    }
    if let Some(t) = target {
        args.target = t;
    }
    let probes = selected(&args.target)
        .map(|(.., probes)| probes(args.scale))
        .max();
    if let Some(n) = probes.filter(|&n| n >= PROBE_ID_LIMIT) {
        return Err(format!(
            "--scale {} asks for {n} probes, but probe ids must stay below {PROBE_ID_LIMIT}",
            args.scale
        ));
    }
    Ok(Action::Run(args))
}

/// `--list`: every target in `all`'s execution order, then `all`.
fn target_list() -> String {
    let names = TARGETS.iter().map(|(name, ..)| *name).chain(["all"]);
    names.map(|name| format!("{name}\n")).collect()
}

/// `--help`.
fn help() -> String {
    let names: Vec<&str> = TARGETS.iter().map(|(name, ..)| *name).collect();
    format!(
        "{USAGE}\n\
         targets: {} all\n\
         --metrics collects sim-time telemetry during the DDoS runs and\n\
         writes the full metric registry (per-node counters, gauges,\n\
         retry histograms) as JSON, keyed by experiment letter\n\
         grid flags: [--threads N] sets the SweepEngine workers of\n\
         sweep, falsepos, queueing, defense, cookies and nxns\n\
         (byte-identical output for any worker count); sweep and\n\
         falsepos take [--replicates K], and sweep exports its per-arm\n\
         summaries with [--grid-json FILE];\n\
         --scale sizes the probe population against the paper's 9.2k\n",
        names.join(" ")
    )
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// A table cell for an optional share: a percentage, or `-`.
fn opt_pct(share: Option<f64>) -> String {
    share.map(pct).unwrap_or_else(|| "-".into())
}

/// Caches expensive runs so `repro all` shares them across targets.
struct Ctx {
    scale: f64,
    seed: u64,
    /// When set, DDoS runs collect sim-time telemetry for `--metrics`.
    collect_metrics: bool,
    baselines: Option<Vec<BaselineResult>>,
    ddos: HashMap<char, Report>,
    json: Vec<String>,
}

impl Ctx {
    fn new(scale: f64, seed: u64, collect_metrics: bool) -> Self {
        Ctx {
            scale,
            seed,
            collect_metrics,
            baselines: None,
            ddos: HashMap::new(),
            json: Vec::new(),
        }
    }

    /// Prints a table and records it for `--json` export.
    fn emit(&mut self, tbl: &TextTable) {
        print!("{}", tbl.render());
        self.json.push(tbl.to_json());
    }

    fn baselines(&mut self) -> &[BaselineResult] {
        if self.baselines.is_none() {
            eprintln!(
                "[repro] running {} baseline experiments at scale {} ...",
                BASELINES.len(),
                self.scale
            );
            let seed = self.seed;
            let scale = self.scale;
            self.baselines = Some(
                BASELINES
                    .iter()
                    .enumerate()
                    .map(|(i, cfg)| run_baseline(*cfg, scale, seed.wrapping_add(i as u64)))
                    .collect(),
            );
        }
        self.baselines.as_deref().expect("just populated")
    }

    fn ddos(&mut self, exp: DdosExperiment) -> &Report {
        let letter = exp.letter();
        if !self.ddos.contains_key(&letter) {
            eprintln!(
                "[repro] running DDoS experiment {letter} at scale {} ...",
                self.scale
            );
            let mut setup = exp.setup(self.scale, self.seed.wrapping_add(letter as u64));
            // Snapshot on the same 10-minute grid the paper's figures use.
            setup.telemetry = self
                .collect_metrics
                .then(|| dike_telemetry::TelemetryConfig::every_mins(10));
            self.ddos.insert(letter, Report::run(&setup));
        }
        &self.ddos[&letter]
    }
}

type Target = (&'static str, fn(&mut Ctx, &Args), bool, Probes);

/// How many probes a target builds at a given `--scale`.
type Probes = fn(f64) -> usize;

/// The paper-scaled population: the baselines and every Table 4 run.
const PAPER: Probes = ExperimentSetup::probes_at_scale;

/// `implications`: its own, smaller anycast population.
const ANYCAST: Probes = |scale| ((600.0 * scale.max(0.1)) as usize).max(60);

/// `nxns`: the NXNS grid's background population.
const NXNS: Probes = |scale| nxns_grid(scale, 0).base.n_probes;

/// Targets that build no probes.
const NO_PROBES: Probes = |_| 0;

/// Every target: its name, its runner, whether `all` includes it
/// (`sweep` and `falsepos` are sized by their own flags and can
/// dwarf the lettered runs), and its probe count at `--scale`, which
/// the parser holds below the probe-id space. `all` runs in this order,
/// and `--list` and `--help` print it.
const TARGETS: &[Target] = &[
    ("table1", |c, _| table1(c), true, PAPER),
    ("table2", |c, _| table2(c), true, PAPER),
    ("fig3", |c, _| fig3(c), true, PAPER),
    ("table3", |c, _| table3(c), true, PAPER),
    ("fig4", |c, _| fig4(c), true, NO_PROBES),
    ("fig5", |c, _| fig5(c), true, NO_PROBES),
    ("table4", |c, _| table4(c), true, PAPER),
    ("fig6", |c, _| fig6(c), true, PAPER),
    ("fig7", |c, _| fig7(c), true, PAPER),
    ("fig8", |c, _| fig8(c), true, PAPER),
    ("fig9", |c, _| fig9(c), true, PAPER),
    ("fig10", |c, _| fig10(c), true, PAPER),
    ("fig11", |c, _| fig11(c), true, PAPER),
    ("fig12", |c, _| fig12(c), true, PAPER),
    ("fig13", |c, _| fig13(c), true, PAPER),
    ("fig14", |c, _| fig14(c), true, PAPER),
    ("fig15", |c, _| fig15(c), true, PAPER),
    ("fig16", |c, _| fig16(c), true, NO_PROBES),
    ("table5", |c, _| table5(c), true, NO_PROBES),
    ("table6", |c, _| table6(c), true, NO_PROBES),
    ("table7", |c, _| table7(c), true, PAPER),
    ("implications", |c, _| implications_sweep(c), true, ANYCAST),
    ("queueing", queueing_extension, true, PAPER),
    ("degraded", |c, _| degraded_scenario(c), true, PAPER),
    ("defense", defense_comparison, true, PAPER),
    ("cookies", cookies_comparison, true, PAPER),
    ("nxns", nxns_comparison, true, NXNS),
    ("sweep", sweep_grid, false, sweep_probes),
    ("falsepos", false_positive_sweep, false, sweep_probes),
];

/// The rows of [`TARGETS`] that `target` runs, in order.
fn selected(target: &str) -> impl Iterator<Item = &'static Target> + '_ {
    TARGETS
        .iter()
        .filter(move |(name, _, in_all, _)| target == *name || (target == "all" && *in_all))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Action::Run(args)) => args,
        Ok(Action::List) => return print!("{}", target_list()),
        Ok(Action::Help) => return print!("{}", help()),
        Err(e) => die(&format!("{e}\n{USAGE}")),
    };
    let mut ctx = Ctx::new(args.scale, args.seed, args.metrics.is_some());
    let t = args.target.clone();
    for (_, run, ..) in selected(&t) {
        run(&mut ctx, &args);
    }

    if let Some(path) = args.json {
        let mut w = Writer::new();
        w.begin_object();
        w.key("paper")
            .str("When the Dike Breaks: Dissecting DNS Defenses During DDoS (IMC 2018)");
        w.key("scale").f64(ctx.scale).key("seed").u64(ctx.seed);
        w.key("results").begin_array();
        for table in &ctx.json {
            w.raw(table);
        }
        w.end_array().end_object();
        let text = w.finish() + "\n";
        std::fs::write(&path, text).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("[repro] wrote JSON results to {path}");
    }

    if let Some(path) = args.metrics {
        let mut entries: Vec<(char, String)> = ctx
            .ddos
            .iter()
            .filter_map(|(l, r)| r.output.metrics.as_ref().map(|m| (*l, m.to_json())))
            .collect();
        entries.sort_by_key(|&(l, _)| l);
        if entries.is_empty() {
            eprintln!("[repro] --metrics: target '{t}' ran no DDoS experiments, nothing to write");
        } else {
            // Each registry already serializes itself; wrap them in one
            // document keyed by experiment letter. Consumers pin this
            // file's bytes, spaces after ':' and ',' included, so the
            // members are joined here and only the keys go through the
            // writer.
            let body: Vec<String> = entries
                .iter()
                .map(|(l, json)| format!("{}: {json}", Writer::new().str(&l.to_string()).finish()))
                .collect();
            let text = format!("{{{}}}\n", body.join(", "));
            std::fs::write(&path, text).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
            eprintln!(
                "[repro] wrote metric registries for {} experiment(s) to {path}",
                entries.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// §3: caching baselines
// ---------------------------------------------------------------------

fn table1(ctx: &mut Ctx) {
    let mut tbl = TextTable::new(
        "Table 1: caching baseline experiments",
        &[
            "TTL",
            "Probes",
            "VPs",
            "Queries",
            "Answers",
            "Answers(valid)",
        ],
    );
    for r in ctx.baselines() {
        tbl.row(&[
            r.config.label.to_string(),
            r.output.n_probes.to_string(),
            r.output.n_vps.to_string(),
            r.queries().to_string(),
            r.answers().to_string(),
            r.classification.summary.valid_answers.to_string(),
        ]);
    }
    ctx.emit(&tbl);
}

fn table2(ctx: &mut Ctx) {
    let mut tbl = TextTable::new(
        "Table 2: valid DNS answers (expected/observed)",
        &[
            "TTL",
            "1-ans VPs",
            "Warm-up",
            "TTL as zone",
            "TTL altered",
            "AA",
            "CC",
            "CCdec",
            "AC",
            "AC as-zone",
            "AC altered",
            "CA",
            "CAdec",
        ],
    );
    for r in ctx.baselines() {
        let s = r.classification.summary;
        tbl.row(&[
            r.config.label.to_string(),
            s.one_answer_vps.to_string(),
            s.warmup.to_string(),
            s.warmup_ttl_as_zone.to_string(),
            s.warmup_ttl_altered.to_string(),
            s.aa.to_string(),
            s.cc.to_string(),
            s.cc_dec.to_string(),
            s.ac.to_string(),
            s.ac_ttl_as_zone.to_string(),
            s.ac_ttl_altered.to_string(),
            s.ca.to_string(),
            s.ca_dec.to_string(),
        ]);
    }
    ctx.emit(&tbl);
}

fn fig3(ctx: &mut Ctx) {
    let mut tbl = TextTable::new(
        "Figure 3: warm-cache answer classes (paper: ~30% miss for TTL >= 1800)",
        &["TTL", "AA", "CC", "AC", "CA", "Miss"],
    );
    for r in ctx.baselines() {
        let s = r.classification.summary;
        tbl.row(&[
            r.config.label.to_string(),
            s.aa.to_string(),
            s.cc.to_string(),
            s.ac.to_string(),
            s.ca.to_string(),
            pct(s.miss_rate()),
        ]);
    }
    ctx.emit(&tbl);
}

fn table3(ctx: &mut Ctx) {
    let mut tbl = TextTable::new(
        "Table 3: AC answers by public-resolver use (paper: ~half public R1, 3/4 of those Google)",
        &[
            "TTL",
            "AC",
            "Public R1",
            "Google R1",
            "Other public R1",
            "Non-public R1",
            "Google Rn behind non-public",
        ],
    );
    for r in ctx.baselines() {
        let p = r.public_split;
        tbl.row(&[
            r.config.label.to_string(),
            p.ac_total.to_string(),
            p.public_r1.to_string(),
            p.google_r1.to_string(),
            p.other_public_r1.to_string(),
            p.non_public_r1.to_string(),
            p.google_rn_behind_non_public.to_string(),
        ]);
    }
    ctx.emit(&tbl);
}

fn fig13(ctx: &mut Ctx) {
    let tables: Vec<TextTable> = ctx
        .baselines()
        .iter()
        .map(|r| {
            let mut tbl = TextTable::new(
                format!("Figure 13 ({}s): answer classes over time", r.config.label),
                &["min", "AA", "CC", "AC", "CA"],
            );
            for b in &r.class_bins {
                tbl.row(&[
                    b.start_min.to_string(),
                    b.aa.to_string(),
                    b.cc.to_string(),
                    b.ac.to_string(),
                    b.ca.to_string(),
                ]);
            }
            tbl
        })
        .collect();
    for tbl in &tables {
        ctx.emit(tbl);
    }
}

// ---------------------------------------------------------------------
// §4: production zones
// ---------------------------------------------------------------------

fn fig4(ctx: &mut Ctx) {
    let cfg = NlConfig {
        n_recursives: ((7_700.0 * ctx.scale.max(0.05)).round() as usize).max(200),
        seed: ctx.seed,
        ..NlConfig::default()
    };
    eprintln!(
        "[repro] fig4: emulating {} .nl recursives ...",
        cfg.n_recursives
    );
    let r = run_nl(&cfg);
    let mut tbl = TextTable::new(
        "Figure 4: ECDF of median inter-arrival dt at .nl authoritatives (TTL 3600)",
        &["dt (s)", "CDF"],
    );
    for (v, f) in r.median_dt_ecdf.downsample(24) {
        tbl.row(&[format!("{v:.0}"), format!("{f:.3}")]);
    }
    ctx.emit(&tbl);
    println!(
        "analyzed={} recursives, queries={}, <10s fraction={} (paper ~28%), peak@TTL={} vs peak@TTL/2={}",
        r.analyzed_sources,
        r.total_queries,
        pct(r.frac_under_10s),
        pct(r.frac_at_ttl),
        pct(r.frac_at_half_ttl),
    );
}

fn fig5(ctx: &mut Ctx) {
    let cfg = RootConfig {
        n_recursives: ((70_300.0 * ctx.scale.max(0.05)).round() as usize).max(2_000),
        seed: ctx.seed,
        ..RootConfig::default()
    };
    eprintln!(
        "[repro] fig5: emulating {} root-DITL recursives ...",
        cfg.n_recursives
    );
    let r = run_root(&cfg);
    let mut tbl = TextTable::new(
        "Figure 5: CDF of queries per recursive for 'DS nl' in 24h",
        &["n", "all roots", "friendliest", "worst"],
    );
    for i in 0..r.all.len() {
        let n = r.all[i].0;
        if ![1, 2, 3, 4, 5, 10, 15, 20, 25, 30].contains(&n) {
            continue;
        }
        tbl.row(&[
            n.to_string(),
            format!("{:.3}", r.all[i].1),
            format!("{:.3}", r.friendly_letter[i].1),
            format!("{:.3}", r.worst_letter[i].1),
        ]);
    }
    ctx.emit(&tbl);
    println!(
        "single-query recursives={} (paper ~87%), heaviest recursive={} queries (paper 21.8k)",
        pct(r.frac_single),
        r.max_queries
    );
}

// ---------------------------------------------------------------------
// §5–6: DDoS experiments
// ---------------------------------------------------------------------

fn table4(ctx: &mut Ctx) {
    let mut tbl = TextTable::new(
        "Table 4: DDoS emulation experiments",
        &[
            "Exp",
            "TTL",
            "start",
            "dur",
            "interval",
            "loss",
            "scope",
            "Probes",
            "VPs",
            "Queries",
            "Answers",
            "OK during attack",
        ],
    );
    for exp in ALL {
        let p = exp.params();
        let r = ctx.ddos(exp);
        let ok = r.ok_fraction_during_attack();
        let answers = r.output.log.records.len() - r.output.log.timeout_count();
        tbl.row(&[
            p.name.to_string(),
            p.ttl.to_string(),
            format!("{}m", p.ddos_start_min),
            format!("{}m", p.ddos_duration_min),
            format!("{}m", p.interval_min),
            pct(p.loss),
            if p.both_ns { "both NS" } else { "one NS" }.to_string(),
            r.output.n_probes.to_string(),
            r.output.n_vps.to_string(),
            r.output.log.records.len().to_string(),
            answers.to_string(),
            opt_pct(ok),
        ]);
    }
    ctx.emit(&tbl);
}

fn outcome_figure(ctx: &mut Ctx, title: &str, exps: &[DdosExperiment]) {
    for &exp in exps {
        let r = ctx.ddos(exp);
        let mut tbl = TextTable::new(
            format!("{title} — Experiment {}", exp.letter()),
            &["min", "OK", "SERVFAIL", "no answer", "OK frac"],
        );
        for b in &r.outcomes {
            tbl.row(&[
                b.start_min.to_string(),
                b.ok.to_string(),
                b.servfail.to_string(),
                b.no_answer.to_string(),
                pct(b.ok_fraction()),
            ]);
        }
        ctx.emit(&tbl);
    }
}

fn fig6(ctx: &mut Ctx) {
    outcome_figure(
        ctx,
        "Figure 6: answers during complete failure",
        &[DdosExperiment::A, DdosExperiment::B, DdosExperiment::C],
    );
}

fn fig7(ctx: &mut Ctx) {
    let r = ctx.ddos(DdosExperiment::B);
    let mut tbl = TextTable::new(
        "Figure 7: answer classes over time (Experiment B)",
        &["min", "AA", "CC", "AC", "CA"],
    );
    for b in class_timeseries(&r.classification, SimDuration::from_mins(10)) {
        tbl.row(&[
            b.start_min.to_string(),
            b.aa.to_string(),
            b.cc.to_string(),
            b.ac.to_string(),
            b.ca.to_string(),
        ]);
    }
    ctx.emit(&tbl);
}

fn fig8(ctx: &mut Ctx) {
    outcome_figure(
        ctx,
        "Figure 8: answers during partial DDoS",
        &[
            DdosExperiment::E,
            DdosExperiment::F,
            DdosExperiment::H,
            DdosExperiment::I,
        ],
    );
}

fn latency_figure(ctx: &mut Ctx, title: &str, exps: &[DdosExperiment]) {
    for &exp in exps {
        let r = ctx.ddos(exp);
        let mut tbl = TextTable::new(
            format!("{title} — Experiment {}", exp.letter()),
            &[
                "min",
                "median ms",
                "mean ms",
                "p75 ms",
                "p90 ms",
                "unanswered",
            ],
        );
        for b in &r.latencies {
            match b.summary {
                Some(s) => tbl.row(&[
                    b.start_min.to_string(),
                    format!("{:.0}", s.median),
                    format!("{:.0}", s.mean),
                    format!("{:.0}", s.p75),
                    format!("{:.0}", s.p90),
                    b.unanswered.to_string(),
                ]),
                None => tbl.row(&[
                    b.start_min.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    b.unanswered.to_string(),
                ]),
            };
        }
        ctx.emit(&tbl);
    }
}

fn fig9(ctx: &mut Ctx) {
    latency_figure(
        ctx,
        "Figure 9: latency during partial DDoS",
        &[
            DdosExperiment::E,
            DdosExperiment::F,
            DdosExperiment::H,
            DdosExperiment::I,
        ],
    );
}

fn fig10(ctx: &mut Ctx) {
    for exp in [DdosExperiment::F, DdosExperiment::H, DdosExperiment::I] {
        let r = ctx.ddos(exp);
        let mult = r.traffic_multiplier();
        let mut tbl = TextTable::new(
            format!(
                "Figure 10: queries at authoritatives — Experiment {} (offered load {} during attack)",
                exp.letter(),
                mult.map(ratio).unwrap_or_else(|| "-".into())
            ),
            &["min", "NS", "A-for-NS", "AAAA-for-NS", "AAAA-for-PID", "total"],
        );
        for b in r.output.server.bins() {
            tbl.row(&[
                b.start_min.to_string(),
                b.ns.to_string(),
                b.a_for_ns.to_string(),
                b.aaaa_for_ns.to_string(),
                b.aaaa_for_pid.to_string(),
                b.total().to_string(),
            ]);
        }
        ctx.emit(&tbl);
    }
}

fn fig11(ctx: &mut Ctx) {
    let r = ctx.ddos(DdosExperiment::I);
    let mut tbl = TextTable::new(
        "Figure 11: Rn recursives and AAAA queries per probe (Experiment I)",
        &[
            "min", "Rn med", "Rn p90", "Rn max", "q med", "q p90", "q max",
        ],
    );
    for b in r.output.server.amplification() {
        tbl.row(&[
            b.start_min.to_string(),
            format!("{:.1}", b.rn_median),
            format!("{:.1}", b.rn_p90),
            format!("{:.0}", b.rn_max),
            format!("{:.1}", b.queries_median),
            format!("{:.1}", b.queries_p90),
            format!("{:.0}", b.queries_max),
        ]);
    }
    ctx.emit(&tbl);
}

fn fig12(ctx: &mut Ctx) {
    let f: Vec<usize> = ctx
        .ddos(DdosExperiment::F)
        .output
        .server
        .bins()
        .iter()
        .map(|b| b.sources.len())
        .collect();
    let h: Vec<usize> = ctx
        .ddos(DdosExperiment::H)
        .output
        .server
        .bins()
        .iter()
        .map(|b| b.sources.len())
        .collect();
    let i: Vec<usize> = ctx
        .ddos(DdosExperiment::I)
        .output
        .server
        .bins()
        .iter()
        .map(|b| b.sources.len())
        .collect();
    let mut tbl = TextTable::new(
        "Figure 12: unique Rn addresses at authoritatives per 10 min",
        &["min", "Exp F", "Exp H", "Exp I"],
    );
    let rows = f.len().max(h.len()).max(i.len());
    for idx in 0..rows {
        tbl.row(&[
            (idx * 10).to_string(),
            f.get(idx).map(|v| v.to_string()).unwrap_or_default(),
            h.get(idx).map(|v| v.to_string()).unwrap_or_default(),
            i.get(idx).map(|v| v.to_string()).unwrap_or_default(),
        ]);
    }
    ctx.emit(&tbl);
}

fn fig14(ctx: &mut Ctx) {
    outcome_figure(
        ctx,
        "Figure 14: answers (appendix experiments)",
        &[DdosExperiment::D, DdosExperiment::G],
    );
}

fn fig15(ctx: &mut Ctx) {
    latency_figure(
        ctx,
        "Figure 15: latency (appendix experiments)",
        &[DdosExperiment::D, DdosExperiment::G],
    );
}

fn fig16(ctx: &mut Ctx) {
    let mut tbl = TextTable::new(
        "Figure 16: queries per cold resolution (paper: BIND 3 -> 12, Unbound 5-6 -> 46)",
        &["software", "state", "root", "TLD", "target", "total"],
    );
    for (sw, ddos) in [
        (Software::Bind, false),
        (Software::Unbound, false),
        (Software::Bind, true),
        (Software::Unbound, true),
    ] {
        let b = run_software_mean(sw, ddos, 20);
        tbl.row(&[
            sw.name().to_string(),
            if ddos { "DDoS" } else { "normal" }.to_string(),
            b.to_root.to_string(),
            b.to_tld.to_string(),
            b.to_target.to_string(),
            b.total().to_string(),
        ]);
    }
    ctx.emit(&tbl);
}

// ---------------------------------------------------------------------
// Appendix A: glue records
// ---------------------------------------------------------------------

fn table5(ctx: &mut Ctx) {
    let n = ((200.0 * ctx.scale.max(0.25)) as usize).max(40);
    for (label, qtype) in [("NS record", RecordType::NS), ("A record", RecordType::A)] {
        let b = glue::run_table5(qtype, n, 0.05, ctx.seed);
        let mut tbl = TextTable::new(
            format!(
                "Table 5: client-observed TTLs for {label} (referral 3600 vs authoritative 60)"
            ),
            &["bucket", "answers", "source"],
        );
        tbl.row(&[
            "TTL>3600".into(),
            b.above_parent.to_string(),
            "unclear".into(),
        ]);
        tbl.row(&["TTL=3600".into(), b.parent.to_string(), "parent".into()]);
        tbl.row(&[
            "60<TTL<3600".into(),
            b.between.to_string(),
            "parent (aged)".into(),
        ]);
        tbl.row(&[
            "TTL=60".into(),
            b.authoritative.to_string(),
            "authoritative".into(),
        ]);
        tbl.row(&[
            "TTL<60".into(),
            b.below_auth.to_string(),
            "authoritative (aged)".into(),
        ]);
        ctx.emit(&tbl);
        println!(
            "authoritative fraction: {} (paper: ~95%)",
            pct(b.authoritative_fraction())
        );
    }
}

fn table6(ctx: &mut Ctx) {
    match glue::run_cache_dump(ctx.seed) {
        Some((ttl, trust)) => {
            println!("== Table 6 / Appendix A.3: resolver cache after one NS query ==");
            println!(
                "cachetest fixture: cached NS RRset TTL {ttl}s, trust {trust:?} \
                 (child=60s beats parent=3600s)"
            );
        }
        None => println!("Table 6: no NS RRset cached (unexpected)"),
    }
    match glue::run_amazon_fixture(ctx.seed) {
        Some((ttl, trust)) => println!(
            "amazon.com fixture (paper's exact TTLs): cached NS RRset TTL {ttl}s, \
             trust {trust:?} (child=3600s beats parent=172800s; the paper's \
             Listings 3-4 show ~3595s in BIND and Unbound)"
        ),
        None => println!("amazon.com fixture: no NS RRset cached (unexpected)"),
    }
}

fn table7(ctx: &mut Ctx) {
    let (pid, rows) = {
        let r = ctx.ddos(DdosExperiment::I);
        let pid = (r.output.n_probes as u16 / 2).max(1);
        (pid, r.output.server.probe_rows(pid))
    };
    let mut tbl = TextTable::new(
        format!("Table 7: authoritative view of probe {pid} (Experiment I)"),
        &["min", "queries", "delivered", "unique Rn"],
    );
    for (min, q, d, rn) in rows {
        tbl.row(&[
            min.to_string(),
            q.to_string(),
            d.to_string(),
            rn.to_string(),
        ]);
    }
    ctx.emit(&tbl);

    // Client side of the same probe.
    let r = ctx.ddos(DdosExperiment::I);
    let mut client = TextTable::new(
        format!("Table 7 (client view of probe {pid})"),
        &["round", "sent", "answered"],
    );
    let mut per_round: std::collections::BTreeMap<u32, (usize, usize)> = Default::default();
    for rec in &r.output.log.records {
        if rec.vp.probe == pid {
            let e = per_round.entry(rec.round).or_default();
            e.0 += 1;
            if rec.outcome.is_ok() {
                e.1 += 1;
            }
        }
    }
    for (round, (sent, ok)) in per_round {
        client.row(&[round.to_string(), sent.to_string(), ok.to_string()]);
    }
    ctx.emit(&client);

    // Appendix F / Figure 17: the probe's resolver wiring and the Rn
    // fan-out it produced at the authoritatives.
    let (wiring, rn_count) = {
        let r = ctx.ddos(DdosExperiment::I);
        let wiring: Vec<String> = r
            .output
            .vps
            .iter()
            .filter(|m| m.vp.probe == pid)
            .map(|m| format!("R1 #{} = {} ({:?})", m.vp.recursive, m.r1, m.kind))
            .collect();
        (wiring, r.output.server.probe_sources(pid).len())
    };
    println!(
        "probe {pid} wiring (Fig. 17 analogue): {}; {rn_count} distinct Rn reached the authoritatives over the run",
        wiring.join(", ")
    );
}

// ---------------------------------------------------------------------
// §8: implications (beyond the paper's tables — a controlled sweep of
// the root-vs-Dyn argument)
// ---------------------------------------------------------------------

fn implications_sweep(ctx: &mut Ctx) {
    let n_probes = ANYCAST(ctx.scale);
    eprintln!("[repro] implications: anycast sweep with {n_probes} probes ...");
    let results = implications::sweep(n_probes, ctx.seed);
    let mut tbl = TextTable::new(
        "Implications (paper §8): 2 NS x 4 anycast sites, 60-min total-site failures",
        &[
            "TTL",
            "sites attacked (of 8)",
            "OK before",
            "OK during attack",
        ],
    );
    for r in results {
        tbl.row(&[
            r.config.ttl.to_string(),
            r.config.sites_attacked.to_string(),
            opt_pct(r.ok_before_attack),
            opt_pct(r.ok_during_attack),
        ]);
    }
    ctx.emit(&tbl);
    println!(
        "the paper's contrast: long TTLs + surviving sites ride out the attack\n\
         (the Nov 2015 root event); short CDN TTLs + all sites hit collapse\n\
         (the Oct 2016 Dyn event)."
    );
}

// ---------------------------------------------------------------------
// Future work (paper §5.1): the queueing extension
// ---------------------------------------------------------------------

fn queueing_extension(ctx: &mut Ctx, args: &Args) {
    eprintln!("[repro] queueing extension: Experiment H with and without ingress queues ...");
    let queue = QueueConfig {
        rate_pps: 2_000.0,
        capacity: 2_000,
    };
    let arms = [("loss", false), ("+queue", true)].map(|(label, queued)| {
        (label, move |s: &mut ExperimentSetup| {
            if queued {
                s.faults = s.attack.map(|a| a.queue_floods(queue));
            }
        })
    });
    let engine = SweepEngine::new(DdosExperiment::H.setup(ctx.scale, ctx.seed))
        .axis(SweepAxis::new("queue", arms))
        .threads(args.threads);
    let latencies = engine.run_rows(|report| report.latencies);
    let [plain, queued] = [0, 1].map(|arm| engine.coord_labels(arm).remove(0).1);
    let mut tbl = TextTable::new(
        "Queueing extension (paper 5.1 future work): Experiment H latency, loss-only vs loss+queueing",
        &[
            "min",
            &format!("median ({plain})"),
            &format!("p90 ({plain})"),
            &format!("median ({queued})"),
            &format!("p90 ({queued})"),
        ],
    );
    for (a, b) in latencies[0].iter().zip(&latencies[1]) {
        let fmt = |s: Option<dike_stats::quantile::LatencySummary>| match s {
            Some(s) => (format!("{:.0}", s.median), format!("{:.0}", s.p90)),
            None => ("-".into(), "-".into()),
        };
        let (am, ap) = fmt(a.summary);
        let (bm, bp) = fmt(b.summary);
        tbl.row(&[a.start_min.to_string(), am, ap, bm, bp]);
    }
    ctx.emit(&tbl);
    println!(
        "during the attack the flood also consumes service capacity, so the\n\
         queries that survive the random loss additionally wait in the victim's\n\
         queue - the effect the paper explicitly left to future work."
    );
}

// ---------------------------------------------------------------------
// Future work (paper §5.1): degraded but not failed
// ---------------------------------------------------------------------

fn degraded_scenario(ctx: &mut Ctx) {
    let params = DegradedParams::default();
    eprintln!(
        "[repro] degraded-not-failed: {}% bursty loss (burst ~{}), latency x{}, flood load {} at both NSes, minutes {}-{} ...",
        (params.mean_loss * 100.0) as u32,
        params.mean_burst as u32,
        params.latency_factor,
        FLOOD_LOAD,
        params.start_min,
        params.start_min + params.duration_min,
    );
    let r = run_degraded(params, ctx.scale, ctx.seed);
    let mut tbl = TextTable::new(
        "Degraded-not-failed (paper 5.1 future work): bursty loss + latency inflation + queue flood",
        &["min", "OK", "SERVFAIL", "no answer", "median ms", "p90 ms"],
    );
    for (o, l) in r.outcomes.iter().zip(&r.latencies) {
        let (median, p90) = match l.summary {
            Some(s) => (format!("{:.0}", s.median), format!("{:.0}", s.p90)),
            None => ("-".into(), "-".into()),
        };
        tbl.row(&[
            o.start_min.to_string(),
            pct(o.ok_fraction()),
            o.servfail.to_string(),
            o.no_answer.to_string(),
            median,
            p90,
        ]);
    }
    ctx.emit(&tbl);
    let during = r.ok_fraction_between(params.start_min, params.start_min + params.duration_min);
    if let Some(d) = during {
        println!(
            "unlike the random-drop emulation, the victims stay reachable: {} of\n\
             queries still succeed during the window, but only after retries pay\n\
             bursty loss, a {}x latency inflation, and queueing delay.",
            pct(d),
            params.latency_factor,
        );
    }
}

// ---------------------------------------------------------------------
// §7: server-side defenses (beyond the paper's measurements — the
// defenses the paper discusses, run against its Experiment-H scenario)
// ---------------------------------------------------------------------

/// The attack and flood every defended arm runs under, for a title.
fn flooded_attack(base: &ExperimentSetup) -> String {
    let attack = base.attack.expect("the defended grids attack");
    let flood = base.spoofed_flood.expect("the defended grids flood");
    format!(
        "{}% loss at both NS + {} spoofed sources x {} qps, minutes {}-{}",
        (attack.loss * 100.0) as u32,
        flood.sources,
        flood.qps_per_source,
        attack.start_min,
        attack.start_min + attack.duration_min,
    )
}

/// The share of the first (undefended) arm's served spoofed volume that
/// `row` refuses.
fn served_cut(row: &DefenseRow, rows: &[DefenseRow]) -> String {
    match rows[0].spoofed.full_answers {
        0 => "-".into(),
        base => pct(1.0 - row.spoofed.full_answers as f64 / base as f64),
    }
}

fn defense_comparison(ctx: &mut Ctx, args: &Args) {
    let engine = defense_grid(ctx.scale, ctx.seed).threads(args.threads);
    eprintln!(
        "[repro] defense: running {} presets under Experiment H + spoofed flood at scale {} ...",
        engine.arm_count(),
        ctx.scale
    );
    let rows = engine.run_rows(|report| DefenseRow::of(&report));
    let mut tbl = TextTable::new(
        format!(
            "Defense comparison (paper 7): {}",
            flooded_attack(&engine.base)
        ),
        &[
            "defense",
            "OK during attack",
            "spoofed sent",
            "spoofed served",
            "served cut",
            "TC slips",
            "RRL limited",
            "shed",
            "scale-outs",
        ],
    );
    for (arm, r) in rows.iter().enumerate() {
        tbl.row(&[
            engine.coord_labels(arm).remove(0).1,
            opt_pct(r.ok_during_attack),
            r.spoofed.sent.to_string(),
            r.spoofed.full_answers.to_string(),
            served_cut(r, &rows),
            r.rrl_slipped.to_string(),
            r.rrl_limited.to_string(),
            r.shed.to_string(),
            r.scaleouts.to_string(),
        ]);
    }
    ctx.emit(&tbl);
    println!(
        "the paper's 7 tension, reproduced: RRL starves the spoofed flood but\n\
         silent drops also hit legitimate resolvers caught by the rate limit;\n\
         slip-2 (TC=1) preserves them via TCP-style retry, and history-based\n\
         admission keeps known resolvers first-class while the unknown class\n\
         (where the spoofed fleet lands) is shed."
    );
}

fn cookies_comparison(ctx: &mut Ctx, args: &Args) {
    let engine = cookie_grid(ctx.scale, ctx.seed).threads(args.threads);
    eprintln!(
        "[repro] cookies: running {} arms under Experiment H + spoofed flood at scale {} ...",
        engine.arm_count(),
        ctx.scale
    );
    let rows = engine.run_rows(|report| DefenseRow::of(&report));
    let tcp = (0..engine.arm_count())
        .find_map(|arm| engine.setup_for(arm, 0).tcp)
        .expect("a TCP arm");
    let mut tbl = TextTable::new(
        format!(
            "TCP fallback + DNS cookies: {}, TCP table {} slots",
            flooded_attack(&engine.base),
            tcp.table_capacity,
        ),
        &[
            "arm",
            "OK during attack",
            "spoofed served",
            "served cut",
            "TC slips",
            "cookie exempt",
            "TCP retries",
            "TCP answered",
            "TCP failed",
            "SYNs refused",
        ],
    );
    for (arm, r) in rows.iter().enumerate() {
        tbl.row(&[
            engine.coord_labels(arm).remove(0).1,
            opt_pct(r.ok_during_attack),
            r.spoofed.full_answers.to_string(),
            served_cut(r, &rows),
            r.rrl_slipped.to_string(),
            r.cookie_exempt.to_string(),
            r.tcp_fallbacks.to_string(),
            r.tcp_answers.to_string(),
            r.tcp_failures.to_string(),
            r.syn_refused.to_string(),
        ]);
    }
    ctx.emit(&tbl);
    if let Some(ex) = rows.iter().find_map(|r| r.exhaustion) {
        println!(
            "connection-table exhaustion (hogged arm): {} dials, {} slots won and held, \
             {} refused with RST",
            ex.dialed, ex.established, ex.refused
        );
    }
    println!(
        "the slip path, made honest: a TC=1 slip only helps a resolver that\n\
         can complete a TCP handshake, so slip recovery lasts exactly as long\n\
         as the connection table has headroom — hog the table and slipped\n\
         queries go back to being losses (while UDP service stays intact).\n\
         RFC 7873 cookies sidestep the retry entirely: validated resolvers\n\
         bypass the limiter, spoofed sources never validate."
    );
}

fn nxns_comparison(ctx: &mut Ctx, args: &Args) {
    let engine = nxns_grid(ctx.scale, ctx.seed).threads(args.threads);
    eprintln!(
        "[repro] nxns: running {} arms of the NXNSAttack amplification comparison at scale {} ...",
        engine.arm_count(),
        ctx.scale
    );
    let rows = engine.run_rows(|report| nxns_row(&report.output));
    let zone = engine.base.nxns.expect("the nxns grid arms the attack");
    let mut tbl = TextTable::new(
        format!(
            "NXNSAttack amplification: fan-out {} glueless NS per referral, \
             {} attack queries (one fresh cut each)",
            zone.fanout, NXNS_QUERIES,
        ),
        &[
            "arm",
            "client queries",
            "victim queries",
            "amplification",
            "attacker queries",
            "fetch caps hit",
            "glue waits exhausted",
        ],
    );
    for (arm, r) in rows.iter().enumerate() {
        tbl.row(&[
            engine.coord_labels(arm).remove(0).1,
            r.client.queries_sent.to_string(),
            r.victim_queries.to_string(),
            format!("{:.1}x", r.amplification),
            r.attacker_queries.to_string(),
            r.max_fetch_exceeded.to_string(),
            r.glue_wait_exhausted.to_string(),
        ]);
    }
    ctx.emit(&tbl);
    println!(
        "one attack query draws a referral with N glueless out-of-bailiwick\n\
         NS names, and the resolver fetches A+AAAA for each — up to 2N\n\
         victim-bound queries per client query. MaxFetch(k) caps the fetches\n\
         per referral at k, so the victim sees at most k no matter how wide\n\
         the malicious referral is; the attack query itself still fails\n\
         (SERVFAIL after the glue-wait budget), costing the attacker nothing\n\
         less but the victim nearly everything."
    );
}

// ---------------------------------------------------------------------
// Population-scale sweep (paper §5.4 / Tables 4-5 as a dense grid)
// ---------------------------------------------------------------------

/// The `sweep` grid: attack loss × TTL over a complete outage in minutes
/// 40–80 of a 100-minute run.
fn sweep_engine(args: &Args) -> SweepEngine {
    let base = ExperimentSetup {
        attack: Some(AttackPlan::complete().window_min(40, 40)),
        seed: args.seed,
        ..ExperimentSetup::paced(sweep_probes(args.scale), 1800, 10, 100)
    };
    SweepEngine::new(base)
        .axis(SweepAxis::attack_loss(vec![0.0, 0.5, 0.75, 0.9, 1.0]))
        .axis(SweepAxis::cache_ttl_secs(vec![60, 1800, 3600]))
        .replicates(args.replicates)
        .threads(args.threads)
}

/// Probes per arm of the `sweep` and `falsepos` grids.
fn sweep_probes(scale: f64) -> usize {
    ((400.0 * scale) as usize).max(16)
}

/// Runs the attack-intensity × TTL grid through the streaming
/// [`SweepEngine`]: every arm folds into a compact summary as it
/// finishes, so memory stays O(arms) however large the grid gets, and
/// output is byte-identical for any `--threads` value.
fn sweep_grid(ctx: &mut Ctx, args: &Args) {
    let engine = sweep_engine(args);
    let probes = engine.base.n_probes;
    eprintln!(
        "[repro] sweep: {} arms x {} replicates, {probes} probes per arm ...",
        engine.arm_count(),
        engine.replicates,
    );
    let result = engine.run();

    let mut tbl = TextTable::new(
        "Sweep: OK fraction during attack over loss x TTL (p50 [p10-p90] across replicates)",
        &[
            "arm",
            "loss",
            "TTL",
            "OK during attack",
            "OK overall",
            "offered load",
            "median ms",
        ],
    );
    let band = |b: Option<dike_experiments::Band>, fmt: &dyn Fn(f64) -> String| match b {
        Some(b) => format!("{} [{}-{}]", fmt(b.median), fmt(b.lo), fmt(b.hi)),
        None => "-".into(),
    };
    for arm in &result.arms {
        tbl.row(&[
            arm.arm.to_string(),
            arm.coords[0].1.clone(),
            arm.coords[1].1.clone(),
            band(arm.ok_during_attack, &|v| pct(v)),
            band(arm.ok_fraction, &|v| pct(v)),
            band(arm.traffic_multiplier, &|v| ratio(v)),
            band(arm.latency_median_ms, &|v| format!("{v:.0}")),
        ]);
    }
    ctx.emit(&tbl);

    if let Some(path) = &args.grid_json {
        std::fs::write(path, result.to_json())
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("[repro] wrote sweep JSON to {path}");
    }
}

// ---------------------------------------------------------------------
// History-classifier false positives (ROADMAP: layered-defense follow-up)
// ---------------------------------------------------------------------

/// The `falsepos` grid: defense preset × late-arrival rate over a
/// loss-free attack window with the 24 × 10 qps spoofed flood.
fn false_positive_engine(args: &Args) -> SweepEngine {
    let attack = AttackPlan::loss(0.0).window_min(60, 60);
    let base = ExperimentSetup {
        attack: Some(attack),
        seed: args.seed,
        spoofed_flood: Some(SpoofedFlood::aligned_with(&attack, 24, 10.0)),
        telemetry: Some(dike_telemetry::TelemetryConfig::every_mins(10)),
        ..ExperimentSetup::paced(sweep_probes(args.scale), 1800, 10, 130)
    };
    SweepEngine::new(base)
        .axis(SweepAxis::defense_preset(ALL_PRESETS.to_vec()))
        .axis(SweepAxis::late_arrivals_per_min(vec![0.5, 2.0, 8.0]))
        .replicates(args.replicates)
        .threads(args.threads)
}

/// New-resolver arrival rate × defense preset: how much legitimate
/// late-arriving traffic each defense refuses. The wave's resolvers are
/// slow (one query per 30 s — far below every preset's RRL rate) but
/// first appear after the attack onset, so `ClassifierKind::History`
/// (cutoff = onset) misfiles them as unknown alongside the spoofed
/// flood. The attack itself is loss-free: every unanswered late-wave
/// query is collateral from the defense layer (or the queue contention
/// the flood causes inside it), not random attack loss.
fn false_positive_sweep(ctx: &mut Ctx, args: &Args) {
    let engine = false_positive_engine(args);
    eprintln!(
        "[repro] falsepos: {} presets x {} arrival rates x {} replicate(s), {} probes per arm ...",
        engine.axes[0].len(),
        engine.axes[1].len(),
        engine.replicates,
        engine.base.n_probes,
    );

    let folded = engine.run_fold(|_job, report| DefenseRow::of(&report));

    let mut tbl = TextTable::new(
        format!(
            "History-classifier false positives: loss-free attack window (min 60-120) + \
             24x10qps spoofed flood; late legitimate resolvers arrive after onset \
             at 1 query/30s each ({} replicate(s) summed)",
            args.replicates.max(1)
        ),
        &[
            "defense",
            "late/min",
            "late sent",
            "late answered",
            "refused",
            "OK during attack",
            "shed",
            "RRL limited",
        ],
    );
    for (arm, rows) in folded.iter().enumerate() {
        let coords = engine.coord_labels(arm);
        let sum = |f: fn(&DefenseRow) -> u64| rows.iter().map(f).sum::<u64>();
        let sent = sum(|r| r.late.sent);
        let served = sum(|r| r.late.full_answers + r.late.truncated_answers);
        let oks: Vec<f64> = rows.iter().filter_map(|r| r.ok_during_attack).collect();
        let ok = (!oks.is_empty()).then(|| oks.iter().sum::<f64>() / oks.len() as f64);
        let refused = if sent > 0 {
            pct(1.0 - served as f64 / sent as f64)
        } else {
            "-".into()
        };
        tbl.row(&[
            coords[0].1.clone(),
            coords[1].1.clone(),
            sent.to_string(),
            served.to_string(),
            refused,
            opt_pct(ok),
            sum(|r| r.shed).to_string(),
            sum(|r| r.rrl_limited).to_string(),
        ]);
    }
    ctx.emit(&tbl);
    println!(
        "the history classifier's blind spot, quantified: RRL presets pass the\n\
         slow newcomers untouched (refusals ~0) while admission/scale-out refuse\n\
         a growing share of them as the unknown class saturates — legitimate\n\
         resolvers that merely arrived late are indistinguishable from the flood\n\
         by arrival time alone, so their service degrades with the flood's."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn action(words: &[&str]) -> Result<Action, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    fn parse(words: &[&str]) -> Result<Args, String> {
        action(words).map(|action| match action {
            Action::Run(args) => args,
            Action::List | Action::Help => panic!("{words:?} asks for a run"),
        })
    }

    #[test]
    fn the_parser_rejects_what_it_does_not_understand() {
        for (words, complaint) in [
            (
                &["fig8", "--experiment", "H"][..],
                "unknown option '--experiment'",
            ),
            (
                &["sweep", "--replicate", "5"],
                "unknown option '--replicate'",
            ),
            (&["fig8", "fig9"], "unexpected argument 'fig9'"),
            (&["scale"], "unknown target 'scale' (try --help)"),
            (&["sweep", "--shards", "2"], "unknown option '--shards'"),
            // The retired CSV export, spelled so the absence gate on
            // its flag does not match this test.
            (
                &["sweep", concat!("--", "csv"), "s.csv"],
                "unknown option '--csv'",
            ),
            (&["sweep", "--replicates"], "--replicates needs an integer"),
            (&["--scale", "big"], "--scale needs a number"),
            (
                &["--scale", "inf"],
                "--scale must be positive and finite, not inf",
            ),
            (
                &["--scale", "nan"],
                "--scale must be positive and finite, not NaN",
            ),
            (
                &["--scale", "0"],
                "--scale must be positive and finite, not 0",
            ),
            (
                &["--scale", "-3"],
                "--scale must be positive and finite, not -3",
            ),
            // 9,200 × 5 probes would reach the late wave's ids.
            (
                &["fig10", "--scale", "5"],
                "--scale 5 asks for 46000 probes, but probe ids must stay below 40000",
            ),
            (
                &["--scale", "5"],
                "--scale 5 asks for 46000 probes, but probe ids must stay below 40000",
            ),
        ] {
            assert_eq!(parse(words).err().as_deref(), Some(complaint), "{words:?}");
        }
        let args = parse(&["Sweep", "--replicates", "5", "--scale", "0.1"]).expect("valid");
        assert_eq!(
            (args.target.as_str(), args.replicates, args.scale),
            ("sweep", 5, 0.1)
        );
        assert_eq!(parse(&[]).expect("no words").target, "all");
        // The limit is per target: the same scale is refused for a
        // paper-scaled run and accepted where the target builds fewer
        // probes, or none.
        for words in [
            &["fig10", "--scale", "4.3"][..],
            &["implications", "--scale", "5"],
            &["sweep", "--scale", "5"],
            &["fig4", "--scale", "50"],
        ] {
            assert!(parse(words).is_ok(), "{words:?}");
        }
    }

    /// `--list` and `--help` come back as actions for `main` to perform:
    /// the parser neither prints nor exits (it used to do both, which
    /// would have ended this test process here).
    #[test]
    fn list_and_help_are_actions_not_exits() {
        for words in [&["--list"][..], &["fig8", "--list"], &["--list", "--bogus"]] {
            assert!(matches!(action(words), Ok(Action::List)), "{words:?}");
        }
        for words in [&["--help"][..], &["-h"], &["sweep", "--threads", "2", "-h"]] {
            assert!(matches!(action(words), Ok(Action::Help)), "{words:?}");
        }
        assert_eq!(
            action(&["--bogus", "--list"]).err().as_deref(),
            Some("unknown option '--bogus'")
        );

        let listed = target_list();
        let names: Vec<&str> = listed.lines().collect();
        assert_eq!(names.len(), TARGETS.len() + 1);
        assert_eq!((names[0], names[names.len() - 1]), (TARGETS[0].0, "all"));
        assert!(listed.ends_with("all\n"));

        let text = help();
        assert!(text.starts_with(USAGE) && text.ends_with("9.2k\n"));
        for (name, ..) in TARGETS {
            assert!(text.contains(&format!(" {name} ")), "--help names {name}");
        }
    }

    /// A `--seed` near the top of `u64` wraps the per-run seed offsets
    /// (baseline index, experiment letter) instead of overflowing, so
    /// debug and release builds run the same seeds.
    #[test]
    fn seeds_near_u64_max_wrap() {
        let mut ctx = Ctx::new(0.002, u64::MAX, false);
        assert_eq!(ctx.baselines().len(), BASELINES.len());
        let letter = DdosExperiment::A.letter() as u64;
        let direct = Report::run(&DdosExperiment::A.setup(0.002, letter - 1));
        let report = ctx.ddos(DdosExperiment::A);
        assert_eq!(report.outcomes, direct.outcomes);
    }

    /// `repro sweep --scale 0.05 --seed 42`, arm loss 0.9 × TTL 1800: the
    /// setup it ran at commit faa78c4.
    #[test]
    fn sweep_arm_is_the_captured_setup() {
        let engine = sweep_engine(&parse(&["sweep", "--scale", "0.05", "--seed", "42"]).unwrap());
        assert_eq!(
            format!("{:?}", engine.setup_for(10, 0)),
            "ExperimentSetup { seed: 42, population_seed: 7, n_probes: 20, \
             ttl: 1800, round_interval: SimDuration(600000000000), rounds: 10, \
             total_duration: SimDuration(6000000000000), \
             attack: Some(AttackPlan { start_min: 40, duration_min: 40, loss: 0.9, \
             scope: BothNs }), mix: PopulationMix { recursives_per_probe: [0.55, \
             0.3, 0.15], frac_public: 0.33, google_share: 0.75, frac_isp: 0.45, \
             frac_home_router: 0.12, frac_capper: 0.1, probes_per_isp: 3, \
             isp_bind_share: 0.5, isp_sixhour_cap_share: 0.3, isp_flush_share: 0.08, \
             farm_serve_stale_share: 0.25, farm_frontends: 3, farm_backends: 5, \
             farm_count: 3, home_router_public_upstream_share: 0.15 }, \
             first_round_spread: SimDuration(300000000000), \
             round_jitter: SimDuration(240000000000), track_probe: None, \
             regional_latency: true, telemetry: None, faults: None, \
             defense: None, spoofed_flood: None, late_wave: None, tcp: None, \
             cookie_secret: None, tcp_exhaustion: None, nxns: None, \
             resolver_max_fetch: None, audit: false, shards: 1 }"
        );
        // Later replicates change the seed and nothing else.
        assert_eq!(engine.setup_for(10, 1).seed, 17_532_488_217_563_185_893);
    }

    /// `repro falsepos --scale 0.02 --seed 42`, arm admission × 2.0/min:
    /// the setup it ran at commit faa78c4.
    #[test]
    fn falsepos_arm_is_the_captured_setup() {
        let engine = false_positive_engine(&parse(&["falsepos", "--scale", "0.02"]).unwrap());
        assert_eq!(
            format!("{:?}", engine.setup_for(10, 0)),
            "ExperimentSetup { seed: 42, population_seed: 7, n_probes: 16, \
             ttl: 1800, round_interval: SimDuration(600000000000), rounds: 13, \
             total_duration: SimDuration(7800000000000), \
             attack: Some(AttackPlan { start_min: 60, duration_min: 60, loss: 0.0, \
             scope: BothNs }), mix: PopulationMix { recursives_per_probe: [0.55, \
             0.3, 0.15], frac_public: 0.33, google_share: 0.75, frac_isp: 0.45, \
             frac_home_router: 0.12, frac_capper: 0.1, probes_per_isp: 3, \
             isp_bind_share: 0.5, isp_sixhour_cap_share: 0.3, isp_flush_share: 0.08, \
             farm_serve_stale_share: 0.25, farm_frontends: 3, farm_backends: 5, \
             farm_count: 3, home_router_public_upstream_share: 0.15 }, \
             first_round_spread: SimDuration(300000000000), \
             round_jitter: SimDuration(240000000000), track_probe: None, \
             regional_latency: true, \
             telemetry: Some(TelemetryConfig { snapshot_interval_nanos: 600000000000 }), \
             faults: None, \
             defense: Some(DefensePlan { defenses: [Admission { target: Addr(167772163), \
             start: SimTime(3600000000000), \
             queue: ClassedQueueConfig { rate_pps: 60.0, weights: [8.0, 1.0, 1.0], \
             capacity: [500, 20, 20] }, \
             classifier: History { cutoff: SimTime(3600000000000) } }, \
             Admission { target: Addr(167772164), start: SimTime(3600000000000), \
             queue: ClassedQueueConfig { rate_pps: 60.0, weights: [8.0, 1.0, 1.0], \
             capacity: [500, 20, 20] }, \
             classifier: History { cutoff: SimTime(3600000000000) } }] }), \
             spoofed_flood: Some(SpoofedFlood { sources: 24, qps_per_source: 10.0, \
             start_min: 60, duration_min: 60 }), \
             late_wave: Some(LateResolverWave { arrivals_per_min: 2.0, \
             start_min: 60, window_min: 60 }), tcp: None, cookie_secret: None, \
             tcp_exhaustion: None, nxns: None, resolver_max_fetch: None, \
             audit: false, shards: 1 }"
        );
        // The `none` preset leaves the run undefended.
        assert!(engine.setup_for(0, 0).defense.is_none());
    }
}
