//! Parameter sweeps: run many independent setups in parallel and fold
//! each one into a compact summary as it finishes.
//!
//! Every run is a pure function of its [`ExperimentSetup`], seed
//! included, so sweeps parallelize perfectly — each arm gets its own
//! simulator on its own OS thread (std scoped threads; the simulator
//! itself stays single-threaded and deterministic).
//!
//! [`SweepEngine`] is the population-scale engine: arbitrary axes
//! ([`SweepAxis`]) span a grid of arms, each arm runs `K` seed
//! replicates, and every finished [`Report`] is folded *in the worker*
//! into an [`ArmSummary`]-bound [`ReplicateSummary`] — memory stays
//! O(arms), never O(arms × full reports). Seeds are derived
//! deterministically from the base seed, so results (and the JSON
//! export) are byte-identical regardless of worker count.
//!
//! ```
//! use dike_experiments::{AttackPlan, ExperimentSetup, SweepAxis, SweepEngine};
//!
//! let base = ExperimentSetup {
//!     attack: Some(AttackPlan::complete().window_min(40, 40)),
//!     seed: 7,
//!     ..ExperimentSetup::paced(30, 1800, 10, 100)
//! };
//! let result = SweepEngine::new(base)
//!     .axis(SweepAxis::attack_loss(vec![0.5, 1.0]))
//!     .axis(SweepAxis::cache_ttl_secs(vec![60, 1800]))
//!     .replicates(2)
//!     .run();
//! assert_eq!(result.arms.len(), 4);
//! assert_eq!(result.axes[1].0, "ttl_s");
//! ```

use dike_stats::ecdf::Ecdf;
use dike_stats::quantile::{quantile, LatencySummary};
use dike_telemetry::json::Writer;
use dike_telemetry::rng::splitmix64;

use crate::defense::{DefensePreset, LateResolverWave};
use crate::report::Report;
use crate::setup::{AttackPlan, ExperimentSetup};

/// Points kept per replicate when downsampling the latency ECDF.
const ECDF_POINTS: usize = 32;

/// What one axis value does to the arm's setup.
type Mutation = Box<dyn Fn(&mut ExperimentSetup) + Send + Sync>;

/// One axis of a sweep grid: a name and, per value, a label and a
/// mutation of the base [`ExperimentSetup`]. Axes compose as a cross
/// product — two axes of 4 and 3 values span 12 arms — and an arm
/// applies its mutations in axis order, so an axis that reads a field
/// (the defense and late-wave axes read the attack window) goes after
/// the axes that write it.
pub struct SweepAxis {
    name: String,
    values: Vec<(String, Mutation)>,
}

impl SweepAxis {
    /// An axis called `name` (its JSON key) over
    /// `(label, mutation)` values. Any field of the setup is an axis in
    /// one line:
    ///
    /// ```
    /// use dike_experiments::{ExperimentSetup, SweepAxis};
    ///
    /// let probes = SweepAxis::new(
    ///     "probes",
    ///     [50, 500].map(|n| (n.to_string(), move |s: &mut ExperimentSetup| s.n_probes = n)),
    /// );
    /// assert_eq!(probes.labels(), ["50", "500"]);
    /// ```
    pub fn new<L, F>(name: &str, values: impl IntoIterator<Item = (L, F)>) -> Self
    where
        L: Into<String>,
        F: Fn(&mut ExperimentSetup) + Send + Sync + 'static,
    {
        SweepAxis {
            name: name.to_string(),
            values: values
                .into_iter()
                .map(|(label, apply)| (label.into(), Box::new(apply) as Mutation))
                .collect(),
        }
    }

    /// Attack ingress loss rates — the paper's §5.4 intensity axis. Each
    /// value (clamped to `[0, 1]`) replaces the loss of the base attack,
    /// arming Table 4's common window (minutes 60–120) if the base has
    /// none.
    pub fn attack_loss(rates: Vec<f64>) -> Self {
        Self::new(
            "loss",
            rates.into_iter().map(|loss| {
                (fmt_f64(loss), move |s: &mut ExperimentSetup| {
                    s.attack.get_or_insert_with(AttackPlan::complete).loss = loss.clamp(0.0, 1.0);
                })
            }),
        )
    }

    /// Zone TTLs in seconds — the cache-lifetime axis of Tables 4–6.
    pub fn cache_ttl_secs(ttls: Vec<u32>) -> Self {
        Self::new(
            "ttl_s",
            ttls.into_iter()
                .map(|ttl| (ttl.to_string(), move |s: &mut ExperimentSetup| s.ttl = ttl)),
        )
    }

    /// Server-side defense presets (§7): each value arms one preset at
    /// both authoritatives from the attack onset, replacing any earlier
    /// defense.
    pub fn defense_preset(presets: Vec<DefensePreset>) -> Self {
        Self::new(
            "defense",
            presets.into_iter().map(|preset| {
                (preset.label(), move |s: &mut ExperimentSetup| {
                    s.arm_defense(|ns, onset| preset.plan(ns, onset));
                })
            }),
        )
    }

    /// New-resolver arrival rates: legitimate resolvers per minute that
    /// first appear after the attack onset, spread over the attack
    /// window (Table 4's common window without an attack) and each
    /// querying once every 30 seconds until it closes. Crossed with
    /// [`SweepAxis::defense_preset`], this is the history-classifier
    /// false-positive grid: every arrival postdates the history cutoff,
    /// so admission defenses misfile the whole wave as unknown, and the
    /// pacing is far below the presets' RRL rate, so only classification
    /// can refuse it.
    pub fn late_arrivals_per_min(rates: Vec<f64>) -> Self {
        Self::new(
            "late_per_min",
            rates.into_iter().map(|arrivals_per_min| {
                (fmt_f64(arrivals_per_min), move |s: &mut ExperimentSetup| {
                    let window = s.attack.unwrap_or_else(AttackPlan::complete);
                    s.late_wave = Some(LateResolverWave {
                        arrivals_per_min,
                        start_min: window.start_min,
                        window_min: window.duration_min,
                    });
                })
            }),
        )
    }

    /// The axis name used in JSON keys.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of values on the axis.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the axis carries no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The label of value `i`, as it appears in exports.
    pub fn label(&self, i: usize) -> &str {
        &self.values[i].0
    }

    /// All value labels, in axis order.
    pub fn labels(&self) -> Vec<String> {
        self.values.iter().map(|(label, _)| label.clone()).collect()
    }
}

/// Derives the seed of replicate `replicate` from the base seed. Pure
/// and order-free: the same inputs give the same seed no matter how many
/// workers run the sweep or in which order cells complete.
fn derive_seed(base: u64, replicate: u32) -> u64 {
    splitmix64(splitmix64(base) ^ replicate as u64)
}

/// One unit of sweep work: which arm, which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepJob {
    /// Arm index in row-major axis order (first axis slowest).
    pub arm: usize,
    /// The derived simulator seed this cell runs with.
    pub seed: u64,
}

/// The compact, memory-bounded record one replicate folds into. Built by
/// consuming the full [`Report`] (see [`ReplicateSummary::fold`]) so the
/// report itself never outlives the worker that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicateSummary {
    /// The seed this replicate ran with.
    pub seed: u64,
    /// Total client queries.
    pub queries: usize,
    /// Queries answered OK.
    pub ok: usize,
    /// Per-query OK fraction over the whole run.
    pub ok_fraction: f64,
    /// Per-query OK fraction inside the attack window.
    pub ok_during_attack: Option<f64>,
    /// Offered-load multiplier at the authoritatives during the attack.
    pub traffic_multiplier: Option<f64>,
    /// Latency quantiles of answered queries, whole run.
    pub latency: Option<LatencySummary>,
    /// Downsampled ECDF of answered-query RTTs in milliseconds.
    pub latency_ecdf: Vec<(f64, f64)>,
    /// Queries offered to the authoritatives (retry/traffic counter).
    pub(crate) server_queries: u64,
    /// Upstream retries, when the base setup collected telemetry.
    pub retries: Option<u64>,
}

impl ReplicateSummary {
    /// Folds a finished run into its summary. Takes the [`Report`] *by
    /// value*: once the fold returns, the full log, server view and
    /// metric registry are gone — this is the type-level guarantee that
    /// sweep memory is O(arms), not O(arms × reports).
    pub fn fold(seed: u64, report: Report) -> Self {
        let queries = report.output.log.records.len();
        let ok = report.output.log.ok_count();
        let ok_fraction = if queries == 0 {
            0.0
        } else {
            ok as f64 / queries as f64
        };
        let rtts: Vec<f64> = report
            .output
            .log
            .records
            .iter()
            .filter(|r| r.outcome.is_ok())
            .filter_map(|r| r.rtt.map(|d| d.as_millis_f64()))
            .collect();
        ReplicateSummary {
            seed,
            queries,
            ok,
            ok_fraction,
            ok_during_attack: report.ok_fraction_during_attack(),
            traffic_multiplier: report.traffic_multiplier(),
            latency: LatencySummary::of(&rtts),
            latency_ecdf: Ecdf::of(&rtts).downsample(ECDF_POINTS),
            server_queries: report.output.server.total_queries,
            retries: report
                .output
                .metrics
                .as_ref()
                .map(|m| m.counter_sum("resolver", "retries")),
        }
    }
}

/// Replicate spread of one metric: the 10th/50th/90th percentiles across
/// an arm's replicates (via [`dike_stats::quantile::quantile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// 10th percentile across replicates.
    pub lo: f64,
    /// Median across replicates.
    pub median: f64,
    /// 90th percentile across replicates.
    pub hi: f64,
}

impl Band {
    /// The band of `values`, or `None` when empty.
    pub fn of(values: &[f64]) -> Option<Band> {
        Some(Band {
            lo: quantile(values, 0.1)?,
            median: quantile(values, 0.5)?,
            hi: quantile(values, 0.9)?,
        })
    }
}

/// One arm's streamed aggregate: its grid coordinates, the per-replicate
/// summaries, and confidence bands across replicates.
#[derive(Debug, Clone)]
pub struct ArmSummary {
    /// Arm index in row-major axis order.
    pub arm: usize,
    /// `(axis name, value label)` pairs identifying the grid cell.
    pub coords: Vec<(String, String)>,
    /// The folded replicates, in replicate order.
    pub replicates: Vec<ReplicateSummary>,
    /// Whole-run OK fraction across replicates.
    pub ok_fraction: Option<Band>,
    /// Attack-window OK fraction across replicates.
    pub ok_during_attack: Option<Band>,
    /// Traffic multiplier across replicates.
    pub traffic_multiplier: Option<Band>,
    /// Median answered-query latency (ms) across replicates.
    pub latency_median_ms: Option<Band>,
}

impl ArmSummary {
    fn of(arm: usize, coords: Vec<(String, String)>, replicates: Vec<ReplicateSummary>) -> Self {
        let collect = |f: &dyn Fn(&ReplicateSummary) -> Option<f64>| -> Vec<f64> {
            replicates.iter().filter_map(f).collect()
        };
        let ok: Vec<f64> = collect(&|r| Some(r.ok_fraction));
        let attack = collect(&|r| r.ok_during_attack);
        let mult = collect(&|r| r.traffic_multiplier);
        let lat = collect(&|r| r.latency.map(|s| s.median));
        ArmSummary {
            arm,
            coords,
            ok_fraction: Band::of(&ok),
            ok_during_attack: Band::of(&attack),
            traffic_multiplier: Band::of(&mult),
            latency_median_ms: Band::of(&lat),
            replicates,
        }
    }
}

/// A finished sweep: the grid spec and one [`ArmSummary`] per arm, in
/// arm order. [`SweepResult::to_json`] is deterministic byte-for-byte
/// for a given engine configuration, regardless of worker count.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// `(axis name, value labels)` for each axis, in grid order.
    pub axes: Vec<(String, Vec<String>)>,
    /// Replicates per arm.
    pub replicates: u32,
    /// The base seed the per-cell seeds were derived from.
    pub seed: u64,
    /// One summary per arm.
    pub arms: Vec<ArmSummary>,
}

/// Formats an `f64` with shortest round-trip precision (stable across
/// runs and platforms — `Debug` for `f64` is the Grisu/Ryū shortest
/// representation, and what the JSON export prints too).
fn fmt_f64(x: f64) -> String {
    format!("{x:?}")
}

fn opt_f64_json(w: &mut Writer, x: Option<f64>) {
    w.f64(x.unwrap_or(f64::NAN)); // non-finite prints as null
}

fn band_json(w: &mut Writer, key: &str, b: Option<Band>) {
    w.key(key);
    match b {
        Some(b) => {
            w.begin_object();
            w.key("lo").f64(b.lo).key("median").f64(b.median);
            w.key("hi").f64(b.hi).end_object();
        }
        None => {
            w.null();
        }
    }
}

impl SweepResult {
    /// The full result as JSON: grid spec, per-arm bands, and
    /// per-replicate summaries including the downsampled latency ECDFs.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("schema").str("dike-sweep/1");
        w.key("seed").u64(self.seed);
        w.key("replicates").u64(self.replicates.into());
        w.key("axes").begin_array();
        for (name, values) in &self.axes {
            w.begin_object().key("name").str(name);
            w.key("values").begin_array();
            for v in values {
                w.str(v);
            }
            w.end_array().end_object();
        }
        w.end_array();
        w.key("arms").begin_array();
        for arm in &self.arms {
            w.begin_object().key("arm").u64(arm.arm as u64);
            w.key("coords").begin_object();
            for (k, v) in &arm.coords {
                w.key(k).str(v);
            }
            w.end_object();
            band_json(&mut w, "ok_fraction", arm.ok_fraction);
            band_json(&mut w, "ok_during_attack", arm.ok_during_attack);
            band_json(&mut w, "traffic_multiplier", arm.traffic_multiplier);
            band_json(&mut w, "latency_median_ms", arm.latency_median_ms);
            w.key("replicates").begin_array();
            for r in &arm.replicates {
                w.begin_object();
                w.key("seed").u64(r.seed);
                w.key("queries").u64(r.queries as u64);
                w.key("ok").u64(r.ok as u64);
                w.key("ok_fraction").f64(r.ok_fraction);
                opt_f64_json(w.key("ok_during_attack"), r.ok_during_attack);
                opt_f64_json(w.key("traffic_multiplier"), r.traffic_multiplier);
                w.key("latency");
                match r.latency {
                    Some(s) => {
                        w.begin_object().key("count").u64(s.count as u64);
                        w.key("median").f64(s.median).key("mean").f64(s.mean);
                        w.key("p75").f64(s.p75).key("p90").f64(s.p90);
                        w.end_object();
                    }
                    None => {
                        w.null();
                    }
                }
                w.key("latency_ecdf_ms").begin_array();
                for &(v, f) in &r.latency_ecdf {
                    w.begin_array().f64(v).f64(f).end_array();
                }
                w.end_array();
                w.key("server_queries").u64(r.server_queries);
                w.key("retries");
                match r.retries {
                    Some(n) => w.u64(n),
                    None => w.null(),
                };
                w.end_object();
            }
            w.end_array().end_object();
        }
        w.end_array().end_object();
        w.finish() + "\n"
    }
}

/// Resolves the worker count: an explicit `threads`, or the machine's
/// `detected` parallelism (falling back to 8 when detection fails),
/// capped at the number of jobs. Factored out so the fallback path is
/// unit-testable without faking `available_parallelism`.
fn worker_count(threads: usize, jobs: usize, detected: Option<usize>) -> usize {
    if jobs == 0 {
        return 0;
    }
    let cap = if threads == 0 {
        detected.unwrap_or(8)
    } else {
        threads
    };
    cap.max(1).min(jobs)
}

fn detected_parallelism() -> Option<usize> {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .ok()
}

/// The population-scale sweep engine: a base [`ExperimentSetup`], a grid
/// of [`SweepAxis`] values, `K` seed replicates per arm, and a worker
/// pool.
///
/// Determinism contract: every replicate's seed is a pure function of
/// the base seed (see [`SweepEngine::job_seed`]), cells are folded into
/// pre-assigned slots, and exports iterate arms in index order — so
/// [`SweepEngine::run`] produces byte-identical
/// [`SweepResult::to_json`] output for 1 worker and N workers.
pub struct SweepEngine {
    /// The setup every arm mutates.
    pub base: ExperimentSetup,
    /// The grid axes (cross product; first axis varies slowest).
    pub axes: Vec<SweepAxis>,
    /// Seed replicates per arm (≥ 1).
    pub replicates: u32,
    /// Worker threads (0 = the machine's available parallelism).
    pub threads: usize,
}

impl SweepEngine {
    /// An engine over `base` with no axes yet (a single arm).
    pub fn new(base: ExperimentSetup) -> Self {
        SweepEngine {
            base,
            axes: Vec::new(),
            replicates: 1,
            threads: 0,
        }
    }

    /// Adds a grid axis. Empty axes are rejected — a zero-length axis
    /// would collapse the whole cross product to nothing.
    pub fn axis(mut self, axis: SweepAxis) -> Self {
        assert!(
            !axis.is_empty(),
            "sweep axis '{}' has no values",
            axis.name()
        );
        self.axes.push(axis);
        self
    }

    /// Seed replicates per arm (clamped to ≥ 1).
    pub fn replicates(mut self, k: u32) -> Self {
        self.replicates = k.max(1);
        self
    }

    /// Worker threads (0 = available parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// The base seed all replicate seeds derive from (the base setup's).
    pub(crate) fn base_seed(&self) -> u64 {
        self.base.seed
    }

    /// Number of arms in the grid (1 with no axes).
    pub fn arm_count(&self) -> usize {
        self.axes.iter().map(SweepAxis::len).product()
    }

    /// The per-axis value indices of `arm` (row-major, first axis
    /// slowest).
    pub(crate) fn coords_of(&self, mut arm: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.axes.len()];
        for (k, axis) in self.axes.iter().enumerate().rev() {
            idx[k] = arm % axis.len();
            arm /= axis.len();
        }
        idx
    }

    /// The seed of replicate `replicate`, the same in *every* arm: arms
    /// are compared under identical randomness — the paired,
    /// common-random-numbers design the paper's intensity sweeps imply.
    /// Replicate 0 runs the base setup's own seed, so a one-replicate
    /// sweep is bit-identical to running each arm by hand.
    pub fn job_seed(&self, replicate: u32) -> u64 {
        match replicate {
            0 => self.base_seed(),
            r => derive_seed(self.base_seed(), r),
        }
    }

    /// The fully mutated setup one cell runs.
    pub fn setup_for(&self, arm: usize, replicate: u32) -> ExperimentSetup {
        let mut setup = self.base.clone();
        for (axis, &i) in self.axes.iter().zip(&self.coords_of(arm)) {
            (axis.values[i].1)(&mut setup);
        }
        setup.seed = self.job_seed(replicate);
        setup
    }

    /// The `(axis name, value label)` coordinates of `arm`.
    pub fn coord_labels(&self, arm: usize) -> Vec<(String, String)> {
        self.axes
            .iter()
            .zip(&self.coords_of(arm))
            .map(|(axis, &i)| (axis.name().to_string(), axis.label(i).to_string()))
            .collect()
    }

    /// Runs the whole grid, folding each finished [`Report`] through
    /// `fold` *inside the worker that produced it* — the report never
    /// crosses a thread boundary and is dropped as soon as the fold
    /// returns. Returns the folded values as `result[arm][replicate]`.
    ///
    /// This is the streaming-aggregation primitive [`SweepEngine::run`]
    /// builds on; use it directly to keep custom per-run data (e.g. the
    /// whole [`Report`], when the grid is small enough to afford it).
    pub fn run_fold<T, F>(&self, fold: F) -> Vec<Vec<T>>
    where
        T: Send,
        F: Fn(&SweepJob, Report) -> T + Sync,
    {
        let arms = self.arm_count();
        let k = self.replicates.max(1) as usize;
        let jobs = arms * k;
        if jobs == 0 {
            return Vec::new();
        }
        let workers = worker_count(self.threads, jobs, detected_parallelism());

        let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
        slots.resize_with(jobs, || None);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let engine = &self;
        let fold = &fold;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let next = &next;
                handles.push(scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if idx >= jobs {
                            break;
                        }
                        let (arm, rep) = (idx / k, (idx % k) as u32);
                        let job = SweepJob {
                            arm,
                            seed: engine.job_seed(rep),
                        };
                        let report = Report::run(&engine.setup_for(arm, rep));
                        // Fold in-worker: `report` dies here, only the
                        // compact T survives.
                        mine.push((idx, fold(&job, report)));
                    }
                    mine
                }));
            }
            for h in handles {
                for (idx, value) in h.join().expect("sweep worker panicked") {
                    slots[idx] = Some(value);
                }
            }
        });

        let mut flat = slots.into_iter().map(|s| s.expect("every cell folded"));
        (0..arms)
            .map(|_| (0..k).map(|_| flat.next().expect("cell")).collect())
            .collect()
    }

    /// Runs each arm once, at the base seed, and folds its report into one
    /// row: a comparison table, in arm order. Replicate 0 runs the base
    /// seed, so each row is the row of the arm's setup run by hand.
    pub fn run_rows<T, F>(&self, row: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Report) -> T + Sync,
    {
        assert_eq!(self.replicates, 1, "a comparison row is one run");
        let folded = self.run_fold(|_, report| row(report));
        folded.into_iter().flatten().collect()
    }

    /// Runs the grid with the standard streaming fold: each report
    /// collapses to a [`ReplicateSummary`], each arm to an
    /// [`ArmSummary`] with replicate confidence bands.
    pub fn run(&self) -> SweepResult {
        let folded = self.run_fold(|job, report| ReplicateSummary::fold(job.seed, report));
        let arms = folded
            .into_iter()
            .enumerate()
            .map(|(arm, reps)| ArmSummary::of(arm, self.coord_labels(arm), reps))
            .collect();
        SweepResult {
            axes: self
                .axes
                .iter()
                .map(|a| (a.name().to_string(), a.labels()))
                .collect(),
            replicates: self.replicates.max(1),
            seed: self.base_seed(),
            arms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_netsim::TcpConfig;

    /// Sweeps `base` over loss rates keeping the full [`Report`] per
    /// arm — the `run_fold` idiom for custom per-run data.
    fn sweep_reports(base: ExperimentSetup, rates: &[f64], threads: usize) -> Vec<(f64, Report)> {
        let rates = rates.to_vec();
        SweepEngine::new(base)
            .axis(SweepAxis::attack_loss(rates.clone()))
            .replicates(1)
            .threads(threads)
            .run_fold(|job, report| (rates[job.arm], report))
            .into_iter()
            .map(|mut reps| reps.pop().expect("one replicate per arm"))
            .collect()
    }

    fn small_base() -> ExperimentSetup {
        ExperimentSetup {
            attack: Some(AttackPlan::complete().window_min(40, 40)),
            seed: 77,
            ..ExperimentSetup::paced(40, 1800, 10, 100)
        }
    }

    /// A hand-built result (no simulation, so no RNG in the bytes) with
    /// an escaped axis name, present and absent bands, `1e300`, `1e-7`,
    /// a non-finite quantile and `u64::MAX`.
    fn golden_result() -> SweepResult {
        let rep = |seed: u64, lat: Option<LatencySummary>| ReplicateSummary {
            seed,
            queries: 1200,
            ok: 900,
            ok_fraction: 0.75,
            ok_during_attack: lat.map(|_| 0.3333333333333333),
            traffic_multiplier: lat.map(|_| 8.2),
            latency: lat,
            latency_ecdf: lat.map_or(vec![], |_| vec![(0.5, 0.25), (12.0, 0.5), (1e-7, 1.0)]),
            server_queries: if seed == 3 { u64::MAX } else { 5000 },
            retries: lat.map(|_| 17),
        };
        let lat = LatencySummary {
            count: 900,
            median: 12.5,
            mean: 1e300,
            p75: f64::NAN,
            p90: 40.0,
        };
        let coords = |ttl: &str| {
            vec![
                ("ttl".to_string(), ttl.to_string()),
                ("loss \"q\"".to_string(), "0.9".to_string()),
            ]
        };
        SweepResult {
            axes: vec![
                ("ttl".into(), vec!["60".into(), "1800".into()]),
                ("loss \"q\"".into(), vec!["0.9".into()]),
            ],
            replicates: 2,
            seed: 42,
            arms: vec![
                ArmSummary::of(0, coords("60"), vec![rep(1, Some(lat)), rep(2, None)]),
                ArmSummary::of(1, coords("1800"), vec![rep(3, None)]),
            ],
        }
    }

    /// Byte for byte what the export was before it moved onto
    /// `dike_telemetry::json`.
    #[test]
    fn exports_match_the_golden_bytes() {
        let null_rep = r#""ok_fraction":0.75,"ok_during_attack":null,"traffic_multiplier":null,"latency":null,"latency_ecdf_ms":[],"#;
        let json = [
            r#"{"schema":"dike-sweep/1","seed":42,"replicates":2,"#,
            r#""axes":[{"name":"ttl","values":["60","1800"]},{"name":"loss \"q\"","values":["0.9"]}],"#,
            r#""arms":[{"arm":0,"coords":{"ttl":"60","loss \"q\"":"0.9"},"#,
            r#""ok_fraction":{"lo":0.75,"median":0.75,"hi":0.75},"#,
            r#""ok_during_attack":{"lo":0.3333333333333333,"median":0.3333333333333333,"hi":0.3333333333333333},"#,
            r#""traffic_multiplier":{"lo":8.2,"median":8.2,"hi":8.2},"#,
            r#""latency_median_ms":{"lo":12.5,"median":12.5,"hi":12.5},"#,
            r#""replicates":[{"seed":1,"queries":1200,"ok":900,"ok_fraction":0.75,"#,
            r#""ok_during_attack":0.3333333333333333,"traffic_multiplier":8.2,"#,
            r#""latency":{"count":900,"median":12.5,"mean":1e300,"p75":null,"p90":40.0},"#,
            r#""latency_ecdf_ms":[[0.5,0.25],[12.0,0.5],[1e-7,1.0]],"server_queries":5000,"retries":17},"#,
            r#"{"seed":2,"queries":1200,"ok":900,"#,
            null_rep,
            r#""server_queries":5000,"retries":null}]},"#,
            r#"{"arm":1,"coords":{"ttl":"1800","loss \"q\"":"0.9"},"#,
            r#""ok_fraction":{"lo":0.75,"median":0.75,"hi":0.75},"#,
            r#""ok_during_attack":null,"traffic_multiplier":null,"latency_median_ms":null,"#,
            r#""replicates":[{"seed":3,"queries":1200,"ok":900,"#,
            null_rep,
            r#""server_queries":18446744073709551615,"retries":null}]}]}"#,
            "\n",
        ]
        .concat();
        assert_eq!(golden_result().to_json(), json);
    }

    fn tiny_base() -> ExperimentSetup {
        ExperimentSetup {
            attack: Some(AttackPlan::loss(0.9).window_min(20, 20)),
            seed: 5,
            ..ExperimentSetup::paced(6, 600, 10, 40)
        }
    }

    #[test]
    fn sweep_reproduces_the_intensity_gradient() {
        let points = sweep_reports(small_base(), &[0.0, 0.5, 0.9, 1.0], 0);
        assert_eq!(points.len(), 4);
        let ok: Vec<f64> = points
            .iter()
            .map(|(_, report)| {
                report
                    .ok_fraction_during_attack()
                    .expect("window has rounds")
            })
            .collect();
        // Monotone (allowing small noise): more loss, fewer answers.
        assert!(ok[0] > 0.95, "no attack: {ok:?}");
        assert!(ok[1] >= ok[2] - 0.02, "{ok:?}");
        assert!(ok[2] >= ok[3] - 0.02, "{ok:?}");
        assert!(ok[0] > ok[3], "{ok:?}");
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        // Determinism survives the thread pool: the same arms produce the
        // same results regardless of scheduling.
        let parallel = sweep_reports(small_base(), &[0.25, 0.75], 0);
        let serial = sweep_reports(small_base(), &[0.25, 0.75], 1);
        for ((pl, pr), (sl, sr)) in parallel.iter().zip(&serial) {
            assert_eq!(pl, sl);
            assert_eq!(pr.output.log.records.len(), sr.output.log.records.len());
            assert_eq!(
                pr.ok_fraction_during_attack(),
                sr.ok_fraction_during_attack()
            );
        }
    }

    #[test]
    #[should_panic(expected = "has no values")]
    fn empty_axis_is_rejected() {
        let _ = SweepEngine::new(small_base()).axis(SweepAxis::attack_loss(Vec::new()));
    }

    #[test]
    fn single_replicate_sweep_matches_direct_runs() {
        // The paired-seed contract: replicate 0 of every arm runs the
        // base setup's own seed, so a one-replicate sweep is
        // bit-identical to running each arm by hand — same record
        // counts, same outcome series.
        let rates = [0.3, 0.9];
        let points = sweep_reports(tiny_base(), &rates, 0);
        for ((arm_loss, report), &loss) in points.iter().zip(&rates) {
            let direct = Report::run(&ExperimentSetup {
                attack: Some(AttackPlan::loss(loss).window_min(20, 20)),
                ..tiny_base()
            });
            assert_eq!(*arm_loss, loss);
            assert_eq!(
                report.output.log.records.len(),
                direct.output.log.records.len()
            );
            assert_eq!(report.outcomes, direct.outcomes);
            assert_eq!(
                report.ok_fraction_during_attack(),
                direct.ok_fraction_during_attack()
            );
        }
    }

    #[test]
    fn grid_is_a_cross_product_in_row_major_order() {
        let engine = SweepEngine::new(tiny_base())
            .axis(SweepAxis::attack_loss(vec![0.0, 1.0]))
            .axis(SweepAxis::cache_ttl_secs(vec![60, 600, 3600]));
        assert_eq!(engine.arm_count(), 6);
        assert_eq!(engine.coords_of(0), vec![0, 0]);
        assert_eq!(engine.coords_of(2), vec![0, 2]);
        assert_eq!(engine.coords_of(3), vec![1, 0]);
        assert_eq!(engine.coords_of(5), vec![1, 2]);
        let labels = engine.coord_labels(4);
        assert_eq!(labels[0], ("loss".into(), "1.0".into()));
        assert_eq!(labels[1], ("ttl_s".into(), "600".into()));
    }

    /// The four constructors and one call-site axis, crossed: each value
    /// lands in the setup its arm runs, under the label the exports
    /// print.
    #[test]
    fn axes_mutate_the_setup() {
        let tcp_table = SweepAxis::new(
            "tcp_table",
            [4usize, 64].map(|capacity| {
                (capacity.to_string(), move |s: &mut ExperimentSetup| {
                    s.tcp = Some(TcpConfig {
                        table_capacity: capacity,
                        ..TcpConfig::default()
                    });
                })
            }),
        );
        let engine = SweepEngine::new(tiny_base())
            .axis(SweepAxis::attack_loss(vec![0.5, 7.0]))
            .axis(SweepAxis::cache_ttl_secs(vec![60]))
            .axis(SweepAxis::defense_preset(vec![
                DefensePreset::None,
                DefensePreset::RrlSlip,
            ]))
            .axis(SweepAxis::late_arrivals_per_min(vec![2.0]))
            .axis(tcp_table);
        assert_eq!(engine.arm_count(), 8);

        // Arm 0: the first value of every axis. An empty preset leaves
        // the setup on the defense-free path.
        let s0 = engine.setup_for(0, 0);
        assert_eq!(s0.attack, Some(AttackPlan::loss(0.5).window_min(20, 20)));
        assert_eq!(s0.ttl, 60);
        assert!(s0.defense.is_none());
        assert_eq!(s0.tcp.expect("axis arms TCP").table_capacity, 4);

        // Arm 7: the last value of every axis. Loss is clamped; the
        // preset and the late wave align with the base attack's window.
        let s7 = engine.setup_for(7, 0);
        assert_eq!(s7.attack.expect("base attack").loss, 1.0);
        let mut expect = tiny_base();
        expect.arm_defense(|ns, onset| DefensePreset::RrlSlip.plan(ns, onset));
        let plan = s7.defense.expect("rrl-slip arms both authoritatives");
        assert_eq!(Some(&plan), expect.defense.as_ref());
        assert_eq!(plan.len(), 2);
        plan.validate().expect("axis-built plan is valid");
        assert_eq!(
            s7.late_wave,
            Some(LateResolverWave {
                arrivals_per_min: 2.0,
                start_min: 20,
                window_min: 20,
            })
        );
        assert_eq!(s7.tcp.expect("axis arms TCP").table_capacity, 64);
        assert_eq!(
            engine.coord_labels(7),
            [
                ("loss", "7.0"),
                ("ttl_s", "60"),
                ("defense", "rrl-slip"),
                ("late_per_min", "2.0"),
                ("tcp_table", "64"),
            ]
            .map(|(k, v)| (k.to_string(), v.to_string()))
        );

        // Without a base attack the loss axis arms Table 4's common
        // window.
        let unarmed =
            SweepEngine::new(ExperimentSetup::new(6, 600)).axis(SweepAxis::attack_loss(vec![0.25]));
        assert_eq!(unarmed.setup_for(0, 0).attack, Some(AttackPlan::loss(0.25)));
    }

    #[test]
    fn defense_grid_is_identical_across_worker_counts() {
        // The acceptance grid: a defense axis crossed with the loss
        // axis, byte-identical JSON for 1 worker and N workers.
        let grid = || {
            SweepEngine::new(tiny_base())
                .axis(SweepAxis::defense_preset(vec![
                    DefensePreset::None,
                    DefensePreset::RrlSlip,
                ]))
                .axis(SweepAxis::attack_loss(vec![0.9]))
                .replicates(2)
        };
        let one = grid().threads(1).run();
        let many = grid().threads(0).run();
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.arms.len(), 2);
        assert_eq!(one.axes[0].0, "defense");
        assert!(one.to_json().contains("\"defense\":\"rrl-slip\""));
    }

    #[test]
    fn seed_derivation_is_pure_and_spreads() {
        assert_eq!(derive_seed(7, 2), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 2), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 2), derive_seed(8, 2));

        let mut base = tiny_base();
        base.seed = 11;
        let engine = SweepEngine::new(base)
            .axis(SweepAxis::attack_loss(vec![0.1, 0.9]))
            .replicates(3);
        // Replicate 0 is the base seed, in every arm; later replicates
        // are derived, and shared across arms too.
        assert_eq!(engine.job_seed(0), 11);
        assert_ne!(engine.job_seed(0), engine.job_seed(1));
        for rep in 0..3 {
            assert_eq!(engine.setup_for(0, rep).seed, engine.job_seed(rep));
            assert_eq!(engine.setup_for(1, rep).seed, engine.job_seed(rep));
        }
    }

    #[test]
    fn worker_count_fallback_defaults_to_eight() {
        // available_parallelism() can fail (e.g. restricted cgroups);
        // the engine then assumes 8 workers, capped at the job count.
        assert_eq!(worker_count(0, 100, None), 8);
        assert_eq!(worker_count(0, 3, None), 3);
        assert_eq!(worker_count(0, 100, Some(16)), 16);
        assert_eq!(worker_count(4, 100, Some(16)), 4);
        assert_eq!(worker_count(4, 2, Some(16)), 2);
        assert_eq!(worker_count(0, 0, Some(16)), 0);
    }

    #[test]
    fn engine_output_is_identical_across_worker_counts() {
        let grid = || {
            SweepEngine::new(tiny_base())
                .axis(SweepAxis::attack_loss(vec![0.5, 1.0]))
                .axis(SweepAxis::cache_ttl_secs(vec![60, 1800]))
                .replicates(2)
        };
        let one = grid().threads(1).run();
        let many = grid().threads(0).run();
        assert_eq!(one.to_json(), many.to_json());
        assert_eq!(one.arms.len(), 4);
        for arm in &one.arms {
            assert_eq!(arm.replicates.len(), 2);
        }
    }

    #[test]
    fn replicate_bands_are_ordered() {
        let result = SweepEngine::new(tiny_base())
            .axis(SweepAxis::attack_loss(vec![0.8]))
            .replicates(4)
            .run();
        let band = result.arms[0].ok_fraction.expect("queries ran");
        assert!(band.lo <= band.median && band.median <= band.hi);
        assert!((0.0..=1.0).contains(&band.median));
    }

    #[test]
    fn json_carries_the_grid_spec() {
        let result = SweepEngine::new(tiny_base())
            .axis(SweepAxis::attack_loss(vec![0.5]))
            .axis(SweepAxis::new(
                "serve_stale_share",
                [0.0, 1.0].map(|share| {
                    (fmt_f64(share), move |s: &mut ExperimentSetup| {
                        s.mix.farm_serve_stale_share = share;
                    })
                }),
            ))
            .run();
        assert_eq!(result.arms.len(), 2, "one arm per grid point");
        let json = result.to_json();
        assert!(json.contains("\"schema\":\"dike-sweep/1\""));
        assert!(json.contains("\"axes\":[{\"name\":\"loss\""));
        assert!(json.contains("\"name\":\"serve_stale_share\""));
        assert!(json.ends_with("}\n"));
    }
}
