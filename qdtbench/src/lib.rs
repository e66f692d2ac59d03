//! Closed-loop end-to-end benchmark of the `qdt` workspace.
//!
//! Each workload is one client in one process: the next job starts only
//! after the previous one finished and its output was checked. A
//! workload mixes an odd number of job classes in equal shares; the loop
//! visits every class's `POOL` seeded inputs in a fixed interleaved
//! order (a *round*) and stops only at the end of a round, so every
//! class runs the same number of jobs. See `README.md` for the
//! workloads, the metrics and the known defects they expose.

pub mod trace;

mod dd;
mod dense;
mod shots;
mod verify;

use std::time::Instant;

use qdt::circuit::{generators, Circuit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trace::Trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["dense", "dd", "shots", "verify"];

/// Seeded inputs per class. A round runs `K = classes × POOL` distinct
/// jobs, each a latency cluster of its own; with three or five classes,
/// `K` is 15 or 25, so the p50 and p90 ranks (`K/2`, `0.9·K`) fall in
/// the middle of a cluster, never on the boundary between two.
pub const POOL: usize = 5;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Jobs that must lie beyond the reported p90.
const MIN_TAIL: usize = 10;

/// Largest accepted gap between the traced job time and the per-layer
/// times that should account for it.
const MAX_COVERAGE_GAP: f64 = 0.10;

/// `circuit` applied to a seed-chosen basis state: each qubit first
/// gets an `X` with probability ½.
pub(crate) fn on_basis_state(circuit: &Circuit, rng: &mut StdRng) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for q in 0..circuit.num_qubits() {
        if rng.gen_bool(0.5) {
            out.x(q);
        }
    }
    out.append(circuit);
    out
}

/// A random circuit whose structure depends on the pool slot only, not
/// on the run's seed. Decision-diagram and ZX costs differ tenfold
/// between random Clifford(+T) structures of one size, which would turn
/// the seed into noise; the seed picks the input basis state instead
/// (see [`on_basis_state`]).
pub(crate) fn fixed_structure(slot: usize, make: impl FnOnce(&mut StdRng) -> Circuit) -> Circuit {
    make(&mut StdRng::seed_from_u64(0x5eed_0000 + slot as u64))
}

/// Grover search for a seed-chosen marked state with exactly `n / 2`
/// one bits. The oracle flips the zero bits, so a fixed weight keeps the
/// gate count independent of the seed.
pub(crate) fn balanced_grover(n: usize, rng: &mut StdRng) -> Circuit {
    let mut qubits: Vec<usize> = (0..n).collect();
    for i in 0..n / 2 {
        qubits.swap(i, rng.gen_range(i..n));
    }
    let marked = qubits[..n / 2].iter().fold(0u64, |m, &q| m | 1 << q);
    generators::grover(n, marked, generators::grover_optimal_iterations(n))
}

/// One job class of a workload.
pub trait Class {
    /// The class name, e.g. `qft-18`.
    fn name(&self) -> &'static str;

    /// Why every job of this class is known to fail its check, if it is.
    fn known_defect(&self) -> Option<&'static str> {
        None
    }

    /// Runs one job on seeded input `input` (below [`POOL`]) and checks
    /// its output; `Err` describes the failed check.
    ///
    /// # Errors
    ///
    /// When the library call fails or the output fails its check.
    fn run(&self, input: usize, trace: &mut Trace) -> Result<(), String>;

    /// Extra measurements a traced run makes after a job, outside its
    /// timing.
    ///
    /// # Errors
    ///
    /// When a measured library call fails.
    fn between_jobs(&self, input: usize, trace: &mut Trace) -> Result<(), String> {
        let _ = (input, trace);
        Ok(())
    }
}

/// A set-up workload: its classes with their inputs and references.
pub struct Workload {
    /// The classes, in job order.
    pub classes: Vec<Box<dyn Class>>,
}

/// Generates a workload's inputs and references from `seed` and runs one
/// untimed warm-up job per class.
///
/// # Errors
///
/// For an unknown workload name or a failing reference computation.
pub fn setup(workload: &str, seed: u64) -> Result<Workload, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = match workload {
        "dense" => dense::classes(&mut rng)?,
        "dd" => dd::classes(&mut rng)?,
        "shots" => shots::classes(&mut rng)?,
        "verify" => verify::classes(&mut rng)?,
        other => {
            return Err(format!(
                "unknown workload `{other}`; expected one of {WORKLOADS:?}"
            ))
        }
    };
    for class in &classes {
        // A warm-up failure shows again, counted, in the timed jobs.
        let _ = class.run(0, &mut Trace::off());
    }
    Ok(Workload { classes })
}

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measuring time; the run ends at the first round end after it.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every failed job belongs to a class with a known defect.
    pub correct: bool,
    /// Jobs run.
    pub attempted: usize,
    /// Jobs whose output failed its check.
    pub failed: usize,
    /// The metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: per-class figures and first failures.
    pub notes: Vec<String>,
}

impl Report {
    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Per-class tallies of a run.
struct Tally {
    jobs: Vec<usize>,
    failures: Vec<usize>,
    first_failure: Vec<Option<String>>,
    latencies_ms: Vec<Vec<f64>>,
}

impl Tally {
    fn new(classes: usize) -> Tally {
        Tally {
            jobs: vec![0; classes],
            failures: vec![0; classes],
            first_failure: vec![None; classes],
            latencies_ms: vec![Vec::new(); classes],
        }
    }

    fn record(&mut self, class: usize, ms: f64, outcome: Result<(), String>) {
        self.jobs[class] += 1;
        self.latencies_ms[class].push(ms);
        if let Err(why) = outcome {
            self.failures[class] += 1;
            self.first_failure[class].get_or_insert(why);
        }
    }

    fn attempted(&self) -> usize {
        self.jobs.iter().sum()
    }

    fn failed(&self) -> usize {
        self.failures.iter().sum()
    }

    /// Fails loudly unless every class ran the same number of jobs.
    fn check_equal_shares(&self, workload: &Workload) -> Result<(), String> {
        if self.jobs.iter().all(|&n| n == self.jobs[0]) {
            Ok(())
        } else {
            let names: Vec<_> = workload.classes.iter().map(|c| c.name()).collect();
            Err(format!(
                "classes {names:?} are not equal-share: jobs {:?}",
                self.jobs
            ))
        }
    }

    /// Whether failures occur only in classes with a known defect.
    fn failures_explained(&self, workload: &Workload) -> bool {
        workload
            .classes
            .iter()
            .zip(&self.failures)
            .all(|(class, &f)| f == 0 || class.known_defect().is_some())
    }

    fn notes(&self, workload: &Workload) -> Vec<String> {
        let mut notes = Vec::new();
        for (i, class) in workload.classes.iter().enumerate() {
            let mut lat = self.latencies_ms[i].clone();
            notes.push(format!(
                "class {:<28} jobs {:>5}  failed {:>5}  p50 {:>9.3} ms",
                class.name(),
                self.jobs[i],
                self.failures[i],
                percentile(&mut lat, 0.5).0
            ));
            if let Some(why) = &self.first_failure[i] {
                let known = class
                    .known_defect()
                    .map_or(String::new(), |d| format!(" [known defect: {d}]"));
                notes.push(format!("  first failure: {why}{known}"));
            }
        }
        notes
    }
}

/// The nearest-rank `q`-quantile of `values` and the number of values
/// ranked beyond it.
fn percentile(values: &mut [f64], q: f64) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    (values[rank - 1], values.len() - rank)
}

fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5).0
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// Runs one job of `class` on `input`, returning its wall time in ms.
fn timed_job(class: &dyn Class, input: usize, trace: &mut Trace) -> (f64, Result<(), String>) {
    let start = Instant::now();
    let outcome = class.run(input, trace);
    (start.elapsed().as_secs_f64() * 1e3, outcome)
}

/// Runs one invocation: set-up, then the closed loop for
/// `opts.seconds`, then the metrics.
///
/// # Errors
///
/// On an unknown workload, a failing set-up, or a broken run invariant:
/// unequal class shares, fewer than ten jobs beyond the reported p90,
/// or per-layer times that miss the traced job time by more than 10%.
pub fn run(opts: &Options) -> Result<Report, String> {
    if opts.trace {
        let workload = setup(&opts.workload, opts.seed)?;
        traced(&workload, opts.seconds)
    } else {
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut workload = None;
        for _ in 0..SETUPS {
            // Drop the previous set-up first, so each one starts alike.
            drop(workload.take());
            let start = Instant::now();
            workload = Some(setup(&opts.workload, opts.seed)?);
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let workload = workload.expect("SETUPS > 0");
        end_to_end(&workload, opts.seconds, median(&mut setup_s))
    }
}

fn end_to_end(workload: &Workload, seconds: f64, setup_s: f64) -> Result<Report, String> {
    let mut tally = Tally::new(workload.classes.len());
    let mut off = Trace::off();
    let mut round_throughput = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || round_throughput.is_empty() {
        let round_start = Instant::now();
        for input in 0..POOL {
            for (i, class) in workload.classes.iter().enumerate() {
                let (ms, outcome) = timed_job(class.as_ref(), input, &mut off);
                tally.record(i, ms, outcome);
            }
        }
        let jobs = POOL * workload.classes.len();
        round_throughput.push(jobs as f64 / round_start.elapsed().as_secs_f64());
    }
    tally.check_equal_shares(workload)?;

    let mut all: Vec<f64> = tally.latencies_ms.concat();
    let (p50, _) = percentile(&mut all, 0.5);
    let (p90, beyond) = percentile(&mut all, 0.9);
    if beyond < MIN_TAIL {
        return Err(format!(
            "only {beyond} of {} jobs lie beyond the p90 ({p90:.3} ms); at least {MIN_TAIL} are needed: run longer",
            all.len()
        ));
    }
    let (attempted, failed) = (tally.attempted(), tally.failed());
    let mut notes = tally.notes(workload);
    notes.push(format!(
        "job_p90_ms from {attempted} jobs, {beyond} beyond it; jobs_per_s is the median of {} rounds",
        round_throughput.len()
    ));
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(Report {
        correct: tally.failures_explained(workload),
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("jobs_per_s", median(&mut round_throughput), "1/s"),
            metric("job_p50_ms", p50, "ms"),
            metric("job_p90_ms", p90, "ms"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric(
                "pass_ratio",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ],
        notes,
    })
}

/// The traced run: rounds alternate between tracing off and on, so the
/// two halves see the same machine conditions and their throughput
/// difference is the tracing overhead.
fn traced(workload: &Workload, seconds: f64) -> Result<Report, String> {
    let mut tally = Tally::new(workload.classes.len());
    let mut traces = [Trace::off(), Trace::on()];
    let mut job_ms = [0.0f64; 2];
    let mut jobs = [0usize; 2];
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed().as_secs_f64() < seconds || round < 2 {
        let side = round % 2;
        for input in 0..POOL {
            for (i, class) in workload.classes.iter().enumerate() {
                let trace = &mut traces[side];
                let (ms, outcome) = timed_job(class.as_ref(), input, trace);
                if trace.is_on() {
                    class.between_jobs(input, trace)?;
                }
                job_ms[side] += ms;
                jobs[side] += 1;
                tally.record(i, ms, outcome);
            }
        }
        round += 1;
    }
    tally.check_equal_shares(workload)?;
    let [_, on] = &traces;
    let coverage = (on.job_span_total_ms() / job_ms[1]) * 100.0;
    if (coverage / 100.0 - 1.0).abs() > MAX_COVERAGE_GAP {
        return Err(format!(
            "per-layer times account for {coverage:.1}% of the traced job time; 90-110% is required"
        ));
    }
    let throughput = |side: usize| jobs[side] as f64 / (job_ms[side] / 1e3);
    let overhead_pct = (throughput(0) / throughput(1) - 1.0) * 100.0;
    let traced_rounds = (round / 2) as f64;

    let mean = |layer| on.job_span(layer).mean_ms();
    let per_round = |key| on.counter(key) / traced_rounds;
    let per_shot_us = |ms_key, shots_key| {
        let shots = on.counter(shots_key);
        if shots == 0.0 {
            0.0
        } else {
            on.counter(ms_key) * 1e3 / shots
        }
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let array_run = on.job_span("array.run");
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("circuit.parse_ms", mean("circuit.parse"), "ms"),
        metric("analysis.dispatch_ms", mean("analysis.dispatch"), "ms"),
        metric("analysis.to_array", per_round("analysis.to_array"), "count"),
        metric(
            "analysis.to_array_fused",
            per_round("analysis.to_array_fused"),
            "count",
        ),
        metric("analysis.to_dd", per_round("analysis.to_dd"), "count"),
        metric("analysis.to_mps", per_round("analysis.to_mps"), "count"),
        metric(
            "analysis.to_stabilizer",
            per_round("analysis.to_stabilizer"),
            "count",
        ),
        metric("analysis.to_tn", per_round("analysis.to_tn"), "count"),
        metric("array.run_ms", array_run.mean_ms(), "ms"),
        metric("array.readout_ms", mean("array.readout"), "ms"),
        metric(
            "array.gbps_computed",
            ratio(on.counter("array.bytes") / 1e9, array_run.total_ms / 1e3),
            "GB/s",
        ),
        metric("mps.run_ms", mean("mps.run"), "ms"),
        metric("mps.readout_ms", mean("mps.readout"), "ms"),
        metric("dd.run_ms", mean("dd.run"), "ms"),
        metric("dd.sample_ms", mean("dd.sample"), "ms"),
        metric("dd.amplitude_ms", mean("dd.amplitude"), "ms"),
        metric("dd.expectation_ms", mean("dd.expectation"), "ms"),
        metric("dd.peak_nodes", on.maximum("dd.peak_nodes"), "count"),
        metric("dd.peak_mb", on.maximum("dd.peak_mb"), "MB"),
        metric(
            "dd.mb_per_kgate",
            ratio(on.counter("dd.peak_mb_sum"), on.counter("dd.kgates")),
            "MB/kgate",
        ),
        metric(
            "array.shot_us",
            per_shot_us("array.shot_ms", "array.shots"),
            "us",
        ),
        metric("dd.shot_us", per_shot_us("dd.shot_ms", "dd.shots"), "us"),
        metric(
            "stabilizer.shot_us",
            per_shot_us("stabilizer.shot_ms", "stabilizer.shots"),
            "us",
        ),
        metric("engine.shots_ms", mean("engine.shots"), "ms"),
        metric(
            "parallel.speedup_w2",
            ratio(
                on.aside_span("parallel.w1").total_ms,
                on.aside_span("parallel.w2").total_ms,
            ),
            "ratio",
        ),
        metric(
            "engine.prefix_ms",
            on.aside_span("engine.prefix").mean_ms(),
            "ms",
        ),
        metric("engine.collapses", per_round("engine.collapses"), "count"),
        metric("compile.compile_ms", mean("compile.compile"), "ms"),
        metric("compile.swaps", per_round("compile.swaps"), "count"),
        metric("verify.dd_ms", mean("verify.dd"), "ms"),
        metric("verify.zx_ms", mean("verify.zx"), "ms"),
        metric(
            "zx.decided_ratio",
            ratio(on.counter("zx.decided"), on.counter("zx.checks")),
            "ratio",
        ),
        metric(
            "verify.wrong_verdicts",
            per_round("verify.wrong_verdicts"),
            "count",
        ),
        metric("bench.check_ms", mean("bench.check"), "ms"),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("trace.coverage_pct", coverage, "%"),
    ];
    let mut notes = tally.notes(workload);
    notes.push(format!(
        "{round} rounds: {} jobs untraced, {} traced; counts are per round of {} jobs",
        jobs[0],
        jobs[1],
        POOL * workload.classes.len()
    ));
    Ok(Report {
        correct: tally.failures_explained(workload),
        attempted: tally.attempted(),
        failed: tally.failed(),
        metrics,
        notes,
    })
}
