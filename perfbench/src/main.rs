//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <paper-sweep|paper-search|synthetic-sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference <dir>
//! ```
//!
//! Every run is a closed loop with one caller and one worker thread
//! (`CACS_THREADS=1`): it solves, checks the answer against the
//! committed reference table, and starts the next solve on a freshly
//! built problem, so no memo carries over between solves. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics from spans the benchmark records around public calls into the
//! program. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod clock;
mod reference;
mod replay;
mod spans;
mod starts;
mod stats;

use cacs_apps::paper_case_study;
use cacs_core::{CodesignProblem, EvaluationConfig};
use cacs_par::sync::lock_recover;
use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search_range, exhaustive_search_with, run_multistart, run_multistart_sequential,
    ExhaustiveReport, FnEvaluator, MultistartOutcome, ScheduleEvaluator, ScheduleSpace,
    StrategyConfig, SweepConfig,
};
use clock::{calibrated_solve_s, Lap, Segment, Stopwatch, TimedEvaluator};
use reference::SweepReference;
use replay::{replay_kernels, AppDesign, KernelTimes, TracedEvaluator};
use spans::{durations, self_times, Recorder, Span};
use stats::{median, quantile};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Every evaluated paper-fast schedule with its `P_all` bits.
const PAPER_TABLE: &str = include_str!("../reference/paper_fast.txt");
/// Totals and optimum of the synthetic box.
const SYNTHETIC_TABLE: &str = include_str!("../reference/synthetic.txt");
/// The synthetic box: 313³ ≈ 30.7M schedules, a few seconds with one
/// worker.
const SYNTHETIC_BOX: [u32; 3] = [313, 313, 313];
/// Rank ranges one synthetic sweep is split into (about 30 ms each).
const SYNTHETIC_RANGES: u64 = 64;
/// Start points shared by the four `paper-search` strategies.
const SEARCH_STARTS: usize = 4;
/// Set-ups timed before every solve and once more after the last, so
/// the samples spread over the whole run; `setup_s` is their median.
const SETUP_REPS: usize = 8;
/// Synthetic set-ups per timed sample (one takes well under a µs).
const SYNTHETIC_SETUP_BATCH: u32 = 4096;
/// Paper set-ups recorded in a traced run.
const TRACED_SETUP_REPS: u32 = 15;
/// Paper-fast schedules the synthetic workload's traced run evaluates so
/// that it reports the evaluation and kernel layers too (every 13th
/// entry of the reference table).
const PROBE_STRIDE: usize = 13;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperSweep,
    PaperSearch,
    SyntheticSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-sweep" => Some(Workload::PaperSweep),
            "paper-search" => Some(Workload::PaperSearch),
            "synthetic-sweep" => Some(Workload::SyntheticSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::PaperSearch => "paper-search",
            Workload::SyntheticSweep => "synthetic-sweep",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

#[derive(Debug)]
enum Command {
    Run(Args),
    WriteReference(PathBuf),
}

const USAGE: &str = "usage: perfbench --workload <paper-sweep|paper-search|synthetic-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-reference <dir>";

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let v = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                });
            }
            "--write-reference" => return Ok(Command::WriteReference(PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

fn set_workers(n: usize) {
    // Re-read by cacs-par at every parallel region.
    std::env::set_var("CACS_THREADS", n.to_string());
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

// ------------------------------------------------------------------ inputs

/// A freshly built paper problem and its schedule space.
struct Paper {
    problem: CodesignProblem,
    space: ScheduleSpace,
}

fn paper_setup() -> Result<Paper, String> {
    let study = paper_case_study().map_err(|e| e.to_string())?;
    let problem = CodesignProblem::from_case_study(&study, EvaluationConfig::fast())
        .map_err(|e| e.to_string())?;
    let space = problem.schedule_space().map_err(|e| e.to_string())?;
    Ok(Paper { problem, space })
}

/// [`paper_setup`] with a span around each of its three steps.
fn paper_setup_traced(rec: &Recorder) -> Result<Paper, String> {
    rec.scope("bench.setup", None, |setup| {
        let study = rec
            .scope("apps.case_study", Some(setup), |_| paper_case_study())
            .map_err(|e| e.to_string())?;
        let problem = rec
            .scope("cache.wcet", Some(setup), |_| {
                CodesignProblem::from_case_study(&study, EvaluationConfig::fast())
            })
            .map_err(|e| e.to_string())?;
        let space = rec
            .scope("search.space_scan", Some(setup), |_| {
                problem.schedule_space()
            })
            .map_err(|e| e.to_string())?;
        Ok(Paper { problem, space })
    })
}

fn synthetic_space() -> Result<ScheduleSpace, String> {
    ScheduleSpace::new(SYNTHETIC_BOX.to_vec()).map_err(|e| e.to_string())
}

/// The `paper-search` inputs drawn from the workload seed.
struct SearchInputs {
    starts: Vec<Schedule>,
    strategies: [StrategyConfig; 4],
}

fn search_inputs(paper: &Paper, seed: u64) -> SearchInputs {
    SearchInputs {
        starts: starts::draw_starts(
            &paper.space,
            |s| paper.problem.idle_feasible_schedule(s),
            seed,
            SEARCH_STARTS,
        ),
        strategies: starts::strategies(seed),
    }
}

fn tables() -> Result<(SweepReference, SweepReference), String> {
    let paper = SweepReference::parse(PAPER_TABLE).map_err(|e| format!("paper reference: {e}"))?;
    let synthetic =
        SweepReference::parse(SYNTHETIC_TABLE).map_err(|e| format!("synthetic reference: {e}"))?;
    if synthetic.box_dims.as_deref() != Some(SYNTHETIC_BOX.as_slice()) {
        return Err(format!(
            "synthetic reference is for box {:?}",
            synthetic.box_dims
        ));
    }
    Ok((paper, synthetic))
}

// ------------------------------------------------------------------ solves

/// What one solve produced (identical on every solve of a run).
#[derive(Debug, Clone, PartialEq)]
struct Solved {
    /// Schedules fully evaluated (the paper's Section-V cost).
    fresh_evals: u64,
    /// Distinct-per-search schedule requests the engine made.
    requests: u64,
    /// Schedules the engine handled: enumerated by a sweep, requested
    /// by a search.
    handled: u64,
    /// Sweeps: the optimum; search: mean of the strategies' bests.
    best_p_all: f64,
    /// The best schedule found.
    best: Schedule,
}

fn sweep<E: ScheduleEvaluator + ?Sized>(
    eval: &E,
    space: &ScheduleSpace,
    config: &SweepConfig,
    table: &SweepReference,
) -> Result<Solved, String> {
    let report = exhaustive_search_with(eval, space, config).map_err(|e| e.to_string())?;
    checked(&report, table)
}

/// The synthetic sweep as `SYNTHETIC_RANGES` consecutive rank ranges
/// folded with `ExhaustiveReport::merge_owned`, each timed as a
/// [`Segment`] into `segments` when given. `exhaustive_search_with` is
/// itself the range sweep over `0..len`; the split only lets a segment
/// per range stand in for per-evaluation timing, which would outweigh a
/// nanosecond objective.
fn sweep_in_ranges<E: ScheduleEvaluator + ?Sized>(
    eval: &E,
    space: &ScheduleSpace,
    table: &SweepReference,
    segments: Option<&Mutex<Vec<Segment>>>,
) -> Result<Solved, String> {
    let config = SweepConfig::constant_memory();
    let len = space.len();
    let mut report = ExhaustiveReport::empty();
    for k in 0..SYNTHETIC_RANGES {
        let (start, end) = (len * k / SYNTHETIC_RANGES, len * (k + 1) / SYNTHETIC_RANGES);
        let range = || exhaustive_search_range(eval, space, start, end, &config);
        let part = match segments {
            Some(segments) => {
                let (part, segment) = Segment::time(range);
                lock_recover(segments).push(segment);
                part
            }
            None => range(),
        }
        .map_err(|e| e.to_string())?;
        report = report.merge_owned(&part, space);
    }
    checked(&report, table)
}

/// Checks a sweep's report against its table and summarises it.
fn checked(report: &ExhaustiveReport, table: &SweepReference) -> Result<Solved, String> {
    table.check_sweep(report)?;
    let best = report
        .best
        .clone()
        .ok_or("sweep found no feasible schedule")?;
    Ok(Solved {
        fresh_evals: report.evaluated,
        requests: report.evaluated,
        handled: report.enumerated,
        best_p_all: report.best_value,
        best,
    })
}

/// The best report of a multistart run, by the rule
/// `CodesignProblem::optimize_with_strategy` applies.
fn best_of(outcome: &MultistartOutcome) -> Option<(Schedule, f64)> {
    let mut best: Option<(Schedule, f64)> = None;
    for report in &outcome.reports {
        if let Some(s) = &report.best {
            let better = best.as_ref().is_none_or(|(_, v)| report.best_value > *v);
            if better && report.best_value.is_finite() {
                best = Some((s.clone(), report.best_value));
            }
        }
    }
    best
}

/// Runs one strategy and checks it: the same search replayed over the
/// reference table must produce identical reports and accounting, and
/// the best schedule's objective must match its table entry bit for bit.
fn search_strategy<E: ScheduleEvaluator + ?Sized>(
    eval: &E,
    space: &ScheduleSpace,
    starts: &[Schedule],
    strategy: &StrategyConfig,
    parallel: bool,
    table: &SweepReference,
) -> Result<(MultistartOutcome, Schedule, f64), String> {
    let run = if parallel {
        run_multistart
    } else {
        run_multistart_sequential
    };
    let outcome = run(eval, space, starts, strategy, None).map_err(|e| e.to_string())?;
    let table_eval = FnEvaluator::with_idle_check(
        space.app_count(),
        |s: &Schedule| table.value(s),
        |s: &Schedule| table.contains(s),
    );
    let expected = run_multistart_sequential(&table_eval, space, starts, strategy, None)
        .map_err(|e| e.to_string())?;
    let same_reports = outcome.reports.len() == expected.reports.len()
        && outcome.reports.iter().zip(&expected.reports).all(|(a, b)| {
            a.best == b.best
                && a.best_value.to_bits() == b.best_value.to_bits()
                && a.evaluations == b.evaluations
                && a.trajectory == b.trajectory
        });
    if !same_reports || outcome.fresh_evaluations != expected.fresh_evaluations {
        return Err(format!(
            "{} diverged from its replay over the reference table",
            strategy.name()
        ));
    }
    let (best, value) = best_of(&outcome)
        .ok_or_else(|| format!("{} found no feasible schedule", strategy.name()))?;
    table.check_best(Some(&best), value)?;
    Ok((outcome, best, value))
}

/// Per-strategy evaluators of one `paper-search` solve.
enum SearchEval<'a> {
    /// Evaluations timed into the sink when given.
    Timed(Option<&'a Mutex<Vec<Segment>>>),
    /// Spans recorded under the given parent.
    Traced(&'a Recorder, usize),
}

/// One `paper-search` solve: the four strategies, each on its own fresh
/// problem. With a recorder, each strategy runs under a `search.run` span
/// through a [`TracedEvaluator`]; the designs of the overall best schedule
/// and the PSO objective calls are returned alongside.
fn search_round(
    papers: &[Paper],
    inputs: &SearchInputs,
    table: &SweepReference,
    parallel: bool,
    tracing: &SearchEval<'_>,
) -> Result<(Solved, Vec<AppDesign>, u64), String> {
    let (mut fresh, mut requests, mut calls) = (0u64, 0u64, 0u64);
    let mut bests: Vec<(Schedule, f64)> = Vec::new();
    let mut best_designs = Vec::new();
    for (paper, strategy) in papers.iter().zip(&inputs.strategies) {
        let (outcome, best, value) = match tracing {
            SearchEval::Timed(segments) => search_strategy(
                &TimedEvaluator::new(&paper.problem, *segments),
                &paper.space,
                &inputs.starts,
                strategy,
                parallel,
                table,
            )?,
            SearchEval::Traced(rec, parent) => rec.scope("search.run", Some(*parent), |run| {
                let traced = TracedEvaluator::new(&paper.problem, rec, Some(run));
                let result = search_strategy(
                    &traced,
                    &paper.space,
                    &inputs.starts,
                    strategy,
                    parallel,
                    table,
                )?;
                calls += traced.objective_calls();
                let overall_best = bests.iter().all(|(_, v)| result.2 > *v);
                if overall_best {
                    best_designs = traced
                        .designs_of(&result.1)
                        .ok_or("best schedule was never evaluated")?;
                }
                Ok::<_, String>(result)
            })?,
        };
        fresh += outcome.fresh_evaluations as u64;
        requests += outcome
            .reports
            .iter()
            .map(|r| r.evaluations as u64)
            .sum::<u64>();
        bests.push((best, value));
    }
    let mean = bests.iter().map(|(_, v)| v).sum::<f64>() / bests.len() as f64;
    let best = bests
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(s, _)| s.clone())
        .ok_or("no strategies ran")?;
    let solved = Solved {
        fresh_evals: fresh,
        requests,
        handled: requests,
        best_p_all: mean,
        best,
    };
    Ok((solved, best_designs, calls))
}

/// One untraced solve: its wall and processor time, the segments timed
/// inside it, and its checked answer.
struct SolveRun {
    lap: Lap,
    segments: Vec<Segment>,
    solved: Result<Solved, String>,
}

/// Builds a workload's inputs (untimed), then times one untraced solve
/// including its check; with `calibrate`, every schedule evaluation
/// (synthetic: every rank range) is also timed as a [`Segment`]. `Err`
/// only when the inputs cannot be built.
fn timed_solve(
    workload: Workload,
    seed: u64,
    (paper_table, synthetic_table): &(SweepReference, SweepReference),
    calibrate: bool,
) -> Result<SolveRun, String> {
    let segments = Mutex::new(Vec::new());
    let times = calibrate.then_some(&segments);
    let (lap, solved) = match workload {
        Workload::PaperSweep => {
            let paper = paper_setup()?;
            let eval = TimedEvaluator::new(&paper.problem, times);
            let watch = Stopwatch::start();
            let solved = sweep(&eval, &paper.space, &SweepConfig::default(), paper_table);
            (watch.lap(), solved)
        }
        Workload::PaperSearch => {
            let papers = (0..4)
                .map(|_| paper_setup())
                .collect::<Result<Vec<_>, _>>()?;
            let inputs = search_inputs(&papers[0], seed);
            // The engine's parallel-start path is the one cacs-opt runs;
            // with one worker the starts run in order on this thread.
            let parallel = cacs_par::thread_budget() > 1;
            let watch = Stopwatch::start();
            let solved = search_round(
                &papers,
                &inputs,
                paper_table,
                parallel,
                &SearchEval::Timed(times),
            )
            .map(|r| r.0);
            (watch.lap(), solved)
        }
        Workload::SyntheticSweep => {
            let space = synthetic_space()?;
            let eval = cacs_distrib::synthetic::surrogate(SYNTHETIC_BOX.len());
            let watch = Stopwatch::start();
            let solved = sweep_in_ranges(&eval, &space, synthetic_table, times);
            (watch.lap(), solved)
        }
    };
    Ok(SolveRun {
        lap,
        segments: segments.into_inner().unwrap_or_else(|p| p.into_inner()),
        solved,
    })
}

/// `n` set-ups, in calibrated processor seconds each: the paper
/// workloads build the case study, the problem (WCET analysis) and the
/// schedule space; the synthetic workload builds its box and objective,
/// timed in batches.
fn setup_samples(workload: Workload, n: usize) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        match workload {
            Workload::PaperSweep | Workload::PaperSearch => {
                let (paper, segment) = Segment::time(paper_setup);
                std::hint::black_box(paper?);
                samples.push(segment.calibrated_s());
            }
            Workload::SyntheticSweep => {
                let (built, segment) = Segment::time(|| {
                    (0..SYNTHETIC_SETUP_BATCH).try_for_each(|_| {
                        std::hint::black_box((
                            synthetic_space()?,
                            cacs_distrib::synthetic::surrogate(SYNTHETIC_BOX.len()),
                        ));
                        Ok::<_, String>(())
                    })
                });
                built?;
                samples.push(segment.calibrated_s() / f64::from(SYNTHETIC_SETUP_BATCH));
            }
        }
    }
    Ok(samples)
}

// ------------------------------------------------------------------ output

/// Attempted/failed solves plus the first few failure messages.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Every checked answer, in solve order.
    answers: Vec<Solved>,
    /// Whether every solve of the run has the same inputs, so a solve
    /// whose answer differs from the first one's fails too.
    repeated: bool,
}

impl Tally {
    fn new(repeated: bool) -> Self {
        Tally {
            repeated,
            ..Tally::default()
        }
    }

    /// Counts one solve and returns its answer if it passed its checks.
    fn record(&mut self, solved: Result<Solved, String>) -> Option<Solved> {
        self.attempted += 1;
        let checked = solved.and_then(|s| match self.answers.first() {
            Some(first) if self.repeated && *first != s => Err(format!(
                "solve {} answered {s:?}, solve 1 {first:?}",
                self.attempted
            )),
            _ => Ok(s),
        });
        match checked {
            Ok(s) => {
                self.answers.push(s.clone());
                Some(s)
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    /// Mean of `f` over the passing answers (`NaN` when none passed).
    fn mean(&self, f: impl Fn(&Solved) -> f64) -> f64 {
        self.answers.iter().map(f).sum::<f64>() / self.answers.len() as f64
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Prints every metric by name and unit, any failures, and the result
/// object as the last line.
fn emit(tally: &Tally, metrics: &[Metric]) {
    for e in &tally.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let mut finite = true;
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        println!("{:<32} {:>22} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            finite = false;
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".into()
        };
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    // Every run attempts at least one solve.
    let correct = tally.failed == 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

// -------------------------------------------------------------- timed run

/// Start sets one `paper-search` run solves: one per `SEARCH_ROUND_S`
/// seconds of run time, at least one (a start set takes 14–19 s with one
/// worker on a 2-core x86-64 host). Fixed by `--seconds` alone, so a seed
/// always yields the same inputs.
const SEARCH_ROUND_S: f64 = 15.0;

/// The end-to-end run: set up repeatedly, then solve in a closed loop.
///
/// The sweeps repeat one solve for `seconds` (at least once; a solve is
/// started only if it is expected to end in time) and report the median
/// calibrated solve. `paper-search` solves a fixed number of start sets
/// drawn from the seed and reports means over them, since its work
/// depends on the start set.
fn timed_run(args: &Args, tables: &(SweepReference, SweepReference)) -> Result<(), String> {
    let mut setups = Vec::new();
    let search = args.workload == Workload::PaperSearch;
    let mut tally = Tally::new(!search);
    let (mut solves, mut cpu, mut wall, mut bursts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = cacs_obs::now();
    let mut solve = |seed: u64, setups: &mut Vec<f64>| -> Result<f64, String> {
        setups.extend(setup_samples(args.workload, SETUP_REPS)?);
        let run = timed_solve(args.workload, seed, tables, true)?;
        tally.record(run.solved);
        solves.push(calibrated_solve_s(run.lap.cpu_s, &run.segments));
        bursts.push(median(
            &run.segments.iter().map(|s| s.burst_s).collect::<Vec<_>>(),
        ));
        cpu.push(run.lap.cpu_s);
        wall.push(run.lap.wall_s);
        Ok(run.lap.wall_s)
    };
    if search {
        let rounds = ((args.seconds / SEARCH_ROUND_S).floor() as usize).max(1);
        for round in 0..rounds {
            solve(starts::round_seed(args.seed, round), &mut setups)?;
        }
    } else {
        loop {
            let dt = solve(args.seed, &mut setups)?;
            if secs(start.elapsed()) + dt > args.seconds {
                break;
            }
        }
    }
    setups.extend(setup_samples(args.workload, SETUP_REPS)?);
    let solve_s = if search {
        solves.iter().sum::<f64>() / solves.len() as f64
    } else {
        median(&solves)
    };
    let success = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    let metrics = [
        metric("setup_s", median(&setups), "s"),
        metric("solve_s", solve_s, "s"),
        metric("fresh_evals", tally.mean(|s| s.fresh_evals as f64), "count"),
        metric("best_p_all", tally.mean(|s| s.best_p_all), "1"),
        metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
        metric("success_frac", success, "1"),
    ];
    eprintln!(
        "perfbench: {} seed {}: {} solve(s) in {:.1} s; calibrated s {solves:?}; processor s {cpu:?}; wall s {wall:?}; median burst s {bursts:?}",
        args.workload.name(),
        args.seed,
        tally.attempted,
        secs(start.elapsed()),
    );
    emit(&tally, &metrics);
    Ok(())
}

// ------------------------------------------------------------- traced run

/// Evaluation-layer numbers derived from the spans of one traced solve.
struct EvalLayer {
    eval_ms: Vec<f64>,
    eval_total_s: f64,
    unattributed_pct: f64,
    timing_us_p50: f64,
    lift_ms_p50: f64,
    synth_ms: Vec<f64>,
    synth_total_s: f64,
    objective_calls: u64,
}

fn eval_layer(all: &[Span], run: u32, objective_calls: u64) -> EvalLayer {
    let self_ns = self_times(all);
    let of_run: Vec<Span> = all.iter().filter(|s| s.run == run).cloned().collect();
    let ms = |name: &str| -> Vec<f64> {
        durations(&of_run, name)
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect()
    };
    let (mut eval_ns, mut eval_self_ns) = (0u64, 0u64);
    for (s, own) in all.iter().zip(&self_ns) {
        if s.run == run && s.name == "core.eval" {
            eval_ns += s.duration_ns();
            eval_self_ns += own;
        }
    }
    let synth_ms = ms("control.synth");
    EvalLayer {
        eval_ms: ms("core.eval"),
        eval_total_s: eval_ns as f64 / 1e9,
        unattributed_pct: 100.0 * eval_self_ns as f64 / eval_ns as f64,
        timing_us_p50: median(&ms("sched.timing")) * 1e3,
        lift_ms_p50: median(&ms("control.lift")),
        synth_total_s: synth_ms.iter().sum::<f64>() / 1e3,
        synth_ms,
        objective_calls,
    }
}

/// What the traced run measures on every workload; see README.md for
/// which solve each number comes from.
struct Traced {
    eval: EvalLayer,
    kernels: KernelTimes,
    requests: u64,
    fresh: u64,
    handled: u64,
    /// The untraced one-worker solve.
    plain: Lap,
    /// The traced one-worker solve.
    traced: Lap,
    /// The untraced two-worker solve.
    two_workers: Lap,
    engine_overhead_pct: f64,
    self_s: f64,
}

/// Kernel replay batches: at least 2 ms each, median of 7.
fn kernels(designs: &[AppDesign]) -> Result<KernelTimes, String> {
    replay_kernels(designs, Duration::from_millis(2), 7)
}

/// Evaluates every `PROBE_STRIDE`-th reference schedule through a
/// [`TracedEvaluator`] under run id `run`, checking each value.
fn paper_probe(
    rec: &Recorder,
    run: u32,
    table: &SweepReference,
) -> Result<(EvalLayer, Vec<AppDesign>), String> {
    let paper = paper_setup()?;
    rec.set_run(run);
    let probe: Vec<Schedule> = table
        .entries
        .keys()
        .step_by(PROBE_STRIDE)
        .map(|c| Schedule::new(c.clone()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let traced = rec.scope("bench.probe", None, |parent| {
        let traced = TracedEvaluator::new(&paper.problem, rec, Some(parent));
        for s in &probe {
            let got = traced.evaluate_traced(s)?;
            if got.map(f64::to_bits) != table.entries.get(s.counts()).copied().flatten() {
                return Err(format!(
                    "probe {s}: P_all {got:?} differs from the reference"
                ));
            }
        }
        Ok::<_, String>(traced)
    })?;
    let best = Schedule::new(table.best.clone()).map_err(|e| e.to_string())?;
    let designs = match traced.designs_of(&best) {
        Some(d) => d,
        None => {
            traced.evaluate_traced(&best)?;
            traced
                .designs_of(&best)
                .ok_or("best schedule not evaluated")?
        }
    };
    Ok((
        eval_layer(&rec.spans(), run, traced.objective_calls()),
        designs,
    ))
}

/// Runs `f` with `n` workers, then restores one.
fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    set_workers(n);
    let out = f();
    set_workers(1);
    out
}

const TRACED_RUN: u32 = 1000;
const PROBE_RUN: u32 = 2000;

fn traced_paper_sweep(
    rec: &Recorder,
    tally: &mut Tally,
    tables: &(SweepReference, SweepReference),
) -> Result<Traced, String> {
    let table = &tables.0;
    let SolveRun {
        lap: plain, solved, ..
    } = timed_solve(Workload::PaperSweep, 0, tables, false)?;
    tally.record(solved);

    let paper = paper_setup()?;
    rec.set_run(TRACED_RUN);
    let (traced, solved, calls, designs) = rec.scope("bench.solve", None, |solve| {
        let eval = TracedEvaluator::new(&paper.problem, rec, Some(solve));
        let watch = Stopwatch::start();
        let solved = sweep(&eval, &paper.space, &SweepConfig::default(), table);
        let lap = watch.lap();
        let designs = solved.as_ref().ok().and_then(|s| eval.designs_of(&s.best));
        (lap, solved, eval.objective_calls(), designs)
    });
    let solved = tally
        .record(solved)
        .ok_or("traced sweep failed its check")?;
    let eval = eval_layer(&rec.spans(), TRACED_RUN, calls);
    let kernels = kernels(&designs.ok_or("no designs for the best schedule")?)?;

    let SolveRun {
        lap: two_workers,
        solved: solved2,
        ..
    } = with_workers(2, || timed_solve(Workload::PaperSweep, 0, tables, false))?;
    tally.record(solved2);
    let self_s = traced.wall_s - eval.eval_total_s;
    Ok(Traced {
        engine_overhead_pct: 100.0 * self_s / eval.eval_total_s,
        self_s,
        eval,
        kernels,
        requests: solved.requests,
        fresh: solved.fresh_evals,
        handled: solved.handled,
        plain,
        traced,
        two_workers,
    })
}

fn traced_paper_search(
    rec: &Recorder,
    tally: &mut Tally,
    tables: &(SweepReference, SweepReference),
    seed: u64,
) -> Result<Traced, String> {
    let table = &tables.0;
    let seed = starts::round_seed(seed, 0);
    let SolveRun {
        lap: plain, solved, ..
    } = timed_solve(Workload::PaperSearch, seed, tables, false)?;
    tally.record(solved);

    let papers = (0..4)
        .map(|_| paper_setup())
        .collect::<Result<Vec<_>, _>>()?;
    let inputs = search_inputs(&papers[0], seed);
    rec.set_run(TRACED_RUN);
    let (traced, result) = rec.scope("bench.solve", None, |solve| {
        let watch = Stopwatch::start();
        let result = search_round(
            &papers,
            &inputs,
            table,
            false,
            &SearchEval::Traced(rec, solve),
        );
        (watch.lap(), result)
    });
    let (solved, designs, calls) = match result {
        Ok((s, d, c)) => (Ok(s), d, c),
        Err(e) => (Err(e), Vec::new(), 0),
    };
    let solved = tally
        .record(solved)
        .ok_or("traced search failed its check")?;
    let eval = eval_layer(&rec.spans(), TRACED_RUN, calls);
    let kernels = kernels(&designs)?;

    let SolveRun {
        lap: two_workers,
        solved: solved2,
        ..
    } = with_workers(2, || {
        timed_solve(Workload::PaperSearch, seed, tables, false)
    })?;
    tally.record(solved2);
    let self_s = traced.wall_s - eval.eval_total_s;
    Ok(Traced {
        engine_overhead_pct: 100.0 * self_s / eval.eval_total_s,
        self_s,
        eval,
        kernels,
        requests: solved.requests,
        fresh: solved.fresh_evals,
        handled: solved.handled,
        plain,
        traced,
        two_workers,
    })
}

/// A plain loop over the box calling the same objective, with the same
/// strict-improvement reduction: the engine's work minus the engine.
/// Returns (evaluated, feasible, best, best value).
fn bare_sweep<E: ScheduleEvaluator>(
    eval: &E,
    space: &ScheduleSpace,
) -> (u64, u64, Option<Schedule>, f64) {
    let (mut evaluated, mut feasible) = (0u64, 0u64);
    let mut best: Option<Schedule> = None;
    let mut best_value = f64::NEG_INFINITY;
    for s in space.iter() {
        if !eval.idle_feasible(&s) {
            continue;
        }
        evaluated += 1;
        if let Some(v) = eval.evaluate(&s) {
            feasible += 1;
            if best.is_none() || v > best_value {
                best_value = v;
                best = Some(s);
            }
        }
    }
    (evaluated, feasible, best, best_value)
}

fn traced_synthetic_sweep(
    rec: &Recorder,
    tally: &mut Tally,
    tables: &(SweepReference, SweepReference),
) -> Result<Traced, String> {
    let table = &tables.1;
    let SolveRun {
        lap: plain, solved, ..
    } = timed_solve(Workload::SyntheticSweep, 0, tables, false)?;
    tally.record(solved);

    let space = synthetic_space()?;
    let eval = cacs_distrib::synthetic::surrogate(SYNTHETIC_BOX.len());
    rec.set_run(TRACED_RUN);
    // Per-evaluation spans would outweigh a nanosecond objective; the
    // sweep is traced as one span.
    let (traced, solved) = rec.scope("bench.solve", None, |solve| {
        rec.scope("search.sweep", Some(solve), |_| {
            let watch = Stopwatch::start();
            let solved = sweep_in_ranges(&eval, &space, table, None);
            (watch.lap(), solved)
        })
    });
    let solved = tally
        .record(solved)
        .ok_or("traced sweep failed its check")?;

    let watch = Stopwatch::start();
    let (evaluated, feasible, best, best_value) =
        rec.scope("bench.bare_loop", None, |_| bare_sweep(&eval, &space));
    let bare = watch.lap();
    let bare_solved = match best {
        Some(best) if feasible == table.feasible => Ok(Solved {
            fresh_evals: evaluated,
            requests: evaluated,
            handled: space.len(),
            best_p_all: best_value,
            best,
        }),
        _ => Err(format!(
            "bare loop found {feasible} feasible schedules, best {best:?}"
        )),
    };
    tally.record(bare_solved);

    let SolveRun {
        lap: two_workers,
        solved: solved2,
        ..
    } = with_workers(2, || {
        timed_solve(Workload::SyntheticSweep, 0, tables, false)
    })?;
    tally.record(solved2);

    let (eval_layer, designs) = paper_probe(rec, PROBE_RUN, &tables.0)?;
    let kernels = kernels(&designs)?;
    Ok(Traced {
        eval: eval_layer,
        kernels,
        requests: solved.requests,
        fresh: solved.fresh_evals,
        handled: solved.handled,
        engine_overhead_pct: 100.0 * (plain.cpu_s - bare.cpu_s) / bare.cpu_s,
        self_s: traced.wall_s,
        plain,
        traced,
        two_workers,
    })
}

fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{seed}.jsonl", workload.name()))
}

fn traced_run(args: &Args, tables: &(SweepReference, SweepReference)) -> Result<(), String> {
    let rec = Recorder::new();
    for run in 0..TRACED_SETUP_REPS {
        rec.set_run(run);
        paper_setup_traced(&rec)?;
    }
    let setup_spans = rec.spans();
    let setup_ms = |name: &str| {
        median(
            &durations(&setup_spans, name)
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };

    let mut tally = Tally::new(false);
    let t = match args.workload {
        Workload::PaperSweep => traced_paper_sweep(&rec, &mut tally, tables)?,
        Workload::PaperSearch => traced_paper_search(&rec, &mut tally, tables, args.seed)?,
        Workload::SyntheticSweep => traced_synthetic_sweep(&rec, &mut tally, tables)?,
    };
    let path = spans_path(args.workload, args.seed);
    rec.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: wrote {} spans to {}; par.speedup_2w wall s {:.3} (1 worker) / {:.3} (2 workers), available parallelism {}",
        rec.spans().len(),
        path.display(),
        t.plain.wall_s,
        t.two_workers.wall_s,
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    let e = &t.eval;
    let k = &t.kernels;
    let calls = e.objective_calls as f64;
    let metrics = [
        metric("apps.case_study_ms", setup_ms("apps.case_study"), "ms"),
        metric("cache.wcet_ms", setup_ms("cache.wcet"), "ms"),
        metric("search.space_scan_ms", setup_ms("search.space_scan"), "ms"),
        metric("core.eval_ms_p50", median(&e.eval_ms), "ms"),
        metric("core.eval_ms_p85", quantile(&e.eval_ms, 0.85), "ms"),
        metric("core.unattributed_pct", e.unattributed_pct, "%"),
        metric("sched.timing_us_p50", e.timing_us_p50, "us"),
        metric("control.lift_ms_p50", e.lift_ms_p50, "ms"),
        metric("control.synth_ms_p50", median(&e.synth_ms), "ms"),
        metric("control.synth_ms_p85", quantile(&e.synth_ms, 0.85), "ms"),
        metric("pso.objective_calls", calls, "count"),
        metric("pso.objective_us", e.synth_total_s * 1e6 / calls, "us"),
        metric("control.period_map_us", k.period_map_us, "us"),
        metric("linalg.spectral_radius_us", k.spectral_radius_us, "us"),
        metric("control.simulate_us", k.simulate_us, "us"),
        metric("linalg.expm_us", k.expm_us, "us"),
        metric("linalg.matmul_ns", k.matmul_ns, "ns"),
        metric(
            "linalg.spectral_radius_share",
            k.spectral_radius_us * 1e-6 * calls / e.synth_total_s,
            "1-computed",
        ),
        metric("search.requests", t.requests as f64, "count"),
        metric(
            "search.cache_hit_ratio",
            (t.requests - t.fresh) as f64 / t.requests as f64,
            "1",
        ),
        metric("search.self_s", t.self_s, "s"),
        metric(
            "search.schedules_per_s",
            t.handled as f64 / t.plain.cpu_s,
            "1/s",
        ),
        metric("search.engine_overhead_pct", t.engine_overhead_pct, "%"),
        metric("par.speedup_2w", t.plain.wall_s / t.two_workers.wall_s, "x"),
        metric(
            "bench.trace_overhead_pct",
            100.0 * (t.traced.cpu_s - t.plain.cpu_s) / t.plain.cpu_s,
            "%",
        ),
    ];
    emit(&tally, &metrics);
    Ok(())
}

// ------------------------------------------------------------- reference

fn write_reference(dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let paper = paper_setup()?;
    let report = exhaustive_search_with(&paper.problem, &paper.space, &SweepConfig::default())
        .map_err(|e| e.to_string())?;
    let text = SweepReference::render(
        &report,
        None,
        "Paper case study at EvaluationConfig::fast(): every idle-feasible schedule\n\
         of schedule_space() with its P_all bit pattern (decimal for reading only).\n\
         Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference perfbench/reference",
    );
    let path = dir.join("paper_fast.txt");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;

    let space = synthetic_space()?;
    let eval = cacs_distrib::synthetic::surrogate(SYNTHETIC_BOX.len());
    let report = exhaustive_search_with(&eval, &space, &SweepConfig::constant_memory())
        .map_err(|e| e.to_string())?;
    let text = SweepReference::render(
        &report,
        Some(&SYNTHETIC_BOX),
        "Synthetic surrogate (cacs_distrib::synthetic::surrogate) swept over the box:\n\
         totals and optimum with its value bit pattern.",
    );
    let path = dir.join("synthetic.txt");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match command {
        Command::WriteReference(dir) => write_reference(&dir),
        Command::Run(args) => {
            set_workers(1);
            tables().and_then(|tables| {
                if args.trace {
                    traced_run(&args, &tables)
                } else {
                    timed_run(&args, &tables)
                }
            })
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_in_ranges_reproduces_one_sweep() {
        let space = ScheduleSpace::new(vec![9, 7, 5]).unwrap();
        let eval = cacs_distrib::synthetic::surrogate(3);
        let whole = exhaustive_search_with(&eval, &space, &SweepConfig::constant_memory()).unwrap();
        let table =
            SweepReference::parse(&SweepReference::render(&whole, Some(&[9, 7, 5]), "")).unwrap();
        let segments = Mutex::new(Vec::new());
        let solved = sweep_in_ranges(&eval, &space, &table, Some(&segments)).unwrap();
        assert_eq!(solved.fresh_evals, whole.evaluated);
        assert_eq!(solved.handled, whole.enumerated);
        assert_eq!(solved.best_p_all.to_bits(), whole.best_value.to_bits());
        assert_eq!(Some(&solved.best), whole.best.as_ref());
        assert_eq!(
            segments.into_inner().unwrap().len() as u64,
            SYNTHETIC_RANGES
        );
    }
}
