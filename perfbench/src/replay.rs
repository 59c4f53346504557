//! The traced evaluator and the kernel replay.
//!
//! [`TracedEvaluator`] replays `CodesignProblem::evaluate_schedule`
//! through the program's public per-application calls — timing
//! derivation, idle check, synthesis configuration, lifted plant,
//! holistic synthesis — with a span around each, on the problem's own
//! evaluation context (same exponential memo, same scratch pool). Its
//! objective is bit-identical to the program's, which the benchmark
//! checks against the reference table.
//!
//! [`replay_kernels`] times the innermost kernels on a finished design's
//! own matrices and gains and checks each result against what the
//! evaluation recorded.

use crate::spans::Recorder;
use crate::stats::median;
use cacs_control::{
    settling_time, simulate_worst_case, synthesize_with, DesignedController, LiftedPlant,
    PeriodMapWorkspace, SynthesisConfig,
};
use cacs_core::CodesignProblem;
use cacs_linalg::{expm_with_integral, spectral_radius, Matrix};
use cacs_par::sync::lock_recover;
use cacs_sched::{check_idle_times, derive_timing, AppParams, Schedule, ScheduleTiming};
use cacs_search::ScheduleEvaluator;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Duration;

/// One application's finished design, kept for the kernel replay.
#[derive(Debug, Clone)]
pub struct AppDesign {
    /// The lifted plant the design was synthesised on.
    pub lifted: LiftedPlant,
    /// The synthesised controller.
    pub controller: DesignedController,
    /// The synthesis configuration (reference, horizon, settling band).
    pub config: SynthesisConfig,
}

/// A [`ScheduleEvaluator`] that evaluates like the program and records a
/// `core.eval` span per evaluation with `sched.timing`, `control.lift`
/// and `control.synth` children.
#[derive(Debug)]
pub struct TracedEvaluator<'a> {
    problem: &'a CodesignProblem,
    params: Vec<AppParams>,
    rec: &'a Recorder,
    parent: Option<usize>,
    designs: Mutex<Vec<(Schedule, Vec<AppDesign>)>>,
}

impl<'a> TracedEvaluator<'a> {
    /// Wraps `problem`; every `core.eval` span is parented to `parent`.
    pub fn new(problem: &'a CodesignProblem, rec: &'a Recorder, parent: Option<usize>) -> Self {
        TracedEvaluator {
            problem,
            params: problem.apps().iter().map(|a| a.params.clone()).collect(),
            rec,
            parent,
            designs: Mutex::new(Vec::new()),
        }
    }

    /// The designs of `schedule`, if this evaluator evaluated it.
    pub fn designs_of(&self, schedule: &Schedule) -> Option<Vec<AppDesign>> {
        lock_recover(&self.designs)
            .iter()
            .find(|(s, _)| s == schedule)
            .map(|(_, d)| d.clone())
    }

    /// Sum of the PSO objective calls over every design so far.
    pub fn objective_calls(&self) -> u64 {
        lock_recover(&self.designs)
            .iter()
            .flat_map(|(_, d)| d.iter())
            .map(|d| d.controller.evaluations as u64)
            .sum()
    }

    fn timing(&self, schedule: &Schedule) -> Result<ScheduleTiming, String> {
        let timing = derive_timing(&schedule.task_sequence(), self.problem.exec_times())
            .map_err(|e| e.to_string())?;
        let violations = check_idle_times(&timing, &self.params).map_err(|e| e.to_string())?;
        if violations.is_empty() {
            Ok(timing)
        } else {
            Err(format!("{schedule} violates idle-time constraints"))
        }
    }

    /// One traced evaluation: `Ok(None)` when a settling deadline is
    /// missed, `Err` when the program would report an error.
    pub fn evaluate_traced(&self, schedule: &Schedule) -> Result<Option<f64>, String> {
        let rec = self.rec;
        rec.scope("core.eval", self.parent, |eval| {
            let timing = rec.scope("sched.timing", Some(eval), |_| self.timing(schedule))?;
            let ctx = self.problem.eval_ctx();
            let mut designs = Vec::with_capacity(self.problem.app_count());
            let mut performances = Vec::with_capacity(self.problem.app_count());
            for (i, app) in self.problem.apps().iter().enumerate() {
                let at = &timing.apps[i];
                let config = self.problem.synthesis_config_for(i, schedule);
                let lifted = rec
                    .scope("control.lift", Some(eval), |_| {
                        LiftedPlant::new_cached(
                            app.plant.clone(),
                            &at.periods,
                            &at.delays,
                            ctx.expm_cache(),
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let controller = rec
                    .scope("control.synth", Some(eval), |_| {
                        synthesize_with(&lifted, &config, ctx.synth())
                    })
                    .map_err(|e| e.to_string())?;
                performances.push(app.params.performance(controller.settling_time));
                designs.push(AppDesign {
                    lifted,
                    controller,
                    config,
                });
            }
            // Constraint (3) and eq. (2), in the program's order of
            // operations so the sum is bit-identical.
            let feasible = performances.iter().all(|&p| p >= 0.0);
            let overall = feasible.then(|| {
                performances
                    .iter()
                    .zip(self.problem.apps())
                    .map(|(p, a)| a.params.weight * p)
                    .sum()
            });
            lock_recover(&self.designs).push((schedule.clone(), designs));
            Ok(overall)
        })
    }
}

impl ScheduleEvaluator for TracedEvaluator<'_> {
    fn app_count(&self) -> usize {
        self.problem.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.problem.idle_feasible_schedule(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        self.evaluate_traced(schedule).ok().flatten()
    }
}

/// Per-call kernel times, averaged over the replayed designs.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    /// `LiftedPlant::period_map_into`, µs.
    pub period_map_us: f64,
    /// `spectral_radius` of the period map, µs.
    pub spectral_radius_us: f64,
    /// `simulate_worst_case`, µs.
    pub simulate_us: f64,
    /// `expm_with_integral` per interval, µs.
    pub expm_us: f64,
    /// One `matmul_into` of two lifted (2l × 2l) step matrices, ns.
    pub matmul_ns: f64,
}

/// Per-call nanoseconds of `f`: batches sized to at least `batch` each,
/// median over `batches` of them.
fn per_call_ns(mut f: impl FnMut(), batch: Duration, batches: usize) -> f64 {
    let mut reps = 1u32;
    loop {
        let t = cacs_obs::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed() >= batch || reps >= 1 << 24 {
            break;
        }
        reps *= 2;
    }
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = cacs_obs::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(reps)
        })
        .collect();
    median(&samples)
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Times the period map, spectral radius, worst-case simulation, matrix
/// exponential and lifted matmul on each design's own data, checking
/// every result against the design bit for bit.
///
/// # Errors
///
/// Describes the first kernel whose result differs from the recorded one.
pub fn replay_kernels(
    designs: &[AppDesign],
    batch: Duration,
    batches: usize,
) -> Result<KernelTimes, String> {
    if designs.is_empty() {
        return Err("no designs to replay".into());
    }
    let mut sum = KernelTimes::default();
    for d in designs {
        let (lifted, c) = (&d.lifted, &d.controller);
        let gains = &c.gains;

        let mut ws = PeriodMapWorkspace::new();
        lifted
            .period_map_into(gains, &mut ws)
            .map_err(|e| e.to_string())?;
        let phi = ws.phi().clone();
        let rho = spectral_radius(&phi).map_err(|e| e.to_string())?;
        if rho.to_bits() != c.spectral_radius.to_bits() {
            return Err(format!(
                "replayed rho {rho} differs from the design's {}",
                c.spectral_radius
            ));
        }
        sum.period_map_us += per_call_ns(
            || {
                let _ = lifted.period_map_into(black_box(gains), &mut ws);
            },
            batch,
            batches,
        ) / 1e3;
        sum.spectral_radius_us += per_call_ns(
            || {
                let _ = black_box(spectral_radius(black_box(&phi)));
            },
            batch,
            batches,
        ) / 1e3;

        let (reference, horizon) = (d.config.reference, d.config.horizon);
        let simulate = || simulate_worst_case(lifted, gains, &c.feedforwards, reference, horizon);
        let response = simulate().map_err(|e| e.to_string())?;
        let settled = settling_time(&response, d.config.settling);
        if settled.map(f64::to_bits) != Some(c.settling_time.to_bits()) {
            return Err(format!(
                "replayed settling time {settled:?} differs from the design's {}",
                c.settling_time
            ));
        }
        sum.simulate_us += per_call_ns(
            || {
                let _ = black_box(simulate());
            },
            batch,
            batches,
        ) / 1e3;

        let a = lifted.plant().a();
        for iv in lifted.intervals() {
            let (phi_h, _) = expm_with_integral(a, iv.h).map_err(|e| e.to_string())?;
            if !same_bits(&phi_h, &iv.a_d) {
                return Err(format!(
                    "replayed e^(A h) for h = {} differs from the lifted plant's",
                    iv.h
                ));
            }
        }
        let intervals = lifted.intervals();
        sum.expm_us += per_call_ns(
            || {
                for iv in intervals {
                    let _ = black_box(expm_with_integral(a, black_box(iv.h)));
                }
            },
            batch,
            batches,
        ) / 1e3
            / intervals.len() as f64;

        // Φ = S_{m−1} ··· S_0 rebuilt from the step matrices must be the
        // period map, bit for bit.
        let steps = (0..lifted.tasks())
            .map(|j| lifted.step_matrix(j, gains))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let mut chain = steps[0].clone();
        let mut next = Matrix::zeros(chain.rows(), chain.cols());
        for s in &steps[1..] {
            s.matmul_into(&chain, &mut next)
                .map_err(|e| e.to_string())?;
            std::mem::swap(&mut chain, &mut next);
        }
        if !same_bits(&chain, &phi) {
            return Err("step-matrix product differs from the period map".into());
        }
        let lhs = steps.last().unwrap_or(&steps[0]);
        sum.matmul_ns += per_call_ns(
            || {
                let _ = lhs.matmul_into(black_box(&steps[0]), &mut next);
            },
            batch,
            batches,
        );
    }
    let n = designs.len() as f64;
    Ok(KernelTimes {
        period_map_us: sum.period_map_us / n,
        spectral_radius_us: sum.spectral_radius_us / n,
        simulate_us: sum.simulate_us / n,
        expm_us: sum.expm_us / n,
        matmul_ns: sum.matmul_ns / n,
    })
}
