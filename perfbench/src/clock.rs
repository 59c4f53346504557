//! The clock the end-to-end times are read from.
//!
//! On a virtual machine the wall clock also counts the time the host
//! runs other guests on this guest's processors ("steal"). On a 2-core
//! x86-64 VM, one second of single-threaded arithmetic read 0.74–0.99 s
//! of wall time but 0.74–0.80 s of processor time over 40 repetitions.
//! With one worker thread and nothing to wait for, the process's
//! processor time is the solve's wall time without the steal, so the
//! timed metrics use it. It counts every thread of the process, so work
//! moved onto other threads is never lost from a measurement.
//!
//! Other tenants also slow the processor itself, by up to 2× for seconds
//! to minutes at a time. So every timed piece of work (a schedule
//! evaluation, a rank range of the synthetic sweep, a set-up) runs right
//! after a short fixed benchmark-side kernel, [`calibration_burst`], and
//! its processor time is scaled by the kernel's reference time over the
//! kernel's time at that moment ([`Segment::calibrated_s`]). The kernel
//! is not program code, so no change to the program moves it.

use crate::stats::median;
use cacs_par::sync::lock_recover;
use cacs_sched::Schedule;
use cacs_search::ScheduleEvaluator;
use std::sync::Mutex;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Processor time consumed so far by every thread of this process.
///
/// # Panics
///
/// If the clock cannot be read (not a 64-bit Linux process).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the 64-bit Linux
    // layout, and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// Wall and processor time elapsed since a start point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: Duration,
}

/// Seconds measured by a [`Stopwatch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Processor seconds of the whole process.
    pub cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Stopwatch {
            wall: cacs_obs::now(),
            cpu: process_cpu(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn lap(&self) -> Lap {
        let cpu = process_cpu().saturating_sub(self.cpu);
        Lap {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu.as_secs_f64(),
        }
    }
}

/// Iterations of [`calibration_burst`]'s kernel.
const CALIBRATION_ITERS: usize = 20_000;

/// Processor seconds [`calibration_burst`] is scaled to. It fixes the
/// unit of the calibrated times and must never change: it is roughly what
/// the burst took on the 2-core x86-64 VM the benchmark was written on.
pub const CALIBRATION_REFERENCE_S: f64 = 0.0025;

/// Processor seconds of a fixed benchmark-side kernel (6×6 matrix
/// products with a data-dependent branch, the shape of the program's
/// inner loops) that no change to the program can speed up or slow down.
///
/// Run right before each timed piece of work, it measures how much other
/// tenants slow the processor at that moment. On a 2-core x86-64 VM whose
/// kernel times ranged over 1.9× within minutes, scaling each paper-fast
/// evaluation by it cut the interquartile spread of identical sweeps'
/// processor times from 12% to 1–3% of their median in one window, and
/// from 18% to 11% in a noisier one. A kernel chasing pointers through
/// 8 MiB tracked the evaluations worse than this one.
pub fn calibration_burst() -> f64 {
    let watch = Stopwatch::start();
    let mut a = [[0.0f64; 6]; 6];
    let mut b = [[0.0f64; 6]; 6];
    for i in 0..6 {
        for j in 0..6 {
            a[i][j] = 0.1 * (i as f64 + 1.0) / (j as f64 + 2.0);
            b[i][j] = if i == j { 0.9 } else { 0.01 * (i + j) as f64 };
        }
    }
    let mut acc = 0.0;
    for k in 0..CALIBRATION_ITERS {
        let mut c = [[0.0f64; 6]; 6];
        for (ci, ai) in c.iter_mut().zip(&a) {
            for (x, bl) in ai.iter().zip(&b) {
                for (cij, blj) in ci.iter_mut().zip(bl) {
                    *cij += x * blj;
                }
            }
        }
        let norm: f64 = c.iter().flatten().map(|v| v.abs()).sum();
        let scale = 1.0 / norm.max(1e-12);
        for (i, (ai, ci)) in a.iter_mut().zip(&c).enumerate() {
            for (j, (aij, cij)) in ai.iter_mut().zip(ci).enumerate() {
                *aij = cij * scale + if (k + i * j) % 7 == 0 { 1e-3 } else { 0.0 };
            }
        }
        acc += a[k % 6][(k / 6) % 6];
    }
    std::hint::black_box(acc);
    watch.lap().cpu_s
}

/// One timed piece of work and the calibration burst run right before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Processor seconds of the work.
    pub cpu_s: f64,
    /// Processor seconds of the burst before it.
    pub burst_s: f64,
}

impl Segment {
    /// Runs a burst, then `f`, timing both.
    pub fn time<R>(f: impl FnOnce() -> R) -> (R, Segment) {
        let burst_s = calibration_burst();
        let start = process_cpu();
        let out = f();
        let cpu_s = process_cpu().saturating_sub(start).as_secs_f64();
        (out, Segment { cpu_s, burst_s })
    }

    /// The work's processor seconds at the speed the burst's reference
    /// time stands for.
    pub fn calibrated_s(&self) -> f64 {
        self.cpu_s * CALIBRATION_REFERENCE_S / self.burst_s
    }
}

/// Calibrated processor seconds of a solve that took `total_cpu_s`
/// (bursts included) and timed `segments` inside it: each segment at its
/// own burst's speed, the rest of the solve at its bursts' median speed.
/// `NaN` when the solve timed no segment.
pub fn calibrated_solve_s(total_cpu_s: f64, segments: &[Segment]) -> f64 {
    let timed: f64 = segments.iter().map(|s| s.cpu_s + s.burst_s).sum();
    let bursts: Vec<f64> = segments.iter().map(|s| s.burst_s).collect();
    let rest = (total_cpu_s - timed).max(0.0) * CALIBRATION_REFERENCE_S / median(&bursts);
    segments.iter().map(Segment::calibrated_s).sum::<f64>() + rest
}

/// A [`ScheduleEvaluator`] that times each evaluation as a [`Segment`]
/// (a burst of about 2.5 ms and two clock reads around a call that takes
/// tens of milliseconds), or passes calls straight through when it has
/// no sink.
#[derive(Debug)]
pub struct TimedEvaluator<'a, E: ?Sized> {
    inner: &'a E,
    segments: Option<&'a Mutex<Vec<Segment>>>,
}

impl<'a, E: ScheduleEvaluator + ?Sized> TimedEvaluator<'a, E> {
    /// Wraps `inner`, appending to `segments` when given.
    pub fn new(inner: &'a E, segments: Option<&'a Mutex<Vec<Segment>>>) -> Self {
        TimedEvaluator { inner, segments }
    }
}

impl<E: ScheduleEvaluator + ?Sized> ScheduleEvaluator for TimedEvaluator<'_, E> {
    fn app_count(&self) -> usize {
        self.inner.app_count()
    }

    fn idle_feasible(&self, schedule: &Schedule) -> bool {
        self.inner.idle_feasible(schedule)
    }

    fn evaluate(&self, schedule: &Schedule) -> Option<f64> {
        let Some(segments) = self.segments else {
            return self.inner.evaluate(schedule);
        };
        let (value, segment) = Segment::time(|| self.inner.evaluate(schedule));
        lock_recover(segments).push(segment);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_scaled_by_their_own_burst() {
        let r = CALIBRATION_REFERENCE_S;
        // Work of 1 s at reference speed, once at full speed and once
        // while the processor ran at half speed.
        let fast = Segment {
            cpu_s: 1.0,
            burst_s: r,
        };
        let slow = Segment {
            cpu_s: 2.0,
            burst_s: 2.0 * r,
        };
        assert!((fast.calibrated_s() - 1.0).abs() < 1e-12);
        assert!((slow.calibrated_s() - 1.0).abs() < 1e-12);
        // 0.5 s outside the segments, at the bursts' median speed (1.5 r).
        let total = 1.0 + r + 2.0 + 2.0 * r + 0.5;
        let got = calibrated_solve_s(total, &[fast, slow]);
        assert!((got - (2.0 + 0.5 / 1.5)).abs() < 1e-12, "{got}");
        assert!(calibrated_solve_s(1.0, &[]).is_nan());
    }

    #[test]
    fn calibration_burst_takes_measurable_time() {
        let t = calibration_burst();
        assert!(t > 0.0 && t < 1.0, "{t}");
    }

    #[test]
    fn timed_evaluator_records_every_call_and_passes_values_through() {
        let eval = cacs_search::FnEvaluator::new(2, |s: &Schedule| Some(f64::from(s.counts()[0])));
        let segments = Mutex::new(Vec::new());
        let timed = TimedEvaluator::new(&eval, Some(&segments));
        let s = Schedule::new(vec![3, 1]).expect("valid schedule");
        assert_eq!(timed.evaluate(&s), Some(3.0));
        assert_eq!(timed.app_count(), 2);
        let segments = segments.into_inner().expect("not poisoned");
        assert_eq!(segments.len(), 1);
        assert!(segments[0].cpu_s >= 0.0 && segments[0].burst_s > 0.0);
    }

    #[test]
    fn processor_time_advances_with_work() {
        let watch = Stopwatch::start();
        let mut x = 1u64;
        while watch.lap().wall_s < 0.05 {
            for i in 0..10_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
        }
        let lap = watch.lap();
        assert!(lap.cpu_s > 0.01 && lap.wall_s >= 0.05, "{lap:?}");
    }
}
