//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans only from its own code, around calls
//! into the program's public functions. Each span holds its name, start
//! and end (nanoseconds since the recorder was created), its parent span
//! and a run id that groups the spans of one solve. Spans stay in memory
//! until the run ends and are then written out as JSON lines.

use cacs_par::sync::lock_recover;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.eval`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin (equal to the start
    /// while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The solve this span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; safe to share with the evaluator the search engine
/// calls (the benchmark runs one worker, so the lock is uncontended).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: cacs_obs::now(),
            run: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags every span opened from now on with run id `run`.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.elapsed_ns();
        let mut spans = lock_recover(&self.spans);
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run.load(Ordering::Relaxed),
        });
        spans.len() - 1
    }

    /// Closes span `id` at the current time.
    pub fn close(&self, id: usize) {
        let end_ns = self.elapsed_ns();
        if let Some(span) = lock_recover(&self.spans).get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index
    /// so it can parent its own children.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        lock_recover(&self.spans).clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and
/// children are clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(parent) = spans.get(p) {
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.duration_ns().saturating_sub(covered_ns(&mut kids)))
        .collect()
}

/// Length of the union of half-open intervals.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((cs, ce)) if start <= ce => Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Durations (ns) of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("core.eval", 0, 100, None),
            span("sched.timing", 10, 20, Some(0)),
            span("control.synth", 30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 60]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered: [100,170) ∪ [190,200) = 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 0, 50, Some(0)),
            span("grandchild", 10, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn recorder_nests_and_tags_runs() {
        let rec = Recorder::new();
        rec.set_run(7);
        rec.scope("outer", None, |outer| {
            rec.scope("inner", Some(outer), |_| std::hint::black_box(3u64.pow(3)));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations(&spans, "inner").len(), 1);
    }
}
