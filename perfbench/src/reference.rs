//! Reference tables the benchmark checks every answer against.
//!
//! A table is plain text, generated once from a sweep of the program
//! (`--write-reference`) and committed under `perfbench/reference/`:
//!
//! ```text
//! enumerated 192
//! evaluated 77
//! feasible 54
//! best 1x4x3 0x3fc765a0780313c0 0.182788904762
//! schedule 1x1x1 0x3fbc8305620fd774 0.111374222222
//! schedule 1x1x4 infeasible
//! ```
//!
//! `box` names the synthetic box a table belongs to. `schedule` lines
//! hold every evaluated schedule with its `P_all` bit pattern (or
//! `infeasible`); the decimal column is for readers and ignored. Lines
//! starting with `#` are comments.

use cacs_sched::Schedule;
use cacs_search::ExhaustiveReport;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Expected outcome of one sweep, optionally with every evaluated entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReference {
    /// Synthetic box dimensions (`None` for the paper case study).
    pub box_dims: Option<Vec<u32>>,
    /// Schedules enumerated in the box.
    pub enumerated: u64,
    /// Idle-feasible schedules, i.e. fully evaluated ones.
    pub evaluated: u64,
    /// Evaluated schedules meeting every settling deadline.
    pub feasible: u64,
    /// The optimum's counts.
    pub best: Vec<u32>,
    /// The optimum's `P_all` bit pattern.
    pub best_bits: u64,
    /// Every evaluated schedule → `P_all` bits (`None` = infeasible).
    /// Empty when the table records totals only.
    pub entries: BTreeMap<Vec<u32>, Option<u64>>,
}

fn counts_text(counts: &[u32]) -> String {
    counts
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join("x")
}

fn parse_counts(text: &str) -> Result<Vec<u32>, String> {
    text.split('x')
        .map(|f| {
            f.parse::<u32>()
                .map_err(|e| format!("bad count {f:?}: {e}"))
        })
        .collect()
}

fn parse_bits(text: &str) -> Result<u64, String> {
    let hex = text
        .strip_prefix("0x")
        .ok_or_else(|| format!("bit pattern {text:?} must start with 0x"))?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("bad bit pattern {text:?}: {e}"))
}

impl SweepReference {
    /// Parses a table.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut box_dims = None;
        let (mut enumerated, mut evaluated, mut feasible, mut best) = (None, None, None, None);
        let mut entries = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let number = |i: usize| -> Result<u64, String> {
                fields
                    .get(i)
                    .ok_or_else(|| format!("missing field in {line:?}"))?
                    .parse::<u64>()
                    .map_err(|e| format!("bad number in {line:?}: {e}"))
            };
            let field = |i: usize| -> Result<&str, String> {
                fields
                    .get(i)
                    .copied()
                    .ok_or_else(|| format!("missing field in {line:?}"))
            };
            match fields[0] {
                "box" => box_dims = Some(parse_counts(field(1)?)?),
                "enumerated" => enumerated = Some(number(1)?),
                "evaluated" => evaluated = Some(number(1)?),
                "feasible" => feasible = Some(number(1)?),
                "best" => best = Some((parse_counts(field(1)?)?, parse_bits(field(2)?)?)),
                "schedule" => {
                    let counts = parse_counts(field(1)?)?;
                    let value = match field(2)? {
                        "infeasible" => None,
                        bits => Some(parse_bits(bits)?),
                    };
                    if entries.insert(counts, value).is_some() {
                        return Err(format!("duplicate schedule in {line:?}"));
                    }
                }
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        let (best, best_bits) = best.ok_or("missing best")?;
        Ok(SweepReference {
            box_dims,
            enumerated: enumerated.ok_or("missing enumerated")?,
            evaluated: evaluated.ok_or("missing evaluated")?,
            feasible: feasible.ok_or("missing feasible")?,
            best,
            best_bits,
            entries,
        })
    }

    /// Renders the table for a sweep's report. Per-schedule entries are
    /// written when the report retained its results.
    pub fn render(report: &ExhaustiveReport, box_dims: Option<&[u32]>, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            let _ = writeln!(out, "# {line}");
        }
        if let Some(dims) = box_dims {
            let _ = writeln!(out, "box {}", counts_text(dims));
        }
        let _ = writeln!(out, "enumerated {}", report.enumerated);
        let _ = writeln!(out, "evaluated {}", report.evaluated);
        let _ = writeln!(out, "feasible {}", report.feasible);
        if let Some(best) = &report.best {
            let _ = writeln!(
                out,
                "best {} {:#018x} {:.12}",
                counts_text(best.counts()),
                report.best_value.to_bits(),
                report.best_value
            );
        }
        if !report.results_truncated {
            for (schedule, value) in &report.results {
                let value = value.map_or_else(
                    || "infeasible".to_string(),
                    |v| format!("{:#018x} {v:.12}", v.to_bits()),
                );
                let _ = writeln!(out, "schedule {} {value}", counts_text(schedule.counts()));
            }
        }
        out
    }

    /// Whether `schedule` is one of the table's evaluated schedules.
    pub fn contains(&self, schedule: &Schedule) -> bool {
        self.entries.contains_key(schedule.counts())
    }

    /// The recorded objective of `schedule` (`None` when infeasible or
    /// not in the table).
    pub fn value(&self, schedule: &Schedule) -> Option<f64> {
        self.entries
            .get(schedule.counts())
            .copied()
            .flatten()
            .map(f64::from_bits)
    }

    /// Checks a reported best schedule and objective against its entry,
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check_best(&self, best: Option<&Schedule>, value: f64) -> Result<(), String> {
        let best = best.ok_or("no feasible schedule reported")?;
        match self.entries.get(best.counts()) {
            None => Err(format!(
                "reported best {best} is not in the reference table"
            )),
            Some(None) => Err(format!(
                "reported best {best} is infeasible in the reference table"
            )),
            Some(Some(bits)) if *bits != value.to_bits() => Err(format!(
                "{best}: P_all bits {:#018x} differ from the reference {bits:#018x}",
                value.to_bits()
            )),
            Some(Some(_)) => Ok(()),
        }
    }

    /// Checks a whole sweep: the counters, the optimum and its bits, and,
    /// when the table holds entries, every evaluated schedule.
    ///
    /// # Errors
    ///
    /// Describes the first mismatch.
    pub fn check_sweep(&self, report: &ExhaustiveReport) -> Result<(), String> {
        let counters = (report.enumerated, report.evaluated, report.feasible);
        let expected = (self.enumerated, self.evaluated, self.feasible);
        if counters != expected {
            return Err(format!(
                "enumerated/evaluated/feasible {counters:?}, reference {expected:?}"
            ));
        }
        let best = report.best.as_ref().map(|s| s.counts().to_vec());
        if best.as_deref() != Some(self.best.as_slice())
            || report.best_value.to_bits() != self.best_bits
        {
            return Err(format!(
                "best {best:?} with bits {:#018x}, reference {:?} with {:#018x}",
                report.best_value.to_bits(),
                self.best,
                self.best_bits
            ));
        }
        if self.entries.is_empty() {
            return Ok(());
        }
        if report.results_truncated || report.results.len() != self.entries.len() {
            return Err(format!(
                "sweep retained {} results, reference holds {}",
                report.results.len(),
                self.entries.len()
            ));
        }
        for (schedule, value) in &report.results {
            let got = value.map(f64::to_bits);
            match self.entries.get(schedule.counts()) {
                Some(expected) if *expected == got => {}
                Some(expected) => {
                    return Err(format!(
                        "{schedule}: P_all bits {got:x?} differ from the reference {expected:x?}"
                    ))
                }
                None => return Err(format!("{schedule} is not in the reference table")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "\
# comment
enumerated 4
evaluated 3
feasible 2
best 1x2 0x3fe0000000000000 0.5
schedule 1x1 0x3fd0000000000000 0.25
schedule 1x2 0x3fe0000000000000 0.5
schedule 2x1 infeasible
";

    fn report(values: &[(&[u32], Option<f64>)]) -> ExhaustiveReport {
        let mut r = ExhaustiveReport::empty();
        r.enumerated = 4;
        r.evaluated = values.len() as u64;
        r.feasible = values.iter().filter(|(_, v)| v.is_some()).count() as u64;
        r.best = Some(Schedule::new(vec![1, 2]).unwrap());
        r.best_value = 0.5;
        r.results = values
            .iter()
            .map(|(c, v)| (Schedule::new(c.to_vec()).unwrap(), *v))
            .collect();
        r
    }

    #[test]
    fn parses_and_round_trips() {
        let table = SweepReference::parse(TABLE).unwrap();
        assert_eq!(
            (table.enumerated, table.evaluated, table.feasible),
            (4, 3, 2)
        );
        assert_eq!(table.best, vec![1, 2]);
        assert_eq!(table.entries.len(), 3);
        let good = report(&[(&[1, 1], Some(0.25)), (&[1, 2], Some(0.5)), (&[2, 1], None)]);
        table.check_sweep(&good).unwrap();
        let rendered = SweepReference::render(&good, None, "comment");
        assert_eq!(SweepReference::parse(&rendered).unwrap(), table);
    }

    #[test]
    fn a_perturbed_entry_fails_the_check() {
        let table = SweepReference::parse(TABLE).unwrap();
        let good = report(&[(&[1, 1], Some(0.25)), (&[1, 2], Some(0.5)), (&[2, 1], None)]);
        // One ulp off on a non-optimal schedule.
        let mut perturbed = table.clone();
        perturbed
            .entries
            .insert(vec![1, 1], Some(0.25f64.to_bits() + 1));
        assert!(perturbed.check_sweep(&good).is_err());
        // Feasibility flipped.
        let mut flipped = table.clone();
        flipped.entries.insert(vec![2, 1], Some(0.1f64.to_bits()));
        assert!(flipped.check_sweep(&good).is_err());
        // The optimum's bits perturbed: both checks fail.
        let mut best = table.clone();
        best.entries.insert(vec![1, 2], Some(0.5f64.to_bits() ^ 1));
        let s = Schedule::new(vec![1, 2]).unwrap();
        assert!(best.check_best(Some(&s), 0.5).is_err());
        assert!(table.check_best(Some(&s), 0.5).is_ok());
        assert!(table
            .check_best(Some(&Schedule::new(vec![2, 1]).unwrap()), 0.5)
            .is_err());
        assert!(table.check_best(None, 0.5).is_err());
    }

    #[test]
    fn counters_and_totals_only_tables_are_checked() {
        let table = SweepReference::parse(
            "box 2x2\nenumerated 4\nevaluated 3\nfeasible 2\nbest 1x2 0x3fe0000000000000\n",
        )
        .unwrap();
        assert_eq!(table.box_dims, Some(vec![2, 2]));
        let mut r = report(&[(&[1, 1], Some(0.25)), (&[1, 2], Some(0.5)), (&[2, 1], None)]);
        table.check_sweep(&r).unwrap();
        r.feasible = 3;
        assert!(table.check_sweep(&r).is_err());
    }

    #[test]
    fn malformed_tables_are_rejected() {
        assert!(SweepReference::parse("enumerated 1\n").is_err());
        assert!(SweepReference::parse("bogus 1\n").is_err());
        assert!(SweepReference::parse(&format!("{TABLE}schedule 1x1 infeasible\n")).is_err());
        assert!(SweepReference::parse(&TABLE.replace("0x3fd0", "3fd0")).is_err());
    }
}
