//! What one run reports, how it is printed and written, and how two
//! result files are compared.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::metrics::{lookup, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// Metric values of one run, with the number of samples behind each.
#[derive(Debug, Default, Clone)]
pub struct Values(HashMap<&'static str, (f64, usize)>);

impl Values {
    /// Records `value`, measured from `samples` samples.
    ///
    /// # Panics
    ///
    /// On a name the metric table does not list: a typo must not vanish
    /// into an unreported number.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(lookup(name).is_some(), "metric `{name}` is not in the table");
        self.0.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    fn samples(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |v| v.1)
    }
}

/// The result of one workload run, traced or not.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that belong to no single op (a drifting digest, a
    /// replay that disagrees with the server, a non-zero shed count).
    pub problems: Vec<String>,
    pub values: Values,
    /// Lines for the human reader (what the numbers do not say).
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Counts an op; a failed one keeps its reason.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why);
            }
        }
    }

    /// A check outside any op.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.problems.push(why);
        }
    }

    /// The metrics this run must print: end-to-end untraced, per-layer
    /// traced.
    fn table(traced: bool) -> &'static [MetricDef] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Every metric by name, with unit and sample count.
    pub fn human(&self, workload: &str, traced: bool) -> String {
        let mut out = format!(
            "== {workload} ({}) ==\n",
            if traced { "traced run, per-layer metrics" } else { "end-to-end metrics" }
        );
        for m in Self::table(traced) {
            let _ = writeln!(
                out,
                "{:<42} {:>18} {:<8} n={}{}",
                m.name,
                number(self.values.get(m.name)),
                m.unit,
                self.values.samples(m.name),
                if m.exact { "  *" } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        for problem in &self.problems {
            let _ = writeln!(out, "FAILED CHECK: {problem}");
        }
        out
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = Self::table(traced)
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(self.values.get(m.name)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A value with all its digits, as JSON (which has no NaN or infinity).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One line of a result file: a run's result line under its workload
/// and trace flag.
pub fn file_line(workload: &str, traced: bool, result_line: &str) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"trace\": {}, \"result\": {result_line}}}",
        u8::from(traced)
    )
}

/// A run read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRun {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

fn after<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
    text.find(marker).map(|at| &text[at + marker.len()..])
}

fn leading_number(text: &str) -> Option<f64> {
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(text.len());
    text[..end].parse().ok()
}

/// Reads one [`file_line`]. The reader knows only the shape this file's
/// writer produces (`datasync_serve::json` refuses fractions, and a
/// general parser is not this benchmark's business).
pub fn parse_file_line(line: &str) -> Option<ParsedRun> {
    let workload = after(line, "{\"workload\": \"")?;
    let workload = &workload[..workload.find('"')?];
    let traced = leading_number(after(line, "\"trace\": ")?)? != 0.0;
    let correct = after(line, "\"correct\": ")?.starts_with("true");
    let attempted = leading_number(after(line, "\"attempted\": ")?)? as u64;
    let failed = leading_number(after(line, "\"failed\": ")?)? as u64;
    let mut rest = after(line, "\"metrics\": {")?;
    let mut metrics = Vec::new();
    while let Some(open) = rest.find('"') {
        let name = &rest[open + 1..];
        let name_end = name.find('"')?;
        let value = leading_number(after(&name[name_end..], "{\"value\": ")?)?;
        metrics.push((name[..name_end].to_string(), value));
        rest = after(&name[name_end..], "}")?;
    }
    Some(ParsedRun { workload: workload.to_string(), traced, correct, attempted, failed, metrics })
}

/// Reads every run of a result file.
pub fn parse_file(text: &str) -> Vec<ParsedRun> {
    text.lines().filter_map(parse_file_line).collect()
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative: `b` is better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = if def.higher_is_better { a - b } else { b - a };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            f64::INFINITY * delta.signum()
        }
    } else {
        delta / a.abs()
    }
}

/// Compares result file `b` against `a`: per workload and end-to-end
/// metric both values, the relative difference and the bound; exact
/// equality for every simulated or counted metric; failures in `b`.
/// Returns the table and whether `b` is within every bound.
pub fn compare(a: &[ParsedRun], b: &[ParsedRun]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let find = |runs: &[ParsedRun]| {
                runs.iter().find(|r| r.workload == workload && r.traced == traced).cloned()
            };
            let (Some(ra), Some(rb)) = (find(a), find(b)) else {
                let _ = writeln!(out, "{workload} trace={}: missing from a file", u8::from(traced));
                ok = false;
                continue;
            };
            if !rb.correct || rb.failed > 0 || !ra.correct || ra.failed > 0 {
                let _ = writeln!(
                    out,
                    "{workload} trace={}: failed ops a={} b={}, correct a={} b={}  OUTSIDE",
                    u8::from(traced),
                    ra.failed,
                    rb.failed,
                    ra.correct,
                    rb.correct
                );
                ok = false;
            }
            if !traced {
                let _ = writeln!(
                    out,
                    "{workload:<12} {:<22} {:>16} {:>16} {:>9} {:>7}",
                    "metric", "a", "b", "worse by", "bound"
                );
            }
            for (name, va) in &ra.metrics {
                let Some(def) = lookup(name) else { continue };
                let Some((_, vb)) = rb.metrics.iter().find(|(n, _)| n == name) else {
                    let _ = writeln!(out, "{workload} {name}: missing from b  OUTSIDE");
                    ok = false;
                    continue;
                };
                let worse = worsening(def, *va, *vb);
                let outside = if def.exact { va != vb } else { !traced && worse > def.bound };
                if !traced {
                    let _ = writeln!(
                        out,
                        "{:<12} {name:<22} {va:>16.4} {vb:>16.4} {:>8.2}% {:>7}{}",
                        "",
                        worse * 100.0,
                        if def.exact {
                            "exact".to_string()
                        } else {
                            format!("{:.0}%", def.bound * 100.0)
                        },
                        if outside { "  OUTSIDE" } else { "" }
                    );
                } else if outside {
                    let _ =
                        writeln!(out, "{workload} {name}: {va} != {vb} (an exact count)  OUTSIDE");
                }
                ok &= !outside;
            }
        }
    }
    let _ = writeln!(out, "{}", if ok { "within every bound" } else { "OUTSIDE a bound" });
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(traced: bool) -> RunReport {
        let mut r = RunReport::default();
        r.op(Ok(()));
        for (i, m) in RunReport::table(traced).iter().enumerate() {
            r.values.set(m.name, 1.5 + i as f64, 3);
        }
        r
    }

    #[test]
    fn a_result_line_reads_back_as_written() {
        for traced in [false, true] {
            let r = sample(traced);
            let line = file_line("sim_grid", traced, &r.json_line(traced));
            let parsed = parse_file_line(&line).expect("line parses");
            assert_eq!(parsed.workload, "sim_grid");
            assert_eq!(parsed.traced, traced);
            assert!(parsed.correct);
            assert_eq!((parsed.attempted, parsed.failed), (1, 0));
            assert_eq!(parsed.metrics.len(), RunReport::table(traced).len());
            assert_eq!(parsed.metrics[0].1, 1.5);
            assert_eq!(parsed.metrics[1], (RunReport::table(traced)[1].name.to_string(), 2.5));
        }
    }

    #[test]
    fn a_failed_op_or_check_makes_the_run_incorrect() {
        let mut r = sample(false);
        assert!(r.correct());
        r.check(Err("digest drifted".into()));
        assert!(!r.correct());
        assert!(r.json_line(false).starts_with("{\"correct\": false"));
        let mut r = sample(false);
        r.op(Err("status quarantined".into()));
        assert!(!r.correct() && r.failed == 1 && r.attempted == 2);
        assert!(!RunReport::default().correct(), "no ops attempted is not a pass");
    }

    fn file(cells_per_s: f64, makespan: f64) -> Vec<ParsedRun> {
        let mut runs = Vec::new();
        for w in WORKLOADS {
            for traced in [false, true] {
                let mut r = sample(traced);
                if !traced {
                    r.values.set("cells_per_s", cells_per_s, 1);
                    r.values.set("sim_makespan_cycles", makespan, 1);
                }
                runs.push(parse_file_line(&file_line(w, traced, &r.json_line(traced))).unwrap());
            }
        }
        runs
    }

    #[test]
    fn compare_applies_bounds_and_exactness() {
        let base = file(1000.0, 5000.0);
        assert!(compare(&base, &base).1);
        assert!(compare(&base, &file(950.0, 5000.0)).1, "5% slower is inside a 10% bound");
        assert!(compare(&base, &file(2000.0, 5000.0)).1, "better is never outside");
        let (table, ok) = compare(&base, &file(800.0, 5000.0));
        assert!(!ok && table.contains("OUTSIDE"), "20% slower is outside");
        assert!(!compare(&base, &file(1000.0, 5001.0)).1, "simulated cycles must repeat exactly");
        assert!(!compare(&base, &base[..3]).1, "a missing run is outside");
    }
}
