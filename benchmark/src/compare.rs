//! Comparing two sets of runs: `perf_ledger compare A.jsonl B.jsonl`, and
//! the stricter self-check `perf_ledger aa` applies to two sets of the
//! same code.

use std::fmt::Write as _;

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::quartiles;
use crate::sut::Json;

/// One run's end-to-end values, as read back from a result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    /// `(metric name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

impl RunRecord {
    fn value(&self, metric: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == metric).map(|v| v.1)
    }
}

/// Parses a file of result lines (one JSON object per line, as the
/// benchmark prints them, plus `workload` and `seed`). Traced runs and
/// blank lines are skipped.
pub fn parse_records(text: &str) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("line {}: no {k}", i + 1));
        let metrics = field("metrics")?
            .as_object()
            .ok_or_else(|| format!("line {}: metrics is not an object", i + 1))?;
        let values: Vec<(String, f64)> = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        if !values.iter().any(|(n, _)| n == END_TO_END[0].name) {
            continue;
        }
        out.push(RunRecord {
            workload: field("workload")?.as_str().unwrap_or_default().to_owned(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            correct: field("correct")? == &Json::Bool(true),
            values,
        });
    }
    Ok(out)
}

/// How set B stands against set A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread of either side exceeds the bound, so a
    /// difference of the bound's size could not be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub runs: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let (q1, median, q3) = quartiles(values);
        Side {
            runs: values.len(),
            q1,
            median,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// By how much of A's median B is worse (positive) or better (negative).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict rule of `choosing-metrics` section 6.5.
pub fn verdict(metric: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    if a.spread().max(b.spread()) > metric.bound {
        return Verdict::Unresolved;
    }
    let w = worsening(metric, a.median, b.median);
    if w > metric.bound {
        Verdict::Worse
    } else if w < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values_of(records: &[RunRecord], workload: &str, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.value(metric))
        .collect()
}

/// The comparison table: one row per workload × end-to-end metric.
/// Returns the text and whether any row is `worse`.
pub fn compare(a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<14} {:<27} {:>38} {:>38} {:>10} {:>6}  verdict",
        "workload", "metric", "A median (q1..q3) n", "B median (q1..q3) n", "B/A", "bound"
    );
    for w in &WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values_of(a, w.name, metric.name),
                values_of(b, w.name, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb) = (Side::of(&va), Side::of(&vb));
            let v = verdict(metric, &sa, &sb);
            any_worse |= v == Verdict::Worse;
            let show =
                |s: &Side| format!("{:.6} ({:.6}..{:.6}) n={}", s.median, s.q1, s.q3, s.runs);
            let _ = writeln!(
                out,
                "{:<14} {:<27} {:>38} {:>38} {:>10} {:>5.1}%  {}",
                w.name,
                format!("{} [{}]", metric.name, metric.unit),
                show(&sa),
                show(&sb),
                format!("{:.4}xA", sb.median / sa.median),
                metric.bound * 100.0,
                v.as_str()
            );
        }
    }
    let bad = |rs: &[RunRecord]| rs.iter().filter(|r| !r.correct).count();
    let _ = writeln!(out, "incorrect runs: A {} B {}", bad(a), bad(b));
    (out, any_worse || bad(b) > 0)
}

/// The A/A rule: two sets of runs of the same code must agree. Returns
/// one line per violation; an empty list is a pass.
///
/// - the set medians of a metric differ by more than its bound;
/// - a single run sits further than the bound from its set's median;
/// - an exact metric differs between the two runs of one seed.
pub fn aa_violations(a: &[RunRecord], b: &[RunRecord]) -> Vec<String> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for metric in &END_TO_END {
            let (va, vb) = (
                values_of(a, w.name, metric.name),
                values_of(b, w.name, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (Side::of(&va).median, Side::of(&vb).median);
            let gap = worsening(metric, ma, mb).abs();
            if gap > metric.bound {
                out.push(format!(
                    "{} {}: set medians {ma} and {mb} differ by {:.2}% (bound {:.1}%)",
                    w.name,
                    metric.name,
                    gap * 100.0,
                    metric.bound * 100.0
                ));
            }
            for (set, values, med) in [("A", &va, ma), ("B", &vb, mb)] {
                for v in values.iter() {
                    let off = worsening(metric, med, *v).abs();
                    if off > metric.bound {
                        out.push(format!(
                            "{} {}: run {v} of set {set} is {:.2}% from its median {med} (bound {:.1}%)",
                            w.name,
                            metric.name,
                            off * 100.0,
                            metric.bound * 100.0
                        ));
                    }
                }
            }
            if metric.exact {
                for ra in a.iter().filter(|r| r.workload == w.name) {
                    for rb in b
                        .iter()
                        .filter(|r| r.workload == w.name && r.seed == ra.seed)
                    {
                        if ra.value(metric.name) != rb.value(metric.name) {
                            out.push(format!(
                                "{} {}: seed {} gave {:?} then {:?}; a counted value must repeat exactly",
                                w.name,
                                metric.name,
                                ra.seed,
                                ra.value(metric.name),
                                rb.value(metric.name)
                            ));
                        }
                    }
                }
            }
        }
    }
    for r in a.iter().chain(b).filter(|r| !r.correct) {
        out.push(format!("{} seed {}: correct is false", r.workload, r.seed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side::of(values)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let metric = |better| EndToEnd {
            name: "m",
            unit: "us",
            better,
            bound: 0.10,
            exact: false,
        };
        let (lat, tps) = (metric(Better::Lower), metric(Better::Higher));
        let a = side(&[100.0, 101.0, 99.0, 100.0, 100.0]);
        let up5 = side(&[105.0, 104.0, 106.0, 105.0, 105.0]);
        let up15 = side(&[115.0, 114.0, 116.0, 115.0, 115.0]);
        let down15 = side(&[85.0, 84.0, 86.0, 85.0, 85.0]);
        assert_eq!(verdict(&lat, &a, &up5), Verdict::Same);
        assert_eq!(verdict(&lat, &a, &up15), Verdict::Worse);
        assert_eq!(verdict(&lat, &a, &down15), Verdict::Better);
        assert_eq!(verdict(&tps, &a, &down15), Verdict::Worse);
        assert_eq!(verdict(&tps, &a, &up15), Verdict::Better);
        // A side whose quartiles are further apart than the bound cannot
        // resolve a bound-sized difference, whatever the medians say.
        let noisy = side(&[80.0, 90.0, 100.0, 110.0, 120.0]);
        assert_eq!(verdict(&lat, &a, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&lat, &noisy, &a), Verdict::Unresolved);
    }

    fn record(workload: &str, seed: u64, p50: f64, vt: f64) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            seed,
            correct: true,
            values: vec![("txn_p50_us".into(), p50), ("vt_us_per_txn".into(), vt)],
        }
    }

    #[test]
    fn aa_flags_median_gaps_outliers_and_inexact_counts() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "txn_p50_us")
            .unwrap()
            .bound;
        let a: Vec<_> = (0..5)
            .map(|i| record("dc_tcp", i, 100.0 + i as f64, 7.5))
            .collect();
        let b = a.clone();
        assert!(aa_violations(&a, &b).is_empty());

        let mut shifted = a.clone();
        for r in &mut shifted {
            r.values[0].1 *= 1.0 + 2.0 * bound;
        }
        assert!(aa_violations(&a, &shifted)
            .iter()
            .any(|v| v.contains("set medians")));

        let mut outlier = a.clone();
        outlier[4].values[0].1 = 102.0 * (1.0 + 1.5 * bound);
        let v = aa_violations(&a, &outlier);
        assert!(v.iter().any(|v| v.contains("of set B")), "{v:?}");
        assert!(!v.iter().any(|v| v.contains("set medians")), "{v:?}");

        let mut drift = a.clone();
        drift[2].values[1].1 = 7.500001;
        assert!(aa_violations(&a, &drift)
            .iter()
            .any(|v| v.contains("must repeat exactly")));

        let mut wrong = a.clone();
        wrong[0].correct = false;
        assert!(aa_violations(&a, &wrong)
            .iter()
            .any(|v| v.contains("correct is false")));
    }

    #[test]
    fn result_lines_round_trip() {
        let text = "\n{\"workload\":\"dc_sci\",\"seed\":3,\"trace\":0,\"correct\":true,\"attempted\":10,\"failed\":0,\
                    \"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\"txn_per_s\":{\"value\":1234.5,\"unit\":\"1/s\"}}}\n\
                    {\"workload\":\"dc_sci\",\"seed\":3,\"trace\":1,\"correct\":true,\"attempted\":10,\"failed\":0,\
                    \"metrics\":{\"core.commit_self_us_p50\":{\"value\":1.5,\"unit\":\"us\"}}}\n";
        let records = parse_records(text).unwrap();
        assert_eq!(
            records.len(),
            1,
            "the traced run carries no end-to-end metric"
        );
        assert_eq!(records[0].workload, "dc_sci");
        assert_eq!(records[0].seed, 3);
        assert_eq!(records[0].value("txn_per_s"), Some(1234.5));
        assert_eq!(Side::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).spread(), 1.0);
        assert!(parse_records("{not json}").is_err());
        let (table, worse) = compare(&records, &records);
        assert!(table.contains("dc_sci") && table.contains("same"));
        assert!(!worse);
    }
}
