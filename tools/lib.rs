//! Bench-regression gating logic, shared by the `bench_gate` binary and
//! its tests.
//!
//! Each `BENCH_<name>.json` carries its own gate specification:
//!
//! ```json
//! {
//!   "bench": "group_commit",
//!   "metrics": { "grouped_commit_us": 123.0, "speedup": 3.3 },
//!   "gate": {
//!     "grouped_commit_us": { "better": "lower", "tolerance_pct": 15 }
//!   }
//! }
//! ```
//!
//! The gate is read from the **baseline** file, so a PR cannot loosen a
//! gate by editing the freshly produced `BENCH_*.json` — only a reviewed
//! change to `results/baselines/` can. Metrics without a gate entry are
//! reported but never fail the build (wall-clock numbers are too noisy
//! to gate tightly; deterministic virtual-time and message counts are
//! the contract).

use perseas_obs::Json;

/// Outcome of comparing one gated metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Metric name inside the bench file.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Direction in which larger is better (`false` = lower is better).
    pub higher_is_better: bool,
    /// Allowed regression, in percent of the baseline.
    pub tolerance_pct: f64,
    /// `true` if the current value regressed beyond tolerance.
    pub regressed: bool,
}

impl Check {
    /// Percentage change relative to the baseline, signed so that
    /// positive always means "worse".
    pub fn regression_pct(&self) -> f64 {
        if self.baseline == 0.0 {
            return if self.current == self.baseline {
                0.0
            } else {
                f64::INFINITY
            };
        }
        let delta_pct = (self.current - self.baseline) / self.baseline * 100.0;
        if self.higher_is_better {
            -delta_pct
        } else {
            delta_pct
        }
    }
}

/// Compares a current bench file against its baseline, evaluating every
/// metric named in the baseline's `gate` object.
///
/// # Errors
///
/// Returns a message if either document is missing required fields or a
/// gated metric is absent from the current run.
pub fn compare(baseline: &Json, current: &Json) -> Result<Vec<Check>, String> {
    let bench = baseline
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("baseline missing \"bench\"")?;
    let base_metrics = baseline
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("baseline missing \"metrics\"")?;
    let cur_metrics = current
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("current file missing \"metrics\"")?;
    let gates = baseline
        .get("gate")
        .and_then(Json::as_object)
        .ok_or("baseline missing \"gate\"")?;
    let lookup = |metrics: &[(String, Json)], name: &str| -> Option<f64> {
        metrics
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
    };
    let mut checks = Vec::new();
    for (metric, spec) in gates {
        // A gate may name a metric *class* instead of spelling the
        // direction out: "duration" means lower-is-better with a 20%
        // default tolerance (virtual-time durations are deterministic,
        // but a replay-length change legitimately moves them a little).
        // Explicit "better"/"tolerance_pct" keys override the class.
        let (class_better, class_tol) = match spec.get("class").and_then(Json::as_str) {
            None => (None, None),
            Some("duration") => (Some(false), Some(20.0)),
            Some(other) => {
                return Err(format!(
                    "{bench}/{metric}: unknown gate class {other:?} (known: \"duration\")"
                ))
            }
        };
        let higher_is_better = match spec.get("better").and_then(Json::as_str) {
            Some("higher") => true,
            Some("lower") => false,
            Some(other) => {
                return Err(format!(
                    "{bench}/{metric}: \"better\" must be \"higher\" or \"lower\", got {other:?}"
                ))
            }
            None => {
                class_better.ok_or_else(|| format!("{bench}/{metric}: gate missing \"better\""))?
            }
        };
        let tolerance_pct = spec
            .get("tolerance_pct")
            .and_then(Json::as_f64)
            .or(class_tol)
            .ok_or_else(|| format!("{bench}/{metric}: gate missing \"tolerance_pct\""))?;
        let base = lookup(base_metrics, metric)
            .ok_or_else(|| format!("{bench}/{metric}: gated metric absent from baseline"))?;
        let cur = lookup(cur_metrics, metric)
            .ok_or_else(|| format!("{bench}/{metric}: gated metric absent from current run"))?;
        let limit = if higher_is_better {
            base * (1.0 - tolerance_pct / 100.0)
        } else {
            base * (1.0 + tolerance_pct / 100.0)
        };
        let regressed = if higher_is_better {
            cur < limit
        } else {
            cur > limit
        };
        checks.push(Check {
            metric: metric.clone(),
            baseline: base,
            current: cur,
            higher_is_better,
            tolerance_pct,
            regressed,
        });
    }
    Ok(checks)
}

/// Renders one comparison row for the report table.
pub fn render_check(bench: &str, check: &Check) -> String {
    format!(
        "{:<7} {:<40} {:>14.3} {:>14.3} {:>+9.1}% (tol {:>4.1}%, {} better)",
        if check.regressed { "FAIL" } else { "ok" },
        format!("{bench}/{}", check.metric),
        check.baseline,
        check.current,
        check.regression_pct(),
        check.tolerance_pct,
        if check.higher_is_better {
            "higher"
        } else {
            "lower"
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_file(virtual_us: f64, speedup: f64) -> Json {
        Json::object(vec![
            ("bench", Json::str("group_commit")),
            (
                "metrics",
                Json::object(vec![
                    ("grouped_commit_us", Json::Num(virtual_us)),
                    ("speedup", Json::Num(speedup)),
                ]),
            ),
            (
                "gate",
                Json::object(vec![
                    (
                        "grouped_commit_us",
                        Json::object(vec![
                            ("better", Json::str("lower")),
                            ("tolerance_pct", Json::Num(15.0)),
                        ]),
                    ),
                    (
                        "speedup",
                        Json::object(vec![
                            ("better", Json::str("higher")),
                            ("tolerance_pct", Json::Num(25.0)),
                        ]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn identical_runs_pass() {
        let base = bench_file(100.0, 3.3);
        let checks = compare(&base, &base).unwrap();
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(|c| !c.regressed));
    }

    #[test]
    fn artificial_2x_virtual_time_regression_fails() {
        // The acceptance criterion: doubling the deterministic
        // virtual-time metric must trip the gate.
        let base = bench_file(100.0, 3.3);
        let bad = bench_file(200.0, 3.3);
        let checks = compare(&base, &bad).unwrap();
        let vt = checks
            .iter()
            .find(|c| c.metric == "grouped_commit_us")
            .unwrap();
        assert!(vt.regressed, "2x virtual time must regress: {vt:?}");
        assert!((vt.regression_pct() - 100.0).abs() < 1e-9);
        let speedup = checks.iter().find(|c| c.metric == "speedup").unwrap();
        assert!(!speedup.regressed);
    }

    #[test]
    fn within_tolerance_change_passes() {
        let base = bench_file(100.0, 3.3);
        let ok = bench_file(114.0, 2.6); // +14% time, speedup -21%: inside 15%/25%
        let checks = compare(&base, &ok).unwrap();
        assert!(checks.iter().all(|c| !c.regressed), "{checks:?}");
    }

    #[test]
    fn improvement_never_fails() {
        let base = bench_file(100.0, 3.3);
        let better = bench_file(40.0, 9.9);
        let checks = compare(&base, &better).unwrap();
        assert!(checks.iter().all(|c| !c.regressed));
        assert!(checks.iter().all(|c| c.regression_pct() < 0.0));
    }

    #[test]
    fn higher_is_better_gates_the_other_way() {
        let base = bench_file(100.0, 3.3);
        let slow = bench_file(100.0, 2.0); // speedup down 39% > 25% tolerance
        let checks = compare(&base, &slow).unwrap();
        let s = checks.iter().find(|c| c.metric == "speedup").unwrap();
        assert!(s.regressed);
    }

    #[test]
    fn missing_current_metric_is_an_error() {
        let base = bench_file(100.0, 3.3);
        let current = Json::object(vec![
            ("bench", Json::str("group_commit")),
            ("metrics", Json::object(vec![("speedup", Json::Num(3.3))])),
            ("gate", Json::object(vec![])),
        ]);
        let err = compare(&base, &current).unwrap_err();
        assert!(err.contains("absent from current run"), "{err}");
    }

    #[test]
    fn malformed_gate_is_an_error() {
        let base = Json::object(vec![
            ("bench", Json::str("x")),
            ("metrics", Json::object(vec![("m", Json::Num(1.0))])),
            (
                "gate",
                Json::object(vec![(
                    "m",
                    Json::object(vec![("better", Json::str("sideways"))]),
                )]),
            ),
        ]);
        assert!(compare(&base, &base).unwrap_err().contains("sideways"));
    }

    fn duration_file(replay_us: f64, tolerance: Option<f64>) -> Json {
        let mut gate_spec = vec![("class", Json::str("duration"))];
        if let Some(t) = tolerance {
            gate_spec.push(("tolerance_pct", Json::Num(t)));
        }
        Json::object(vec![
            ("bench", Json::str("redo_recovery")),
            (
                "metrics",
                Json::object(vec![("replay_virtual_us", Json::Num(replay_us))]),
            ),
            (
                "gate",
                Json::object(vec![("replay_virtual_us", Json::object(gate_spec))]),
            ),
        ])
    }

    #[test]
    fn duration_class_implies_lower_is_better_with_default_tolerance() {
        let base = duration_file(100.0, None);
        let checks = compare(&base, &base).unwrap();
        assert_eq!(checks.len(), 1);
        let c = &checks[0];
        assert!(!c.higher_is_better, "duration is lower-is-better");
        assert_eq!(c.tolerance_pct, 20.0, "default duration tolerance");
        assert!(!c.regressed);
    }

    #[test]
    fn doctored_2x_duration_regression_fails() {
        // The acceptance criterion for the class: a doctored 2x duration
        // must trip the gate, with and without an explicit tolerance.
        let base = duration_file(100.0, None);
        let bad = duration_file(200.0, None);
        let c = &compare(&base, &bad).unwrap()[0];
        assert!(c.regressed, "2x duration must regress: {c:?}");
        assert!((c.regression_pct() - 100.0).abs() < 1e-9);

        let base = duration_file(100.0, Some(50.0));
        let bad = duration_file(200.0, Some(50.0));
        let c = &compare(&base, &bad).unwrap()[0];
        assert_eq!(c.tolerance_pct, 50.0, "explicit tolerance overrides");
        assert!(c.regressed, "2x beats even a 50% tolerance");
    }

    #[test]
    fn duration_class_improvement_passes() {
        let base = duration_file(100.0, None);
        let fast = duration_file(40.0, None);
        let c = &compare(&base, &fast).unwrap()[0];
        assert!(!c.regressed);
        assert!(c.regression_pct() < 0.0);
    }

    #[test]
    fn unknown_gate_class_is_an_error() {
        let mut base = duration_file(100.0, None);
        if let Json::Object(fields) = &mut base {
            for (k, v) in fields.iter_mut() {
                if k == "gate" {
                    *v = Json::object(vec![(
                        "replay_virtual_us",
                        Json::object(vec![("class", Json::str("latency"))]),
                    )]);
                }
            }
        }
        let err = compare(&base, &base).unwrap_err();
        assert!(err.contains("unknown gate class"), "{err}");
    }

    #[test]
    fn ungated_metrics_are_ignored() {
        let base = bench_file(100.0, 3.3);
        // A current file with extra metrics passes untouched.
        let mut cur = bench_file(100.0, 3.3);
        if let Json::Object(fields) = &mut cur {
            for (k, v) in fields.iter_mut() {
                if k == "metrics" {
                    if let Json::Object(m) = v {
                        m.push(("wall_ms".to_string(), Json::Num(99999.0)));
                    }
                }
            }
        }
        let checks = compare(&base, &cur).unwrap();
        assert_eq!(checks.len(), 2);
    }
}
