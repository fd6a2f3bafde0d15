//! `opsbench compare <parent> <change>`: apply the end-to-end bounds to
//! two files of run output, one row per (workload, metric).
//!
//! Each file holds the stdout of any number of untraced runs (detail
//! lines are picked out, everything else is skipped). A row is a
//! `REGRESSION` when the change's median is worse than the parent's by
//! more than the metric's bound, `unresolved` when either side's quartile
//! spread is wider than the bound — unless every run of the change reads
//! better than every run of the parent — and `ok` otherwise. A run that
//! failed its output checks fails the comparison outright.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::summary::Quartiles;
use crate::workloads::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Untraced runs of one file: workload → metric → one value per run,
/// plus how many runs failed their checks.
#[derive(Debug, Default, PartialEq)]
pub struct Runs {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed_runs: usize,
}

/// Pick the untraced detail lines out of `text`.
pub fn parse_runs(text: &str) -> Runs {
    let mut runs = Runs::default();
    for line in text.lines() {
        let Ok(value) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let Some(object) = value.as_object() else {
            continue;
        };
        let is_detail = object.contains_key("opsbench");
        let traced = object.get("trace").and_then(Value::as_bool) == Some(true);
        let (Some(workload), Some(metrics)) = (
            object.get("workload").and_then(Value::as_str),
            object.get("metrics").and_then(Value::as_object),
        ) else {
            continue;
        };
        if !is_detail || traced {
            continue;
        }
        let correct = object.get("correct").and_then(Value::as_bool) == Some(true);
        let failed = object.get("failed").and_then(Value::as_u64).unwrap_or(1);
        if !correct || failed > 0 {
            runs.failed_runs += 1;
        }
        let per_metric = runs.values.entry(workload.to_string()).or_default();
        for (name, entry) in metrics.iter() {
            if let Some(v) = entry.as_object().and_then(|e| e.get("value")?.as_f64()) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    runs
}

/// Verdict of one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spread narrow enough to say so.
    Ok,
    /// Every run of the change beats every run of the parent.
    Better,
    /// Spread wider than the bound: the runs cannot tell.
    Unresolved,
    /// Worse than the parent by more than the bound.
    Regression,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Share of the parent's median by which the change's median is worse
/// (negative = better).
fn worsening(metric: &EndToEnd, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match metric.better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

/// Judge one metric given every run's value on both sides.
pub fn judge(metric: &EndToEnd, parent: &[f64], change: &[f64]) -> Verdict {
    let (p, c) = (Quartiles::of(parent), Quartiles::of(change));
    let all_better = parent
        .iter()
        .all(|&pv| change.iter().all(|&cv| worsening(metric, pv, cv) < 0.0));
    if p.spread().max(c.spread()) > metric.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening(metric, p.median, c.median) > metric.bound {
        Verdict::Regression
    } else if all_better {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// Compare two files of run output; exit 1 on any regression or failed
/// run, 2 when a file cannot be read or holds no runs.
pub fn run(parent_path: &str, change_path: &str) -> ExitCode {
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(parse_runs(&text)),
        Err(e) => {
            eprintln!("opsbench compare: {path}: {e}");
            None
        }
    };
    let (Some(parent), Some(change)) = (read(parent_path), read(change_path)) else {
        return ExitCode::from(2);
    };
    if parent.values.is_empty() || change.values.is_empty() {
        eprintln!("opsbench compare: no untraced opsbench detail lines found");
        return ExitCode::from(2);
    }
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7} {:>8} {:>3}/{:<3} verdict",
        "workload", "metric", "parent", "change", "worse%", "bound%", "spread%", "n", "n"
    );
    let mut bad = parent.failed_runs + change.failed_runs;
    for workload in Workload::ALL {
        let (Some(p), Some(c)) = (
            parent.values.get(workload.name()),
            change.values.get(workload.name()),
        ) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(pv), Some(cv)) = (p.get(metric.name), c.get(metric.name)) else {
                continue;
            };
            let verdict = judge(metric, pv, cv);
            if verdict == Verdict::Regression {
                bad += 1;
            }
            let (pq, cq) = (Quartiles::of(pv), Quartiles::of(cv));
            println!(
                "{:<16} {:<18} {:>14.5} {:>14.5} {:>8.2} {:>7.1} {:>8.2} {:>3}/{:<3} {}",
                workload.name(),
                metric.name,
                pq.median,
                cq.median,
                worsening(metric, pq.median, cq.median) * 100.0,
                metric.bound * 100.0,
                pq.spread().max(cq.spread()) * 100.0,
                pq.n,
                cq.n,
                verdict.word()
            );
        }
    }
    if parent.failed_runs + change.failed_runs > 0 {
        println!(
            "FAILED: {} parent and {} change runs failed their output checks",
            parent.failed_runs, change.failed_runs
        );
    }
    if bad > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: EndToEnd = END_TO_END[0];

    #[test]
    fn judges_against_the_bound_and_the_spread() {
        assert_eq!(RATE.name, "req_per_s");
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Inside the bound either way.
        assert_eq!(
            judge(&RATE, &parent, &[98.0, 99.0, 97.0, 98.5, 97.5]),
            Verdict::Ok
        );
        // Higher-is-better metric fell by more than the bound.
        let slow: Vec<f64> = parent
            .iter()
            .map(|v| v * (1.0 - RATE.bound - 0.05))
            .collect();
        assert_eq!(judge(&RATE, &parent, &slow), Verdict::Regression);
        // Every run faster than every parent run.
        assert_eq!(
            judge(&RATE, &parent, &[120.0, 121.0, 119.0]),
            Verdict::Better
        );
        // Spread wider than the bound: unresolved, not unchanged…
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&RATE, &parent, &noisy), Verdict::Unresolved);
        // …unless every run of the change still beats every parent run.
        let noisy_fast = [150.0, 200.0, 260.0, 170.0, 230.0];
        assert_eq!(judge(&RATE, &parent, &noisy_fast), Verdict::Better);
    }

    #[test]
    fn lower_is_better_metrics_worsen_upwards() {
        let cpu = END_TO_END
            .iter()
            .find(|m| m.name == "cpu_us_per_req")
            .unwrap();
        assert!(worsening(cpu, 2.0, 2.5) > 0.0);
        assert!(worsening(&RATE, 2.0, 2.5) < 0.0);
    }

    #[test]
    fn parses_untraced_detail_lines_only() {
        let text = concat!(
            "noise that is not json\n",
            r#"{"opsbench":1,"workload":"replay_sim","trace":false,"correct":true,"failed":0,"metrics":{"req_per_s":{"value":10.0,"unit":"1/s"}}}"#,
            "\n",
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"req_per_s":{"value":10.0,"unit":"1/s"}}}"#,
            "\n",
            r#"{"opsbench":1,"workload":"replay_sim","trace":true,"correct":true,"failed":0,"metrics":{"crypto.hmac_ns":{"value":1.0,"unit":"ns"}}}"#,
            "\n",
            r#"{"opsbench":1,"workload":"replay_sim","trace":false,"correct":false,"failed":5,"metrics":{"req_per_s":{"value":12.0,"unit":"1/s"}}}"#,
            "\n",
        );
        let runs = parse_runs(text);
        assert_eq!(runs.values["replay_sim"]["req_per_s"], vec![10.0, 12.0]);
        assert_eq!(runs.values["replay_sim"].len(), 1);
        assert_eq!(runs.failed_runs, 1);
    }
}
