//! B01-compare — the CI bench-regression gate over `results/BENCH_kernels.json`.
//!
//! `b01_kernels` appends one run per invocation; this helper diffs the
//! newest run against the most recent earlier run of the same mode (CI
//! runs `--quick`, perf PRs append `full` runs — cross-mode shapes don't
//! match, so modes compare within themselves; when no same-mode
//! predecessor exists it falls back to the immediately previous run).
//!
//! **Hard failures** (exit 1): schema drift — wrong `schema_version`,
//! missing/mistyped entry fields — and benchmark groups that existed in
//! the baseline run but vanished from the newest (a silently deleted
//! benchmark is how perf coverage rots). **Report-only**: per-id ns/op
//! and GFLOP/s deltas — shared CI runners are far too noisy to hard-gate
//! on throughput, so regressions are printed for a human, never fatal.
//! Paired, noise-cancelling throughput verdicts are opsbench's job.

use tinymlops_bench::{fmt, print_table};

const DEFAULT_PATH: &str = "results/BENCH_kernels.json";

/// Object-field lookup (the vendored `serde_json` shim keys `get` on
/// `Map`, not `Value`).
fn field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    v.as_object().and_then(|o| o.get(key))
}

/// Field-level schema check for one run entry; returns the violation.
fn validate_entry(entry: &serde_json::Value) -> Result<(), String> {
    let Some(obj) = entry.as_object() else {
        return Err("entry is not an object".into());
    };
    for key in ["id", "group", "shape"] {
        if obj.get(key).and_then(|v| v.as_str()).is_none() {
            return Err(format!("entry missing string field `{key}`"));
        }
    }
    if obj.get("reps").and_then(|v| v.as_u64()).is_none() {
        return Err(format!(
            "entry `{}` missing integer field `reps`",
            obj.get("id").and_then(|v| v.as_str()).unwrap_or("?")
        ));
    }
    if obj.get("ns_per_op").and_then(|v| v.as_f64()).is_none() {
        return Err(format!(
            "entry `{}` missing number field `ns_per_op`",
            obj.get("id").and_then(|v| v.as_str()).unwrap_or("?")
        ));
    }
    // Optional-but-typed fields: null or the right type.
    for (key, ok) in [
        (
            "gflops",
            obj.get("gflops")
                .is_none_or(|v| v.is_null() || v.as_f64().is_some()),
        ),
        (
            "baseline_id",
            obj.get("baseline_id")
                .is_none_or(|v| v.is_null() || v.as_str().is_some()),
        ),
    ] {
        if !ok {
            return Err(format!(
                "entry `{}` has mistyped field `{key}`",
                obj.get("id").and_then(|v| v.as_str()).unwrap_or("?")
            ));
        }
    }
    Ok(())
}

fn entries_of(run: &serde_json::Value) -> Vec<&serde_json::Value> {
    field(run, "entries")
        .and_then(|e| e.as_array())
        .map(|v| v.iter().collect())
        .unwrap_or_default()
}

fn groups_of(run: &serde_json::Value) -> std::collections::BTreeSet<String> {
    entries_of(run)
        .iter()
        .filter_map(|e| field(e, "group").and_then(|g| g.as_str()))
        .map(str::to_string)
        .collect()
}

fn mode_of(run: &serde_json::Value) -> &str {
    field(run, "mode").and_then(|m| m.as_str()).unwrap_or("?")
}

/// Index of the baseline run for `runs[newest]`: the latest earlier run
/// sharing the newest run's mode, else simply the previous run.
fn baseline_index(runs: &[serde_json::Value], newest: usize) -> Option<usize> {
    if newest == 0 {
        return None;
    }
    let mode = mode_of(&runs[newest]);
    (0..newest)
        .rev()
        .find(|i| mode_of(&runs[*i]) == mode)
        .or(Some(newest - 1))
}

/// `<mode> mode`, plus the commit / CPU / core-count stamp a run carries
/// (runs recorded before `b01_kernels` stamped them print `unstamped`).
fn describe(run: &serde_json::Value) -> String {
    let text = |key| field(run, key).and_then(|v| v.as_str());
    let stamp = match (
        text("commit"),
        text("cpu"),
        field(run, "nproc").and_then(|v| v.as_u64()),
    ) {
        (Some(commit), Some(cpu), Some(nproc)) => format!("{commit}, {cpu}, nproc {nproc}"),
        _ => "unstamped".into(),
    };
    format!("{} mode, {stamp}", mode_of(run))
}

fn run_gate(payload: &serde_json::Value) -> Result<Vec<String>, String> {
    let mut notes = Vec::new();
    if field(payload, "schema_version").and_then(|v| v.as_u64()) != Some(1) {
        return Err("schema drift: schema_version != 1".into());
    }
    let runs = field(payload, "runs")
        .and_then(|r| r.as_array())
        .ok_or("schema drift: no `runs` array")?;
    if runs.is_empty() {
        return Err("schema drift: empty `runs` array".into());
    }
    let newest_idx = runs.len() - 1;
    let newest = &runs[newest_idx];
    for entry in entries_of(newest) {
        validate_entry(entry).map_err(|e| format!("schema drift in newest run: {e}"))?;
    }
    if entries_of(newest).is_empty() {
        return Err("schema drift: newest run has no entries".into());
    }

    let Some(base_idx) = baseline_index(runs, newest_idx) else {
        notes.push("first recorded run: nothing to compare against, gate passes".into());
        return Ok(notes);
    };
    let baseline = &runs[base_idx];
    for entry in entries_of(baseline) {
        validate_entry(entry).map_err(|e| format!("schema drift in baseline run: {e}"))?;
    }
    notes.push(format!(
        "comparing run #{newest_idx} ({}) against run #{base_idx} ({})",
        describe(newest),
        describe(baseline),
    ));

    // Group-coverage gate: every baseline group must still exist. Hard
    // only within a mode — a cross-mode fallback baseline (e.g. the
    // first quick run after a history of full runs) may legitimately
    // cover different groups, so there it reports instead of failing.
    let missing: Vec<String> = groups_of(baseline)
        .difference(&groups_of(newest))
        .cloned()
        .collect();
    if !missing.is_empty() {
        if mode_of(newest) == mode_of(baseline) {
            return Err(format!(
                "benchmark group(s) vanished from the newest run: {}",
                missing.join(", ")
            ));
        }
        notes.push(format!(
            "group(s) absent vs cross-mode baseline (report-only): {}",
            missing.join(", ")
        ));
    }

    // Per-id deltas for ids present in both runs: report-only.
    let base_by_id: std::collections::BTreeMap<&str, &serde_json::Value> = entries_of(baseline)
        .into_iter()
        .filter_map(|e| field(e, "id").and_then(|i| i.as_str()).map(|id| (id, e)))
        .collect();
    let mut rows = Vec::new();
    let mut matched = 0usize;
    let mut fresh = 0usize;
    for entry in entries_of(newest) {
        let id = field(entry, "id").and_then(|i| i.as_str()).unwrap_or("?");
        let Some(base) = base_by_id.get(id) else {
            fresh += 1;
            continue;
        };
        matched += 1;
        let new_ns = field(entry, "ns_per_op")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let base_ns = field(base, "ns_per_op")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let delta_pct = if base_ns > 0.0 {
            (new_ns - base_ns) / base_ns * 100.0
        } else {
            0.0
        };
        let gflops = |v: &serde_json::Value| field(v, "gflops").and_then(|g| g.as_f64());
        rows.push(vec![
            id.to_string(),
            fmt(base_ns, 0),
            fmt(new_ns, 0),
            format!(
                "{}{}%",
                if delta_pct >= 0.0 { "+" } else { "" },
                fmt(delta_pct, 1)
            ),
            gflops(base).map_or("-".into(), |g| fmt(g, 2)),
            gflops(entry).map_or("-".into(), |g| fmt(g, 2)),
        ]);
    }
    if !rows.is_empty() {
        print_table(
            "b01_compare: per-id deltas (report-only; shared runners are noisy)",
            &[
                "id",
                "base ns/op",
                "new ns/op",
                "Δ ns/op",
                "base GF/s",
                "new GF/s",
            ],
            &rows,
        );
    }
    notes.push(format!(
        "{matched} id(s) matched, {fresh} new id(s), {} group(s) covered",
        groups_of(newest).len()
    ));
    Ok(notes)
}

fn main() {
    let mut path = DEFAULT_PATH.to_string();
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            eprintln!("b01_compare: unknown flag {arg}");
            std::process::exit(1);
        }
        path = arg;
    }
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("b01_compare: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let payload: serde_json::Value = match serde_json::from_slice(&bytes) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("b01_compare: {path} does not parse: {e:?}");
            std::process::exit(1);
        }
    };
    match run_gate(&payload) {
        Ok(notes) => {
            for note in notes {
                println!("b01_compare: {note}");
            }
            println!("b01_compare: PASS");
        }
        Err(why) => {
            eprintln!("b01_compare: FAIL — {why}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, group: &str, ns: f64) -> serde_json::Value {
        serde_json::json!({
            "id": id, "group": group, "shape": "s", "reps": 1u64,
            "ns_per_op": ns, "gflops": serde_json::Value::Null,
            "baseline_id": serde_json::Value::Null,
            "speedup_vs_baseline": serde_json::Value::Null,
        })
    }

    fn payload(runs: Vec<serde_json::Value>) -> serde_json::Value {
        serde_json::json!({ "bench": "b01_kernels", "schema_version": 1u64, "runs": runs })
    }

    fn run(mode: &str, entries: Vec<serde_json::Value>) -> serde_json::Value {
        serde_json::json!({ "mode": mode, "unix_time_s": 0u64, "entries": entries })
    }

    #[test]
    fn single_run_passes() {
        let p = payload(vec![run("full", vec![entry("a", "g", 10.0)])]);
        assert!(run_gate(&p).is_ok());
    }

    #[test]
    fn matching_runs_pass_and_deltas_are_report_only() {
        let p = payload(vec![
            run("full", vec![entry("a", "g", 10.0)]),
            // 10x slower: must still pass (report-only deltas).
            run("full", vec![entry("a", "g", 100.0)]),
        ]);
        assert!(run_gate(&p).is_ok());
    }

    #[test]
    fn vanished_group_fails() {
        let p = payload(vec![
            run("full", vec![entry("a", "g", 10.0), entry("b", "h", 5.0)]),
            run("full", vec![entry("a", "g", 10.0)]),
        ]);
        let err = run_gate(&p).unwrap_err();
        assert!(err.contains("vanished"), "{err}");
        assert!(err.contains('h'), "{err}");
    }

    #[test]
    fn cross_mode_group_gap_is_report_only() {
        // First quick run after a full-only history: the fallback
        // baseline is cross-mode, so a group gap must not fail the gate.
        let p = payload(vec![
            run("full", vec![entry("a", "g", 10.0), entry("b", "h", 5.0)]),
            run("quick", vec![entry("aq", "g", 1.0)]),
        ]);
        let notes = run_gate(&p).expect("cross-mode gap is not fatal");
        assert!(
            notes
                .iter()
                .any(|n| n.contains("cross-mode") && n.contains('h')),
            "{notes:?}"
        );
    }

    #[test]
    fn baseline_prefers_same_mode() {
        let runs = vec![
            run("quick", vec![entry("q", "g", 1.0)]),
            run("full", vec![entry("f", "g", 1.0)]),
            run("quick", vec![entry("q", "g", 2.0)]),
        ];
        assert_eq!(baseline_index(&runs, 2), Some(0), "skips the full run");
        assert_eq!(baseline_index(&runs, 1), Some(0), "falls back to previous");
        assert_eq!(baseline_index(&runs, 0), None);
    }

    #[test]
    fn schema_drift_fails() {
        let bad_version = serde_json::json!({ "schema_version": 2u64, "runs": [] });
        assert!(run_gate(&bad_version).is_err());
        let missing_field = payload(vec![run(
            "full",
            vec![serde_json::json!({ "id": "a", "group": "g", "shape": "s" })],
        )]);
        let err = run_gate(&missing_field).unwrap_err();
        assert!(err.contains("reps"), "{err}");
    }

    #[test]
    fn comparison_note_carries_each_runs_stamp() {
        let stamped = serde_json::json!({
            "mode": "full", "unix_time_s": 0u64, "commit": "abc1234",
            "cpu": "Test CPU @ 2.0GHz", "nproc": 2u64, "entries": [entry("a", "g", 10.0)],
        });
        let p = payload(vec![run("full", vec![entry("a", "g", 10.0)]), stamped]);
        let notes = run_gate(&p).expect("a stamp is not schema drift");
        let note = notes.iter().find(|n| n.starts_with("comparing")).unwrap();
        assert!(
            note.contains("#1 (full mode, abc1234, Test CPU @ 2.0GHz, nproc 2)"),
            "{note}"
        );
        assert!(note.contains("#0 (full mode, unstamped)"), "{note}");
    }
}
