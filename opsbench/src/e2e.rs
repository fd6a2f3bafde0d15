//! The untraced run: set-up (several times, median reported), one
//! untimed warm-up iteration carrying the once-per-run reference check,
//! then timed iterations for `--seconds`, each on a fresh fabric built
//! outside the timed call and each followed by the settle step and the
//! output checks. End-to-end metrics always come from here.

use crate::host;
use crate::summary::Quartiles;
use crate::workloads::{
    build_fabric, check_against_sim, check_outcome, run_once, settle, setup, Workload,
};
use serde_json::{json, Value};
use std::time::Instant;

/// Set-up repetitions per run (the median is `setup_s`).
const SETUP_REPS: usize = 5;
/// Timed iterations a run makes even when `--seconds` is already spent.
const MIN_ITERATIONS: usize = 3;

/// What a run hands to the printer.
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted across the timed iterations.
    pub attempted: u64,
    /// Operations that failed (all of them when a check failed).
    pub failed: u64,
    /// `(name, value)` per metric, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra fields for the detail line (samples, counts, violations).
    pub detail: Value,
}

/// Run `workload` untraced for about `seconds` of timed iterations.
/// `scale` shrinks the logical durations (1.0 outside the smoke tests).
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: f64) -> RunResult {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous copy first so peak RSS holds one set of inputs.
        drop(prepared.take());
        let start = Instant::now();
        let inputs = setup(workload, seed, scale);
        let fabric = build_fabric(&inputs);
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some((inputs, fabric));
    }
    let (inputs, mut fabric) = prepared.expect("SETUP_REPS > 0");

    let mut violations = Vec::new();
    let mut reference = run_once(&inputs, &mut fabric);
    violations.extend(check_outcome(&inputs, &reference));
    violations.extend(check_against_sim(&inputs, &reference));
    violations.extend(settle(&inputs, &fabric).2);
    reference.trace = Vec::new();
    drop(fabric);

    let mut rates = Vec::new();
    let mut settle_us = Vec::new();
    let (mut cpu_s, mut resolved, mut attempted, mut failed) = (0.0, 0u64, 0u64, 0u64);
    let loop_start = Instant::now();
    while rates.len() < MIN_ITERATIONS || loop_start.elapsed().as_secs_f64() < seconds {
        let mut fabric = build_fabric(&inputs);
        let outcome = run_once(&inputs, &mut fabric);
        rates.push(outcome.resolved() as f64 / outcome.wall_s);
        cpu_s += outcome.cpu_s;
        resolved += outcome.resolved();
        attempted += outcome.arrivals;
        failed += outcome.failed();
        let (settle_s, entries, broken) = settle(&inputs, &fabric);
        settle_us.push(settle_s * 1e6 / entries.max(1) as f64);
        violations.extend(broken);
        violations.extend(check_outcome(&inputs, &outcome));
        if outcome.report != reference.report || outcome.clients != reference.clients {
            violations.push(format!(
                "iteration {}: report differs from the first run of the same inputs",
                rates.len()
            ));
        }
    }

    let correct = violations.is_empty();
    if !correct {
        failed = attempted;
    }
    let rate = Quartiles::of(&rates);
    let settle_q = Quartiles::of(&settle_us);
    let setup_q = Quartiles::of(&setup_s);
    let fleet = &reference.report.fleet;
    RunResult {
        correct,
        attempted,
        failed,
        metrics: vec![
            ("req_per_s", rate.median),
            ("cpu_us_per_req", cpu_s * 1e6 / resolved.max(1) as f64),
            ("settle_us_per_req", settle_q.median),
            ("peak_rss_mb", host::peak_rss_mib()),
            ("sim_mean_ms", reference.sim_mean_ms()),
            ("goodput_frac", reference.goodput_frac()),
            ("setup_s", setup_q.median),
        ],
        detail: json!({
            "samples": {
                "req_per_s": rate.to_json(),
                "settle_us_per_req": settle_q.to_json(),
                "setup_s": setup_q.to_json(),
            },
            "per_iteration": {
                "arrivals": reference.arrivals,
                "offered": reference.offered,
                "served": fleet.served,
                "shed": fleet.shed_total,
                "refunds": reference.report.refunds,
                "retries_scheduled": reference.retry.scheduled,
                "mean_batch": fleet.mean_batch,
                "cache_hit_rate": fleet.cache_hit_rate,
                "control_records": reference.report.control.len(),
                "fleet_p50_ms": fleet.p50_ms,
                "fleet_p99_ms": fleet.p99_ms,
                "fleet_p999_ms": fleet.p999_ms,
            },
            "violations": violations,
        }),
    }
}
