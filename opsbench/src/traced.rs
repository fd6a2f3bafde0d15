//! The traced run (`--trace 1`): per-layer numbers for one workload.
//!
//! Fixed work, never time-adaptive: one normal run of the workload (exact
//! counts from its report), the staged drive with spans on and off, the
//! engine's own `ServeSim::run` on the same stream, the stand-alone layer
//! probes, and — where the workload has them — the paired live/closed/
//! plane comparisons. A layer that is not on this workload's path reads
//! 0. End-to-end metrics never come from here.

use crate::e2e::RunResult;
use crate::host;
use crate::inputs::{family_name, family_records};
use crate::layers;
use crate::metrics::PER_LAYER;
use crate::staged::{drive, single_plane, single_plane_config, span_capacity};
use crate::summary::Quartiles;
use crate::trace::{self_times, write_json, Stage, Tracer};
use crate::workloads::{
    build_fabric, check_outcome, run_once, settle, setup, Inputs, Outcome, Workload,
};
use serde_json::json;
use std::collections::BTreeMap;
use std::time::Instant;
use tinymlops_serve::{Request, ServeSim, ShedReason};

/// `ServeSim::run` repetitions behind `engine.e2e_ns` (median).
const ENGINE_RUNS: usize = 3;
/// Pairs behind the live-vs-sim and closed-vs-open comparisons.
const DRIVER_PAIRS: usize = 3;

/// Per-layer metric values keyed by table name; every name starts at 0.
struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    fn new() -> Self {
        LayerMetrics(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not in the table"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    fn in_table_order(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|m| (m.name, self.0[m.name])).collect()
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Where the span file goes: beside the executable, so it lands in the
/// build directory the checkout already ignores.
fn span_path(workload: Workload) -> std::path::PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    dir.join(format!("opsbench-spans-{}.json", workload.name()))
}

/// Wall nanoseconds per request of one `ServeFabric::run` of `stream` on
/// a fresh fabric (build untimed).
fn sim_ns_per_req(inputs: &Inputs, stream: &[Request]) -> f64 {
    let mut fabric = build_fabric(inputs);
    let start = Instant::now();
    std::hint::black_box(fabric.run(stream).expect("families installed"));
    start.elapsed().as_nanos() as f64 / stream.len().max(1) as f64
}

/// `replay_live` only: the ingest handoff alone, and paired live-vs-sim
/// iterations on identical 1-node fabrics, alternating which runs first.
fn live_layer(inputs: &Inputs, scale: f64, m: &mut LayerMetrics) {
    m.set("exec.handoff_ns", layers::handoff_ns(scale));
    let (mut live_ns, mut sim_ns) = (Vec::new(), Vec::new());
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    for pair in 0..DRIVER_PAIRS {
        let mut run_live = || {
            let outcome = run_once(inputs, &mut build_fabric(inputs));
            cpu_s += outcome.cpu_s;
            wall_s += outcome.wall_s;
            live_ns.push(outcome.wall_s * 1e9 / outcome.resolved().max(1) as f64);
        };
        if pair % 2 == 0 {
            run_live();
            sim_ns.push(sim_ns_per_req(inputs, &inputs.stream));
        } else {
            sim_ns.push(sim_ns_per_req(inputs, &inputs.stream));
            run_live();
        }
    }
    m.set(
        "exec.live_over_sim",
        ratio(median(&live_ns), median(&sim_ns)),
    );
    m.set("exec.cpu_over_wall", ratio(cpu_s, wall_s));
}

/// `closed_overload` only: the closed-loop driver against an open-loop
/// replay of its own trace on identical fabrics, paired.
fn closed_layer(inputs: &Inputs, reference: &Outcome, m: &mut LayerMetrics) {
    let deliveries = reference.trace.len().max(1) as f64;
    let diffs: Vec<f64> = (0..DRIVER_PAIRS)
        .map(|pair| {
            let closed = || run_once(inputs, &mut build_fabric(inputs)).wall_s * 1e9 / deliveries;
            if pair % 2 == 0 {
                let c = closed();
                c - sim_ns_per_req(inputs, &reference.trace)
            } else {
                let open = sim_ns_per_req(inputs, &reference.trace);
                closed() - open
            }
        })
        .collect();
    m.set("closedloop.driver_ns", median(&diffs));
    if let Some(clients) = &reference.clients {
        m.set("closedloop.retry_amp", clients.retry_amplification());
        m.set(
            "closedloop.client_p99_ms",
            clients.latency_us(99.0) as f64 / 1e3,
        );
    }
}

/// Run `workload` traced. `scale` shrinks the logical durations (1.0
/// outside the smoke tests).
pub fn run(workload: Workload, seed: u64, scale: f64) -> RunResult {
    let inputs = setup(workload, seed, scale);
    let mut m = LayerMetrics::new();
    let mut violations = Vec::new();

    // One normal run of the workload: exact counts, telemetry, the chain.
    let build_ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(build_fabric(&inputs));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let mut fabric = build_fabric(&inputs);
    let reference = run_once(&inputs, &mut fabric);
    violations.extend(check_outcome(&inputs, &reference));
    let (_, chain_entries, broken) = settle(&inputs, &fabric);
    violations.extend(broken);
    drop(fabric);
    let report = &reference.report;
    let arrivals = reference.arrivals.max(1) as f64;

    // The stream the staged drive walks: the workload's own, or — closed
    // loop — the deliveries its clients actually made.
    let stream: &[Request] = if inputs.clients.is_some() {
        &reference.trace
    } else {
        &inputs.stream
    };
    let n = stream.len().max(1) as f64;
    let cfg = &single_plane_config(&inputs);

    // Engine end to end: ServeSim::run on one plane, median of a few.
    let mut engine_ns = Vec::with_capacity(ENGINE_RUNS);
    let mut engine_report = None;
    for _ in 0..ENGINE_RUNS {
        let (mut plane, _) = single_plane(&inputs);
        let start = Instant::now();
        let sim_report = ServeSim::new(cfg.clone(), None)
            .run(&mut plane, stream)
            .expect("families installed");
        engine_ns.push(start.elapsed().as_nanos() as f64 / n);
        engine_report = Some(sim_report);
    }
    let engine_report = engine_report.expect("ENGINE_RUNS > 0");
    let e2e_ns = median(&engine_ns);

    // The staged drive: spans off, then on.
    let (mut plane, execs) = single_plane(&inputs);
    let untraced = drive(cfg, &mut plane, &execs, stream, &mut Tracer::disabled());
    let (mut plane, execs) = single_plane(&inputs);
    let mut tracer = Tracer::with_capacity(span_capacity(stream.len()));
    let traced = drive(cfg, &mut plane, &execs, stream, &mut tracer);
    let cost = Tracer::calibrate(((100_000.0 * scale) as usize).max(100));
    let totals = self_times(tracer.spans(), cost);
    let stage = |s: Stage| totals[s as usize];

    // The drive must have done the engine's work, or its budget is about
    // something else.
    let within_1pct = |a: u64, b: u64| a.abs_diff(b) as f64 <= 0.01 * a.max(b) as f64;
    let trace_valid = within_1pct(traced.report.served, engine_report.served)
        && within_1pct(traced.report.batches, engine_report.batches)
        && within_1pct(traced.report.shed_total, engine_report.shed_total);
    if !trace_valid {
        violations.push(format!(
            "staged drive diverged from ServeSim::run: served {} vs {}, batches {} vs {}, shed {} vs {}",
            traced.report.served,
            engine_report.served,
            traced.report.batches,
            engine_report.batches,
            traced.report.shed_total,
            engine_report.shed_total
        ));
    }

    let admits = stage(Stage::GatewayAdmit);
    let sheds = stage(Stage::GatewayShed);
    let refunds = stage(Stage::GatewayRefund);
    let meter = layers::meter_costs(admits.calls, refunds.calls.max(report.refunds));
    m.set("crypto.hmac_ns", layers::hmac_ns(scale));
    m.set("meter.consume_ns", meter.consume_ns);
    m.set("meter.refund_ns", meter.refund_ns);
    m.set("meter.verify_ns_per_entry", meter.verify_ns_per_entry);
    m.set(
        "meter.chain_bytes_per_req",
        chain_entries as f64 * layers::chain_entry_bytes() as f64 / arrivals,
    );
    m.set("gateway.admit_ns", admits.mean_ns());
    // Derived: the admit span minus a bare consume on a standalone chain.
    m.set(
        "gateway.admit_self_ns",
        (admits.mean_ns() - meter.consume_ns).max(0.0),
    );
    m.set("gateway.shed_ns", sheds.mean_ns());
    m.set("gateway.resolve_ns", stage(Stage::GatewayResolve).mean_ns());
    m.set("gateway.admit_calls", admits.calls as f64);
    m.set("gateway.shed_calls", sheds.calls as f64);
    m.set("batcher.push_ns", stage(Stage::BatcherPush).mean_ns());
    m.set("batcher.flush_ns", stage(Stage::BatcherFlush).mean_ns());
    m.set("batcher.mean_batch", traced.report.mean_batch);
    let flushes = traced.counts.size_flushes + traced.counts.deadline_flushes;
    m.set(
        "batcher.deadline_flush_frac",
        ratio(traced.counts.deadline_flushes as f64, flushes as f64),
    );
    m.set("router.route_ns", stage(Stage::RouterRoute).mean_ns());
    let (mut probe_plane, _) = single_plane(&inputs);
    let records: Vec<_> = (0..inputs.families).map(family_records).collect();
    m.set(
        "router.refresh_ns",
        layers::ns_per_call(3, inputs.families, |i| {
            probe_plane
                .router
                .refresh_family(&family_name(i), &records[i]);
        }),
    );
    m.set(
        "router.no_route_frac",
        ratio(traced.counts.no_route_batches as f64, flushes as f64),
    );
    m.set("cache.lookup_ns", stage(Stage::CacheLookup).mean_ns());
    m.set("cache.hit_frac", traced.report.cache_hit_rate);
    m.set("cache.evictions", plane.cache.evictions() as f64);
    m.set("shard.assign_ns", layers::shard_assign_ns(stream));
    m.set("stats.record_ns", stage(Stage::StatsRecord).mean_ns());
    m.set(
        "stats.report_ns",
        ratio(traced.counts.report_ns as f64, traced.report.served as f64),
    );
    m.set("hist.record_ns", layers::hist_record_ns(scale));
    m.set("telemetry.incr_ns", layers::telemetry_incr_ns(scale));
    let sink_ops: u64 = report.telemetry.counters.values().sum::<u64>()
        + report
            .telemetry
            .timers
            .values()
            .map(|t| t.count)
            .sum::<u64>()
        + report
            .telemetry
            .hists
            .values()
            .map(|h| h.count())
            .sum::<u64>();
    m.set("telemetry.incr_per_req", sink_ops as f64 / arrivals);

    let stage_sum_ns: f64 = Stage::ALL
        .iter()
        .filter(|s| **s != Stage::Empty)
        .map(|s| stage(*s).self_ns)
        .sum::<f64>()
        / n;
    m.set("engine.e2e_ns", e2e_ns);
    m.set("engine.residual_ns", e2e_ns - stage_sum_ns);
    m.set("engine.coverage_frac", ratio(stage_sum_ns, e2e_ns));
    m.set("fabric.build_ms", median(&build_ms));
    m.set("fabric.p50_ms", report.fleet.p50_ms);
    m.set("fabric.p99_ms", report.fleet.p99_ms);
    m.set("loadgen.generate_ns", inputs.generate_ns);

    match workload {
        Workload::ReplayLive => live_layer(&inputs, scale, &mut m),
        Workload::ClosedOverload => closed_layer(&inputs, &reference, &mut m),
        // The planes are measured where the prediction names them: a tax
        // on `managed_surge`, nothing on `replay_sim`.
        Workload::ReplaySim | Workload::ManagedSurge => {
            let planes = layers::plane_costs(seed, scale);
            m.set("plane.observe_ns_per_req", planes.observe_ns);
            m.set("plane.fault_ns_per_req", planes.fault_ns);
            m.set("plane.controller_ns_per_req", planes.controller_ns);
        }
        Workload::InferServing => {}
    }

    let controller = &inputs.cfg.controller;
    if controller.enabled {
        // Derived: ticks fire at k·interval up to the last arrival.
        let last_us = stream.last().map_or(0, |r| r.arrival_us);
        m.set(
            "controller.ticks",
            (last_us / controller.interval_us.max(1)) as f64,
        );
    }
    m.set("controller.actions", report.control.len() as f64);
    m.set("fault.retries_scheduled", reference.retry.scheduled as f64);
    m.set(
        "fault.retry_success_frac",
        ratio(
            reference.retry.succeeded as f64,
            reference.retry.scheduled as f64,
        ),
    );
    m.set(
        "fault.failover_refunds",
        report.fleet.shed_by(ShedReason::Failover) as f64,
    );
    m.set("observer.alarms", report.alarms.len() as f64);

    if let Some(execs) = &inputs.execs {
        let batch = traced.report.mean_batch.round() as usize;
        let kernels = layers::kernel_costs(execs, batch, scale);
        m.set("nn.forward_ns_per_row", kernels.f32_ns_per_row);
        m.set("quant.int8_fused_ns_per_row", kernels.int8_ns_per_row);
        m.set("quant.int2_fused_ns_per_row", kernels.int2_ns_per_row);
        m.set("quant.quantize_ms", inputs.quantize_ms);
        m.set("tensor.gemm_gflops", kernels.gemm_gflops);
        m.set("tensor.gemm_b1_gflops", kernels.gemm_b1_gflops);
    }
    m.set(
        "serve.predict_share",
        ratio(stage(Stage::Predict).self_ns / n, e2e_ns),
    );
    let dispatched: u64 = traced.counts.variant_batches.iter().sum();
    for (name, batches) in ["infer.f32_share", "infer.int8_share", "infer.int2_share"]
        .into_iter()
        .zip(traced.counts.variant_batches)
    {
        m.set(name, ratio(batches as f64, dispatched as f64));
    }
    m.set("pool.threads", rayon::pool::effective_threads() as f64);
    m.set("trace.span_cost_ns", cost.total_ns);
    m.set(
        "trace.overhead_frac",
        ratio(
            traced.wall_ns as f64 - untraced.wall_ns as f64,
            untraced.wall_ns as f64,
        ),
    );

    let path = span_path(workload);
    if let Err(e) = write_json(&path, workload.name(), seed, cost, tracer.spans()) {
        violations.push(format!("span file {}: {e}", path.display()));
    }

    let correct = violations.is_empty();
    RunResult {
        correct,
        attempted: reference.arrivals,
        failed: if correct {
            reference.failed()
        } else {
            reference.arrivals
        },
        metrics: m.in_table_order(),
        detail: json!({
            "span_file": path.display().to_string(),
            "spans_recorded": tracer.spans().len(),
            "trace_valid": trace_valid,
            "staged_report_identical": traced.report == engine_report,
            "staged_requests": stream.len(),
            "predicted_rows": traced.counts.predicted_rows,
            "stage_self_ns_per_req": Stage::ALL
                .iter()
                .filter(|s| **s != Stage::Empty)
                .map(|s| (s.name().to_string(), stage(*s).self_ns / n))
                .collect::<BTreeMap<String, f64>>(),
            "peak_rss_mb": host::peak_rss_mib(),
            "violations": violations,
        }),
    }
}
