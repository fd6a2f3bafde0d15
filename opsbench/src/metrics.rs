//! The metric tables: every name the binary prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` carries
//! the same tables for the driver; a test keeps the two identical.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the serving fabric sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric (traced run only; no bound).
#[derive(Debug, Clone, Copy)]
// The direction is `BENCHMARK.json` data; only the consistency test reads it.
#[cfg_attr(not(test), allow(dead_code))]
pub struct PerLayer {
    /// Metric name, prefixed with the layer (module) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: [EndToEnd; 7] = [
    e2e("req_per_s", "1/s", Better::Higher, 0.10),
    e2e("cpu_us_per_req", "us", Better::Lower, 0.10),
    e2e("settle_us_per_req", "us", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("sim_mean_ms", "ms", Better::Lower, 0.22),
    e2e("goodput_frac", "ratio", Better::Higher, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics every workload prints with `--trace 1`. A layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: [PerLayer; 62] = [
    layer("crypto.hmac_ns", "ns", Better::Lower),
    layer("meter.consume_ns", "ns", Better::Lower),
    layer("meter.refund_ns", "ns", Better::Lower),
    layer("meter.verify_ns_per_entry", "ns", Better::Lower),
    layer("meter.chain_bytes_per_req", "B", Better::Lower),
    layer("gateway.admit_ns", "ns", Better::Lower),
    layer("gateway.admit_self_ns", "ns", Better::Lower),
    layer("gateway.shed_ns", "ns", Better::Lower),
    layer("gateway.resolve_ns", "ns", Better::Lower),
    layer("gateway.admit_calls", "count", Better::Higher),
    layer("gateway.shed_calls", "count", Better::Lower),
    layer("batcher.push_ns", "ns", Better::Lower),
    layer("batcher.flush_ns", "ns", Better::Lower),
    layer("batcher.mean_batch", "count", Better::Higher),
    layer("batcher.deadline_flush_frac", "ratio", Better::Lower),
    layer("router.route_ns", "ns", Better::Lower),
    layer("router.refresh_ns", "ns", Better::Lower),
    layer("router.no_route_frac", "ratio", Better::Lower),
    layer("cache.lookup_ns", "ns", Better::Lower),
    layer("cache.hit_frac", "ratio", Better::Higher),
    layer("cache.evictions", "count", Better::Lower),
    layer("shard.assign_ns", "ns", Better::Lower),
    layer("stats.record_ns", "ns", Better::Lower),
    layer("stats.report_ns", "ns", Better::Lower),
    layer("hist.record_ns", "ns", Better::Lower),
    layer("telemetry.incr_ns", "ns", Better::Lower),
    layer("telemetry.incr_per_req", "count", Better::Lower),
    layer("engine.e2e_ns", "ns", Better::Lower),
    layer("engine.residual_ns", "ns", Better::Lower),
    layer("engine.coverage_frac", "ratio", Better::Higher),
    layer("fabric.build_ms", "ms", Better::Lower),
    layer("fabric.p50_ms", "ms", Better::Lower),
    layer("fabric.p99_ms", "ms", Better::Lower),
    layer("loadgen.generate_ns", "ns", Better::Lower),
    layer("exec.handoff_ns", "ns", Better::Lower),
    layer("exec.live_over_sim", "ratio", Better::Lower),
    layer("exec.cpu_over_wall", "ratio", Better::Lower),
    layer("closedloop.driver_ns", "ns", Better::Lower),
    layer("closedloop.retry_amp", "ratio", Better::Lower),
    layer("closedloop.client_p99_ms", "ms", Better::Lower),
    layer("plane.observe_ns_per_req", "ns", Better::Lower),
    layer("plane.fault_ns_per_req", "ns", Better::Lower),
    layer("plane.controller_ns_per_req", "ns", Better::Lower),
    layer("controller.ticks", "count", Better::Lower),
    layer("controller.actions", "count", Better::Lower),
    layer("fault.retries_scheduled", "count", Better::Lower),
    layer("fault.retry_success_frac", "ratio", Better::Higher),
    layer("fault.failover_refunds", "count", Better::Lower),
    layer("observer.alarms", "count", Better::Lower),
    layer("nn.forward_ns_per_row", "ns", Better::Lower),
    layer("quant.int8_fused_ns_per_row", "ns", Better::Lower),
    layer("quant.int2_fused_ns_per_row", "ns", Better::Lower),
    layer("quant.quantize_ms", "ms", Better::Lower),
    layer("tensor.gemm_gflops", "GFLOP/s", Better::Higher),
    layer("tensor.gemm_b1_gflops", "GFLOP/s", Better::Higher),
    layer("serve.predict_share", "ratio", Better::Lower),
    layer("infer.f32_share", "ratio", Better::Lower),
    layer("infer.int8_share", "ratio", Better::Higher),
    layer("infer.int2_share", "ratio", Better::Higher),
    layer("pool.threads", "count", Better::Higher),
    layer("trace.span_cost_ns", "ns", Better::Lower),
    layer("trace.overhead_frac", "ratio", Better::Lower),
];

/// Unit of a metric in either table; panics on a name no table lists (a
/// metric printed without a contract is a bug in this program).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric `{name}` is in no table"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn str_of<'a>(entry: &'a Value, key: &str) -> &'a str {
        entry[key]
            .as_str()
            .unwrap_or_else(|| panic!("`{key}` is a string"))
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads_and_metrics_the_binary_emits() {
        let bench = benchmark_json();
        let workloads: Vec<&str> = bench["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let e2e = bench["end_to_end"].as_array().expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(entry, "name"), ours.name);
            assert_eq!(str_of(entry, "unit"), ours.unit);
            assert_eq!(str_of(entry, "better"), ours.better.word());
            assert_eq!(entry["bound"].as_f64(), Some(ours.bound), "{}", ours.name);
            assert!(ours.bound > 0.0 && ours.bound <= 0.25, "{}", ours.name);
        }
        let per_layer = bench["per_layer"].as_array().expect("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, ours) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(entry, "name"), ours.name);
            assert_eq!(str_of(entry, "unit"), ours.unit);
            assert_eq!(str_of(entry, "better"), ours.better.word());
        }
    }

    #[test]
    fn names_are_well_formed_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(unit_of("crypto.hmac_ns"), "ns");
    }
}
