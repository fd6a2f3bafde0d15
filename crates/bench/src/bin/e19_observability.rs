//! E19 — the observability plane: tracing, histograms, windows, alarms.
//!
//! PR 6 threads a telemetry plane through every serving node: a bounded
//! flight-recorder of request lifecycle spans, log-bucketed latency
//! histograms that merge exactly across the fleet, per-node windowed
//! time series, and live drift/anomaly detectors. The defining property
//! is that all of it is *passive*: with observability enabled the
//! serving decisions — and therefore the replay-mode reports — do not
//! change by a single bit. Sections: (a) **parity & zero perturbation**
//! — the same ≥100k-request plan with observability off, on, and on
//! through the threaded live backend; the three fleet reports must be
//! equal and the live report bit-identical to the simulator's,
//! flight-recorder contents included; (b) **histogram fidelity** — the
//! mergeable fleet histogram's p50/p95/p99/p99.9 against the exact
//! sorted-sample percentiles, each within one bucket width; (c)
//! **windows & alarms** — a migrating run with an induced per-tenant
//! latency regime, checking the windowed series conserve every request
//! and the drift bank names the right tenant; (d) **flight recorder** —
//! a live migrating run dumped as Chrome trace-event JSON
//! (`results/e19_trace.json`, loadable at <https://ui.perfetto.dev>),
//! with both handoff spans of the migration present.
//!
//! `--quick` shrinks the replay to CI-smoke size (the JSON artifacts are
//! still written with the same schema).

use tinymlops_bench::{fmt, print_table, save_json, serve_live, serve_sharded, time_ms};
use tinymlops_core::{Platform, PlatformConfig};
use tinymlops_nn::data::synth_digits;
use tinymlops_nn::model::mlp;
use tinymlops_nn::train::{fit, FitConfig};
use tinymlops_nn::Adam;
use tinymlops_observe::{chrome_trace_json, SpanKind};
use tinymlops_registry::SemVer;
use tinymlops_serve::{
    ExecConfig, FabricConfig, LoadPlan, MigrationSpec, ObserveConfig, TenantSpec,
};
use tinymlops_tensor::TensorRng;

const SEED: u64 = 19;
const FAMILIES: usize = 3;

fn published_platform(fleet_size: usize) -> Platform {
    let platform = Platform::new(&PlatformConfig {
        fleet_size,
        seed: SEED,
        signer_height: 4,
    });
    let data = synth_digits(900, 0.08, SEED);
    let (train, test) = data.split(0.85, 0);
    let mut rng = TensorRng::seed(SEED);
    let mut model = mlp(&[64, 24, 10], &mut rng);
    let mut opt = Adam::new(0.005);
    fit(
        &mut model,
        &train,
        &mut opt,
        &FitConfig {
            epochs: 8,
            batch_size: 32,
            ..Default::default()
        },
    );
    for f in 0..FAMILIES {
        platform
            .publish(
                &format!("family{f}"),
                &model,
                SemVer::new(1, 0, 0),
                &train,
                &test,
            )
            .expect("publish");
    }
    platform
}

fn plan(total_rps: f64, duration_us: u64, tenants: u32, deadline_us: u64) -> LoadPlan {
    LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: total_rps / f64::from(tenants),
                model: format!("family{}", i as usize % FAMILIES),
                prepaid_queries: u64::MAX / 2,
                deadline_us,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "E19: observability plane (flight recorder, fleet histograms, windows, alarms){}",
        if quick { " [quick]" } else { "" }
    );

    let fleet_size = if quick { 30 } else { 90 };
    let nodes = 3usize;
    let (rps, duration_us) = if quick {
        (3_000.0, 1_000_000)
    } else {
        (20_000.0, 6_000_000)
    };
    let cfg_off = FabricConfig {
        node_weights: vec![1.0; nodes],
        ..Default::default()
    };
    let cfg_on = FabricConfig {
        node_weights: vec![1.0; nodes],
        observe: ObserveConfig::enabled(),
        ..Default::default()
    };
    let p = plan(rps, duration_us, 18, 250_000);
    let stream_len = p.generate().len();
    if !quick {
        assert!(
            stream_len >= 100_000,
            "observed replay must exceed 100k requests, got {stream_len}"
        );
    }

    // E19a: zero perturbation + live parity. Observability off vs on
    // must not change a single serving outcome (the observer only reads
    // timestamps the engine already computed), and the threaded backend
    // with tracing enabled must stay bit-identical to the simulator —
    // windows, alarms and flight-recorder contents included.
    let mut off_platform = published_platform(fleet_size);
    let (off_report, off_wall_ms) = time_ms(|| serve_sharded(&mut off_platform, &p, &cfg_off, &[]));
    let mut on_platform = published_platform(fleet_size);
    let (on_report, on_wall_ms) = time_ms(|| serve_sharded(&mut on_platform, &p, &cfg_on, &[]));
    assert_eq!(
        on_report.fleet, off_report.fleet,
        "observability must not perturb serving outcomes"
    );
    assert_eq!(on_report.per_node, off_report.per_node);
    assert!(off_report.windows.is_empty() && off_report.traces.is_empty());
    assert!(!on_report.windows.is_empty(), "windows recorded when on");
    assert!(!on_report.traces.is_empty(), "traces recorded when on");

    let mut live_platform = published_platform(fleet_size);
    let live = serve_live(&mut live_platform, &p, &cfg_on, &[], &ExecConfig::default());
    let identical = live.fabric == on_report;
    assert!(
        identical,
        "threaded replay with tracing must be bit-identical to the simulator"
    );
    let traced_events: usize = on_report.traces.iter().map(|(_, e)| e.len()).sum();
    let headers_a = [
        "backend",
        "observe",
        "served",
        "shed",
        "trace events",
        "windows",
        "wall ms",
        "identical",
    ];
    let window_count: usize = on_report.windows.iter().map(|(_, w)| w.len()).sum();
    let rows_a = vec![
        vec![
            "sim replay".into(),
            "off".into(),
            off_report.fleet.served.to_string(),
            off_report.fleet.shed_total.to_string(),
            "0".into(),
            "0".into(),
            fmt(off_wall_ms, 0),
            "baseline".into(),
        ],
        vec![
            "sim replay".into(),
            "on".into(),
            on_report.fleet.served.to_string(),
            on_report.fleet.shed_total.to_string(),
            traced_events.to_string(),
            window_count.to_string(),
            fmt(on_wall_ms, 0),
            "yes".into(),
        ],
        vec![
            format!("live ({} threads)", nodes + 1),
            "on".into(),
            live.fabric.fleet.served.to_string(),
            live.fabric.fleet.shed_total.to_string(),
            live.fabric
                .traces
                .iter()
                .map(|(_, e)| e.len())
                .sum::<usize>()
                .to_string(),
            live.fabric
                .windows
                .iter()
                .map(|(_, w)| w.len())
                .sum::<usize>()
                .to_string(),
            fmt(live.wall_ms, 0),
            if identical { "yes" } else { "NO" }.into(),
        ],
    ];
    print_table(
        &format!("E19a zero perturbation + live parity ({stream_len} requests, {nodes} nodes)"),
        &headers_a,
        &rows_a,
    );
    save_json("e19_observe_parity", &headers_a, &rows_a);

    // E19b: histogram fidelity. The fleet histogram is a bucket-wise
    // merge of per-node log-bucketed accumulators; each quantile must
    // land within one bucket width of the exact union-of-samples answer
    // the fleet report already computes.
    let hist = &on_report.latency_hist;
    assert_eq!(hist.count(), on_report.fleet.served, "one sample per serve");
    let headers_b = [
        "quantile",
        "exact us",
        "hist us (bucket floor)",
        "bucket width us",
        "|err| us",
        "within",
    ];
    let mut rows_b = Vec::new();
    for (label, pct, exact_ms) in [
        ("p50", 50.0, on_report.fleet.p50_ms),
        ("p95", 95.0, on_report.fleet.p95_ms),
        ("p99", 99.0, on_report.fleet.p99_ms),
        ("p99.9", 99.9, on_report.fleet.p999_ms),
    ] {
        let exact_us = exact_ms * 1_000.0;
        let est = hist.quantile(pct);
        let width = hist.quantile_width(pct);
        let err = (exact_us - est as f64).abs();
        let within = err <= width as f64;
        assert!(
            within,
            "{label}: hist {est} vs exact {exact_us:.0} exceeds bucket width {width}"
        );
        rows_b.push(vec![
            label.into(),
            fmt(exact_us, 0),
            est.to_string(),
            width.to_string(),
            fmt(err, 1),
            "yes".into(),
        ]);
    }
    print_table(
        &format!(
            "E19b fleet histogram vs exact percentiles ({} samples)",
            hist.count()
        ),
        &headers_b,
        &rows_b,
    );
    save_json("e19_observe_hist", &headers_b, &rows_b);

    // E19c: windows conserve, detectors localize. A migrating run keeps
    // the windowed series honest under drain/handoff: every arrival in
    // the stream appears in exactly one window of exactly one node. The
    // default 4096-event ring wraps over this replay (the handoff spans
    // at mid-stream would be overwritten), so the migrating sections
    // size the flight recorder to hold the whole run.
    let cfg_trace = FabricConfig {
        node_weights: vec![1.0; nodes],
        observe: ObserveConfig {
            trace_capacity: 1 << 16,
            ..ObserveConfig::enabled()
        },
        ..Default::default()
    };
    let mig_plan = plan(
        if quick { 2_000.0 } else { 6_000.0 },
        if quick { 600_000 } else { 2_000_000 },
        6,
        250_000,
    );
    let mig_stream_len = mig_plan.generate().len();
    let specs = [MigrationSpec {
        tenant: 1,
        to: 2,
        trigger_us: if quick { 300_000 } else { 1_000_000 },
    }];
    let mut mig_platform = published_platform(if quick { 18 } else { 45 });
    let mig_report = serve_sharded(&mut mig_platform, &mig_plan, &cfg_trace, &specs);
    assert_eq!(mig_report.migrations.len(), 1);
    let win_arrivals: u64 = mig_report
        .windows
        .iter()
        .flat_map(|(_, w)| w.iter())
        .map(|w| w.arrivals)
        .sum();
    let win_served: u64 = mig_report
        .windows
        .iter()
        .flat_map(|(_, w)| w.iter())
        .map(|w| w.served)
        .sum();
    let win_shed: u64 = mig_report
        .windows
        .iter()
        .flat_map(|(_, w)| w.iter())
        .map(|w| w.shed)
        .sum();
    assert_eq!(
        win_arrivals, mig_stream_len as u64,
        "every arrival lands in exactly one window"
    );
    assert_eq!(win_served, mig_report.fleet.served);
    assert_eq!(win_shed, mig_report.fleet.shed_total);
    let headers_c = [
        "node",
        "windows",
        "arrivals",
        "served",
        "shed",
        "max queue depth",
        "peak p99 us",
        "alarms",
    ];
    let rows_c: Vec<Vec<String>> = mig_report
        .windows
        .iter()
        .map(|(node, w)| {
            vec![
                node.to_string(),
                w.len().to_string(),
                w.iter().map(|s| s.arrivals).sum::<u64>().to_string(),
                w.iter().map(|s| s.served).sum::<u64>().to_string(),
                w.iter().map(|s| s.shed).sum::<u64>().to_string(),
                w.iter()
                    .map(|s| s.queue_depth_max)
                    .max()
                    .unwrap_or(0)
                    .to_string(),
                w.iter().map(|s| s.p99_us).max().unwrap_or(0).to_string(),
                mig_report
                    .alarms
                    .iter()
                    .filter(|(n, _)| n == node)
                    .count()
                    .to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("E19c windowed series under migration ({mig_stream_len} requests)"),
        &headers_c,
        &rows_c,
    );
    save_json("e19_observe_windows", &headers_c, &rows_c);

    // E19d: flight recorder → Chrome trace JSON. The live migrating run
    // exercises the handoff spans; the dump must parse and carry both
    // sides of the migration (drain at the source, adopt at the
    // destination).
    let mut live_mig_platform = published_platform(if quick { 18 } else { 45 });
    let live_mig = serve_live(
        &mut live_mig_platform,
        &mig_plan,
        &cfg_trace,
        &specs,
        &ExecConfig::default(),
    );
    assert_eq!(live_mig.fabric.migrations, mig_report.migrations);
    assert_eq!(live_mig.fabric, mig_report, "migrating parity with tracing");
    let all_events: Vec<_> = live_mig
        .fabric
        .traces
        .iter()
        .flat_map(|(_, e)| e.iter().cloned())
        .collect();
    let handoffs = all_events
        .iter()
        .filter(|e| e.kind == SpanKind::Handoff)
        .count();
    assert!(
        handoffs >= 2,
        "both handoff sides must be recorded, got {handoffs}"
    );
    let json = chrome_trace_json(&all_events);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let n_json_events = parsed.as_array().map_or(0, std::vec::Vec::len);
    assert_eq!(n_json_events, all_events.len());
    let _ = std::fs::create_dir_all("results");
    std::fs::write("results/e19_trace.json", &json).expect("write trace");
    println!("[saved results/e19_trace.json — load at https://ui.perfetto.dev]");
    let kind_count = |k: SpanKind| all_events.iter().filter(|e| e.kind == k).count();
    let headers_d = ["span kind", "events"];
    let rows_d: Vec<Vec<String>> = [
        SpanKind::Admit,
        SpanKind::Enqueue,
        SpanKind::Batch,
        SpanKind::Dispatch,
        SpanKind::Complete,
        SpanKind::Shed,
        SpanKind::CacheEvict,
        SpanKind::Handoff,
    ]
    .into_iter()
    .map(|k| vec![k.name().to_string(), kind_count(k).to_string()])
    .collect();
    print_table(
        &format!("E19d flight-recorder dump ({} events)", all_events.len()),
        &headers_d,
        &rows_d,
    );
    save_json("e19_observe_trace", &headers_d, &rows_d);

    println!(
        "\nE19 complete: {stream_len} requests traced with zero perturbation, \
         fleet quantiles within one bucket, {handoffs} handoff spans recorded."
    );
}
