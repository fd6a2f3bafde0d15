//! E17 — wall-clock concurrent serving: the threaded fabric backend.
//!
//! PR 3 scaled the serving plane out to a multi-node fabric, but every
//! node still replayed inside one OS thread on a virtual clock. This
//! experiment runs the same fabric on the live executor (`serve::exec`):
//! one OS thread per node behind bounded ingest queues, the calling
//! thread as the ingest feeder. Sections: (a) **parity** — a ≥100k-request
//! workload through the threaded backend produces counter totals
//! bit-identical to the simulator's replay of the same seed (the
//! `ExecMode::Replay` contract); (b) **throughput** — wall-clock time for
//! the single-threaded simulator vs the threaded pipeline on this host;
//! (c) **wall mode** — a paced `ExecMode::Wall` run with door-stamped
//! arrivals, checked against its conservation laws (arrivals = served +
//! shed, refunds = downstream sheds, quota neither burned nor minted).
//!
//! `--quick` shrinks the replay to CI-smoke size (the JSON artifacts are
//! still written with the same schema).

use tinymlops_bench::{fmt, print_table, save_json, serve_live, serve_sharded, time_ms};
use tinymlops_core::{Platform, PlatformConfig};
use tinymlops_nn::data::synth_digits;
use tinymlops_nn::model::mlp;
use tinymlops_nn::train::{fit, FitConfig};
use tinymlops_nn::Adam;
use tinymlops_registry::SemVer;
use tinymlops_serve::{
    ExecConfig, ExecMode, FabricConfig, FabricReport, LoadPlan, ShedReason, TenantSpec,
};
use tinymlops_tensor::TensorRng;

const SEED: u64 = 17;
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

fn plan(
    total_rps: f64,
    duration_us: u64,
    tenants: u32,
    prepaid: u64,
    deadline_us: u64,
) -> LoadPlan {
    LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: total_rps / f64::from(tenants),
                model: format!("family{}", i as usize % FAMILIES),
                prepaid_queries: prepaid,
                deadline_us,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    }
}

fn counter_row(backend: &str, report: &FabricReport, wall_ms: f64) -> Vec<String> {
    vec![
        backend.to_string(),
        report.fleet.served.to_string(),
        report.fleet.shed_total.to_string(),
        report
            .telemetry
            .counters
            .get("serve.admitted")
            .copied()
            .unwrap_or(0)
            .to_string(),
        report.refunds.to_string(),
        report.unrefunded_sheds().to_string(),
        fmt(report.fleet.p99_ms, 2),
        fmt(wall_ms, 0),
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "E17: wall-clock concurrent serving (threaded fabric nodes + ingest queues){}",
        if quick { " [quick]" } else { "" }
    );

    let fleet_size = if quick { 30 } else { 90 };
    let nodes = 3usize;
    let (rps, duration_us) = if quick {
        (3_000.0, 1_000_000)
    } else {
        (20_000.0, 6_000_000)
    };
    let cfg = FabricConfig {
        node_weights: vec![1.0; nodes],
        ..Default::default()
    };
    let p = plan(rps, duration_us, 18, u64::MAX / 2, 250_000);
    let stream_len = p.generate().len();
    if !quick {
        assert!(
            stream_len >= 100_000,
            "live replay must exceed 100k requests, got {stream_len}"
        );
    }

    // E17a: parity — identical plan through both backends, fresh
    // platforms, and the reports must be *equal*: counters, shed
    // breakdowns, refunds, percentiles, merged telemetry — everything.
    let mut sim_platform = published_platform(fleet_size);
    let (sim_report, sim_wall_ms) = time_ms(|| serve_sharded(&mut sim_platform, &p, &cfg, &[]));
    let mut live_platform = published_platform(fleet_size);
    let exec_cfg = ExecConfig::default();
    let live = serve_live(&mut live_platform, &p, &cfg, &[], &exec_cfg);
    let identical = live.fabric == sim_report;
    assert!(
        identical,
        "threaded replay must be bit-identical to the simulator"
    );
    assert_eq!(live.fabric.unrefunded_sheds(), 0, "every shed refunded");
    let headers_a = [
        "backend",
        "served",
        "shed",
        "admitted",
        "refunds",
        "unrefunded",
        "p99 ms",
        "wall ms",
    ];
    let rows_a = vec![
        counter_row("sim replay", &sim_report, sim_wall_ms),
        counter_row(
            &format!("live ({} threads)", nodes + 1),
            &live.fabric,
            live.wall_ms,
        ),
        vec![
            "identical".into(),
            if identical { "yes".into() } else { "NO".into() },
            "-".into(),
            "-".into(),
            "-".into(),
            live.fabric.unrefunded_sheds().to_string(),
            "-".into(),
            "-".into(),
        ],
    ];
    print_table(
        &format!("E17a sim vs live parity ({stream_len} requests, {nodes} nodes)"),
        &headers_a,
        &rows_a,
    );
    save_json("e17_live_parity", &headers_a, &rows_a);

    // E17b: throughput — requests through each backend per wall second.
    // On multi-core hosts the threaded pipeline overlaps node work; on a
    // 1-core host it measures the queue-handoff overhead honestly.
    let headers_b = ["backend", "requests", "wall ms", "req/s (wall)"];
    let rows_b = vec![
        vec![
            "sim replay".into(),
            stream_len.to_string(),
            fmt(sim_wall_ms, 0),
            fmt(stream_len as f64 / (sim_wall_ms / 1e3), 0),
        ],
        vec![
            "live replay".into(),
            stream_len.to_string(),
            fmt(live.wall_ms, 0),
            fmt(live.wall_throughput_rps(), 0),
        ],
    ];
    print_table("E17b wall-clock throughput", &headers_b, &rows_b);
    save_json("e17_live_throughput", &headers_b, &rows_b);

    // E17c: honest wall-clock mode — short paced plan, door-stamped
    // arrivals, timed flushes. Timing decides *which* requests shed, but
    // the conservation laws must hold exactly.
    let wall_plan = plan(
        if quick { 2_000.0 } else { 8_000.0 },
        if quick { 250_000 } else { 500_000 },
        6,
        1_000_000,
        50_000,
    );
    let wall_stream_len = wall_plan.generate().len();
    let mut wall_platform = published_platform(if quick { 12 } else { 30 });
    let wall_live = serve_live(
        &mut wall_platform,
        &wall_plan,
        &cfg,
        &[],
        &ExecConfig {
            mode: ExecMode::Wall,
            queue_capacity: 256,
        },
    );
    let fleet = &wall_live.fabric.fleet;
    assert_eq!(
        fleet.served + fleet.shed_total,
        wall_stream_len as u64,
        "wall mode: every arrival is served or shed"
    );
    assert!(
        wall_live.fabric.refunds_balance(),
        "wall mode: refunds ({}) must match downstream sheds ({})",
        wall_live.fabric.refunds,
        wall_live.fabric.downstream_sheds()
    );
    let headers_c = [
        "requests",
        "served",
        "shed",
        "deadline shed",
        "refunds",
        "unrefunded",
        "wall ms",
        "p99 ms (real)",
    ];
    let rows_c = vec![vec![
        wall_stream_len.to_string(),
        fleet.served.to_string(),
        fleet.shed_total.to_string(),
        fleet.shed_by(ShedReason::DeadlineExpired).to_string(),
        wall_live.fabric.refunds.to_string(),
        wall_live.fabric.unrefunded_sheds().to_string(),
        fmt(wall_live.wall_ms, 0),
        fmt(fleet.p99_ms, 2),
    ]];
    print_table(
        "E17c wall-clock mode (paced ingest, real deadlines)",
        &headers_c,
        &rows_c,
    );
    save_json("e17_live_wallmode", &headers_c, &rows_c);

    println!(
        "\nE17 complete: {stream_len} requests threaded across {nodes} nodes, \
         bit-identical to sim; wall mode conserves every prepaid query."
    );
}
