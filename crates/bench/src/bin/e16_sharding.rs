//! E16 — the sharded serving fabric under open-loop multi-tenant load.
//!
//! One `ServePlane` is one serving node; this experiment replays ≥100k
//! requests across a ≥3-node `ServeFabric`: the shard router
//! consistent-hashes tenants onto nodes (weighted, family-affine), quotas
//! are partitioned per home shard with refunds for admitted-then-shed
//! work, per-node telemetry merges into exact fleet statistics, and the
//! per-node device router weighs ModelCache residency against load.
//! Sections: (a) fleet replay with per-node + fleet stats, (b) bit-exact
//! determinism across fresh fabrics, (c) affinity vs least-loaded device
//! routing at the same cache budget, (d) shed-refund accounting with
//! chain verification, (e) node join/leave rebalancing.
//!
//! `--quick` shrinks the replay to CI-smoke size (the JSON artifacts are
//! still written with the same schema).

use tinymlops_bench::{fmt, print_table, save_json, serve_sharded, synthetic_family, time_ms};
use tinymlops_core::{Platform, PlatformConfig};
use tinymlops_nn::data::synth_digits;
use tinymlops_nn::model::mlp;
use tinymlops_nn::train::{fit, FitConfig};
use tinymlops_nn::Adam;
use tinymlops_registry::SemVer;
use tinymlops_serve::{
    FabricConfig, FabricReport, LoadPlan, ServeConfig, ServeReport, ShedReason, TenantSpec,
};
use tinymlops_tensor::TensorRng;

const SEED: u64 = 16;
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

fn synthetic_fabric(
    nodes: usize,
    fleet_size: usize,
    cache_budget_bytes: u64,
    affinity_routing: bool,
) -> tinymlops_serve::ServeFabric {
    let cfg = FabricConfig {
        node_weights: vec![1.0; nodes],
        // Spread every family across every node — the worst case for
        // per-node residency, where the device-level score must earn it.
        tenant_affinity: 0.0,
        load_factor: f64::INFINITY,
        serve: ServeConfig {
            cache_budget_bytes,
            affinity_routing,
            ..Default::default()
        },
        ..Default::default()
    };
    let fleets =
        tinymlops_device::Fleet::generate(fleet_size, &tinymlops_device::default_mix(), SEED)
            .partition(nodes);
    let mut fabric = tinymlops_serve::ServeFabric::new(&cfg, fleets);
    for f in 0..6u64 {
        fabric.install_family(
            &format!("family{f}"),
            synthetic_family(&format!("family{f}"), f * 100),
        );
    }
    fabric
}

fn synthetic_plan(total_rps: f64, duration_us: u64) -> LoadPlan {
    LoadPlan {
        tenants: (0..12u32)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: total_rps / 12.0,
                model: format!("family{}", i % 6),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 250_000,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    }
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

fn node_row(label: &str, tenants: usize, report: &ServeReport) -> Vec<String> {
    vec![
        label.to_string(),
        tenants.to_string(),
        report.served.to_string(),
        fmt(report.throughput_rps, 0),
        fmt(report.p50_ms, 2),
        fmt(report.p95_ms, 2),
        fmt(report.p99_ms, 2),
        fmt(report.shed_rate * 100.0, 1),
        fmt(report.cache_hit_rate * 100.0, 1),
        report.devices_used.to_string(),
    ]
}

fn fabric_rows(report: &FabricReport) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for ((node, node_report), (_, tenants)) in report.per_node.iter().zip(&report.tenants_per_node)
    {
        rows.push(node_row(&format!("node {node}"), *tenants, node_report));
    }
    let total_tenants: usize = report.tenants_per_node.iter().map(|(_, n)| n).sum();
    rows.push(node_row("fleet", total_tenants, &report.fleet));
    rows
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "E16: sharded serving fabric (shard router → per-node gateway/batcher/cache/router){}",
        if quick { " [quick]" } else { "" }
    );

    let fleet_size = if quick { 30 } else { 90 };
    let nodes = 3usize;
    let (rps, duration_us) = if quick {
        (3_000.0, 1_000_000)
    } else {
        (20_000.0, 6_000_000)
    };

    // E16a: fleet replay — per-node and merged fleet statistics.
    let cfg = FabricConfig {
        node_weights: vec![1.0; nodes],
        ..Default::default()
    };
    let p = plan(rps, duration_us, 18, u64::MAX / 2, 250_000);
    let stream_len = p.generate().len();
    if !quick {
        assert!(
            stream_len >= 100_000,
            "fleet replay must exceed 100k requests, got {stream_len}"
        );
    }
    let mut platform = published_platform(fleet_size);
    let (report, wall_ms) = time_ms(|| serve_sharded(&mut platform, &p, &cfg, &[]));
    assert!(report.per_node.len() >= 3, "at least three serving nodes");
    let headers = [
        "node", "tenants", "served", "rps", "p50 ms", "p95 ms", "p99 ms", "shed %", "cache %",
        "devices",
    ];
    let rows = fabric_rows(&report);
    print_table(
        &format!("E16a fleet replay ({stream_len} requests, {wall_ms:.0} ms wall)"),
        &headers,
        &rows,
    );
    save_json("e16_sharding_fleet", &headers, &rows);
    assert_eq!(
        report.telemetry.counters.get("serve.served").copied(),
        Some(report.fleet.served),
        "merged telemetry parses and agrees with merged stats"
    );

    // E16b: determinism — a fresh platform + fabric replays bit-identically.
    let again = serve_sharded(&mut published_platform(fleet_size), &p, &cfg, &[]);
    assert_eq!(report, again, "same seed ⇒ identical fabric report");
    println!("\nE16b determinism: {stream_len} requests across {nodes} nodes replayed twice → identical ✓");

    // E16c: cache-affinity device routing vs least-loaded, same byte
    // budget. Six synthetic families with a wide variant-size spread
    // (40 KB f32 / 10 KB int8 / 2.5 KB int2) share each node under a
    // budget that holds only a sliver of the catalog — the E15c LRU
    // cliff. Least-loaded rotation lets different device classes drag
    // different variants through the cache; scoring residency against
    // load keeps each node's working set stable.
    let mut rows_c = Vec::new();
    let mut hit_rates = Vec::new();
    let p_c = synthetic_plan(
        if quick { 4_000.0 } else { 25_000.0 },
        if quick { 1_000_000 } else { 3_000_000 },
    );
    for (label, affinity_routing) in [("least-loaded", false), ("affinity", true)] {
        let mut fabric_c = synthetic_fabric(nodes, 24, 12 * 1024, affinity_routing);
        fabric_c.provision(&p_c);
        let r = fabric_c.run(&p_c.generate()).expect("run");
        hit_rates.push(r.fleet.cache_hit_rate);
        rows_c.push(vec![
            label.to_string(),
            r.fleet.cache_hits.to_string(),
            r.fleet.cache_misses.to_string(),
            fmt(r.fleet.cache_hit_rate * 100.0, 1),
            fmt(r.fleet.p95_ms, 2),
            fmt(r.fleet.p99_ms, 2),
            r.fleet.served.to_string(),
        ]);
    }
    let headers_c = [
        "device routing",
        "hits",
        "misses",
        "hit %",
        "p95 ms",
        "p99 ms",
        "served",
    ];
    print_table(
        "E16c affinity vs least-loaded (6 families, 12 KiB cache/node)",
        &headers_c,
        &rows_c,
    );
    save_json("e16_sharding_affinity", &headers_c, &rows_c);
    if !quick {
        assert!(
            hit_rates[1] > hit_rates[0],
            "affinity routing must raise the hit rate at the same budget: {} vs {}",
            hit_rates[1],
            hit_rates[0]
        );
    }

    // E16d: shed refunds — deadlines tighter than the batcher's flush
    // delay expire queue-head requests before dispatch, and periodic fleet
    // churn (battery/connectivity) opens NoRoute windows on the tiny
    // 2-device-per-node fleet. Both shed paths happen *after* admission
    // charged the meter, so both must refund.
    let cfg_d = FabricConfig {
        node_weights: vec![1.0; nodes],
        serve: ServeConfig {
            fleet_step_period_us: 150_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let p_d = plan(
        if quick { 3_000.0 } else { 10_000.0 },
        if quick { 500_000 } else { 2_000_000 },
        18,
        u64::MAX / 2,
        1_900,
    );
    let mut platform_d = published_platform(6);
    // Build once, run, then verify the chains of the *same* fabric that
    // replayed the traffic — the chains being checked actually carry the
    // Query/Refund entries this section is about.
    let mut fabric_d = platform_d.build_fabric(&p_d, &cfg_d).expect("fabric");
    let r_d = fabric_d.run(&p_d.generate()).expect("run");
    let master = platform_d.master_key();
    let chains = fabric_d
        .verify_chains(|t| tinymlops_ipp::encrypt::device_key(&master, t))
        .expect("all audit chains verify");
    let census = fabric_d.quota_census();
    assert!(
        census.iter().any(|q| q.refunded > 0),
        "verified chains must include refund entries"
    );
    assert!(
        r_d.downstream_sheds() > 0,
        "overload must produce downstream sheds"
    );
    assert!(
        r_d.refunds_balance(),
        "refunds ({}) must exactly match downstream sheds ({}) — neither \
         burned nor minted quota",
        r_d.refunds,
        r_d.downstream_sheds()
    );
    let headers_d = [
        "deadline shed",
        "no-route shed",
        "refunds",
        "unrefunded",
        "chains verified",
    ];
    let rows_d = vec![vec![
        r_d.fleet.shed_by(ShedReason::DeadlineExpired).to_string(),
        r_d.fleet.shed_by(ShedReason::NoRoute).to_string(),
        r_d.refunds.to_string(),
        r_d.unrefunded_sheds().to_string(),
        chains.to_string(),
    ]];
    print_table("E16d shed refunds (tamper-evident)", &headers_d, &rows_d);
    save_json("e16_sharding_refunds", &headers_d, &rows_d);

    // E16e: node join/leave — whole accounts move, prepaid quota conserved.
    let p_e = plan(1_000.0, 500_000, 24, 50_000, 250_000);
    let mut platform_e = published_platform(fleet_size);
    let mut fabric_e = platform_e.build_fabric(&p_e, &cfg).expect("fabric");
    fabric_e.run(&p_e.generate()).expect("run");
    let balance_sum = |f: &tinymlops_serve::ServeFabric| -> u64 {
        f.quota_census().iter().map(|q| q.balance).sum()
    };
    let before = balance_sum(&fabric_e);
    let extra = tinymlops_device::Fleet::generate(
        fleet_size / nodes,
        &tinymlops_device::default_mix(),
        SEED + 99,
    );
    let (new_id, moved_in) = fabric_e.add_node(1.0, extra);
    let after_join = balance_sum(&fabric_e);
    let moved_out = fabric_e.remove_node(new_id).expect("node exists");
    let after_leave = balance_sum(&fabric_e);
    assert_eq!(before, after_join, "join conserves prepaid quota");
    assert_eq!(before, after_leave, "leave conserves prepaid quota");
    assert_eq!(moved_in, moved_out, "leave undoes exactly the join");
    assert!(moved_in < 24, "join must not reshuffle every tenant");
    let headers_e = [
        "tenants",
        "moved on join",
        "moved on leave",
        "expected share",
        "quota conserved",
    ];
    let rows_e = vec![vec![
        "24".to_string(),
        moved_in.to_string(),
        moved_out.to_string(),
        fmt(24.0 / (nodes as f64 + 1.0), 1),
        "yes".to_string(),
    ]];
    print_table("E16e node join/leave rebalancing", &headers_e, &rows_e);
    save_json("e16_sharding_rebalance", &headers_e, &rows_e);

    println!(
        "\nE16 complete: {stream_len} requests, {nodes} nodes, deterministic, zero lost sheds."
    );
}
