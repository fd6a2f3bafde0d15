//! E18 — live tenant migration: drain/handoff between serving nodes with
//! requests in flight, plus bounded-load shard routing.
//!
//! PR 3's fabric could only move tenant accounts *between* runs (pending
//! work had to be zero) and its rendezvous router let a hot tenant
//! overload its home node. This experiment exercises the drain/handoff
//! protocol that lifts both limits. Sections: (a) **handoff** — tenants
//! migrate mid-stream under load (queued work spliced, dispatched work
//! drained in place, quota partition + audit chain handed off atomically
//! under a `meter` `Handoff` entry), bit-identical between the simulator
//! and the threaded `ExecMode::Replay` backend, with exact quota
//! conservation and every chain verifying across the move; (b) **node
//! drain** — every tenant is migrated off one node mid-stream and the
//! emptied node is decommissioned after the run; (c) **bounded load** —
//! a full-affinity tenant pile-up is split across nodes by the
//! configurable load factor, capping every node at its fair share;
//! (d) **wall mode** — a migration executes across live wall-clock node
//! threads and the conservation laws still hold exactly.
//!
//! `--quick` shrinks the replay to CI-smoke size (the JSON artifacts are
//! still written with the same schema).

use tinymlops_bench::{fmt, print_table, save_json, synthetic_family};
use tinymlops_core::{Platform, PlatformConfig};
use tinymlops_device::{default_mix, Fleet};
use tinymlops_nn::data::synth_digits;
use tinymlops_nn::model::mlp;
use tinymlops_nn::train::{fit, FitConfig};
use tinymlops_nn::Adam;
use tinymlops_registry::SemVer;
use tinymlops_serve::{
    ExecConfig, ExecMode, FabricConfig, LoadPlan, MigrationPhase, MigrationSpec, ServeFabric,
    TenantSpec,
};
use tinymlops_tensor::TensorRng;

const SEED: u64 = 18;
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

fn plan(total_rps: f64, duration_us: u64, tenants: u32, prepaid: u64) -> LoadPlan {
    // Tenant 1 is deliberately hot (a quarter of all traffic): migrating
    // it mid-stream all but guarantees queued/batched work is in flight
    // at the trigger, so the drain/handoff protocol has something real to
    // splice.
    let cold_rps = total_rps * 0.75 / f64::from(tenants - 1);
    LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: if i == 0 { total_rps * 0.25 } else { cold_rps },
                model: format!("family{}", i as usize % FAMILIES),
                prepaid_queries: prepaid,
                deadline_us: 250_000,
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
        "E18: live tenant migration (in-flight drain/handoff) + bounded-load routing{}",
        if quick { " [quick]" } else { "" }
    );

    let fleet_size = if quick { 30 } else { 90 };
    let (rps, duration_us) = if quick {
        (3_000.0, 1_000_000)
    } else {
        (20_000.0, 6_000_000)
    };
    let tenants = 18u32;
    let prepaid = 1_000_000_000u64;
    let cfg = FabricConfig {
        node_weights: vec![1.0; 3],
        ..Default::default()
    };
    let p = plan(rps, duration_us, tenants, prepaid);
    let stream = p.generate();
    if !quick {
        assert!(
            stream.len() >= 100_000,
            "migration replay must exceed 100k requests, got {}",
            stream.len()
        );
    }

    // E18a: in-flight handoff. Pick three tenants and move each to a node
    // that is not its home, at staggered points in the stream; one of
    // them migrates twice (ping-pong). Run the identical schedule through
    // the simulator and the threaded replay backend.
    let mut sim_platform = published_platform(fleet_size);
    let mut sim_fabric = sim_platform.build_fabric(&p, &cfg).expect("fabric");
    let census_before: u64 = sim_fabric.quota_census().iter().map(|q| q.balance).sum();
    let pick = |fabric: &ServeFabric, tenant: u32| -> MigrationSpec {
        let from = fabric.home_node(tenant).expect("provisioned");
        MigrationSpec {
            tenant,
            to: (from + 1) % 3,
            trigger_us: 0, // set per spec below
        }
    };
    let mid = duration_us / 2;
    let mut specs = vec![
        MigrationSpec {
            trigger_us: duration_us / 4,
            ..pick(&sim_fabric, 1)
        },
        MigrationSpec {
            trigger_us: mid,
            ..pick(&sim_fabric, 7)
        },
        MigrationSpec {
            trigger_us: mid,
            ..pick(&sim_fabric, 13)
        },
    ];
    // Tenant 1 migrates a second time, later in the stream.
    let second_home = specs[0].to;
    specs.push(MigrationSpec {
        tenant: 1,
        to: (second_home + 1) % 3,
        trigger_us: duration_us * 3 / 4,
    });

    sim_fabric.schedule_migrations(&specs).expect("specs valid");
    let sim_report = sim_fabric.run(&stream).expect("sim run");
    let sim_records = &sim_report.migrations;
    let mut live_platform = published_platform(fleet_size);
    let mut live_fabric = live_platform.build_fabric(&p, &cfg).expect("fabric");
    live_fabric
        .schedule_migrations(&specs)
        .expect("specs valid");
    let live_report = live_fabric
        .run_live(&stream, &ExecConfig::default())
        .expect("live run");
    // Report equality covers the migration records.
    let identical = live_report.fabric == sim_report;
    assert!(
        identical,
        "threaded migration replay must be bit-identical to the simulator"
    );
    assert_eq!(sim_report.unrefunded_sheds(), 0, "every shed refunded");
    assert!(sim_report.refunds_balance());
    assert_eq!(
        sim_report.fleet.served + sim_report.fleet.shed_total,
        stream.len() as u64
    );
    let inflight_moved: usize = sim_records
        .iter()
        .map(|r| r.spliced + r.drained_in_flight)
        .sum();
    assert!(
        inflight_moved > 0,
        "the hot tenant must migrate with requests actually in flight"
    );
    let census = sim_fabric.quota_census();
    let census_after: u64 = census
        .iter()
        .map(|q| q.balance + q.consumed - q.refunded)
        .sum();
    assert_eq!(
        census_before, census_after,
        "exact quota conservation across the migrations"
    );
    let master = sim_platform.master_key();
    let checked = sim_fabric
        .verify_chains(|t| tinymlops_ipp::encrypt::device_key(&master, t))
        .expect("chains verify across handoffs");
    assert_eq!(checked, tenants as usize);

    let mut rows_a: Vec<Vec<String>> = Vec::new();
    for r in sim_records {
        assert_eq!(r.phase, MigrationPhase::Resumed);
        // The account lives on the tenant's *final* home (a
        // twice-migrated tenant has interim hops).
        let final_home = sim_fabric.home_node(r.tenant).expect("tenant homed");
        let admitted_end = sim_fabric
            .node_mut(final_home)
            .expect("home exists")
            .plane
            .gateway
            .tenant(r.tenant)
            .expect("account on its home")
            .admitted;
        let new_home_serves = final_home == r.to && admitted_end > r.admitted_before_handoff;
        // The last hop of a twice-migrated tenant owns its final home.
        let is_last_hop = !sim_records
            .iter()
            .any(|later| later.tenant == r.tenant && later.trigger_us > r.trigger_us);
        assert!(
            !is_last_hop || new_home_serves,
            "tenant {} must serve on its new home {}",
            r.tenant,
            r.to
        );
        rows_a.push(vec![
            r.tenant.to_string(),
            r.from.to_string(),
            r.to.to_string(),
            (r.handoff_us / 1000).to_string(),
            r.spliced.to_string(),
            r.drained_in_flight.to_string(),
            r.admitted_before_handoff.to_string(),
            admitted_end.to_string(),
            if is_last_hop && new_home_serves {
                "yes"
            } else if is_last_hop {
                "NO"
            } else {
                "interim"
            }
            .to_string(),
            sim_report.unrefunded_sheds().to_string(),
            if census_before == census_after {
                "equal"
            } else {
                "BROKEN"
            }
            .to_string(),
        ]);
    }
    let headers_a = [
        "tenant",
        "from",
        "to",
        "handoff ms",
        "spliced",
        "drained",
        "admitted@handoff",
        "admitted end",
        "new_home_serves",
        "unrefunded",
        "census",
    ];
    print_table(
        &format!(
            "E18a in-flight drain/handoff ({} requests, {} migrations, sim ≡ live: {})",
            stream.len(),
            sim_records.len(),
            if identical { "yes" } else { "NO" }
        ),
        &headers_a,
        &rows_a,
    );
    save_json("e18_migration_handoff", &headers_a, &rows_a);

    // Parity artifact (structure mirrors e17's).
    let headers_p = ["backend", "served", "shed", "refunds", "identical"];
    let rows_p = vec![
        vec![
            "sim replay".into(),
            sim_report.fleet.served.to_string(),
            sim_report.fleet.shed_total.to_string(),
            sim_report.refunds.to_string(),
            "-".into(),
        ],
        vec![
            "live replay".into(),
            live_report.fabric.fleet.served.to_string(),
            live_report.fabric.fleet.shed_total.to_string(),
            live_report.fabric.refunds.to_string(),
            if identical { "yes" } else { "NO" }.into(),
        ],
    ];
    print_table("E18a sim vs live migration parity", &headers_p, &rows_p);
    save_json("e18_migration_parity", &headers_p, &rows_p);

    // E18b: drain a whole node mid-stream, then decommission it. Every
    // tenant homed on the victim gets a migration spec targeting its
    // next-best surviving node; after the run the node is empty and
    // `remove_node` succeeds with zero pending work.
    let mut drain_platform = published_platform(fleet_size);
    let mut drain_fabric = drain_platform.build_fabric(&p, &cfg).expect("fabric");
    let victim = 2u32;
    let evacuees: Vec<u32> = drain_fabric
        .quota_census()
        .iter()
        .filter(|q| q.node == victim)
        .map(|q| q.tenant)
        .collect();
    let drain_specs: Vec<MigrationSpec> = evacuees
        .iter()
        .enumerate()
        .map(|(i, t)| MigrationSpec {
            tenant: *t,
            to: (i as u32) % 2, // spread over the survivors
            trigger_us: mid,
        })
        .collect();
    drain_fabric
        .schedule_migrations(&drain_specs)
        .expect("specs valid");
    let drain_report = drain_fabric.run(&stream).expect("drain run");
    let drain_records = &drain_report.migrations;
    assert!(drain_records
        .iter()
        .all(|r| r.phase == MigrationPhase::Resumed));
    assert_eq!(drain_report.unrefunded_sheds(), 0);
    let victim_load = drain_fabric
        .tenant_loads()
        .into_iter()
        .find(|(n, _)| *n == victim)
        .map(|(_, l)| l)
        .unwrap_or(0);
    assert_eq!(victim_load, 0, "victim node fully evacuated");
    let moved = drain_fabric.remove_node(victim).expect("empty node leaves");
    let headers_b = [
        "victim",
        "evacuees",
        "spliced total",
        "drained total",
        "victim load after",
        "rebalanced on leave",
        "unrefunded",
    ];
    let rows_b = vec![vec![
        victim.to_string(),
        evacuees.len().to_string(),
        drain_records
            .iter()
            .map(|r| r.spliced)
            .sum::<usize>()
            .to_string(),
        drain_records
            .iter()
            .map(|r| r.drained_in_flight)
            .sum::<usize>()
            .to_string(),
        victim_load.to_string(),
        moved.to_string(),
        drain_report.unrefunded_sheds().to_string(),
    ]];
    print_table("E18b live node drain + decommission", &headers_b, &rows_b);
    save_json("e18_migration_drain", &headers_b, &rows_b);

    // E18c: bounded-load routing. 48 tenants of ONE family at affinity
    // 1.0 — pure rendezvous sends all of them to a single node. Sweep
    // the load factor and record the hottest node against its cap.
    let hot_tenants = 48u32;
    let factors = [f64::INFINITY, 2.0, 1.25, 1.0];
    let mut rows_c = Vec::new();
    let mut unbounded_max = 0usize;
    for factor in factors {
        let bl_cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            tenant_affinity: 1.0,
            load_factor: factor,
            ..Default::default()
        };
        let fleets = Fleet::generate(30, &default_mix(), SEED).partition(3);
        let mut f = ServeFabric::new(&bl_cfg, fleets);
        f.install_family("hot", synthetic_family("hot", 0));
        for t in 1..=hot_tenants {
            f.register_tenant(t, "hot", [0u8; 32]);
        }
        let max_load = f.tenant_loads().iter().map(|(_, l)| *l).max().unwrap_or(0);
        let cap = f
            .shard_router
            .bounded_caps(hot_tenants as usize, factor)
            .iter()
            .map(|(_, c)| *c)
            .max()
            .unwrap_or(usize::MAX);
        if factor.is_infinite() {
            unbounded_max = max_load;
            assert_eq!(
                max_load, hot_tenants as usize,
                "full affinity piles everyone onto one node"
            );
        } else {
            assert!(
                max_load <= cap,
                "factor {factor}: hottest node {max_load} exceeds cap {cap}"
            );
            assert!(max_load < unbounded_max, "the cap actually split the pile");
        }
        rows_c.push(vec![
            if factor.is_infinite() {
                "unbounded".into()
            } else {
                fmt(factor, 2)
            },
            hot_tenants.to_string(),
            max_load.to_string(),
            if factor.is_infinite() {
                "-".into()
            } else {
                cap.to_string()
            },
            if factor.is_infinite() || max_load <= cap {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    let headers_c = ["load factor", "tenants", "hottest node", "cap", "capped"];
    print_table(
        "E18c bounded-load routing (one family, affinity 1.0)",
        &headers_c,
        &rows_c,
    );
    save_json("e18_migration_bounded", &headers_c, &rows_c);

    // E18d: wall-clock migration — the drain/adopt controls cross live
    // node threads under real time. Outcomes are timing-dependent; the
    // conservation laws and the completed handoff are not.
    let wall_plan = plan(
        if quick { 2_000.0 } else { 8_000.0 },
        if quick { 250_000 } else { 500_000 },
        6,
        1_000_000,
    );
    let wall_stream = wall_plan.generate();
    let mut wall_platform = published_platform(if quick { 12 } else { 30 });
    let mut wall_fabric = wall_platform
        .build_fabric(&wall_plan, &cfg)
        .expect("fabric");
    let wall_from = wall_fabric.home_node(1).expect("provisioned");
    let wall_spec = [MigrationSpec {
        tenant: 1,
        to: (wall_from + 1) % 3,
        trigger_us: wall_plan.duration_us / 2,
    }];
    wall_fabric
        .schedule_migrations(&wall_spec)
        .expect("specs valid");
    let wall_live = wall_fabric
        .run_live(
            &wall_stream,
            &ExecConfig {
                mode: ExecMode::Wall,
                queue_capacity: 256,
            },
        )
        .expect("wall run");
    let wall_records = &wall_live.fabric.migrations;
    assert_eq!(wall_records.len(), 1);
    assert_eq!(wall_records[0].phase, MigrationPhase::Resumed);
    assert_eq!(wall_fabric.home_node(1), Some(wall_spec[0].to));
    let fleet = &wall_live.fabric.fleet;
    assert_eq!(
        fleet.served + fleet.shed_total,
        wall_stream.len() as u64,
        "wall mode: every arrival is served or shed"
    );
    assert!(wall_live.fabric.refunds_balance());
    let wall_census = wall_fabric.quota_census();
    let spent: u64 = wall_census.iter().map(|q| q.consumed - q.refunded).sum();
    let left: u64 = wall_census.iter().map(|q| q.balance).sum();
    assert_eq!(spent + left, 1_000_000 * 6, "wall mode conserves quota");
    let headers_d = [
        "requests",
        "served",
        "shed",
        "queue spliced",
        "migrated home",
        "unrefunded",
        "wall ms",
    ];
    let rows_d = vec![vec![
        wall_stream.len().to_string(),
        fleet.served.to_string(),
        fleet.shed_total.to_string(),
        wall_records[0].queue_spliced.to_string(),
        format!("{} -> {}", wall_records[0].from, wall_records[0].to),
        wall_live.fabric.unrefunded_sheds().to_string(),
        fmt(wall_live.wall_ms, 0),
    ]];
    print_table(
        "E18d wall-clock migration (live threads, real time)",
        &headers_d,
        &rows_d,
    );
    save_json("e18_migration_wall", &headers_d, &rows_d);

    println!(
        "\nE18 complete: {} requests with {} mid-stream migrations, sim ≡ live, \
         quota conserved to the query; bounded load caps the hottest node.",
        stream.len(),
        sim_records.len()
    );
}
