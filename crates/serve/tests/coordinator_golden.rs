//! Golden oracle for the fleet coordinator: three composed scenarios
//! whose digests ([`tinymlops_serve::testkit::report_digest`]) were generated
//! on the commit *before* the migration / crash / control-tick protocol
//! was unified into `serve::coordinator` — by the simulator's and the
//! live feeder's separate copies of it, which agreed. The one coordinator
//! must reproduce all of them on the simulator and, through
//! `assert_sim_live_parity`, on the threaded backend.
//!
//! * (a) scheduled migrations: a plain move, a move to the tenant's
//!   current home, a hop back, and one triggering past the last arrival.
//! * (b) a mid-run crash, a tenant migrated off the doomed node just
//!   before it (its dispatched work dies there: orphan refunds), and a
//!   migration whose destination is the dead node (frozen at `Planned`).
//! * (c) the controller armed with two standby nodes and a brownout floor
//!   against a surge — alone on both backends, and under
//!   `run_with_retries` on the simulator.

use tinymlops_serve::testkit::{
    assert_conservation, assert_sim_live_parity, report_digest, test_fabric,
};
use tinymlops_serve::{
    BrownoutConfig, ControlAction, ControllerConfig, FabricConfig, FabricReport, FaultEvent,
    FaultKind, FaultPlan, GatewayConfig, LoadPlan, MigrationPhase, MigrationSpec, Request,
    RetryPolicy, ServeConfig, ServeFabric, ShedReason, TenantSpec,
};

const PREPAID: u64 = 1_000_000;

fn plan(seed: u64, rps: f64, tenants: u32, hot_share: f64, deadline_us: u64) -> LoadPlan {
    LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: if i == 0 {
                    rps * hot_share
                } else {
                    rps * (1.0 - hot_share) / f64::from(tenants - 1)
                },
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: PREPAID,
                deadline_us,
            })
            .collect(),
        duration_us: 1_000_000,
        seed,
        feature_dim: 0,
    }
}

/// (a) 3 nodes, scheduled migrations: a plain move, a move to the
/// tenant's current home, a second hop, and one triggering past the last
/// arrival.
fn scenario_a() -> (FabricConfig, LoadPlan, Vec<Request>) {
    let cfg = FabricConfig::default();
    let p = plan(31, 6_000.0, 9, 0.2, 150_000);
    let stream = p.generate();
    (cfg, p, stream)
}

fn specs_a(probe: &ServeFabric) -> Vec<MigrationSpec> {
    let home = |t: u32| probe.home_node(t).expect("provisioned");
    let off = |t: u32| (0..3).find(|n| *n != home(t)).expect("three nodes");
    vec![
        MigrationSpec {
            tenant: 1,
            to: off(1),
            trigger_us: 300_000,
        },
        MigrationSpec {
            tenant: 2,
            to: home(2),
            trigger_us: 300_000,
        },
        MigrationSpec {
            tenant: 1,
            to: home(1),
            trigger_us: 650_000,
        },
        MigrationSpec {
            tenant: 3,
            to: off(3),
            trigger_us: 5_000_000,
        },
    ]
}

/// (b) mid-run crash of node 1, a migration whose destination is the dead
/// node, and a tenant migrated off node 1 shortly before the crash (its
/// dispatched work dies there: orphan refunds).
fn scenario_b() -> (FabricConfig, LoadPlan, Vec<Request>) {
    let cfg = FabricConfig {
        fault: FaultPlan::with_events(vec![FaultEvent {
            node: 1,
            at_us: 400_000,
            kind: FaultKind::Crash,
        }]),
        ..FabricConfig::default()
    };
    let p = plan(23, 9_000.0, 12, 0.15, 200_000);
    let stream = p.generate();
    (cfg, p, stream)
}

fn specs_b(probe: &ServeFabric) -> Vec<MigrationSpec> {
    let on_doomed: Vec<u32> = (1..=12)
        .filter(|t| probe.home_node(*t) == Some(1))
        .collect();
    let elsewhere = (1..=12u32)
        .find(|t| probe.home_node(*t) != Some(1))
        .expect("someone lives off node 1");
    let mut specs: Vec<MigrationSpec> = on_doomed
        .iter()
        .take(2)
        .enumerate()
        .map(|(i, t)| MigrationSpec {
            tenant: *t,
            to: if i == 0 { 0 } else { 2 },
            trigger_us: 399_000 + i as u64 * 900,
        })
        .collect();
    specs.push(MigrationSpec {
        tenant: elsewhere,
        to: 1,
        trigger_us: 600_000,
    });
    specs
}

/// (c) controller armed with two standby nodes (and a brownout floor)
/// against a surge.
fn scenario_c() -> (FabricConfig, LoadPlan, Vec<Request>) {
    let cfg = FabricConfig {
        node_weights: vec![1.0; 2],
        serve: ServeConfig {
            gateway: GatewayConfig {
                max_pending_per_tenant: 24,
                max_total_pending: 64,
            },
            ..Default::default()
        },
        fault: FaultPlan {
            brownout: BrownoutConfig::enabled(),
            ..FaultPlan::armed()
        },
        controller: ControllerConfig {
            interval_us: 100_000,
            tenant_cooldown_us: 250_000,
            scale_cooldown_us: 300_000,
            standby_weights: vec![1.0, 1.0],
            brownout_floor_level: 1,
            ..ControllerConfig::enabled()
        },
        ..Default::default()
    };
    let base = plan(11, 600.0, 8, 0.4, 40_000);
    let burst = LoadPlan {
        seed: 12,
        duration_us: 250_000,
        ..plan(12, 14_000.0, 8, 0.4, 40_000)
    };
    let mut stream = base.generate();
    stream.extend(burst.generate().into_iter().map(|mut r| {
        r.arrival_us += 100_000;
        r
    }));
    stream.sort_by_key(|r| r.arrival_us);
    for (i, r) in stream.iter_mut().enumerate() {
        r.id = i as u64;
    }
    (cfg, base, stream)
}

fn fleet_size(cfg: &FabricConfig) -> usize {
    if cfg.controller.enabled {
        32
    } else {
        30
    }
}

fn build(cfg: &FabricConfig, p: &LoadPlan) -> ServeFabric {
    let mut f = test_fabric(cfg, fleet_size(cfg), 5);
    f.provision(p);
    f
}

fn count(report: &FabricReport, pred: impl Fn(&ControlAction) -> bool) -> usize {
    report.control.iter().filter(|r| pred(&r.action)).count()
}

#[test]
fn scheduled_migrations_match_the_pre_coordinator_digest() {
    let (cfg, p, stream) = scenario_a();
    let specs = specs_a(&build(&cfg, &p));
    let out = assert_sim_live_parity(|| build(&cfg, &p), &stream, &specs);
    assert_eq!(out.report.migrations.len(), 4);
    assert!(out
        .report
        .migrations
        .iter()
        .all(|r| r.phase == MigrationPhase::Resumed));
    assert_eq!(
        out.report.migrations[3].handoff_us,
        stream.last().unwrap().arrival_us,
        "a trigger past the last arrival executes at end of stream"
    );
    assert_eq!(report_digest(&out.sim, &out.report), 0x58fa_9bf6_4b30_630a);
    assert_eq!(report_digest(&out.live, &out.report), 0x58fa_9bf6_4b30_630a);
}

#[test]
fn crash_with_racing_migrations_matches_the_pre_coordinator_digest() {
    let (cfg, p, stream) = scenario_b();
    let specs = specs_b(&build(&cfg, &p));
    let out = assert_sim_live_parity(|| build(&cfg, &p), &stream, &specs);
    let phases: Vec<_> = out.report.migrations.iter().map(|r| r.phase).collect();
    assert_eq!(
        phases,
        [
            MigrationPhase::Resumed,
            MigrationPhase::Resumed,
            MigrationPhase::Planned
        ],
        "a migration onto the dead node never starts"
    );
    assert!(out.report.fleet.shed_by(ShedReason::Failover) > 0);
    // The first spec's tenant left node 1 with work still dispatched
    // there; the crash a millisecond later refunds it on its new home.
    let moved = &out.report.migrations[0];
    assert!(moved.drained_in_flight > 0);
    let refunded_on_new_home = out
        .sim
        .quota_census()
        .iter()
        .find(|q| q.tenant == moved.tenant)
        .map(|q| (q.node, q.refunded));
    assert!(matches!(refunded_on_new_home, Some((node, n)) if node == moved.to && n > 0));
    assert_conservation(&out.sim, &out.report, stream.len() as u64, 12 * PREPAID);
    assert_eq!(report_digest(&out.sim, &out.report), 0x7e8c_66d6_698a_134f);
    assert_eq!(report_digest(&out.live, &out.report), 0x7e8c_66d6_698a_134f);
}

#[test]
fn controlled_surge_matches_the_pre_coordinator_digests() {
    let (cfg, p, stream) = scenario_c();
    let out = assert_sim_live_parity(|| build(&cfg, &p), &stream, &[]);
    assert!(count(&out.report, |a| matches!(a, ControlAction::Join { .. })) >= 1);
    assert!(count(&out.report, |a| matches!(a, ControlAction::Drain { .. })) >= 1);
    assert!(count(&out.report, |a| matches!(a, ControlAction::Brownout { .. })) >= 1);
    assert_eq!(out.report.migrations.len(), 5);
    assert_eq!(report_digest(&out.sim, &out.report), 0xddc3_bdf2_ffbc_4c80);
    assert_eq!(report_digest(&out.live, &out.report), 0xddc3_bdf2_ffbc_4c80);

    // The same surge with the retry loop closed at the driver.
    let mut f = build(&cfg, &p);
    let (report, retry) = f
        .run_with_retries(&stream, &RetryPolicy::default())
        .expect("retrying run");
    assert!(retry.scheduled > 0 && retry.succeeded > 0);
    assert!(count(&report, |a| matches!(a, ControlAction::Join { .. })) >= 1);
    assert!(count(&report, |a| matches!(a, ControlAction::Drain { .. })) >= 1);
    assert_eq!(report.migrations.len(), 5);
    assert_eq!(report_digest(&f, &report), 0x161c_d7f9_2a12_1170);
}
