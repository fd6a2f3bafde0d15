//! Backend parity under migration + crash, pinned at tier 1 (mirror of
//! scenario (b) in `crates/serve/tests/coordinator_golden.rs`, whose
//! digest was generated before the fleet coordinator replaced the
//! simulator's and the live feeder's separate protocol copies): node 1
//! crashes mid-stream, two of its tenants migrate away a millisecond
//! earlier with work still dispatched there (orphan refunds), and a third
//! migration targets the dead node (frozen at `Planned`). Simulator and
//! threaded replay must agree bit for bit and reproduce the digest.

use tinymlops::serve::testkit::{
    assert_conservation, assert_sim_live_parity, report_digest, test_fabric,
};
use tinymlops::serve::{
    FabricConfig, FaultEvent, FaultKind, FaultPlan, LoadPlan, MigrationPhase, MigrationSpec,
    ServeFabric, ShedReason, TenantSpec,
};

const PREPAID: u64 = 1_000_000;
const TENANTS: u32 = 12;

#[test]
fn crash_with_racing_migrations_replays_identically_and_is_pinned() {
    let cfg = FabricConfig {
        fault: FaultPlan::with_events(vec![FaultEvent {
            node: 1,
            at_us: 400_000,
            kind: FaultKind::Crash,
        }]),
        ..FabricConfig::default()
    };
    let (rps, hot_share) = (9_000.0, 0.15);
    let plan = LoadPlan {
        tenants: (0..TENANTS)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: if i == 0 {
                    rps * hot_share
                } else {
                    rps * (1.0 - hot_share) / f64::from(TENANTS - 1)
                },
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: PREPAID,
                deadline_us: 200_000,
            })
            .collect(),
        duration_us: 1_000_000,
        seed: 23,
        feature_dim: 0,
    };
    let stream = plan.generate();
    let build = || -> ServeFabric {
        let mut f = test_fabric(&cfg, 30, 5);
        f.provision(&plan);
        f
    };
    let probe = build();
    let doomed = (1..=TENANTS).filter(|t| probe.home_node(*t) == Some(1));
    let mut specs: Vec<MigrationSpec> = doomed
        .take(2)
        .zip([(0, 399_000), (2, 399_900)])
        .map(|(tenant, (to, trigger_us))| MigrationSpec {
            tenant,
            to,
            trigger_us,
        })
        .collect();
    let bystander = (1..=TENANTS).find(|t| probe.home_node(*t) != Some(1));
    specs.push(MigrationSpec {
        tenant: bystander.expect("someone lives off node 1"),
        to: 1,
        trigger_us: 600_000,
    });

    let out = assert_sim_live_parity(build, &stream, &specs);
    let phases: Vec<_> = out.report.migrations.iter().map(|r| r.phase).collect();
    assert_eq!(
        phases,
        [
            MigrationPhase::Resumed,
            MigrationPhase::Resumed,
            MigrationPhase::Planned
        ]
    );
    assert!(out.report.fleet.shed_by(ShedReason::Failover) > 0);
    assert_conservation(
        &out.sim,
        &out.report,
        stream.len() as u64,
        u64::from(TENANTS) * PREPAID,
    );
    assert_eq!(report_digest(&out.sim, &out.report), 0x7e8c_66d6_698a_134f);
    assert_eq!(report_digest(&out.live, &out.report), 0x7e8c_66d6_698a_134f);
}
