//! Golden oracle for the *automatic* brownout ladder, generated on the
//! commit before the router's level-0 plans and its per-level degraded
//! plans became one level-indexed table. `coordinator_golden` (c) pins
//! only the controller's floor; here nothing but gateway pressure walks
//! the ladder — two levels down under a burst and back up — on the
//! simulator and, through `assert_sim_live_parity`, on the threaded
//! backend.

use tinymlops_serve::testkit::{
    assert_conservation, assert_sim_live_parity, report_digest, test_fabric,
};
use tinymlops_serve::{
    BrownoutConfig, FabricConfig, FabricReport, FaultPlan, GatewayConfig, LoadPlan, Request,
    ServeConfig, ServeFabric, TenantSpec,
};

const PREPAID: u64 = 1_000_000;
const TENANTS: u32 = 8;

fn plan(seed: u64, rps: f64, duration_us: u64) -> LoadPlan {
    LoadPlan {
        tenants: (0..TENANTS)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / f64::from(TENANTS),
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: PREPAID,
                deadline_us: 40_000,
            })
            .collect(),
        duration_us,
        seed,
        feature_dim: 0,
    }
}

/// A 600 rps base second with a 14k rps burst over `[100 ms, 350 ms)`.
fn surge() -> Vec<Request> {
    let mut stream = plan(11, 600.0, 1_000_000).generate();
    stream.extend(
        plan(12, 14_000.0, 250_000)
            .generate()
            .into_iter()
            .map(|mut r| {
                r.arrival_us += 100_000;
                r
            }),
    );
    stream.sort_by_key(|r| r.arrival_us);
    for (i, r) in stream.iter_mut().enumerate() {
        r.id = i as u64;
    }
    stream
}

/// Two small nodes whose gateways fill under the burst; the ladder may
/// descend `max_level` steps (0 = brownout disabled, plane still armed).
fn config(max_level: usize) -> FabricConfig {
    FabricConfig {
        node_weights: vec![1.0; 2],
        serve: ServeConfig {
            gateway: GatewayConfig {
                max_pending_per_tenant: 24,
                max_total_pending: 64,
            },
            ..Default::default()
        },
        fault: FaultPlan {
            brownout: BrownoutConfig {
                enabled: max_level > 0,
                max_level,
                ..BrownoutConfig::default()
            },
            ..FaultPlan::armed()
        },
        ..Default::default()
    }
}

fn build(max_level: usize) -> ServeFabric {
    let mut f = test_fabric(&config(max_level), 30, 5);
    f.provision(&plan(11, 600.0, 1_000_000));
    f
}

fn sim_run(max_level: usize, stream: &[Request]) -> FabricReport {
    build(max_level).run(stream).expect("sim run")
}

#[test]
fn pressure_driven_ladder_matches_the_pre_fold_digest() {
    let stream = surge();
    let out = assert_sim_live_parity(|| build(2), &stream, &[]);
    assert!(out.report.control.is_empty(), "no controller in this run");
    assert_conservation(
        &out.sim,
        &out.report,
        stream.len() as u64,
        u64::from(TENANTS) * PREPAID,
    );
    assert_eq!(report_digest(&out.sim, &out.report), 0xbdf5_6952_b8c5_52ba);
    assert_eq!(report_digest(&out.live, &out.report), 0xbdf5_6952_b8c5_52ba);

    // The ladder really walked: each extra level changes what was served.
    let off = sim_run(0, &stream);
    let one = sim_run(1, &stream);
    assert_ne!(off.fleet, one.fleet, "level 1 was reached");
    assert_ne!(one.fleet, out.report.fleet, "level 2 was reached");
    assert!(
        out.report.fleet.served > off.fleet.served,
        "degrading serves more of the burst than shedding it: {} vs {}",
        out.report.fleet.served,
        off.fleet.served
    );
}
