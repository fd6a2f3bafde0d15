//! What the one-coordinator surface makes reachable or visible:
//!
//! * **migrations × retries** — `schedule_migrations` composes with
//!   `run_with_retries` (no entry point reached that cell before);
//! * **schedule semantics** — a schedule is consumed by exactly one
//!   open-loop run and survives a closed-loop one;
//! * **pre-flight** — a run that cannot start takes nothing from the
//!   fabric: the standby pool survives a `NoFamilies` rejection on both
//!   backends (the threaded backend used to lose it).
//!
//! Controller-initiated moves surfacing in `FabricReport::migrations` on
//! plain `run` / `run_live` is pinned by `coordinator_golden.rs` (c).

use tinymlops_device::{default_mix, Fleet};
use tinymlops_serve::testkit::{assert_conservation, test_fabric, test_meter_key};
use tinymlops_serve::{
    ClientPlan, ClientSpec, ControllerConfig, ExecConfig, FabricConfig, GatewayConfig, LoadPlan,
    MigrationPhase, MigrationSpec, RetryPolicy, ServeConfig, ServeError, ServeFabric, TenantSpec,
};

const PREPAID: u64 = 1_000_000;

fn plan(seed: u64, rps: f64, tenants: u32) -> LoadPlan {
    LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / f64::from(tenants),
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: PREPAID,
                deadline_us: 40_000,
            })
            .collect(),
        duration_us: 1_000_000,
        seed,
        feature_dim: 0,
    }
}

/// Three moves of two tenants, the last one past the end of the stream.
fn specs(f: &ServeFabric) -> Vec<MigrationSpec> {
    let off = |t: u32| (0..3).find(|n| Some(*n) != f.home_node(t)).unwrap();
    vec![
        MigrationSpec {
            tenant: 1,
            to: off(1),
            trigger_us: 250_000,
        },
        MigrationSpec {
            tenant: 2,
            to: off(2),
            trigger_us: 500_000,
        },
        MigrationSpec {
            tenant: 1,
            to: f.home_node(1).unwrap(),
            trigger_us: 2_000_000,
        },
    ]
}

#[test]
fn scheduled_migrations_compose_with_the_retry_loop() {
    // A tiny pending ceiling makes Overload sheds (retryable) routine, so
    // re-deliveries are in flight across every handoff.
    let cfg = FabricConfig {
        serve: ServeConfig {
            gateway: GatewayConfig {
                max_pending_per_tenant: 8,
                max_total_pending: 16,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let p = plan(17, 9_000.0, 6);
    let stream = p.generate();
    let mut f = test_fabric(&cfg, 24, 5);
    f.provision(&p);
    let specs = specs(&f);
    f.schedule_migrations(&specs).expect("specs valid");
    let (report, retry) = f
        .run_with_retries(&stream, &RetryPolicy::default())
        .expect("retrying run");
    assert!(
        retry.scheduled > 0 && retry.succeeded > 0,
        "retries flowed: {retry:?}"
    );
    assert_eq!(report.migrations.len(), specs.len());
    for record in &report.migrations {
        assert_eq!(record.phase, MigrationPhase::Resumed);
    }
    // Retried deliveries re-enter admission as arrivals of their own.
    assert_conservation(
        &f,
        &report,
        stream.len() as u64 + retry.scheduled,
        6 * PREPAID,
    );
    assert_eq!(f.home_node(2), Some(specs[1].to), "tenant 2 moved");
    assert_eq!(f.home_node(1), Some(specs[2].to), "tenant 1 hopped back");
}

#[test]
fn a_schedule_is_consumed_by_exactly_one_open_loop_run() {
    let cfg = FabricConfig::default();
    let p = plan(3, 2_000.0, 6);
    let stream = p.generate();
    let mut f = test_fabric(&cfg, 24, 5);
    f.provision(&p);
    let specs = specs(&f);
    f.schedule_migrations(&specs[..1]).expect("specs valid");
    f.schedule_migrations(&specs[1..2]).expect("calls append");

    // The closed-loop driver fires no cross-node events: the schedule
    // must still be pending afterwards.
    let clients = ClientPlan {
        clients: p
            .tenants
            .iter()
            .map(|t| ClientSpec {
                tenant: t.id,
                model: t.model.clone(),
                think_mean_us: 5_000.0,
                deadline_us: t.deadline_us,
            })
            .collect(),
        duration_us: 100_000,
        seed: 1,
        feature_dim: 0,
        retry: RetryPolicy::default(),
    };
    let closed = f.run_closed_loop(&clients).expect("closed loop");
    assert!(closed.fabric.migrations.is_empty());
    assert_ne!(f.home_node(1), Some(specs[0].to), "nobody moved yet");

    let first = f.run(&stream).expect("first run");
    assert_eq!(first.migrations.len(), 2, "both calls' specs executed");
    assert_eq!(f.home_node(1), Some(specs[0].to));
    let second = f.run_live(&stream, &ExecConfig::default()).expect("rerun");
    assert!(
        second.fabric.migrations.is_empty(),
        "the schedule was consumed by the first run"
    );
}

#[test]
fn a_rejected_run_takes_nothing_from_the_fabric() {
    // Standby capacity provisioned, but no model family installed on any
    // node: every driver must refuse before it touches the standby pool,
    // the schedule or a thread.
    let cfg = FabricConfig {
        controller: ControllerConfig {
            standby_weights: vec![1.0],
            ..ControllerConfig::enabled()
        },
        ..Default::default()
    };
    let fleets = Fleet::generate(24, &default_mix(), 5).partition(4);
    let mut f = ServeFabric::new(&cfg, fleets);
    let p = plan(9, 1_000.0, 4);
    f.provision(&p);
    let stream = p.generate();
    let census = f.quota_census();
    assert_eq!(f.standby().len(), 1);

    assert_eq!(f.run(&stream).unwrap_err(), ServeError::NoFamilies);
    assert_eq!(f.standby().len(), 1, "simulator kept the standby pool");
    let live = f.run_live(&stream, &ExecConfig::default());
    assert_eq!(live.unwrap_err(), ServeError::NoFamilies);
    assert_eq!(
        f.standby().len(),
        1,
        "threaded backend kept the standby pool"
    );
    assert_eq!(f.quota_census(), census, "nothing was billed");
    assert_eq!(f.verify_chains(test_meter_key).expect("chains intact"), 4);
}
