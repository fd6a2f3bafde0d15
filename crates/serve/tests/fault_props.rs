//! Property tests for the fault-injection plane and self-healing fabric.
//!
//! The contracts under test:
//!
//! * **Conservation across failover** — an injected node crash with real
//!   in-flight and queued work loses nothing: every admitted-then-killed
//!   request resolves as a refunded failover shed (`unrefunded_sheds()
//!   == 0`, `refunds_balance()`), the fleet-wide prepaid census stays
//!   exact (spent + left == credited), and every evacuated tenant's
//!   audit chain still verifies — now carrying a domain-separated
//!   `Failover` entry sealed by the survivor.
//! * **Backend parity** — the same `FaultPlan` (crashes, stalls,
//!   slowdowns) replays bit-identically on the simulator and the
//!   threaded backend in `ExecMode::Replay`, with and without
//!   concurrent live migrations.
//! * **Genuine death containment** — a `DispatchPanic` worker death
//!   (threaded only) surfaces as a structured `NodeFailure` instead of
//!   poisoning the run, even with capacity-1 queues and a migration
//!   drain racing the dead node (`close_and_clear` releases the
//!   buffered drain's reply channel, so the feeder never deadlocks).
//! * **Off means off** — a default (disabled) plan and an armed-but-
//!   empty plan are byte-identical to a run with no fault plane at all.

use proptest::prelude::*;
use tinymlops_serve::testkit::{
    assert_conservation, test_fabric as fabric, test_meter_key as key_of,
};
use tinymlops_serve::{
    ExecConfig, ExecMode, FabricConfig, FaultEvent, FaultKind, FaultPlan, LoadPlan, MigrationSpec,
    TenantSpec,
};

fn plan(seed: u64, rps: f64, prepaid: u64, tenants: u32, deadline_us: u64) -> LoadPlan {
    LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / f64::from(tenants),
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: prepaid,
                deadline_us,
            })
            .collect(),
        duration_us: 1_000_000,
        seed,
        feature_dim: 0,
    }
}

#[test]
fn crash_with_inflight_work_conserves_everything() {
    // Crash a loaded node mid-stream: its queued + dispatched work must
    // resolve as refunded failover sheds, every tenant must land on a
    // survivor, and every audit chain (now with Failover entries) must
    // still verify under the tenant's key.
    let cfg = FabricConfig {
        node_weights: vec![1.0, 1.0, 1.0],
        fault: FaultPlan::with_events(vec![FaultEvent {
            node: 1,
            at_us: 400_000,
            kind: FaultKind::Crash,
        }]),
        ..Default::default()
    };
    let tenants = 12u32;
    let prepaid = 100_000u64;
    let p = plan(23, 6_000.0, prepaid, tenants, 200_000);
    let stream = p.generate();
    let mut f = fabric(&cfg, 30, 5);
    f.provision(&p);
    let doomed: Vec<u32> = (1..=tenants)
        .filter(|t| f.home_node(*t) == Some(1))
        .collect();
    assert!(!doomed.is_empty(), "node 1 must be hosting tenants");
    let report = f.run(&stream).expect("crash run");
    assert!(
        report.fleet.shed_by(tinymlops_serve::ShedReason::Failover) > 0,
        "a loaded node's death must kill real in-flight work"
    );
    assert_conservation(
        &f,
        &report,
        stream.len() as u64,
        prepaid * u64::from(tenants),
    );
    for t in &doomed {
        let home = f.home_node(*t).expect("evacuated tenant still homed");
        assert_ne!(home, 1, "tenant {t} must leave the dead node");
    }
    let checked = f.verify_chains(key_of).expect("chains verify");
    assert_eq!(checked, tenants as usize);
    // The survivor sealed the emergency handoff into each moved chain.
    for node in f.nodes() {
        for (tenant, account) in node.plane.gateway.accounts() {
            if doomed.contains(&tenant) {
                assert!(
                    account.quota.log().failover_count() >= 1,
                    "tenant {tenant} moved without a Failover chain entry"
                );
            }
        }
    }
}

#[test]
fn fault_runs_replay_bit_identically_on_the_live_backend() {
    // Crash + stall + slowdown in one plan, driven through both
    // backends on identically-built fabrics: reports and quota censuses
    // must match bit-for-bit.
    let fault = FaultPlan::with_events(vec![
        FaultEvent {
            node: 0,
            at_us: 300_000,
            kind: FaultKind::Crash,
        },
        FaultEvent {
            node: 1,
            at_us: 150_000,
            kind: FaultKind::Stall { until_us: 220_000 },
        },
        FaultEvent {
            node: 2,
            at_us: 0,
            kind: FaultKind::SlowNode { multiplier: 1.7 },
        },
    ]);
    let cfg = FabricConfig {
        node_weights: vec![1.0, 2.0, 1.0],
        fault,
        ..Default::default()
    };
    let p = plan(31, 5_000.0, 50_000, 10, 100_000);
    let stream = p.generate();
    let mut sim = fabric(&cfg, 30, 5);
    sim.provision(&p);
    let sim_report = sim.run(&stream).expect("sim fault run");
    let mut live = fabric(&cfg, 30, 5);
    live.provision(&p);
    let live_report = live
        .run_live(&stream, &ExecConfig::default())
        .expect("live fault run");
    assert_eq!(
        live_report.fabric, sim_report,
        "fault replay diverged between backends"
    );
    assert!(live_report.failures.is_empty(), "a crash is not a panic");
    assert_eq!(live.quota_census(), sim.quota_census());
}

#[test]
fn disabled_and_armed_empty_plans_change_nothing() {
    // PR 6 observer discipline, extended to the fault plane: a disabled
    // plan and an enabled-but-empty plan must both be byte-identical to
    // a fabric that predates the fault plane entirely.
    let p = plan(47, 3_000.0, 50_000, 8, 100_000);
    let stream = p.generate();
    let run_with = |fault: FaultPlan| {
        let cfg = FabricConfig {
            fault,
            ..Default::default()
        };
        let mut f = fabric(&cfg, 30, 5);
        f.provision(&p);
        f.run(&stream).expect("run")
    };
    let off = run_with(FaultPlan::default());
    let armed = run_with(FaultPlan::armed());
    assert_eq!(off, armed, "an empty armed plan must cost nothing");
}

#[test]
fn panicked_worker_is_contained_even_at_capacity_one_with_a_racing_drain() {
    // The dead-worker satellite: a DispatchPanic kills node 1's worker
    // for real while a migration *into* node 1 is scheduled right
    // behind it, all over capacity-1 queues. The worker's CloseOnExit
    // guard runs `close_and_clear`, dropping any buffered drain reply
    // sender — so the coordinating feeder must return (no deadlock),
    // report exactly one structured NodeFailure, and keep the surviving
    // accounts' books exact (no double billing).
    let cfg = FabricConfig {
        node_weights: vec![1.0, 1.0, 1.0],
        fault: FaultPlan::with_events(vec![FaultEvent {
            node: 1,
            at_us: 200_000,
            kind: FaultKind::DispatchPanic,
        }]),
        ..Default::default()
    };
    let p = plan(11, 4_000.0, 50_000, 9, 200_000);
    let stream = p.generate();
    let mut f = fabric(&cfg, 30, 5);
    f.provision(&p);
    let survivor_tenant = (1..=9)
        .find(|t| f.home_node(*t) != Some(1))
        .expect("some tenant lives off the doomed node");
    let specs = vec![MigrationSpec {
        tenant: survivor_tenant,
        to: 1,
        trigger_us: 250_000,
    }];
    f.schedule_migrations(&specs).expect("specs valid");
    let report = f
        .run_live(
            &stream,
            &ExecConfig {
                mode: ExecMode::Replay,
                queue_capacity: 1,
            },
        )
        .expect("run completes despite the dead worker");
    let records = &report.fabric.migrations;
    assert_eq!(report.failures.len(), 1, "exactly one worker died");
    assert_eq!(report.failures[0].node, 1);
    assert!(
        report.failures[0].reason.contains("dispatch panic"),
        "panic payload surfaces: {:?}",
        report.failures[0].reason
    );
    assert_eq!(records.len(), 1, "the migration record still comes back");
    // The dead node's telemetry shard folds into its sink while the
    // worker unwinds, so its pre-panic admissions still reach the fleet
    // report: the merged counter equals every account's lifetime
    // admissions — the dead node's included, plus the migrating account's
    // if it left its source and was lost with the dead destination.
    let admitted_on = |dead: bool| -> u64 {
        f.nodes()
            .iter()
            .filter(|n| (n.id == 1) == dead)
            .flat_map(|n| n.plane.gateway.accounts())
            .map(|(_, account)| account.admitted)
            .sum()
    };
    assert!(admitted_on(true) > 0, "node 1 admitted work before it died");
    let lost_in_handoff = if f.home_node(survivor_tenant).is_some()
        && f.nodes()
            .iter()
            .all(|n| n.plane.gateway.tenant(survivor_tenant).is_none())
    {
        records[0].admitted_before_handoff
    } else {
        0
    };
    assert_eq!(
        report.fabric.telemetry.counters["serve.admitted"],
        admitted_on(true) + admitted_on(false) + lost_in_handoff,
        "the unwind flush landed the dead node's counters"
    );
    // Survivors' books stay exact: each untouched account's net spend
    // equals its served count, and its chain still verifies.
    for node in f.nodes() {
        if node.id == 1 {
            continue;
        }
        for (tenant, account) in node.plane.gateway.accounts() {
            account.quota.log().verify(&key_of(tenant)).unwrap();
            let consumed = account.quota.log().query_count();
            let refunded = account.quota.log().refund_count();
            assert!(
                consumed >= refunded,
                "tenant {tenant} was refunded more than it consumed"
            );
            assert_eq!(
                consumed - refunded,
                account.admitted - account.refunded,
                "tenant {tenant}'s chain and counters disagree (double billing)"
            );
        }
    }
}

proptest! {
    /// Random crash plans (node, time, with/without a concurrent
    /// migration) under refund-heavy overload and random queue
    /// capacities: conservation, census exactness and sim ≡ live parity
    /// must all survive.
    #[test]
    fn random_crash_plans_conserve_and_replay_identically(
        seed in 0u64..500,
        crash_node in 0u32..3,
        crash_at in 50_000u64..950_000,
        rps in 2_000.0f64..8_000.0,
        deadline_us in proptest::sample::select(vec![1_500u64, 50_000, 200_000]),
        queue_capacity in proptest::sample::select(vec![1usize, 64, 1024]),
        migrate_too in any::<bool>(),
    ) {
        let fault = FaultPlan::with_events(vec![FaultEvent {
            node: crash_node,
            at_us: crash_at,
            kind: FaultKind::Crash,
        }]);
        let cfg = FabricConfig {
            node_weights: vec![1.0, 1.0, 1.0],
            fault,
            ..Default::default()
        };
        let tenants = 9u32;
        let prepaid = 50_000u64;
        let p = plan(seed, rps, prepaid, tenants, deadline_us);
        let stream = p.generate();
        let mut sim = fabric(&cfg, 30, 5);
        sim.provision(&p);
        // Optionally race a migration against the crash; destinations
        // are picked off the doomed node so the spec stays executable
        // (a dead destination freezes the record instead).
        let specs: Vec<MigrationSpec> = if migrate_too {
            vec![MigrationSpec {
                tenant: 1 + (seed % u64::from(tenants)) as u32,
                to: (crash_node + 1) % 3,
                trigger_us: crash_at.saturating_sub(20_000),
            }]
        } else {
            Vec::new()
        };
        sim.schedule_migrations(&specs).expect("specs valid");
        let sim_report = sim.run(&stream).expect("sim");
        assert_conservation(&sim, &sim_report, stream.len() as u64,
                            prepaid * u64::from(tenants));
        prop_assert_eq!(sim.verify_chains(key_of).expect("chains"), tenants as usize);
        // Every tenant must be homed on a survivor.
        for t in 1..=tenants {
            prop_assert_ne!(sim.home_node(t), Some(crash_node));
        }
        let mut live = fabric(&cfg, 30, 5);
        live.provision(&p);
        live.schedule_migrations(&specs).expect("specs valid");
        let live_report = live
            .run_live(&stream, &ExecConfig { mode: ExecMode::Replay, queue_capacity })
            .expect("live");
        prop_assert!(live_report.failures.is_empty());
        prop_assert_eq!(&live_report.fabric.migrations, &sim_report.migrations);
        prop_assert_eq!(live_report.fabric, sim_report);
        prop_assert_eq!(live.quota_census(), sim.quota_census());
    }

    /// Stalls and slowdowns never lose work and stay bit-identical
    /// across backends, whatever their windows.
    #[test]
    fn random_stall_and_slowdown_plans_replay_identically(
        seed in 0u64..500,
        node in 0u32..3,
        at in 0u64..800_000,
        width in 0u64..300_000,
        multiplier in 1.0f64..4.0,
    ) {
        let fault = FaultPlan::with_events(vec![
            FaultEvent { node, at_us: at, kind: FaultKind::Stall { until_us: at + width } },
            FaultEvent {
                node: (node + 1) % 3,
                at_us: at / 2,
                kind: FaultKind::SlowNode { multiplier },
            },
        ]);
        let cfg = FabricConfig {
            node_weights: vec![1.0, 1.0, 1.0],
            fault,
            ..Default::default()
        };
        let prepaid = 50_000u64;
        let p = plan(seed, 4_000.0, prepaid, 6, 50_000);
        let stream = p.generate();
        let mut sim = fabric(&cfg, 30, 5);
        sim.provision(&p);
        let sim_report = sim.run(&stream).expect("sim");
        assert_conservation(&sim, &sim_report, stream.len() as u64, prepaid * 6);
        let mut live = fabric(&cfg, 30, 5);
        live.provision(&p);
        let live_report = live.run_live(&stream, &ExecConfig::default()).expect("live");
        prop_assert_eq!(live_report.fabric, sim_report);
    }
}
