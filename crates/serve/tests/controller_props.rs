//! Property tests for the autonomous fleet controller.
//!
//! The contracts under test:
//!
//! * **Determinism** — the same configuration and workload produce the
//!   same decisions, byte for byte: two fresh simulator runs agree on
//!   the full report *including the control log*, and the threaded
//!   backend in `ExecMode::Replay` is bit-identical to the simulator
//!   (reports, migration records, control records, quota censuses) —
//!   via [`tinymlops_serve::testkit::assert_sim_live_parity`].
//! * **Cooldowns** — the decision log never ping-pongs: a tenant the
//!   controller moved stays put for `tenant_cooldown_us`, and topology
//!   changes (join/drain) are at least `scale_cooldown_us` apart.
//! * **Offline safety** — after a crash, no control decision references
//!   the dead node: not as a migration source or destination, not as a
//!   relief-move target, not as a brownout nudgee.
//! * **Conservation** — controller-initiated migrations and topology
//!   changes lose nothing: every arrival resolves, every downstream
//!   shed refunds, the prepaid census stays exact and every audit
//!   chain (with its handoff entries) verifies.
//! * **Off is off** — an armed controller whose thresholds can never
//!   trip is byte-identical to a disabled one.
//! * **Traffic-weighted caps** — with a non-empty ledger, bounded-load
//!   caps measured in traffic units hold across join/leave/pin churn,
//!   and a node join actually relieves a node pushed over its cap by
//!   pinned tenants (the `enforce_caps` regression).

use proptest::prelude::*;
use std::collections::BTreeMap;
use tinymlops_serve::testkit::{assert_conservation, assert_sim_live_parity, test_fabric};
use tinymlops_serve::{
    ControlAction, ControlRecord, ControllerConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan,
    GatewayConfig, LoadPlan, MigrationSpec, NodeId, Request, ServeConfig, ServeFabric, TenantSpec,
};

const PREPAID: u64 = 1_000_000_000;

/// A load plan where tenant 1 carries `hot_share` of the total rate and
/// the rest split the remainder — the skew that makes one node hot.
fn skewed_plan(seed: u64, rps: f64, tenants: u32, hot_share: f64, deadline_us: u64) -> LoadPlan {
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

/// A baseline stream with a burst spliced in at `offset_us`, re-keyed
/// so request ids stay monotone in arrival order (the e20 flash-crowd
/// shape).
fn surge_stream(base: &LoadPlan, burst: &LoadPlan, offset_us: u64) -> Vec<Request> {
    let mut stream = base.generate();
    stream.extend(burst.generate().into_iter().map(|mut r| {
        r.arrival_us += offset_us;
        r
    }));
    stream.sort_by_key(|r| r.arrival_us);
    for (i, r) in stream.iter_mut().enumerate() {
        r.id = i as u64;
    }
    stream
}

/// A small-ceiling fabric config (pressure and sheds come easily) with
/// the controller armed over `standby` spare nodes.
fn controlled_cfg(nodes: usize, standby_weights: Vec<f64>) -> FabricConfig {
    FabricConfig {
        node_weights: vec![1.0; nodes],
        serve: ServeConfig {
            gateway: GatewayConfig {
                max_pending_per_tenant: 24,
                max_total_pending: 64,
            },
            ..Default::default()
        },
        controller: ControllerConfig {
            interval_us: 100_000,
            tenant_cooldown_us: 250_000,
            scale_cooldown_us: 300_000,
            standby_weights,
            ..ControllerConfig::enabled()
        },
        ..Default::default()
    }
}

/// Every node a control record touches, as (node, is_destination).
fn touched_nodes(action: &ControlAction) -> Vec<NodeId> {
    match action {
        ControlAction::Migrate { from, to, .. } => vec![*from, *to],
        ControlAction::Join { node, moves, .. } | ControlAction::Drain { node, moves } => {
            let mut out = vec![*node];
            out.extend(moves.iter().map(|(_, dest)| *dest));
            out
        }
        ControlAction::Brownout { node, .. } => vec![*node],
    }
}

/// Every tenant a control record moved.
fn moved_tenants(action: &ControlAction) -> Vec<u32> {
    match action {
        ControlAction::Migrate { tenant, .. } => vec![*tenant],
        ControlAction::Join { moves, .. } | ControlAction::Drain { moves, .. } => {
            moves.iter().map(|(t, _)| *t).collect()
        }
        ControlAction::Brownout { .. } => vec![],
    }
}

/// The anti-ping-pong laws over a decision log: per-tenant *policy*
/// moves (hot-tenant migrations, join relief) at least
/// `tenant_cooldown_us` apart, topology changes at least
/// `scale_cooldown_us` apart. Drain moves are forced evacuations — the
/// node is leaving, cooldown or not — so they reset a tenant's clock
/// but are never themselves violations.
fn assert_cooldowns(control: &[ControlRecord], cfg: &ControllerConfig) {
    let mut last_move: BTreeMap<u32, u64> = BTreeMap::new();
    let mut last_scale: Option<u64> = None;
    for record in control {
        let forced = matches!(record.action, ControlAction::Drain { .. });
        for tenant in moved_tenants(&record.action) {
            if let Some(prev) = last_move.insert(tenant, record.at_us) {
                assert!(
                    forced || record.at_us - prev >= cfg.tenant_cooldown_us,
                    "tenant {} moved twice within the cooldown ({} then {})",
                    tenant,
                    prev,
                    record.at_us
                );
            }
        }
        if matches!(
            record.action,
            ControlAction::Join { .. } | ControlAction::Drain { .. }
        ) {
            if let Some(prev) = last_scale.replace(record.at_us) {
                assert!(
                    record.at_us - prev >= cfg.scale_cooldown_us,
                    "topology changed twice within the scale cooldown ({prev} then {})",
                    record.at_us
                );
            }
        }
    }
}

/// Traffic-unit load per node, derived from the fabric's own ledger.
fn unit_loads(f: &ServeFabric, tenants: u32) -> BTreeMap<NodeId, u64> {
    let mut loads: BTreeMap<NodeId, u64> = BTreeMap::new();
    for t in 1..=tenants {
        if let Some(node) = f.home_node(t) {
            *loads.entry(node).or_default() += f.traffic().weight(t);
        }
    }
    loads
}

/// Assert every node's traffic-unit load is within its bounded cap,
/// modulo the one-placement overshoot the admission rule allows (a
/// tenant admitted while the node was under cap may carry it past by
/// less than its own weight).
fn assert_unit_caps(f: &ServeFabric, tenants: u32, load_factor: f64, label: &str) {
    let total: u64 = (1..=tenants).map(|t| f.traffic().weight(t)).sum();
    let heaviest: u64 = (1..=tenants)
        .map(|t| f.traffic().weight(t))
        .max()
        .unwrap_or(0);
    let caps: BTreeMap<NodeId, usize> = f
        .shard_router
        .bounded_caps(total as usize, load_factor)
        .into_iter()
        .collect();
    for (node, load) in unit_loads(f, tenants) {
        let cap = caps.get(&node).copied().unwrap_or(usize::MAX);
        assert!(
            (load as usize) < cap.saturating_add(heaviest as usize),
            "{label}: node {node} carries {load} units, cap {cap} + heaviest {heaviest}"
        );
    }
}

#[test]
fn surge_scales_up_then_down_deterministically_and_in_parity() {
    // A flash crowd against two active nodes with one standby: the
    // controller must join the spare under sustained pressure and drain
    // it again in the quiet tail — and every bit of it must agree
    // between two simulator runs and across backends.
    let cfg = controlled_cfg(2, vec![1.0]);
    let base = skewed_plan(11, 600.0, 8, 0.4, 40_000);
    let burst = LoadPlan {
        seed: 12,
        duration_us: 250_000,
        ..skewed_plan(12, 14_000.0, 8, 0.4, 40_000)
    };
    let stream = surge_stream(&base, &burst, 100_000);

    let outcome = assert_sim_live_parity(
        || {
            let mut f = test_fabric(&cfg, 24, 5);
            f.provision(&base);
            f
        },
        &stream,
        &[],
    );

    // Two fresh simulator runs agree byte for byte (control log included).
    let mut again = test_fabric(&cfg, 24, 5);
    again.provision(&base);
    let report2 = again.run(&stream).expect("rerun");
    assert_eq!(
        report2, outcome.report,
        "controller decisions (and the moves they caused) are deterministic"
    );

    let joins = outcome
        .report
        .control
        .iter()
        .filter(|r| matches!(r.action, ControlAction::Join { .. }))
        .count();
    let drains = outcome
        .report
        .control
        .iter()
        .filter(|r| matches!(r.action, ControlAction::Drain { .. }))
        .count();
    assert!(joins >= 1, "the surge must trigger a scale-up");
    assert!(drains >= 1, "the quiet tail must trigger a scale-down");
    assert_cooldowns(&outcome.report.control, &cfg.controller);
    assert_conservation(
        &outcome.sim,
        &outcome.report,
        stream.len() as u64,
        u64::from(8u32) * PREPAID,
    );
    // Drained spare is back in standby, ready for the next surge.
    assert_eq!(outcome.sim.standby().len(), 1);
    assert_eq!(outcome.live.standby().len(), 1);
}

#[test]
fn hot_tenant_rebalance_fires_and_respects_cooldowns() {
    // No standby: the only lever is the hot-tenant migration. A heavily
    // skewed tenant sheds on its home node while the others idle; the
    // controller must move load off the hot node, and never ping-pong.
    let cfg = controlled_cfg(3, vec![]);
    let base = skewed_plan(29, 800.0, 9, 0.6, 40_000);
    let burst = LoadPlan {
        seed: 31,
        duration_us: 400_000,
        ..skewed_plan(31, 9_000.0, 9, 0.6, 40_000)
    };
    let stream = surge_stream(&base, &burst, 100_000);

    let outcome = assert_sim_live_parity(
        || {
            let mut f = test_fabric(&cfg, 24, 7);
            f.provision(&base);
            f
        },
        &stream,
        &[],
    );
    let migrates = outcome
        .report
        .control
        .iter()
        .filter(|r| matches!(r.action, ControlAction::Migrate { .. }))
        .count();
    assert!(
        migrates >= 1,
        "a skewed surge with no spare capacity must trigger a hot-tenant move; log: {:?}",
        outcome.report.control
    );
    assert_cooldowns(&outcome.report.control, &cfg.controller);
    // Controller-initiated moves show up as ordinary migration records,
    // and each completed its state machine.
    assert_eq!(outcome.report.migrations.len(), migrates);
    assert_conservation(
        &outcome.sim,
        &outcome.report,
        stream.len() as u64,
        u64::from(9u32) * PREPAID,
    );
}

#[test]
fn controller_never_targets_an_offline_node() {
    // Crash a node mid-surge with the controller armed: every decision
    // logged at or after the crash instant must avoid the dead node
    // entirely, and the run still replays bit-identically live.
    let crash_at = 300_000u64;
    let mut cfg = controlled_cfg(3, vec![1.0]);
    cfg.fault = FaultPlan::with_events(vec![FaultEvent {
        node: 1,
        at_us: crash_at,
        kind: FaultKind::Crash,
    }]);
    let base = skewed_plan(43, 900.0, 8, 0.5, 40_000);
    let burst = LoadPlan {
        seed: 44,
        duration_us: 300_000,
        ..skewed_plan(44, 10_000.0, 8, 0.5, 40_000)
    };
    let stream = surge_stream(&base, &burst, 150_000);

    let outcome = assert_sim_live_parity(
        || {
            let mut f = test_fabric(&cfg, 24, 3);
            f.provision(&base);
            f
        },
        &stream,
        &[],
    );
    for record in &outcome.report.control {
        if record.at_us >= crash_at {
            assert!(
                !touched_nodes(&record.action).contains(&1),
                "decision at {} touches the crashed node: {:?}",
                record.at_us,
                record.action
            );
        }
    }
    for record in &outcome.report.migrations {
        if record.trigger_us >= crash_at {
            assert_ne!(record.to, 1, "no migration may land on the dead node");
        }
    }
    assert_cooldowns(&outcome.report.control, &cfg.controller);
    assert_conservation(
        &outcome.sim,
        &outcome.report,
        stream.len() as u64,
        u64::from(8u32) * PREPAID,
    );
}

#[test]
fn armed_but_untrippable_controller_is_byte_identical_to_off() {
    // Same workload, same fabric; one run with the controller disabled,
    // one with it armed but thresholds no sample can reach. The two
    // reports — every counter, histogram, trace and the (empty) control
    // log — must be byte-identical on both backends.
    let base = skewed_plan(53, 2_500.0, 8, 0.4, 30_000);
    let stream = base.generate();
    let cfg_of = |controller: ControllerConfig| FabricConfig {
        node_weights: vec![1.0; 3],
        serve: ServeConfig {
            gateway: GatewayConfig {
                max_pending_per_tenant: 24,
                max_total_pending: 64,
            },
            ..Default::default()
        },
        controller,
        ..Default::default()
    };
    let idle = ControllerConfig {
        enabled: true,
        high_pressure: f64::INFINITY,
        high_shed_rate: f64::INFINITY,
        low_pressure: -1.0,
        ..ControllerConfig::default()
    };
    let run = |cfg: &FabricConfig, live: bool| {
        let mut f = test_fabric(cfg, 24, 9);
        f.provision(&base);
        if live {
            f.run_live(&stream, &Default::default())
                .expect("live run")
                .fabric
        } else {
            f.run(&stream).expect("sim run")
        }
    };
    let off_cfg = cfg_of(ControllerConfig::default());
    let idle_cfg = cfg_of(idle);
    let off = run(&off_cfg, false);
    let armed = run(&idle_cfg, false);
    assert!(
        armed.control.is_empty(),
        "an untrippable controller decides nothing"
    );
    assert_eq!(
        armed, off,
        "armed-but-idle must be byte-identical to off (sim)"
    );
    let off_live = run(&off_cfg, true);
    let armed_live = run(&idle_cfg, true);
    assert_eq!(
        armed_live, off_live,
        "armed-but-idle must be byte-identical to off (live)"
    );
}

#[test]
fn join_relieves_a_node_pushed_over_cap_by_pins() {
    // The enforce_caps regression: migrations pin tenants wherever the
    // operator (or controller) put them, and pins bypass the bounded
    // cap. Pile pinned tenants onto node 0 until it is over its cap,
    // then join a node — the rebalance must re-run cap enforcement and
    // actually relieve node 0, not just seed the pins back.
    let tenants = 8u32;
    let load_factor = 1.0;
    let cfg = FabricConfig {
        node_weights: vec![1.0, 1.0],
        load_factor,
        // Armed but untrippable: ticks fold the traffic ledger (so caps
        // are genuinely traffic-weighted) without the controller acting.
        controller: ControllerConfig {
            enabled: true,
            high_pressure: f64::INFINITY,
            high_shed_rate: f64::INFINITY,
            low_pressure: -1.0,
            ..ControllerConfig::default()
        },
        ..Default::default()
    };
    let plan = skewed_plan(61, 2_000.0, tenants, 0.3, 40_000);
    let mut f = test_fabric(&cfg, 16, 11);
    f.provision(&plan);
    let stream = plan.generate();
    // Pin six of the eight tenants onto node 0 mid-run.
    let specs: Vec<MigrationSpec> = (1..=6)
        .map(|t| MigrationSpec {
            tenant: t,
            to: 0,
            trigger_us: 200_000 + u64::from(t) * 50_000,
        })
        .collect();
    f.schedule_migrations(&specs).expect("specs valid");
    f.run(&stream).expect("pinning run");
    assert!(
        !f.traffic().is_empty(),
        "controller ticks folded the ledger"
    );

    let total: u64 = (1..=tenants).map(|t| f.traffic().weight(t)).sum();
    let cap0 = f
        .shard_router
        .bounded_caps(total as usize, load_factor)
        .into_iter()
        .find(|(n, _)| *n == 0)
        .map(|(_, c)| c)
        .expect("node 0 is live");
    let before = unit_loads(&f, tenants).get(&0).copied().unwrap_or(0);
    assert!(
        before as usize > cap0,
        "setup must leave node 0 over cap ({before} units vs cap {cap0})"
    );

    let extra = tinymlops_device::Fleet::generate(8, &tinymlops_device::default_mix(), 13);
    let (_, moved) = f.add_node(1.0, extra);
    assert!(
        moved > 0,
        "the join must move tenants off the over-cap node"
    );
    let after = unit_loads(&f, tenants).get(&0).copied().unwrap_or(0);
    assert!(
        after < before,
        "node 0 must shed load at the join ({before} -> {after})"
    );
    assert_unit_caps(&f, tenants, load_factor, "after join");
}

proptest! {
    /// Any surge shape, any spare capacity: controlled runs replay
    /// bit-identically across backends and hold every conservation and
    /// cooldown law.
    #[test]
    fn controlled_runs_hold_all_laws_under_random_surges(
        seed in 0u64..100,
        burst_rps in proptest::sample::select(vec![6_000.0f64, 11_000.0, 16_000.0]),
        offset_us in 50_000u64..400_000,
        hot_share in proptest::sample::select(vec![0.2f64, 0.5, 0.7]),
        standby in 0usize..2,
        tenants in 6u32..10,
    ) {
        let cfg = controlled_cfg(2, vec![1.0; standby]);
        let base = skewed_plan(seed, 1_200.0, tenants, hot_share, 40_000);
        let burst = LoadPlan {
            seed: seed + 1,
            duration_us: 200_000,
            ..skewed_plan(seed + 1, burst_rps, tenants, hot_share, 40_000)
        };
        let stream = surge_stream(&base, &burst, offset_us);
        let outcome = assert_sim_live_parity(
            || {
                let mut f = test_fabric(&cfg, 18, seed.wrapping_mul(31) % 17);
                f.provision(&base);
                f
            },
            &stream,
            &[],
        );
        assert_cooldowns(&outcome.report.control, &cfg.controller);
        for record in &outcome.report.control {
            for node in touched_nodes(&record.action) {
                prop_assert!(
                    (node as usize) < 2 + standby,
                    "decision touches a node that never existed: {:?}", record.action
                );
            }
        }
        assert_conservation(
            &outcome.sim,
            &outcome.report,
            stream.len() as u64,
            u64::from(tenants) * PREPAID,
        );
        // The standby pool is whole again: every joined node either
        // drained back or is still live in the router.
        let live_now = outcome.sim.shard_router.nodes().len();
        prop_assert_eq!(live_now + outcome.sim.standby().len(), 2 + standby);
    }

    /// Traffic-weighted caps hold across join/leave churn layered over
    /// pin churn, for any load factor — the bounded-load law restated
    /// in traffic units on a warm ledger.
    #[test]
    fn traffic_caps_hold_across_join_leave_pin_churn(
        seed in 0u64..100,
        load_factor in proptest::sample::select(vec![1.0f64, 1.25, 2.0, f64::INFINITY]),
        join_weight in proptest::sample::select(vec![0.5f64, 1.0, 2.0]),
        pins in proptest::collection::vec((1u32..12, 0u32..3), 0..4),
        tenants in 8u32..12,
    ) {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            load_factor,
            controller: ControllerConfig {
                enabled: true,
                high_pressure: f64::INFINITY,
                high_shed_rate: f64::INFINITY,
                low_pressure: -1.0,
                ..ControllerConfig::default()
            },
            ..Default::default()
        };
        let plan = skewed_plan(seed, 2_500.0, tenants, 0.5, 40_000);
        let mut f = test_fabric(&cfg, 18, seed % 7);
        f.provision(&plan);
        let stream = plan.generate();
        // Pin churn: operator migrations mid-run (ids clamped to live
        // tenants, targets to live nodes).
        let specs: Vec<MigrationSpec> = pins
            .iter()
            .enumerate()
            .map(|(i, (t, to))| MigrationSpec {
                tenant: (t % tenants) + 1,
                to: *to,
                trigger_us: 150_000 + i as u64 * 120_000,
            })
            .collect();
        f.schedule_migrations(&specs).expect("specs valid");
        f.run(&stream).expect("churn run");
        prop_assert!(!f.traffic().is_empty());
        // No cap claim *here*: mid-run pins bypass caps and the ledger
        // drifts between rebalances. The law is that the next topology
        // change restores the bound.

        let extra = tinymlops_device::Fleet::generate(
            6,
            &tinymlops_device::default_mix(),
            seed + 21,
        );
        let (new_id, _) = f.add_node(join_weight, extra);
        assert_unit_caps(&f, tenants, load_factor, "after join");
        f.remove_node(new_id).expect("node exists");
        assert_unit_caps(&f, tenants, load_factor, "after leave");
    }
}
