//! E21 — autonomous fleet controller: telemetry-driven migration and
//! elastic scaling against a standby pool.
//!
//! PR 9's `serve::controller` closes the loop the observability plane
//! opened: a `FleetController` on the fabric's logical clock samples
//! every node at a fixed control interval and actuates the primitives
//! earlier PRs built — live migrations for hot tenants, node join /
//! drain against standby capacity, brownout floors — under hysteresis
//! and cooldowns. Sections:
//!
//! * (a) **flash crowd + diurnal ramp absorbed** — a stepped mid-day
//!   ramp with a flash crowd on its peak overruns three active nodes;
//!   the controller must scale up into the standby pool (≥ 1 join),
//!   hold the SLO gates (p99 + shed-rate), and scale back down in the
//!   quiet tail (≥ 1 drain) — elasticity inside one stream.
//! * (b) **controller beats static provisioning** — the identical
//!   stream against the identical hardware with the controller off
//!   breaches the shed-rate gate and serves strictly less.
//! * (c) **backend parity** — a controlled run (joins, drains, hot
//!   moves and all) replays bit-identically on the threaded backend:
//!   same report, same migration records, same control log.
//! * (d) **off is off** — an armed controller whose thresholds can
//!   never trip is byte-identical to a disabled one.
//!
//! `--quick` shrinks the streams to CI-smoke size (same JSON schema).

use tinymlops_bench::{fmt, print_table, save_json, synthetic_family};
use tinymlops_device::{ClassMix, DeviceClass, Fleet};
use tinymlops_serve::testkit::{assert_conservation, assert_sim_live_parity};
use tinymlops_serve::{
    ControlAction, ControllerConfig, FabricConfig, GatewayConfig, LoadPlan, Request, ServeConfig,
    ServeFabric, TenantSpec,
};

const SEED: u64 = 21;
const TENANTS: u32 = 12;
const PREPAID: u64 = 10_000_000;
/// SLO gates for the controlled run (section a).
const P99_GATE_MS: f64 = 30.0;
const SHED_GATE: f64 = 0.02;

/// A homogeneous device mix: every partition (active or standby) gets
/// comparable capacity, so node weight 1.0 is truthful and controller
/// placement reasons about load, not accidental hardware skew.
fn uniform_mix() -> ClassMix {
    [
        (DeviceClass::McuM7, 1.0),
        (DeviceClass::McuM7, 0.0),
        (DeviceClass::McuM7, 0.0),
        (DeviceClass::McuM7, 0.0),
        (DeviceClass::McuM7, 0.0),
        (DeviceClass::McuM7, 0.0),
    ]
}

fn fabric(cfg: &FabricConfig, fleet_size: usize) -> ServeFabric {
    let partitions = cfg.node_weights.len() + cfg.controller.standby_weights.len();
    let fleets = Fleet::generate(fleet_size, &uniform_mix(), SEED).partition(partitions);
    let mut f = ServeFabric::new(cfg, fleets);
    f.install_family("kws", synthetic_family("kws", 0));
    f.install_family("vision", synthetic_family("vision", 100));
    f
}

fn plan(seed: u64, rps: f64, duration_us: u64, deadline_us: u64) -> LoadPlan {
    LoadPlan {
        tenants: (0..TENANTS)
            .map(|i| TenantSpec {
                id: i + 1,
                // Tenant 1 carries a triple share — the skew that gives
                // the controller a hot tenant worth moving.
                rate_rps: rps * if i == 0 { 3.0 } else { 1.0 } / f64::from(TENANTS + 2),
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: PREPAID,
                deadline_us,
            })
            .collect(),
        duration_us,
        seed,
        feature_dim: 0,
    }
}

/// The diurnal workload: a low baseline over the whole day, a stepped
/// mid-day ramp, and a flash crowd right on the peak. The tail (the
/// last ~45%) is baseline-only so the controller has a quiet window to
/// scale back down *inside the stream*.
fn diurnal_stream(duration_us: u64, deadline_us: u64, scale: f64) -> Vec<Request> {
    let mut stream = plan(SEED, 800.0 * scale, duration_us, deadline_us).generate();
    // (offset fraction x1000, rate, length fraction x1000)
    let segments: [(u64, f64, u64); 4] = [
        (50, 2_000.0, 150),
        (200, 4_000.0, 200),
        (400, 8_000.0, 250),
        (450, 3_000.0, 100), // the flash crowd on the plateau
    ];
    for (i, (off, rps, len)) in segments.into_iter().enumerate() {
        let seg = plan(
            SEED + 1 + i as u64,
            rps * scale,
            duration_us * len / 1000,
            deadline_us,
        );
        let offset = duration_us * off / 1000;
        stream.extend(seg.generate().into_iter().map(|mut r| {
            r.arrival_us += offset;
            r
        }));
    }
    stream.sort_by_key(|r| r.arrival_us);
    for (i, r) in stream.iter_mut().enumerate() {
        r.id = i as u64;
    }
    stream
}

fn controlled_cfg(enabled: bool) -> FabricConfig {
    FabricConfig {
        node_weights: vec![1.0; 3],
        serve: ServeConfig {
            gateway: GatewayConfig {
                max_pending_per_tenant: 64,
                max_total_pending: 64,
            },
            ..Default::default()
        },
        controller: ControllerConfig {
            enabled,
            interval_us: 100_000,
            tenant_cooldown_us: 250_000,
            scale_cooldown_us: 300_000,
            // Both runs keep the same standby pool so the device fleets
            // (and so per-node capacity) are identical; "off" just
            // leaves the spares dark.
            standby_weights: vec![1.0, 1.0],
            ..ControllerConfig::enabled()
        },
        ..Default::default()
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "E21: autonomous fleet controller (elastic scaling + hot-tenant moves){}",
        if quick { " [quick]" } else { "" }
    );

    let fleet_size = if quick { 30 } else { 60 };
    let duration_us = if quick { 2_500_000 } else { 5_000_000 };
    // Rates scale with per-node device count so the ramp straddles the
    // 3-active-node capacity in both modes.
    let scale = if quick { 1.0 } else { 1.4 };
    let deadline_us = 60_000;
    let stream = diurnal_stream(duration_us, deadline_us, scale);
    let base_plan = plan(SEED, 800.0 * scale, duration_us, deadline_us);

    // E21a: the controlled run. Elasticity must happen *and* hold SLOs.
    let cfg_on = controlled_cfg(true);
    let mut on = fabric(&cfg_on, fleet_size);
    on.provision(&base_plan);
    let report_on = on.run(&stream).expect("controlled run");
    let records_on = &report_on.migrations;
    let joins = report_on
        .control
        .iter()
        .filter(|r| matches!(r.action, ControlAction::Join { .. }))
        .count();
    let drains = report_on
        .control
        .iter()
        .filter(|r| matches!(r.action, ControlAction::Drain { .. }))
        .count();
    let moves = report_on
        .control
        .iter()
        .filter(|r| matches!(r.action, ControlAction::Migrate { .. }))
        .count();
    assert!(joins >= 1, "the ramp must push the controller to scale up");
    assert!(
        drains >= 1,
        "the quiet tail must let the controller scale back down"
    );
    assert_eq!(
        on.standby().len(),
        cfg_on.controller.standby_weights.len() + joins - drains,
        "every drained node is back in the standby pool"
    );
    let shed_rate_on = report_on.fleet.shed_total as f64 / stream.len() as f64;
    assert!(
        report_on.fleet.p99_ms <= P99_GATE_MS,
        "p99 SLO breached under control: {} ms > {} ms",
        report_on.fleet.p99_ms,
        P99_GATE_MS
    );
    assert!(
        shed_rate_on <= SHED_GATE,
        "shed-rate SLO breached under control: {shed_rate_on:.4} > {SHED_GATE}"
    );
    assert_conservation(
        &on,
        &report_on,
        stream.len() as u64,
        u64::from(TENANTS) * PREPAID,
    );
    assert!(
        records_on.len() >= moves,
        "every controller-initiated hot-tenant move must surface as a migration record"
    );

    // E21b: identical stream, identical hardware, controller off.
    let cfg_off = controlled_cfg(false);
    let mut off = fabric(&cfg_off, fleet_size);
    off.provision(&base_plan);
    let report_off = off.run(&stream).expect("static run");
    let shed_rate_off = report_off.fleet.shed_total as f64 / stream.len() as f64;
    assert!(
        shed_rate_off > SHED_GATE,
        "static provisioning must breach the shed gate ({shed_rate_off:.4})"
    );
    let controller_wins = report_on.fleet.served > report_off.fleet.served;
    assert!(
        controller_wins,
        "the controller must serve strictly more ({} vs {})",
        report_on.fleet.served, report_off.fleet.served
    );

    let headers_a = [
        "policy",
        "served",
        "shed",
        "shed rate",
        "p99 ms",
        "joins",
        "drains",
        "moves",
        "slo_held",
        "controller_wins",
    ];
    let rows_a = vec![
        vec![
            "static (off)".into(),
            report_off.fleet.served.to_string(),
            report_off.fleet.shed_total.to_string(),
            fmt(shed_rate_off, 4),
            fmt(report_off.fleet.p99_ms, 2),
            "0".into(),
            "0".into(),
            "0".into(),
            if shed_rate_off <= SHED_GATE && report_off.fleet.p99_ms <= P99_GATE_MS {
                "yes"
            } else {
                "NO"
            }
            .into(),
            "-".into(),
        ],
        vec![
            "controlled".into(),
            report_on.fleet.served.to_string(),
            report_on.fleet.shed_total.to_string(),
            fmt(shed_rate_on, 4),
            fmt(report_on.fleet.p99_ms, 2),
            joins.to_string(),
            drains.to_string(),
            moves.to_string(),
            "yes".into(),
            if controller_wins { "yes" } else { "NO" }.into(),
        ],
    ];
    print_table(
        "E21a/b diurnal ramp + flash crowd: controlled vs static",
        &headers_a,
        &rows_a,
    );
    save_json("e21_autoscale_elastic", &headers_a, &rows_a);

    // E21c: backend parity on a controlled run — CI-smoke sized either
    // way, since the live backend runs real threads.
    let parity_duration = 1_500_000;
    let parity_stream = diurnal_stream(parity_duration, deadline_us, 1.0);
    let parity_plan = plan(SEED, 800.0, parity_duration, deadline_us);
    let outcome = assert_sim_live_parity(
        || {
            let mut f = fabric(&cfg_on, 30);
            f.provision(&parity_plan);
            f
        },
        &parity_stream,
        &[],
    );
    let parity_joins = outcome
        .report
        .control
        .iter()
        .filter(|r| matches!(r.action, ControlAction::Join { .. }))
        .count();
    assert!(
        parity_joins >= 1,
        "the parity run must exercise real controller decisions"
    );
    let headers_c = ["stream", "control records", "joins", "identical"];
    let rows_c = vec![vec![
        parity_stream.len().to_string(),
        outcome.report.control.len().to_string(),
        parity_joins.to_string(),
        "yes".into(),
    ]];
    print_table("E21c sim ≡ live parity (controlled)", &headers_c, &rows_c);
    save_json("e21_autoscale_parity", &headers_c, &rows_c);

    // E21d: an armed-but-untrippable controller must be byte-identical
    // to a disabled one — the control plane costs nothing until it acts.
    let mut idle_cfg = controlled_cfg(true);
    idle_cfg.controller.high_pressure = f64::INFINITY;
    idle_cfg.controller.high_shed_rate = f64::INFINITY;
    idle_cfg.controller.low_pressure = -1.0;
    let run_idle = |cfg: &FabricConfig| {
        let mut f = fabric(cfg, 30);
        f.provision(&parity_plan);
        f.run(&parity_stream).expect("identity run")
    };
    let idle = run_idle(&idle_cfg);
    let dark = run_idle(&cfg_off);
    assert!(
        idle.control.is_empty(),
        "an untrippable controller decides nothing"
    );
    let identical = idle == dark;
    assert!(identical, "armed-but-idle must be byte-identical to off");
    let headers_d = ["policy", "served", "shed", "identical"];
    let rows_d = vec![
        vec![
            "disabled".into(),
            dark.fleet.served.to_string(),
            dark.fleet.shed_total.to_string(),
            "-".into(),
        ],
        vec![
            "armed, untrippable".into(),
            idle.fleet.served.to_string(),
            idle.fleet.shed_total.to_string(),
            if identical { "yes" } else { "NO" }.into(),
        ],
    ];
    print_table("E21d disabled ≡ armed-idle identity", &headers_d, &rows_d);
    save_json("e21_autoscale_identity", &headers_d, &rows_d);

    println!("\nE21 complete: elastic scaling held the SLOs, static provisioning did not.");
}
