//! E20 — fault injection + self-healing fabric: crash recovery,
//! retry/backoff, and brownout degradation.
//!
//! PR 7's fault plane makes failure a first-class, *deterministic* input:
//! a seeded `FaultPlan` schedules node crashes, stalls, slowdowns and
//! dispatch panics on the same logical timestamps the serving engines
//! already run on, so a fault run replays bit-identically across the
//! simulator and the threaded backend. Sections:
//!
//! * (a) **crash conservation** — a node dies mid-stream with real queued
//!   and dispatched work; every killed request resolves as a refunded
//!   `Failover` shed, every evacuated tenant lands on a survivor with its
//!   audit chain intact (sealed by a domain-separated `Failover` entry),
//!   and the fleet-wide prepaid census is exact to the query.
//! * (b) **backend parity** — the same crash+stall+slowdown plan produces
//!   bit-identical reports on `ServeFabric::run` and `run_live`.
//! * (c) **off means off** — a disabled plan and an armed-but-empty plan
//!   are byte-identical to each other (the fault plane costs nothing
//!   until it fires; opsbench's `plane.fault_ns_per_req` row bounds the
//!   CPU-time side).
//! * (d) **brownout vs shed-only** — a flash crowd overruns a small
//!   admission ceiling; the degradation ladder (f32 → int8 → int2 via
//!   the router's per-level plans) serves strictly more than pure
//!   shedding and holds tail latency.
//! * (e) **retry/backoff** — a retry budget (token bucket + jittered
//!   exponential backoff, deadline-aware) recovers transient admission
//!   sheds without outliving deadlines.
//! * (f) **genuine death containment** — a `DispatchPanic` kills a live
//!   worker for real; the run completes with one structured
//!   `NodeFailure` instead of poisoning the fleet.
//!
//! `--quick` shrinks the streams to CI-smoke size (same JSON schema).

use tinymlops_bench::{fmt, print_table, save_json, synthetic_family};
use tinymlops_device::{default_mix, Fleet};
use tinymlops_serve::{
    BrownoutConfig, ExecConfig, FabricConfig, FaultEvent, FaultKind, FaultPlan, GatewayConfig,
    LoadPlan, RetryPolicy, ServeConfig, ServeFabric, ShedReason, TenantSpec,
};

const SEED: u64 = 20;

fn fabric(cfg: &FabricConfig, fleet_size: usize) -> ServeFabric {
    let fleets =
        Fleet::generate(fleet_size, &default_mix(), SEED).partition(cfg.node_weights.len());
    let mut f = ServeFabric::new(cfg, fleets);
    f.install_family("kws", synthetic_family("kws", 0));
    f.install_family("vision", synthetic_family("vision", 100));
    f
}

fn plan(rps: f64, duration_us: u64, tenants: u32, prepaid: u64, deadline_us: u64) -> LoadPlan {
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
        duration_us,
        seed: SEED,
        feature_dim: 0,
    }
}

/// The test meter-key scheme `ServeFabric::provision` uses.
fn key_of(tenant: u32) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..4].copy_from_slice(&tenant.to_le_bytes());
    key
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!(
        "E20: fault injection + self-healing (crash recovery, retry, brownout){}",
        if quick { " [quick]" } else { "" }
    );

    let fleet_size = if quick { 30 } else { 60 };
    let (rps, duration_us) = if quick {
        (4_000.0, 1_000_000)
    } else {
        (12_000.0, 4_000_000)
    };
    let tenants = 12u32;
    let prepaid = 1_000_000u64;

    // E20a: crash a loaded node mid-stream. Conservation must be exact.
    let crash_at = duration_us * 2 / 5;
    let crash_plan = FaultPlan::with_events(vec![FaultEvent {
        node: 1,
        at_us: crash_at,
        kind: FaultKind::Crash,
    }]);
    let cfg_a = FabricConfig {
        node_weights: vec![1.0; 3],
        fault: crash_plan.clone(),
        ..Default::default()
    };
    let p = plan(rps, duration_us, tenants, prepaid, 200_000);
    let stream = p.generate();
    let mut fa = fabric(&cfg_a, fleet_size);
    fa.provision(&p);
    let doomed: Vec<u32> = (1..=tenants)
        .filter(|t| fa.home_node(*t) == Some(1))
        .collect();
    assert!(!doomed.is_empty(), "node 1 must host tenants before dying");
    let report_a = fa.run(&stream).expect("crash run");
    let failover_sheds = report_a.fleet.shed_by(ShedReason::Failover);
    assert!(
        failover_sheds > 0,
        "the dead node must take real in-flight work with it"
    );
    assert_eq!(
        report_a.fleet.served + report_a.fleet.shed_total,
        stream.len() as u64,
        "zero lost requests across the crash"
    );
    assert_eq!(report_a.unrefunded_sheds(), 0, "zero unrefunded sheds");
    assert!(report_a.refunds_balance(), "no quota minted either");
    let census = fa.quota_census();
    let spent: u64 = census.iter().map(|q| q.consumed - q.refunded).sum();
    let left: u64 = census.iter().map(|q| q.balance).sum();
    assert_eq!(
        spent + left,
        prepaid * u64::from(tenants),
        "census exact to the query"
    );
    for t in &doomed {
        assert_ne!(fa.home_node(*t), Some(1), "tenant {t} re-homed");
    }
    let chains = fa.verify_chains(key_of).expect("chains verify");
    assert_eq!(chains, tenants as usize);
    let mut failover_entries = 0u64;
    for node in fa.nodes() {
        for (_, account) in node.plane.gateway.accounts() {
            failover_entries += account.quota.log().failover_count();
        }
    }
    assert!(failover_entries >= doomed.len() as u64);
    let headers_a = [
        "requests",
        "served",
        "failover sheds",
        "evacuees",
        "failover entries",
        "unrefunded",
        "census",
        "chains",
    ];
    let rows_a = vec![vec![
        stream.len().to_string(),
        report_a.fleet.served.to_string(),
        failover_sheds.to_string(),
        doomed.len().to_string(),
        failover_entries.to_string(),
        report_a.unrefunded_sheds().to_string(),
        if spent + left == prepaid * u64::from(tenants) {
            "exact"
        } else {
            "BROKEN"
        }
        .to_string(),
        if chains == tenants as usize {
            "verified"
        } else {
            "BROKEN"
        }
        .to_string(),
    ]];
    print_table(
        "E20a crash recovery conserves everything",
        &headers_a,
        &rows_a,
    );
    save_json("e20_faults_crash", &headers_a, &rows_a);

    // E20b: the same fault plan — crash + stall + slowdown — replays
    // bit-identically on the threaded backend.
    let parity_plan = FaultPlan::with_events(vec![
        FaultEvent {
            node: 1,
            at_us: crash_at,
            kind: FaultKind::Crash,
        },
        FaultEvent {
            node: 0,
            at_us: duration_us / 8,
            kind: FaultKind::Stall {
                until_us: duration_us / 8 + 60_000,
            },
        },
        FaultEvent {
            node: 2,
            at_us: 0,
            kind: FaultKind::SlowNode { multiplier: 1.6 },
        },
    ]);
    let cfg_b = FabricConfig {
        node_weights: vec![1.0; 3],
        fault: parity_plan,
        ..Default::default()
    };
    let mut sim = fabric(&cfg_b, fleet_size);
    sim.provision(&p);
    let sim_report = sim.run(&stream).expect("sim fault run");
    let mut live = fabric(&cfg_b, fleet_size);
    live.provision(&p);
    let live_report = live
        .run_live(&stream, &ExecConfig::default())
        .expect("live fault run");
    let identical = live_report.fabric == sim_report && live.quota_census() == sim.quota_census();
    assert!(identical, "fault replay must be bit-identical sim ≡ live");
    assert!(live_report.failures.is_empty(), "a crash is not a panic");
    let headers_b = ["backend", "served", "shed", "refunds", "identical"];
    let rows_b = vec![
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
    print_table(
        "E20b fault-run parity (crash+stall+slow)",
        &headers_b,
        &rows_b,
    );
    save_json("e20_faults_parity", &headers_b, &rows_b);

    // E20c: the off switch. Disabled plan ≡ armed-but-empty plan.
    let run_with = |fault: FaultPlan| {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            fault,
            ..Default::default()
        };
        let mut f = fabric(&cfg, fleet_size);
        f.provision(&p);
        f.run(&stream).expect("identity run")
    };
    let off = run_with(FaultPlan::default());
    let armed = run_with(FaultPlan::armed());
    let off_identical = off == armed;
    assert!(off_identical, "an armed-but-empty plan must change nothing");
    let headers_c = ["plan", "served", "shed", "identical"];
    let rows_c = vec![
        vec![
            "disabled".into(),
            off.fleet.served.to_string(),
            off.fleet.shed_total.to_string(),
            "-".into(),
        ],
        vec![
            "armed, empty".into(),
            armed.fleet.served.to_string(),
            armed.fleet.shed_total.to_string(),
            if off_identical { "yes" } else { "NO" }.into(),
        ],
    ];
    print_table("E20c disabled ≡ armed-empty identity", &headers_c, &rows_c);
    save_json("e20_faults_identity", &headers_c, &rows_c);

    // E20d: flash crowd — a 4× burst in the middle of a baseline stream,
    // against a small admission ceiling and tight deadlines. Pure
    // shedding turns the burst into Overload sheds; the brownout ladder
    // steps the fleet down to cheaper quantized variants, drains the
    // queues faster, and serves strictly more.
    let flash_duration = if quick { 1_000_000 } else { 2_000_000 };
    let burst_rps = if quick { 30_000.0 } else { 48_000.0 };
    let base_plan = plan(3_000.0, flash_duration, 8, prepaid, 40_000);
    let burst_plan = LoadPlan {
        seed: SEED + 1,
        duration_us: flash_duration / 4,
        ..plan(burst_rps, flash_duration, 8, prepaid, 40_000)
    };
    let mut flash: Vec<_> = base_plan.generate();
    let offset = flash_duration * 3 / 8;
    flash.extend(burst_plan.generate().into_iter().map(|mut r| {
        r.arrival_us += offset;
        r
    }));
    flash.sort_by_key(|r| r.arrival_us);
    for (i, r) in flash.iter_mut().enumerate() {
        r.id = i as u64; // re-key the merged stream
    }
    let flash_cfg = |brownout: bool| FabricConfig {
        node_weights: vec![1.0; 3],
        serve: ServeConfig {
            gateway: GatewayConfig {
                max_pending_per_tenant: 24,
                max_total_pending: 64,
            },
            ..Default::default()
        },
        fault: FaultPlan {
            enabled: true,
            events: vec![],
            brownout: if brownout {
                BrownoutConfig::enabled()
            } else {
                BrownoutConfig::default()
            },
        },
        ..Default::default()
    };
    let run_flash = |brownout: bool| {
        let cfg = flash_cfg(brownout);
        let mut f = fabric(&cfg, fleet_size);
        f.provision(&base_plan);
        f.run(&flash).expect("flash run")
    };
    let shed_only = run_flash(false);
    let browned = run_flash(true);
    assert!(
        shed_only.fleet.shed_by(ShedReason::Overload)
            + shed_only.fleet.shed_by(ShedReason::TenantBackpressure)
            > 0,
        "the flash crowd must actually overrun admission"
    );
    let brownout_wins = browned.fleet.served > shed_only.fleet.served;
    assert!(
        brownout_wins,
        "brownout must serve strictly more than pure shedding ({} vs {})",
        browned.fleet.served, shed_only.fleet.served
    );
    let p99_held = browned.fleet.p99_ms <= shed_only.fleet.p99_ms;
    assert!(
        p99_held,
        "degraded variants must hold the tail: p99 {} ms vs shed-only {} ms",
        browned.fleet.p99_ms, shed_only.fleet.p99_ms
    );
    let headers_d = [
        "policy",
        "served",
        "overload sheds",
        "deadline sheds",
        "p99 ms",
        "brownout_wins",
        "p99_held",
    ];
    let rows_d = vec![
        vec![
            "shed-only".into(),
            shed_only.fleet.served.to_string(),
            (shed_only.fleet.shed_by(ShedReason::Overload)
                + shed_only.fleet.shed_by(ShedReason::TenantBackpressure))
            .to_string(),
            shed_only
                .fleet
                .shed_by(ShedReason::DeadlineExpired)
                .to_string(),
            fmt(shed_only.fleet.p99_ms, 2),
            "-".into(),
            "-".into(),
        ],
        vec![
            "brownout".into(),
            browned.fleet.served.to_string(),
            (browned.fleet.shed_by(ShedReason::Overload)
                + browned.fleet.shed_by(ShedReason::TenantBackpressure))
            .to_string(),
            browned
                .fleet
                .shed_by(ShedReason::DeadlineExpired)
                .to_string(),
            fmt(browned.fleet.p99_ms, 2),
            if brownout_wins { "yes" } else { "NO" }.into(),
            if p99_held { "yes" } else { "NO" }.into(),
        ],
    ];
    print_table(
        "E20d flash crowd: brownout vs shed-only",
        &headers_d,
        &rows_d,
    );
    save_json("e20_faults_brownout", &headers_d, &rows_d);

    // E20e: retry/backoff. A tight per-tenant pending cap makes bursts
    // shed with TenantBackpressure — transient by definition. The retry
    // loop re-delivers them after jittered exponential backoff, gated by
    // the token bucket and each request's absolute deadline.
    let retry_cfg = FabricConfig {
        node_weights: vec![1.0; 3],
        serve: ServeConfig {
            gateway: GatewayConfig {
                max_pending_per_tenant: 4,
                max_total_pending: 1024,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    // Moderate load — the fleet has headroom, so sheds come from the
    // tight per-tenant cap catching Poisson bursts (transient by
    // definition), not from sustained saturation where a retry could
    // only displace fresh work.
    // Same rate in both modes: node count (and so service capacity) does
    // not scale with fleet size, and full mode already doubles the
    // stream through `flash_duration`.
    let retry_plan_load = plan(2_000.0, flash_duration, 6, prepaid, 30_000);
    let retry_stream = retry_plan_load.generate();
    let mut no_retry = fabric(&retry_cfg, fleet_size);
    no_retry.provision(&retry_plan_load);
    let baseline = no_retry.run(&retry_stream).expect("no-retry baseline");
    let mut with_retry = fabric(&retry_cfg, fleet_size);
    with_retry.provision(&retry_plan_load);
    // Backoff sized against the 30 ms deadlines: a first retry (~10 ms)
    // usually fits, a second (~20 ms on top) usually does not — so the
    // deadline gate is exercised, not just present.
    let policy = RetryPolicy {
        base_backoff_us: 10_000,
        ..RetryPolicy::default()
    };
    let (retried, retry_stats) = with_retry
        .run_with_retries(&retry_stream, &policy)
        .expect("retry run");
    assert!(retry_stats.scheduled > 0, "transient sheds must retry");
    assert!(
        retry_stats.deadline_denied > 0,
        "the deadline gate must actually bite under this load"
    );
    assert!(
        retried.fleet.served >= baseline.fleet.served,
        "retries must not lose work ({} vs {})",
        retried.fleet.served,
        baseline.fleet.served
    );
    let recovered = retry_stats.succeeded;
    assert!(recovered > 0, "some retries must land");
    let headers_e = [
        "policy",
        "served",
        "scheduled",
        "succeeded",
        "attempts_exhausted",
        "deadline_denied",
        "budget_denied",
    ];
    let rows_e = vec![
        vec![
            "no retry".into(),
            baseline.fleet.served.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ],
        vec![
            "retry budget".into(),
            retried.fleet.served.to_string(),
            retry_stats.scheduled.to_string(),
            retry_stats.succeeded.to_string(),
            retry_stats.attempts_exhausted.to_string(),
            retry_stats.deadline_denied.to_string(),
            retry_stats.budget_denied.to_string(),
        ],
    ];
    print_table("E20e retry budget + jittered backoff", &headers_e, &rows_e);
    save_json("e20_faults_retry", &headers_e, &rows_e);

    // E20f: genuine worker death. A DispatchPanic kills node 1's worker
    // for real; the feeder contains it and the run completes.
    let panic_cfg = FabricConfig {
        node_weights: vec![1.0; 3],
        fault: FaultPlan::with_events(vec![FaultEvent {
            node: 1,
            at_us: crash_at,
            kind: FaultKind::DispatchPanic,
        }]),
        ..Default::default()
    };
    let mut fp = fabric(&panic_cfg, fleet_size);
    fp.provision(&p);
    let panic_report = fp
        .run_live(&stream, &ExecConfig::default())
        .expect("run completes despite the dead worker");
    let contained = panic_report.failures.len() == 1 && panic_report.failures[0].node == 1;
    assert!(contained, "exactly one structured NodeFailure expected");
    let headers_f = ["dead node", "reason", "lost requests", "panic_contained"];
    let rows_f = vec![vec![
        panic_report.failures[0].node.to_string(),
        panic_report.failures[0].reason.clone(),
        panic_report.failures[0].lost_requests.to_string(),
        if contained { "yes" } else { "NO" }.into(),
    ]];
    print_table("E20f genuine death containment", &headers_f, &rows_f);
    save_json("e20_faults_panic", &headers_f, &rows_f);

    println!(
        "\nE20 complete: crash recovery conserved {} requests to the query \
         (sim ≡ live: {}), brownout beat shed-only by {} served, \
         {} retries recovered, one panicked worker contained.",
        stream.len(),
        if identical { "yes" } else { "NO" },
        browned.fleet.served - shed_only.fleet.served,
        recovered
    );
}
