//! The five workloads: what each is built from, how one iteration runs,
//! and the output checks that feed `failed` / `correct`.
//!
//! Common shape unless a workload says otherwise: 3 nodes, 48 devices,
//! 12 tenants over 6 three-record families, default `ServeConfig`, all
//! planes off. Every iteration gets a fresh fabric built *outside* the
//! timed call, so parent and change time identical work.

use crate::host;
use crate::inputs::{
    executables, family_name, family_records, fleet, load_plan, record_id, PREPAID,
};
use std::time::Instant;
use tinymlops_serve::testkit::test_meter_key;
use tinymlops_serve::{
    ArrivalPattern, BrownoutConfig, ClientPlan, ClientSpec, ClosedLoopStats, ControllerConfig,
    ExecConfig, ExecMode, ExecModel, FabricConfig, FabricReport, FaultEvent, FaultKind, FaultPlan,
    GatewayConfig, LoadPlan, ObserveConfig, Request, RetryPolicy, RetryStats, ServeConfig,
    ServeFabric,
};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Engine hot path on the cost model, simulator backend.
    ReplaySim,
    /// The same stream on the threaded backend, one node worker.
    ReplayLive,
    /// Real `nn`/`quant` inference behind the micro-batcher.
    InferServing,
    /// Every plane armed over a bursty stream with a mid-run crash.
    ManagedSurge,
    /// Closed-loop client population past the goodput knee.
    ClosedOverload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::ReplaySim,
        Workload::ReplayLive,
        Workload::InferServing,
        Workload::ManagedSurge,
        Workload::ClosedOverload,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplaySim => "replay_sim",
            Workload::ReplayLive => "replay_live",
            Workload::InferServing => "infer_serving",
            Workload::ManagedSurge => "managed_surge",
            Workload::ClosedOverload => "closed_overload",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one workload's iterations are built from.
pub struct Inputs {
    /// Which workload this is.
    pub workload: Workload,
    /// Fabric construction parameters.
    pub cfg: FabricConfig,
    /// Devices across all partitions (active + standby).
    pub devices: usize,
    /// Catalog slots installed.
    pub families: usize,
    /// Real executables per variant (`infer_serving` only).
    pub execs: Option<[ExecModel; 3]>,
    /// Milliseconds the quantizations in set-up took (0 without execs).
    pub quantize_ms: f64,
    /// Tenant accounts to provision (and, open loop, the arrival plan).
    pub plan: LoadPlan,
    /// Open-loop arrival stream (empty for the closed loop).
    pub stream: Vec<Request>,
    /// Wall nanoseconds stream generation took per request (0 for the
    /// closed loop, whose clients generate load as the run goes).
    pub generate_ns: f64,
    /// Closed-loop client population (`closed_overload` only).
    pub clients: Option<ClientPlan>,
}

/// Logical microseconds of `seconds` at `scale`.
fn logical_us(seconds: f64, scale: f64) -> u64 {
    (seconds * scale * 1e6) as u64
}

/// Generate a stream, timing the generation per request.
fn timed(generate: impl FnOnce() -> Vec<Request>) -> (Vec<Request>, f64) {
    let start = Instant::now();
    let stream = generate();
    let ns = start.elapsed().as_nanos() as f64 / stream.len().max(1) as f64;
    (stream, ns)
}

/// Build a workload's inputs. `seed` reaches only the arrival plan;
/// `scale` multiplies logical durations (1.0 in the binary, tiny in the
/// smoke tests).
pub fn setup(workload: Workload, seed: u64, scale: f64) -> Inputs {
    let base = Inputs {
        workload,
        cfg: FabricConfig::default(),
        devices: 48,
        families: 6,
        execs: None,
        quantize_ms: 0.0,
        plan: load_plan(12, 6, 25_000.0, logical_us(12.0, scale), 250_000, 0, seed),
        stream: Vec::new(),
        generate_ns: 0.0,
        clients: None,
    };
    match workload {
        Workload::ReplaySim => {
            let (stream, generate_ns) = timed(|| base.plan.generate());
            Inputs {
                stream,
                generate_ns,
                ..base
            }
        }
        Workload::ReplayLive => {
            let (stream, generate_ns) = timed(|| base.plan.generate());
            Inputs {
                cfg: FabricConfig {
                    node_weights: vec![1.0],
                    ..FabricConfig::default()
                },
                stream,
                generate_ns,
                // One node's share: with all 48 devices behind one router,
                // three seeds in ten fall into a second regime (mean logical
                // latency 5.4 ms instead of 2.7 ms) and no bound could hold.
                devices: 32,
                ..base
            }
        }
        Workload::InferServing => {
            let (execs, quantize_ms) = executables();
            let plan = load_plan(
                12,
                2,
                16_000.0,
                logical_us(3.0, scale),
                250_000,
                crate::inputs::MLP_WIDTHS[0],
                seed,
            );
            let (stream, generate_ns) = timed(|| plan.generate());
            Inputs {
                families: 2,
                execs: Some(execs),
                quantize_ms,
                stream,
                generate_ns,
                plan,
                ..base
            }
        }
        Workload::ManagedSurge => {
            let duration_us = logical_us(40.0, scale);
            let plan = load_plan(12, 6, 6_000.0, duration_us, 50_000, 0, seed);
            let (stream, generate_ns) = timed(|| {
                plan.generate_shaped(&ArrivalPattern::Bursts {
                    period_us: 2_000_000,
                    width_us: 600_000,
                    height: 4.0,
                })
            });
            Inputs {
                cfg: FabricConfig {
                    // A small global pending ceiling, so pressure is real and
                    // the brownout ladder and the controller have work.
                    serve: ServeConfig {
                        gateway: GatewayConfig {
                            max_pending_per_tenant: 64,
                            max_total_pending: 64,
                        },
                        ..ServeConfig::default()
                    },
                    observe: ObserveConfig::enabled(),
                    fault: FaultPlan {
                        enabled: true,
                        events: vec![FaultEvent {
                            node: 1,
                            at_us: duration_us / 2,
                            kind: FaultKind::Crash,
                        }],
                        brownout: BrownoutConfig::enabled(),
                    },
                    controller: ControllerConfig {
                        interval_us: 100_000,
                        tenant_cooldown_us: 250_000,
                        scale_cooldown_us: 300_000,
                        standby_weights: vec![1.0, 1.0],
                        ..ControllerConfig::enabled()
                    },
                    ..FabricConfig::default()
                },
                devices: 60,
                stream,
                generate_ns,
                plan,
                ..base
            }
        }
        Workload::ClosedOverload => {
            let duration_us = logical_us(2.0, scale);
            let tenants = 8u32;
            let clients = ClientPlan {
                clients: (0..5_000u32)
                    .map(|c| {
                        let tenant = c % tenants;
                        ClientSpec {
                            tenant: tenant + 1,
                            model: family_name(tenant as usize % 2),
                            think_mean_us: 10_000.0,
                            deadline_us: 50_000,
                        }
                    })
                    .collect(),
                duration_us,
                seed,
                feature_dim: 0,
                retry: RetryPolicy::default(),
            };
            Inputs {
                families: 2,
                // Accounts only: the clients, not this plan, make the load.
                plan: load_plan(tenants, 2, 1.0, duration_us, 50_000, 0, seed),
                clients: Some(clients),
                ..base
            }
        }
    }
}

/// A fresh, provisioned fabric for one iteration.
pub fn build_fabric(inputs: &Inputs) -> ServeFabric {
    build_fabric_with(inputs, &inputs.cfg)
}

/// [`build_fabric`] under another fabric configuration (the paired
/// plane-overhead runs arm one plane at a time on the same inputs).
pub fn build_fabric_with(inputs: &Inputs, cfg: &FabricConfig) -> ServeFabric {
    let partitions = cfg.node_weights.len() + cfg.controller.standby_weights.len();
    let mut fabric = ServeFabric::new(cfg, fleet(inputs.devices).partition(partitions));
    for family in 0..inputs.families {
        fabric.install_family(&family_name(family), family_records(family));
        if let Some(execs) = &inputs.execs {
            for (variant, exec) in execs.iter().enumerate() {
                fabric.install_executable(record_id(family, variant), exec.clone());
            }
        }
    }
    fabric.provision(&inputs.plan);
    fabric
}

/// What one timed `run*` call produced.
pub struct Outcome {
    /// Wall seconds of the one `run*` call.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) across the call.
    pub cpu_s: f64,
    /// The fleet report.
    pub report: FabricReport,
    /// Deliveries offered to admission (stream + retries, or closed-loop
    /// pushes) — each must resolve exactly once.
    pub arrivals: u64,
    /// First attempts (the goodput denominator).
    pub offered: u64,
    /// Requests lost outright (dead live workers, closed-loop `lost`).
    pub lost: u64,
    /// Retry-driver counters (`managed_surge`, `closed_overload`).
    pub retry: RetryStats,
    /// Demand-side view (`closed_overload` only).
    pub clients: Option<ClosedLoopStats>,
    /// Closed-loop delivery trace (`closed_overload` only).
    pub trace: Vec<Request>,
}

impl Outcome {
    /// Requests resolved: served plus shed, retries counted.
    pub fn resolved(&self) -> u64 {
        self.report.fleet.served + self.report.fleet.shed_total
    }

    /// Operations that did not end the way the platform promises:
    /// deliveries never resolved, sheds never refunded, requests lost.
    pub fn failed(&self) -> u64 {
        self.arrivals.saturating_sub(self.resolved()) + self.report.unrefunded_sheds() + self.lost
    }

    /// Open loop: served ÷ offered. Closed loop: served within the
    /// absolute deadline ÷ issued.
    pub fn goodput_frac(&self) -> f64 {
        match &self.clients {
            Some(clients) => clients.goodput_fraction(),
            None => self.report.fleet.served as f64 / self.offered.max(1) as f64,
        }
    }

    /// Mean logical latency the fabric predicts, ms (exact per seed).
    pub fn sim_mean_ms(&self) -> f64 {
        self.report.latency_hist.mean() / 1e3
    }
}

/// Run one iteration of the workload's own driver on `fabric`, timing
/// only the `run*` call.
pub fn run_once(inputs: &Inputs, fabric: &mut ServeFabric) -> Outcome {
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut outcome = match inputs.workload {
        Workload::ReplaySim | Workload::InferServing => {
            let report = fabric.run(&inputs.stream).expect("families installed");
            open_outcome(inputs, report, RetryStats::default(), 0)
        }
        Workload::ReplayLive => {
            let live = fabric
                .run_live(&inputs.stream, &live_exec(inputs))
                .expect("families installed");
            let lost = live.failures.iter().map(|f| f.lost_requests).sum();
            open_outcome(inputs, live.fabric, RetryStats::default(), lost)
        }
        Workload::ManagedSurge => {
            let (report, retry) = fabric
                .run_with_retries(&inputs.stream, &RetryPolicy::default())
                .expect("families installed");
            open_outcome(inputs, report, retry, 0)
        }
        Workload::ClosedOverload => {
            let plan = inputs.clients.as_ref().expect("closed loop has clients");
            let closed = fabric.run_closed_loop(plan).expect("families installed");
            Outcome {
                wall_s: 0.0,
                cpu_s: 0.0,
                report: closed.fabric,
                arrivals: closed.clients.pushes(),
                offered: closed.clients.issued,
                lost: closed.clients.lost,
                retry: closed.clients.retry,
                clients: Some(closed.clients),
                trace: closed.trace,
            }
        }
    };
    outcome.wall_s = start.elapsed().as_secs_f64();
    outcome.cpu_s = host::cpu_seconds() - cpu0;
    outcome
}

/// The live executor's configuration for `replay_live`: `Replay` mode
/// with an ingest ring that holds the whole stream, so the feeder never
/// parks. At the default capacity (1024) `IngestQueue` can lose a wakeup:
/// the worker takes the feeder's item through its register-then-recheck
/// and parks again on the empty ring before the feeder, already past its
/// `sleeping_consumers > 0` check, takes the lock; the feeder then latches
/// `consumer_wake_pending` on a waiter that finds nothing and waits again
/// with the latch still set, every later push skips the wake, the ring
/// fills and both sides sleep for good (seen about once in 200 runs on a
/// busy host). A feeder that never parks always reaches `close()`, whose
/// notify is unconditional, so the run ends whatever the latch says.
pub fn live_exec(inputs: &Inputs) -> ExecConfig {
    ExecConfig {
        mode: ExecMode::Replay,
        queue_capacity: inputs.stream.len() + 1024,
    }
}

fn open_outcome(inputs: &Inputs, report: FabricReport, retry: RetryStats, lost: u64) -> Outcome {
    let offered = inputs.stream.len() as u64;
    Outcome {
        wall_s: 0.0,
        cpu_s: 0.0,
        report,
        arrivals: offered + retry.scheduled,
        offered,
        lost,
        retry,
        clients: None,
        trace: Vec::new(),
    }
}

/// The §III-C billing read side of the chain the run wrote: verify every
/// audit chain and take the quota census. Returns (wall seconds, chain
/// entries read, violations).
pub fn settle(inputs: &Inputs, fabric: &ServeFabric) -> (f64, u64, Vec<String>) {
    let mut violations = Vec::new();
    let start = Instant::now();
    let verified = fabric.verify_chains(test_meter_key);
    let census = fabric.quota_census();
    let wall_s = start.elapsed().as_secs_f64();
    match verified {
        Ok(checked) if checked == census.len() => {}
        Ok(checked) => violations.push(format!(
            "verified {checked} chains but the census lists {} tenants",
            census.len()
        )),
        Err(e) => violations.push(format!("audit chain broken: {e:?}")),
    }
    if census.len() != inputs.plan.tenants.len() {
        violations.push(format!(
            "census lists {} of {} provisioned tenants",
            census.len(),
            inputs.plan.tenants.len()
        ));
    }
    for q in &census {
        if q.balance + q.consumed - q.refunded != PREPAID {
            violations.push(format!(
                "tenant {}: balance {} + consumed {} - refunded {} != credited {PREPAID}",
                q.tenant, q.balance, q.consumed, q.refunded
            ));
        }
    }
    let entries = fabric
        .nodes()
        .iter()
        .flat_map(|n| n.plane.gateway.accounts())
        .map(|(_, account)| account.quota.log().len() as u64)
        .sum();
    (wall_s, entries, violations)
}

/// Per-iteration output checks every workload shares (the chain and
/// census checks live in [`settle`]).
pub fn check_outcome(inputs: &Inputs, outcome: &Outcome) -> Vec<String> {
    let mut violations = Vec::new();
    let report = &outcome.report;
    if !report.refunds_balance() {
        violations.push(format!(
            "refunds {} != downstream sheds {}",
            report.refunds,
            report.downstream_sheds()
        ));
    }
    if outcome.resolved() != outcome.arrivals {
        violations.push(format!(
            "served {} + shed {} != arrivals {}",
            report.fleet.served, report.fleet.shed_total, outcome.arrivals
        ));
    }
    if outcome.lost != 0 {
        violations.push(format!("{} requests lost", outcome.lost));
    }
    if inputs.execs.is_some() && report.fleet.real_predictions != report.fleet.served {
        violations.push(format!(
            "real predictions {} != served {}",
            report.fleet.real_predictions, report.fleet.served
        ));
    }
    violations
}

/// The once-per-run reference check: the report the workload's driver
/// produced must equal the simulator's on an identical fabric —
/// `live.fabric == sim_report` for `replay_live`, the closed-loop trace
/// replayed open-loop for `closed_overload`. Other workloads *are* the
/// simulator, so the cross-iteration digest is their determinism check.
pub fn check_against_sim(inputs: &Inputs, outcome: &Outcome) -> Vec<String> {
    let stream = match inputs.workload {
        Workload::ReplayLive => &inputs.stream,
        Workload::ClosedOverload => &outcome.trace,
        _ => return Vec::new(),
    };
    let sim = build_fabric(inputs)
        .run(stream)
        .expect("families installed");
    if sim == outcome.report {
        Vec::new()
    } else {
        vec![format!(
            "{}: report differs from the simulator replay of the same stream",
            inputs.workload.name()
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_live_ring_holds_the_whole_stream_so_the_feeder_never_parks() {
        let inputs = setup(Workload::ReplayLive, 7, 0.01);
        let exec = live_exec(&inputs);
        assert_eq!(exec.mode, ExecMode::Replay);
        assert!(!inputs.stream.is_empty());
        assert!(exec.queue_capacity > inputs.stream.len());
    }
}
