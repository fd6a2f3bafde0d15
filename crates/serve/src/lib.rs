//! # tinymlops_serve — the multi-tenant edge inference serving plane
//!
//! The TinyMLOps paper (Leroux et al., 2022) specifies the operational
//! loop — versioned models (§III-A), metering (§III-C), observability
//! (§III-B), a fragmented fleet (§IV) — but a platform only earns its
//! keep when tenant traffic actually flows through those pieces. This
//! crate is that request path:
//!
//! * [`Gateway`] — per-tenant admission backed by real `meter` quotas
//!   (every admit is a `QuotaManager::consume` landing in the
//!   tamper-evident audit chain) plus per-tenant and global load
//!   shedding.
//! * [`MicroBatcher`] — per-family FIFO queues with size- and
//!   deadline-triggered flush, amortizing dispatch overhead across
//!   requests while preserving per-tenant order.
//! * [`ModelCache`] — byte-budgeted exact-LRU residency for `registry`
//!   variants, so hot models skip the artifact-load penalty.
//! * [`Router`] — constraint-aware sharding over the `device` fleet via
//!   `deploy::select`, skipping offline or battery-critical nodes and
//!   preferring the least-loaded feasible device.
//! * [`ServeSim`] + [`LoadPlan`] — a discrete-event clock and seeded
//!   open-loop load generator that replay ≥100k requests exactly,
//!   reporting p50/p95/p99 latency, throughput, shed rate and cache hit
//!   rate ([`ServeReport`]).
//!
//! One plane is one serving node. The **fabric** layer scales that out:
//!
//! * [`ShardRouter`] — weighted rendezvous placement of tenants onto
//!   nodes, with model-family affinity, minimal movement on node
//!   join/leave, bounded-load overflow to a tenant's next-best node
//!   ([`ShardRouter::assign_bounded`]) and migration pins.
//! * [`ServeFabric`] — N planes behind one shard router: partitioned
//!   quotas (whole accounts move on rebalance, audit chains intact),
//!   refunds for admitted-then-shed work
//!   (`tinymlops_meter::EntryKind::Refund`), and per-node telemetry
//!   merged into exact fleet-level statistics ([`FabricReport`]).
//! * **Live migration** — [`ServeFabric::schedule_migrations`] moves a
//!   tenant between nodes *with requests in flight* during the next
//!   run: queued work spliced, dispatched work drained in place, the
//!   quota partition and audit chain handed off atomically under a
//!   `tinymlops_meter::EntryKind::Handoff` entry ([`MigrationSpec`] →
//!   [`MigrationRecord`] in [`FabricReport::migrations`]).
//!
//! A fabric runs through [`ServeFabric::run`] /
//! [`ServeFabric::run_with_retries`] (simulator),
//! [`ServeFabric::run_live`] (one thread per node) and
//! [`ServeFabric::run_closed_loop`] /
//! [`ServeFabric::run_closed_loop_wall`] (client populations). What
//! crosses nodes mid-run — migrations, crash failover, controller ticks
//! — is one crate-internal coordinator over two transports, so the first
//! three are bit-identical in [`ExecMode::Replay`]. `core::Platform`
//! builds planes and fabrics from real vouchers and the registry
//! (`build_serving`, `build_fabric`) and folds reports back into
//! `observe::Telemetry` (`serve_traffic`, `absorb_serving`).

pub mod batcher;
pub mod cache;
pub mod clock;
pub mod closedloop;
pub mod controller;
pub(crate) mod coordinator;
pub mod exec;
pub mod fabric;
pub mod fault;
pub mod gateway;
pub mod loadgen;
pub mod observer;
pub mod request;
pub mod router;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod testkit;

pub use batcher::{Batch, BatchPolicy, FlushTrigger, MicroBatcher, PushOutcome};
pub use cache::{Admission, ModelCache};
pub use clock::{Clock, VirtualClock, WallClock};
pub use closedloop::{
    ClientPlan, ClientSpec, ClosedLoopLiveReport, ClosedLoopReport, ClosedLoopStats,
};
pub use controller::{
    ControlAction, ControlRecord, ControlSample, ControllerConfig, ControllerView, FleetController,
};
pub use exec::{ExecConfig, ExecMode, IngestQueue, LiveReport, NodeFailure};
pub use fabric::{
    FabricConfig, FabricNode, FabricReport, MigrationPhase, MigrationRecord, MigrationSpec,
    ServeFabric, TenantQuota,
};
pub use fault::{
    degrade_records, retryable, schedule_retry, BrownoutConfig, FaultEvent, FaultKind, FaultPlan,
    RetryBudget, RetryDecision, RetryPolicy, RetryStats,
};
pub use gateway::{Gateway, GatewayConfig, TenantAccount};
pub use loadgen::{ArrivalPattern, LoadPlan, TenantSpec};
pub use observer::{NodeObservation, NodeObserver, ObserveConfig};
pub use request::{Completion, Disposition, Request, RequestId, ShedReason, TenantId};
pub use router::{Route, Router};
pub use shard::{NodeId, ShardNode, ShardRouter, TrafficLedger, TRAFFIC_UNIT};
pub use sim::{ExecModel, ServeConfig, ServePlane, ServeSim};
pub use stats::{ServeReport, ServeStats};

/// Errors from the serving plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The plane has no installed model families.
    NoFamilies,
    /// A named family is not installed.
    UnknownFamily(String),
    /// An operation referenced a tenant with no gateway account (a
    /// provisioning-order bug in the caller).
    UnknownTenant(request::TenantId),
    /// An operation referenced a serving node not in the fabric.
    UnknownNode(shard::NodeId),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoFamilies => write!(f, "serving plane has no installed model families"),
            ServeError::UnknownFamily(name) => write!(f, "model family `{name}` not installed"),
            ServeError::UnknownTenant(id) => {
                write!(f, "tenant {id} has no gateway account (register it first)")
            }
            ServeError::UnknownNode(id) => {
                write!(f, "serving node {id} is not part of the fabric")
            }
        }
    }
}

impl std::error::Error for ServeError {}
