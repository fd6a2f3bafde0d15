//! The multi-node serving fabric: shard router over N serving planes.
//!
//! [`ServeFabric`] is the fleet-scale refactor of the single-node
//! [`ServePlane`]: a [`ShardRouter`] consistent-hashes every tenant onto a
//! home node (weighted by node capacity, with model-family affinity), each
//! node runs the full gateway → batcher → cache → device-router stack over
//! its own device fleet, and the fabric presents one pane of glass back:
//!
//! * **Partitioned quotas** — a tenant's prepaid balance and audit chain
//!   live on its home node's gateway only. Node join/leave rebalances by
//!   moving whole [`crate::TenantAccount`]s, so the chain stays intact and
//!   billing sync still verifies end-to-end.
//! * **Refunded sheds** — admission charges at the door; a downstream
//!   NoRoute/deadline shed refunds the query through an
//!   [`tinymlops_meter::EntryKind::Refund`] chain entry
//!   ([`crate::Gateway::resolve_shed`]), so prepaid queries are never
//!   silently burned by a shed the platform caused.
//! * **Merged telemetry** — each node records into its own
//!   [`Telemetry`] sink; a run drains them into one fleet-level
//!   [`TelemetryReport`] and merges per-node latency accumulators, so
//!   fleet percentiles are exact, not percentile-of-percentiles.
//! * **Live migration** — a [`MigrationSpec`] schedules a tenant's
//!   drain/handoff to another node *mid-stream*: queued work is spliced
//!   out of the source batcher, dispatched work drains in place, and
//!   the whole quota partition moves atomically with a
//!   [`tinymlops_meter::EntryKind::Handoff`] chain entry
//!   ([`ServeFabric::schedule_migrations`]; the next run on either
//!   backend executes the schedule and reports one [`MigrationRecord`]
//!   per move in [`FabricReport::migrations`]).
//! * **Bounded load** — placement caps each node's tenant count at
//!   [`FabricConfig::load_factor`] × its fair share; hot tenants
//!   overflow to their next-best rendezvous node.

use crate::controller::{ControlRecord, ControllerConfig, FleetController};
use crate::coordinator::{
    Coordinator, CoordinatorLog, NodeOp, NodeReply, Routing, Transport, Unreachable,
};
use crate::fault::{
    account_retry, retryable, schedule_retry, FaultPlan, NodeFaults, RetryBudget, RetryPolicy,
    RetryStats,
};
use crate::observer::{NodeObserver, ObserveConfig};
use crate::request::{Request, ShedReason, TenantId};
use crate::shard::{node_loads, NodeId, ShardNode, ShardRouter, TrafficLedger};
use crate::sim::{ExecModel, ServeConfig, ServeEngine, ServePlane};
use crate::stats::{ServeReport, ServeStats};
use crate::ServeError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tinymlops_device::Fleet;
use tinymlops_meter::MeterError;
use tinymlops_observe::{
    Alarm, LogHistogram, Telemetry, TelemetryReport, TraceEvent, WindowSample,
};
use tinymlops_registry::{ModelId, ModelRecord};

/// The per-node policy every engine of a run is armed from.
#[derive(Clone, Copy)]
pub(crate) struct NodePolicy<'f> {
    serve: &'f ServeConfig,
    observe: &'f ObserveConfig,
    fault: &'f FaultPlan,
}

impl NodePolicy<'_> {
    /// A fresh engine for node `id` recording into `telemetry`: observer
    /// and the node's view of the fault plan attached, taps left to the
    /// driver. `allow_panics` arms dispatch panics — threaded workers
    /// only: a panic in the simulator's single-threaded loop would kill
    /// the whole run instead of one worker.
    pub(crate) fn engine<'n>(
        &self,
        id: NodeId,
        telemetry: &'n Telemetry,
        allow_panics: bool,
    ) -> ServeEngine<'n> {
        let mut engine = ServeEngine::new(self.serve.clone(), Some(telemetry));
        if self.observe.enabled {
            engine.set_observer(Some(Box::new(NodeObserver::new(id, self.observe.clone()))));
        }
        engine.set_faults(NodeFaults::for_node(self.fault, id, allow_panics));
        engine
    }
}

/// One node's replay context inside a simulator driver: its serving
/// stack plus the event engine driving it (the engine borrows the node's
/// telemetry sink for the duration of the run).
pub(crate) struct NodeCtx<'n> {
    pub(crate) id: NodeId,
    pub(crate) plane: &'n mut ServePlane,
    pub(crate) engine: ServeEngine<'n>,
}

/// A simulator run's nodes: one armed engine per node plus the id →
/// position table over them. Doubles as the coordinator's direct
/// transport — every node is an engine in this thread, so an op is a call
/// and a node is never unreachable.
pub(crate) struct SimNodes<'n> {
    pub(crate) ctxs: Vec<NodeCtx<'n>>,
    pub(crate) index: NodeIndex,
}

impl<'n> SimNodes<'n> {
    /// Arm one engine per node (`tap` arms the driver's tap on each).
    pub(crate) fn arm(
        nodes: &'n mut [FabricNode],
        policy: NodePolicy<'_>,
        tap: impl Fn(&mut ServeEngine<'n>),
    ) -> Self {
        let ctxs: Vec<NodeCtx<'n>> = nodes
            .iter_mut()
            .map(|node| {
                let mut engine = policy.engine(node.id, &node.telemetry, false);
                tap(&mut engine);
                NodeCtx {
                    id: node.id,
                    plane: &mut node.plane,
                    engine,
                }
            })
            .collect();
        let index = NodeIndex::new(ctxs.iter().map(|c| c.id));
        SimNodes { ctxs, index }
    }

    /// The context of node `id`.
    pub(crate) fn node(&mut self, id: NodeId) -> &mut NodeCtx<'n> {
        &mut self.ctxs[self.index[id]]
    }

    /// Finish every engine into its node's statistics, node order kept.
    pub(crate) fn finish(self) -> Vec<(NodeId, ServeStats)> {
        self.ctxs
            .into_iter()
            .map(|ctx| (ctx.id, ctx.engine.finish(ctx.plane)))
            .collect()
    }
}

impl Transport for SimNodes<'_> {
    fn call(&mut self, node: NodeId, op: NodeOp) -> Result<NodeReply, Unreachable> {
        let ctx = self.node(node);
        Ok(op.apply(&mut ctx.engine, ctx.plane, |logical_us| logical_us))
    }
}

/// Dense `NodeId → position` table over a run's node slice. Node ids are
/// small and stable across join/leave, so the per-delivery home lookup is
/// one indexed load instead of a tree walk. An id the run does not know
/// panics here or (an id inside a gap maps to `usize::MAX`) at the slice
/// access behind it — a routing bug, as with the map this replaced.
pub(crate) struct NodeIndex(Vec<usize>);

impl NodeIndex {
    pub(crate) fn new(ids: impl IntoIterator<Item = NodeId>) -> Self {
        let mut positions = Vec::new();
        for (position, id) in ids.into_iter().enumerate() {
            let id = id as usize;
            if positions.len() <= id {
                positions.resize(id + 1, usize::MAX);
            }
            positions[id] = position;
        }
        NodeIndex(positions)
    }
}

impl std::ops::Index<NodeId> for NodeIndex {
    type Output = usize;

    fn index(&self, id: NodeId) -> &usize {
        &self.0[id as usize]
    }
}

/// Fabric construction parameters.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// One relative capacity weight per serving node (also fixes N).
    pub node_weights: Vec<f64>,
    /// Family-affinity blend for tenant placement (see [`ShardRouter`]).
    pub tenant_affinity: f64,
    /// Bounded-load factor for tenant placement: a node's tenant count is
    /// capped at `load_factor ×` its weight-proportional share, and a hot
    /// tenant overflows to its next-best rendezvous node
    /// ([`ShardRouter::assign_bounded`]). `f64::INFINITY` (the default)
    /// disables the bound (pure rendezvous); finite values must be ≥ 1.
    pub load_factor: f64,
    /// Per-node serving configuration (every node runs the same policy).
    pub serve: ServeConfig,
    /// Per-node observability (tracing, windowed series, detectors).
    /// Disabled by default; when disabled the fabric report's
    /// observability fields stay empty and runs are byte-identical to a
    /// build without the observer.
    pub observe: ObserveConfig,
    /// Deterministic fault schedule (crashes, stalls, slowdowns, dispatch
    /// panics) plus the brownout ladder. Disabled by default; a disabled
    /// plan is byte-identical to no plan at all, and an enabled plan
    /// replays bit-identically across both backends (crashes and stalls
    /// key on the same logical timestamps the engines already run on).
    pub fault: FaultPlan,
    /// Autonomous fleet controller (telemetry-driven migration, elastic
    /// scale-up/down against [`ControllerConfig::standby_weights`],
    /// brownout nudges). Disabled by default; a disabled controller arms
    /// no tap and fires no ticks, so runs are byte-identical to a build
    /// without the controller. `standby_weights` adds that many standby
    /// nodes — the fleet partition must cover `node_weights.len() +
    /// standby_weights.len()` nodes.
    pub controller: ControllerConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            node_weights: vec![1.0; 3],
            tenant_affinity: 0.5,
            load_factor: f64::INFINITY,
            serve: ServeConfig::default(),
            observe: ObserveConfig::default(),
            fault: FaultPlan::default(),
            controller: ControllerConfig::default(),
        }
    }
}

/// One scheduled live migration ([`ServeFabric::schedule_migrations`]):
/// move `tenant`'s account (and any in-flight work) to node `to`,
/// starting the drain at `trigger_us` in the traffic stream's logical
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationSpec {
    /// The tenant to move.
    pub tenant: TenantId,
    /// Destination node (must be live when the run starts).
    pub to: NodeId,
    /// Logical time at which the source node stops admitting the
    /// tenant's new work and the drain begins. The migration executes
    /// just before the first stream arrival at or after this instant (or
    /// at end of stream if no arrival follows).
    pub trigger_us: u64,
}

/// Where a migration is in its drain/handoff protocol. Phases advance
/// strictly forward; a failed live node leaves the record frozen at the
/// last phase it reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MigrationPhase {
    /// Scheduled, not yet triggered.
    Planned,
    /// Source marked draining: the tenant's new arrivals no longer reach
    /// the old home, queued work is being spliced out of its batcher.
    Draining,
    /// Quota partition + audit chain handed off atomically (sealed by a
    /// [`tinymlops_meter::EntryKind::Handoff`] entry); spliced work
    /// re-enqueued on the destination.
    HandedOff,
    /// Shard-router assignment flipped (and pinned); the tenant serves
    /// from its new home.
    Resumed,
}

/// What one executed migration did — the auditable trace of the
/// [`MigrationSpec`]'s drain/handoff state machine. In
/// [`crate::ExecMode::Replay`] these records are bit-identical between
/// the simulator and the threaded backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The migrated tenant.
    pub tenant: TenantId,
    /// Node the account left.
    pub from: NodeId,
    /// Node the account landed on.
    pub to: NodeId,
    /// Scheduled drain start (logical stream time).
    pub trigger_us: u64,
    /// When the handoff was sealed: `trigger_us` in replay, the real
    /// elapsed door time in [`crate::ExecMode::Wall`].
    pub handoff_us: u64,
    /// Admitted-but-not-dispatched requests spliced from the source
    /// batcher and re-enqueued on the destination (no drop, no re-bill).
    pub spliced: usize,
    /// Requests already dispatched on the source at the trigger: they
    /// drain in place (completing on the source), and the account's
    /// pending count sheds them before the handoff.
    pub drained_in_flight: usize,
    /// Wall-mode only: not-yet-ingested arrivals spliced out of the
    /// source node's live ingest queue and re-routed (always 0 in replay,
    /// where parity with the simulator pins ingested work to its node).
    pub queue_spliced: usize,
    /// The account's lifetime admitted counter at the handoff — the
    /// destination's subsequent admissions count up from here, which is
    /// how tests prove the tenant was *served on the new home*.
    pub admitted_before_handoff: u64,
    /// Furthest phase the protocol reached ([`MigrationPhase::Resumed`]
    /// on success).
    pub phase: MigrationPhase,
}

impl MigrationRecord {
    /// The record skeleton a migration starts from: spec echoed, phase
    /// [`MigrationPhase::Planned`], nothing moved yet.
    pub(crate) fn planned(spec: &MigrationSpec, from: NodeId, at_us: u64) -> Self {
        MigrationRecord {
            tenant: spec.tenant,
            from,
            to: spec.to,
            trigger_us: spec.trigger_us,
            handoff_us: at_us,
            spliced: 0,
            drained_in_flight: 0,
            queue_spliced: 0,
            admitted_before_handoff: 0,
            phase: MigrationPhase::Planned,
        }
    }
}

/// One serving node: a full [`ServePlane`] plus its local telemetry sink.
pub struct FabricNode {
    /// Fabric-unique id (stable across join/leave).
    pub id: NodeId,
    /// The node's serving stack.
    pub plane: ServePlane,
    /// The node's local telemetry (drained and merged per run).
    pub telemetry: Telemetry,
}

/// One tenant's quota position, as seen by fleet-level billing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantQuota {
    /// The tenant.
    pub tenant: TenantId,
    /// Its current home node.
    pub node: NodeId,
    /// Remaining prepaid balance.
    pub balance: u64,
    /// Queries consumed (audit-chain `Query` entries).
    pub consumed: u64,
    /// Queries refunded (audit-chain `Refund` entries).
    pub refunded: u64,
}

/// Fleet-level run report: per-node views plus exact merged statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// Merged across all nodes; percentiles are computed over the union
    /// of per-node latency samples, so they are exact.
    pub fleet: ServeReport,
    /// Per-node reports, in node-id order.
    pub per_node: Vec<(NodeId, ServeReport)>,
    /// Per-node telemetry sinks drained and merged into one report.
    pub telemetry: TelemetryReport,
    /// Tenants homed per node at run time, in node-id order.
    pub tenants_per_node: Vec<(NodeId, usize)>,
    /// Refund chain entries appended during this run (across all nodes).
    pub refunds: u64,
    /// Fleet latency histogram: exact bucket-wise merge of every node's
    /// log-bucketed accumulator, so fleet quantiles stay mergeable and
    /// bounded-memory even when the raw sample union would not be.
    pub latency_hist: LogHistogram,
    /// Per-node windowed time series (queue depth, shed rate, batch
    /// occupancy, cache hit rate, latency quantiles), node-id order.
    /// Empty unless [`FabricConfig::observe`] is enabled.
    pub windows: Vec<(NodeId, Vec<WindowSample>)>,
    /// Alarms raised by the per-node detector banks (drift, window
    /// anomaly), tagged with the raising node. Empty when observability
    /// is disabled.
    pub alarms: Vec<(NodeId, Alarm)>,
    /// Per-node flight-recorder contents (bounded rings, oldest first).
    /// Empty when observability is disabled.
    pub traces: Vec<(NodeId, Vec<TraceEvent>)>,
    /// Controller decisions taken during the run, in tick order. Empty
    /// when the controller is disabled (or armed but idle), so a
    /// controller-off report is byte-identical to a pre-controller one.
    pub control: Vec<ControlRecord>,
    /// One record per migration the run executed — operator-scheduled
    /// ([`ServeFabric::schedule_migrations`]) and controller-initiated
    /// alike — in execution order. Empty when nothing moved. In
    /// [`crate::ExecMode::Replay`] bit-identical across backends.
    pub migrations: Vec<MigrationRecord>,
}

impl FabricReport {
    /// Downstream sheds (admitted, then shed by the platform: NoRoute,
    /// deadline expiry, or node death) in this run. Every one of these
    /// owes the tenant a refund.
    #[must_use]
    pub fn downstream_sheds(&self) -> u64 {
        self.fleet.shed_by(ShedReason::NoRoute)
            + self.fleet.shed_by(ShedReason::DeadlineExpired)
            + self.fleet.shed_by(ShedReason::Failover)
    }

    /// Admitted-then-shed queries whose prepayment was *not* returned.
    /// The refund path exists precisely so this is always zero. Checked
    /// two-sided via [`FabricReport::refunds_balance`] in tests/benches so
    /// an over-refunding bug (minting free quota) cannot hide behind the
    /// saturation here.
    #[must_use]
    pub fn unrefunded_sheds(&self) -> u64 {
        self.downstream_sheds().saturating_sub(self.refunds)
    }

    /// `true` iff refunds exactly match downstream sheds — neither lost
    /// (burned) nor minted (over-refunded) prepaid queries.
    #[must_use]
    pub fn refunds_balance(&self) -> bool {
        self.refunds == self.downstream_sheds()
    }
}

/// The retry loop closed at the simulator driver (inert without a
/// policy): a transient admission-time shed becomes a re-delivery queued
/// by (due time, insertion seq), so same-instant retries pop in schedule
/// order.
struct RetryLoop<'p> {
    policy: Option<&'p RetryPolicy>,
    rng: StdRng,
    budgets: BTreeMap<TenantId, RetryBudget>,
    queue: BTreeMap<(u64, u64), (Request, u32)>,
    seq: u64,
    stats: RetryStats,
}

impl<'p> RetryLoop<'p> {
    fn new(policy: Option<&'p RetryPolicy>) -> Self {
        RetryLoop {
            policy,
            rng: StdRng::seed_from_u64(policy.map_or(0, |p| p.seed)),
            budgets: BTreeMap::new(),
            queue: BTreeMap::new(),
            seq: 0,
            stats: RetryStats::default(),
        }
    }

    /// Take the earliest re-delivery due at or before `through_us`, with
    /// the number of retries it already consumed.
    fn pop_due(&mut self, through_us: u64) -> Option<(Request, u32)> {
        let (&key, _) = self.queue.first_key_value()?;
        (key.0 <= through_us).then(|| self.queue.remove(&key).expect("peeked"))
    }

    /// One delivery to the request's home node: advance it to the
    /// delivery instant, admit-or-shed, and (with a policy) turn a
    /// transient shed into a scheduled re-delivery. The admission-time
    /// copy inside the engine stays the only per-request clone.
    fn deliver(&mut self, request: &Request, attempt: u32, ctx: &mut NodeCtx<'_>) {
        let now_us = request.arrival_us;
        ctx.engine.run_timers_through(ctx.plane, now_us, true);
        let shed = ctx.engine.on_arrival(ctx.plane, request);
        let Some(policy) = self.policy else {
            return;
        };
        match shed {
            None => {
                if attempt > 0 {
                    self.stats.succeeded += 1;
                }
            }
            Some(reason) if retryable(reason) => {
                let budget = self
                    .budgets
                    .entry(request.tenant)
                    .or_insert_with(|| RetryBudget::new(policy, now_us));
                let next = attempt + 1;
                let deadline_abs_us = request.deadline_abs_us();
                let decision =
                    schedule_retry(policy, budget, deadline_abs_us, next, now_us, &mut self.rng);
                if let Some((at, deadline_us)) =
                    account_retry(decision, deadline_abs_us, &mut self.stats)
                {
                    let again = Request {
                        arrival_us: at,
                        deadline_us,
                        ..request.clone()
                    };
                    self.queue.insert((at, self.seq), (again, next));
                    self.seq += 1;
                }
            }
            Some(_) => {}
        }
    }
}

/// The assembled multi-node serving fabric.
pub struct ServeFabric {
    /// Tenant → node placement (weighted rendezvous + family affinity).
    pub shard_router: ShardRouter,
    nodes: Vec<FabricNode>,
    /// tenant → (home node, model family) — the fabric's routing table,
    /// updated on provision and rebalance.
    assignments: BTreeMap<TenantId, (NodeId, String)>,
    /// Installed families, kept so joining nodes get the same catalog.
    families: BTreeMap<String, Vec<ModelRecord>>,
    /// Installed executables, ditto (every node holds a clone of the `Arc`).
    exec: BTreeMap<ModelId, Arc<ExecModel>>,
    serve_cfg: ServeConfig,
    observe_cfg: ObserveConfig,
    fault_plan: FaultPlan,
    load_factor: f64,
    next_node_id: NodeId,
    /// Fleet-controller policy (disabled by default).
    controller_cfg: ControllerConfig,
    /// Standby pool: provisioned nodes (planes exist, catalog installed)
    /// outside the routing topology until the controller joins them.
    standby: Vec<ShardNode>,
    /// Per-tenant served-work EWMA driving traffic-weighted bounded
    /// load. Empty (the default) degrades placement to the old
    /// tenant-count measure *exactly*; only controller ticks feed it.
    traffic: TrafficLedger,
    /// Validated migrations the next open-loop run will execute.
    schedule: Vec<MigrationSpec>,
}

impl ServeFabric {
    /// Assemble a fabric with one node per `cfg.node_weights` entry plus
    /// one *standby* node per `cfg.controller.standby_weights` entry,
    /// each over its own device fleet (so `fleets.len()` must cover
    /// both). Standby nodes get full planes and the installed catalog
    /// but stay outside the routing topology until the controller joins
    /// them. Panics when the fleet count does not match (a wiring bug,
    /// not a load state).
    #[must_use]
    pub fn new(cfg: &FabricConfig, fleets: Vec<Fleet>) -> Self {
        assert_eq!(
            cfg.node_weights.len() + cfg.controller.standby_weights.len(),
            fleets.len(),
            "one fleet per node weight (active + standby)"
        );
        assert!(
            cfg.load_factor >= 1.0,
            "load_factor below 1.0 cannot place every tenant"
        );
        let shard_nodes: Vec<ShardNode> = cfg
            .node_weights
            .iter()
            .enumerate()
            .map(|(i, &weight)| ShardNode {
                id: i as NodeId,
                weight,
            })
            .collect();
        let standby: Vec<ShardNode> = cfg
            .controller
            .standby_weights
            .iter()
            .enumerate()
            .map(|(i, &weight)| ShardNode {
                id: (cfg.node_weights.len() + i) as NodeId,
                weight,
            })
            .collect();
        let nodes: Vec<FabricNode> = fleets
            .into_iter()
            .enumerate()
            .map(|(i, fleet)| FabricNode {
                id: i as NodeId,
                plane: ServePlane::new(&cfg.serve, fleet),
                telemetry: Telemetry::new(),
            })
            .collect();
        let next_node_id = nodes.len() as NodeId;
        ServeFabric {
            shard_router: ShardRouter::new(shard_nodes, cfg.tenant_affinity),
            nodes,
            assignments: BTreeMap::new(),
            families: BTreeMap::new(),
            exec: BTreeMap::new(),
            serve_cfg: cfg.serve.clone(),
            observe_cfg: cfg.observe.clone(),
            fault_plan: cfg.fault.clone(),
            load_factor: cfg.load_factor,
            next_node_id,
            controller_cfg: cfg.controller.clone(),
            standby,
            traffic: TrafficLedger::new(),
            schedule: Vec::new(),
        }
    }

    /// Number of serving nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes, in id order.
    #[must_use]
    pub fn nodes(&self) -> &[FabricNode] {
        &self.nodes
    }

    /// Mutable node access (platform wiring, tests).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut FabricNode> {
        self.nodes.iter_mut().find(|n| n.id == id)
    }

    /// A tenant's current home node.
    #[must_use]
    pub fn home_node(&self, tenant: TenantId) -> Option<NodeId> {
        self.assignments.get(&tenant).map(|(node, _)| *node)
    }

    /// Install a model family on every node (and remember it for joiners).
    pub fn install_family(&mut self, name: &str, records: Vec<ModelRecord>) {
        for node in &mut self.nodes {
            node.plane.install_family(name, records.clone());
        }
        self.families.insert(name.to_string(), records);
    }

    /// Install a real executable on every node (and remember it for
    /// joiners): one shared copy, prepared once.
    pub fn install_executable(&mut self, id: ModelId, model: impl Into<Arc<ExecModel>>) {
        let model = model.into();
        for node in &mut self.nodes {
            node.plane.install_executable(id, Arc::clone(&model));
        }
        self.exec.insert(id, model);
    }

    /// Current tenant count per node (the load the bounded-load cap is
    /// measured against), in node-id order.
    #[must_use]
    pub fn tenant_loads(&self) -> Vec<(NodeId, usize)> {
        self.nodes
            .iter()
            .map(|n| {
                let count = self
                    .assignments
                    .values()
                    .filter(|(node, _)| *node == n.id)
                    .count();
                (n.id, count)
            })
            .collect()
    }

    /// Bounded-load placement for one more tenant given the current
    /// assignment table (pure rendezvous when `load_factor` is
    /// infinite). Loads and the population total are measured in
    /// [`crate::TRAFFIC_UNIT`]s from the traffic ledger: with no
    /// observed traffic every tenant weighs one unit and this is
    /// exactly the old tenant-count measure; once the controller feeds
    /// the ledger, a giant tenant occupies its real share of a node's
    /// cap instead of one slot.
    fn place(&self, tenant: TenantId, family: &str) -> NodeId {
        let total = (self.traffic.total(self.assignments.keys().copied())
            + self.traffic.weight(tenant)) as usize;
        let loads = node_loads(&self.assignments, &self.traffic);
        self.shard_router
            .assign_bounded(tenant, family, total, self.load_factor, |id| {
                loads.get(&id).copied().unwrap_or(0) as usize
            })
    }

    /// Open a tenant account on the tenant's home node (placement by the
    /// shard router, under the bounded-load cap) and record the
    /// assignment. Returns the home node.
    pub fn register_tenant(
        &mut self,
        tenant: TenantId,
        family: &str,
        meter_key: [u8; 32],
    ) -> NodeId {
        let home = self.place(tenant, family);
        self.assignments.insert(tenant, (home, family.to_string()));
        self.node_mut(home)
            .expect("assigned node exists")
            .plane
            .gateway
            .register_tenant(tenant, meter_key);
        home
    }

    /// Credit prepaid queries on the tenant's home shard.
    pub fn credit(
        &mut self,
        tenant: TenantId,
        queries: u64,
        serial: u64,
        now_ms: u64,
    ) -> Result<(), ServeError> {
        let home = self
            .home_node(tenant)
            .ok_or(ServeError::UnknownTenant(tenant))?;
        self.node_mut(home)
            .expect("assigned node exists")
            .plane
            .gateway
            .credit(tenant, queries, serial, now_ms)
    }

    /// Provision tenants from a plan with test-grade meter keys (serial =
    /// tenant id), mirroring [`crate::ServeSim::provision`];
    /// `core::Platform` wires real vouchers instead.
    pub fn provision(&mut self, plan: &crate::loadgen::LoadPlan) {
        for t in &plan.tenants {
            self.register_tenant(t.id, &t.model, crate::testkit::test_meter_key(t.id));
            self.credit(t.id, t.prepaid_queries, u64::from(t.id), 0)
                .expect("account just opened");
        }
    }

    /// Add a serving node (join): installs the current catalog, registers
    /// the node with the shard router and rebalances. Returns the new
    /// node's id and how many tenants moved onto it.
    pub fn add_node(&mut self, weight: f64, fleet: Fleet) -> (NodeId, usize) {
        let id = self.next_node_id;
        self.next_node_id += 1;
        let mut plane = ServePlane::new(&self.serve_cfg, fleet);
        for (name, records) in &self.families {
            plane.install_family(name, records.clone());
        }
        for (mid, exec) in &self.exec {
            plane.install_executable(*mid, Arc::clone(exec));
        }
        self.nodes.push(FabricNode {
            id,
            plane,
            telemetry: Telemetry::new(),
        });
        self.shard_router.add_node(ShardNode { id, weight });
        let moved = self.rebalance();
        (id, moved)
    }

    /// Remove a serving node (leave): its tenants are rebalanced onto the
    /// survivors (whole accounts move, audit chains intact), then the node
    /// is dropped — along with any scheduled migration onto it. Returns
    /// how many tenants moved.
    pub fn remove_node(&mut self, id: NodeId) -> Result<usize, ServeError> {
        let Some(pos) = self.nodes.iter().position(|n| n.id == id) else {
            return Err(ServeError::UnknownNode(id));
        };
        assert!(self.nodes.len() > 1, "cannot remove the last node");
        self.shard_router.remove_node(id);
        self.schedule.retain(|spec| spec.to != id);
        let moved = self.rebalance();
        let node = self.nodes.remove(pos);
        debug_assert_eq!(
            node.plane.gateway.total_pending(),
            0,
            "rebalance happens between runs"
        );
        Ok(moved)
    }

    /// Re-derive every tenant's home from the current topology and move
    /// the accounts whose home changed. Balances, counters and audit
    /// chains travel with the account ([`crate::Gateway::remove_tenant`] /
    /// [`crate::Gateway::adopt_tenant`]). Migration pins hold (a pinned
    /// tenant only moves when its pinned node left); unpinned tenants
    /// re-place in tenant-id order under the bounded-load cap, counting
    /// the pinned population first. Returns the number of moves.
    fn rebalance(&mut self) -> usize {
        let mut moved = 0;
        let tenants: Vec<(TenantId, NodeId, String)> = self
            .assignments
            .iter()
            .map(|(t, (node, family))| (*t, *node, family.clone()))
            .collect();
        // Loads and the population total in traffic units (an empty
        // ledger makes this the tenant-count measure exactly).
        let total = self.traffic.total(tenants.iter().map(|(t, _, _)| *t)) as usize;
        // Pinned tenants occupy their load before anyone re-places.
        let mut placed: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (tenant, _, _) in &tenants {
            if let Some(node) = self.shard_router.pinned(*tenant) {
                *placed.entry(node).or_default() += self.traffic.weight(*tenant) as usize;
            }
        }
        for (tenant, old_home, family) in tenants {
            let new_home = if let Some(pin) = self.shard_router.pinned(tenant) {
                pin
            } else {
                let home = self.shard_router.assign_bounded(
                    tenant,
                    &family,
                    total,
                    self.load_factor,
                    |id| placed.get(&id).copied().unwrap_or(0),
                );
                *placed.entry(home).or_default() += self.traffic.weight(tenant) as usize;
                home
            };
            if new_home == old_home {
                continue;
            }
            self.move_account(tenant, old_home, new_home, family);
            moved += 1;
        }
        moved + self.enforce_caps()
    }

    /// Re-run bounded-cap enforcement over *pinned* tenants after a
    /// topology change. Pins bypass the cap at placement time (a
    /// migration or failover decision), which used to leave a node join
    /// unable to relieve an over-cap node whose tenants were all pinned
    /// — caps were only re-evaluated at registration. Any pinned tenant
    /// still sitting on a node above its bounded cap is unpinned and
    /// re-placed under the cap, in tenant-id order. No-op with an
    /// infinite factor (pure rendezvous has no caps). Returns the moves.
    fn enforce_caps(&mut self) -> usize {
        if !self.load_factor.is_finite() {
            return 0;
        }
        let total = self.traffic.total(self.assignments.keys().copied()) as usize;
        let caps: BTreeMap<NodeId, usize> = self
            .shard_router
            .bounded_caps(total, self.load_factor)
            .into_iter()
            .collect();
        let mut loads = node_loads(&self.assignments, &self.traffic);
        let over = |loads: &BTreeMap<NodeId, u64>, node: NodeId| {
            loads.get(&node).copied().unwrap_or(0) as usize
                > caps.get(&node).copied().unwrap_or(usize::MAX)
        };
        let pinned: Vec<(TenantId, NodeId, String)> = self
            .assignments
            .iter()
            .filter(|(t, (node, _))| self.shard_router.pinned(**t) == Some(*node))
            .map(|(t, (node, family))| (*t, *node, family.clone()))
            .collect();
        let mut moved = 0;
        for (tenant, old_home, family) in pinned {
            if !over(&loads, old_home) {
                continue; // earlier moves already relieved this node
            }
            let weight = self.traffic.weight(tenant);
            self.shard_router.unpin(tenant);
            *loads.get_mut(&old_home).expect("home carries load") -= weight;
            let new_home =
                self.shard_router
                    .assign_bounded(tenant, &family, total, self.load_factor, |id| {
                        loads.get(&id).copied().unwrap_or(0) as usize
                    });
            *loads.entry(new_home).or_default() += weight;
            if new_home == old_home {
                continue;
            }
            self.move_account(tenant, old_home, new_home, family);
            moved += 1;
        }
        moved
    }

    /// Move one tenant's whole account between gateways and flip the
    /// routing table (balances, counters and audit chains travel).
    fn move_account(&mut self, tenant: TenantId, from: NodeId, to: NodeId, family: String) {
        let account = self
            .node_mut(from)
            .expect("old home exists during rebalance")
            .plane
            .gateway
            .remove_tenant(tenant)
            .expect("assigned tenant has an account");
        self.node_mut(to)
            .expect("new home exists")
            .plane
            .gateway
            .adopt_tenant(tenant, account);
        self.assignments.insert(tenant, (to, family));
    }

    /// Every tenant's quota position, in tenant order (fleet billing view).
    #[must_use]
    pub fn quota_census(&self) -> Vec<TenantQuota> {
        let mut out = Vec::with_capacity(self.assignments.len());
        for (tenant, (node, _)) in &self.assignments {
            let Some(fnode) = self.nodes.iter().find(|n| n.id == *node) else {
                continue;
            };
            if let Some(account) = fnode.plane.gateway.tenant(*tenant) {
                out.push(TenantQuota {
                    tenant: *tenant,
                    node: *node,
                    balance: account.quota.balance(),
                    consumed: account.quota.log().query_count(),
                    refunded: account.quota.log().refund_count(),
                });
            }
        }
        out
    }

    /// Verify every tenant's audit chain under `key_of(tenant)`. Returns
    /// the number of chains checked; the first broken chain aborts.
    pub fn verify_chains(
        &self,
        key_of: impl Fn(TenantId) -> [u8; 32],
    ) -> Result<usize, MeterError> {
        let mut checked = 0;
        for node in &self.nodes {
            for (tenant, account) in node.plane.gateway.accounts() {
                account.quota.log().verify(&key_of(tenant))?;
                checked += 1;
            }
        }
        Ok(checked)
    }

    /// Schedule live migrations for the *next* open-loop run
    /// ([`ServeFabric::run`], [`ServeFabric::run_with_retries`] or
    /// [`ServeFabric::run_live`]), which executes them at their trigger
    /// instants — specs in trigger order, schedule order breaking ties,
    /// triggers past the last arrival at end of stream — and reports one
    /// [`MigrationRecord`] per spec in [`FabricReport::migrations`]. A
    /// migration is a cross-node event in the run: drain the source, hand
    /// off atomically, adopt at the destination, flip + pin the routing.
    /// Every spec is validated first (known tenant, known destination
    /// node); on an error nothing is scheduled. Repeated calls append.
    /// The closed-loop drivers fire no cross-node events and leave a
    /// pending schedule untouched.
    pub fn schedule_migrations(&mut self, specs: &[MigrationSpec]) -> Result<(), ServeError> {
        for spec in specs {
            if !self.assignments.contains_key(&spec.tenant) {
                return Err(ServeError::UnknownTenant(spec.tenant));
            }
            if !self.nodes.iter().any(|n| n.id == spec.to) {
                return Err(ServeError::UnknownNode(spec.to));
            }
        }
        self.schedule.extend_from_slice(specs);
        Ok(())
    }

    /// Replay an arrival-ordered stream through the fabric. The shard
    /// router fans requests out to their tenants' home nodes; one
    /// interleaved loop drives every node's event engine (nodes share
    /// nothing, so each still sees exactly its own timers-and-arrivals
    /// sequence); cross-node events — scheduled migrations, injected
    /// crashes, controller ticks — fire in stream position; per-node stats
    /// and telemetry are merged into the fleet view.
    pub fn run(&mut self, stream: &[Request]) -> Result<FabricReport, ServeError> {
        self.run_interleaved(stream, None).map(|(report, _)| report)
    }

    /// Replay a stream with a closed retry loop at the driver: an
    /// admission-time shed with a transient reason ([`crate::retryable`])
    /// is re-delivered after a jittered exponential backoff, gated by the
    /// tenant's token bucket and the request's *absolute* deadline (a
    /// retry is never scheduled past it — see [`crate::schedule_retry`]).
    /// Retried deliveries re-enter admission as new arrivals at their
    /// backoff time, so the report's conservation law becomes
    /// `served + shed == arrivals` with arrivals counting retries.
    /// Deterministic: the jitter stream is seeded from the policy.
    pub fn run_with_retries(
        &mut self,
        stream: &[Request],
        policy: &RetryPolicy,
    ) -> Result<(FabricReport, RetryStats), ServeError> {
        self.run_interleaved(stream, Some(policy))
    }

    /// The interleaved multi-node replay loop behind [`ServeFabric::run`]
    /// and [`ServeFabric::run_with_retries`]: one event cursor drives
    /// every node's engine, the coordinator fires cross-node events in
    /// stream position, and an optional retry policy re-delivers
    /// transient sheds at their backoff times. Deliveries route at
    /// processing time — assignments move mid-stream.
    fn run_interleaved(
        &mut self,
        stream: &[Request],
        retry: Option<&RetryPolicy>,
    ) -> Result<(FabricReport, RetryStats), ServeError> {
        self.preflight()?;
        let refunded_before = self.refunded_total();
        let (nodes, policy, mut coordinator) = self.arm_coordinator();
        let sampled = coordinator.samples_nodes();
        let mut sim = SimNodes::arm(nodes, policy, |engine| engine.set_control_tap(sampled));
        let mut retries = RetryLoop::new(retry);

        for request in stream {
            if coordinator.next_due_us() <= request.arrival_us {
                coordinator.fire_due(request.arrival_us, &mut sim);
            }
            // Re-deliveries due at or before this arrival go first
            // (they were shed earlier in stream time).
            while let Some((again, attempt)) = retries.pop_due(request.arrival_us) {
                retries.deliver(&again, attempt, sim.node(coordinator.home_of(&again)));
            }
            retries.deliver(request, 0, sim.node(coordinator.home_of(request)));
        }
        let end_us = stream.last().map_or(0, |r| r.arrival_us);
        coordinator.finish_stream(end_us, &mut sim);
        // Drain re-deliveries scheduled past the last arrival.
        while let Some((again, attempt)) = retries.pop_due(u64::MAX) {
            retries.deliver(&again, attempt, sim.node(coordinator.home_of(&again)));
        }
        let per_node = sim.finish();
        let log = coordinator.finish();
        let report = self.assemble_report(per_node, refunded_before, Some(log));
        Ok((report, retries.stats))
    }

    /// Everything a run can reject, checked before anything is taken from
    /// the fabric or spawned (shared by all five drivers): a fault plan
    /// that references an unknown node, and a node with no model family
    /// installed. Panics on a plan that would crash the whole fleet.
    pub(crate) fn preflight(&self) -> Result<(), ServeError> {
        let mut crashed = BTreeSet::new();
        for (node, _) in self.fault_plan.crashes() {
            if !self.nodes.iter().any(|n| n.id == node) {
                return Err(ServeError::UnknownNode(node));
            }
            crashed.insert(node);
        }
        assert!(
            crashed.len() < self.nodes.len() || self.nodes.is_empty(),
            "a fault plan cannot crash every node"
        );
        if self.nodes.iter().any(|n| n.plane.family_names().is_empty()) {
            return Err(ServeError::NoFamilies);
        }
        Ok(())
    }

    /// Disjoint borrows of the fabric for the duration of a run: the
    /// nodes (one engine or worker thread each), the policy their engines
    /// are armed from, and the routing state the driver reads per request.
    pub(crate) fn split(&mut self) -> (&mut [FabricNode], NodePolicy<'_>, Routing<'_>) {
        (
            &mut self.nodes,
            NodePolicy {
                serve: &self.serve_cfg,
                observe: &self.observe_cfg,
                fault: &self.fault_plan,
            },
            Routing {
                shard_router: &mut self.shard_router,
                assignments: &mut self.assignments,
                traffic: &mut self.traffic,
            },
        )
    }

    /// [`ServeFabric::split`] for an open-loop run: the routing state goes
    /// to a [`Coordinator`] that consumes the pending migration schedule
    /// and the standby pool (hand its log back through
    /// [`ServeFabric::assemble_report`]). Call only after
    /// [`ServeFabric::preflight`] passed.
    pub(crate) fn arm_coordinator(
        &mut self,
    ) -> (&mut [FabricNode], NodePolicy<'_>, Coordinator<'_>) {
        let schedule = std::mem::take(&mut self.schedule);
        let controller = FleetController::new(
            self.controller_cfg.clone(),
            std::mem::take(&mut self.standby),
        );
        let load_factor = self.load_factor;
        let (nodes, policy, routing) = self.split();
        let coordinator = Coordinator::new(
            routing,
            policy.fault,
            schedule,
            controller,
            load_factor,
            policy.serve.gateway.max_total_pending,
        );
        (nodes, policy, coordinator)
    }

    /// Merge per-node accumulators into the fleet report — shared by
    /// every driver so all produce the same exact statistics: percentiles
    /// over the union of per-node latency samples, telemetry drained and
    /// merged, refunds counted against the pre-run baseline. `log` is what
    /// an open-loop run's coordinator hands back (`None` from the
    /// closed-loop drivers, which run none): its records land in the
    /// report and its topology changes persist — drained nodes return to
    /// standby, joined nodes stay in the router.
    pub(crate) fn assemble_report(
        &mut self,
        per_node: Vec<(NodeId, ServeStats)>,
        refunded_before: u64,
        log: Option<CoordinatorLog>,
    ) -> FabricReport {
        let (control, migrations) = log.map_or_else(Default::default, |log| {
            self.standby = log.standby;
            (log.control, log.migrations)
        });
        let mut fleet_stats = ServeStats::new();
        let mut per_node_reports = Vec::with_capacity(per_node.len());
        let mut node_reports_telemetry = Vec::with_capacity(per_node.len());
        let mut fleet_hits = 0;
        let mut fleet_misses = 0;
        let mut fleet_devices = 0;
        let mut windows = Vec::new();
        let mut alarms = Vec::new();
        let mut traces = Vec::new();
        for (id, mut stats) in per_node {
            if let Some(obs) = stats.take_observation() {
                let obs = *obs;
                windows.push((id, obs.windows));
                alarms.extend(obs.alarms.into_iter().map(|a| (id, a)));
                traces.push((id, obs.events));
            }
            let node = self
                .nodes
                .iter()
                .find(|n| n.id == id)
                .expect("stats come from live nodes");
            let report = stats.report(
                node.plane.cache.hits(),
                node.plane.cache.misses(),
                node.plane.router.devices_used(),
            );
            fleet_hits += node.plane.cache.hits();
            fleet_misses += node.plane.cache.misses();
            fleet_devices += node.plane.router.devices_used();
            fleet_stats.merge(&stats);
            per_node_reports.push((id, report));
            node_reports_telemetry.push(node.telemetry.drain());
        }
        let fleet = fleet_stats.report(fleet_hits, fleet_misses, fleet_devices);
        let latency_hist = fleet_stats.histogram().clone();
        FabricReport {
            fleet,
            per_node: per_node_reports,
            telemetry: TelemetryReport::merged(node_reports_telemetry),
            tenants_per_node: self.tenant_loads(),
            refunds: self.refunded_total() - refunded_before,
            latency_hist,
            windows,
            alarms,
            traces,
            control,
            migrations,
        }
    }

    /// The standby pool (nodes provisioned but outside the routing
    /// topology), id order.
    #[must_use]
    pub fn standby(&self) -> &[ShardNode] {
        &self.standby
    }

    /// The traffic ledger driving traffic-weighted bounded load.
    #[must_use]
    pub fn traffic(&self) -> &TrafficLedger {
        &self.traffic
    }

    pub(crate) fn refunded_total(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                n.plane
                    .gateway
                    .accounts()
                    .map(|(_, a)| a.refunded)
                    .sum::<u64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{LoadPlan, TenantSpec};
    use crate::testkit::{
        assert_conservation, assert_sim_live_parity, test_fabric as fabric, test_family as family,
    };
    use tinymlops_device::{default_mix, NetworkKind};

    fn plan(seed: u64, rps: f64, prepaid: u64, tenants: u32) -> LoadPlan {
        LoadPlan {
            tenants: (0..tenants)
                .map(|i| TenantSpec {
                    id: i + 1,
                    rate_rps: rps / f64::from(tenants),
                    model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                    prepaid_queries: prepaid,
                    deadline_us: 200_000,
                })
                .collect(),
            duration_us: 1_000_000,
            seed,
            feature_dim: 0,
        }
    }

    #[test]
    fn fleet_report_is_the_sum_of_node_reports() {
        let cfg = FabricConfig::default();
        let p = plan(11, 3_000.0, 1_000_000, 12);
        let mut f = fabric(&cfg, 60, 9);
        f.provision(&p);
        let report = f.run(&p.generate()).unwrap();
        let node_served: u64 = report.per_node.iter().map(|(_, r)| r.served).sum();
        assert_eq!(report.fleet.served, node_served);
        assert!(
            report.fleet.served > 500,
            "traffic flowed: {}",
            report.fleet
        );
        let node_shed: u64 = report.per_node.iter().map(|(_, r)| r.shed_total).sum();
        assert_eq!(report.fleet.shed_total, node_shed);
        let homed: usize = report.tenants_per_node.iter().map(|(_, n)| n).sum();
        assert_eq!(homed, 12, "every tenant has exactly one home");
        assert!(
            report.per_node.iter().filter(|(_, r)| r.served > 0).count() > 1,
            "load actually spreads across nodes"
        );
        assert_eq!(
            report.telemetry.counters.get("serve.served").copied(),
            Some(report.fleet.served),
            "merged telemetry agrees with merged stats"
        );
    }

    #[test]
    fn replay_is_deterministic_across_fresh_fabrics() {
        let cfg = FabricConfig::default();
        let p = plan(21, 2_000.0, 1_000_000, 8);
        let stream = p.generate();
        let mut a = fabric(&cfg, 45, 5);
        a.provision(&p);
        let mut b = fabric(&cfg, 45, 5);
        b.provision(&p);
        assert_eq!(a.run(&stream).unwrap(), b.run(&stream).unwrap());
    }

    #[test]
    fn downstream_sheds_are_fully_refunded() {
        // An all-offline fleet: every admitted batch hits NoRoute.
        let cfg = FabricConfig::default();
        let mut fleets = Fleet::generate(30, &default_mix(), 2).partition(3);
        for fleet in &mut fleets {
            for d in &mut fleet.devices {
                d.state.network = NetworkKind::Offline;
            }
        }
        let mut f = ServeFabric::new(&cfg, fleets);
        f.install_family("kws", family("kws", 0));
        f.install_family("vision", family("vision", 100));
        let p = plan(3, 500.0, 10_000, 6);
        f.provision(&p);
        let stream = p.generate();
        let report = f.run(&stream).unwrap();
        assert_eq!(report.fleet.served, 0);
        assert!(report.downstream_sheds() > 0, "no-route sheds happened");
        // Every shed refunded, none minted, chains verify under the
        // provisioning keys…
        assert_conservation(&f, &report, stream.len() as u64, 6 * 10_000);
        // …and the refunds restored every balance: nothing consumed net.
        for q in f.quota_census() {
            assert_eq!(q.balance, 10_000, "tenant {} lost quota", q.tenant);
            assert_eq!(q.consumed, q.refunded);
        }
    }

    #[test]
    fn join_and_leave_move_whole_accounts() {
        let cfg = FabricConfig::default();
        let p = plan(17, 1_000.0, 5_000, 16);
        let mut f = fabric(&cfg, 60, 7);
        f.provision(&p);
        f.run(&p.generate()).unwrap();
        let balance_sum =
            |f: &ServeFabric| -> u64 { f.quota_census().iter().map(|q| q.balance).sum() };
        let before = balance_sum(&f);
        let extra_fleet = Fleet::generate(20, &default_mix(), 99);
        let (new_id, moved_in) = f.add_node(1.0, extra_fleet);
        assert!(moved_in < 16, "join must not reshuffle everyone");
        assert_eq!(balance_sum(&f), before, "join conserves prepaid quota");
        for q in f.quota_census() {
            assert_eq!(f.home_node(q.tenant), Some(q.node));
        }
        let moved_out = f.remove_node(new_id).unwrap();
        assert_eq!(moved_out, moved_in, "leave returns exactly the joiners");
        assert_eq!(balance_sum(&f), before, "leave conserves prepaid quota");
        // Accounts still serve after two migrations.
        let report = f.run(&p.generate()).unwrap();
        assert!(report.fleet.served > 0);
    }

    #[test]
    fn unknown_node_removal_errors() {
        let cfg = FabricConfig::default();
        let mut f = fabric(&cfg, 30, 1);
        assert!(matches!(
            f.remove_node(42),
            Err(ServeError::UnknownNode(42))
        ));
    }

    #[test]
    fn live_migration_moves_a_tenant_mid_stream() {
        let cfg = FabricConfig::default();
        let p = plan(29, 6_000.0, 1_000_000, 10);
        let stream = p.generate();
        let mut f = fabric(&cfg, 60, 9);
        f.provision(&p);
        let tenant = 1u32;
        let from = f.home_node(tenant).unwrap();
        let to = (0..3).find(|n| *n != from).unwrap();
        let specs = [MigrationSpec {
            tenant,
            to,
            trigger_us: 500_000,
        }];
        f.schedule_migrations(&specs).unwrap();
        let report = f.run(&stream).unwrap();
        assert_eq!(report.migrations.len(), 1);
        let r = &report.migrations[0];
        assert_eq!((r.tenant, r.from, r.to), (tenant, from, to));
        assert_eq!(r.phase, MigrationPhase::Resumed);
        assert_eq!(r.handoff_us, 500_000);
        assert_eq!(f.home_node(tenant), Some(to), "routing flipped");
        // The account lives on the new home and kept serving there.
        let account = f
            .node_mut(to)
            .unwrap()
            .plane
            .gateway
            .tenant(tenant)
            .expect("account landed on the destination");
        assert!(
            account.admitted > r.admitted_before_handoff,
            "tenant was admitted on its new home after the handoff"
        );
        assert_eq!(account.quota.log().handoff_count(), 1);
        // Conservation across the migration: every arrival accounted,
        // every downstream shed refunded, quota neither burned nor minted,
        // and every chain (with its handoff entry) still verifies.
        assert_eq!(f.quota_census().len(), 10, "no tenant lost in the move");
        assert_conservation(&f, &report, stream.len() as u64, 1_000_000 * 10);
    }

    #[test]
    fn migration_replays_bit_identically_on_the_live_backend() {
        let cfg = FabricConfig::default();
        let p = plan(31, 8_000.0, 1_000_000, 12);
        let stream = p.generate();
        let specs = [
            MigrationSpec {
                tenant: 2,
                to: 2,
                trigger_us: 300_000,
            },
            MigrationSpec {
                tenant: 2,
                to: 0,
                trigger_us: 700_000,
            },
            MigrationSpec {
                tenant: 5,
                to: 1,
                trigger_us: 300_000,
            },
        ];
        let build = || {
            let mut f = fabric(&cfg, 45, 5);
            f.provision(&p);
            f
        };
        let out = assert_sim_live_parity(build, &stream, &specs);
        assert_eq!(out.report.migrations.len(), 3);
        assert_eq!(out.sim.home_node(2), out.live.home_node(2));
    }

    #[test]
    fn observability_is_off_by_default_and_bit_identical_when_on() {
        use tinymlops_observe::SpanKind;
        let p = plan(29, 6_000.0, 1_000_000, 10);
        let stream = p.generate();
        let mut probe = fabric(&FabricConfig::default(), 60, 9);
        probe.provision(&p);
        let tenant = 1u32;
        let from = probe.home_node(tenant).unwrap();
        let to = (0..3).find(|n| *n != from).unwrap();
        let specs = [MigrationSpec {
            tenant,
            to,
            trigger_us: 500_000,
        }];
        probe.schedule_migrations(&specs).unwrap();
        let off_report = probe.run(&stream).unwrap();
        assert!(off_report.windows.is_empty(), "disabled ⇒ no windows");
        assert!(off_report.alarms.is_empty(), "disabled ⇒ no alarms");
        assert!(off_report.traces.is_empty(), "disabled ⇒ no traces");
        assert_eq!(
            off_report.latency_hist.count(),
            off_report.fleet.served,
            "fleet histogram always carries every served sample"
        );

        let cfg_on = FabricConfig {
            // Ring big enough to hold the whole run: the default cache-sized
            // ring would overwrite the mid-stream handoff events.
            observe: ObserveConfig {
                trace_capacity: 1 << 16,
                ..ObserveConfig::enabled()
            },
            ..FabricConfig::default()
        };
        // Windows, alarms, traces and records replay bit-identically on
        // threads (the parity ritual compares whole reports).
        let build = || {
            let mut f = fabric(&cfg_on, 60, 9);
            f.provision(&p);
            f
        };
        let sim_report = assert_sim_live_parity(build, &stream, &specs).report;
        assert_eq!(
            sim_report.fleet, off_report.fleet,
            "observation never changes a serving decision"
        );
        let handoffs = sim_report
            .traces
            .iter()
            .flat_map(|(_, events)| events)
            .filter(|e| e.kind == SpanKind::Handoff)
            .count();
        assert_eq!(handoffs, 2, "source and destination each record it");
        assert!(!sim_report.windows.is_empty(), "series populated when on");
    }

    #[test]
    fn migration_pin_survives_rebalance() {
        let cfg = FabricConfig::default();
        let p = plan(17, 1_000.0, 5_000, 8);
        let mut f = fabric(&cfg, 60, 7);
        f.provision(&p);
        let stream = p.generate();
        let tenant = 3u32;
        let from = f.home_node(tenant).unwrap();
        let to = (0..3).find(|n| *n != from).unwrap();
        let specs = [MigrationSpec {
            tenant,
            to,
            trigger_us: 100_000,
        }];
        f.schedule_migrations(&specs).unwrap();
        f.run(&stream).unwrap();
        assert_eq!(f.home_node(tenant), Some(to));
        // A join-triggered rebalance must not snap the tenant back.
        let (new_id, _) = f.add_node(1.0, Fleet::generate(20, &default_mix(), 99));
        assert_eq!(f.home_node(tenant), Some(to), "pin holds through join");
        f.remove_node(new_id).unwrap();
        assert_eq!(f.home_node(tenant), Some(to), "pin holds through leave");
    }

    #[test]
    fn migration_validation_rejects_unknowns() {
        let cfg = FabricConfig::default();
        let p = plan(3, 500.0, 1_000, 4);
        let mut f = fabric(&cfg, 30, 2);
        f.provision(&p);
        let spec = |tenant, to| MigrationSpec {
            tenant,
            to,
            trigger_us: 0,
        };
        assert!(matches!(
            f.schedule_migrations(&[spec(1, 0), spec(99, 0)]),
            Err(ServeError::UnknownTenant(99))
        ));
        assert!(matches!(
            f.schedule_migrations(&[spec(1, 42)]),
            Err(ServeError::UnknownNode(42))
        ));
        // A rejected batch schedules nothing, valid leading specs included.
        let report = f.run(&p.generate()).unwrap();
        assert!(report.migrations.is_empty());
    }

    #[test]
    fn bounded_load_caps_tenants_per_node() {
        // One hot family + strong affinity: pure rendezvous would pile
        // everyone onto one node; the bounded factor forces overflow to
        // each tenant's next-best node.
        let cfg = FabricConfig {
            tenant_affinity: 1.0,
            load_factor: 1.25,
            ..Default::default()
        };
        let mut f = fabric(&cfg, 30, 4);
        let tenants = 24u32;
        for t in 0..tenants {
            f.register_tenant(t + 1, "kws", [0u8; 32]);
        }
        let caps = f.shard_router.bounded_caps(tenants as usize, 1.25);
        for (node, load) in f.tenant_loads() {
            let cap = caps.iter().find(|(n, _)| *n == node).unwrap().1;
            assert!(load <= cap, "node {node} holds {load} > cap {cap}");
        }
        let max_load = f.tenant_loads().iter().map(|(_, l)| *l).max().unwrap();
        assert!(
            max_load < tenants as usize,
            "full-affinity placement must be split by the cap"
        );
    }
}
