//! The serving plane, its event engine, and the discrete-event simulator.
//!
//! [`ServePlane`] wires the four serving components — gateway admission,
//! micro-batcher, model cache, fleet router — around a model registry
//! snapshot. `ServeEngine` (crate-internal) is the event core shared by
//! both serving backends: arrivals, deadline-triggered flushes, device
//! completions and fleet churn are heap-ordered events, all keyed by
//! explicit timestamps — the engine never reads a clock. [`ServeSim`]
//! drives the engine from a pre-generated stream (logical time; a
//! 100k-request replay is exact, fast, and a pure function of the seed)
//! while [`crate::exec`] drives the *same* engine from per-node OS
//! threads behind real ingest queues, on logical or wall timestamps (see
//! [`crate::clock`]).

use crate::batcher::{Batch, BatchPolicy, MicroBatcher, PushOutcome};
use crate::cache::{Admission, ModelCache};
use crate::fault::NodeFaults;
use crate::gateway::{Gateway, GatewayConfig, TenantAccount};
use crate::loadgen::LoadPlan;
use crate::observer::NodeObserver;
use crate::request::{Completion, Disposition, Request, ShedReason, TenantId};
use crate::router::Router;
use crate::shard::NodeId;
use crate::stats::{nearest_rank, ServeReport, ServeStats};
use crate::ServeError;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use tinymlops_deploy::Requirements;
use tinymlops_device::Fleet;
use tinymlops_nn::Sequential;
use tinymlops_observe::{CounterId, HistId, LogHistogram, Telemetry, TimerId};
use tinymlops_quant::QuantizedModel;
use tinymlops_registry::{ModelId, ModelRecord};
use tinymlops_tensor::stats::RunningStats;
use tinymlops_tensor::Tensor;

/// Serving-plane configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Micro-batching policy.
    pub batch: BatchPolicy,
    /// Gateway backpressure limits.
    pub gateway: GatewayConfig,
    /// Model-cache byte budget per serving node.
    pub cache_budget_bytes: u64,
    /// Constraints fed into variant selection (serving SLOs).
    pub requirements: Requirements,
    /// Fixed per-batch dispatch overhead (scheduling, IPC), microseconds.
    pub dispatch_overhead_us: u64,
    /// Artifact-load bandwidth charged on cache misses, bytes per ms.
    pub cache_load_bytes_per_ms: u64,
    /// Fleet churn period (battery/connectivity), microseconds; 0 = off.
    pub fleet_step_period_us: u64,
    /// Weigh "variant already resident in this node's [`ModelCache`]"
    /// against queue depth when picking a device
    /// ([`Router::route_affine`]); `false` restores the pure least-loaded
    /// policy (kept for the affinity A/B in `e16_sharding`).
    pub affinity_routing: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch: BatchPolicy::default(),
            gateway: GatewayConfig::default(),
            cache_budget_bytes: 256 * 1024,
            requirements: Requirements {
                max_latency_ms: 1e6,
                // Models are pushed to devices ahead of traffic; download
                // time is not on the request path.
                max_download_ms: f64::INFINITY,
                min_accuracy: 0.0,
                max_energy_mj: f64::INFINITY,
            },
            dispatch_overhead_us: 200,
            cache_load_bytes_per_ms: 2_000,
            fleet_step_period_us: 0,
            affinity_routing: true,
        }
    }
}

/// A deployable model executable — the real inference path the batcher
/// feeds when requests carry features.
#[derive(Clone)]
pub enum ExecModel {
    /// Full-precision runtime.
    F32(Sequential),
    /// Quantized integer runtime.
    Quantized(QuantizedModel),
}

impl ExecModel {
    /// Do the model's load-time work now — f32 weight panels packed,
    /// quantized weights unpacked and the fusion plan built — so the first
    /// batch does not pay for it.
    pub fn prepare(&self) {
        match self {
            ExecModel::F32(m) => m.prepare(),
            ExecModel::Quantized(m) => m.prepare(),
        }
    }

    /// Batched argmax prediction.
    #[must_use]
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        match self {
            ExecModel::F32(m) => m.predict(x),
            ExecModel::Quantized(m) => m.predict(x),
        }
    }
}

/// The assembled serving plane.
pub struct ServePlane {
    /// Admission control (§III-C metering at the door).
    pub gateway: Gateway,
    /// Micro-batching queues.
    pub batcher: MicroBatcher,
    /// Byte-budgeted variant cache.
    pub cache: ModelCache,
    /// Constraint-aware fleet router.
    pub router: Router,
    families: BTreeMap<String, Vec<ModelRecord>>,
    exec: BTreeMap<ModelId, Arc<ExecModel>>,
}

impl ServePlane {
    /// Assemble a plane over `fleet` under `cfg`.
    #[must_use]
    pub fn new(cfg: &ServeConfig, fleet: Fleet) -> Self {
        ServePlane {
            gateway: Gateway::new(cfg.gateway.clone()),
            batcher: MicroBatcher::new(cfg.batch.clone()),
            cache: ModelCache::new(cfg.cache_budget_bytes),
            router: Router::new(fleet, cfg.requirements.clone()),
            families: BTreeMap::new(),
            exec: BTreeMap::new(),
        }
    }

    /// Install a model family (registry snapshot of base + variants).
    pub fn install_family(&mut self, name: &str, records: Vec<ModelRecord>) {
        self.router.refresh_family(name, &records);
        self.families.insert(name.to_string(), records);
    }

    /// Install a real executable for a variant (enables non-virtual
    /// inference for requests carrying features), prepared here: a device
    /// loads a model once, then answers queries. Planes handed clones of
    /// one `Arc` share the weights and everything prepared from them.
    pub fn install_executable(&mut self, id: ModelId, model: impl Into<Arc<ExecModel>>) {
        let model = model.into();
        model.prepare();
        self.exec.insert(id, model);
    }

    /// Installed family names.
    #[must_use]
    pub fn family_names(&self) -> Vec<String> {
        self.families.keys().cloned().collect()
    }
}

/// Heap-ordered engine timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    /// Deadline-triggered flush check for a family queue (index into
    /// the engine's family table).
    Flush(u32),
    /// A dispatched batch completes (index into the in-flight slab).
    BatchDone(usize),
    /// Periodic fleet churn.
    FleetStep,
}

struct InFlight {
    requests: Vec<Request>,
    done_us: u64,
    device: u32,
}

/// Pre-registered handles for the engine's fixed `serve.*` metric set,
/// interned once at engine construction.
struct ServeMetrics {
    served: CounterId,
    latency_ms: TimerId,
    latency_us: HistId,
    admitted: CounterId,
    refunded: CounterId,
    batches: CounterId,
    batch_size: TimerId,
    /// Indexed by [`ShedReason::index`].
    shed: [CounterId; 6],
}

/// The engine's shard of its node's telemetry. An engine is the only
/// writer of its metric set for the whole run, so events accumulate in
/// plain fields and fold into the shared sink once, when the shard drops
/// — at [`ServeEngine::finish`], or while a live worker unwinds, so a
/// dead node's counters still land. Samples enter each accumulator in
/// event order and the sink's lanes are empty between drains, so the
/// fold is bit-identical to per-event recording.
struct TelemetryShard<'t> {
    sink: &'t Telemetry,
    ids: ServeMetrics,
    served: u64,
    admitted: u64,
    refunded: u64,
    batches: u64,
    /// Indexed by [`ShedReason::index`].
    shed: [u64; 6],
    latency_ms: RunningStats,
    batch_size: RunningStats,
    latency_us: LogHistogram,
}

impl<'t> TelemetryShard<'t> {
    fn new(sink: &'t Telemetry) -> Self {
        let shed = ShedReason::all().map(|r| sink.counter_id(&format!("serve.shed.{}", r.name())));
        TelemetryShard {
            sink,
            ids: ServeMetrics {
                served: sink.counter_id("serve.served"),
                latency_ms: sink.timer_id("serve.latency_ms"),
                latency_us: sink.hist_id("serve.latency_us"),
                admitted: sink.counter_id("serve.admitted"),
                refunded: sink.counter_id("serve.refunded"),
                batches: sink.counter_id("serve.batches"),
                batch_size: sink.timer_id("serve.batch_size"),
                shed,
            },
            served: 0,
            admitted: 0,
            refunded: 0,
            batches: 0,
            shed: [0; 6],
            latency_ms: RunningStats::new(),
            batch_size: RunningStats::new(),
            latency_us: LogHistogram::new(),
        }
    }

    fn on_served(&mut self, latency_us: u64) {
        self.served += 1;
        self.latency_ms.push(latency_us as f64 / 1000.0);
        self.latency_us.record(latency_us);
    }
}

impl Drop for TelemetryShard<'_> {
    fn drop(&mut self) {
        let ids = &self.ids;
        let counters = [
            (ids.served, self.served),
            (ids.admitted, self.admitted),
            (ids.refunded, self.refunded),
            (ids.batches, self.batches),
        ];
        for (id, n) in counters
            .into_iter()
            .chain(ids.shed.into_iter().zip(self.shed))
        {
            if n > 0 {
                self.sink.add_id(id, n);
            }
        }
        if self.latency_ms.count() > 0 {
            self.sink.merge_timer_id(ids.latency_ms, &self.latency_ms);
            self.sink.merge_hist_id(ids.latency_us, &self.latency_us);
        }
        if self.batch_size.count() > 0 {
            self.sink.merge_timer_id(ids.batch_size, &self.batch_size);
        }
    }
}

/// The per-node serving event core, shared by both backends.
///
/// The engine owns the timer heap, in-flight batch slab and statistics
/// accumulator; the *driver* owns the arrival source and the time source
/// ([`crate::Clock`]): [`ServeSim`] feeds it a pre-generated stream,
/// [`crate::exec`] feeds it from a live ingest queue. The engine itself
/// is purely timestamp-driven — it never reads a clock — so identical
/// inputs produce identical outputs on every driver, and a threaded
/// replay is bit-identical to the simulated one.
pub(crate) struct ServeEngine<'t> {
    cfg: ServeConfig,
    /// None without a sink — emission then costs nothing at all.
    tele: Option<TelemetryShard<'t>>,
    observer: Option<Box<NodeObserver>>,
    stats: ServeStats,
    timers: BinaryHeap<Reverse<(u64, u64, Timer)>>,
    seq: u64,
    /// Families a flush timer was ever armed for; [`Timer::Flush`]
    /// carries an index into this table so timers stay `Copy`.
    families: Vec<String>,
    inflight: Vec<Option<InFlight>>,
    /// Injected faults for this node (None unless a [`crate::FaultPlan`]
    /// is enabled — the disabled plane carries no state at all).
    faults: Option<NodeFaults>,
    /// Current brownout degradation level (0 = full catalog).
    brownout_level: usize,
    /// Controller-imposed brownout floor: dispatch degrades at
    /// `max(brownout_level, brownout_floor)`. 0 (the default) is the
    /// exact pre-controller path.
    brownout_floor: usize,
    /// Control-interval counters for the fleet controller (None unless a
    /// controller is armed — the disabled path carries no state at all).
    tap: Option<ControlTap>,
    /// Completion log for closed-loop drivers (None unless armed — the
    /// open-loop path carries no state at all). Pure observation: the
    /// tap only appends to a Vec at points where the outcome is already
    /// decided, so arming it never changes a serving decision.
    completions: Option<Vec<Completion>>,
}

/// How one request left the engine: what [`ServeEngine::settle`] owes its
/// gateway account, and the [`Disposition`] every sink is told.
enum Outcome {
    /// Completed on `device`: the pending slot is released.
    Served { latency_us: u64, device: u32 },
    /// Refused at admission: never charged, nothing pending.
    Refused(ShedReason),
    /// Admitted, then shed on this node: the pending slot is released and
    /// the prepaid query refunded through the audit chain.
    Refunded(ShedReason),
    /// Died with this node ([`ShedReason::Failover`]) after its account
    /// migrated away: counted here, refunded on the account's current
    /// home by the coordinator's orphan leg.
    Orphaned,
}

/// Per-control-interval counters behind [`ServeEngine::take_control_sample`].
/// Sampled and reset at every controller tick; pure observation (no
/// serving decision reads it), so arming the tap never changes outcomes.
#[derive(Debug, Default)]
struct ControlTap {
    arrivals: u64,
    served: u64,
    shed: u64,
    served_by_tenant: BTreeMap<TenantId, u64>,
    latencies_us: Vec<u64>,
}

impl<'t> ServeEngine<'t> {
    pub(crate) fn new(cfg: ServeConfig, telemetry: Option<&'t Telemetry>) -> Self {
        let mut engine = ServeEngine {
            cfg,
            tele: telemetry.map(TelemetryShard::new),
            observer: None,
            stats: ServeStats::new(),
            timers: BinaryHeap::new(),
            seq: 0,
            families: Vec::new(),
            inflight: Vec::new(),
            faults: None,
            brownout_level: 0,
            brownout_floor: 0,
            tap: None,
            completions: None,
        };
        if engine.cfg.fleet_step_period_us > 0 {
            engine.arm(engine.cfg.fleet_step_period_us, Timer::FleetStep);
        }
        engine
    }

    /// Attach a per-node observer; its hooks consume only timestamps the
    /// engine already computes, so attaching one never changes a serving
    /// decision.
    pub(crate) fn set_observer(&mut self, observer: Option<Box<NodeObserver>>) {
        self.observer = observer;
    }

    /// Attach this node's view of the fault plan (None disables the fault
    /// plane entirely — the engine then runs the exact pre-fault code
    /// paths).
    pub(crate) fn set_faults(&mut self, faults: Option<NodeFaults>) {
        self.faults = faults;
    }

    /// Current brownout degradation level (asserted by the ladder's unit
    /// test; the serving path reads the field directly).
    #[cfg(test)]
    pub(crate) fn brownout_level(&self) -> usize {
        self.brownout_level
    }

    /// Arm (or disarm) the control tap. Armed, the engine accumulates
    /// per-interval counters for [`ServeEngine::take_control_sample`];
    /// disarmed (the default) no control state exists at all.
    pub(crate) fn set_control_tap(&mut self, on: bool) {
        self.tap = on.then(ControlTap::default);
    }

    /// Controller brownout nudge: dispatch degrades at
    /// `max(auto level, floor)`. Setting 0 lifts the nudge.
    pub(crate) fn set_brownout_floor(&mut self, level: usize) {
        self.brownout_floor = level;
    }

    /// Arm (or disarm) the completion tap. Armed, every resolved request
    /// — served, shed at admission, shed downstream, or evacuated — is
    /// appended to a log a closed-loop driver drains with
    /// [`ServeEngine::drain_completions_into`]; disarmed (the default)
    /// the response path carries no state at all.
    pub(crate) fn set_completion_tap(&mut self, on: bool) {
        self.completions = on.then(Vec::new);
    }

    /// Move the completion log onto the end of `out` (nothing when the
    /// tap is disarmed). Both buffers keep their capacity, so a driver
    /// draining after every event allocates nothing in steady state.
    pub(crate) fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        if let Some(log) = &mut self.completions {
            out.append(log);
        }
    }

    /// Sample-and-reset the control tap at a controller tick: the
    /// interval's counters plus instantaneous queue state. Deterministic
    /// (BTreeMap iteration, integer sort), so replay backends produce
    /// bit-identical samples. Panics if the tap is not armed (a driver
    /// wiring bug).
    pub(crate) fn take_control_sample(
        &mut self,
        plane: &ServePlane,
    ) -> crate::controller::ControlSample {
        let tap = self.tap.as_mut().expect("control tap armed");
        let taken = std::mem::take(tap);
        let mut lat = taken.latencies_us;
        lat.sort_unstable();
        let p99_us = nearest_rank(&lat, 99.0);
        crate::controller::ControlSample {
            arrivals: taken.arrivals,
            served: taken.served,
            shed: taken.shed,
            served_by_tenant: taken.served_by_tenant,
            queue_depth: plane.gateway.total_pending(),
            inflight: self.inflight.iter().flatten().count(),
            p99_us,
            brownout_level: self.brownout_level.max(self.brownout_floor),
        }
    }

    /// The one place a request's outcome is recorded: settle its gateway
    /// account (release the pending slot, refund through the audit chain,
    /// or nothing — see [`Outcome`]) and tell every sink — completion
    /// log, statistics, control tap, telemetry shard, observer. Every
    /// resolution on this node goes through here exactly once, so the
    /// sinks cannot disagree. Inlined into its five call sites, where the
    /// outcome's variant is a constant and only that variant's arm stays.
    #[inline(always)]
    fn settle(&mut self, plane: &mut ServePlane, r: &Request, outcome: Outcome, at_us: u64) {
        let (disposition, refunded) = match outcome {
            Outcome::Served { latency_us, device } => {
                plane.gateway.resolve(r.tenant);
                (Disposition::Served { latency_us, device }, false)
            }
            Outcome::Refused(reason) => (Disposition::Shed(reason), false),
            Outcome::Refunded(reason) => {
                plane.gateway.resolve_shed(r.tenant, at_us / 1000);
                (Disposition::Shed(reason), true)
            }
            Outcome::Orphaned => (Disposition::Shed(ShedReason::Failover), false),
        };
        if let Some(log) = &mut self.completions {
            log.push(Completion {
                id: r.id,
                tenant: r.tenant,
                disposition,
                at_us,
            });
        }
        match disposition {
            Disposition::Served { latency_us, .. } => {
                self.stats.on_served(latency_us, at_us);
                if let Some(tap) = &mut self.tap {
                    tap.served += 1;
                    *tap.served_by_tenant.entry(r.tenant).or_default() += 1;
                    tap.latencies_us.push(latency_us);
                }
                if let Some(t) = &mut self.tele {
                    t.on_served(latency_us);
                }
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_complete(at_us, r, latency_us);
                }
            }
            Disposition::Shed(reason) => {
                self.stats.on_shed(reason);
                if let Some(tap) = &mut self.tap {
                    tap.shed += 1;
                }
                if let Some(t) = &mut self.tele {
                    t.shed[reason.index()] += 1;
                    t.refunded += u64::from(refunded);
                }
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_shed(at_us, r.tenant, r.id, reason);
                }
            }
        }
    }

    /// Index of `family` in the flush-timer family table (interned on
    /// first use — a handful of names per run).
    fn family_index(&mut self, family: &str) -> u32 {
        let idx = match self.families.iter().position(|f| f == family) {
            Some(idx) => idx,
            None => {
                self.families.push(family.to_string());
                self.families.len() - 1
            }
        };
        idx as u32
    }

    /// Record a live-migration handoff touching this node (`to_peer` true
    /// on the draining source, false on the adopting destination).
    pub(crate) fn observe_handoff(
        &mut self,
        at_us: u64,
        tenant: TenantId,
        peer: NodeId,
        to_peer: bool,
    ) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_handoff(at_us, tenant, peer, to_peer);
        }
    }

    fn arm(&mut self, at_us: u64, timer: Timer) {
        // An injected stall freezes the node: anything due inside the
        // window fires at its end instead. Idempotent, keyed only on the
        // due time, so both backends slide identically.
        let at_us = match &self.faults {
            Some(f) => f.stall_adjusted(at_us),
            None => at_us,
        };
        self.timers.push(Reverse((at_us, self.seq, timer)));
        self.seq += 1;
    }

    /// Earliest pending timer, if any (live drivers wait on this).
    pub(crate) fn next_timer_us(&self) -> Option<u64> {
        self.timers.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pop and handle every timer due at or before `t_us`. Timers at the
    /// same instant as an arrival run first, so a due flush precedes the
    /// arrival that would join the next batch. `more_arrivals` tells
    /// fleet churn whether to re-arm (the sim knows from its cursor; a
    /// live driver from its queue state).
    pub(crate) fn run_timers_through(
        &mut self,
        plane: &mut ServePlane,
        t_us: u64,
        more_arrivals: bool,
    ) {
        while self.next_timer_us().is_some_and(|t| t <= t_us) {
            let Reverse((now, _, timer)) = self.timers.pop().expect("peeked");
            match timer {
                Timer::Flush(family) => {
                    let due = plane
                        .batcher
                        .flush_due(&self.families[family as usize], now);
                    if let Some(batch) = due {
                        self.dispatch(plane, batch, now);
                    }
                }
                Timer::BatchDone(idx) => {
                    let done = self.inflight[idx].take().expect("completes once");
                    for r in &done.requests {
                        let served = Outcome::Served {
                            latency_us: done.done_us - r.arrival_us,
                            device: done.device,
                        };
                        self.settle(plane, r, served, done.done_us);
                    }
                }
                Timer::FleetStep => {
                    plane.router.step_fleet();
                    // Replan lazily; next route() refreshes.
                    if more_arrivals || plane.batcher.pending() > 0 {
                        self.arm(now + self.cfg.fleet_step_period_us, Timer::FleetStep);
                    }
                }
            }
        }
    }

    /// Admit-or-shed one arrival at its own timestamp. The borrow is the
    /// point: shed requests (the bulk of overload runs) never pay for a
    /// clone — only admitted work is copied into the batcher's queue.
    /// Returns the admission-time shed reason (None = admitted) so a
    /// retrying driver can tell transient pressure from hard denials;
    /// non-retrying drivers ignore it.
    pub(crate) fn on_arrival(
        &mut self,
        plane: &mut ServePlane,
        request: &Request,
    ) -> Option<ShedReason> {
        let now = request.arrival_us;
        self.step_brownout(plane);
        self.stats.on_arrival(now);
        if let Some(tap) = &mut self.tap {
            tap.arrivals += 1;
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_arrival(now);
        }
        match plane.gateway.admit(request) {
            Err(reason) => {
                self.settle(plane, request, Outcome::Refused(reason), now);
                Some(reason)
            }
            Ok(()) => {
                if let Some(t) = &mut self.tele {
                    t.admitted += 1;
                }
                let outcome = plane.batcher.push(request.clone());
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_admit(now, request, plane.batcher.pending());
                }
                self.after_push(plane, outcome, &request.model, now);
                None
            }
        }
    }

    /// Walk the brownout ladder one step if gateway pressure crossed a
    /// watermark. Reads only engine-local state (the gateway's pending
    /// count against its configured ceiling), so both backends step at
    /// identical points and replay parity holds with brownout enabled.
    fn step_brownout(&mut self, plane: &ServePlane) {
        let Some(faults) = &self.faults else {
            return;
        };
        let b = &faults.brownout;
        if !b.enabled {
            return;
        }
        let pressure =
            plane.gateway.total_pending() as f64 / self.cfg.gateway.max_total_pending.max(1) as f64;
        if pressure >= b.high_watermark && self.brownout_level < b.max_level {
            self.brownout_level += 1;
        } else if pressure <= b.low_watermark && self.brownout_level > 0 {
            self.brownout_level -= 1;
        }
    }

    /// Live-migration drain, source side: splice the tenant's queued
    /// (admitted, not yet dispatched) requests out of this node's
    /// batcher, returning them for handoff. Queue fronts may change, so
    /// every surviving family deadline is re-armed (stale timers are
    /// no-ops; a missing one would stall a queue). Requests the tenant
    /// already has *dispatched* stay: their completion timestamps are
    /// decided, they finish (and are counted) on this node.
    pub(crate) fn splice_tenant(
        &mut self,
        plane: &mut ServePlane,
        tenant: crate::request::TenantId,
    ) -> Vec<Request> {
        let spliced = plane.batcher.splice_tenant(tenant);
        if !spliced.is_empty() {
            for (family, at_us) in plane.batcher.flush_deadlines() {
                let family = self.family_index(&family);
                self.arm(at_us, Timer::Flush(family));
            }
        }
        spliced
    }

    /// Requests of `tenant` inside dispatched in-flight batches — work
    /// that will complete on this node after the account has moved away,
    /// so the detaching account's pending count must shed it first.
    pub(crate) fn inflight_pending(&self, tenant: crate::request::TenantId) -> usize {
        self.inflight
            .iter()
            .flatten()
            .map(|b| b.requests.iter().filter(|r| r.tenant == tenant).count())
            .sum()
    }

    /// Live-migration handoff, destination side: re-enqueue requests
    /// spliced from the source node's batcher. They were admitted (and
    /// charged) there, so they enter the batcher directly — no second
    /// trip through the gateway, no double billing. Their original
    /// arrival stamps are kept (migration latency is real latency);
    /// already-due deadline triggers fire on the next timer run at
    /// `now_us`.
    pub(crate) fn adopt_spliced(
        &mut self,
        plane: &mut ServePlane,
        spliced: Vec<Request>,
        now_us: u64,
    ) {
        for request in spliced {
            let family = request.model.clone();
            let outcome = plane.batcher.push(request);
            self.after_push(plane, outcome, &family, now_us);
        }
    }

    /// Act on what the batcher answered to a push into `family`'s queue:
    /// dispatch the batch the push completed, or arm the deadline timer
    /// of the queue it opened.
    fn after_push(&mut self, plane: &mut ServePlane, outcome: PushOutcome, family: &str, now: u64) {
        match outcome {
            PushOutcome::Flushed(batch) => self.dispatch(plane, batch, now),
            PushOutcome::Queued {
                flush_at_us: Some(flush_at_us),
            } => {
                let family = self.family_index(family);
                self.arm(flush_at_us, Timer::Flush(family));
            }
            PushOutcome::Queued { flush_at_us: None } => {}
        }
    }

    /// Crash teardown (injected [`crate::FaultKind::Crash`]): the node is
    /// dead as of `at_us`. Every queued and in-flight request dies with
    /// it — each is resolved as a refunded [`ShedReason::Failover`] shed
    /// while its account is still attached, so the prepaid query returns
    /// through the audit chain and `unrefunded_sheds() == 0` survives the
    /// crash. Every account is then detached and exported whole (in
    /// tenant-id order, nothing pending) for surviving nodes to adopt. The
    /// timer heap is cleared — nothing fires on a dead node — which is
    /// load-bearing: a surviving `BatchDone` would fire on an emptied
    /// in-flight slot. Deterministic given the plane state (tenants in id
    /// order, slab in dispatch order), so both backends tear down
    /// identically.
    ///
    /// The second return is the *orphans*: in-flight requests of tenants
    /// that already migrated away (the PR 5 drain leaves dispatched work
    /// behind and pre-debits the moving account's pending count). Their
    /// shed is counted here, but the refund must land on the account that
    /// was charged — the driver routes each orphan to the tenant's
    /// current home and calls [`ServeEngine::refund_orphan`] there.
    pub(crate) fn evacuate(
        &mut self,
        plane: &mut ServePlane,
        at_us: u64,
    ) -> (Vec<(TenantId, TenantAccount)>, Vec<Request>) {
        let tenants = plane.gateway.tenant_ids();
        let mut doomed: Vec<Request> = Vec::new();
        for &tenant in &tenants {
            doomed.extend(plane.batcher.splice_tenant(tenant));
        }
        debug_assert_eq!(plane.batcher.pending(), 0, "only known tenants enqueue");
        for slot in &mut self.inflight {
            if let Some(batch) = slot.take() {
                doomed.extend(batch.requests);
            }
        }
        self.timers.clear();
        let mut orphans = Vec::new();
        for r in doomed {
            if plane.gateway.tenant(r.tenant).is_some() {
                self.settle(plane, &r, Outcome::Refunded(ShedReason::Failover), at_us);
            } else {
                self.settle(plane, &r, Outcome::Orphaned, at_us);
                orphans.push(r);
            }
        }
        let mut accounts = Vec::new();
        for tenant in tenants {
            if let Some(account) = plane.gateway.remove_tenant(tenant) {
                debug_assert_eq!(account.pending, 0, "evacuation resolved all pending work");
                accounts.push((tenant, account));
            }
        }
        (accounts, orphans)
    }

    /// Refund one prepaid query on this node for a request of `tenant`
    /// that died on a crashed peer (see [`ServeEngine::evacuate`] —
    /// orphan leg of a crash that raced a migration). The shed was
    /// already counted on the dead node; only the refund lands here.
    pub(crate) fn refund_orphan(&mut self, plane: &mut ServePlane, tenant: TenantId, at_us: u64) {
        plane.gateway.refund_orphan(tenant, at_us / 1000);
        if let Some(t) = &mut self.tele {
            t.refunded += 1;
        }
    }

    /// Drain every remaining timer (no more arrivals will come) and
    /// return the statistics accumulator; dropping the engine here folds
    /// its telemetry shard into the node's sink. The drain never waits:
    /// remaining completion timestamps are already decided, so a
    /// wall-clock driver does not sleep out a saturated run's queued
    /// service time just to record it.
    pub(crate) fn finish(mut self, plane: &mut ServePlane) -> ServeStats {
        self.run_timers_through(plane, u64::MAX, false);
        debug_assert_eq!(plane.batcher.pending(), 0, "all queues drained");
        if let Some(obs) = self.observer.take() {
            self.stats.observation = Some(Box::new(obs.finish()));
        }
        self.stats
    }

    fn dispatch(&mut self, plane: &mut ServePlane, batch: Batch, now: u64) {
        // Injected dispatch-time panic (threaded backend only — see
        // `FaultKind::DispatchPanic`): the worker dies mid-run and the
        // feeder must survive it.
        if let Some(faults) = self.faults.as_mut() {
            if faults.take_panic(now) {
                panic!("injected fault: dispatch panic at {now}us");
            }
        }
        // Expired-before-dispatch requests are shed, not executed. They
        // were admitted (and charged) at the door, so the shed refunds the
        // prepaid query through the audit chain.
        // Almost every batch is all live: its member vector is reused as
        // is, and only a batch that holds an expired member is split.
        let mut live = batch.requests;
        if live.iter().any(|r| r.deadline_abs_us() < now) {
            let (kept, expired): (Vec<Request>, Vec<Request>) =
                live.into_iter().partition(|r| r.deadline_abs_us() >= now);
            live = kept;
            for r in &expired {
                self.settle(
                    plane,
                    r,
                    Outcome::Refunded(ShedReason::DeadlineExpired),
                    now,
                );
            }
        }
        if live.is_empty() {
            return;
        }
        // Route on the family's plan at the effective brownout level (the
        // automatic pressure ladder and the controller's floor compose by
        // max), replanning that level lazily after fleet churn.
        let level = self.brownout_level.max(self.brownout_floor);
        if plane.router.plan_at(&batch.model, level).is_none() {
            if let Some(records) = plane.families.get(&batch.model) {
                plane.router.refresh_at(&batch.model, level, records);
            }
        }
        let affinity = self
            .cfg
            .affinity_routing
            .then_some((&plane.cache, self.cfg.cache_load_bytes_per_ms));
        let route = plane.router.route_at(&batch.model, level, now, affinity);
        let Some(route) = route else {
            for r in &live {
                self.settle(plane, r, Outcome::Refunded(ShedReason::NoRoute), now);
            }
            return;
        };
        self.stats.on_batch(live.len());
        if let Some(t) = &mut self.tele {
            t.batches += 1;
            t.batch_size.push(live.len() as f64);
        }

        // Cache: a miss charges the artifact load time before execution.
        // The admitted record is deep-copied into an `Arc` once per miss
        // (amortized by the simulated multi-ms artifact load it models);
        // hits and repeat batches share the resident entry.
        let record = &route.selection.record;
        let cache_hit = plane.cache.get(record.id).is_some();
        let mut cache_evicted = 0usize;
        let load_us = if cache_hit {
            0
        } else {
            if let Admission::Inserted(evicted) = plane.cache.admit(record.clone()) {
                cache_evicted = evicted;
            }
            let ms = record.size_bytes as f64 / self.cfg.cache_load_bytes_per_ms.max(1) as f64;
            (ms * 1000.0) as u64
        };

        // Real inference when an executable is installed and the batch
        // carries features: the micro-batcher feeds nn/quant directly.
        if let Some(exec) = plane.exec.get(&record.id) {
            let dim = live.iter().find_map(|r| r.features.as_ref().map(Vec::len));
            if let Some(dim) = dim {
                let rows: Vec<&Request> = live
                    .iter()
                    .filter(|r| r.features.as_ref().map(Vec::len) == Some(dim))
                    .collect();
                if !rows.is_empty() {
                    let mut data = Vec::with_capacity(rows.len() * dim);
                    for r in &rows {
                        data.extend_from_slice(r.features.as_ref().expect("filtered"));
                    }
                    let x = Tensor::from_vec(data, &[rows.len(), dim]);
                    let preds = exec.predict(&x);
                    self.stats.real_predictions += preds.len() as u64;
                }
            }
        }

        // Virtual execution cost: per-batch overhead + artifact load +
        // sequential per-item inference at the selected variant's speed.
        let per_item_us = (route.selection.latency_ms * 1000.0) as u64;
        let mut service_us =
            self.cfg.dispatch_overhead_us + load_us + per_item_us * live.len() as u64;
        // Injected slowdown: a degraded node's device work takes longer
        // from the fault's start time onward.
        if let Some(faults) = &self.faults {
            let multiplier = faults.slow_multiplier(now);
            if multiplier != 1.0 {
                service_us = (service_us as f64 * multiplier) as u64;
            }
        }
        let start = plane.router.free_at(route.device_index, now);
        let mut done_us = start + service_us.max(1);
        // Injected stall: a completion landing inside a stall window
        // slides to the window's end (the timer in `arm` would slide the
        // same way; adjusting here keeps `InFlight::done_us` — and the
        // latency accounting — consistent with the fired timer).
        if let Some(faults) = &self.faults {
            done_us = faults.stall_adjusted(done_us);
        }
        plane.router.occupy(route.device_index, done_us);
        // §IV: inference drains the device battery.
        let energy = route.selection.energy_mj * live.len() as f64;
        let _ = plane.router.fleet.devices[route.device_index]
            .state
            .battery
            .drain_mj(energy);

        let idx = self.inflight.len();
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_dispatch(now, idx as u64, live.len(), done_us - now);
            obs.on_cache(now, cache_hit, cache_evicted);
        }
        self.inflight.push(Some(InFlight {
            requests: live,
            done_us,
            device: route.device_index as u32,
        }));
        self.arm(done_us, Timer::BatchDone(idx));
    }
}

/// Discrete-event driver for a [`ServePlane`]: the shared serving engine
/// fed from a pre-generated arrival stream (logical time — see
/// [`crate::clock`]).
pub struct ServeSim<'a> {
    cfg: ServeConfig,
    telemetry: Option<&'a Telemetry>,
}

impl<'a> ServeSim<'a> {
    /// New simulator; pass a [`Telemetry`] sink to receive serving
    /// counters (`serve.*`).
    #[must_use]
    pub fn new(cfg: ServeConfig, telemetry: Option<&'a Telemetry>) -> Self {
        ServeSim { cfg, telemetry }
    }

    /// Provision tenants from a plan: open accounts and credit prepaid
    /// quota (serial = tenant id here; `Platform` wires real vouchers).
    pub fn provision(&self, plane: &mut ServePlane, plan: &LoadPlan) {
        for t in &plan.tenants {
            plane
                .gateway
                .register_tenant(t.id, crate::testkit::test_meter_key(t.id));
            plane
                .gateway
                .credit(t.id, t.prepaid_queries, u64::from(t.id), 0)
                .expect("account just opened");
        }
    }

    /// Replay `stream` through `plane`, returning the run report.
    pub fn run(
        &self,
        plane: &mut ServePlane,
        stream: &[Request],
    ) -> Result<ServeReport, ServeError> {
        let stats = self.run_collect(plane, stream)?;
        Ok(stats.report(
            plane.cache.hits(),
            plane.cache.misses(),
            plane.router.devices_used(),
        ))
    }

    /// Replay `stream`, returning the raw accumulator instead of a report
    /// — the fabric merges per-node accumulators so fleet percentiles are
    /// exact rather than percentile-of-percentiles. Generic over borrowed
    /// requests so the fabric's fan-out can pass `&[&Request]` and the
    /// admission-time copy inside the engine stays the only clone.
    pub(crate) fn run_collect<R: std::borrow::Borrow<Request>>(
        &self,
        plane: &mut ServePlane,
        stream: &[R],
    ) -> Result<ServeStats, ServeError> {
        if plane.families.is_empty() {
            return Err(ServeError::NoFamilies);
        }
        let mut engine = ServeEngine::new(self.cfg.clone(), self.telemetry);
        for r in stream {
            let request = r.borrow();
            engine.run_timers_through(plane, request.arrival_us, true);
            let _ = engine.on_arrival(plane, request);
        }
        Ok(engine.finish(plane))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::TenantSpec;
    use crate::testkit::test_family as family;
    use tinymlops_device::default_mix;

    fn plan(seed: u64, rps: f64, prepaid: u64) -> LoadPlan {
        LoadPlan {
            tenants: vec![
                TenantSpec {
                    id: 1,
                    rate_rps: rps,
                    model: "kws".into(),
                    prepaid_queries: prepaid,
                    deadline_us: 200_000,
                },
                TenantSpec {
                    id: 2,
                    rate_rps: rps / 2.0,
                    model: "vision".into(),
                    prepaid_queries: prepaid,
                    deadline_us: 200_000,
                },
            ],
            duration_us: 1_000_000,
            seed,
            feature_dim: 0,
        }
    }

    fn plane_with(cfg: &ServeConfig, fleet_size: usize) -> ServePlane {
        let fleet = Fleet::generate(fleet_size, &default_mix(), 9);
        let mut p = ServePlane::new(cfg, fleet);
        p.install_family("kws", family("kws", 0));
        p.install_family("vision", family("vision", 100));
        p
    }

    fn plane(cfg: &ServeConfig) -> ServePlane {
        plane_with(cfg, 40)
    }

    /// Provision + generate + run in one call.
    fn run_plan(
        plane: &mut ServePlane,
        plan: &LoadPlan,
        cfg: ServeConfig,
        telemetry: Option<&Telemetry>,
    ) -> Result<ServeReport, ServeError> {
        let sim = ServeSim::new(cfg, telemetry);
        sim.provision(plane, plan);
        sim.run(plane, &plan.generate())
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = ServeConfig::default();
        let p = plan(42, 800.0, 100_000);
        let a = run_plan(&mut plane(&cfg), &p, cfg.clone(), None).unwrap();
        let b = run_plan(&mut plane(&cfg), &p, cfg.clone(), None).unwrap();
        assert_eq!(a, b, "same seed, same everything");
        assert!(a.served > 500, "plenty of traffic served: {}", a.served);
    }

    #[test]
    fn quota_exhaustion_sheds_the_tail() {
        let cfg = ServeConfig::default();
        let p = plan(7, 500.0, 50);
        let mut pl = plane(&cfg);
        let report = run_plan(&mut pl, &p, cfg, None).unwrap();
        // Two tenants × 50 prepaid. Downstream sheds refund their query,
        // so the conservation law is: served == credited − leftover, and
        // every admitted-then-shed request shows up as a Refund entry.
        let leftover: u64 = pl.gateway.accounts().map(|(_, a)| a.quota.balance()).sum();
        assert_eq!(
            report.served + leftover,
            100,
            "prepaid queries are either served or still on balance"
        );
        let refunded: u64 = pl.gateway.accounts().map(|(_, a)| a.refunded).sum();
        assert_eq!(
            refunded,
            report.shed_by(ShedReason::DeadlineExpired) + report.shed_by(ShedReason::NoRoute),
            "no admitted-then-shed query is silently burned"
        );
        assert!(report.shed_by(ShedReason::QuotaExhausted) > 100);
        assert!(report.shed_rate > 0.5);
    }

    #[test]
    fn batching_amortizes_overhead_under_load() {
        // Open-loop overload, batch=1 vs batch=8. Micro-batching spends a
        // little waiting latency to amortize per-dispatch overhead, so at
        // saturation it must push more requests through and shed fewer.
        let p = plan(13, 20_000.0, 10_000_000);
        let mut cfg1 = ServeConfig::default();
        cfg1.batch.max_batch = 1;
        let mut cfg8 = ServeConfig::default();
        cfg8.batch.max_batch = 8;
        let r1 = run_plan(&mut plane_with(&cfg1, 12), &p, cfg1.clone(), None).unwrap();
        let r8 = run_plan(&mut plane_with(&cfg8, 12), &p, cfg8.clone(), None).unwrap();
        assert!(
            r8.mean_batch > 1.5,
            "batcher actually batches: {}",
            r8.mean_batch
        );
        assert!(
            r8.served > r1.served,
            "batch=8 served {} !> batch=1 served {}",
            r8.served,
            r1.served
        );
        assert!(
            r8.shed_rate <= r1.shed_rate,
            "batch=8 shed {} !<= batch=1 shed {}",
            r8.shed_rate,
            r1.shed_rate
        );
    }

    #[test]
    fn telemetry_receives_serving_counters() {
        let telemetry = Telemetry::new();
        let cfg = ServeConfig::default();
        let p = plan(3, 300.0, 100_000);
        let report = run_plan(&mut plane(&cfg), &p, cfg, Some(&telemetry)).unwrap();
        assert_eq!(telemetry.counter("serve.served"), report.served);
        assert_eq!(telemetry.counter("serve.batches"), report.batches);
        let snap = telemetry.snapshot();
        assert!(snap.timers.contains_key("serve.latency_ms"));
    }

    #[test]
    fn cache_pressure_causes_evictions_and_hits() {
        // Budget fits one mid-sized variant only.
        let cfg = ServeConfig {
            cache_budget_bytes: 12_000,
            ..Default::default()
        };
        let p = plan(5, 600.0, 100_000);
        let mut pl = plane(&cfg);
        let report = run_plan(&mut pl, &p, cfg, None).unwrap();
        assert!(report.cache_hits > 0, "steady state hits");
        assert!(
            pl.cache.used_bytes() <= pl.cache.budget_bytes(),
            "budget holds"
        );
    }

    #[test]
    fn no_families_is_an_error() {
        let cfg = ServeConfig::default();
        let fleet = Fleet::generate(4, &default_mix(), 1);
        let mut empty = ServePlane::new(&cfg, fleet);
        let sim = ServeSim::new(cfg, None);
        assert!(matches!(
            sim.run(&mut empty, &[]),
            Err(ServeError::NoFamilies)
        ));
    }

    #[test]
    fn brownout_ladder_steps_down_under_pressure_and_recovers() {
        // A tiny global pending ceiling so a handful of admitted-but-
        // uncompleted requests crosses the high watermark; a long batch
        // delay keeps them pending.
        let cfg = ServeConfig {
            gateway: crate::gateway::GatewayConfig {
                max_pending_per_tenant: 64,
                max_total_pending: 8,
            },
            batch: crate::batcher::BatchPolicy {
                max_batch: 64,
                max_delay_us: 1_000_000,
            },
            ..Default::default()
        };
        let mut pl = plane(&cfg);
        pl.gateway.register_tenant(1, [1; 32]);
        pl.gateway.credit(1, 1_000, 7, 0).unwrap();
        let mut engine = ServeEngine::new(cfg, None);
        let fault_plan = crate::fault::FaultPlan {
            enabled: true,
            events: vec![],
            brownout: crate::fault::BrownoutConfig::enabled(),
        };
        engine.set_faults(NodeFaults::for_node(&fault_plan, 0, false));
        assert_eq!(engine.brownout_level(), 0);
        let req = |id: u64, at: u64| Request {
            id,
            tenant: 1,
            model: "kws".into(),
            arrival_us: at,
            deadline_us: 500_000,
            features: None,
        };
        // Pressure is sampled before each admission, so the 7th arrival
        // sees 6 pending / ceiling 8 = 0.75 — the high watermark — and
        // steps one level per arrival down to max_level.
        for i in 0..6 {
            let _ = engine.on_arrival(&mut pl, &req(i, 1_000 + i));
        }
        assert_eq!(engine.brownout_level(), 0, "below watermark, no step");
        let _ = engine.on_arrival(&mut pl, &req(6, 1_010));
        assert_eq!(engine.brownout_level(), 1, "high watermark steps down");
        let _ = engine.on_arrival(&mut pl, &req(7, 1_011));
        assert_eq!(engine.brownout_level(), 2);
        let _ = engine.on_arrival(&mut pl, &req(8, 1_012));
        assert_eq!(engine.brownout_level(), 2, "max_level caps the ladder");
        // Recovery: drain everything, then pressure 0 steps back up one
        // level per arrival (hysteresis, not a cliff).
        engine.run_timers_through(&mut pl, 2_000_000, true);
        let _ = engine.on_arrival(&mut pl, &req(11, 2_000_001));
        assert_eq!(engine.brownout_level(), 1);
        let _ = engine.on_arrival(&mut pl, &req(12, 2_000_002));
        assert_eq!(engine.brownout_level(), 0, "ladder fully recovers");
    }
}
