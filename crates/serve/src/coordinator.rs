//! The fleet coordinator: the cross-node protocol of a fabric run —
//! live migration, crash failover and the controller tick — written
//! once and run over a [`Transport`] by both backends.
//!
//! A run's cross-node events are the merged trigger sequence
//! ([`merge_triggers`]: injected crashes and scheduled migrations in
//! `(time, crashes-first, schedule order)`) interleaved with controller
//! ticks at `k · interval`; a trigger and a tick due at the same instant
//! fire trigger-first. The driver — the simulator's interleaved loop or
//! the live ingest feeder — compares [`Coordinator::next_due_us`]
//! against each arrival and calls [`Coordinator::fire_due`] only when
//! something is due, so every node sees a cross-node event after exactly
//! the same prefix of its traffic on both backends. Sim ≡ live parity of
//! migration records, failover placement and controller decisions is
//! therefore a property of this one module, not of two copies kept in
//! step.
//!
//! The coordinator never touches a node directly. It sends a [`NodeOp`]
//! through the transport and reads the [`NodeReply`]; what a node *does*
//! for each op is [`NodeOp::apply`], called by the simulator's direct
//! transport on its own engines and by the threaded backend's node
//! workers when the op arrives through their ingest queue. An
//! [`Unreachable`] answer means the node's worker is genuinely gone (a
//! panic closed its queue): the coordinator freezes whatever it was doing
//! at the step it reached — a migration record keeps its last phase, a
//! crash of a dead worker evacuates nothing, a tick skips the silent
//! node — and the loss surfaces as a [`crate::NodeFailure`] after the
//! run. The simulator's nodes are never unreachable.

use crate::controller::{
    spec_of, ControlAction, ControlRecord, ControlSample, ControllerView, FleetController,
};
use crate::fabric::{MigrationPhase, MigrationRecord, MigrationSpec};
use crate::fault::{plan_evacuation, FaultPlan};
use crate::gateway::TenantAccount;
use crate::request::{Request, TenantId};
use crate::shard::{NodeId, ShardNode, ShardRouter, TrafficLedger};
use crate::sim::{ServeEngine, ServePlane};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Everything that travels in one atomic handoff: the whole tenant
/// account (balance, counters, audit chain) plus the spliced
/// not-yet-dispatched requests. A migration's source seals the chain
/// with a [`tinymlops_meter::EntryKind::Handoff`] entry before the
/// package leaves; a crashed source cannot, so its package says who must
/// (`failover_to`).
pub(crate) struct HandoffPackage {
    account: TenantAccount,
    spliced: Vec<Request>,
    from: NodeId,
    /// Crash failover only: the adopting node, which seals the chain
    /// itself with a domain-separated
    /// [`tinymlops_meter::EntryKind::Failover`] entry.
    failover_to: Option<NodeId>,
    handoff_us: u64,
    drained_in_flight: usize,
}

/// One step of the cross-node protocol, addressed to a single node.
/// Logical instants (`at_us`) are what the node acts at under replay; a
/// wall-mode worker re-stamps them with real elapsed time.
pub(crate) enum NodeOp {
    /// Migration source side: drain the tenant and hand back the sealed
    /// [`HandoffPackage`].
    Drain {
        tenant: TenantId,
        from: NodeId,
        to: NodeId,
        at_us: u64,
    },
    /// Landing side of a migration *or* a crash failover: attach the
    /// account (sealing its chain first if the source could not) and
    /// re-enqueue the spliced work.
    Adopt {
        tenant: TenantId,
        package: HandoffPackage,
    },
    /// Injected [`crate::FaultKind::Crash`]: resolve queued and in-flight
    /// work as refunded failover sheds and export every account (plus the
    /// orphaned requests of tenants that had already migrated away). A
    /// threaded worker exits after this op.
    Crash { at_us: u64 },
    /// Orphan refund: return one prepaid query to a tenant homed here
    /// whose in-flight request died on a crashed peer.
    Refund { tenant: TenantId, at_us: u64 },
    /// Controller tick: sample-and-reset the control tap.
    Sample { at_us: u64 },
    /// Controller brownout nudge: floor (or lift, at 0) the ladder.
    SetBrownoutFloor { level: usize, at_us: u64 },
}

/// What a node answers to a [`NodeOp`].
pub(crate) enum NodeReply {
    /// The op was applied and carries nothing back (also a `Drain` of a
    /// tenant with no account here — a routing bug the coordinator
    /// records by freezing the migration at `Draining`).
    Done,
    /// `Drain`: the sealed handoff.
    Drained(HandoffPackage),
    /// `Crash`: evacuated accounts in tenant-id order, then orphans.
    Evacuated(Vec<(TenantId, TenantAccount)>, Vec<Request>),
    /// `Sample`: the control interval's counters.
    Sampled(ControlSample),
}

impl NodeOp {
    /// Apply this op on one node: bring the engine to the op's instant,
    /// then act. `at` maps a logical instant to the node's clock —
    /// identity under replay, real elapsed time in wall mode. This is the
    /// only place the node side of the protocol is written.
    pub(crate) fn apply(
        self,
        engine: &mut ServeEngine<'_>,
        plane: &mut ServePlane,
        at: impl Fn(u64) -> u64,
    ) -> NodeReply {
        match self {
            NodeOp::Drain {
                tenant,
                from,
                to,
                at_us,
            } => {
                let now = at(at_us);
                engine.run_timers_through(plane, now, true);
                // Splice queued work; dispatched batches keep running here
                // and resolve (as no-ops against the departed account), so
                // the account leaves carrying only the spliced requests as
                // pending work, its re-homing sealed into the audit chain.
                let spliced = engine.splice_tenant(plane, tenant);
                let drained_in_flight = engine.inflight_pending(tenant);
                let Some(mut account) = plane.gateway.remove_tenant(tenant) else {
                    return NodeReply::Done;
                };
                account.pending = account.pending.saturating_sub(drained_in_flight);
                account.quota.handoff(from, to, now / 1000);
                engine.observe_handoff(now, tenant, to, true);
                NodeReply::Drained(HandoffPackage {
                    account,
                    spliced,
                    from,
                    failover_to: None,
                    handoff_us: now,
                    drained_in_flight,
                })
            }
            NodeOp::Adopt {
                tenant,
                mut package,
            } => {
                let now = at(package.handoff_us);
                engine.run_timers_through(plane, now, true);
                engine.observe_handoff(now, tenant, package.from, false);
                // A dead source sealed nothing: this survivor extends the
                // chain before the account attaches.
                if let Some(to) = package.failover_to {
                    package.account.quota.failover(package.from, to, now / 1000);
                }
                plane.gateway.adopt_tenant(tenant, package.account);
                // Pre-admitted on the source: straight into the batcher,
                // so nothing is billed twice.
                engine.adopt_spliced(plane, package.spliced, now);
                NodeReply::Done
            }
            NodeOp::Crash { at_us } => {
                let now = at(at_us);
                engine.run_timers_through(plane, now, true);
                let (accounts, orphans) = engine.evacuate(plane, now);
                NodeReply::Evacuated(accounts, orphans)
            }
            NodeOp::Refund { tenant, at_us } => {
                engine.refund_orphan(plane, tenant, at(at_us));
                NodeReply::Done
            }
            NodeOp::Sample { at_us } => {
                engine.run_timers_through(plane, at(at_us), true);
                NodeReply::Sampled(engine.take_control_sample(plane))
            }
            NodeOp::SetBrownoutFloor { level, at_us } => {
                engine.run_timers_through(plane, at(at_us), true);
                engine.set_brownout_floor(level);
                NodeReply::Done
            }
        }
    }
}

/// Why a node did not answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unreachable {
    /// The node refused the op outright (its queue is closed): nothing
    /// was started.
    Refused,
    /// The node accepted the op and died before answering.
    ReplyDropped,
}

/// How the coordinator reaches nodes. Two implementations serve: the
/// simulator's direct transport (index into its engines, never
/// unreachable) and the threaded backend's queued transport (control
/// entries through the ingest queues). A generic parameter, not a trait
/// object — the hot path never sees it.
pub(crate) trait Transport {
    /// Deliver `op` to `node` and wait for its reply.
    fn call(&mut self, node: NodeId, op: NodeOp) -> Result<NodeReply, Unreachable>;

    /// Deliver an op whose reply the protocol does not need; `false` iff
    /// the node refused it. The queued transport overrides this so the
    /// feeder does not wait on the worker.
    fn post(&mut self, node: NodeId, op: NodeOp) -> bool {
        self.call(node, op).is_ok()
    }

    /// Wall mode only: pull `tenant`'s not-yet-ingested arrivals out of
    /// `from`'s queue before its drain, so the old home never sees them.
    fn hold_queued(&mut self, _tenant: TenantId, _from: NodeId) {}

    /// Wall mode only: re-route what [`Transport::hold_queued`] pulled to
    /// `to`, now that the account lives there. Returns how many moved (0
    /// under replay, where ingested work stays pinned to its node).
    fn release_held(&mut self, _to: NodeId) -> usize {
        0
    }
}

/// A cross-node event of a run: an injected node crash or a scheduled
/// live migration.
enum FleetTrigger {
    Crash { node: NodeId },
    Migrate(MigrationSpec),
}

/// Merge a fault plan's crash events with the migration schedule into one
/// trigger sequence ordered by (time, crashes-first, schedule order): the
/// sort is stable, so ties keep the order they were collected in.
fn merge_triggers(plan: &FaultPlan, schedule: Vec<MigrationSpec>) -> VecDeque<(u64, FleetTrigger)> {
    let crashes = plan
        .crashes()
        .map(|(node, at_us)| (at_us, FleetTrigger::Crash { node }));
    let moves = schedule
        .into_iter()
        .map(|spec| (spec.trigger_us, FleetTrigger::Migrate(spec)));
    let mut triggers: Vec<_> = crashes.chain(moves).collect();
    triggers.sort_by_key(|(at_us, _)| *at_us);
    triggers.into()
}

/// The fabric's routing state for the duration of a run: read per
/// request by the driver, mutated per cross-node event by the
/// coordinator.
pub(crate) struct Routing<'f> {
    pub(crate) shard_router: &'f mut ShardRouter,
    pub(crate) assignments: &'f mut BTreeMap<TenantId, (NodeId, String)>,
    pub(crate) traffic: &'f mut TrafficLedger,
}

impl Routing<'_> {
    /// Where a delivery for `tenant` goes right now. Unknown tenants are
    /// still routed (by the placement hash) so the owning gateway records
    /// the denial, exactly like one node handling an unprovisioned key.
    #[inline]
    pub(crate) fn home_of(&self, tenant: TenantId, family: &str) -> NodeId {
        match self.assignments.get(&tenant) {
            Some((node, _)) => *node,
            None => self.shard_router.assign(tenant, family),
        }
    }
}

/// What a finished run's coordinator hands back to the fabric.
pub(crate) struct CoordinatorLog {
    /// One record per executed migration — operator-scheduled and
    /// controller-initiated — in execution order.
    pub(crate) migrations: Vec<MigrationRecord>,
    /// The controller's decision log.
    pub(crate) control: Vec<ControlRecord>,
    /// The standby pool after the run (drained nodes returned to it).
    pub(crate) standby: Vec<ShardNode>,
}

/// One run's cross-node state machine (see the module docs).
pub(crate) struct Coordinator<'f> {
    routing: Routing<'f>,
    triggers: VecDeque<(u64, FleetTrigger)>,
    /// Nodes crashed so far this run.
    dead: BTreeSet<NodeId>,
    controller: FleetController,
    tick_interval: u64,
    /// Next controller tick; `u64::MAX` with the controller disabled.
    next_tick: u64,
    /// `min(next trigger, next tick)` — the driver's per-request compare.
    next_due: u64,
    load_factor: f64,
    max_total_pending: usize,
    migrations: Vec<MigrationRecord>,
}

impl<'f> Coordinator<'f> {
    /// A coordinator over `routing` that will fire `plan`'s crashes and
    /// the (already validated) migration `schedule`, and tick
    /// `controller` if its policy is enabled.
    pub(crate) fn new(
        routing: Routing<'f>,
        plan: &FaultPlan,
        schedule: Vec<MigrationSpec>,
        controller: FleetController,
        load_factor: f64,
        max_total_pending: usize,
    ) -> Self {
        let tick_interval = controller.config().interval_us.max(1);
        let next_tick = if controller.config().enabled {
            tick_interval
        } else {
            u64::MAX
        };
        let mut coordinator = Coordinator {
            routing,
            triggers: merge_triggers(plan, schedule),
            dead: BTreeSet::new(),
            controller,
            tick_interval,
            next_tick,
            next_due: 0,
            load_factor,
            max_total_pending,
            migrations: Vec::new(),
        };
        coordinator.rearm();
        coordinator
    }

    /// Whether node engines must arm their control tap for this run.
    pub(crate) fn samples_nodes(&self) -> bool {
        self.next_tick != u64::MAX
    }

    /// The earliest instant at which [`Coordinator::fire_due`] has work
    /// (`u64::MAX` when nothing is left).
    #[inline]
    pub(crate) fn next_due_us(&self) -> u64 {
        self.next_due
    }

    /// The node a delivery of `request` goes to right now.
    #[inline]
    pub(crate) fn home_of(&self, request: &Request) -> NodeId {
        self.routing.home_of(request.tenant, &request.model)
    }

    fn rearm(&mut self) {
        let next_trigger = self.triggers.front().map_or(u64::MAX, |(at, _)| *at);
        self.next_due = next_trigger.min(self.next_tick);
    }

    /// Fire every trigger and controller tick due at or before `at_us`,
    /// each at its own instant, triggers winning ties.
    pub(crate) fn fire_due<T: Transport>(&mut self, at_us: u64, t: &mut T) {
        while self.next_due <= at_us && self.next_due != u64::MAX {
            match self.triggers.front() {
                Some(&(at, _)) if at <= self.next_tick => {
                    let (_, trigger) = self.triggers.pop_front().expect("peeked");
                    self.fire(trigger, at, t);
                }
                _ => {
                    let at = self.next_tick;
                    self.next_tick += self.tick_interval;
                    self.tick(at, t);
                }
            }
            self.rearm();
        }
    }

    /// Fire the triggers scheduled past the last arrival. They execute at
    /// `end_us` — the stream's final timestamp, not the (possibly
    /// far-future) trigger — so timer replay stays bounded and the record
    /// shows when the move really happened. No tick fires past the stream.
    pub(crate) fn finish_stream<T: Transport>(&mut self, end_us: u64, t: &mut T) {
        while let Some((_, trigger)) = self.triggers.pop_front() {
            self.fire(trigger, end_us, t);
        }
        self.next_due = u64::MAX;
    }

    /// Consume the coordinator at the end of a run.
    pub(crate) fn finish(self) -> CoordinatorLog {
        let (control, standby) = self.controller.into_parts();
        CoordinatorLog {
            migrations: self.migrations,
            control,
            standby,
        }
    }

    fn fire<T: Transport>(&mut self, trigger: FleetTrigger, at_us: u64, t: &mut T) {
        match trigger {
            FleetTrigger::Crash { node } => self.crash(node, at_us, t),
            FleetTrigger::Migrate(spec) => self.migrate(&spec, at_us, t),
        }
    }

    /// One live migration, walking the drain/handoff state machine at
    /// `at_us`: drain the source (closing the drain set — the routing
    /// flip below is atomic within this same event), adopt at the
    /// destination, flip + pin the assignment. The record is pushed at
    /// whatever phase the protocol reached.
    fn migrate<T: Transport>(&mut self, spec: &MigrationSpec, at_us: u64, t: &mut T) {
        let record = self.run_migration(spec, at_us, t);
        self.migrations.push(record);
    }

    fn run_migration<T: Transport>(
        &mut self,
        spec: &MigrationSpec,
        at_us: u64,
        t: &mut T,
    ) -> MigrationRecord {
        let (from, family) =
            self.routing.assignments.get(&spec.tenant).cloned().expect(
                "specs are validated when scheduled; the controller moves assigned tenants",
            );
        let mut record = MigrationRecord::planned(spec, from, at_us);
        if self.dead.contains(&spec.to) {
            return record; // the destination died first: never starts
        }
        if from == spec.to {
            // Already home (e.g. a repeated migration of the same tenant):
            // nothing drains, nothing moves, the routing is already right.
            record.phase = MigrationPhase::Resumed;
            return record;
        }
        t.hold_queued(spec.tenant, from);
        let drained = t.call(
            from,
            NodeOp::Drain {
                tenant: spec.tenant,
                from,
                to: spec.to,
                at_us,
            },
        );
        if matches!(drained, Err(Unreachable::Refused)) {
            return record;
        }
        record.phase = MigrationPhase::Draining;
        let Ok(NodeReply::Drained(package)) = drained else {
            return record;
        };
        // What the source-side drain measured.
        record.handoff_us = package.handoff_us;
        record.spliced = package.spliced.len();
        record.drained_in_flight = package.drained_in_flight;
        record.admitted_before_handoff = package.account.admitted;
        let adopt = NodeOp::Adopt {
            tenant: spec.tenant,
            package,
        };
        if !t.post(spec.to, adopt) {
            // The account is gone with the dead destination's queue.
            return record;
        }
        record.phase = MigrationPhase::HandedOff;
        self.routing
            .assignments
            .insert(spec.tenant, (spec.to, family));
        self.routing.shard_router.pin(spec.tenant, spec.to);
        record.queue_spliced = t.release_held(spec.to);
        record.phase = MigrationPhase::Resumed;
        record
    }

    /// One injected crash: the dying node evacuates (pending work resolved
    /// as refunded failover sheds, accounts exported) and leaves the shard
    /// topology; every evacuated tenant is re-homed onto a survivor under
    /// bounded load ([`plan_evacuation`], a pure function of the surviving
    /// topology) and pinned there; orphaned refunds — in-flight work of
    /// tenants that had already migrated away — go to their accounts'
    /// current homes.
    fn crash<T: Transport>(&mut self, node: NodeId, at_us: u64, t: &mut T) {
        if !self.dead.insert(node) {
            return; // a duplicate crash of a dead node is a no-op
        }
        let Ok(NodeReply::Evacuated(accounts, orphans)) = t.call(node, NodeOp::Crash { at_us })
        else {
            return; // already dead for real: nothing to evacuate
        };
        let Routing {
            shard_router,
            assignments,
            traffic,
        } = &mut self.routing;
        shard_router.remove_node(node);
        let moves = plan_evacuation(shard_router, assignments, traffic, node, self.load_factor);
        debug_assert_eq!(moves.len(), accounts.len(), "every account gets a home");
        for ((evacuee, account), (tenant, family, dest)) in accounts.into_iter().zip(moves) {
            debug_assert_eq!(evacuee, tenant, "both walk tenants in id order");
            // An adopt with nothing spliced (the dying node resolved all
            // pending work as refunded sheds) whose chain the receiver
            // seals.
            let package = HandoffPackage {
                account,
                spliced: Vec::new(),
                from: node,
                failover_to: Some(dest),
                handoff_us: at_us,
                drained_in_flight: 0,
            };
            if !t.post(dest, NodeOp::Adopt { tenant, package }) {
                continue; // the survivor itself is dead for real
            }
            assignments.insert(tenant, (dest, family));
            shard_router.pin(tenant, dest);
        }
        for orphan in orphans {
            if let Some((home, _)) = assignments.get(&orphan.tenant) {
                let refund = NodeOp::Refund {
                    tenant: orphan.tenant,
                    at_us,
                };
                t.post(*home, refund);
            }
        }
    }

    /// One controller tick: sample every node of the live topology in id
    /// order (dead nodes already left the router, standby nodes have not
    /// entered it — so the controller can only ever see, and target,
    /// online nodes), ask the controller, and apply its actions with the
    /// same primitives an operator would use.
    fn tick<T: Transport>(&mut self, at_us: u64, t: &mut T) {
        let mut active: Vec<ShardNode> = Vec::new();
        let mut snapshots = Vec::new();
        for node in self.routing.shard_router.nodes().to_vec() {
            let Ok(NodeReply::Sampled(sample)) = t.call(node.id, NodeOp::Sample { at_us }) else {
                continue; // worker genuinely died; skip it this tick
            };
            snapshots.push((node.id, sample));
            active.push(node);
        }
        let view = ControllerView {
            active: &active,
            assignments: &*self.routing.assignments,
            max_total_pending: self.max_total_pending,
        };
        let controller = &mut self.controller;
        let actions = controller.tick(at_us, &snapshots, &view, self.routing.traffic);
        for action in actions {
            match action {
                ControlAction::Brownout { node, floor } => {
                    let nudge = NodeOp::SetBrownoutFloor {
                        level: floor,
                        at_us,
                    };
                    t.post(node, nudge);
                }
                ControlAction::Migrate { tenant, to, .. } => {
                    self.migrate(&spec_of(tenant, to, at_us), at_us, t);
                }
                ControlAction::Join {
                    node,
                    weight,
                    moves,
                } => {
                    self.routing
                        .shard_router
                        .add_node(ShardNode { id: node, weight });
                    for (tenant, dest) in moves {
                        self.migrate(&spec_of(tenant, dest, at_us), at_us, t);
                    }
                }
                ControlAction::Drain { node, moves } => {
                    for (tenant, dest) in moves {
                        self.migrate(&spec_of(tenant, dest, at_us), at_us, t);
                    }
                    self.routing.shard_router.remove_node(node);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The coordinator over a fake fleet whose nodes can refuse controls —
    //! the live failure paths that otherwise only a genuinely panicking
    //! worker thread exercises.

    use super::*;
    use crate::controller::ControllerConfig;
    use crate::fault::{FaultEvent, FaultKind};
    use tinymlops_meter::QuotaManager;

    /// A three-node fleet that logs every op it is sent. `refuses` nodes
    /// have a closed queue; `drops` nodes accept an op and die before
    /// answering; every other node answers with an empty-but-valid reply.
    #[derive(Default)]
    struct FakeFleet {
        refuses: BTreeSet<NodeId>,
        drops: BTreeSet<NodeId>,
        sample: ControlSample,
        log: Vec<(NodeId, &'static str)>,
    }

    impl Transport for FakeFleet {
        fn call(&mut self, node: NodeId, op: NodeOp) -> Result<NodeReply, Unreachable> {
            let (name, reply) = match op {
                NodeOp::Drain { from, at_us, .. } => (
                    "drain",
                    NodeReply::Drained(HandoffPackage {
                        account: TenantAccount {
                            quota: QuotaManager::new([0; 32]),
                            pending: 0,
                            admitted: 7,
                            shed: 0,
                            refunded: 0,
                        },
                        spliced: Vec::new(),
                        from,
                        failover_to: None,
                        handoff_us: at_us,
                        drained_in_flight: 0,
                    }),
                ),
                NodeOp::Adopt { .. } => ("adopt", NodeReply::Done),
                NodeOp::Crash { .. } => ("crash", NodeReply::Evacuated(Vec::new(), Vec::new())),
                NodeOp::Refund { .. } => ("refund", NodeReply::Done),
                NodeOp::Sample { .. } => ("sample", NodeReply::Sampled(self.sample.clone())),
                NodeOp::SetBrownoutFloor { .. } => ("floor", NodeReply::Done),
            };
            self.log.push((node, name));
            if self.refuses.contains(&node) {
                return Err(Unreachable::Refused);
            }
            if self.drops.contains(&node) {
                return Err(Unreachable::ReplyDropped);
            }
            Ok(reply)
        }
    }

    /// Routing state for tenants 1..=3 homed on nodes 0..=2.
    struct Fleet {
        shard_router: ShardRouter,
        assignments: BTreeMap<TenantId, (NodeId, String)>,
        traffic: TrafficLedger,
    }

    impl Fleet {
        fn new() -> Self {
            let nodes = (0..3).map(|id| ShardNode { id, weight: 1.0 }).collect();
            Fleet {
                shard_router: ShardRouter::new(nodes, 0.5),
                assignments: (1..=3).map(|t| (t, (t - 1, "kws".to_string()))).collect(),
                traffic: TrafficLedger::new(),
            }
        }

        fn coordinator(
            &mut self,
            plan: &FaultPlan,
            schedule: Vec<MigrationSpec>,
            controller: ControllerConfig,
        ) -> Coordinator<'_> {
            Coordinator::new(
                Routing {
                    shard_router: &mut self.shard_router,
                    assignments: &mut self.assignments,
                    traffic: &mut self.traffic,
                },
                plan,
                schedule,
                FleetController::new(controller, Vec::new()),
                f64::INFINITY,
                64,
            )
        }
    }

    #[test]
    fn an_unreachable_node_freezes_the_migration_at_the_phase_it_reached() {
        use MigrationPhase::{Draining, Planned, Resumed};
        // Tenant 1 moves from node 0 to node 2. Per case: the node that
        // refuses ops, the node that drops replies → the record's phase,
        // the ops sent, and whether the drain's measurements were recorded.
        let both = [(0, "drain"), (2, "adopt")];
        for (refuses, drops, phase, ops, drained) in [
            (None, None, Resumed, &both[..], true),
            (Some(0), None, Planned, &both[..1], false),
            (None, Some(0), Draining, &both[..1], false),
            (Some(2), None, Draining, &both[..], true),
        ] {
            let mut fake = FakeFleet {
                refuses: refuses.into_iter().collect(),
                drops: drops.into_iter().collect(),
                ..FakeFleet::default()
            };
            let mut fleet = Fleet::new();
            let spec = MigrationSpec {
                tenant: 1,
                to: 2,
                trigger_us: 100,
            };
            let mut c = fleet.coordinator(
                &FaultPlan::default(),
                vec![spec],
                ControllerConfig::default(),
            );
            assert_eq!(c.next_due_us(), 100);
            c.fire_due(100, &mut fake);
            assert_eq!(c.next_due_us(), u64::MAX, "nothing left to fire");
            let record = c.finish().migrations.pop().expect("one record per spec");
            assert_eq!(record.phase, phase);
            assert_eq!((record.from, record.to, record.handoff_us), (0, 2, 100));
            assert_eq!(fake.log, ops, "ops sent when freezing at {phase:?}");
            assert_eq!(record.admitted_before_handoff, if drained { 7 } else { 0 });
            // Routing flips (and pins) only once the destination adopted.
            let moved = phase == Resumed;
            assert_eq!(fleet.assignments[&1].0, if moved { 2 } else { 0 });
            assert_eq!(fleet.shard_router.pinned(1), moved.then_some(2));
        }
    }

    #[test]
    fn crash_of_an_unreachable_node_leaves_routing_untouched() {
        let plan = FaultPlan::with_events(vec![FaultEvent {
            node: 1,
            at_us: 50,
            kind: FaultKind::Crash,
        }]);
        let mut fleet = Fleet::new();
        // A later migration onto the crashed node never starts.
        let onto_dead = MigrationSpec {
            tenant: 1,
            to: 1,
            trigger_us: 60,
        };
        let mut fake = FakeFleet {
            refuses: [1].into(),
            ..FakeFleet::default()
        };
        let mut c = fleet.coordinator(&plan, vec![onto_dead], ControllerConfig::default());
        c.fire_due(1_000, &mut fake);
        let log = c.finish();
        assert_eq!(fake.log, [(1, "crash")], "no adopt, no refund, no drain");
        assert_eq!(log.migrations.len(), 1);
        assert_eq!(log.migrations[0].phase, MigrationPhase::Planned);
        assert_eq!(fleet.shard_router.nodes().len(), 3, "nothing evacuated");
        assert_eq!(fleet.assignments[&2].0, 1, "its tenant stays assigned");
    }

    #[test]
    fn tick_skips_a_silent_node_and_triggers_win_ties() {
        // Every answering node looks hot, so the controller floors each
        // node it was shown — exactly the ones that answered.
        let controller = ControllerConfig {
            interval_us: 100,
            brownout_floor_level: 1,
            ..ControllerConfig::enabled()
        };
        let mut fake = FakeFleet {
            drops: [1].into(),
            sample: ControlSample {
                arrivals: 10,
                shed: 10,
                queue_depth: 64,
                ..ControlSample::default()
            },
            ..FakeFleet::default()
        };
        let mut fleet = Fleet::new();
        let at_the_tick = MigrationSpec {
            tenant: 3,
            to: 2, // already home: a record, no ops
            trigger_us: 100,
        };
        let mut c = fleet.coordinator(&FaultPlan::default(), vec![at_the_tick], controller);
        assert!(c.samples_nodes());
        c.fire_due(99, &mut fake);
        assert!(fake.log.is_empty(), "nothing is due before 100");
        c.fire_due(150, &mut fake);
        assert_eq!(c.next_due_us(), 200, "the next tick");
        let log = c.finish();
        assert_eq!(
            log.migrations[0].phase,
            MigrationPhase::Resumed,
            "the trigger at 100 fired (first: it is logged before any sample)"
        );
        assert_eq!(
            fake.log,
            [
                (0, "sample"),
                (1, "sample"),
                (2, "sample"),
                (0, "floor"),
                (2, "floor")
            ]
        );
        let floored: Vec<NodeId> = log
            .control
            .iter()
            .filter_map(|r| match r.action {
                ControlAction::Brownout { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(floored, [0, 2], "the silent node was not shown");
    }
}
