//! Autonomous fleet controller: the closed loop over the actuators.
//!
//! Everything a self-managing fleet needs already exists as an
//! operator-triggered primitive — live migration
//! ([`crate::ServeFabric::schedule_migrations`]), node join/drain (e18),
//! brownout degradation ([`crate::fault::degrade_records`]) — and the
//! observability plane computes every signal (queue depths, shed rates,
//! p99, per-tenant served work). The [`FleetController`] closes the
//! loop: at a fixed logical control interval both backends sample every
//! live node ([`ControlSample`], the control-plane analogue of
//! `observe::WindowSample`), fold per-tenant served work into the
//! [`TrafficLedger`], and ask the controller for actions. The
//! controller emits the *existing* primitives only:
//!
//! * **Hot-tenant rebalance** — a [`MigrationSpec`]-shaped move of the
//!   busiest tenant off an overloaded node onto the least-loaded peer.
//! * **Elastic scale-up/down** — node join from a standby pool when
//!   overload persists, whole-node drain + decommission back to standby
//!   when the fleet idles.
//! * **Brownout nudges** — a per-node floor on the degradation ladder
//!   while a node is hot, lifted when it cools.
//!
//! **Determinism is the design constraint.** `tick` is a pure function
//! of (logical time, node samples, topology view, ledger, controller
//! state): no wall clock, no randomness, integer/stable-sort arithmetic
//! only. The sim loop and the live feeder call it at the same logical
//! instants with bit-identical samples under [`crate::ExecMode::Replay`],
//! so controller decisions — and therefore reports and migration
//! records — are bit-identical across backends. A disabled controller
//! installs nothing (no tap, no ticks), keeping runs byte-identical to
//! a build without this module.
//!
//! **Hysteresis + cooldown so it never oscillates.** Scaling requires
//! `hysteresis_ticks` *consecutive* hot (or cool) intervals and a
//! fleet-wide `scale_cooldown_us` between topology changes; a migrated
//! tenant is untouchable for `tenant_cooldown_us` (no ping-pong); and
//! the hot/cool watermarks are separated so a node flapping around one
//! threshold triggers nothing.

use crate::fabric::MigrationSpec;
use crate::request::TenantId;
use crate::shard::{node_loads, NodeId, ShardNode, TrafficLedger};
use std::collections::BTreeMap;

/// Fleet-controller policy. Default is **disabled** (a fabric without a
/// controller behaves byte-identically to one built before the
/// controller existed). [`ControllerConfig::enabled`] arms the loop
/// with the default policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Master switch: when false, no tap is installed, no ticks fire.
    pub enabled: bool,
    /// Control interval on the logical clock (µs between ticks).
    pub interval_us: u64,
    /// A node whose gateway queue occupancy (`total_pending /
    /// max_total_pending`) is at or above this is **hot**.
    pub high_pressure: f64,
    /// A node at or below this occupancy with zero sheds in the
    /// interval is **cool** (hysteresis: the gap to `high_pressure`
    /// absorbs flapping).
    pub low_pressure: f64,
    /// A node shedding at least this fraction of its interval arrivals
    /// is hot regardless of queue occupancy (per-tenant backpressure
    /// sheds without filling the global queue).
    pub high_shed_rate: f64,
    /// Consecutive hot (cool) ticks required before scaling up (down).
    pub hysteresis_ticks: u32,
    /// A tenant the controller moved is untouchable for this long.
    pub tenant_cooldown_us: u64,
    /// Minimum logical time between topology changes (join or drain).
    pub scale_cooldown_us: u64,
    /// Migration budget per tick (hot-tenant moves or join relief).
    pub max_moves_per_tick: usize,
    /// Standby pool: node weights provisioned but outside the routing
    /// topology until the controller joins them. Empty = no elasticity.
    pub standby_weights: Vec<f64>,
    /// Brownout-ladder floor applied to hot nodes (0 disables nudges).
    pub brownout_floor_level: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            enabled: false,
            interval_us: 100_000,
            high_pressure: 0.6,
            low_pressure: 0.15,
            high_shed_rate: 0.05,
            hysteresis_ticks: 2,
            tenant_cooldown_us: 300_000,
            scale_cooldown_us: 400_000,
            max_moves_per_tick: 2,
            standby_weights: Vec::new(),
            brownout_floor_level: 0,
        }
    }
}

impl ControllerConfig {
    /// The default policy, armed.
    #[must_use]
    pub fn enabled() -> Self {
        ControllerConfig {
            enabled: true,
            ..ControllerConfig::default()
        }
    }
}

/// One node's control-interval counters, sampled (and reset) at each
/// controller tick by the engine's control tap. The control-plane
/// analogue of `observe::WindowSample`, but engine-internal so the
/// controller works with the observability plane off.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlSample {
    /// Requests that arrived at this node during the interval.
    pub arrivals: u64,
    /// Requests completed during the interval.
    pub served: u64,
    /// Requests shed during the interval (any reason).
    pub shed: u64,
    /// Served work by tenant — the signal the [`TrafficLedger`] folds.
    pub served_by_tenant: BTreeMap<TenantId, u64>,
    /// Gateway queue depth (total pending) at the tick instant.
    pub queue_depth: usize,
    /// Dispatched batches still in flight at the tick instant.
    pub inflight: usize,
    /// p99 latency over the interval's completions (µs; 0 if none).
    pub p99_us: u64,
    /// Effective brownout level at the tick instant.
    pub brownout_level: usize,
}

/// What the controller can see of the fabric at a tick: the live
/// routing topology and the tenant → home map. Both backends build this
/// from the same state, so the view is bit-identical under replay.
pub struct ControllerView<'a> {
    /// Nodes currently in the routing topology (dead nodes excluded —
    /// the controller can never target an offline node).
    pub active: &'a [ShardNode],
    /// Tenant → (home node, family).
    pub assignments: &'a BTreeMap<TenantId, (NodeId, String)>,
    /// The per-node gateway queue ceiling (pressure denominator).
    pub max_total_pending: usize,
}

/// One controller decision. `Join` and `Drain` carry their tenant moves
/// so both backends execute mechanically identical plans.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlAction {
    /// Move one hot tenant off an overloaded node.
    Migrate {
        /// The tenant to move.
        tenant: TenantId,
        /// Its overloaded home.
        from: NodeId,
        /// The least-loaded destination.
        to: NodeId,
    },
    /// Activate a standby node and shift load onto it.
    Join {
        /// The standby node entering the routing topology.
        node: NodeId,
        /// Its capacity weight.
        weight: f64,
        /// Relief moves executed right after the join, in order.
        moves: Vec<(TenantId, NodeId)>,
    },
    /// Evacuate a controller-joined node and return it to standby.
    Drain {
        /// The node leaving the routing topology.
        node: NodeId,
        /// Every tenant move off the node, in tenant-id order.
        moves: Vec<(TenantId, NodeId)>,
    },
    /// Set a node's brownout-ladder floor (0 lifts the nudge).
    Brownout {
        /// The nudged node.
        node: NodeId,
        /// New floor level.
        floor: usize,
    },
}

/// One logged controller decision with the tick that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlRecord {
    /// Logical tick time.
    pub at_us: u64,
    /// The decision.
    pub action: ControlAction,
}

/// The closed-loop fleet controller. Create one per run via
/// [`FleetController::new`]; drive it with [`FleetController::tick`] at
/// every control interval; read the decision log back with
/// [`FleetController::into_parts`].
#[derive(Debug, Clone)]
pub struct FleetController {
    cfg: ControllerConfig,
    /// Standby nodes not yet in the topology, id-sorted (lowest joins
    /// first).
    standby: Vec<ShardNode>,
    /// Controller-joined nodes, join order (drained LIFO back to
    /// standby). Only nodes the controller added are ever drained — the
    /// operator-provisioned fleet is not the controller's to shrink.
    joined: Vec<ShardNode>,
    /// Tenant → logical time of its last controller-initiated move.
    last_move: BTreeMap<TenantId, u64>,
    /// Logical time of the last topology change.
    last_scale_us: Option<u64>,
    /// Consecutive ticks with at least one hot node.
    high_streak: u32,
    /// Consecutive ticks with every node cool.
    low_streak: u32,
    /// Current brownout floor per node (what the engine was last told).
    floors: BTreeMap<NodeId, usize>,
    /// Every decision, in tick order.
    log: Vec<ControlRecord>,
}

impl FleetController {
    /// A controller over `standby` spare capacity (id-sorted
    /// internally; ids must not collide with active nodes — the fabric
    /// allocates them).
    #[must_use]
    pub fn new(cfg: ControllerConfig, mut standby: Vec<ShardNode>) -> Self {
        standby.sort_by_key(|n| n.id);
        FleetController {
            cfg,
            standby,
            joined: Vec::new(),
            last_move: BTreeMap::new(),
            last_scale_us: None,
            high_streak: 0,
            low_streak: 0,
            floors: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Consume the controller, returning (decision log, remaining
    /// standby pool) — the fabric stores the pool back so topology
    /// changes persist across runs.
    #[must_use]
    pub fn into_parts(self) -> (Vec<ControlRecord>, Vec<ShardNode>) {
        let mut standby = self.standby;
        standby.sort_by_key(|n| n.id);
        (self.log, standby)
    }

    /// One control interval: fold `snapshots` into the ledger, classify
    /// every node, and decide. Pure given (state, arguments) — no clock,
    /// no randomness — so both backends compute identical actions from
    /// identical samples. `snapshots` must be node-id-sorted and cover
    /// exactly the live topology in `view.active`.
    pub fn tick(
        &mut self,
        at_us: u64,
        snapshots: &[(NodeId, ControlSample)],
        view: &ControllerView<'_>,
        ledger: &mut TrafficLedger,
    ) -> Vec<ControlAction> {
        fold_samples(ledger, snapshots, view.assignments);
        let mut actions = Vec::new();
        if snapshots.is_empty() {
            return actions;
        }

        let ceiling = view.max_total_pending.max(1) as f64;
        let (high_pressure, low_pressure, high_shed_rate) = (
            self.cfg.high_pressure,
            self.cfg.low_pressure,
            self.cfg.high_shed_rate,
        );
        let hot = move |s: &ControlSample| {
            let pressure = s.queue_depth as f64 / ceiling;
            let shed_rate = if s.arrivals > 0 {
                s.shed as f64 / s.arrivals as f64
            } else {
                0.0
            };
            pressure >= high_pressure || shed_rate >= high_shed_rate
        };
        let cool =
            move |s: &ControlSample| s.queue_depth as f64 / ceiling <= low_pressure && s.shed == 0;
        let any_hot = snapshots.iter().any(|(_, s)| hot(s));
        let all_cool = snapshots.iter().all(|(_, s)| cool(s));
        self.high_streak = if any_hot { self.high_streak + 1 } else { 0 };
        self.low_streak = if all_cool { self.low_streak + 1 } else { 0 };

        // Brownout nudges: floor hot nodes, lift cool ones. Emitted only
        // on change, so an armed-but-idle controller nudges nothing.
        if self.cfg.brownout_floor_level > 0 {
            for (node, sample) in snapshots {
                let current = self.floors.get(node).copied().unwrap_or(0);
                let want = if hot(sample) {
                    self.cfg.brownout_floor_level
                } else if cool(sample) {
                    0
                } else {
                    current
                };
                if want != current {
                    self.floors.insert(*node, want);
                    let action = ControlAction::Brownout {
                        node: *node,
                        floor: want,
                    };
                    self.log.push(ControlRecord {
                        at_us,
                        action: action.clone(),
                    });
                    actions.push(action);
                }
            }
        }

        // Traffic-weighted load per live node (the controller's placement
        // measure — the same units the bounded-load caps use).
        let homed = node_loads(view.assignments, ledger);
        let mut loads: BTreeMap<NodeId, u64> = view
            .active
            .iter()
            .map(|n| (n.id, homed.get(&n.id).copied().unwrap_or(0)))
            .collect();

        let scale_ok = self
            .last_scale_us
            .is_none_or(|t| at_us.saturating_sub(t) >= self.cfg.scale_cooldown_us);
        let tenant_cooldown = self.cfg.tenant_cooldown_us;
        let movable = move |last_move: &BTreeMap<TenantId, u64>, tenant: TenantId| {
            last_move
                .get(&tenant)
                .is_none_or(|t| at_us.saturating_sub(*t) >= tenant_cooldown)
        };

        // Scale-up: persistent overload + spare capacity → join the
        // lowest-id standby node and shift the heaviest movable tenants
        // from the most loaded nodes onto it.
        if self.high_streak >= self.cfg.hysteresis_ticks && scale_ok && !self.standby.is_empty() {
            let node = self.standby.remove(0);
            let mut moves = Vec::new();
            let total: u64 = loads.values().sum();
            let fair = total / (view.active.len() as u64 + 1);
            let mut new_load = 0u64;
            for _ in 0..self.cfg.max_moves_per_tick {
                // Most loaded donor still above fair share (ties: lowest id).
                let Some((&src, _)) = loads
                    .iter()
                    .filter(|(_, load)| **load > fair)
                    .max_by_key(|(id, load)| (**load, std::cmp::Reverse(**id)))
                else {
                    break;
                };
                // Its heaviest movable tenant (ties: lowest tenant id).
                let Some((tenant, weight)) = view
                    .assignments
                    .iter()
                    .filter(|(t, (home, _))| *home == src && movable(&self.last_move, **t))
                    .map(|(t, _)| (*t, ledger.weight(*t)))
                    .max_by_key(|(t, w)| (*w, std::cmp::Reverse(*t)))
                else {
                    break;
                };
                if new_load + weight > fair.max(weight) {
                    break; // the new node has taken its share
                }
                moves.push((tenant, node.id));
                self.last_move.insert(tenant, at_us);
                *loads.get_mut(&src).expect("donor is live") -= weight;
                new_load += weight;
            }
            self.last_scale_us = Some(at_us);
            self.high_streak = 0;
            self.joined.push(node.clone());
            let action = ControlAction::Join {
                node: node.id,
                weight: node.weight,
                moves,
            };
            self.log.push(ControlRecord {
                at_us,
                action: action.clone(),
            });
            actions.push(action);
            return actions; // one topology change per tick
        }

        // Scale-down: a persistently cool fleet sheds its most recent
        // controller-joined node — drain every tenant to the least-loaded
        // survivor, then the node returns to standby. Crashed joined
        // nodes (no longer in the live view) just fall off the stack.
        if self.low_streak >= self.cfg.hysteresis_ticks && scale_ok {
            while let Some(top) = self.joined.last() {
                if view.active.iter().any(|n| n.id == top.id) {
                    break;
                }
                self.joined.pop();
            }
            if let Some(node) = self.joined.pop() {
                let mut moves = Vec::new();
                for (tenant, (home, _)) in view.assignments {
                    if *home != node.id {
                        continue;
                    }
                    let weight = ledger.weight(*tenant);
                    // Least-loaded survivor (ties: lowest id).
                    let (&dest, _) = loads
                        .iter()
                        .filter(|(id, _)| **id != node.id)
                        .min_by_key(|(id, load)| (**load, **id))
                        .expect("drain requires a surviving node");
                    moves.push((*tenant, dest));
                    self.last_move.insert(*tenant, at_us);
                    *loads.get_mut(&dest).expect("dest is live") += weight;
                }
                loads.remove(&node.id);
                self.last_scale_us = Some(at_us);
                self.low_streak = 0;
                self.standby.push(node.clone());
                self.standby.sort_by_key(|n| n.id);
                let action = ControlAction::Drain {
                    node: node.id,
                    moves,
                };
                self.log.push(ControlRecord {
                    at_us,
                    action: action.clone(),
                });
                actions.push(action);
                return actions; // one topology change per tick
            }
        }

        // Hot-tenant rebalance: for each hot node (id order) move its
        // busiest movable tenant to the least-loaded node that is not
        // hot, while that does not leave the destination heavier than
        // the donor was.
        let mut budget = self.cfg.max_moves_per_tick;
        for (src, sample) in snapshots {
            if budget == 0 {
                break;
            }
            if !hot(sample) {
                continue;
            }
            // Busiest tenant on the node this interval (ties: lowest id),
            // falling back to ledger weight when the interval saw no
            // completions.
            let busiest = view
                .assignments
                .iter()
                .filter(|(t, (home, _))| *home == *src && movable(&self.last_move, **t))
                .map(|(t, _)| {
                    let interval = sample.served_by_tenant.get(t).copied().unwrap_or(0);
                    (*t, (interval, ledger.weight(*t)))
                })
                .max_by_key(|(t, key)| (*key, std::cmp::Reverse(*t)));
            let Some((tenant, _)) = busiest else { continue };
            let weight = ledger.weight(tenant);
            let src_load = loads.get(src).copied().unwrap_or(0);
            let dest = snapshots
                .iter()
                .filter(|(id, s)| *id != *src && !hot(s))
                .map(|(id, _)| (loads.get(id).copied().unwrap_or(0), *id))
                .min();
            let Some((dest_load, dest)) = dest else {
                continue;
            };
            // Never leave the destination heavier than the donor was —
            // that would just relocate the hotspot (ping-pong fuel).
            if dest_load + weight > src_load {
                continue;
            }
            self.last_move.insert(tenant, at_us);
            *loads.entry(*src).or_default() = src_load - weight;
            *loads.entry(dest).or_default() += weight;
            budget -= 1;
            let action = ControlAction::Migrate {
                tenant,
                from: *src,
                to: dest,
            };
            self.log.push(ControlRecord {
                at_us,
                action: action.clone(),
            });
            actions.push(action);
        }
        actions
    }
}

/// Fold one tick's samples into the traffic ledger: per-tenant served
/// counts are summed across nodes (a mid-interval migration splits a
/// tenant's work), and every *assigned* tenant is observed — including
/// zero-served ones, so idle tenants decay back toward one slot.
pub fn fold_samples(
    ledger: &mut TrafficLedger,
    snapshots: &[(NodeId, ControlSample)],
    assignments: &BTreeMap<TenantId, (NodeId, String)>,
) {
    let mut served: BTreeMap<TenantId, u64> = BTreeMap::new();
    for (_, sample) in snapshots {
        for (tenant, n) in &sample.served_by_tenant {
            *served.entry(*tenant).or_default() += n;
        }
    }
    for tenant in assignments.keys() {
        ledger.observe(*tenant, served.get(tenant).copied().unwrap_or(0));
    }
    // Unassigned tenants that served anyway (hash-routed strangers)
    // still feed the ledger — their next placement should see them.
    for (tenant, n) in &served {
        if !assignments.contains_key(tenant) {
            ledger.observe(*tenant, *n);
        }
    }
}

/// A [`MigrationSpec`] for a controller move (the same primitive an
/// operator would file).
#[must_use]
pub fn spec_of(tenant: TenantId, to: NodeId, at_us: u64) -> MigrationSpec {
    MigrationSpec {
        tenant,
        to,
        trigger_us: at_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: NodeId) -> ShardNode {
        ShardNode { id, weight: 1.0 }
    }

    fn sample(arrivals: u64, served: u64, shed: u64, queue_depth: usize) -> ControlSample {
        ControlSample {
            arrivals,
            served,
            shed,
            queue_depth,
            ..ControlSample::default()
        }
    }

    fn assignments(homes: &[(TenantId, NodeId)]) -> BTreeMap<TenantId, (NodeId, String)> {
        homes
            .iter()
            .map(|(t, n)| (*t, (*n, "kws".to_string())))
            .collect()
    }

    fn cfg() -> ControllerConfig {
        ControllerConfig {
            enabled: true,
            hysteresis_ticks: 2,
            tenant_cooldown_us: 250_000,
            scale_cooldown_us: 300_000,
            ..ControllerConfig::default()
        }
    }

    #[test]
    fn overloaded_node_sheds_its_busiest_tenant_to_the_coolest_peer() {
        let active = [node(0), node(1)];
        let homes = assignments(&[(1, 0), (2, 0), (3, 1)]);
        let mut ledger = TrafficLedger::new();
        let mut c = FleetController::new(cfg(), vec![]);
        let mut hot = sample(100, 40, 20, 90);
        hot.served_by_tenant = [(1u32, 30u64), (2, 10)].into_iter().collect();
        let snaps = vec![(0u32, hot), (1u32, sample(10, 10, 0, 2))];
        let view = ControllerView {
            active: &active,
            assignments: &homes,
            max_total_pending: 100,
        };
        let actions = c.tick(100_000, &snaps, &view, &mut ledger);
        assert_eq!(
            actions,
            vec![ControlAction::Migrate {
                tenant: 1,
                from: 0,
                to: 1
            }],
            "the busiest tenant moves off the hot node"
        );
    }

    #[test]
    fn cooldown_blocks_ping_pong_of_the_same_tenant() {
        let active = [node(0), node(1)];
        let homes0 = assignments(&[(1, 0), (2, 0), (4, 1)]);
        let homes1 = assignments(&[(1, 1), (2, 0), (4, 1)]);
        let mut ledger = TrafficLedger::new();
        let mut c = FleetController::new(cfg(), vec![]);
        let mut hot = sample(100, 40, 20, 90);
        hot.served_by_tenant = [(1u32, 40u64)].into_iter().collect();
        let cool_node = sample(5, 5, 0, 1);
        let view0 = ControllerView {
            active: &active,
            assignments: &homes0,
            max_total_pending: 100,
        };
        let first = c.tick(
            100_000,
            &[(0, hot.clone()), (1, cool_node.clone())],
            &view0,
            &mut ledger,
        );
        assert!(
            first.iter().any(|a| matches!(
                a,
                ControlAction::Migrate {
                    tenant: 1,
                    from: 0,
                    to: 1
                }
            )),
            "tenant 1 moves 0 → 1: {first:?}"
        );
        // Next tick node 1 is hot (the tenant followed its traffic);
        // within the cooldown the controller must not bounce it back.
        let view1 = ControllerView {
            active: &active,
            assignments: &homes1,
            max_total_pending: 100,
        };
        let mut hot1 = sample(100, 60, 20, 90);
        hot1.served_by_tenant = [(1u32, 40u64), (4, 20)].into_iter().collect();
        let second = c.tick(
            200_000,
            &[(0, cool_node.clone()), (1, hot1.clone())],
            &view1,
            &mut ledger,
        );
        assert!(
            !second
                .iter()
                .any(|a| matches!(a, ControlAction::Migrate { tenant: 1, .. })),
            "tenant 1 is in cooldown: {second:?}"
        );
        // After the cooldown expires it may move again.
        let third = c.tick(500_000, &[(0, cool_node), (1, hot1)], &view1, &mut ledger);
        assert!(
            third.iter().any(|a| matches!(
                a,
                ControlAction::Migrate {
                    tenant: 1,
                    from: 1,
                    to: 0
                }
            )),
            "cooldown expired: {third:?}"
        );
    }

    #[test]
    fn hysteresis_gates_scale_up_and_standby_joins_lowest_id_first() {
        let active = [node(0)];
        let homes = assignments(&[(1, 0), (2, 0), (3, 0)]);
        let mut ledger = TrafficLedger::new();
        let mut c = FleetController::new(cfg(), vec![node(7), node(5)]);
        let hot = sample(100, 40, 30, 95);
        let view = ControllerView {
            active: &active,
            assignments: &homes,
            max_total_pending: 100,
        };
        let first = c.tick(100_000, &[(0, hot.clone())], &view, &mut ledger);
        assert!(
            !first
                .iter()
                .any(|a| matches!(a, ControlAction::Join { .. })),
            "one hot tick must not scale: {first:?}"
        );
        let second = c.tick(200_000, &[(0, hot.clone())], &view, &mut ledger);
        let joined: Vec<_> = second
            .iter()
            .filter_map(|a| match a {
                ControlAction::Join { node, moves, .. } => Some((*node, moves.len())),
                _ => None,
            })
            .collect();
        assert_eq!(joined.len(), 1, "two hot ticks scale up: {second:?}");
        assert_eq!(joined[0].0, 5, "lowest standby id joins first");
        assert!(joined[0].1 >= 1, "the join carries relief moves");
        // Immediately hot again: the scale cooldown blocks a second join.
        let third = c.tick(300_000, &[(0, hot)], &view, &mut ledger);
        assert!(
            !third
                .iter()
                .any(|a| matches!(a, ControlAction::Join { .. })),
            "scale cooldown holds: {third:?}"
        );
    }

    #[test]
    fn cool_fleet_drains_the_joined_node_back_to_standby() {
        let active_before = [node(0)];
        let homes = assignments(&[(1, 0), (2, 0), (3, 0)]);
        let mut ledger = TrafficLedger::new();
        let mut c = FleetController::new(cfg(), vec![node(5)]);
        let hot = sample(100, 40, 30, 95);
        let view = ControllerView {
            active: &active_before,
            assignments: &homes,
            max_total_pending: 100,
        };
        let _ = c.tick(100_000, &[(0, hot.clone())], &view, &mut ledger);
        let joined = c.tick(200_000, &[(0, hot)], &view, &mut ledger);
        assert!(joined
            .iter()
            .any(|a| matches!(a, ControlAction::Join { node: 5, .. })));
        // Now the fleet cools: two quiet ticks past the scale cooldown.
        let active_after = [node(0), node(5)];
        let homes_after = assignments(&[(1, 5), (2, 0), (3, 0)]);
        let view_after = ControllerView {
            active: &active_after,
            assignments: &homes_after,
            max_total_pending: 100,
        };
        let quiet = sample(2, 2, 0, 0);
        let _ = c.tick(
            600_000,
            &[(0, quiet.clone()), (5, quiet.clone())],
            &view_after,
            &mut ledger,
        );
        let drained = c.tick(
            700_000,
            &[(0, quiet.clone()), (5, quiet.clone())],
            &view_after,
            &mut ledger,
        );
        let drains: Vec<_> = drained
            .iter()
            .filter_map(|a| match a {
                ControlAction::Drain { node, moves } => Some((*node, moves.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(drains.len(), 1, "cool fleet drains: {drained:?}");
        assert_eq!(drains[0].0, 5);
        assert_eq!(
            drains[0].1,
            vec![(1, 0)],
            "every tenant moves to the survivor"
        );
        // And the node is available to join again later.
        let view_back = ControllerView {
            active: &active_before,
            assignments: &homes,
            max_total_pending: 100,
        };
        let hot2 = sample(100, 40, 30, 95);
        let _ = c.tick(1_200_000, &[(0, hot2.clone())], &view_back, &mut ledger);
        let rejoin = c.tick(1_300_000, &[(0, hot2)], &view_back, &mut ledger);
        assert!(
            rejoin
                .iter()
                .any(|a| matches!(a, ControlAction::Join { node: 5, .. })),
            "drained node returned to standby: {rejoin:?}"
        );
    }

    #[test]
    fn actions_never_target_offline_nodes() {
        // Node 2 crashed (not in the view): no migrate destination, no
        // drain target, no brownout nudge may reference it.
        let active = [node(0), node(1)];
        let homes = assignments(&[(1, 0), (2, 0), (3, 1)]);
        let mut ledger = TrafficLedger::new();
        let mut c = FleetController::new(
            ControllerConfig {
                brownout_floor_level: 1,
                ..cfg()
            },
            vec![],
        );
        // Pretend node 2 was a joined node that died.
        c.joined.push(node(2));
        let hot = sample(100, 20, 40, 95);
        let quiet = sample(2, 2, 0, 0);
        let view = ControllerView {
            active: &active,
            assignments: &homes,
            max_total_pending: 100,
        };
        for tick in 1..=8u64 {
            let snaps = if tick <= 4 {
                vec![(0, hot.clone()), (1, quiet.clone())]
            } else {
                vec![(0, quiet.clone()), (1, quiet.clone())]
            };
            let actions = c.tick(tick * 100_000, &snaps, &view, &mut ledger);
            for action in &actions {
                let targets: Vec<NodeId> = match action {
                    ControlAction::Migrate { from, to, .. } => vec![*from, *to],
                    ControlAction::Join { node, moves, .. } => std::iter::once(*node)
                        .chain(moves.iter().map(|(_, n)| *n))
                        .collect(),
                    ControlAction::Drain { node, moves } => std::iter::once(*node)
                        .chain(moves.iter().map(|(_, n)| *n))
                        .collect(),
                    ControlAction::Brownout { node, .. } => vec![*node],
                };
                for t in targets {
                    assert_ne!(t, 2, "action references the dead node: {action:?}");
                }
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_given_the_same_inputs() {
        let run = || {
            let active = [node(0), node(1)];
            let homes = assignments(&[(1, 0), (2, 0), (3, 1)]);
            let mut ledger = TrafficLedger::new();
            let mut c = FleetController::new(
                ControllerConfig {
                    brownout_floor_level: 2,
                    ..cfg()
                },
                vec![node(9)],
            );
            let view = ControllerView {
                active: &active,
                assignments: &homes,
                max_total_pending: 64,
            };
            let mut all = Vec::new();
            for tick in 1..=10u64 {
                let mut s0 = sample(50 + tick, 30, tick % 3, (tick * 9) as usize % 64);
                s0.served_by_tenant = [(1u32, 20u64), (2, 10)].into_iter().collect();
                let s1 = sample(10, 10, 0, 3);
                all.extend(c.tick(tick * 100_000, &[(0, s0), (1, s1)], &view, &mut ledger));
            }
            (all, c.into_parts().0, ledger)
        };
        let (a1, l1, g1) = run();
        let (a2, l2, g2) = run();
        assert_eq!(a1, a2);
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn brownout_nudges_floor_hot_nodes_and_lift_on_cool() {
        let active = [node(0)];
        let homes = assignments(&[(1, 0)]);
        let mut ledger = TrafficLedger::new();
        let mut c = FleetController::new(
            ControllerConfig {
                brownout_floor_level: 2,
                ..cfg()
            },
            vec![],
        );
        let view = ControllerView {
            active: &active,
            assignments: &homes,
            max_total_pending: 100,
        };
        let up = c.tick(100_000, &[(0, sample(100, 40, 30, 95))], &view, &mut ledger);
        assert!(up.contains(&ControlAction::Brownout { node: 0, floor: 2 }));
        // Still hot: no duplicate nudge.
        let again = c.tick(200_000, &[(0, sample(100, 40, 30, 95))], &view, &mut ledger);
        assert!(!again
            .iter()
            .any(|a| matches!(a, ControlAction::Brownout { .. })));
        let down = c.tick(300_000, &[(0, sample(5, 5, 0, 1))], &view, &mut ledger);
        assert!(down.contains(&ControlAction::Brownout { node: 0, floor: 0 }));
    }

    #[test]
    fn ledger_folding_decays_idle_tenants_and_sums_across_nodes() {
        let homes = assignments(&[(1, 0), (2, 0)]);
        let mut ledger = TrafficLedger::new();
        let mut split_a = ControlSample::default();
        split_a.served_by_tenant.insert(1, 30);
        let mut split_b = ControlSample::default();
        split_b.served_by_tenant.insert(1, 10);
        fold_samples(&mut ledger, &[(0, split_a), (1, split_b)], &homes);
        let w1 = ledger.weight(1);
        let w2 = ledger.weight(2);
        assert!(w1 > w2, "tenant 1's split work summed to 40");
        // One quiet interval decays tenant 1 toward the idle slot.
        fold_samples(&mut ledger, &[], &homes);
        assert!(ledger.weight(1) < w1);
    }
}
