//! Tenant → serving-node assignment for the multi-node fabric.
//!
//! One `ServePlane` models one serving node; "heavy traffic from millions
//! of users" needs many. The [`ShardRouter`] sits above the per-node
//! gateways and maps every tenant to a home node with **weighted
//! rendezvous hashing** (highest-random-weight): each node scores every
//! `(tenant, family)` key and the best score wins. Rendezvous hashing
//! gives the two properties a fleet operator actually wants:
//!
//! * **Weighted capacities** — a node with twice the weight is assigned
//!   (in expectation) twice the tenants, via the standard
//!   `−weight / ln(u)` transform of a per-(node, key) uniform draw.
//! * **Minimal movement** — adding a node moves only the tenants whose
//!   new best score *is* that node (≈ its weight share); removing a node
//!   moves only its own tenants. No ring, no token rebalancing.
//!
//! **Model-family affinity** blends a family-keyed draw into the score:
//! at `affinity = 0` tenants hash independently; as it rises, tenants of
//! the same model family cluster onto the same nodes, so each node's
//! `ModelCache` serves fewer distinct families under the same byte budget
//! (the fleet-level analogue of the per-device affinity in
//! [`crate::Router::route_affine`]).

use crate::request::TenantId;
use std::collections::BTreeMap;

/// One serving node visible to the shard router.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardNode {
    /// Fabric-unique node id.
    pub id: NodeId,
    /// Relative capacity (expected tenant share is `weight / Σ weights`).
    pub weight: f64,
}

/// Fabric-unique serving-node identifier.
pub type NodeId = u32;

/// Weighted rendezvous router with model-family affinity.
///
/// Weight-proportional placement is exact at `affinity` 0 (pure tenant
/// draws) and 1 (pure family draws): there `−ln(u)` is Exp(1) and the
/// `−w/ln(u)` transform wins with probability `w / Σw`. At intermediate
/// blends the mixed `a·ln(u_f) + (1−a)·ln(u_t)` is Gamma-shaped, which
/// *biases* the weighted shares (equal weights stay exactly balanced;
/// unequal weights land between proportional and uniform). The fabric's
/// default (0.5, equal node weights) is unaffected; operators leaning on
/// capacity weights should run near-0 affinity or weigh the bias in —
/// see `load_spreads_roughly_by_weight` for the exact-regime check.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// Nodes, sorted by id (deterministic iteration ⇒ deterministic
    /// tie-breaks).
    nodes: Vec<ShardNode>,
    /// Family-affinity blend in `[0, 1]`: 0 = pure per-tenant hashing,
    /// 1 = all tenants of a family share one node.
    affinity: f64,
    /// Tenants whose assignment is pinned to a specific node — the result
    /// of a live migration ([`crate::ServeFabric::schedule_migrations`]). Pins
    /// override the rendezvous score until the pinned node leaves.
    pins: BTreeMap<TenantId, NodeId>,
}

/// SplitMix64 finalizer: cheap, well-mixed, and stable across platforms —
/// assignment must never depend on `std` hasher internals.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the family name (stable string hash).
fn hash_family(family: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in family.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Map a hash to a uniform draw in the open interval (0, 1).
fn unit(h: u64) -> f64 {
    ((h >> 11) as f64 + 1.0) / ((1u64 << 53) as f64 + 2.0)
}

impl ShardRouter {
    /// New router over `nodes` with the given family-affinity blend
    /// (clamped to `[0, 1]`). Panics on empty node lists, duplicate ids or
    /// non-positive weights — those are provisioning bugs, not load states.
    #[must_use]
    pub fn new(mut nodes: Vec<ShardNode>, affinity: f64) -> Self {
        assert!(!nodes.is_empty(), "fabric needs at least one node");
        nodes.sort_by_key(|n| n.id);
        for pair in nodes.windows(2) {
            assert_ne!(pair[0].id, pair[1].id, "duplicate node id {}", pair[0].id);
        }
        assert!(
            nodes.iter().all(|n| n.weight > 0.0 && n.weight.is_finite()),
            "node weights must be positive and finite"
        );
        ShardRouter {
            nodes,
            affinity: affinity.clamp(0.0, 1.0),
            pins: BTreeMap::new(),
        }
    }

    /// The nodes currently in the fabric, sorted by id.
    #[must_use]
    pub fn nodes(&self) -> &[ShardNode] {
        &self.nodes
    }

    /// The family-affinity blend in force.
    #[must_use]
    pub fn affinity(&self) -> f64 {
        self.affinity
    }

    /// Add a node (join). Existing tenants move only if the new node wins
    /// their rendezvous score — ≈ `weight / Σ weights` of them.
    pub fn add_node(&mut self, node: ShardNode) {
        assert!(
            node.weight > 0.0 && node.weight.is_finite(),
            "node weights must be positive and finite"
        );
        assert!(
            !self.nodes.iter().any(|n| n.id == node.id),
            "duplicate node id {}",
            node.id
        );
        self.nodes.push(node);
        self.nodes.sort_by_key(|n| n.id);
    }

    /// Remove a node (leave). Only its own tenants are reassigned (pins
    /// to the departed node are dropped, so those tenants re-derive like
    /// everyone else). Returns `false` when the id is unknown; panics
    /// rather than empty the fabric.
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        let Some(pos) = self.nodes.iter().position(|n| n.id == id) else {
            return false;
        };
        assert!(self.nodes.len() > 1, "cannot remove the last node");
        self.nodes.remove(pos);
        self.pins.retain(|_, node| *node != id);
        true
    }

    /// Pin `tenant` to `node`, overriding its rendezvous placement until
    /// the node leaves or the pin is lifted. A live migration ends with a
    /// pin: the moved account must not snap back to its hash-derived home
    /// on the next rebalance. Panics on unknown nodes (a wiring bug).
    pub fn pin(&mut self, tenant: TenantId, node: NodeId) {
        assert!(
            self.nodes.iter().any(|n| n.id == node),
            "cannot pin tenant {tenant} to unknown node {node}"
        );
        self.pins.insert(tenant, node);
    }

    /// Lift a tenant's pin (it re-derives from the hash on next assign).
    pub fn unpin(&mut self, tenant: TenantId) {
        self.pins.remove(&tenant);
    }

    /// The node a tenant is pinned to, if any.
    #[must_use]
    pub fn pinned(&self, tenant: TenantId) -> Option<NodeId> {
        self.pins.get(&tenant).copied()
    }

    /// One node's rendezvous score for `(tenant, family)` under the
    /// affinity blend (higher wins).
    fn score(&self, node: &ShardNode, fam: u64, ten: u64) -> f64 {
        let hn = splitmix64(u64::from(node.id).wrapping_mul(0xff51_afd7_ed55_8ccd));
        // Blend the family- and tenant-keyed draws in log space: the
        // blend of two ln(u) values is still negative, so the weighted
        // rendezvous transform stays order-correct.
        let ln_f = unit(splitmix64(hn ^ fam)).ln();
        let ln_t = unit(splitmix64(hn ^ ten)).ln();
        let blended = self.affinity * ln_f + (1.0 - self.affinity) * ln_t;
        -node.weight / blended
    }

    fn hash_keys(tenant: TenantId, family: &str) -> (u64, u64) {
        (
            hash_family(family),
            splitmix64(u64::from(tenant) ^ 0x5851_f42d_4c95_7f2d),
        )
    }

    /// The home node for `(tenant, family)`: the tenant's pin if one is
    /// set, else the highest weighted rendezvous score. A pure function
    /// of topology + pins, so every caller — gateway fan-out, rebalancer,
    /// billing aggregation — agrees without coordination. One
    /// allocation-free max-scan: this runs per unknown-tenant request on
    /// the ingest hot path.
    #[must_use]
    pub fn assign(&self, tenant: TenantId, family: &str) -> NodeId {
        if let Some(node) = self.pinned(tenant) {
            return node;
        }
        let (fam, ten) = Self::hash_keys(tenant, family);
        let mut best: Option<(f64, NodeId)> = None;
        for node in &self.nodes {
            let score = self.score(node, fam, ten);
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, node.id));
            }
        }
        best.expect("router is never empty").1
    }

    /// Every node in descending rendezvous-score order for `(tenant,
    /// family)` — the tenant's full preference list. [`ShardRouter::
    /// assign`] is the head (computed without the sort); bounded-load
    /// overflow walks down this list, so overflowed tenants land on
    /// their *second*-best node (preserving as much of the
    /// family-affinity clustering as the cap allows) rather than hashing
    /// somewhere arbitrary.
    fn ranked(&self, tenant: TenantId, family: &str) -> impl Iterator<Item = NodeId> + '_ {
        let (fam, ten) = Self::hash_keys(tenant, family);
        let mut scored: Vec<(f64, NodeId)> = self
            .nodes
            .iter()
            .map(|node| (self.score(node, fam, ten), node.id))
            .collect();
        // Descending score; nodes are id-sorted, so equal scores (never
        // observed with 64-bit draws, but not impossible) break by id.
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores are finite"));
        scored.into_iter().map(|(_, id)| id)
    }

    /// Per-node tenant capacity under bounded load: `ceil(load_factor ×
    /// expected share of `total`)`, where the expected share is weight-
    /// proportional. With `load_factor ≥ 1` the caps sum to at least
    /// `total`, so a bounded assignment always exists. A non-finite
    /// factor means unbounded (pure rendezvous).
    #[must_use]
    pub fn bounded_caps(&self, total: usize, load_factor: f64) -> Vec<(NodeId, usize)> {
        let weight_sum: f64 = self.nodes.iter().map(|n| n.weight).sum();
        self.nodes
            .iter()
            .map(|n| {
                let cap = if load_factor.is_finite() {
                    (load_factor * total as f64 * n.weight / weight_sum).ceil() as usize
                } else {
                    usize::MAX
                };
                (n.id, cap)
            })
            .collect()
    }

    /// Bounded-load assignment: the best-scoring node whose current load
    /// (per `load_of`) is below its cap for a population of `total`
    /// tenants at `load_factor`; a hot home node overflows to the
    /// tenant's *second*-best node, and so on down the preference list.
    /// Pinned tenants ignore bounds (a migration pin is an operator
    /// decision). Falls back to the unbounded winner if every node is at
    /// cap (only possible when `load_of` already exceeds `total`).
    #[must_use]
    pub fn assign_bounded(
        &self,
        tenant: TenantId,
        family: &str,
        total: usize,
        load_factor: f64,
        mut load_of: impl FnMut(NodeId) -> usize,
    ) -> NodeId {
        if let Some(node) = self.pinned(tenant) {
            return node;
        }
        if !load_factor.is_finite() {
            return self.assign(tenant, family);
        }
        assert!(
            load_factor >= 1.0,
            "load_factor below 1.0 cannot place every tenant"
        );
        let caps = self.bounded_caps(total, load_factor);
        let cap_of = |id: NodeId| {
            caps.iter()
                .find(|(n, _)| *n == id)
                .map(|(_, c)| *c)
                .unwrap_or(usize::MAX)
        };
        let mut first = None;
        for node in self.ranked(tenant, family) {
            first.get_or_insert(node);
            if load_of(node) < cap_of(node) {
                return node;
            }
        }
        first.expect("router is never empty")
    }

    /// Tenant counts per node for a tenant population (capacity check).
    #[must_use]
    pub fn census<'a>(
        &self,
        tenants: impl IntoIterator<Item = (TenantId, &'a str)>,
    ) -> Vec<(NodeId, usize)> {
        let mut counts: Vec<(NodeId, usize)> = self.nodes.iter().map(|n| (n.id, 0)).collect();
        for (tenant, family) in tenants {
            let home = self.assign(tenant, family);
            if let Some(slot) = counts.iter_mut().find(|(id, _)| *id == home) {
                slot.1 += 1;
            }
        }
        counts
    }
}

/// One idle tenant's worth of traffic in [`TrafficLedger`] fixed point.
///
/// Every tenant carries a floor of one `TRAFFIC_UNIT` (its "slot") plus
/// its observed-traffic EWMA. With an empty ledger all weights are
/// exactly `TRAFFIC_UNIT`, and because [`ShardRouter::assign_bounded`]
/// compares `load < cap` with loads that are then exact multiples of the
/// unit, unit-scaled caps accept and reject *identically* to the old
/// tenant-count measure (`k·U < ceil(x·U) ⇔ k < ceil(x)` for integer
/// `k·U`). Traffic-weighted placement is therefore a strict refinement:
/// byte-identical until the ledger observes real traffic.
pub const TRAFFIC_UNIT: u64 = 1024;

/// Per-tenant served-work EWMA powering traffic-weighted bounded load.
///
/// The tenant-count bounded load treats one giant tenant as one slot; a
/// node holding it fills its cap with small tenants and melts. The
/// ledger replaces "one tenant = one slot" with "one tenant = one
/// slot plus its traffic": [`TrafficLedger::observe`] folds each control
/// interval's served count into a fixed-point EWMA (α = 1/4, integer
/// arithmetic only, so the sim loop and the live feeder stay
/// bit-identical), and [`TrafficLedger::weight`] reports
/// `TRAFFIC_UNIT · (1 + ewma_requests_per_interval)`. Placement code
/// sums weights instead of counting tenants; caps and loads scale
/// together, so relative shares — not absolute traffic — drive overflow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    /// Per-tenant EWMA of served work per control interval, in
    /// `TRAFFIC_UNIT` fixed point (`TRAFFIC_UNIT` ≙ one request/interval).
    ewma: BTreeMap<TenantId, u64>,
}

impl TrafficLedger {
    /// An empty ledger: every tenant weighs exactly one slot.
    #[must_use]
    pub fn new() -> Self {
        TrafficLedger::default()
    }

    /// Fold one control interval's served count for `tenant` into its
    /// EWMA: `e' = (3·e + served·UNIT) / 4`. Integer-only and
    /// order-independent across tenants, so both backends converge on
    /// the same ledger from the same samples.
    pub fn observe(&mut self, tenant: TenantId, served: u64) {
        let sample = served.saturating_mul(TRAFFIC_UNIT);
        let e = self.ewma.entry(tenant).or_insert(0);
        *e = (*e * 3 + sample) / 4;
    }

    /// The tenant's placement weight in traffic units: one idle slot
    /// plus its traffic EWMA. Unseen tenants weigh [`TRAFFIC_UNIT`].
    #[must_use]
    pub fn weight(&self, tenant: TenantId) -> u64 {
        TRAFFIC_UNIT + self.ewma.get(&tenant).copied().unwrap_or(0)
    }

    /// Drop a tenant's history (deprovisioning).
    pub fn forget(&mut self, tenant: TenantId) {
        self.ewma.remove(&tenant);
    }

    /// Total traffic units across a tenant population.
    #[must_use]
    pub fn total(&self, tenants: impl IntoIterator<Item = TenantId>) -> u64 {
        tenants.into_iter().map(|t| self.weight(t)).sum()
    }

    /// Whether any tenant has observed traffic (an empty ledger degrades
    /// placement to the tenant-count measure exactly).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ewma.is_empty()
    }
}

/// Traffic-weighted load per node: every assigned tenant's
/// [`TrafficLedger::weight`] summed onto its home. The one measure
/// placement, cap enforcement, evacuation and the controller balance on;
/// a node homing no tenant has no entry.
pub(crate) fn node_loads(
    assignments: &BTreeMap<TenantId, (NodeId, String)>,
    traffic: &TrafficLedger,
) -> BTreeMap<NodeId, u64> {
    let mut loads = BTreeMap::new();
    for (tenant, (node, _)) in assignments {
        *loads.entry(*node).or_default() += traffic.weight(*tenant);
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<ShardNode> {
        (0..n).map(|id| ShardNode { id, weight: 1.0 }).collect()
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let r = ShardRouter::new(nodes(4), 0.5);
        for tenant in 0..200u32 {
            let a = r.assign(tenant, "kws");
            let b = r.assign(tenant, "kws");
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn load_spreads_roughly_by_weight() {
        let r = ShardRouter::new(
            vec![
                ShardNode { id: 0, weight: 1.0 },
                ShardNode { id: 1, weight: 1.0 },
                ShardNode { id: 2, weight: 2.0 },
            ],
            0.0,
        );
        let census = r.census((0..4000u32).map(|t| (t, "m")));
        let count_of = |id| census.iter().find(|(n, _)| *n == id).unwrap().1 as f64;
        // Node 2 has half the total weight: expect ~2000 of 4000, and the
        // unit-weight nodes ~1000 each. Allow generous sampling slack.
        assert!((1600.0..2400.0).contains(&count_of(2)), "{census:?}");
        assert!((700.0..1300.0).contains(&count_of(0)), "{census:?}");
        assert!((700.0..1300.0).contains(&count_of(1)), "{census:?}");
    }

    #[test]
    fn join_moves_only_to_the_new_node() {
        let mut r = ShardRouter::new(nodes(3), 0.4);
        let before: Vec<NodeId> = (0..500u32).map(|t| r.assign(t, "vision")).collect();
        r.add_node(ShardNode { id: 9, weight: 1.0 });
        let mut moved = 0;
        for (t, old) in before.iter().enumerate() {
            let new = r.assign(t as u32, "vision");
            if new != *old {
                assert_eq!(new, 9, "movers may only land on the joining node");
                moved += 1;
            }
        }
        assert!(moved > 0, "a joining node takes some share");
        assert!(moved < 500, "a joining node must not take everything");
    }

    #[test]
    fn leave_moves_only_the_departed_nodes_tenants() {
        let mut r = ShardRouter::new(nodes(4), 0.4);
        let before: Vec<NodeId> = (0..500u32).map(|t| r.assign(t, "kws")).collect();
        assert!(r.remove_node(2));
        for (t, old) in before.iter().enumerate() {
            let new = r.assign(t as u32, "kws");
            if *old != 2 {
                assert_eq!(new, *old, "tenant {t} moved without cause");
            } else {
                assert_ne!(new, 2);
            }
        }
        assert!(!r.remove_node(77), "unknown id is a no-op");
    }

    #[test]
    fn affinity_clusters_families_onto_fewer_nodes() {
        let spread_of = |affinity: f64| -> usize {
            let r = ShardRouter::new(nodes(8), affinity);
            // 64 tenants of one family: how many distinct nodes host them?
            let homes: std::collections::BTreeSet<NodeId> =
                (0..64u32).map(|t| r.assign(t, "shared-family")).collect();
            homes.len()
        };
        assert_eq!(spread_of(1.0), 1, "full affinity pins a family");
        assert!(
            spread_of(0.0) > spread_of(0.9),
            "affinity shrinks a family's node footprint"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_fabric_rejected() {
        let _ = ShardRouter::new(vec![], 0.5);
    }

    #[test]
    fn pins_override_hash_until_the_node_leaves() {
        let mut r = ShardRouter::new(nodes(4), 0.5);
        let natural = r.assign(7, "kws");
        let other = (natural + 1) % 4;
        r.pin(7, other);
        assert_eq!(r.assign(7, "kws"), other, "pin wins over the hash");
        assert_eq!(r.pinned(7), Some(other));
        assert_eq!(
            r.assign_bounded(7, "kws", 1, 1.0, |_| usize::MAX),
            other,
            "pins ignore load bounds"
        );
        assert!(r.remove_node(other));
        assert_eq!(r.pinned(7), None, "leave drops pins to the node");
        r.pin(7, natural);
        r.unpin(7);
        assert_eq!(r.assign(7, "kws"), natural);
    }

    #[test]
    fn bounded_assignment_caps_every_node() {
        let r = ShardRouter::new(nodes(4), 0.5);
        let factor = 1.25;
        let total = 64usize;
        let mut counts: std::collections::BTreeMap<NodeId, usize> = BTreeMap::new();
        for tenant in 0..total as u32 {
            // One shared family: full-affinity-free hashing would pile
            // tenants up; bounded load must spread the overflow.
            let home = r.assign_bounded(tenant, "hot-family", total, factor, |id| {
                counts.get(&id).copied().unwrap_or(0)
            });
            *counts.entry(home).or_default() += 1;
        }
        let caps = r.bounded_caps(total, factor);
        for (id, cap) in caps {
            let load = counts.get(&id).copied().unwrap_or(0);
            assert!(load <= cap, "node {id} holds {load} > cap {cap}");
        }
        assert_eq!(counts.values().sum::<usize>(), total);
    }

    #[test]
    fn unbounded_factor_matches_pure_rendezvous() {
        let r = ShardRouter::new(nodes(5), 0.4);
        for tenant in 0..200u32 {
            assert_eq!(
                r.assign_bounded(tenant, "kws", 200, f64::INFINITY, |_| usize::MAX),
                r.assign(tenant, "kws")
            );
        }
    }

    #[test]
    fn overflow_lands_on_the_next_best_node() {
        let r = ShardRouter::new(nodes(3), 0.0);
        let tenant = 11u32;
        let best = r.assign(tenant, "m");
        // Saturate only the best node: the bounded assignment must pick
        // the runner-up, not an arbitrary node.
        let overflowed =
            r.assign_bounded(
                tenant,
                "m",
                3,
                1.0,
                |id| {
                    if id == best {
                        usize::MAX
                    } else {
                        0
                    }
                },
            );
        assert_ne!(overflowed, best);
        // And the runner-up is stable: same inputs, same node.
        let again = r.assign_bounded(
            tenant,
            "m",
            3,
            1.0,
            |id| {
                if id == best {
                    usize::MAX
                } else {
                    0
                }
            },
        );
        assert_eq!(overflowed, again);
    }

    #[test]
    fn empty_ledger_units_reproduce_tenant_count_placement() {
        // The traffic-weighted measure must be a strict refinement: with
        // no observed traffic (all weights TRAFFIC_UNIT), unit-scaled
        // caps accept and reject exactly like the tenant-count measure.
        let r = ShardRouter::new(nodes(4), 0.5);
        let ledger = TrafficLedger::new();
        for factor in [1.0, 1.25, 2.0] {
            let total = 64usize;
            let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
            let mut units: BTreeMap<NodeId, u64> = BTreeMap::new();
            for tenant in 0..total as u32 {
                let by_count = r.assign_bounded(tenant, "hot", total, factor, |id| {
                    counts.get(&id).copied().unwrap_or(0)
                });
                let unit_total = ledger.total((0..total as u32).collect::<Vec<_>>()) as usize;
                let by_units = r.assign_bounded(tenant, "hot", unit_total, factor, |id| {
                    units.get(&id).copied().unwrap_or(0) as usize
                });
                assert_eq!(by_count, by_units, "tenant {tenant} factor {factor}");
                *counts.entry(by_count).or_default() += 1;
                *units.entry(by_units).or_default() += ledger.weight(tenant);
            }
        }
    }

    #[test]
    fn ledger_ewma_converges_and_forgets() {
        let mut ledger = TrafficLedger::new();
        assert_eq!(ledger.weight(3), TRAFFIC_UNIT, "unseen tenant = one slot");
        for _ in 0..32 {
            ledger.observe(3, 100);
        }
        let w = ledger.weight(3);
        // EWMA of a constant 100-request interval converges to
        // 100 slots of traffic on top of the idle slot.
        assert!(
            w > 99 * TRAFFIC_UNIT && w <= 101 * TRAFFIC_UNIT,
            "converged weight {w}"
        );
        ledger.observe(3, 0);
        assert!(ledger.weight(3) < w, "idle intervals decay the weight");
        ledger.forget(3);
        assert_eq!(ledger.weight(3), TRAFFIC_UNIT);
        assert!(ledger.is_empty());
    }

    #[test]
    fn giant_tenant_overflows_under_traffic_units_but_packs_under_counts() {
        // The regression the ledger exists for: one tenant carrying ~6
        // slots of traffic counts as *one slot* under the tenant-count
        // measure, so its node also receives a full complement of small
        // tenants; under traffic units the giant consumes its share of
        // the cap and the small tenants overflow to the other node.
        // Affinity 1.0 with a single family makes every tenant's
        // preference list identical, so the split is fully deterministic.
        let r = ShardRouter::new(nodes(2), 1.0);
        let mut ledger = TrafficLedger::new();
        let giant = 0u32;
        let smalls: Vec<u32> = (1..=20).collect();
        for _ in 0..32 {
            ledger.observe(giant, 5); // ≈ 6 slots incl. the idle floor
        }
        let population: Vec<u32> = std::iter::once(giant).chain(smalls.clone()).collect();
        let place = |total: usize, weight_of: &dyn Fn(TenantId) -> usize| {
            let mut load: BTreeMap<NodeId, usize> = BTreeMap::new();
            let mut homes: BTreeMap<TenantId, NodeId> = BTreeMap::new();
            for &tenant in &population {
                let home = r.assign_bounded(tenant, "m", total, 1.0, |id| {
                    load.get(&id).copied().unwrap_or(0)
                });
                *load.entry(home).or_default() += weight_of(tenant);
                homes.insert(tenant, home);
            }
            (homes, load)
        };
        let unit_cap = (ledger.total(population.iter().copied()) as f64 / 2.0).ceil() as u64;
        // Bounded load admits a tenant while load < cap, so a node can
        // legitimately overshoot by at most one small tenant's weight.
        let slack = unit_cap + TRAFFIC_UNIT;
        // Tenant-count measure: 21 tenants, cap 11 per node — the
        // giant's node also takes 10 small tenants and carries ~16 slots
        // of traffic against an ~13-slot fair cap. Pin this as the
        // must-fail behavior the new measure exists to kill.
        let (count_homes, _) = place(population.len(), &|_| 1);
        let giant_home = count_homes[&giant];
        let count_units: u64 = count_homes
            .iter()
            .filter(|(_, home)| **home == giant_home)
            .map(|(t, _)| ledger.weight(*t))
            .sum();
        assert!(
            count_units > slack,
            "tenant-count packing must overload the giant's node beyond \
             any legitimate overshoot ({count_units} units on node \
             {giant_home}, cap {unit_cap} + slack)"
        );
        // Traffic-unit measure: the same population stays within one
        // small tenant of the cap on every node.
        let total_units = ledger.total(population.iter().copied()) as usize;
        let (unit_homes, unit_load) = place(total_units, &|t| ledger.weight(t) as usize);
        for (node, load) in &unit_load {
            assert!(
                (*load as u64) < slack,
                "node {node} holds {load} units > cap {unit_cap} + slack"
            );
        }
        assert_ne!(
            unit_homes, count_homes,
            "the measures must actually disagree on this workload"
        );
    }
}
