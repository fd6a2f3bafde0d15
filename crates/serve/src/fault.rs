//! Deterministic fault injection and the self-healing vocabulary.
//!
//! A [`FaultPlan`] schedules node failures on *logical* timestamps — the
//! same time base both serving backends already run on — so an
//! `ExecMode::Replay` fault run is bit-identical between the simulator
//! and the threaded backend, exactly like PR 6's observer. The plan is
//! off by default and the engine carries no fault state when it is
//! disabled, so a disabled plan is byte-identical to no plan at all.
//!
//! Four fault kinds cover the failure modes §III/§V of the paper ascribe
//! to edge fleets:
//!
//! * [`FaultKind::Crash`] — the node dies at time T. Queued and in-flight
//!   work is resolved as refunded [`ShedReason::Failover`] sheds, every
//!   account is exported whole, and surviving nodes adopt the accounts
//!   under bounded load (the crate-internal `plan_evacuation`) through
//!   the same handoff a live migration uses — except that the adopting
//!   node seals the audit chain, because the dead source cannot.
//! * [`FaultKind::Stall`] — a transient freeze: every engine timer due
//!   inside the window slides to the window's end (GC pause, radio
//!   dropout).
//! * [`FaultKind::SlowNode`] — a degraded node: device service times are
//!   multiplied from T onward (thermal throttling, brownout).
//! * [`FaultKind::DispatchPanic`] — a genuine `panic!` in the node worker
//!   at its next dispatch after T. Only armed on the threaded backend
//!   (a panic in the single-threaded simulator would kill the whole
//!   process); the live feeder survives it and reports a structured
//!   `NodeFailure` instead of poisoning the run.
//!
//! The module also carries the two *recovery* policies the fault plane
//! exercises: a deadline-aware per-tenant retry budget with jittered
//! exponential backoff ([`RetryPolicy`]), and the brownout degradation
//! ladder ([`BrownoutConfig`]) that steps overloaded tenants down to
//! cheaper quantized variants before shedding them.

use crate::request::{ShedReason, TenantId};
use crate::shard::{node_loads, NodeId, ShardRouter, TrafficLedger};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use tinymlops_registry::ModelRecord;

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The node dies at `at_us`: in-flight and queued work is resolved as
    /// refunded failover sheds and every tenant account is evacuated to a
    /// surviving node.
    Crash,
    /// The node freezes until `until_us`: timers due inside
    /// `[at_us, until_us)` fire at `until_us` instead.
    Stall {
        /// End of the stall window (logical µs).
        until_us: u64,
    },
    /// Device service times on the node are multiplied by `multiplier`
    /// from `at_us` onward.
    SlowNode {
        /// Service-time multiplier (≥ 1.0 slows the node down).
        multiplier: f64,
    },
    /// The node worker panics at its first dispatch at or after `at_us`
    /// (threaded backend only — the simulator ignores this kind).
    DispatchPanic,
}

/// One fault bound to a node and a logical trigger time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Target node.
    pub node: NodeId,
    /// Logical trigger time in microseconds.
    pub at_us: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Brownout degradation ladder configuration.
///
/// The signal is gateway pressure: `total_pending / max_total_pending`.
/// When it crosses `high_watermark` the node steps one level down the
/// ladder — the router replans the family over a record set with the
/// level's most expensive variants removed (f32 → int8 → int4/int2), so
/// batches run faster, queues drain, and fewer requests die at the
/// deadline. When pressure falls below `low_watermark` the node steps
/// back up. The watermark gap is the hysteresis that keeps the ladder
/// from oscillating. Disabled by default; level decisions read only
/// engine-local state, so replay parity holds with brownout on.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutConfig {
    /// Master switch; the ladder is inert when false.
    pub enabled: bool,
    /// Pending fraction at which to step down (degrade).
    pub high_watermark: f64,
    /// Pending fraction at which to step back up (recover).
    pub low_watermark: f64,
    /// Deepest degradation level (each level removes one more of the
    /// family's most expensive variants, always keeping at least one).
    pub max_level: usize,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            enabled: false,
            high_watermark: 0.75,
            low_watermark: 0.25,
            max_level: 2,
        }
    }
}

impl BrownoutConfig {
    /// An enabled ladder with default watermarks.
    #[must_use]
    pub fn enabled() -> Self {
        BrownoutConfig {
            enabled: true,
            ..BrownoutConfig::default()
        }
    }
}

/// A whole run's fault schedule. Disabled by default: a default plan adds
/// no faults and a fabric run under it is byte-identical to one with no
/// plan at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Master switch; everything below is inert when false.
    pub enabled: bool,
    /// Scheduled faults, in schedule order.
    pub events: Vec<FaultEvent>,
    /// Brownout degradation ladder (applies fleet-wide).
    pub brownout: BrownoutConfig,
}

impl FaultPlan {
    /// An enabled plan carrying `events` (brownout stays off).
    #[must_use]
    pub fn with_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan {
            enabled: true,
            events,
            brownout: BrownoutConfig::default(),
        }
    }

    /// An enabled, empty plan (used to prove the armed-but-idle plane
    /// changes nothing).
    #[must_use]
    pub fn armed() -> Self {
        FaultPlan::with_events(Vec::new())
    }

    /// Crash events in schedule order (the drivers execute these).
    pub(crate) fn crashes(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.events.iter().filter_map(|e| match e.kind {
            FaultKind::Crash => Some((e.node, e.at_us)),
            _ => None,
        })
    }
}

/// One node's view of the plan: the engine-side faults (stall windows,
/// slowdown, dispatch panic) plus the fleet-wide brownout ladder. Crash
/// events are executed by the *drivers* (sim loop / live feeder), not the
/// engine, so they are not carried here.
#[derive(Debug, Clone)]
pub(crate) struct NodeFaults {
    /// Stall windows `[at, until)`, in schedule order.
    stalls: Vec<(u64, u64)>,
    /// Service-time multipliers active from their start time onward.
    slowdowns: Vec<(u64, f64)>,
    /// Earliest pending dispatch-panic trigger (threaded backend only).
    panic_at: Option<u64>,
    /// Fleet-wide brownout ladder.
    pub(crate) brownout: BrownoutConfig,
}

impl NodeFaults {
    /// Build `node`'s view of `plan`. Returns `None` when the plan is
    /// disabled — the engine then carries no fault state at all.
    /// `allow_panics` is set only by the threaded backend.
    pub(crate) fn for_node(plan: &FaultPlan, node: NodeId, allow_panics: bool) -> Option<Self> {
        if !plan.enabled {
            return None;
        }
        let mut faults = NodeFaults {
            stalls: Vec::new(),
            slowdowns: Vec::new(),
            panic_at: None,
            brownout: plan.brownout.clone(),
        };
        for event in plan.events.iter().filter(|e| e.node == node) {
            match event.kind {
                FaultKind::Stall { until_us } if until_us > event.at_us => {
                    faults.stalls.push((event.at_us, until_us));
                }
                FaultKind::Stall { .. } | FaultKind::Crash => {}
                FaultKind::SlowNode { multiplier } => {
                    faults.slowdowns.push((event.at_us, multiplier));
                }
                FaultKind::DispatchPanic => {
                    if allow_panics {
                        let at = faults.panic_at.get_or_insert(event.at_us);
                        *at = (*at).min(event.at_us);
                    }
                }
            }
        }
        Some(faults)
    }

    /// Slide a timer due inside a stall window to the window's end.
    /// Idempotent: a window end maps to itself.
    pub(crate) fn stall_adjusted(&self, due_us: u64) -> u64 {
        let mut t = due_us;
        for &(at, until) in &self.stalls {
            if t >= at && t < until {
                t = until;
            }
        }
        t
    }

    /// The service-time multiplier in force at `now_us` (product of all
    /// active slowdowns; 1.0 when none).
    pub(crate) fn slow_multiplier(&self, now_us: u64) -> f64 {
        self.slowdowns
            .iter()
            .filter(|(at, _)| now_us >= *at)
            .map(|(_, m)| *m)
            .product()
    }

    /// Consume a due dispatch panic: true exactly once, at the first
    /// dispatch at or after the trigger.
    pub(crate) fn take_panic(&mut self, now_us: u64) -> bool {
        if self.panic_at.is_some_and(|at| now_us >= at) {
            self.panic_at = None;
            return true;
        }
        false
    }
}

/// Deterministically choose a surviving home for every tenant of a dead
/// node: bounded-load rendezvous placement over the remaining nodes,
/// seeded with the survivors' current loads so the evacuees spread
/// instead of piling onto one node. Loads and the population total are
/// in `traffic` units ([`crate::TrafficLedger`]) — an empty ledger
/// degrades to the old tenant-count measure exactly. `shard` must
/// already have the dead node removed (which also dropped its pins). A
/// pure function of (topology, assignments, ledger, load factor), so
/// the sim loop and the live feeder compute identical placements — the
/// parity of crash recovery rests on this.
pub(crate) fn plan_evacuation(
    shard: &ShardRouter,
    assignments: &BTreeMap<TenantId, (NodeId, String)>,
    traffic: &TrafficLedger,
    dead: NodeId,
    load_factor: f64,
) -> Vec<(TenantId, String, NodeId)> {
    // The dead node's own entry is never asked for: it already left `shard`.
    let mut loads = node_loads(assignments, traffic);
    let total = traffic.total(assignments.keys().copied()) as usize;
    let mut moves = Vec::new();
    for (tenant, (node, family)) in assignments {
        if *node != dead {
            continue;
        }
        let home = shard.assign_bounded(*tenant, family, total, load_factor, |id| {
            loads.get(&id).copied().unwrap_or(0) as usize
        });
        *loads.entry(home).or_default() += traffic.weight(*tenant);
        moves.push((*tenant, family.clone(), home));
    }
    moves
}

/// The brownout ladder's record set at `level`: the `level` largest
/// variants removed (ties broken by id), always keeping at least one.
/// Level 0 is the full family.
#[must_use]
pub fn degrade_records(records: &[ModelRecord], level: usize) -> Vec<ModelRecord> {
    if level == 0 || records.len() <= 1 {
        return records.to_vec();
    }
    let mut sorted: Vec<&ModelRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (std::cmp::Reverse(r.size_bytes), r.id));
    let drop = level.min(records.len() - 1);
    let dropped: Vec<_> = sorted[..drop].iter().map(|r| r.id).collect();
    records
        .iter()
        .filter(|r| !dropped.contains(&r.id))
        .cloned()
        .collect()
}

/// Whether a shed is worth retrying: transient pressure is, a hard quota
/// denial or a missed deadline is not.
#[must_use]
pub fn retryable(reason: ShedReason) -> bool {
    matches!(
        reason,
        ShedReason::Overload | ShedReason::TenantBackpressure
    )
}

/// Retry policy: per-tenant token-bucket budgets plus jittered
/// exponential backoff, deadline-aware — a retry that could not land
/// before the request's absolute deadline is never scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retry attempts per request (0 disables retries).
    pub max_attempts: u32,
    /// Token-bucket capacity per tenant (1 token per retry).
    pub bucket_capacity: f64,
    /// Bucket refill rate, tokens per second — the steady-state retry
    /// budget that keeps a retry storm bounded.
    pub refill_per_sec: f64,
    /// First-attempt backoff, microseconds.
    pub base_backoff_us: u64,
    /// Backoff ceiling, microseconds.
    pub max_backoff_us: u64,
    /// Uniform jitter fraction in `[0, 1)`: the delay is scaled by a
    /// factor drawn from `[1 − jitter, 1 + jitter)` so synchronized sheds
    /// do not retry in lockstep.
    pub jitter: f64,
    /// Seed for the jitter stream (retries stay a pure function of the
    /// run inputs).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            bucket_capacity: 16.0,
            refill_per_sec: 8.0,
            base_backoff_us: 2_000,
            max_backoff_us: 64_000,
            jitter: 0.5,
            seed: 0x5eed_fa11,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay for retry `attempt` (1-based): exponential in
    /// the attempt, capped, jittered.
    pub fn backoff_us(&self, attempt: u32, rng: &mut StdRng) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        let exp = self
            .base_backoff_us
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_us.max(1));
        let jitter = self.jitter.clamp(0.0, 0.999);
        let factor = if jitter > 0.0 {
            1.0 + rng.gen_range(-jitter..jitter)
        } else {
            1.0
        };
        ((exp as f64 * factor) as u64).max(1)
    }
}

/// Per-tenant retry token bucket.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    capacity: f64,
    tokens: f64,
    refill_per_us: f64,
    last_us: u64,
}

impl RetryBudget {
    /// A full bucket under `policy`, opened at `now_us`.
    #[must_use]
    pub fn new(policy: &RetryPolicy, now_us: u64) -> Self {
        RetryBudget {
            capacity: policy.bucket_capacity.max(0.0),
            tokens: policy.bucket_capacity.max(0.0),
            refill_per_us: policy.refill_per_sec.max(0.0) / 1e6,
            last_us: now_us,
        }
    }

    /// Take one token at `now_us`; false when the bucket is dry.
    pub fn try_take(&mut self, now_us: u64) -> bool {
        let elapsed = now_us.saturating_sub(self.last_us);
        self.tokens = (self.tokens + elapsed as f64 * self.refill_per_us).min(self.capacity);
        self.last_us = self.last_us.max(now_us);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    #[must_use]
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Why a retry was (or was not) scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Retry scheduled for the given logical time.
    At(u64),
    /// The request exhausted its per-request attempt allowance.
    AttemptsExhausted,
    /// The backoff delay would land past the request's absolute deadline
    /// — retries never outlive the deadline.
    DeadlineExceeded,
    /// The tenant's token bucket is dry (retry-storm limiter).
    BudgetExhausted,
}

/// Decide whether (and when) to retry a request with absolute deadline
/// `deadline_abs_us` after its `attempt`-th failure at `now_us`. Checks
/// are ordered so doomed retries never burn budget: attempts, then
/// deadline, then the token bucket.
pub fn schedule_retry(
    policy: &RetryPolicy,
    budget: &mut RetryBudget,
    deadline_abs_us: u64,
    attempt: u32,
    now_us: u64,
    rng: &mut StdRng,
) -> RetryDecision {
    if attempt > policy.max_attempts {
        return RetryDecision::AttemptsExhausted;
    }
    let at = now_us.saturating_add(policy.backoff_us(attempt, rng));
    if at >= deadline_abs_us {
        return RetryDecision::DeadlineExceeded;
    }
    if !budget.try_take(now_us) {
        return RetryDecision::BudgetExhausted;
    }
    RetryDecision::At(at)
}

/// What retrying ([`crate::ServeFabric::run_with_retries`], the closed
/// loop) did with a run's retryable sheds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retries scheduled (each re-enters admission at its backoff time).
    pub scheduled: u64,
    /// Retries that were admitted on re-delivery.
    pub succeeded: u64,
    /// Sheds not retried: per-request attempt allowance exhausted.
    pub attempts_exhausted: u64,
    /// Sheds not retried: the backoff would land past the request's
    /// absolute deadline (retries never outlive the deadline).
    pub deadline_denied: u64,
    /// Sheds not retried: the tenant's token bucket was dry.
    pub budget_denied: u64,
}

/// The accounting every retrying driver owes for a [`schedule_retry`]
/// answer: a granted retry counts as scheduled and comes back as the
/// re-delivery's `(arrival_us, deadline_us)`; a denial counts under its
/// reason and yields `None`. The relative deadline shrinks by the
/// backoff so the *absolute* deadline holds — the clock does not restart
/// because we retried.
pub(crate) fn account_retry(
    decision: RetryDecision,
    deadline_abs_us: u64,
    stats: &mut RetryStats,
) -> Option<(u64, u64)> {
    match decision {
        RetryDecision::At(at) => {
            stats.scheduled += 1;
            return Some((at, deadline_abs_us - at));
        }
        RetryDecision::AttemptsExhausted => stats.attempts_exhausted += 1,
        RetryDecision::DeadlineExceeded => stats.deadline_denied += 1,
        RetryDecision::BudgetExhausted => stats.budget_denied += 1,
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use rand::SeedableRng;
    use tinymlops_registry::{ModelFormat, ModelId, SemVer};

    fn record(id: u64, size: u64) -> ModelRecord {
        ModelRecord {
            id: ModelId(id),
            name: "m".into(),
            version: SemVer::new(1, 0, 0),
            format: ModelFormat::F32,
            parent: None,
            artifact: [0; 32],
            size_bytes: size,
            macs: 1,
            metrics: std::collections::BTreeMap::new(),
            tags: vec![],
            created_ms: 0,
        }
    }

    fn request(arrival_us: u64, deadline_us: u64) -> Request {
        Request {
            id: 0,
            tenant: 1,
            model: "m".into(),
            arrival_us,
            deadline_us,
            features: None,
        }
    }

    #[test]
    fn default_plan_is_disabled() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled);
        assert!(NodeFaults::for_node(&plan, 0, true).is_none());
        assert!(FaultPlan::armed().enabled);
    }

    #[test]
    fn node_view_filters_by_node() {
        let plan = FaultPlan::with_events(vec![
            FaultEvent {
                node: 0,
                at_us: 100,
                kind: FaultKind::Stall { until_us: 200 },
            },
            FaultEvent {
                node: 1,
                at_us: 50,
                kind: FaultKind::SlowNode { multiplier: 3.0 },
            },
        ]);
        let n0 = NodeFaults::for_node(&plan, 0, true).unwrap();
        assert_eq!(n0.stall_adjusted(150), 200, "inside the window slides");
        assert_eq!(n0.stall_adjusted(200), 200, "window end is idempotent");
        assert_eq!(n0.stall_adjusted(99), 99, "before the window is free");
        assert_eq!(n0.slow_multiplier(1000), 1.0, "slowdown is node 1's");
        let n1 = NodeFaults::for_node(&plan, 1, true).unwrap();
        assert_eq!(n1.slow_multiplier(49), 1.0);
        assert_eq!(n1.slow_multiplier(50), 3.0);
        assert_eq!(n1.stall_adjusted(150), 150);
    }

    #[test]
    fn dispatch_panic_fires_once_and_only_when_allowed() {
        let plan = FaultPlan::with_events(vec![FaultEvent {
            node: 0,
            at_us: 500,
            kind: FaultKind::DispatchPanic,
        }]);
        let mut armed = NodeFaults::for_node(&plan, 0, true).unwrap();
        assert!(!armed.take_panic(499), "not due yet");
        assert!(armed.take_panic(500), "fires at the trigger");
        assert!(!armed.take_panic(10_000), "fires once");
        let mut sim_side = NodeFaults::for_node(&plan, 0, false).unwrap();
        assert!(
            !sim_side.take_panic(10_000),
            "the simulator never arms panics"
        );
    }

    #[test]
    fn crashes_iterate_in_schedule_order() {
        let plan = FaultPlan::with_events(vec![
            FaultEvent {
                node: 2,
                at_us: 900,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                node: 0,
                at_us: 400,
                kind: FaultKind::DispatchPanic,
            },
            FaultEvent {
                node: 1,
                at_us: 100,
                kind: FaultKind::Crash,
            },
        ]);
        let crashes: Vec<_> = plan.crashes().collect();
        assert_eq!(crashes, vec![(2, 900), (1, 100)]);
    }

    #[test]
    fn degrade_drops_largest_first_and_keeps_one() {
        let records = vec![record(0, 40_000), record(1, 10_000), record(2, 2_500)];
        let l0 = degrade_records(&records, 0);
        assert_eq!(l0.len(), 3);
        let l1 = degrade_records(&records, 1);
        assert_eq!(
            l1.iter().map(|r| r.id.0).collect::<Vec<_>>(),
            vec![1, 2],
            "level 1 drops the fat f32"
        );
        let l2 = degrade_records(&records, 2);
        assert_eq!(l2.iter().map(|r| r.id.0).collect::<Vec<_>>(), vec![2]);
        let l9 = degrade_records(&records, 9);
        assert_eq!(l9.len(), 1, "always keeps one variant");
    }

    #[test]
    fn retryable_is_transient_only() {
        assert!(retryable(ShedReason::Overload));
        assert!(retryable(ShedReason::TenantBackpressure));
        assert!(!retryable(ShedReason::QuotaExhausted));
        assert!(!retryable(ShedReason::DeadlineExpired));
        assert!(!retryable(ShedReason::NoRoute));
        assert!(!retryable(ShedReason::Failover));
    }

    #[test]
    fn backoff_grows_exponentially_within_cap() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let b1 = policy.backoff_us(1, &mut rng);
        let b2 = policy.backoff_us(2, &mut rng);
        let b3 = policy.backoff_us(3, &mut rng);
        assert_eq!(b1, policy.base_backoff_us);
        assert_eq!(b2, 2 * b1);
        assert_eq!(b3, 4 * b1);
        let b99 = policy.backoff_us(99, &mut rng);
        assert_eq!(b99, policy.max_backoff_us, "capped");
    }

    #[test]
    fn jittered_backoff_stays_bracketed_and_deterministic() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(policy.seed);
        let mut b = StdRng::seed_from_u64(policy.seed);
        for attempt in 1..=6 {
            let x = policy.backoff_us(attempt, &mut a);
            let y = policy.backoff_us(attempt, &mut b);
            assert_eq!(x, y, "same seed, same jitter");
            let base = policy
                .base_backoff_us
                .saturating_mul(1 << (attempt - 1))
                .min(policy.max_backoff_us) as f64;
            assert!((x as f64) >= base * (1.0 - policy.jitter) - 1.0);
            assert!((x as f64) <= base * (1.0 + policy.jitter) + 1.0);
        }
    }

    #[test]
    fn budget_refills_over_time() {
        let policy = RetryPolicy {
            bucket_capacity: 2.0,
            refill_per_sec: 1.0,
            ..RetryPolicy::default()
        };
        let mut bucket = RetryBudget::new(&policy, 0);
        assert!(bucket.try_take(0));
        assert!(bucket.try_take(0));
        assert!(!bucket.try_take(0), "bucket dry");
        assert!(!bucket.try_take(500_000), "half a token is not one");
        assert!(bucket.try_take(1_600_000), "refilled after ~1.1 s more");
    }

    #[test]
    fn retries_never_outlive_the_deadline() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut bucket = RetryBudget::new(&policy, 0);
        let mut rng = StdRng::seed_from_u64(7);
        // Deadline at 1000 + 3000; first backoff is 2000 → retry at 3000
        // fits, but a request shed at 2500 cannot fit another.
        let r = request(1_000, 3_000);
        assert_eq!(
            schedule_retry(
                &policy,
                &mut bucket,
                r.deadline_abs_us(),
                1,
                1_000,
                &mut rng
            ),
            RetryDecision::At(3_000)
        );
        assert_eq!(
            schedule_retry(
                &policy,
                &mut bucket,
                r.deadline_abs_us(),
                1,
                2_500,
                &mut rng
            ),
            RetryDecision::DeadlineExceeded
        );
        assert_eq!(
            schedule_retry(
                &policy,
                &mut bucket,
                r.deadline_abs_us(),
                9,
                1_000,
                &mut rng
            ),
            RetryDecision::AttemptsExhausted
        );
    }

    #[test]
    fn dry_budget_blocks_retries_without_burning_attempts() {
        let policy = RetryPolicy {
            jitter: 0.0,
            bucket_capacity: 1.0,
            refill_per_sec: 0.0,
            ..RetryPolicy::default()
        };
        let mut bucket = RetryBudget::new(&policy, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let r = request(0, 1_000_000);
        assert!(matches!(
            schedule_retry(&policy, &mut bucket, r.deadline_abs_us(), 1, 0, &mut rng),
            RetryDecision::At(_)
        ));
        assert_eq!(
            schedule_retry(&policy, &mut bucket, r.deadline_abs_us(), 1, 0, &mut rng),
            RetryDecision::BudgetExhausted
        );
        // A doomed retry (past deadline) must not have taken a token.
        let mut fresh = RetryBudget::new(&policy, 0);
        let doomed = request(0, 1);
        let _ = schedule_retry(
            &policy,
            &mut fresh,
            doomed.deadline_abs_us(),
            1,
            0,
            &mut rng,
        );
        assert!((fresh.tokens() - 1.0).abs() < 1e-9, "deadline check first");
    }
}
