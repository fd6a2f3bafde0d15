//! Closed-loop client population over the serving fabric.
//!
//! The open-loop generator ([`crate::LoadPlan`]) fixes the arrival
//! schedule up front: requests land at their scheduled instants no
//! matter how the plane is doing, which is the right model for knee
//! finding but the wrong one for real clients. A *closed-loop*
//! population issues a request, waits for its outcome, thinks for a
//! seeded exponential gap, and only then issues the next one — so the
//! offered rate is a function of observed latency, and overload shows
//! up as the textbook goodput collapse instead of an unbounded queue.
//!
//! The response leg is the engine's completion tap
//! ([`crate::request::Completion`]): every delivered arrival resolves
//! exactly once (served, admission shed, downstream shed, or failover),
//! and the driver routes that resolution back to the issuing client.
//! Retryable sheds re-enter through the same jittered-exponential
//! machinery as [`crate::ServeFabric::run_with_retries`]
//! ([`crate::schedule_retry`]): per-tenant token buckets, per-request
//! attempt caps, and absolute-deadline preservation — a retry never
//! outlives the deadline the first attempt promised.
//!
//! Two drivers share the client logic:
//!
//! * [`ServeFabric::run_closed_loop`] — deterministic discrete-event
//!   driver on the simulator engines. Same seed ⇒ identical issue/
//!   retry/think trace, and the materialized trace replayed through
//!   [`ServeFabric::run`] on an identical fabric reproduces the fleet
//!   report bit-for-bit (the driver fires exactly the timers the
//!   open-loop replay would, at the same logical instants).
//! * [`ServeFabric::run_closed_loop_wall`] — honest wall-clock clients:
//!   client shard threads (one per core, capped at the population size)
//!   push arrivals into the nodes' lock-free ingest queues and block on
//!   per-shard completion channels. Deterministic only in its
//!   conservation laws, like [`crate::ExecMode::Wall`].

use crate::clock::{Clock, WallClock};
use crate::coordinator::Routing;
use crate::exec::{run_workers, ExecMode, Ingest, IngestQueue, LiveSetup};
use crate::fabric::{FabricReport, NodeIndex, ServeFabric, SimNodes};
use crate::fault::{
    account_retry, retryable, schedule_retry, RetryBudget, RetryPolicy, RetryStats,
};
use crate::request::{Completion, Disposition, Request, RequestId, TenantId};
use crate::stats::nearest_rank;
use crate::ServeError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;
use std::time::Duration;

/// Client index lives in the id's high bits so the wall-mode completion
/// router can find the owning shard without a lookup table.
pub(crate) const CLIENT_SHIFT: u32 = 32;

/// Routes completions from node workers back to the client shard that
/// issued the request (wall mode only). Cloned into each worker; the
/// senders are unbounded, so a worker never blocks on a slow client.
#[derive(Clone)]
pub(crate) struct CompletionSink {
    pub(crate) senders: Vec<mpsc::Sender<Completion>>,
}

impl CompletionSink {
    pub(crate) fn forward(&self, completion: Completion) {
        let shard = ((completion.id >> CLIENT_SHIFT) as usize) % self.senders.len().max(1);
        // A gone receiver means its shard already finished (or gave up);
        // the completion is simply unobserved, like a closed browser tab.
        let _ = self.senders[shard].send(completion);
    }
}

/// One closed-loop client's behaviour contract.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Tenant this client bills against.
    pub tenant: TenantId,
    /// Model family it queries.
    pub model: String,
    /// Mean think time between a resolution and the next issue,
    /// microseconds (exponential, seeded; ≤ 0 = re-issue after the
    /// minimum 1µs gap).
    pub think_mean_us: f64,
    /// Per-request latency SLO in microseconds.
    pub deadline_us: u64,
}

/// A whole closed-loop run: the population, its window, and the retry
/// contract every client follows.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    /// The client population (index = client id).
    pub clients: Vec<ClientSpec>,
    /// Issue window, microseconds: no *fresh* request is issued at or
    /// past this instant (outstanding work and scheduled retries still
    /// resolve, so the run drains cleanly).
    pub duration_us: u64,
    /// Master seed for think times, first-issue offsets and features.
    pub seed: u64,
    /// Feature dimension synthesized per request (0 = cost model only).
    pub feature_dim: usize,
    /// Retry contract (attempts, backoff, per-tenant budget, jitter).
    /// `max_attempts: 0` disables retries entirely.
    pub retry: RetryPolicy,
}

/// What the client population observed — the demand-side complement of
/// the supply-side [`FabricReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClosedLoopStats {
    /// First-attempt requests issued.
    pub issued: u64,
    /// Retry re-deliveries issued.
    pub retries: u64,
    /// Requests that ultimately resolved as served.
    pub served: u64,
    /// Served *within the absolute deadline* — the goodput numerator.
    pub goodput: u64,
    /// Requests whose final resolution was a shed (retries exhausted,
    /// denied, or the reason was not retryable).
    pub shed_final: u64,
    /// Wall mode only: requests that never resolved (node died with the
    /// work, or the run's grace window expired). Always 0 in the
    /// deterministic driver.
    pub lost: u64,
    /// What the retry machinery did (same counters as
    /// [`ServeFabric::run_with_retries`]).
    pub retry: RetryStats,
    /// Client-perceived latency of served requests, first issue to final
    /// resolution (includes backoff waits), sorted ascending.
    latencies: Vec<u64>,
}

impl ClosedLoopStats {
    /// Total deliveries pushed at the fabric (first attempts + retries).
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.issued + self.retries
    }

    /// Deliveries per first attempt — 1.0 means no retry pressure; the
    /// overload bench gates this staying bounded past the knee.
    #[must_use]
    pub fn retry_amplification(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.pushes() as f64 / self.issued as f64
    }

    /// Fraction of first attempts that were served within deadline.
    #[must_use]
    pub fn goodput_fraction(&self) -> f64 {
        if self.issued == 0 {
            return 0.0;
        }
        self.goodput as f64 / self.issued as f64
    }

    /// Nearest-rank percentile of client-perceived served latency,
    /// microseconds (`pct` in (0, 100]); 0 when nothing was served.
    #[must_use]
    pub fn latency_us(&self, pct: f64) -> u64 {
        nearest_rank(&self.latencies, pct)
    }

    /// Fold another shard's counters into this one.
    fn merge(&mut self, other: &ClosedLoopStats) {
        self.issued += other.issued;
        self.retries += other.retries;
        self.served += other.served;
        self.goodput += other.goodput;
        self.shed_final += other.shed_final;
        self.lost += other.lost;
        self.retry.scheduled += other.retry.scheduled;
        self.retry.succeeded += other.retry.succeeded;
        self.retry.attempts_exhausted += other.retry.attempts_exhausted;
        self.retry.deadline_denied += other.retry.deadline_denied;
        self.retry.budget_denied += other.retry.budget_denied;
        self.latencies.extend_from_slice(&other.latencies);
    }

    fn finalize(&mut self) {
        self.latencies.sort_unstable();
    }
}

/// Result of a deterministic closed-loop run.
#[derive(Debug)]
pub struct ClosedLoopReport {
    /// The supply side: the same merged fleet report an open-loop run
    /// produces.
    pub fabric: FabricReport,
    /// The demand side: what the client population observed.
    pub clients: ClosedLoopStats,
    /// Every delivery in arrival order — a valid open-loop stream.
    /// Replaying it through [`ServeFabric::run`] on an identically
    /// provisioned fabric reproduces `fabric` bit-for-bit.
    pub trace: Vec<Request>,
}

/// Result of a wall-clock closed-loop run.
#[derive(Debug)]
pub struct ClosedLoopLiveReport {
    /// The merged fleet report (conservation laws hold; timings are
    /// real elapsed microseconds, so no bit-parity claim).
    pub fabric: FabricReport,
    /// What the client population observed.
    pub clients: ClosedLoopStats,
    /// Wall-clock time for the whole threaded pipeline, milliseconds.
    pub wall_ms: f64,
}

/// Where one client is in its issue → wait → think cycle. A closed-loop
/// client has at most one request scheduled or outstanding, so the whole
/// population's bookkeeping is one slot per client.
enum Slot {
    /// Nothing scheduled or outstanding: the next think gap landed past
    /// the issue window, the request was written off as lost, or the
    /// client belongs to another shard's pool.
    Idle,
    /// A (re-)issue waiting for its instant; `request` is exactly what
    /// will be delivered.
    Scheduled {
        request: Request,
        attempt: u32,
        first_issue_us: u64,
    },
    /// Delivered, awaiting its completion. The request itself has moved
    /// on (into the trace, or a node's ingest queue); what stays is what a
    /// retry is rebuilt from — tenant and model come from the spec.
    Outstanding {
        id: RequestId,
        attempt: u32,
        first_issue_us: u64,
        deadline_abs_us: u64,
        features: Option<Vec<f32>>,
    },
}

struct Client {
    rng: StdRng,
    next_seq: u64,
    /// Index of this client's tenant in [`ClientPool::budgets`].
    budget: usize,
    slot: Slot,
}

/// The client population's state machine, shared by both drivers: one
/// [`Slot`] per client plus a heap of issue instants. A completion finds
/// its client in the id's high bits ([`CLIENT_SHIFT`]), so no table maps
/// requests back to clients; one that does not match the slot's
/// outstanding id (wall mode: resolved after being written off as lost)
/// is ignored.
struct ClientPool<'p> {
    plan: &'p ClientPlan,
    clients: Vec<Client>,
    /// `(issue instant, schedule order, client)`: same-instant issues pop
    /// in the order they were scheduled.
    issues: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
    outstanding: usize,
    /// Per-tenant retry buckets, opened at the tenant's first retryable
    /// shed.
    budgets: Vec<Option<RetryBudget>>,
    retry_rng: StdRng,
    stats: ClosedLoopStats,
}

impl<'p> ClientPool<'p> {
    /// A pool driving the clients `owned` selects (a wall-mode shard owns
    /// a slice of the population), each with its first issue scheduled.
    fn new(plan: &'p ClientPlan, retry_seed: u64, owned: impl Fn(usize) -> bool) -> Self {
        let mut tenants: Vec<TenantId> = plan.clients.iter().map(|c| c.tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let clients = plan
            .clients
            .iter()
            .enumerate()
            .map(|(i, spec)| Client {
                rng: client_rng(plan.seed, i),
                next_seq: 0,
                budget: tenants
                    .binary_search(&spec.tenant)
                    .expect("collected above"),
                slot: Slot::Idle,
            })
            .collect();
        let mut pool = ClientPool {
            plan,
            clients,
            issues: BinaryHeap::with_capacity(plan.clients.len()),
            seq: 0,
            outstanding: 0,
            budgets: vec![None; tenants.len()],
            retry_rng: StdRng::seed_from_u64(retry_seed),
            stats: ClosedLoopStats::default(),
        };
        for client in (0..plan.clients.len()).filter(|&c| owned(c)) {
            pool.think_then_issue(client, 0);
        }
        pool
    }

    /// When the earliest scheduled (re-)issue is due, if any.
    fn next_issue_at(&self) -> Option<u64> {
        self.issues.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Nothing scheduled, nothing outstanding: the run is over.
    fn is_drained(&self) -> bool {
        self.issues.is_empty() && self.outstanding == 0
    }

    /// Take the earliest scheduled issue for delivery at `now_us` — its
    /// scheduled instant on the logical clock, the real push time on the
    /// wall clock. The request moves out to the caller; the slot keeps
    /// only what resolving (and possibly retrying) it needs.
    fn pop_issue(&mut self, now_us: u64) -> Option<(usize, Request)> {
        let Reverse((_, _, client)) = self.issues.pop()?;
        let client = client as usize;
        let slot = &mut self.clients[client].slot;
        let Slot::Scheduled {
            mut request,
            attempt,
            first_issue_us,
        } = std::mem::replace(slot, Slot::Idle)
        else {
            unreachable!("every heap entry has a scheduled slot");
        };
        request.arrival_us = now_us;
        if attempt == 0 {
            self.stats.issued += 1;
        } else {
            self.stats.retries += 1;
        }
        *slot = Slot::Outstanding {
            id: request.id,
            attempt,
            first_issue_us: if attempt == 0 { now_us } else { first_issue_us },
            deadline_abs_us: request.deadline_abs_us(),
            features: request.features.clone(),
        };
        self.outstanding += 1;
        Some((client, request))
    }

    /// Route one completion back to its client: account the outcome, then
    /// schedule a retry or the next think-gapped fresh issue. `now_us` is
    /// when the client *learns* the outcome (logical resolution time in
    /// the sim driver, wall time in the live one).
    fn resolve(&mut self, completion: &Completion, now_us: u64) {
        let client = (completion.id >> CLIENT_SHIFT) as usize;
        let Some(slot) = self.clients.get_mut(client).map(|c| &mut c.slot) else {
            return;
        };
        let (id, attempt, first_issue_us, deadline_abs_us, features) =
            match std::mem::replace(slot, Slot::Idle) {
                Slot::Outstanding {
                    id,
                    attempt,
                    first_issue_us,
                    deadline_abs_us,
                    features,
                } if id == completion.id => {
                    (id, attempt, first_issue_us, deadline_abs_us, features)
                }
                other => {
                    *slot = other;
                    return;
                }
            };
        self.outstanding -= 1;
        let plan = self.plan;
        match completion.disposition {
            Disposition::Served { .. } => {
                self.stats.served += 1;
                if attempt > 0 {
                    self.stats.retry.succeeded += 1;
                }
                if completion.at_us <= deadline_abs_us {
                    self.stats.goodput += 1;
                }
                self.stats
                    .latencies
                    .push(completion.at_us.saturating_sub(first_issue_us));
            }
            Disposition::Shed(reason) if retryable(reason) && plan.retry.max_attempts > 0 => {
                let budget = self.budgets[self.clients[client].budget]
                    .get_or_insert_with(|| RetryBudget::new(&plan.retry, now_us));
                let decision = schedule_retry(
                    &plan.retry,
                    budget,
                    deadline_abs_us,
                    attempt + 1,
                    now_us,
                    &mut self.retry_rng,
                );
                if let Some((at, deadline_us)) =
                    account_retry(decision, deadline_abs_us, &mut self.stats.retry)
                {
                    let spec = &plan.clients[client];
                    let request = Request {
                        id,
                        tenant: spec.tenant,
                        model: spec.model.clone(),
                        arrival_us: at,
                        deadline_us,
                        features,
                    };
                    self.schedule(client, at, request, attempt + 1, first_issue_us);
                    return;
                }
                self.stats.shed_final += 1;
            }
            Disposition::Shed(_) => self.stats.shed_final += 1,
        }
        self.think_then_issue(client, now_us);
    }

    /// Write off `client`'s outstanding request (if any) as lost — its
    /// home node refused the push, or nothing can resolve it any more.
    /// The client issues nothing further.
    fn write_off(&mut self, client: usize) {
        let slot = &mut self.clients[client].slot;
        if matches!(slot, Slot::Outstanding { .. }) {
            *slot = Slot::Idle;
            self.outstanding -= 1;
            self.stats.lost += 1;
        }
    }

    /// [`ClientPool::write_off`] every outstanding request.
    fn write_off_outstanding(&mut self) {
        for client in 0..self.clients.len() {
            self.write_off(client);
        }
    }

    /// The finished run's demand-side statistics.
    fn into_stats(mut self) -> ClosedLoopStats {
        self.stats.finalize();
        self.stats
    }

    /// Draw `client`'s think gap from `now_us` and, if it lands inside
    /// the issue window, schedule a fresh first attempt there. Draw order
    /// per client (gap, then features) is part of the seeded contract.
    fn think_then_issue(&mut self, client: usize, now_us: u64) {
        let plan = self.plan;
        let spec = &plan.clients[client];
        let c = &mut self.clients[client];
        let at = now_us.saturating_add(exp_gap_us(&mut c.rng, spec.think_mean_us));
        if at >= plan.duration_us {
            return;
        }
        let request = make_request(
            client,
            spec,
            &mut c.rng,
            at,
            plan.feature_dim,
            &mut c.next_seq,
        );
        self.schedule(client, at, request, 0, at);
    }

    fn schedule(
        &mut self,
        client: usize,
        at_us: u64,
        request: Request,
        attempt: u32,
        first_issue_us: u64,
    ) {
        self.clients[client].slot = Slot::Scheduled {
            request,
            attempt,
            first_issue_us,
        };
        self.issues.push(Reverse((at_us, self.seq, client as u32)));
        self.seq += 1;
    }
}

/// Exponential think gap (same draw idiom as the open-loop generator),
/// clamped to ≥ 1µs so a rejection storm against a zero-think
/// population still advances the clock — without the clamp, an
/// instantly-shed request whose retry is denied would re-issue at the
/// same instant forever.
fn exp_gap_us(rng: &mut StdRng, mean_us: f64) -> u64 {
    if mean_us <= 0.0 {
        return 1;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    ((-u.ln() * mean_us) as u64).max(1)
}

/// Per-client seeded rng, decorrelated the same way the open-loop
/// generator decorrelates tenants.
fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9e37_79b9u64.wrapping_mul(client as u64 + 1))
}

/// Build one fresh first-attempt request for `client`.
fn make_request(
    client: usize,
    spec: &ClientSpec,
    rng: &mut StdRng,
    at_us: u64,
    feature_dim: usize,
    next_seq: &mut u64,
) -> Request {
    let id = ((client as u64) << CLIENT_SHIFT) | *next_seq;
    *next_seq += 1;
    let features = (feature_dim > 0).then(|| {
        (0..feature_dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect()
    });
    Request {
        id,
        tenant: spec.tenant,
        model: spec.model.clone(),
        arrival_us: at_us,
        deadline_us: spec.deadline_us,
        features,
    }
}

/// Each client's home node as a position in the run's node slice. Closed-
/// loop runs move no tenants, so the routing is fixed for the whole run
/// and no delivery walks the assignment table. Unknown tenants are still
/// routed (by the same hash as the open loop) so the owning gateway
/// records the denial.
fn client_homes(plan: &ClientPlan, routing: &Routing<'_>, index: &NodeIndex) -> Vec<usize> {
    plan.clients
        .iter()
        .map(|c| index[routing.home_of(c.tenant, &c.model)])
        .collect()
}

impl ServeFabric {
    /// Drive a closed-loop client population through the fabric on the
    /// simulator's discrete-event engines.
    ///
    /// The driver interleaves two event sources on one logical clock:
    /// client (re-)issues and the engines' own timers (batch flushes,
    /// completions). Timers at the same instant as an issue fire first,
    /// exactly as in the open-loop replay, so the materialized
    /// [`ClosedLoopReport::trace`] replayed through [`ServeFabric::run`]
    /// on an identically provisioned fabric reproduces the fleet report
    /// bit-for-bit. Fully deterministic: same plan (and seed), same
    /// trace, same report.
    ///
    /// Cross-node events — scheduled migrations, fault-plan crashes, the
    /// elasticity controller — do not fire in this driver (closed-loop
    /// runs measure the demand/supply feedback loop in isolation): a
    /// pending migration schedule stays pending for the next open-loop
    /// run, and the fabric is best provisioned without the other two.
    pub fn run_closed_loop(&mut self, plan: &ClientPlan) -> Result<ClosedLoopReport, ServeError> {
        self.preflight()?;
        let refunded_before = self.refunded_total();
        let mut trace: Vec<Request> = Vec::new();
        let (nodes, policy, routing) = self.split();
        let mut sim = SimNodes::arm(nodes, policy, |engine| engine.set_completion_tap(true));
        let home_of = client_homes(plan, &routing, &sim.index);
        let mut pool = ClientPool::new(plan, plan.retry.seed, |_| true);
        let mut completions: Vec<Completion> = Vec::new();

        loop {
            let next_issue = pool.next_issue_at();
            let next_timer = sim
                .ctxs
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.engine.next_timer_us().map(|t| (t, i)))
                .min();
            // Timers due at or before the next issue fire first — the
            // same order `run_timers_through` imposes inside the open-loop
            // replay, which is what makes the trace replayable
            // bit-for-bit.
            let fire_timer = match (next_issue, next_timer) {
                (None, None) => break,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(at), Some((t, _))) => t <= at,
            };
            let ctx = if fire_timer {
                let (t, node) = next_timer.expect("matched above");
                let ctx = &mut sim.ctxs[node];
                ctx.engine.run_timers_through(ctx.plane, t, true);
                ctx
            } else {
                let at = next_issue.expect("matched above");
                let (client, request) = pool.pop_issue(at).expect("peeked");
                let ctx = &mut sim.ctxs[home_of[client]];
                ctx.engine.run_timers_through(ctx.plane, at, true);
                let _ = ctx.engine.on_arrival(ctx.plane, &request);
                trace.push(request);
                ctx
            };
            ctx.engine.drain_completions_into(&mut completions);
            for completion in completions.drain(..) {
                pool.resolve(&completion, completion.at_us);
            }
        }
        debug_assert!(pool.is_drained(), "every delivery resolves exactly once");
        let per_node = sim.finish();
        Ok(ClosedLoopReport {
            fabric: self.assemble_report(per_node, refunded_before, None),
            clients: pool.into_stats(),
            trace,
        })
    }

    /// Drive a closed-loop client population through the fabric's
    /// wall-clock backend: one OS thread per serving node (the same
    /// [`crate::exec`] workers behind the lock-free ingest queues) plus
    /// one client-shard thread per core (capped at the population size).
    /// Each shard owns a slice of the clients, pushes their arrivals
    /// into the home node's bounded queue — a full queue blocks the
    /// shard, which *is* the closed loop's backpressure — and blocks on
    /// its completion channel for the response leg. Think times and
    /// retry jitter draw from the same seeded streams as the
    /// deterministic driver; timings are real, so only conservation
    /// laws (not bit-parity) are guaranteed.
    pub fn run_closed_loop_wall(
        &mut self,
        plan: &ClientPlan,
        queue_capacity: usize,
    ) -> Result<ClosedLoopLiveReport, ServeError> {
        self.preflight()?;
        let refunded_before = self.refunded_total();
        let wall = WallClock::new();
        let start = std::time::Instant::now();

        let shards = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(plan.clients.len())
            .max(1);

        let (nodes, policy, routing) = self.split();
        let index = NodeIndex::new(nodes.iter().map(|n| n.id));
        let home_of = client_homes(plan, &routing, &index);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..shards).map(|_| mpsc::channel()).unzip();
        let live = LiveSetup {
            policy,
            mode: ExecMode::Wall,
            wall: &wall,
            control_tap: false,
            allow_panics: false,
            completions: Some(CompletionSink { senders }),
        };
        let (outcomes, shard_stats) = run_workers(nodes, queue_capacity, live, |queues| {
            // All shards done means no more pushes, ever: the harness then
            // closes the queues and the workers drain out.
            std::thread::scope(|s| {
                let shard_handles: Vec<_> = receivers
                    .into_iter()
                    .enumerate()
                    .map(|(shard, rx)| {
                        let (home_of, wall) = (&home_of, &wall);
                        s.spawn(move || {
                            client_shard(shard, shards, plan, home_of, queues, rx, wall)
                        })
                    })
                    .collect();
                shard_handles
                    .into_iter()
                    .map(|h| h.join().expect("client shards do not panic"))
                    .collect::<Vec<ClosedLoopStats>>()
            })
        });
        // A node worker that panicked under a closed loop is a bug, not a
        // modelled fault: re-raise it.
        let per_node = outcomes
            .into_iter()
            .map(|(id, outcome)| (id, outcome.unwrap_or_else(|p| std::panic::resume_unwind(p))))
            .collect();
        let mut stats = ClosedLoopStats::default();
        for shard in &shard_stats {
            stats.merge(shard);
        }
        stats.finalize();
        Ok(ClosedLoopLiveReport {
            fabric: self.assemble_report(per_node, refunded_before, None),
            clients: stats,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }
}

/// One wall-mode client shard: drives the clients `c` with
/// `c % shards == shard` against real time. Pushes block on full queues
/// (backpressure is the loop's pacing); completions arrive on `rx`.
fn client_shard(
    shard: usize,
    shards: usize,
    plan: &ClientPlan,
    home_of: &[usize],
    queues: &[IngestQueue<Ingest<'_>>],
    rx: mpsc::Receiver<Completion>,
    wall: &WallClock,
) -> ClosedLoopStats {
    /// Give outstanding work this long past its last sign of life before
    /// writing it off (a dead node's queue refuses pushes immediately;
    /// this guards the run against a wedged one).
    const GRACE_US: u64 = 2_000_000;
    let mut pool = ClientPool::new(plan, plan.retry.seed ^ shard as u64, |c| {
        c % shards == shard
    });
    let mut last_progress = wall.now_us();
    loop {
        // Deliver everything due: stamp the real push time (the worker
        // re-stamps at the gateway door) and push, blocking on full.
        let now = wall.now_us();
        while pool.next_issue_at().is_some_and(|at| at <= now) {
            let (client, request) = pool.pop_issue(wall.now_us()).expect("peeked");
            if !queues[home_of[client]].push(Ingest::Issued(Box::new(request))) {
                // The home node is gone: the request can never resolve.
                pool.write_off(client);
            }
            last_progress = wall.now_us();
        }
        if pool.is_drained() {
            break;
        }
        let until_next = pool
            .next_issue_at()
            .map_or(50_000, |at| at.saturating_sub(wall.now_us()))
            .clamp(1, 50_000);
        match rx.recv_timeout(Duration::from_micros(until_next)) {
            Ok(completion) => {
                last_progress = wall.now_us();
                pool.resolve(&completion, wall.now_us());
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if pool.next_issue_at().is_none()
                    && wall.now_us().saturating_sub(last_progress) > GRACE_US
                {
                    pool.write_off_outstanding();
                }
            }
            // Every worker exited: nothing outstanding can resolve.
            Err(mpsc::RecvTimeoutError::Disconnected) => pool.write_off_outstanding(),
        }
    }
    pool.into_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::loadgen::{LoadPlan, TenantSpec};
    use crate::testkit::{assert_conservation, test_fabric};

    fn tenants() -> Vec<TenantSpec> {
        (1..=4u32)
            .map(|id| TenantSpec {
                id,
                rate_rps: 0.0, // rate is the clients' business here
                model: if id % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: 50_000,
                deadline_us: 40_000,
            })
            .collect()
    }

    fn provisioned_fabric() -> ServeFabric {
        let cfg = FabricConfig {
            node_weights: vec![1.0, 1.0, 1.0],
            ..FabricConfig::default()
        };
        let mut fabric = test_fabric(&cfg, 24, 11);
        fabric.provision(&LoadPlan {
            tenants: tenants(),
            duration_us: 0,
            seed: 0,
            feature_dim: 0,
        });
        fabric
    }

    fn plan(seed: u64) -> ClientPlan {
        ClientPlan {
            clients: tenants()
                .into_iter()
                .flat_map(|t| {
                    (0..3).map(move |_| ClientSpec {
                        tenant: t.id,
                        model: t.model.clone(),
                        think_mean_us: 3_000.0,
                        deadline_us: t.deadline_us,
                    })
                })
                .collect(),
            duration_us: 300_000,
            seed,
            feature_dim: 0,
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn same_seed_same_trace_and_stats() {
        let a = provisioned_fabric()
            .run_closed_loop(&plan(9))
            .expect("closed loop runs");
        let b = provisioned_fabric()
            .run_closed_loop(&plan(9))
            .expect("closed loop runs");
        assert!(!a.trace.is_empty(), "clients issued work");
        assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.trace.iter().zip(&b.trace) {
            assert_eq!(
                (x.id, x.tenant, x.arrival_us, x.deadline_us),
                (y.id, y.tenant, y.arrival_us, y.deadline_us)
            );
        }
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.fabric, b.fabric);
    }

    #[test]
    fn different_seeds_differ() {
        let a = provisioned_fabric().run_closed_loop(&plan(9)).unwrap();
        let b = provisioned_fabric().run_closed_loop(&plan(10)).unwrap();
        assert_ne!(
            a.trace.iter().map(|r| r.arrival_us).collect::<Vec<_>>(),
            b.trace.iter().map(|r| r.arrival_us).collect::<Vec<_>>()
        );
    }

    #[test]
    fn trace_replays_bit_identically_through_open_loop() {
        let closed = provisioned_fabric().run_closed_loop(&plan(21)).unwrap();
        // The materialized trace is a valid arrival-ordered stream…
        for w in closed.trace.windows(2) {
            assert!(w[0].arrival_us <= w[1].arrival_us);
        }
        // …and replaying it open-loop on an identical fabric reproduces
        // the closed-loop run's fleet report bit-for-bit.
        let mut replay_fabric = provisioned_fabric();
        let replayed = replay_fabric.run(&closed.trace).expect("replay runs");
        assert_eq!(replayed, closed.fabric);
        // Supply side resolves every delivery exactly once…
        assert_eq!(
            closed.fabric.fleet.served + closed.fabric.fleet.shed_total,
            closed.clients.pushes(),
            "every push served or shed"
        );
        // …and the demand side resolves every first-attempt chain.
        assert_eq!(
            closed.clients.served + closed.clients.shed_final,
            closed.clients.issued,
            "every chain ends served or finally shed"
        );
        assert_eq!(closed.clients.lost, 0);
    }

    #[test]
    fn overload_produces_bounded_retries_deterministically() {
        // Tiny global pending cap: the population's zero think time slams
        // straight into Overload sheds, which are retryable.
        let build = || {
            let cfg = FabricConfig {
                node_weights: vec![1.0],
                serve: crate::sim::ServeConfig {
                    gateway: crate::gateway::GatewayConfig {
                        max_pending_per_tenant: 2,
                        max_total_pending: 2,
                    },
                    ..Default::default()
                },
                ..FabricConfig::default()
            };
            let mut fabric = test_fabric(&cfg, 8, 3);
            fabric.provision(&LoadPlan {
                tenants: tenants(),
                duration_us: 0,
                seed: 0,
                feature_dim: 0,
            });
            fabric
        };
        let mut p = plan(5);
        for c in &mut p.clients {
            c.think_mean_us = 0.0;
        }
        p.duration_us = 100_000;
        let a = build().run_closed_loop(&p).unwrap();
        let b = build().run_closed_loop(&p).unwrap();
        assert_eq!(a.clients, b.clients, "retry machinery is deterministic");
        assert!(
            a.clients.retries > 0,
            "overload must trigger retries: {:?}",
            a.clients
        );
        assert!(
            a.clients.retry_amplification() <= 1.0 + f64::from(RetryPolicy::default().max_attempts),
            "amplification bounded by the attempt cap"
        );
        assert_eq!(
            a.clients.served + a.clients.shed_final,
            a.clients.issued,
            "every chain resolves"
        );
    }

    #[test]
    fn wall_closed_loop_conserves() {
        let mut fabric = provisioned_fabric();
        let mut p = plan(7);
        p.duration_us = 150_000; // 150 ms of real time
        let live = fabric.run_closed_loop_wall(&p, 64).expect("wall run");
        let clients = &live.clients;
        assert!(clients.issued > 0, "clients issued work");
        assert_eq!(
            clients.served + clients.shed_final + clients.lost,
            clients.issued,
            "every chain resolves or is written off: {clients:?}"
        );
        assert_eq!(
            live.fabric.fleet.served + live.fabric.fleet.shed_total,
            clients.pushes(),
            "every accepted push served or shed"
        );
        assert_conservation(
            &fabric,
            &live.fabric,
            clients.pushes(),
            tenants().iter().map(|t| t.prepaid_queries).sum(),
        );
        assert!(live.wall_ms > 0.0);
    }

    #[test]
    fn stats_percentiles_and_amplification() {
        let mut s = ClosedLoopStats {
            issued: 10,
            retries: 5,
            ..Default::default()
        };
        s.latencies = vec![5, 1, 3, 2, 4];
        s.finalize();
        assert_eq!(s.latency_us(50.0), 3);
        assert_eq!(s.latency_us(99.0), 5);
        assert_eq!(s.latency_us(100.0), 5);
        assert!((s.retry_amplification() - 1.5).abs() < 1e-12);
        assert_eq!(ClosedLoopStats::default().latency_us(99.0), 0);
    }
}
