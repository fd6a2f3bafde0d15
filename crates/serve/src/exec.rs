//! The wall-clock concurrent serving backend.
//!
//! [`crate::ServeSim`] replays traffic on a virtual clock, single-
//! threaded. This module runs the *same* fabric for real: every
//! [`crate::FabricNode`] gets its own OS thread driving its gateway →
//! batcher → cache → device-router stack through the same crate-internal
//! serving engine as the simulator, fed by a bounded lock-free
//! [`IngestQueue`] per node (the fabric's ingest is sharded across nodes
//! — one producer, N independent consumers, no shared serving state).
//!
//! Two execution modes ([`ExecMode`]):
//!
//! * [`ExecMode::Replay`] — node threads consume as fast as the host
//!   allows, but every admission/flush/completion decision reads the
//!   *stream's* timestamps (logical time — [`crate::VirtualClock`]'s
//!   model). Because nodes share nothing and each node's event order is
//!   fixed by its own sub-stream's timestamps,
//!   the merged [`FabricReport`] is **bit-identical** to
//!   [`crate::ServeFabric::run`] on the same stream — the property
//!   `e17_live_serving` and the stress tests pin down. What the wall
//!   clock measures is the real pipeline: ingest routing, queue handoff,
//!   and N nodes working concurrently.
//! * [`ExecMode::Wall`] — the feeder paces arrivals against a shared
//!   [`WallClock`] and nodes stamp requests at the gateway door with real
//!   elapsed time; batch flush deadlines and completions fire via timed
//!   queue waits. Timing-dependent outcomes are no longer deterministic,
//!   but the conservation laws (served + shed = arrivals, refunds match
//!   downstream sheds, quota balances) still hold exactly.
//!
//! **Cross-node events** — scheduled migrations, injected crashes,
//! controller ticks — ride the same queues. The ingest feeder drives the
//! fabric's one `coordinator` state machine over a queued transport: each
//! protocol step is a control entry pushed *in stream position* onto the
//! target node's queue, so the node acts on it after exactly the prefix
//! of traffic the simulator's node would have seen, and replay-mode
//! records are bit-identical to [`crate::ServeFabric::run`]'s. Wall-mode
//! migrations additionally splice the tenant's not-yet-ingested arrivals
//! out of the source's [`IngestQueue`] ([`IngestQueue::splice`]) so even
//! queued-but-unseen work follows the account without dropping or
//! double-billing.

use crate::clock::{Clock, WallClock};
use crate::closedloop::CompletionSink;
use crate::coordinator::{NodeOp, NodeReply, Transport, Unreachable};
use crate::fabric::{FabricNode, FabricReport, NodeIndex, NodePolicy, ServeFabric};
use crate::request::{Request, TenantId};
use crate::shard::NodeId;
use crate::sim::{ServeEngine, ServePlane};
use crate::stats::ServeStats;
use crate::ServeError;
use crossbeam::queue::ArrayQueue;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How the live executor treats time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Deterministic threaded replay: every decision reads the stream's
    /// logical timestamps; results bit-identical to the simulator.
    Replay,
    /// Honest wall-clock serving: paced ingest, door-stamped arrivals,
    /// timed flushes. Deterministic only in its conservation laws.
    Wall,
}

/// Live-executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Time policy (see [`ExecMode`]).
    pub mode: ExecMode,
    /// Per-node ingest queue capacity; a full queue blocks the feeder
    /// (backpressure) rather than dropping or buffering unboundedly.
    pub queue_capacity: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            mode: ExecMode::Replay,
            queue_capacity: 1024,
        }
    }
}

/// A node worker that died for real — a panic in its serving loop (e.g.
/// an injected [`crate::FaultKind::DispatchPanic`]) — reported
/// structurally instead of poisoning the whole run. Unlike an injected
/// [`crate::FaultKind::Crash`] (a cooperative teardown that evacuates
/// accounts and refunds pending work), a genuine death takes its
/// un-evacuated state with it: the feeder keeps serving the surviving
/// nodes and counts what it could no longer deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFailure {
    /// The node whose worker died.
    pub node: NodeId,
    /// The panic payload, when it was a string (a placeholder otherwise).
    pub reason: String,
    /// Arrivals the feeder could not deliver after the worker died (its
    /// closed queue refused them).
    pub lost_requests: u64,
}

/// A [`FabricReport`] plus what only a live run can measure: real elapsed
/// time for the whole threaded pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveReport {
    /// The merged fleet report — in [`ExecMode::Replay`], bit-identical
    /// to the simulator's report for the same stream.
    pub fabric: FabricReport,
    /// Wall-clock time for feeder + all node threads, milliseconds.
    pub wall_ms: f64,
    /// Requests pushed through the ingest queues.
    pub requests: usize,
    /// Node workers that genuinely died (panicked) during the run, in
    /// node-id order. Empty on a healthy run — and always empty in the
    /// simulator, which has no workers to lose.
    pub failures: Vec<NodeFailure>,
}

impl LiveReport {
    /// Requests ingested per real (wall) second — the live analogue of
    /// the simulator's virtual-time throughput.
    #[must_use]
    pub fn wall_throughput_rps(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / (self.wall_ms / 1e3)
    }
}

/// What flows through a node's ingest queue: arrivals plus the control
/// entries of the cross-node protocol. Controls ride *in stream
/// position*, so a node thread executes them after exactly the same
/// prefix of its traffic as the simulator would — that positional
/// guarantee is what makes replay-mode migrations bit-identical.
///
/// A slot is two words. The feeder of a replayed stream runs far ahead
/// of the workers, so the ring (sized by the caller, up to the whole
/// stream) is the live backend's largest transient allocation: arrivals
/// are handed over by reference — the stream outlives the scoped workers
/// — and everything rarer is boxed, so the handoff allocates nothing per
/// request and the feeder never contends with a worker for the allocator.
pub(crate) enum Ingest<'s> {
    /// One routed request of the replayed stream.
    Arrival(&'s Request),
    /// One request a closed-loop client issued on the fly (there is no
    /// stream to borrow it from).
    Issued(Box<Request>),
    /// A control entry.
    Control(Box<Control>),
}

/// One step of the coordinator's protocol in a node's queue: the op, and
/// where to send the answer when the coordinating feeder waits for one.
pub(crate) struct Control {
    op: NodeOp,
    reply: Option<mpsc::Sender<NodeReply>>,
}

// The ring allocates `capacity` slots of this size up front.
const _: () = assert!(std::mem::size_of::<Ingest>() <= 16);

/// Result of a queue pop with an optional timer deadline.
enum Popped<T> {
    /// An item arrived.
    Item(T),
    /// The requested deadline passed with no arrival.
    TimerDue,
    /// Queue closed and drained: no more items, ever.
    Closed,
}

/// A bounded MPSC FIFO between the ingest feeder and one node thread.
///
/// The hot path is lock-free: items ride a Vyukov-style bounded ring
/// ([`crossbeam::queue::ArrayQueue`]) and a push/pop pair that finds the
/// ring non-full/non-empty never touches a lock. The mutex + condvars
/// exist only to park a producer against a full ring (backpressure: a
/// slow node stalls its producer instead of hiding behind RAM) or a
/// consumer against an empty one; sleepers register in counters behind
/// `SeqCst` fences (Dekker-style), so the waking side skips the lock
/// entirely while nobody sleeps. opsbench's `exec.handoff_ns` row
/// measures the handoff per request.
///
/// Closing has two flavors with different race disciplines:
///
/// * [`IngestQueue::close`] is called by the *sole producer* after its
///   last push (program order), so consumers drain everything that was
///   accepted and then see `Closed`.
/// * [`IngestQueue::close_and_clear`] is the consumer-death path and
///   *may* race an in-flight push. Both sides re-drain the ring after
///   flagging (`SeqCst` fences on both sides guarantee at least one of
///   them sees the item), so a buffered control entry's reply channel
///   can never be stranded in a ring nobody will ever pop — the feeder
///   deadlock this guards against has a regression test
///   (`close_and_clear_releases_concurrently_pushed_reply_channels`).
pub struct IngestQueue<T> {
    ring: ArrayQueue<T>,
    /// No more pushes are accepted; buffered items still drain.
    closed: AtomicBool,
    /// The consumer is gone for good: buffered items are dropped rather
    /// than drained. Set only by `close_and_clear`, always with `closed`.
    cleared: AtomicBool,
    /// Producer-wake hysteresis: the consumer only pays the wake fence
    /// (and possibly the lock) when a pop leaves at most this many items
    /// buffered. A producer parked against a full ring is therefore woken
    /// once per *half-drain*, not once per pop; liveness holds because
    /// the pop that empties the ring always passes this mark (len 0), so
    /// the two sides can never both sleep.
    wake_mark: usize,
    /// Parking lot for both sides' slow paths (never held on a hot path).
    park: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
    sleeping_consumers: AtomicUsize,
    sleeping_producers: AtomicUsize,
    /// One-shot wake latches: set when a hot-path wake is delivered,
    /// cleared by the sleeper under `park` — the consumer before every
    /// emptiness (re-)check, the producer as it leaves its wait loop (the
    /// pop that empties the ring wakes it unconditionally). While set, a
    /// wakeup is already in flight to a registered sleeper (condvars do
    /// not lose notifications delivered to a waiter), so further hot-path
    /// ops skip the lock + notify entirely — on a single core the woken
    /// thread may not be scheduled for a while, and without the latch
    /// every op in that window would pay the full notify cost. The
    /// close/clear/splice paths and the consumer's empty-transition wake
    /// bypass the latches (they always lock + notify).
    consumer_wake_pending: AtomicBool,
    producer_wake_pending: AtomicBool,
}

impl<T> IngestQueue<T> {
    /// A queue holding at most `capacity` items.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        IngestQueue {
            ring: ArrayQueue::new(capacity),
            closed: AtomicBool::new(false),
            cleared: AtomicBool::new(false),
            wake_mark: capacity / 2,
            park: Mutex::new(()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            sleeping_consumers: AtomicUsize::new(0),
            sleeping_producers: AtomicUsize::new(0),
            consumer_wake_pending: AtomicBool::new(false),
            producer_wake_pending: AtomicBool::new(false),
        }
    }

    /// Enqueue, blocking while the queue is full. Returns `false` (and
    /// drops the item) iff the queue is closed.
    pub fn push(&self, item: T) -> bool {
        if self.closed.load(Ordering::SeqCst) {
            return false;
        }
        let mut item = item;
        loop {
            match self.ring.push(item) {
                Ok(()) => break,
                Err(back) => {
                    item = back;
                    // Full: park until a pop frees a slot or the queue
                    // closes. Register first, then re-check under the
                    // lock — `wake_producers` only locks when the
                    // counter is non-zero, and only notifies while
                    // holding `park`, so the re-check cannot miss it.
                    let mut guard = self.park.lock().unwrap();
                    self.sleeping_producers.fetch_add(1, Ordering::SeqCst);
                    fence(Ordering::SeqCst);
                    while self.ring.is_full() && !self.closed.load(Ordering::SeqCst) {
                        guard = self.not_full.wait(guard).unwrap();
                    }
                    self.sleeping_producers.fetch_sub(1, Ordering::SeqCst);
                    self.producer_wake_pending.store(false, Ordering::Relaxed);
                    drop(guard);
                    if self.closed.load(Ordering::SeqCst) {
                        return false;
                    }
                }
            }
        }
        // The push landed. One fence covers both post-push checks. First:
        // if the consumer died while the push was in flight,
        // `close_and_clear`'s drain may have run *before* the slot was
        // visible — drain again here so nothing (in particular a
        // migration drain's reply channel) is stranded (the paired
        // `SeqCst` fences guarantee this thread sees `cleared` or the
        // clearing thread's drain sees the item; a double drain is
        // harmless). Second: the Dekker pairing with `pop_inner`'s
        // sleeper registration — either this load sees the sleeping
        // consumer, or the registering consumer's re-check sees the item.
        fence(Ordering::SeqCst);
        if self.cleared.load(Ordering::Relaxed) {
            while self.ring.pop().is_some() {}
            return false;
        }
        if self.sleeping_consumers.load(Ordering::Relaxed) > 0
            && !self.consumer_wake_pending.load(Ordering::Relaxed)
        {
            let _guard = self.park.lock().unwrap();
            // Latch under the lock: registration, deregistration and the
            // sleeper's latch-clear all happen under `park`, so a latch
            // set here is provably paired with a delivered notification.
            if self.sleeping_consumers.load(Ordering::Relaxed) > 0 {
                self.consumer_wake_pending.store(true, Ordering::Relaxed);
                self.not_empty.notify_all();
            }
        }
        true
    }

    /// Dequeue, blocking until an item arrives or the queue closes.
    pub fn pop(&self) -> Option<T> {
        match self.pop_inner(None, None) {
            Popped::Item(r) => Some(r),
            Popped::Closed => None,
            Popped::TimerDue => unreachable!("no deadline was set"),
        }
    }

    /// Dequeue, or give up once `wall` reaches `deadline_us` (used by
    /// wall-mode nodes to wake for due batch flushes and completions).
    fn pop_until(&self, deadline_us: Option<u64>, wall: &WallClock) -> Popped<T> {
        self.pop_inner(deadline_us, Some(wall))
    }

    fn pop_inner(&self, deadline_us: Option<u64>, wall: Option<&WallClock>) -> Popped<T> {
        loop {
            if let Some(item) = self.ring.pop() {
                // Hysteresis: skip the wake fence entirely while the ring
                // is more than half full — a parked producer can wait for
                // the half-drain; the pop that empties the ring always
                // reaches this mark, so both sides can never sleep at
                // once. (`len` is racy under concurrent pushes, but a
                // stale-high read only defers the wake to a later pop.)
                let left = self.ring.len();
                if left == 0 {
                    // The pop that empties the ring always issues the
                    // fenced wake — this is the liveness backstop that
                    // bypasses the latch below.
                    self.wake_producers();
                } else if left <= self.wake_mark
                    && self.sleeping_producers.load(Ordering::Relaxed) > 0
                    && !self.producer_wake_pending.load(Ordering::Relaxed)
                {
                    let _guard = self.park.lock().unwrap();
                    // Latch under the lock (see `push` for the pairing
                    // argument): a set latch implies the notification
                    // reached a registered waiter, which clears it on
                    // leaving its wait loop.
                    if self.sleeping_producers.load(Ordering::Relaxed) > 0 {
                        self.producer_wake_pending.store(true, Ordering::Relaxed);
                        self.not_full.notify_all();
                    }
                }
                return Popped::Item(item);
            }
            if self.cleared.load(Ordering::SeqCst) {
                return Popped::Closed;
            }
            if self.closed.load(Ordering::SeqCst) {
                // `close` may have raced our first (empty) pop against
                // the producer's final pushes. Observing `closed` orders
                // us after everything pushed before it, so one more
                // drain pass sees any stragglers; the next call keeps
                // draining until the ring is genuinely empty.
                return match self.ring.pop() {
                    Some(item) => {
                        self.wake_producers();
                        Popped::Item(item)
                    }
                    None => Popped::Closed,
                };
            }
            // Empty and open: park until a push or close. Same
            // register-then-recheck discipline as the producer side.
            let mut guard = self.park.lock().unwrap();
            self.sleeping_consumers.fetch_add(1, Ordering::SeqCst);
            loop {
                // Re-arm the wake latch before *every* emptiness check, not
                // just on leaving: a notify can land on a ring this thread
                // already drained (the producer read the sleeper counter,
                // then lost the race for `park` to a pop-and-re-park), and
                // a latch left set across the re-wait would make every
                // later push skip its notify — ring fills, both sides
                // sleep for good. Clear-then-fence-then-check is the
                // Dekker pairing with `push` (ring write, fence, latch
                // read): either the check sees the item, or the push sees
                // the latch clear and takes the lock to notify. The same
                // fence orders the sleeper registration above.
                self.consumer_wake_pending.store(false, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if !self.ring.is_empty() || self.closed.load(Ordering::SeqCst) {
                    break;
                }
                match (deadline_us, wall) {
                    (Some(t), Some(wall)) => {
                        let now = wall.now_us();
                        if now >= t {
                            self.sleeping_consumers.fetch_sub(1, Ordering::SeqCst);
                            return Popped::TimerDue;
                        }
                        let (g, _) = self
                            .not_empty
                            .wait_timeout(guard, Duration::from_micros(t - now))
                            .unwrap();
                        guard = g;
                    }
                    _ => guard = self.not_empty.wait(guard).unwrap(),
                }
            }
            // The latch is clear here: it was cleared above under `park`,
            // and `push` only sets it under `park` while a sleeper is
            // registered — this thread has held the lock since.
            self.sleeping_consumers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Close the queue: pending items still drain, then pops return
    /// `Closed` and pushes are refused. Producer-side close — call it
    /// only after the last push (program order), as the feeder does.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.park.lock().unwrap();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Close *and drop* everything still buffered. Used when this queue's
    /// consumer is gone for good (node worker errored or panicked):
    /// buffered items can never be processed, and dropping them releases
    /// whatever they carry — in particular a buffered migration drain's
    /// reply channel, which unblocks the coordinating feeder. Safe
    /// against concurrent pushes: see the fence pairing in [`Self::push`].
    pub fn close_and_clear(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.cleared.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while self.ring.pop().is_some() {}
        let _guard = self.park.lock().unwrap();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Remove and return every buffered item matching `pred`, preserving
    /// order among both the spliced and the survivors. The wall-mode
    /// migration path uses this to pull a draining tenant's
    /// not-yet-ingested arrivals out of the source node's queue so they
    /// can follow the account to its new home instead of being served by
    /// (or lost with) the old one.
    ///
    /// Must be called from the producer thread (the feeder both pushes
    /// and splices, so no push can race the drain-and-repush); the
    /// consumer may pop concurrently — items it wins were simply
    /// ingested before the splice, exactly as under the old lock.
    pub fn splice(&self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut drained = Vec::new();
        while let Some(item) = self.ring.pop() {
            drained.push(item);
        }
        let mut spliced = Vec::new();
        for item in drained {
            if pred(&item) {
                spliced.push(item);
            } else {
                // Cannot fail: the drain freed at least as many slots as
                // there are survivors and no other producer exists.
                let mut item = item;
                while let Err(back) = self.ring.push(item) {
                    item = back;
                    std::thread::yield_now();
                }
            }
        }
        self.wake_consumers();
        if !spliced.is_empty() {
            self.wake_producers();
        }
        spliced
    }

    /// Items currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Wake a parked consumer, if any. The fence pairs with the one in
    /// `pop_inner`'s registration: either this thread sees the sleeper
    /// counter, or the registering consumer's re-check sees the item.
    fn wake_consumers(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping_consumers.load(Ordering::Relaxed) > 0 {
            let _guard = self.park.lock().unwrap();
            self.not_empty.notify_all();
        }
    }

    /// Wake a parked producer, if any (mirror of [`Self::wake_consumers`]).
    fn wake_producers(&self) {
        fence(Ordering::SeqCst);
        if self.sleeping_producers.load(Ordering::Relaxed) > 0 {
            let _guard = self.park.lock().unwrap();
            self.not_full.notify_all();
        }
    }
}

/// Closes a node's ingest queue when its worker exits — normally a no-op
/// (the feeder closed it first and the queue is empty), but on an early
/// error return or a panic it flips the queue to refuse further pushes
/// and drops whatever is buffered, so the bounded feeder cannot block
/// forever against a consumer that will never drain it and a buffered
/// drain control's reply channel is released.
struct CloseOnExit<'a, T>(&'a IngestQueue<T>);

impl<T> Drop for CloseOnExit<'_, T> {
    fn drop(&mut self) {
        self.0.close_and_clear();
    }
}

/// What a live run arms on every node worker.
#[derive(Clone)]
pub(crate) struct LiveSetup<'a> {
    /// The fabric's per-node policy (engine config, observer, faults).
    pub(crate) policy: NodePolicy<'a>,
    /// Time policy.
    pub(crate) mode: ExecMode,
    /// The run's shared wall clock.
    pub(crate) wall: &'a WallClock,
    /// Arm the control tap (the run's coordinator ticks a controller).
    pub(crate) control_tap: bool,
    /// Arm `DispatchPanic` events — the genuine-death path the simulator
    /// cannot model.
    pub(crate) allow_panics: bool,
    /// Arm the completion tap and forward every resolution (served, shed,
    /// failover) as it happens — the response leg of the closed-loop
    /// drivers ([`crate::closedloop`]). The tap is pure observation, so a
    /// sink never changes a serving decision.
    pub(crate) completions: Option<CompletionSink>,
}

/// One node thread: drain the ingest queue through the shared engine.
/// Returns honest statistics even when the node is torn down mid-run by
/// an injected crash (the evacuation resolves everything it owed first);
/// only a genuine panic loses state.
fn node_worker(
    node: &mut FabricNode,
    queue: &IngestQueue<Ingest<'_>>,
    live: LiveSetup<'_>,
) -> ServeStats {
    let _close_guard = CloseOnExit(queue);
    let LiveSetup {
        policy,
        mode,
        wall,
        control_tap,
        allow_panics,
        completions,
    } = live;
    let plane = &mut node.plane;
    let mut engine = policy.engine(node.id, &node.telemetry, allow_panics);
    engine.set_control_tap(control_tap);
    engine.set_completion_tap(completions.is_some());
    let mut drained = Vec::new();
    let mut flush = |engine: &mut ServeEngine<'_>| {
        if let Some(sink) = &completions {
            engine.drain_completions_into(&mut drained);
            for completion in drained.drain(..) {
                sink.forward(completion);
            }
        }
    };
    // Replay reads the stream's own timestamps; wall mode stamps the
    // request at the gateway door, so latency and batch deadlines measure
    // real elapsed time from here.
    let arrive = |engine: &mut ServeEngine<'_>, plane: &mut ServePlane, request: &Request| {
        engine.run_timers_through(plane, request.arrival_us, true);
        let _ = engine.on_arrival(plane, request);
    };
    let door_stamped = |mut request: Request| {
        request.arrival_us = wall.now_us();
        request
    };
    // A control's logical instant in replay mode, the real one in wall mode.
    let at = |logical_us: u64| match mode {
        ExecMode::Replay => logical_us,
        ExecMode::Wall => wall.now_us(),
    };
    // `true` keeps the loop running; `false` means the node just crashed
    // (cooperatively) and the worker must exit with what it has.
    let handle = |engine: &mut ServeEngine<'_>, plane: &mut ServePlane, item: Ingest<'_>| -> bool {
        match (item, mode) {
            (Ingest::Arrival(request), ExecMode::Replay) => arrive(engine, plane, request),
            (Ingest::Arrival(request), ExecMode::Wall) => {
                arrive(engine, plane, &door_stamped(request.clone()));
            }
            (Ingest::Issued(request), ExecMode::Replay) => arrive(engine, plane, &request),
            (Ingest::Issued(request), ExecMode::Wall) => {
                arrive(engine, plane, &door_stamped(*request));
            }
            (Ingest::Control(control), _) => {
                let Control { op, reply } = *control;
                let crashed = matches!(op, NodeOp::Crash { .. });
                let answer = op.apply(engine, plane, at);
                if let Some(reply) = reply {
                    // A closed reply channel means the feeder gave up
                    // (its own error path); the drop is safe either way.
                    let _ = reply.send(answer);
                }
                return !crashed;
            }
        }
        true
    };
    loop {
        // Only wall mode wakes for due flushes and completions; replay
        // runs its timers off the stream's own timestamps.
        let wake_at = match mode {
            ExecMode::Replay => None,
            ExecMode::Wall => engine.next_timer_us(),
        };
        match queue.pop_until(wake_at, wall) {
            Popped::Item(item) => {
                let keep_going = handle(&mut engine, plane, item);
                flush(&mut engine);
                if !keep_going {
                    break;
                }
            }
            Popped::TimerDue => {
                engine.run_timers_through(plane, wall.now_us(), true);
                flush(&mut engine);
            }
            Popped::Closed => break,
        }
    }
    if completions.is_some() {
        // Resolve everything still queued or in flight *before* the
        // engine is consumed, so the tap observes the final drain too
        // (`finish` below then finds nothing left to do).
        engine.run_timers_through(plane, u64::MAX, false);
        flush(&mut engine);
    }
    engine.finish(plane)
}

/// The live harness, shared by [`ServeFabric::run_live`] and
/// [`ServeFabric::run_closed_loop_wall`]: one bounded ingest queue and one
/// scoped worker thread per node, `drive` feeding the queues from the
/// calling thread, then close-all and join. Returns each node's join
/// outcome (`Err` carries a worker's panic payload — what to do with a
/// dead worker is the caller's policy) next to what `drive` returned.
/// Call only after [`ServeFabric::preflight`] passed.
pub(crate) fn run_workers<'s, R>(
    nodes: &mut [FabricNode],
    queue_capacity: usize,
    live: LiveSetup<'_>,
    drive: impl FnOnce(&[IngestQueue<Ingest<'s>>]) -> R,
) -> (Vec<(NodeId, std::thread::Result<ServeStats>)>, R) {
    let queues: Vec<IngestQueue<Ingest<'s>>> = nodes
        .iter()
        .map(|_| IngestQueue::new(queue_capacity))
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .iter_mut()
            .zip(&queues)
            .map(|(node, queue)| {
                let live = live.clone();
                (node.id, s.spawn(move || node_worker(node, queue, live)))
            })
            .collect();
        // The harness's copy of the completion senders goes here, so a
        // closed-loop shard's receiver disconnects once every worker exits.
        drop(live);
        let driven = drive(&queues);
        for queue in &queues {
            queue.close();
        }
        let outcomes = handles
            .into_iter()
            .map(|(id, handle)| (id, handle.join()))
            .collect();
        (outcomes, driven)
    })
}

/// The threaded backend's transport: an op is a boxed [`Control`] pushed
/// onto the node's ingest queue. A refused push means the worker already
/// exited (error or panic closed its queue); a dropped reply channel
/// means it died between accepting the control and answering. Either way
/// the node's failure surfaces after the join.
struct Queued<'q, 's> {
    queues: &'q [IngestQueue<Ingest<'s>>],
    index: &'q NodeIndex,
    mode: ExecMode,
    /// Wall mode: arrivals spliced out of a draining source's queue,
    /// waiting for the account to land on its new home.
    held: Vec<Ingest<'s>>,
}

impl Queued<'_, '_> {
    fn push(&self, node: NodeId, op: NodeOp, reply: Option<mpsc::Sender<NodeReply>>) -> bool {
        let control = Box::new(Control { op, reply });
        self.queues[self.index[node]].push(Ingest::Control(control))
    }
}

impl Transport for Queued<'_, '_> {
    fn call(&mut self, node: NodeId, op: NodeOp) -> Result<NodeReply, Unreachable> {
        let (reply, answer) = mpsc::channel();
        if !self.push(node, op, Some(reply)) {
            return Err(Unreachable::Refused);
        }
        answer.recv().map_err(|_| Unreachable::ReplyDropped)
    }

    fn post(&mut self, node: NodeId, op: NodeOp) -> bool {
        self.push(node, op, None)
    }

    fn hold_queued(&mut self, tenant: TenantId, from: NodeId) {
        // Replay keeps them — the simulator's node already owns them.
        if self.mode == ExecMode::Wall {
            self.held = self.queues[self.index[from]]
                .splice(|i| matches!(i, Ingest::Arrival(r) if r.tenant == tenant));
        }
    }

    fn release_held(&mut self, to: NodeId) -> usize {
        let moved = self.held.len();
        for item in self.held.drain(..) {
            let _ = self.queues[self.index[to]].push(item);
        }
        moved
    }
}

impl ServeFabric {
    /// Run an arrival-ordered stream through the fabric's wall-clock
    /// backend: one OS thread per node behind bounded ingest queues. The
    /// calling thread is the ingest feeder: it routes each request to its
    /// tenant's home node (same placement as [`ServeFabric::run`]) and
    /// pushes it onto that node's queue, pacing against the wall clock in
    /// [`ExecMode::Wall`], and fires the run's cross-node events —
    /// scheduled migrations ([`ServeFabric::schedule_migrations`]),
    /// injected crashes, controller ticks — at their stream positions. In
    /// [`ExecMode::Replay`] the returned fleet report, migration records
    /// included, is bit-identical to [`ServeFabric::run`] on the same
    /// stream; the wall-clock side of the [`LiveReport`] measures the real
    /// threaded pipeline.
    pub fn run_live(
        &mut self,
        stream: &[Request],
        cfg: &ExecConfig,
    ) -> Result<LiveReport, ServeError> {
        self.preflight()?;
        let refunded_before = self.refunded_total();
        let mode = cfg.mode;
        let wall = WallClock::new();
        let start = Instant::now();
        let (nodes, policy, mut coordinator) = self.arm_coordinator();
        let index = NodeIndex::new(nodes.iter().map(|n| n.id));
        let mut lost = vec![0u64; nodes.len()];
        let live = LiveSetup {
            policy,
            mode,
            wall: &wall,
            control_tap: coordinator.samples_nodes(),
            allow_panics: true,
            completions: None,
        };
        let (outcomes, ()) = run_workers(nodes, cfg.queue_capacity, live, |queues| {
            let mut transport = Queued {
                queues,
                index: &index,
                mode,
                held: Vec::new(),
            };
            for request in stream {
                if coordinator.next_due_us() <= request.arrival_us {
                    coordinator.fire_due(request.arrival_us, &mut transport);
                }
                // Route at ingest time, in arrival order.
                let home = index[coordinator.home_of(request)];
                if mode == ExecMode::Wall {
                    wall.advance_to(request.arrival_us);
                }
                // A `false` return means the node worker panicked and
                // closed its queue; keep feeding the healthy nodes — the
                // dead node's result surfaces after the join, with the
                // undeliverable count attached.
                if !queues[home].push(Ingest::Arrival(request)) {
                    lost[home] += 1;
                }
            }
            let end_us = stream.last().map_or(0, |r| r.arrival_us);
            coordinator.finish_stream(end_us, &mut transport);
        });

        let mut per_node = Vec::with_capacity(outcomes.len());
        let mut failures = Vec::new();
        for ((id, outcome), lost_requests) in outcomes.into_iter().zip(lost) {
            let stats = outcome.unwrap_or_else(|panic| {
                // A genuinely dead worker: report it structurally instead
                // of poisoning the run. Its un-evacuated state is gone;
                // the surviving nodes' merged report remains exact for
                // their own traffic.
                let reason = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "node worker panicked".to_string());
                failures.push(NodeFailure {
                    node: id,
                    reason,
                    lost_requests,
                });
                ServeStats::default()
            });
            per_node.push((id, stats));
        }
        let log = coordinator.finish();
        Ok(LiveReport {
            fabric: self.assemble_report(per_node, refunded_before, Some(log)),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            requests: stream.len(),
            failures,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::Coordinator;
    use crate::fabric::MigrationSpec;
    use crate::fault::FaultPlan;
    use crate::request::{Completion, Disposition};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn req(id: u64, arrival_us: u64) -> Request {
        Request {
            id,
            tenant: 1,
            model: "m".into(),
            arrival_us,
            deadline_us: 10_000,
            features: None,
        }
    }

    #[test]
    fn queue_is_fifo_across_threads() {
        let q = IngestQueue::new(8);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..1000 {
                    assert!(q.push(req(i, i * 10)));
                }
                q.close();
            });
            let mut expected = 0;
            while let Some(r) = q.pop() {
                assert_eq!(r.id, expected, "FIFO order preserved");
                expected += 1;
            }
            assert_eq!(expected, 1000);
        });
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let q = IngestQueue::new(4);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Slow consumer: the producer must block at capacity, not
                // buffer all 64 requests.
                while q.pop().is_some() {
                    popped.fetch_add(1, Ordering::Relaxed);
                    assert!(q.len() <= 4, "capacity bound holds");
                    std::thread::yield_now();
                }
            });
            for i in 0..64 {
                assert!(q.push(req(i, 0)));
            }
            q.close();
        });
        assert_eq!(popped.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn closed_queue_drains_then_refuses() {
        let q = IngestQueue::new(8);
        assert!(q.push(req(0, 0)));
        q.close();
        assert!(!q.push(req(1, 1)), "closed queue refuses pushes");
        assert!(q.pop().is_some(), "buffered item still drains");
        assert!(q.pop().is_none(), "then the queue reports closed");
    }

    #[test]
    fn close_and_clear_drops_buffered_items() {
        let q = IngestQueue::new(8);
        assert!(q.push(req(0, 0)));
        assert!(q.push(req(1, 1)));
        q.close_and_clear();
        assert!(q.pop().is_none(), "cleared queue has nothing to drain");
        assert!(!q.push(req(2, 2)));
    }

    #[test]
    fn close_and_clear_releases_concurrently_pushed_reply_channels() {
        // Regression: a control entry (here modeled by its reply Sender)
        // pushed concurrently with the dying worker's `close_and_clear`
        // must never be stranded in the ring — the dropped Sender is what
        // unblocks a feeder waiting on `rx.recv()`. Without the post-push
        // `cleared` re-drain in `push`, the worker's drain can complete
        // before the slot becomes visible and the item (plus its reply
        // channel) leaks into a ring nobody will ever pop.
        for _ in 0..500 {
            let q: IngestQueue<mpsc::Sender<()>> = IngestQueue::new(4);
            let (tx, rx) = mpsc::channel::<()>();
            std::thread::scope(|s| {
                s.spawn(|| q.close_and_clear());
                // Whether the push wins or loses the race, the Sender
                // must be dropped by one of the two drains.
                let _ = q.push(tx);
            });
            assert_eq!(q.len(), 0, "nothing may survive the clear");
            assert!(
                matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)),
                "the buffered reply channel must be released, not stranded"
            );
        }
    }

    #[test]
    fn late_notify_on_drained_ring_does_not_strand_the_latch() {
        // Regression for the lost wakeup that deadlocked live runs: a
        // consumer woken onto an empty ring must not re-wait with
        // `consumer_wake_pending` still set, or every later push skips
        // its notify. The interleaving, step by step: register sleeper →
        // push → pop → re-park → late notify → push must still wake. The
        // late notify is the tail of the first push, played by hand (the
        // feeder read `sleeping_consumers > 0`, then lost the race for
        // `park` to the consumer's pop-and-re-park).
        let q: IngestQueue<u64> = IngestQueue::new(4);
        // Registration and `wait` share one `park` critical section, so a
        // registered sleeper seen under the lock is waiting.
        fn parked(q: &IngestQueue<u64>) -> std::sync::MutexGuard<'_, ()> {
            loop {
                let guard = q.park.lock().unwrap();
                if q.sleeping_consumers.load(Ordering::SeqCst) == 1 {
                    return guard;
                }
                drop(guard);
                std::thread::yield_now();
            }
        }
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                while let Some(item) = q.pop() {
                    tx.send(item).unwrap();
                }
            });
            drop(parked(&q));
            assert!(q.push(1));
            assert_eq!(rx.recv().unwrap(), 1);
            {
                let _guard = parked(&q);
                q.consumer_wake_pending.store(true, Ordering::Relaxed);
                q.not_empty.notify_all();
            }
            // The consumer wakes, finds nothing, and waits again. Its
            // re-armed latch is the only observable edge of that re-wait;
            // a consumer that never re-arms (the bug) runs the wait out
            // and then fails deterministically below.
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            while q.consumer_wake_pending.load(Ordering::Relaxed)
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            assert!(q.push(2));
            let woke = rx.recv_timeout(Duration::from_secs(10));
            q.close(); // releases the consumer either way, so the scope joins
            assert_eq!(woke, Ok(2), "push after a stale wake latch woke nobody");
        });
    }

    #[test]
    fn splice_extracts_matching_items_in_order() {
        let q = IngestQueue::new(16);
        for i in 0..10 {
            assert!(q.push(req(i, i)));
        }
        let odd = q.splice(|r| r.id % 2 == 1);
        assert_eq!(
            odd.iter().map(|r| r.id).collect::<Vec<_>>(),
            [1, 3, 5, 7, 9]
        );
        q.close();
        let mut survivors = Vec::new();
        while let Some(r) = q.pop() {
            survivors.push(r.id);
        }
        assert_eq!(survivors, [0, 2, 4, 6, 8], "survivors keep their order");
    }

    #[test]
    fn splice_unblocks_a_full_queue_producer() {
        let q = IngestQueue::new(2);
        assert!(q.push(req(0, 0)));
        assert!(q.push(req(1, 1)));
        std::thread::scope(|s| {
            s.spawn(|| {
                // Queue is full: this blocks until the splice frees a slot.
                assert!(q.push(req(2, 2)));
            });
            std::thread::yield_now();
            let spliced = q.splice(|r| r.id == 0);
            assert_eq!(spliced.len(), 1);
        });
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_until_times_out_for_due_timers() {
        let q: IngestQueue<Request> = IngestQueue::new(8);
        let wall = WallClock::new();
        let due = wall.now_us() + 2_000;
        match q.pop_until(Some(due), &wall) {
            Popped::TimerDue => assert!(wall.now_us() >= due, "woke at or after the deadline"),
            _ => panic!("empty queue with a deadline must report TimerDue"),
        }
    }

    // ---- the sinks agree ------------------------------------------------

    /// Everything one fully tapped run recorded, per sink.
    struct Tapped {
        report: crate::FabricReport,
        completions: Vec<Completion>,
        /// One end-of-run control sample per node that could still answer.
        samples: Vec<(NodeId, crate::ControlSample)>,
    }

    /// Admission sheds, deadline expiry, no-route, a crash whose victim
    /// holds an orphan, and plenty served — on three nodes.
    fn eventful() -> (crate::FabricConfig, crate::LoadPlan, Vec<Request>) {
        use crate::{FaultEvent, FaultKind, LoadPlan, TenantSpec};
        let cfg = crate::FabricConfig {
            serve: crate::ServeConfig {
                gateway: crate::GatewayConfig {
                    max_pending_per_tenant: 8,
                    max_total_pending: 24,
                },
                ..Default::default()
            },
            observe: crate::ObserveConfig {
                trace_capacity: 1 << 18, // the ring must hold the whole run
                ..crate::ObserveConfig::enabled()
            },
            fault: FaultPlan::with_events(vec![FaultEvent {
                node: 1,
                at_us: 400_000,
                kind: FaultKind::Crash,
            }]),
            ..Default::default()
        };
        let tenant =
            |id: u32, rate_rps: f64, model: &str, prepaid: u64, deadline_us: u64| TenantSpec {
                id,
                rate_rps,
                model: model.into(),
                prepaid_queries: prepaid,
                deadline_us,
            };
        let mut tenants: Vec<TenantSpec> = (1..=12)
            .map(|id| {
                let model = if id % 2 == 0 { "vision" } else { "kws" };
                tenant(
                    id,
                    if id == 1 { 1_500.0 } else { 650.0 },
                    model,
                    1_000_000,
                    200_000,
                )
            })
            .collect();
        tenants[4].prepaid_queries = 60; // runs dry: quota denials
        tenants.push(tenant(13, 80.0, "ghost", 1_000, 200_000)); // no variant: no route
        tenants.push(tenant(14, 80.0, "lonely", 1_000, 1_000)); // dies waiting for a batch
        let plan = LoadPlan {
            tenants,
            duration_us: 1_000_000,
            seed: 23,
            feature_dim: 0,
        };
        let stream = plan.generate();
        (cfg, plan, stream)
    }

    fn eventful_fabric(cfg: &crate::FabricConfig, plan: &crate::LoadPlan) -> ServeFabric {
        let mut fabric = crate::testkit::test_fabric(cfg, 30, 5);
        fabric.install_family("ghost", Vec::new());
        fabric.install_family("lonely", crate::testkit::test_family("lonely", 200));
        fabric.provision(plan);
        // Move two tenants off the doomed node a moment before it dies:
        // their dispatched work stays behind and is orphaned by the crash.
        let specs: Vec<MigrationSpec> = (1..=12)
            .filter(|t| fabric.home_node(*t) == Some(1))
            .take(2)
            .enumerate()
            .map(|(i, tenant)| MigrationSpec {
                tenant,
                to: if i == 0 { 0 } else { 2 },
                trigger_us: 399_000 + i as u64 * 900,
            })
            .collect();
        assert_eq!(specs.len(), 2, "node 1 homes at least two tenants");
        fabric.schedule_migrations(&specs).expect("valid specs");
        fabric
    }

    /// What a tapped run does after the stream on either transport: fire
    /// late triggers, then sample the surviving nodes at the end of time
    /// (which also runs their remaining timers, as `finish` would).
    fn wind_down<T: Transport>(
        coordinator: &mut Coordinator<'_>,
        t: &mut T,
        end_us: u64,
    ) -> Vec<(NodeId, crate::ControlSample)> {
        coordinator.finish_stream(end_us, t);
        [0, 2]
            .into_iter()
            .map(
                |node| match t.call(node, NodeOp::Sample { at_us: u64::MAX }) {
                    Ok(NodeReply::Sampled(sample)) => (node, sample),
                    _ => panic!("node {node} outlives the run"),
                },
            )
            .collect()
    }

    /// The simulator with every sink armed: observer and telemetry from
    /// the config, control and completion taps by hand.
    fn tapped_sim(fabric: &mut ServeFabric, stream: &[Request]) -> Tapped {
        let refunded_before = fabric.refunded_total();
        let (nodes, policy, mut coordinator) = fabric.arm_coordinator();
        let mut sim = crate::fabric::SimNodes::arm(nodes, policy, |engine| {
            engine.set_control_tap(true);
            engine.set_completion_tap(true);
        });
        for request in stream {
            if coordinator.next_due_us() <= request.arrival_us {
                coordinator.fire_due(request.arrival_us, &mut sim);
            }
            let ctx = sim.node(coordinator.home_of(request));
            ctx.engine
                .run_timers_through(ctx.plane, request.arrival_us, true);
            let _ = ctx.engine.on_arrival(ctx.plane, request);
        }
        let end_us = stream.last().map_or(0, |r| r.arrival_us);
        let samples = wind_down(&mut coordinator, &mut sim, end_us);
        let mut completions = Vec::new();
        for ctx in &mut sim.ctxs {
            ctx.engine.drain_completions_into(&mut completions);
        }
        let per_node = sim.finish();
        let log = coordinator.finish();
        Tapped {
            report: fabric.assemble_report(per_node, refunded_before, Some(log)),
            completions,
            samples,
        }
    }

    /// The threaded backend (Replay) with every sink armed.
    fn tapped_live(fabric: &mut ServeFabric, stream: &[Request]) -> Tapped {
        let refunded_before = fabric.refunded_total();
        let wall = WallClock::new();
        let (nodes, policy, mut coordinator) = fabric.arm_coordinator();
        let index = NodeIndex::new(nodes.iter().map(|n| n.id));
        let (tap, tapped) = mpsc::channel();
        let live = LiveSetup {
            policy,
            mode: ExecMode::Replay,
            wall: &wall,
            control_tap: true,
            allow_panics: false,
            completions: Some(CompletionSink { senders: vec![tap] }),
        };
        let (outcomes, samples) = run_workers(nodes, 1 << 10, live, |queues| {
            let mut transport = Queued {
                queues,
                index: &index,
                mode: ExecMode::Replay,
                held: Vec::new(),
            };
            for request in stream {
                if coordinator.next_due_us() <= request.arrival_us {
                    coordinator.fire_due(request.arrival_us, &mut transport);
                }
                let home = index[coordinator.home_of(request)];
                assert!(queues[home].push(Ingest::Arrival(request)));
            }
            let end_us = stream.last().map_or(0, |r| r.arrival_us);
            wind_down(&mut coordinator, &mut transport, end_us)
        });
        let per_node = outcomes
            .into_iter()
            .map(|(id, stats)| (id, stats.expect("no worker panics")))
            .collect();
        let log = coordinator.finish();
        Tapped {
            report: fabric.assemble_report(per_node, refunded_before, Some(log)),
            completions: tapped.try_iter().collect(),
            samples,
        }
    }

    /// Every sink's own count of each outcome is the same number.
    fn assert_sinks_agree(run: &Tapped, backend: &str) {
        use crate::ShedReason;
        use tinymlops_observe::SpanKind;
        let report = &run.report;
        let counter = |name: &str| report.telemetry.counters.get(name).copied().unwrap_or(0);
        let traced = |kind: SpanKind, detail: Option<u64>| {
            report
                .traces
                .iter()
                .flat_map(|(_, events)| events)
                .filter(|e| e.kind == kind && detail.is_none_or(|d| e.detail == d))
                .count() as u64
        };
        let windowed = |f: fn(&tinymlops_observe::WindowSample) -> u64| -> u64 {
            report.windows.iter().flat_map(|(_, w)| w).map(f).sum()
        };
        for reason in ShedReason::all() {
            let stats = report.fleet.shed_by(reason);
            let logged = run
                .completions
                .iter()
                .filter(|c| c.disposition == Disposition::Shed(reason))
                .count() as u64;
            assert_eq!(
                counter(&format!("serve.shed.{}", reason.name())),
                stats,
                "{backend}: telemetry vs stats, {reason:?}"
            );
            assert_eq!(
                logged, stats,
                "{backend}: completion log vs stats, {reason:?}"
            );
            assert_eq!(
                traced(SpanKind::Shed, Some(reason.index() as u64)),
                stats,
                "{backend}: observer trace vs stats, {reason:?}"
            );
            if reason != ShedReason::Overload {
                assert!(stats > 0, "{backend}: the scenario exercises {reason:?}");
            }
        }
        let served = report.fleet.served;
        assert!(served > 1_000, "{backend}: plenty served ({served})");
        assert_eq!(
            counter("serve.served"),
            served,
            "{backend}: telemetry served"
        );
        assert_eq!(
            traced(SpanKind::Complete, None),
            served,
            "{backend}: traced"
        );
        assert_eq!(windowed(|w| w.served), served, "{backend}: windows served");
        assert_eq!(
            windowed(|w| w.shed),
            report.fleet.shed_total,
            "{backend}: windows shed"
        );
        let logged_served = run
            .completions
            .iter()
            .filter(|c| c.disposition.is_served())
            .count() as u64;
        assert_eq!(logged_served, served, "{backend}: completion log served");
        assert_eq!(
            run.completions.len() as u64,
            served + report.fleet.shed_total,
            "{backend}: one completion per resolution"
        );
        assert_eq!(
            counter("serve.refunded"),
            report.refunds,
            "{backend}: telemetry refunds vs chain refunds (orphans included)"
        );
        assert!(report.refunds_balance(), "{backend}: refunds balance");
        // The control tap, on every node that lived to be sampled: one
        // sample spanning the whole run counts what the node's stats do.
        for (node, sample) in &run.samples {
            let (_, stats) = report
                .per_node
                .iter()
                .find(|(id, _)| id == node)
                .expect("sampled node reported");
            assert_eq!(
                sample.served, stats.served,
                "{backend}: tap served, node {node}"
            );
            assert_eq!(
                sample.shed, stats.shed_total,
                "{backend}: tap shed, node {node}"
            );
            assert_eq!(
                sample.served_by_tenant.values().sum::<u64>(),
                stats.served,
                "{backend}: tap per-tenant served, node {node}"
            );
        }
    }

    #[test]
    fn every_sink_counts_every_outcome_the_same_on_both_backends() {
        let (cfg, plan, stream) = eventful();
        let mut on_sim = eventful_fabric(&cfg, &plan);
        let sim = tapped_sim(&mut on_sim, &stream);
        assert_sinks_agree(&sim, "sim");
        // The crash left at least one orphan: a tenant that moved off the
        // doomed node was refunded on its new home for work that died there.
        let moved = &sim.report.migrations[0];
        assert!(moved.drained_in_flight > 0, "work stayed behind on node 1");
        let orphan_refunds = on_sim
            .quota_census()
            .iter()
            .find(|q| q.tenant == moved.tenant)
            .map_or(0, |q| q.refunded);
        assert!(
            orphan_refunds > 0,
            "the orphan was refunded on its new home"
        );

        let mut on_live = eventful_fabric(&cfg, &plan);
        let live = tapped_live(&mut on_live, &stream);
        assert_sinks_agree(&live, "live");
        assert_eq!(live.report, sim.report, "replay parity, taps armed");
        assert_eq!(live.samples, sim.samples, "the taps agree across backends");
        let by_request = |c: &Completion| (c.id, c.at_us);
        let (mut a, mut b) = (sim.completions, live.completions);
        a.sort_by_key(by_request);
        b.sort_by_key(by_request);
        assert_eq!(a, b, "the completion logs agree across backends");
    }
}
