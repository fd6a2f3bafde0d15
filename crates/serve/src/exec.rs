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
//! **Live migration** rides the same queues: a scheduled
//! [`crate::MigrationSpec`] makes the feeder inject a drain control
//! entry into the source node's queue (in stream position, so the drain
//! set is exactly what the simulator's would be), wait for the node
//! thread to splice its batcher and detach the account, then hand the
//! sealed handoff package (account + spliced work) to the destination's
//! queue before any of the tenant's rerouted traffic. Replay-mode migrations
//! are bit-identical to [`crate::ServeFabric::run_migrating`]; wall-mode
//! migrations additionally splice the tenant's not-yet-ingested arrivals
//! out of the source's [`IngestQueue`] ([`IngestQueue::splice`]) so even
//! queued-but-unseen work follows the account without dropping or
//! double-billing.

use crate::clock::{Clock, WallClock};
use crate::controller::{ControlAction, ControlSample, ControllerView, FleetController};
use crate::fabric::{
    absorb_failover, adopt_destination, drain_source, merge_triggers, FabricReport, FleetTrigger,
    HandoffPackage, MigrationPhase, MigrationRecord, MigrationSpec, NodeIndex, ServeFabric,
};
use crate::fault::{plan_evacuation, FailoverPackage, NodeFaults};
use crate::observer::NodeObserver;
use crate::request::{Request, TenantId};
use crate::shard::NodeId;
use crate::sim::{ServeConfig, ServeEngine, ServePlane};
use crate::stats::ServeStats;
use crate::ServeError;
use crossbeam::queue::ArrayQueue;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use tinymlops_observe::Telemetry;

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
/// entries of migration, failover and the fleet controller. Controls
/// ride *in stream position*, so a node thread executes them after
/// exactly the same prefix of its traffic as the simulator would — that
/// positional guarantee is what makes replay-mode migrations
/// bit-identical.
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

impl From<Control> for Ingest<'_> {
    fn from(control: Control) -> Self {
        Ingest::Control(Box::new(control))
    }
}

/// The control entries of an ingest queue (see [`Ingest`]).
pub(crate) enum Control {
    /// Migration source side: drain the tenant at `at_us` and send the
    /// sealed handoff package back to the coordinating feeder.
    Drain {
        tenant: TenantId,
        from: NodeId,
        to: NodeId,
        at_us: u64,
        reply: mpsc::Sender<HandoffPackage>,
    },
    /// Migration destination side: attach the account and re-enqueue the
    /// spliced in-flight work.
    Adopt {
        tenant: TenantId,
        package: HandoffPackage,
    },
    /// Injected [`crate::FaultKind::Crash`]: tear this node down at
    /// `at_us` — resolve queued and in-flight work as refunded failover
    /// sheds, send the evacuated accounts (plus orphaned requests of
    /// tenants that had already migrated away) back to the coordinating
    /// feeder, and exit the worker loop.
    Crash {
        node: NodeId,
        at_us: u64,
        reply: mpsc::Sender<(Vec<FailoverPackage>, Vec<Request>)>,
    },
    /// Failover landing side: reconstruct an evacuated tenant account
    /// from its [`FailoverPackage`] (emergency handoff — the dead source
    /// cannot cooperate, so the survivor seals the chain).
    Absorb {
        to: NodeId,
        package: FailoverPackage,
    },
    /// Orphan refund: return one prepaid query to a tenant homed here
    /// whose in-flight request died on a crashed peer (it had migrated
    /// off that peer with work still dispatched there).
    Refund { tenant: TenantId, at_us: u64 },
    /// Controller tick: advance to `at_us`, sample-and-reset the control
    /// tap, and reply to the coordinating feeder. Rides in stream
    /// position, so the sampled counters are bit-identical to the
    /// simulator's tick at the same logical instant.
    Sample {
        at_us: u64,
        reply: mpsc::Sender<ControlSample>,
    },
    /// Controller brownout nudge: floor (or lift, at 0) this node's
    /// degradation ladder.
    SetBrownoutFloor { level: usize, at_us: u64 },
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
/// entirely while nobody sleeps. The retired mutex/condvar design
/// survives as [`MutexIngestQueue`] — the baseline the b01
/// `ingest_queue` group measures this ring against.
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

struct MutexQueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The retired mutex/condvar ingest queue, kept as the measurable
/// baseline for the lock-free [`IngestQueue`]: the b01 `ingest_queue`
/// group runs the same handoff workload through both and reports the
/// paired difference (the same way `Dispatch::Spawn` survives as the
/// thread pool's baseline). Not used by the serving path.
pub struct MutexIngestQueue<T> {
    state: Mutex<MutexQueueState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> MutexIngestQueue<T> {
    /// A queue holding at most `capacity` items.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        MutexIngestQueue {
            state: Mutex::new(MutexQueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue, blocking while the queue is full. Returns `false` (and
    /// drops the item) iff the queue is closed.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().unwrap();
        while state.items.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).unwrap();
        }
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// Dequeue, blocking until an item arrives or the queue closes.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).unwrap();
        }
    }

    /// Close the queue: pending items still drain, then pops return
    /// `None` and pushes are refused.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().items.len()
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

/// One node thread: drain the ingest queue through the shared engine.
/// Returns `Ok` with honest statistics even when the node is torn down
/// mid-run by an injected crash (the evacuation resolves everything it
/// owed first); only a genuine panic loses state.
///
/// With a `completions` sink the engine's completion tap is armed and
/// every resolution (served, shed, failover) is forwarded as it happens
/// — the response leg of the closed-loop drivers
/// ([`crate::closedloop`]). The tap is pure observation, so a sink
/// never changes a serving decision.
#[allow(clippy::too_many_arguments)] // internal worker plumbing, not an API
pub(crate) fn node_worker(
    plane: &mut ServePlane,
    telemetry: &Telemetry,
    serve_cfg: &ServeConfig,
    observer: Option<Box<NodeObserver>>,
    faults: Option<NodeFaults>,
    queue: &IngestQueue<Ingest<'_>>,
    mode: ExecMode,
    wall: &WallClock,
    control: bool,
    completions: Option<crate::closedloop::CompletionSink>,
) -> Result<ServeStats, ServeError> {
    let _close_guard = CloseOnExit(queue);
    if plane.family_names().is_empty() {
        return Err(ServeError::NoFamilies);
    }
    let mut engine = ServeEngine::new(serve_cfg.clone(), Some(telemetry));
    engine.set_observer(observer);
    engine.set_faults(faults);
    engine.set_control_tap(control);
    engine.set_completion_tap(completions.is_some());
    let mut drained = Vec::new();
    let mut flush = |engine: &mut ServeEngine<'_>,
                     sink: &Option<crate::closedloop::CompletionSink>| {
        if let Some(sink) = sink {
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
        let control = match (item, mode) {
            (Ingest::Arrival(request), ExecMode::Replay) => {
                arrive(engine, plane, request);
                return true;
            }
            (Ingest::Arrival(request), ExecMode::Wall) => {
                arrive(engine, plane, &door_stamped(request.clone()));
                return true;
            }
            (Ingest::Issued(request), ExecMode::Replay) => {
                arrive(engine, plane, &request);
                return true;
            }
            (Ingest::Issued(request), ExecMode::Wall) => {
                arrive(engine, plane, &door_stamped(*request));
                return true;
            }
            (Ingest::Control(control), _) => *control,
        };
        match control {
            Control::Drain {
                tenant,
                from,
                to,
                at_us,
                reply,
            } => {
                let now = at(at_us);
                engine.run_timers_through(plane, now, true);
                if let Some(package) = drain_source(engine, plane, tenant, from, to, now) {
                    // A closed reply channel means the feeder gave up
                    // (its own error path); the drop is safe either way.
                    let _ = reply.send(package);
                }
            }
            Control::Adopt { tenant, package } => {
                let at_us = at(package.handoff_us);
                adopt_destination(engine, plane, tenant, package, at_us);
            }
            Control::Crash { node, at_us, reply } => {
                let now = at(at_us);
                engine.run_timers_through(plane, now, true);
                let evacuated = engine.evacuate(plane, node, now);
                let _ = reply.send(evacuated);
                return false;
            }
            Control::Absorb { to, package } => {
                let at_us = at(package.at_us);
                absorb_failover(engine, plane, package, to, at_us);
            }
            Control::Refund { tenant, at_us } => {
                engine.refund_orphan(plane, tenant, at(at_us));
            }
            Control::Sample { at_us, reply } => {
                engine.run_timers_through(plane, at(at_us), true);
                // A closed reply channel means the feeder gave up; the
                // drop is safe either way.
                let _ = reply.send(engine.take_control_sample(plane));
            }
            Control::SetBrownoutFloor { level, at_us } => {
                engine.run_timers_through(plane, at(at_us), true);
                engine.set_brownout_floor(level);
            }
        }
        true
    };
    match mode {
        ExecMode::Replay => {
            while let Some(item) = queue.pop() {
                let keep_going = handle(&mut engine, plane, item);
                flush(&mut engine, &completions);
                if !keep_going {
                    break;
                }
            }
        }
        ExecMode::Wall => loop {
            match queue.pop_until(engine.next_timer_us(), wall) {
                Popped::Item(item) => {
                    let keep_going = handle(&mut engine, plane, item);
                    flush(&mut engine, &completions);
                    if !keep_going {
                        break;
                    }
                }
                Popped::TimerDue => {
                    engine.run_timers_through(plane, wall.now_us(), true);
                    flush(&mut engine, &completions);
                }
                Popped::Closed => break,
            }
        },
    }
    if completions.is_some() {
        // Resolve everything still queued or in flight *before* the
        // engine is consumed, so the tap observes the final drain too
        // (`finish` below then finds nothing left to do).
        engine.run_timers_through(plane, u64::MAX, false);
        flush(&mut engine, &completions);
    }
    Ok(engine.finish(plane))
}

/// Run `stream` through `fabric` with one OS thread per serving node.
///
/// The calling thread is the ingest feeder: it routes each request to its
/// tenant's home node (same placement as [`ServeFabric::run`]) and pushes
/// it onto that node's bounded queue, pacing against the wall clock in
/// [`ExecMode::Wall`]. Node threads drain concurrently; their per-node
/// accumulators merge into the same exact fleet report the simulator
/// produces.
pub fn run_fabric_live(
    fabric: &mut ServeFabric,
    stream: &[Request],
    cfg: &ExecConfig,
) -> Result<LiveReport, ServeError> {
    run_fabric_live_migrating(fabric, stream, cfg, &[]).map(|(report, _)| report)
}

/// [`run_fabric_live`] plus scheduled live migrations: the feeder
/// doubles as migration coordinator, injecting drain/adopt control
/// entries into the node queues at the specs' stream positions (see
/// [`ServeFabric::run_live_migrating`]).
pub fn run_fabric_live_migrating(
    fabric: &mut ServeFabric,
    stream: &[Request],
    cfg: &ExecConfig,
    specs: &[MigrationSpec],
) -> Result<(LiveReport, Vec<MigrationRecord>), ServeError> {
    for spec in specs {
        if fabric.home_node(spec.tenant).is_none() {
            return Err(ServeError::UnknownTenant(spec.tenant));
        }
        if !fabric.nodes().iter().any(|n| n.id == spec.to) {
            return Err(ServeError::UnknownNode(spec.to));
        }
    }
    fabric.validate_fault_plan()?;
    let refunded_before = fabric.refunded_total();
    let serve_cfg = fabric.serve_config().clone();
    let observe_cfg = fabric.observe_config().clone();
    let fault_plan = fabric.fault_plan().clone();
    let load_factor = fabric.load_factor();
    let mode = cfg.mode;
    let wall = WallClock::new();
    let start = Instant::now();
    let triggers = merge_triggers(&fault_plan, specs);
    let mut records: Vec<MigrationRecord> = Vec::with_capacity(specs.len());
    let mut lost: BTreeMap<NodeId, u64> = BTreeMap::new();
    // The controller mirror: same policy, same standby pool, ticking at
    // the same logical instants as the simulator's interleaved loop.
    let controller_cfg = fabric.controller_config().clone();
    let controller_on = controller_cfg.enabled;
    let max_total_pending = serve_cfg.gateway.max_total_pending;
    let mut controller = FleetController::new(controller_cfg, fabric.take_standby());
    let tick_interval = controller.config().interval_us.max(1);
    let mut next_tick = tick_interval;

    let (nodes, shard_router, assignments, traffic) = fabric.split_live();
    let queues: Vec<IngestQueue<Ingest<'_>>> = nodes
        .iter()
        .map(|_| IngestQueue::new(cfg.queue_capacity))
        .collect();
    let index_of = NodeIndex::new(nodes.iter().map(|n| n.id));

    type JoinOutcome = std::thread::Result<Result<ServeStats, ServeError>>;
    let results: Vec<JoinOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .iter_mut()
            .zip(&queues)
            .map(|(node, queue)| {
                let serve_cfg = &serve_cfg;
                let wall = &wall;
                let observer = observe_cfg
                    .enabled
                    .then(|| Box::new(NodeObserver::new(node.id, observe_cfg.clone())));
                // Live workers are allowed to arm `DispatchPanic` events —
                // the genuine-death path the simulator cannot model.
                let faults = NodeFaults::for_node(&fault_plan, node.id, true);
                let plane = &mut node.plane;
                let telemetry = &node.telemetry;
                s.spawn(move || {
                    node_worker(
                        plane,
                        telemetry,
                        serve_cfg,
                        observer,
                        faults,
                        queue,
                        mode,
                        wall,
                        controller_on,
                        None,
                    )
                })
            })
            .collect();

        // The feeder: route at ingest time, in arrival order, executing
        // scheduled migrations and injected crashes at their stream
        // positions (same merged trigger order as the simulator). Unknown
        // tenants are still routed (by the same hash) so the owning
        // gateway records the denial, exactly as in the simulator.
        let mut pending = triggers.iter().peekable();
        let mut dead: BTreeSet<NodeId> = BTreeSet::new();
        let migrate = |spec: &MigrationSpec,
                       at_us: u64,
                       assignments: &mut BTreeMap<TenantId, (NodeId, String)>,
                       shard_router: &mut crate::ShardRouter|
         -> MigrationRecord {
            let (from, family) = assignments
                .get(&spec.tenant)
                .cloned()
                .expect("specs are validated before the run starts");
            let mut record = MigrationRecord::planned(spec, from, at_us);
            if from == spec.to {
                record.phase = MigrationPhase::Resumed;
                return record;
            }
            // Wall mode: the tenant's not-yet-ingested arrivals leave the
            // source's queue now and follow the account (replay keeps
            // them — the simulator's node already owns them).
            let held: Vec<Ingest<'_>> = if mode == ExecMode::Wall {
                queues[index_of[from]]
                    .splice(|i| matches!(i, Ingest::Arrival(r) if r.tenant == spec.tenant))
            } else {
                Vec::new()
            };
            let (reply, rx) = mpsc::channel();
            let drain = Control::Drain {
                tenant: spec.tenant,
                from,
                to: spec.to,
                at_us,
                reply,
            };
            let accepted = queues[index_of[from]].push(drain.into());
            if !accepted {
                // Source worker already exited (error/panic); the node's
                // failure surfaces after the join. The migration never
                // started draining.
                return record;
            }
            record.phase = MigrationPhase::Draining;
            let Ok(package) = rx.recv() else {
                // Source worker died mid-drain; its error surfaces after
                // the join.
                return record;
            };
            record.absorb(&package);
            let adopt = Control::Adopt {
                tenant: spec.tenant,
                package,
            };
            if !queues[index_of[spec.to]].push(adopt.into()) {
                // Destination worker already exited; the account is gone
                // with its queue and the node's failure ends the run.
                return record;
            }
            record.phase = MigrationPhase::HandedOff;
            assignments.insert(spec.tenant, (spec.to, family));
            shard_router.pin(spec.tenant, spec.to);
            record.queue_spliced = held.len();
            for item in held {
                let _ = queues[index_of[spec.to]].push(item);
            }
            record.phase = MigrationPhase::Resumed;
            record
        };
        // Injected crash: the live mirror of the simulator's
        // `execute_crash`. The dying worker evacuates cooperatively and
        // replies with the exported accounts; the feeder re-homes them via
        // the same pure `plan_evacuation` the simulator uses, so every
        // account lands on the same survivor in both backends.
        let crash = |node: NodeId,
                     at_us: u64,
                     assignments: &mut BTreeMap<TenantId, (NodeId, String)>,
                     shard_router: &mut crate::ShardRouter,
                     traffic: &crate::TrafficLedger,
                     dead: &mut BTreeSet<NodeId>| {
            if !dead.insert(node) {
                return; // a duplicate crash of a dead node is a no-op
            }
            let (reply, rx) = mpsc::channel();
            if !queues[index_of[node]].push(Control::Crash { node, at_us, reply }.into()) {
                // The worker already died for real (error/panic closed its
                // queue): nothing to evacuate — its loss surfaces as a
                // NodeFailure after the join.
                return;
            }
            let Ok((packages, orphans)) = rx.recv() else {
                // Worker died between accepting the control and replying.
                return;
            };
            shard_router.remove_node(node);
            let moves = plan_evacuation(shard_router, assignments, traffic, node, load_factor);
            debug_assert_eq!(moves.len(), packages.len(), "every account gets a home");
            for (package, (tenant, family, dest)) in packages.into_iter().zip(moves) {
                debug_assert_eq!(package.tenant, tenant, "both walk tenants in id order");
                if !queues[index_of[dest]].push(Control::Absorb { to: dest, package }.into()) {
                    continue; // survivor itself already dead for real
                }
                assignments.insert(tenant, (dest, family));
                shard_router.pin(tenant, dest);
            }
            for orphan in orphans {
                if let Some((home, _)) = assignments.get(&orphan.tenant) {
                    let refund = Control::Refund {
                        tenant: orphan.tenant,
                        at_us,
                    };
                    let _ = queues[index_of[*home]].push(refund.into());
                }
            }
        };
        let fire = |trigger: &(u64, FleetTrigger<'_>),
                    at_us: u64,
                    records: &mut Vec<MigrationRecord>,
                    assignments: &mut BTreeMap<TenantId, (NodeId, String)>,
                    shard_router: &mut crate::ShardRouter,
                    traffic: &crate::TrafficLedger,
                    dead: &mut BTreeSet<NodeId>| match trigger.1 {
            FleetTrigger::Crash { node } => {
                crash(node, at_us, assignments, shard_router, traffic, dead);
            }
            FleetTrigger::Migrate(spec) => {
                if dead.contains(&spec.to) {
                    // Destination died first: the migration never starts
                    // (same freeze as the simulator).
                    let from = assignments
                        .get(&spec.tenant)
                        .map(|(n, _)| *n)
                        .unwrap_or(spec.to);
                    records.push(MigrationRecord::planned(spec, from, at_us));
                } else {
                    records.push(migrate(spec, at_us, assignments, shard_router));
                }
            }
        };
        // Controller tick, the live mirror of the simulator's
        // `execute_control_tick`: sample every live node in id order
        // (Sample controls ride in stream position, so the counters are
        // the simulator's), ask the same controller, apply the actions
        // through the same migrate primitive and router mutations.
        let tick = |at_us: u64,
                    records: &mut Vec<MigrationRecord>,
                    assignments: &mut BTreeMap<TenantId, (NodeId, String)>,
                    shard_router: &mut crate::ShardRouter,
                    controller: &mut FleetController,
                    traffic: &mut crate::TrafficLedger| {
            let mut active: Vec<crate::ShardNode> = Vec::new();
            let mut snapshots = Vec::new();
            for node in shard_router.nodes().to_vec() {
                let (reply, rx) = mpsc::channel();
                if !queues[index_of[node.id]].push(Control::Sample { at_us, reply }.into()) {
                    continue; // worker genuinely died; skip it this tick
                }
                let Ok(sample) = rx.recv() else { continue };
                snapshots.push((node.id, sample));
                active.push(node);
            }
            let actions = {
                let view = ControllerView {
                    active: &active,
                    assignments: &*assignments,
                    max_total_pending,
                };
                controller.tick(at_us, &snapshots, &view, traffic)
            };
            for action in actions {
                match action {
                    ControlAction::Brownout { node, floor } => {
                        let nudge = Control::SetBrownoutFloor {
                            level: floor,
                            at_us,
                        };
                        let _ = queues[index_of[node]].push(nudge.into());
                    }
                    ControlAction::Migrate { tenant, to, .. } => {
                        let spec = crate::controller::spec_of(tenant, to, at_us);
                        records.push(migrate(&spec, at_us, assignments, shard_router));
                    }
                    ControlAction::Join {
                        node,
                        weight,
                        moves,
                    } => {
                        shard_router.add_node(crate::ShardNode { id: node, weight });
                        for (tenant, dest) in moves {
                            let spec = crate::controller::spec_of(tenant, dest, at_us);
                            records.push(migrate(&spec, at_us, assignments, shard_router));
                        }
                    }
                    ControlAction::Drain { node, moves } => {
                        for (tenant, dest) in moves {
                            let spec = crate::controller::spec_of(tenant, dest, at_us);
                            records.push(migrate(&spec, at_us, assignments, shard_router));
                        }
                        shard_router.remove_node(node);
                    }
                }
            }
        };

        for request in stream {
            loop {
                let trig_at = pending
                    .peek()
                    .map(|(at, _)| *at)
                    .filter(|at| *at <= request.arrival_us);
                let tick_at =
                    (controller_on && next_tick <= request.arrival_us).then_some(next_tick);
                let fire_trigger = match (trig_at, tick_at) {
                    (Some(t), Some(k)) => t <= k, // triggers win ties
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                if !fire_trigger {
                    tick(
                        next_tick,
                        &mut records,
                        assignments,
                        shard_router,
                        &mut controller,
                        traffic,
                    );
                    next_tick += tick_interval;
                    continue;
                }
                let trigger = pending.next().expect("peeked");
                fire(
                    trigger,
                    trigger.0,
                    &mut records,
                    assignments,
                    shard_router,
                    traffic,
                    &mut dead,
                );
            }
            let home = match assignments.get(&request.tenant) {
                Some((node, _)) => *node,
                None => shard_router.assign(request.tenant, &request.model),
            };
            if mode == ExecMode::Wall {
                wall.advance_to(request.arrival_us);
            }
            // A `false` return means the node worker exited early (error
            // or panic) and closed its queue; keep feeding the healthy
            // nodes — the dead node's result surfaces after the join, with
            // the undeliverable count attached.
            if !queues[index_of[home]].push(Ingest::Arrival(request)) {
                *lost.entry(home).or_default() += 1;
            }
        }
        // Triggers past the last arrival execute at end of stream,
        // mirroring the simulator.
        let end_us = stream.last().map_or(0, |r| r.arrival_us);
        for trigger in pending {
            fire(
                trigger,
                end_us,
                &mut records,
                assignments,
                shard_router,
                traffic,
                &mut dead,
            );
        }
        for queue in &queues {
            queue.close();
        }
        handles.into_iter().map(|h| h.join()).collect()
    });

    let node_ids: Vec<_> = fabric.nodes().iter().map(|n| n.id).collect();
    let mut per_node = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (id, result) in node_ids.into_iter().zip(results) {
        match result {
            // A setup error (e.g. NoFamilies) still fails the whole run —
            // that's a misconfiguration, not a fault.
            Ok(stats) => per_node.push((id, stats?)),
            Err(panic) => {
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
                    lost_requests: lost.get(&id).copied().unwrap_or(0),
                });
                per_node.push((id, ServeStats::default()));
            }
        }
    }
    let (control, standby) = controller.into_parts();
    fabric.restore_standby(standby);
    let fabric_report = fabric.assemble_report(per_node, refunded_before, control);
    Ok((
        LiveReport {
            fabric: fabric_report,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            requests: stream.len(),
            failures,
        },
        records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn mutex_baseline_queue_matches_semantics() {
        let q = MutexIngestQueue::new(4);
        assert!(q.push(1u64));
        assert!(q.push(2));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.close();
        assert!(!q.push(3), "closed queue refuses pushes");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "then reports closed");
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
}
