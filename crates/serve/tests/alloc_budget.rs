//! Allocation budget of the request path, counted by a counting global
//! allocator (which is why this is a test binary of its own).
//!
//! What a request's information content requires is one heap copy — the
//! admission-time `Request` the batcher keeps (closed loop: the request
//! the client builds) — plus a batch's member vector and name amortised
//! over its members: 1.29 allocations per open-loop request and 1.28 per
//! closed-loop delivery on these fixtures. Before the client pool, the
//! engine-local telemetry shard and the lean batcher the same fixtures
//! measured 3.70 and 3.83. The counts repeat exactly run to run, so the
//! bounds cannot flake; they hold for optimised builds only (`cargo test
//! --release`), since debug builds allocate differently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tinymlops_serve::testkit::test_fabric;
use tinymlops_serve::{
    ClientPlan, ClientSpec, FabricConfig, LoadPlan, RetryPolicy, ServeFabric, TenantSpec,
};

/// Allocations (and reallocations) per request the path may make.
const BUDGET: f64 = 1.5;

thread_local! {
    /// Per-thread, so the two tests (and libtest's own threads) do not
    /// count each other's allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while `f` ran.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn tenants(rate_rps: f64) -> Vec<TenantSpec> {
    (1..=8u32)
        .map(|id| TenantSpec {
            id,
            rate_rps,
            model: if id % 2 == 0 { "kws" } else { "vision" }.into(),
            prepaid_queries: 10_000_000,
            deadline_us: 50_000,
        })
        .collect()
}

fn provisioned_fabric(plan: &LoadPlan) -> ServeFabric {
    let mut fabric = test_fabric(&FabricConfig::default(), 48, 11);
    fabric.provision(plan);
    fabric
}

/// The bound is skipped, with a note, in debug builds.
fn optimised_build() -> bool {
    if cfg!(debug_assertions) {
        eprintln!("alloc_budget: skipped — debug builds allocate differently; run with --release");
    }
    !cfg!(debug_assertions)
}

#[test]
fn open_loop_replay_stays_within_the_allocation_budget() {
    if !optimised_build() {
        return;
    }
    let plan = LoadPlan {
        tenants: tenants(2_500.0),
        duration_us: 5_000_000,
        seed: 7,
        feature_dim: 0,
    };
    let stream = plan.generate();
    assert!(stream.len() >= 95_000, "a 100k-class stream");
    let mut fabric = provisioned_fabric(&plan);
    let (report, allocations) = allocations_during(|| fabric.run(&stream).expect("replay runs"));
    assert!(
        report.fleet.served > stream.len() as u64 / 2,
        "mostly served"
    );
    let per_request = allocations as f64 / stream.len() as f64;
    eprintln!("alloc_budget: {per_request:.3} allocations per open-loop request");
    assert!(
        per_request <= BUDGET,
        "{per_request:.3} allocations per open-loop request (budget {BUDGET})"
    );
}

#[test]
fn closed_loop_driver_stays_within_the_allocation_budget() {
    if !optimised_build() {
        return;
    }
    let provision = LoadPlan {
        tenants: tenants(0.0),
        duration_us: 0,
        seed: 0,
        feature_dim: 0,
    };
    let plan = ClientPlan {
        clients: (0..5_000u32)
            .map(|c| ClientSpec {
                tenant: c % 8 + 1,
                model: if (c % 8 + 1) % 2 == 0 {
                    "kws"
                } else {
                    "vision"
                }
                .into(),
                think_mean_us: 10_000.0,
                deadline_us: 50_000,
            })
            .collect(),
        duration_us: 400_000,
        seed: 7,
        feature_dim: 0,
        retry: RetryPolicy::default(),
    };
    let mut fabric = provisioned_fabric(&provision);
    let (run, allocations) =
        allocations_during(|| fabric.run_closed_loop(&plan).expect("closed loop runs"));
    let deliveries = run.clients.pushes();
    assert!(deliveries >= 100_000, "a 100k-class run: {deliveries}");
    assert!(run.clients.served > 0 && run.clients.retries > 0);
    let per_delivery = allocations as f64 / deliveries as f64;
    eprintln!("alloc_budget: {per_delivery:.3} allocations per closed-loop delivery");
    assert!(
        per_delivery <= BUDGET,
        "{per_delivery:.3} allocations per closed-loop delivery (budget {BUDGET})"
    );
}
