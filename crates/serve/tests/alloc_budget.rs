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
use tinymlops_nn::model::mlp;
use tinymlops_quant::{QuantScheme, QuantizedModel};
use tinymlops_registry::ModelId;
use tinymlops_serve::testkit::test_fabric;
use tinymlops_serve::{
    ClientPlan, ClientSpec, ExecModel, FabricConfig, LoadPlan, RetryPolicy, ServeFabric, TenantSpec,
};
use tinymlops_tensor::TensorRng;

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

/// The `infer_serving` executables: one `mlp([64,512,512,10])` as f32,
/// int8 and int2, in the test catalog's variant order.
fn executables() -> [(&'static str, ExecModel); 3] {
    let mut rng = TensorRng::seed(3);
    let model = mlp(&[64, 512, 512, 10], &mut rng);
    let calib = rng.uniform(&[32, 64], -1.0, 1.0);
    let quantized = |scheme| {
        ExecModel::Quantized(QuantizedModel::quantize(&model, &calib, scheme).expect("dense mlp"))
    };
    let (int8, int2) = (quantized(QuantScheme::Int8), quantized(QuantScheme::Int2));
    [
        ("f32", ExecModel::F32(model)),
        ("int8", int8),
        ("int2", int2),
    ]
}

/// Allocations one `ExecModel::predict` of a micro-batch may make, by
/// executable. f32: per `Dense` the output and its shape, one for the
/// argmax — 2 + 2 + 2 + 1; the tiles read A in place, their weight panels
/// were packed at install, and activations and the bias add work in place.
/// (Before `Dense` had a prepared form the same call made 24 — a B-panel
/// block and a bias clone per layer, a fresh tensor per activation, a copy
/// of the input — and this fixture's replay 27.19 per dispatched batch, now
/// 10.84.) int8 and int2: the two operand buffers one call's integer tiles
/// ping-pong through and one regrow of the first (64 → 512 columns), the
/// output and its shape, the argmax — 6.
const PREDICT_BUDGET: [u64; 3] = [7, 6, 6];

/// Allocations per dispatched batch of the engine replay below, predict
/// included. Measured 10.844 (mean batch 7.12; ≈93 % of batches f32, 7
/// allocations each), so the engine's own share is ≈3.9 per batch: the
/// row list, the gathered feature matrix and its shape, and a regrow of
/// the row list — it is collected from a filter, so it starts at capacity
/// 4 and grows once in every batch of 5 or more rows (0.91 per batch here:
/// the same replay with the list allocated at the batch's length measures
/// 9.935).
const DISPATCH_BUDGET: f64 = 10.85;

#[test]
fn inference_dispatch_stays_within_the_allocation_budget() {
    if !optimised_build() {
        return;
    }
    let execs = executables();
    // Installed means prepared: the very first batch already costs what
    // every later one does.
    let x = TensorRng::seed(4).uniform(&[8, 64], -1.0, 1.0);
    for ((name, exec), budget) in execs.iter().zip(PREDICT_BUDGET) {
        exec.prepare();
        let (first, first_allocations) = allocations_during(|| exec.predict(&x));
        let (again, allocations) = allocations_during(|| exec.predict(&x));
        assert_eq!(first, again);
        eprintln!("alloc_budget: {allocations} allocations per {name} predict of 8 rows (first: {first_allocations})");
        assert_eq!(
            first_allocations, allocations,
            "{name}: install left work for the first batch"
        );
        assert!(
            allocations <= budget,
            "{name}: {allocations} allocations per predict (budget {budget})"
        );
    }

    // The same through the engine: an `infer_serving`-shaped replay
    // (feature_dim 64, all six executables installed) against the same
    // replay on the cost model alone.
    let plan = LoadPlan {
        tenants: tenants(2_500.0),
        duration_us: 2_000_000,
        seed: 7,
        feature_dim: 64,
    };
    let stream = plan.generate();
    let mut bare = provisioned_fabric(&plan);
    let (bare_report, bare_allocations) =
        allocations_during(|| bare.run(&stream).expect("replay runs"));
    let mut fabric = provisioned_fabric(&plan);
    for base in [0, 100] {
        for (variant, (_, exec)) in execs.iter().enumerate() {
            fabric.install_executable(ModelId(base + variant as u64), exec.clone());
        }
    }
    let (report, allocations) = allocations_during(|| fabric.run(&stream).expect("replay runs"));
    assert_eq!(report.fleet.batches, bare_report.fleet.batches);
    assert_eq!(report.fleet.real_predictions, report.fleet.served);
    assert!(
        report.fleet.served > stream.len() as u64 / 2,
        "mostly served"
    );
    let per_batch = (allocations - bare_allocations) as f64 / report.fleet.batches as f64;
    let budget = DISPATCH_BUDGET;
    eprintln!(
        "alloc_budget: {per_batch:.3} allocations per dispatched inference batch (mean batch {:.2})",
        report.fleet.mean_batch
    );
    assert!(
        per_batch <= budget,
        "{per_batch:.3} allocations per dispatched inference batch (budget {budget})"
    );
}
