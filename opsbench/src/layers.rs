//! Stand-alone measurements of single layers, taken from outside by
//! timing calls into their public functions: the crypto/meter chain, the
//! shard router, histograms and telemetry, the ingest queue handoff, the
//! kernels, and the paired plane-overhead runs.

use crate::inputs::{MLP_WIDTHS, WEIGHT_SEED};
use crate::summary::Quartiles;
use crate::workloads::{build_fabric_with, setup, Inputs, Workload};
use std::hint::black_box;
use std::time::Instant;
use tinymlops_crypto::hmac_sha256;
use tinymlops_meter::{AuditEntry, QuotaManager};
use tinymlops_observe::{LogHistogram, Telemetry};
use tinymlops_serve::{
    ControllerConfig, ExecModel, FabricConfig, FaultPlan, IngestQueue, ObserveConfig, Request,
    ShardNode, ShardRouter,
};
use tinymlops_tensor::matmul::gemm;
use tinymlops_tensor::TensorRng;

/// `calls` probe calls at `scale` (1.0 in the binary; the smoke tests
/// shrink every probe along with the streams), never fewer than 8.
fn scaled(calls: usize, scale: f64) -> usize {
    ((calls as f64 * scale) as usize).max(8)
}

/// Median over `rounds` rounds of the mean nanoseconds per call of `f`
/// over `calls` calls (one untimed warm-up round first).
pub fn ns_per_call(rounds: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let round = |f: &mut dyn FnMut(usize)| {
        let start = Instant::now();
        for i in 0..calls {
            f(i);
        }
        start.elapsed().as_nanos() as f64 / calls.max(1) as f64
    };
    round(&mut f);
    let samples: Vec<f64> = (0..rounds.max(1)).map(|_| round(&mut f)).collect();
    Quartiles::of(&samples).median
}

/// `hmac_sha256` on a 57-byte message — the audit chain's entry MAC
/// (8 seq + 1 kind + 8 payload + 8 time + 32 previous link).
pub fn hmac_ns(scale: f64) -> f64 {
    let key = [7u8; 32];
    let mut message = [0u8; 57];
    ns_per_call(5, scaled(20_000, scale), |i| {
        message[0] = i as u8;
        let digest = hmac_sha256(black_box(&key), black_box(&message));
        message[25..57].copy_from_slice(&digest);
    })
}

/// The metering chain driven with a run's call counts.
pub struct MeterCosts {
    /// `QuotaManager::consume` (balance check + chain append).
    pub consume_ns: f64,
    /// `QuotaManager::refund`.
    pub refund_ns: f64,
    /// `AuditLog::verify` per entry.
    pub verify_ns_per_entry: f64,
}

/// Drive a standalone `QuotaManager` with `consumes` consumes and
/// `refunds` refunds (each clamped to 1 000..=100 000 so the figure is
/// steady and the traced run stays short), then verify the chain.
pub fn meter_costs(consumes: u64, refunds: u64) -> MeterCosts {
    let key = [9u8; 32];
    let consumes = consumes.clamp(1_000, 100_000);
    let refunds = refunds.clamp(1_000, 100_000);
    let mut quota = QuotaManager::new(key);
    quota.credit(u64::MAX / 2, 1, 0);
    let start = Instant::now();
    for i in 0..consumes {
        let _ = black_box(quota.consume(1, i / 25));
    }
    let consume_ns = start.elapsed().as_nanos() as f64 / consumes as f64;
    let start = Instant::now();
    for i in 0..refunds {
        quota.refund(1, i / 25);
    }
    let refund_ns = start.elapsed().as_nanos() as f64 / refunds as f64;
    let entries = quota.log().len();
    let start = Instant::now();
    let verified = quota.log().verify(&key);
    let verify_ns_per_entry = start.elapsed().as_nanos() as f64 / entries as f64;
    assert!(verified.is_ok(), "a chain this program just wrote verifies");
    MeterCosts {
        consume_ns,
        refund_ns,
        verify_ns_per_entry,
    }
}

/// Bytes one audit-chain entry occupies in memory.
pub fn chain_entry_bytes() -> usize {
    std::mem::size_of::<AuditEntry>()
}

/// `ShardRouter::assign` per request over the stream's (tenant, family)
/// pairs, on a 3-node topology.
pub fn shard_assign_ns(stream: &[Request]) -> f64 {
    let nodes = (0..3).map(|id| ShardNode { id, weight: 1.0 }).collect();
    let router = ShardRouter::new(nodes, FabricConfig::default().tenant_affinity);
    let sample = &stream[..stream.len().min(50_000)];
    if sample.is_empty() {
        return 0.0;
    }
    ns_per_call(3, sample.len(), |i| {
        black_box(router.assign(sample[i].tenant, &sample[i].model));
    })
}

/// `LogHistogram::record` per call over latency-like values.
pub fn hist_record_ns(scale: f64) -> f64 {
    let mut hist = LogHistogram::new();
    ns_per_call(5, scaled(100_000, scale), |i| {
        hist.record(black_box(1_000 + (i as u64 * 7_919) % 200_000));
    })
}

/// `Telemetry::incr_id` per call (the mutex sink the engine emits into).
pub fn telemetry_incr_ns(scale: f64) -> f64 {
    let telemetry = Telemetry::new();
    let id = telemetry.counter_id("opsbench.probe");
    ns_per_call(5, scaled(100_000, scale), |_| {
        telemetry.incr_id(black_box(id));
    })
}

/// `IngestQueue` push→pop per item: one producer, one consumer thread —
/// the live backend's feeder→worker handoff, alone (median of five
/// rounds). The ring holds every item, so the producer never parks: see
/// [`crate::workloads::live_exec`] for the lost wakeup a parked producer
/// can end in.
pub fn handoff_ns(scale: f64) -> f64 {
    let items = scaled(200_000, scale) as u64;
    let round = || {
        let queue: IngestQueue<u64> = IngestQueue::new(items as usize);
        let start = Instant::now();
        let popped = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut popped = 0u64;
                while let Some(item) = queue.pop() {
                    popped += black_box(item) & 1;
                }
                popped
            });
            for item in 0..items {
                queue.push(item);
            }
            queue.close();
            consumer.join().expect("consumer does not panic")
        });
        assert_eq!(popped, items / 2, "every pushed item was popped once");
        start.elapsed().as_nanos() as f64 / items as f64
    };
    let samples: Vec<f64> = (0..5).map(|_| round()).collect();
    Quartiles::of(&samples).median
}

/// Kernel costs at the batch sizes the micro-batcher really produces.
pub struct KernelCosts {
    /// `Sequential::forward` per row at the mean batch.
    pub f32_ns_per_row: f64,
    /// int8 `forward_fused` per row at the mean batch.
    pub int8_ns_per_row: f64,
    /// int2 `forward_fused` per row at the mean batch.
    pub int2_ns_per_row: f64,
    /// `gemm` at `batch × 512 × 512`.
    pub gemm_gflops: f64,
    /// `gemm` at `1 × 512 × 512`.
    pub gemm_b1_gflops: f64,
}

fn gemm_gflops(m: usize, scale: f64) -> f64 {
    let (k, n) = (MLP_WIDTHS[1], MLP_WIDTHS[2]);
    let mut rng = TensorRng::seed(WEIGHT_SEED + 1);
    let a = rng.uniform(&[m, k], -1.0, 1.0);
    let b = rng.uniform(&[k, n], -1.0, 1.0);
    let mut c = vec![0.0f32; m * n];
    let ns = ns_per_call(5, scaled(200, scale), |_| {
        gemm(black_box(a.data()), black_box(b.data()), &mut c, m, k, n);
    });
    (2 * m * k * n) as f64 / ns
}

/// Time the three executables of the workload at `batch` rows.
pub fn kernel_costs(execs: &[ExecModel; 3], batch: usize, scale: f64) -> KernelCosts {
    let batch = batch.max(1);
    let mut rng = TensorRng::seed(WEIGHT_SEED + 2);
    let x = rng.uniform(&[batch, MLP_WIDTHS[0]], -1.0, 1.0);
    let per_row = |exec: &ExecModel| {
        let ns = ns_per_call(5, scaled(200, scale), |_| match exec {
            ExecModel::F32(m) => {
                black_box(m.forward(black_box(&x)));
            }
            ExecModel::Quantized(m) => {
                black_box(m.forward_fused(black_box(&x)));
            }
        });
        ns / batch as f64
    };
    KernelCosts {
        f32_ns_per_row: per_row(&execs[0]),
        int8_ns_per_row: per_row(&execs[1]),
        int2_ns_per_row: per_row(&execs[2]),
        gemm_gflops: gemm_gflops(batch, scale),
        gemm_b1_gflops: gemm_gflops(1, scale),
    }
}

/// On-CPU nanoseconds of the calling thread (`/proc/thread-self/schedstat`);
/// `None` where the kernel does not expose it.
fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Nanoseconds per request of one `ServeFabric::run` of the probe's
/// stream under `cfg` (fresh fabric, build untimed): thread CPU time
/// where available — a stolen core then counts against neither side of
/// a pair — else wall time.
fn run_ns_per_req(probe: &Inputs, cfg: &FabricConfig) -> f64 {
    let mut fabric = build_fabric_with(probe, cfg);
    let cpu0 = thread_cpu_ns();
    let start = Instant::now();
    black_box(fabric.run(&probe.stream).expect("families installed"));
    let wall = start.elapsed().as_nanos() as f64;
    let ns = match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) if b > a => (b - a) as f64,
        _ => wall,
    };
    ns / probe.stream.len().max(1) as f64
}

/// Armed-but-idle overhead of one plane: median over `PAIRS` of the
/// paired difference (armed − off) in ns/request, alternating which side
/// runs first so drift cancels.
fn plane_overhead_ns(probe: &Inputs, armed: &FabricConfig) -> f64 {
    const PAIRS: usize = 4;
    let off = FabricConfig::default();
    let diffs: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let a = run_ns_per_req(probe, &off);
                run_ns_per_req(probe, armed) - a
            } else {
                let b = run_ns_per_req(probe, armed);
                b - run_ns_per_req(probe, &off)
            }
        })
        .collect();
    Quartiles::of(&diffs).median
}

/// Per-request overhead of the observer, fault and controller planes,
/// each armed but idle, against the all-off fabric on the same stream.
pub struct PlaneCosts {
    /// Observer on (tracing, windows, detectors).
    pub observe_ns: f64,
    /// Fault plane armed, nothing scheduled.
    pub fault_ns: f64,
    /// Controller armed, thresholds untrippable.
    pub controller_ns: f64,
}

/// Measure [`PlaneCosts`] on the first quarter of the `replay_sim`
/// stream for `seed` (the default 3-node shape, all planes off).
pub fn plane_costs(seed: u64, scale: f64) -> PlaneCosts {
    let probe = setup(Workload::ReplaySim, seed, scale * 0.25);
    let with = |arm: &dyn Fn(&mut FabricConfig)| {
        let mut cfg = FabricConfig::default();
        arm(&mut cfg);
        plane_overhead_ns(&probe, &cfg)
    };
    PlaneCosts {
        observe_ns: with(&|c| c.observe = ObserveConfig::enabled()),
        fault_ns: with(&|c| c.fault = FaultPlan::armed()),
        controller_ns: with(&|c| {
            c.controller = ControllerConfig {
                high_pressure: f64::INFINITY,
                high_shed_rate: f64::INFINITY,
                low_pressure: -1.0,
                ..ControllerConfig::enabled()
            }
        }),
    }
}
