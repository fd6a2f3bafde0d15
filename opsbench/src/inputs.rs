//! Pinned benchmark inputs.
//!
//! Everything a workload is built from that is *not* traffic lives here
//! as constants of the benchmark's own: the 3-record catalog, the fleet
//! seed, the MLP widths and the weight seed. Nothing is borrowed from
//! `tinymlops_bench` helpers (later PRs may edit those), so a number
//! measured on two commits was measured on identical inputs. `--seed`
//! reaches only `LoadPlan::seed` / `ClientPlan::seed` — arrivals,
//! features and think times.

use std::collections::BTreeMap;
use tinymlops_device::{default_mix, Fleet};
use tinymlops_nn::model::mlp;
use tinymlops_quant::{QuantScheme, QuantizedModel};
use tinymlops_registry::{ModelFormat, ModelId, ModelRecord, SemVer};
use tinymlops_serve::{ExecModel, LoadPlan, TenantSpec};
use tinymlops_tensor::TensorRng;

/// Seed of every generated device fleet.
pub const FLEET_SEED: u64 = 0x0b5e_f1ee;
/// Seed of the MLP weights and the calibration batch.
pub const WEIGHT_SEED: u64 = 0x0b5e_5eed;
/// The real-inference model: wide enough that `tensor`/`nn`/`quant`
/// kernels dominate the run, small enough to quantize in set-up.
pub const MLP_WIDTHS: [usize; 4] = [64, 512, 512, 10];
/// Prepaid queries per tenant: never exhausted, and small enough that
/// the census identity sums without overflow.
pub const PREPAID: u64 = 1_000_000_000;

/// Family name of catalog slot `i`.
pub fn family_name(i: usize) -> String {
    format!("family{i}")
}

/// Record id of variant `variant` (0 = f32, 1 = int8, 2 = int2) of
/// catalog slot `family`.
pub fn record_id(family: usize, variant: usize) -> ModelId {
    ModelId((family * 100 + variant) as u64)
}

/// The benchmark's own copy of the 3-record family: one fat f32, one mid
/// int8, one small int2 record (40 KB / 10 KB / 2.5 KB).
pub fn family_records(family: usize) -> Vec<ModelRecord> {
    [
        (ModelFormat::F32, 40_000u64, 0.96),
        (ModelFormat::Quantized { bits: 8 }, 10_000, 0.95),
        (ModelFormat::Quantized { bits: 2 }, 2_500, 0.88),
    ]
    .into_iter()
    .enumerate()
    .map(|(variant, (format, size_bytes, accuracy))| {
        let mut metrics = BTreeMap::new();
        metrics.insert("accuracy".to_string(), accuracy);
        ModelRecord {
            id: record_id(family, variant),
            name: family_name(family),
            version: SemVer::new(1, 0, 0),
            format,
            parent: None,
            artifact: [0; 32],
            size_bytes,
            macs: 100_000,
            metrics,
            tags: vec![],
            created_ms: 0,
        }
    })
    .collect()
}

/// The benchmark's device population: `devices` devices of the default
/// class mix under the pinned fleet seed.
pub fn fleet(devices: usize) -> Fleet {
    Fleet::generate(devices, &default_mix(), FLEET_SEED)
}

/// The three executables of one family, in variant order (f32, int8,
/// int2), plus the milliseconds the two quantizations took.
pub fn executables() -> ([ExecModel; 3], f64) {
    let mut rng = TensorRng::seed(WEIGHT_SEED);
    let model = mlp(&MLP_WIDTHS, &mut rng);
    let calib = rng.uniform(&[32, MLP_WIDTHS[0]], -1.0, 1.0);
    let start = std::time::Instant::now();
    let int8 = QuantizedModel::quantize(&model, &calib, QuantScheme::Int8)
        .expect("dense mlp quantizes to int8");
    let int2 = QuantizedModel::quantize(&model, &calib, QuantScheme::Int2)
        .expect("dense mlp quantizes to int2");
    let quantize_ms = start.elapsed().as_secs_f64() * 1e3;
    (
        [
            ExecModel::F32(model),
            ExecModel::Quantized(int8),
            ExecModel::Quantized(int2),
        ],
        quantize_ms,
    )
}

/// `tenants` equal-rate tenants spread round-robin over `families`
/// catalog slots.
pub fn load_plan(
    tenants: u32,
    families: usize,
    total_rps: f64,
    duration_us: u64,
    deadline_us: u64,
    feature_dim: usize,
    seed: u64,
) -> LoadPlan {
    LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: total_rps / f64::from(tenants),
                model: family_name(i as usize % families),
                prepaid_queries: PREPAID,
                deadline_us,
            })
            .collect(),
        duration_us,
        seed,
        feature_dim,
    }
}
