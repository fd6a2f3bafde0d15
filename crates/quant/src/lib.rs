//! Model optimization for edge deployment: quantization, pruning and
//! knowledge distillation (paper §II and §III-A).
//!
//! §III-A: *"It was found however that inference can work fine with 8 bit,
//! 3 bit, 2 bit or even 1 bit (binary) weights and operations."* This crate
//! makes that claim testable:
//!
//! * [`QuantizedModel`] — post-training static quantization of dense
//!   networks to int8 / int4 / int2 with per-output-channel symmetric
//!   scales and integer accumulation, plus XNOR-popcount binary networks.
//!   Every [`QDense`] runs one integer tile: weights unpacked once into
//!   16-column panels of 4-byte k-groups, activations as `u8` operand
//!   rows (`q + 128`, corrected by `128·colsum` in the store), and an
//!   integer epilogue in the store — the identity, requantization into the
//!   next layer's operand, or dequantization to f32. Its arms (an 8 × 48
//!   `vpdpbusd` tile on AVX-512-VNNI, a `vpmaddwd` tile on AVX2, a plain
//!   loop elsewhere) follow `tensor::matmul::Isa` and agree bit for bit;
//!   see [`qtensor`].
//! * [`fake_quantize`] — weight-grid rounding for any architecture
//!   (including conv), used for quick accuracy-vs-bits sweeps and
//!   watermark-robustness attacks.
//! * [`prune`] — global magnitude pruning and CSR sparse inference.
//! * [`distill()`] — teacher→student knowledge distillation, also the
//!   building block of the §V model-extraction attack.

pub mod binary_train;
pub mod calibrate;
pub mod distill;
pub mod prune;
pub mod qmodel;
pub mod qtensor;
mod tile;

pub use binary_train::{binary_aware_finetune, export_binary, export_quantized, BinaryAwareConfig};
pub use calibrate::Calibration;
pub use distill::{distill, DistillConfig};
pub use prune::{
    apply_masks, capture_masks, finetune_pruned, magnitude_prune, sparsity_of, SparseDense,
};
pub use qmodel::{QuantScheme, QuantizedModel};
pub use qtensor::{dot_i8_portable, fake_quantize_tensor, BinaryDense, QDense, RequantPlan};

use tinymlops_nn::Sequential;

/// Errors from model optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// The architecture contains a layer the chosen scheme cannot handle.
    Unsupported(String),
    /// Calibration data was empty or mismatched.
    BadCalibration(String),
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            QuantError::BadCalibration(msg) => write!(f, "bad calibration: {msg}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// Round every Dense/Conv weight of a model onto a symmetric `bits`-bit
/// grid, per output channel ("fake quantization"). The returned model runs
/// with ordinary f32 kernels but carries only `2^bits − 1` distinct weight
/// levels per channel, which is what determines accuracy loss.
#[must_use]
pub fn fake_quantize(model: &Sequential, bits: u32) -> Sequential {
    let mut m = model.clone();
    for layer in &mut m.layers {
        for (p, _) in layer.params_mut() {
            // Quantize matrices per-row (output channel); vectors (biases)
            // are left in f32, matching common deployment practice.
            if p.shape().len() >= 2 {
                let rows = p.shape()[0];
                let cols = p.len() / rows;
                for r in 0..rows {
                    let row = &mut p.data_mut()[r * cols..(r + 1) * cols];
                    fake_quantize_tensor(row, bits);
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinymlops_nn::model::mlp;
    use tinymlops_tensor::TensorRng;

    #[test]
    fn fake_quantize_reduces_distinct_levels() {
        let mut rng = TensorRng::seed(5);
        let m = mlp(&[8, 16, 4], &mut rng);
        let q = fake_quantize(&m, 2);
        // Each row of each weight matrix has at most 2^2-1 = 3 distinct
        // nonzero magnitudes... count distinct values per first row.
        if let tinymlops_nn::Layer::Dense(d) = &q.layers[0] {
            let mut vals: Vec<i32> = d.w().row(0).iter().map(|v| (v * 1e6) as i32).collect();
            vals.sort_unstable();
            vals.dedup();
            assert!(vals.len() <= 3, "2-bit row has {} levels", vals.len());
        } else {
            panic!("expected dense layer");
        }
    }

    #[test]
    fn fake_quantize_high_bits_is_nearly_lossless() {
        let mut rng = TensorRng::seed(6);
        let m = mlp(&[8, 8, 3], &mut rng);
        let q = fake_quantize(&m, 8);
        let x = rng.uniform(&[4, 8], -1.0, 1.0);
        let a = m.forward(&x);
        let b = q.forward(&x);
        for (u, v) in a.data().iter().zip(b.data()) {
            assert!((u - v).abs() < 0.05, "{u} vs {v}");
        }
    }
}
