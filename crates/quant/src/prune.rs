//! Magnitude pruning and sparse inference.
//!
//! §II lists pruning among the standard TinyML compression techniques; the
//! registry's optimization pipeline (§III-A) generates pruned variants, and
//! §V uses pruning as a watermark-removal attack.

use serde::{Deserialize, Serialize};
use tinymlops_nn::Sequential;
use tinymlops_tensor::Tensor;

/// Zero out the smallest-magnitude fraction `sparsity ∈ [0,1)` of weights
/// across all Dense/Conv matrices (global threshold; biases untouched).
/// Returns the number of weights zeroed.
pub fn magnitude_prune(model: &mut Sequential, sparsity: f32) -> usize {
    assert!((0.0..1.0).contains(&sparsity), "sparsity in [0,1)");
    // Collect all weight magnitudes to find the global threshold.
    let mut mags: Vec<f32> = Vec::new();
    for l in &model.layers {
        for p in l.params() {
            if p.shape().len() >= 2 {
                mags.extend(p.data().iter().map(|v| v.abs()));
            }
        }
    }
    if mags.is_empty() {
        return 0;
    }
    let k = ((mags.len() as f32) * sparsity) as usize;
    if k == 0 {
        return 0;
    }
    mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let threshold = mags[k - 1];
    let mut zeroed = 0;
    for l in &mut model.layers {
        for (p, _) in l.params_mut() {
            if p.shape().len() >= 2 {
                for v in p.data_mut() {
                    if v.abs() <= threshold && *v != 0.0 {
                        *v = 0.0;
                        zeroed += 1;
                    }
                }
            }
        }
    }
    zeroed
}

/// Fraction of exactly-zero weights among all weight matrices.
#[must_use]
pub fn sparsity_of(model: &Sequential) -> f32 {
    let mut zeros = 0usize;
    let mut total = 0usize;
    for l in &model.layers {
        for p in l.params() {
            if p.shape().len() >= 2 {
                total += p.len();
                zeros += p.data().iter().filter(|&&v| v == 0.0).count();
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        zeros as f32 / total as f32
    }
}

/// Boolean masks of surviving weights, one per weight matrix (used to keep
/// pruning fixed during fine-tuning).
#[must_use]
pub fn capture_masks(model: &Sequential) -> Vec<Vec<bool>> {
    let mut masks = Vec::new();
    for l in &model.layers {
        for p in l.params() {
            if p.shape().len() >= 2 {
                masks.push(p.data().iter().map(|&v| v != 0.0).collect());
            }
        }
    }
    masks
}

/// Re-zero masked weights (call after each optimizer step while
/// fine-tuning a pruned model).
pub fn apply_masks(model: &mut Sequential, masks: &[Vec<bool>]) {
    let mut i = 0;
    for l in &mut model.layers {
        for (p, _) in l.params_mut() {
            if p.shape().len() >= 2 {
                for (v, &keep) in p.data_mut().iter_mut().zip(&masks[i]) {
                    if !keep {
                        *v = 0.0;
                    }
                }
                i += 1;
            }
        }
    }
}

/// Fine-tune a pruned model for `epochs` while holding the pruned weights
/// at zero — the standard prune-then-finetune recovery step the registry's
/// optimization pipeline runs (§III-A).
pub fn finetune_pruned(
    model: &mut Sequential,
    data: &tinymlops_nn::Dataset,
    epochs: usize,
    lr: f32,
    seed: u64,
) {
    let masks = capture_masks(model);
    let mut opt = tinymlops_nn::Adam::new(lr);
    for e in 0..epochs {
        for (x, y) in data.batches(32, seed.wrapping_add(e as u64)) {
            model.zero_grad();
            let logits = model.forward_train(&x);
            let (_, grad) = tinymlops_nn::loss::cross_entropy(&logits, &y);
            model.backward(&grad);
            tinymlops_nn::Optimizer::step(&mut opt, model);
            apply_masks(model, &masks);
        }
    }
}

/// A dense layer stored in compressed-sparse-row form for pruned models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SparseDense {
    /// Row start offsets into `cols`/`vals` (length `out_dim + 1`).
    pub row_ptr: Vec<u32>,
    /// Column indices of nonzeros.
    pub cols: Vec<u32>,
    /// Nonzero values.
    pub vals: Vec<f32>,
    /// Bias per output.
    pub bias: Vec<f32>,
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
}

impl SparseDense {
    /// Compress an f32 weight matrix `[out,in]` into CSR.
    #[must_use]
    pub fn from_dense(w: &Tensor, bias: &Tensor) -> Self {
        let (out_dim, in_dim) = (w.shape()[0], w.shape()[1]);
        let mut row_ptr = Vec::with_capacity(out_dim + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for r in 0..out_dim {
            for (c, &v) in w.row(r).iter().enumerate() {
                if v != 0.0 {
                    cols.push(c as u32);
                    vals.push(v);
                }
            }
            row_ptr.push(cols.len() as u32);
        }
        SparseDense {
            row_ptr,
            cols,
            vals,
            bias: bias.data().to_vec(),
            in_dim,
            out_dim,
        }
    }

    /// Number of stored nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Sparse forward pass `x [batch,in] → y [batch,out]`.
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        assert_eq!(x.cols(), self.in_dim, "SparseDense input width");
        let mut out = vec![0.0f32; batch * self.out_dim];
        for b in 0..batch {
            let xrow = x.row(b);
            for r in 0..self.out_dim {
                let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                let mut acc = self.bias[r];
                for i in s..e {
                    acc += self.vals[i] * xrow[self.cols[i] as usize];
                }
                out[b * self.out_dim + r] = acc;
            }
        }
        Tensor::from_vec(out, &[batch, self.out_dim])
    }

    /// Storage bytes in CSR form (4-byte indices + values + bias).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.row_ptr.len() * 4 + self.cols.len() * 4 + self.vals.len() * 4 + self.bias.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinymlops_nn::model::mlp;
    use tinymlops_nn::Layer;
    use tinymlops_tensor::TensorRng;

    #[test]
    fn prune_hits_requested_sparsity() {
        let mut rng = TensorRng::seed(0);
        let mut m = mlp(&[32, 64, 10], &mut rng);
        magnitude_prune(&mut m, 0.7);
        let s = sparsity_of(&m);
        assert!((s - 0.7).abs() < 0.02, "sparsity {s}");
    }

    #[test]
    fn prune_removes_smallest_weights_first() {
        let mut rng = TensorRng::seed(1);
        let mut m = mlp(&[16, 16], &mut rng);
        let before = m.flat_params();
        magnitude_prune(&mut m, 0.5);
        let after = m.flat_params();
        // Weights that survived must be (weakly) larger in magnitude than
        // any weight that was zeroed.
        let zeroed_max = before
            .iter()
            .zip(&after)
            .filter(|(_, &a)| a == 0.0)
            .map(|(&b, _)| b.abs())
            .fold(0.0f32, f32::max);
        let kept_min = after
            .iter()
            .filter(|&&a| a != 0.0)
            .map(|a| a.abs())
            .fold(f32::INFINITY, f32::min);
        assert!(kept_min >= zeroed_max - 1e-6, "{kept_min} vs {zeroed_max}");
    }

    #[test]
    fn zero_sparsity_is_identity() {
        let mut rng = TensorRng::seed(2);
        let mut m = mlp(&[8, 8], &mut rng);
        let before = m.flat_params();
        assert_eq!(magnitude_prune(&mut m, 0.0), 0);
        assert_eq!(m.flat_params(), before);
    }

    #[test]
    fn csr_matches_dense_forward() {
        let mut rng = TensorRng::seed(3);
        let mut m = mlp(&[20, 12], &mut rng);
        magnitude_prune(&mut m, 0.6);
        let (w, b) = match &m.layers[0] {
            Layer::Dense(d) => (d.w().clone(), d.b.clone()),
            _ => panic!("dense expected"),
        };
        let sp = SparseDense::from_dense(&w, &b);
        let x = rng.uniform(&[5, 20], -1.0, 1.0);
        let dense_y = x.matmul_nt(&w).unwrap().add_row_vector(&b).unwrap();
        let sparse_y = sp.forward(&x);
        for (a, c) in dense_y.data().iter().zip(sparse_y.data()) {
            assert!((a - c).abs() < 1e-5);
        }
    }

    #[test]
    fn csr_size_beats_dense_at_high_sparsity() {
        let mut rng = TensorRng::seed(4);
        let mut m = mlp(&[64, 64], &mut rng);
        magnitude_prune(&mut m, 0.9);
        if let Layer::Dense(d) = &m.layers[0] {
            let sp = SparseDense::from_dense(d.w(), &d.b);
            assert!(
                sp.size_bytes() < 64 * 64 * 4,
                "CSR {} bytes",
                sp.size_bytes()
            );
            assert!((sp.nnz() as f32) < 0.15 * 64.0 * 64.0);
        }
    }

    #[test]
    fn pruned_model_keeps_most_accuracy() {
        use tinymlops_nn::data::synth_digits;
        use tinymlops_nn::train::{evaluate, fit, FitConfig};
        let data = synth_digits(1000, 0.08, 44);
        let (train, test) = data.split(0.85, 0);
        let mut rng = TensorRng::seed(5);
        let mut model = mlp(&[64, 32, 10], &mut rng);
        let mut opt = tinymlops_nn::Adam::new(0.005);
        fit(
            &mut model,
            &train,
            &mut opt,
            &FitConfig {
                epochs: 15,
                batch_size: 32,
                ..Default::default()
            },
        );
        let base = evaluate(&model, &test);
        let mut pruned = model.clone();
        magnitude_prune(&mut pruned, 0.5);
        let raw_acc = evaluate(&pruned, &test);
        finetune_pruned(&mut pruned, &train, 3, 0.002, 9);
        let tuned_acc = evaluate(&pruned, &test);
        // Fine-tuning must keep the sparsity and recover most accuracy.
        assert!(
            sparsity_of(&pruned) > 0.45,
            "mask held: {}",
            sparsity_of(&pruned)
        );
        assert!(
            tuned_acc > base - 0.05,
            "50% prune+finetune: {base} → raw {raw_acc} → tuned {tuned_acc}"
        );
        assert!(tuned_acc >= raw_acc - 0.02, "finetune should not hurt");
    }
}
