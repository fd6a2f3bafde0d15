//! The [`Sequential`] model container.

use crate::layer::{ActCache, Layer};
use crate::NnError;
use serde::{Deserialize, Serialize};
use tinymlops_tensor::Tensor;

/// A feed-forward stack of layers.
///
/// ```
/// use tinymlops_nn::{Sequential, Layer, Dense};
/// use tinymlops_tensor::{Tensor, TensorRng};
/// let mut rng = TensorRng::seed(0);
/// let model = Sequential::new(vec![
///     Layer::Dense(Dense::new(4, 8, &mut rng)),
///     Layer::Relu,
///     Layer::Dense(Dense::new(8, 3, &mut rng)),
/// ]);
/// let logits = model.forward(&Tensor::zeros(&[2, 4]));
/// assert_eq!(logits.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    /// The layer stack, applied in order.
    pub layers: Vec<Layer>,
    #[serde(skip)]
    caches: Vec<ActCache>,
}

impl Sequential {
    /// Build a model from layers.
    #[must_use]
    pub fn new(layers: Vec<Layer>) -> Self {
        let caches = layers.iter().map(|_| ActCache::default()).collect();
        Sequential { layers, caches }
    }

    /// Inference forward pass (dropout off, no caches written).
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        run(&self.layers, x)
    }

    /// Build every dense layer's prepared panels now (model install)
    /// instead of on the first batch that needs them.
    pub fn prepare(&self) {
        for l in &self.layers {
            if let Layer::Dense(d) = l {
                d.prepare();
            }
        }
    }

    /// Forward pass returning every intermediate activation (input first,
    /// logits last) — used by the edge/cloud split solver and distillation.
    #[must_use]
    pub fn forward_collect(&self, x: &Tensor) -> Vec<Tensor> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.clone());
        for l in &self.layers {
            let next = l.forward(acts.last().expect("non-empty"));
            acts.push(next);
        }
        acts
    }

    /// Run only layers `[from, to)` — the device side or cloud side of a
    /// split deployment (§IV "split a model between edge and cloud").
    #[must_use]
    pub fn forward_range(&self, x: &Tensor, from: usize, to: usize) -> Tensor {
        run(&self.layers[from..to], x)
    }

    /// Training forward pass; caches activations for [`Sequential::backward`].
    pub fn forward_train(&mut self, x: &Tensor) -> Tensor {
        if self.caches.len() != self.layers.len() {
            self.caches = self.layers.iter().map(|_| ActCache::default()).collect();
        }
        let mut h = x.clone();
        for (l, c) in self.layers.iter_mut().zip(self.caches.iter_mut()) {
            h = l.forward_train(&h, c);
        }
        h
    }

    /// Backpropagate `grad_logits`, accumulating parameter gradients.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        let mut g = grad_logits.clone();
        for (l, c) in self
            .layers
            .iter_mut()
            .rev()
            .zip(self.caches.iter_mut().rev())
        {
            g = l.backward(&g, c);
        }
    }

    /// Clear all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            for (_, g) in l.params_mut() {
                *g = None;
            }
        }
    }

    /// Class prediction for a batch: row-wise argmax over logits.
    #[must_use]
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// Softmax probabilities for a batch.
    #[must_use]
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        self.forward(x).softmax_rows()
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.params().iter().map(|p| p.len()).sum::<usize>())
            .sum()
    }

    /// All parameters flattened into one vector (stable order).
    #[must_use]
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            for p in l.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Load parameters from a flat vector (inverse of
    /// [`Sequential::flat_params`]).
    pub fn set_flat_params(&mut self, flat: &[f32]) -> Result<(), NnError> {
        if flat.len() != self.num_params() {
            return Err(NnError::ShapeMismatch(format!(
                "flat params: expected {}, got {}",
                self.num_params(),
                flat.len()
            )));
        }
        let mut off = 0;
        for l in &mut self.layers {
            for (p, _) in l.params_mut() {
                let n = p.len();
                p.data_mut().copy_from_slice(&flat[off..off + n]);
                off += n;
            }
        }
        Ok(())
    }

    /// All accumulated gradients flattened (zeros where a parameter has no
    /// gradient yet). Order matches [`Sequential::flat_params`].
    #[must_use]
    pub fn flat_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &mut self.layers {
            for (p, g) in l.params_mut() {
                match g {
                    Some(t) => out.extend_from_slice(t.data()),
                    None => out.extend(std::iter::repeat_n(0.0, p.len())),
                }
            }
        }
        out
    }

    /// Serialize to a compact JSON byte blob (architecture + weights).
    pub fn to_bytes(&self) -> Result<Vec<u8>, NnError> {
        serde_json::to_vec(self).map_err(|e| NnError::Serialization(e.to_string()))
    }

    /// Deserialize a model previously produced by [`Sequential::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, NnError> {
        let mut m: Sequential =
            serde_json::from_slice(bytes).map_err(|e| NnError::Serialization(e.to_string()))?;
        m.caches = m.layers.iter().map(|_| ActCache::default()).collect();
        Ok(m)
    }

    /// Approximate in-memory size of the weights in bytes (f32 storage).
    #[must_use]
    pub fn param_bytes(&self) -> usize {
        self.num_params() * 4
    }
}

/// Inference through `layers`: the first reads `x`, each later one
/// consumes its predecessor's output, so activations overwrite it in place.
/// A `Dense` followed by a `Relu` runs as one step, the ReLU applied as the
/// GEMM stores its output.
fn run(layers: &[Layer], x: &Tensor) -> Tensor {
    let mut h: Option<Tensor> = None;
    let mut rest = layers;
    while let Some((layer, tail)) = rest.split_first() {
        let fuse = matches!((layer, tail.first()), (Layer::Dense(_), Some(Layer::Relu)));
        h = Some(match (layer, h.take()) {
            (Layer::Dense(d), h) => d.forward(h.as_ref().unwrap_or(x), fuse),
            (_, Some(h)) => layer.forward_owned(h),
            (_, None) => layer.forward(x),
        });
        rest = &tail[usize::from(fuse)..];
    }
    h.unwrap_or_else(|| x.clone())
}

/// Convenience constructor: an MLP with ReLU activations between the given
/// layer widths, e.g. `mlp(&[64, 32, 10], rng)` = Dense(64→32)+ReLU+Dense(32→10).
#[must_use]
pub fn mlp(widths: &[usize], rng: &mut tinymlops_tensor::TensorRng) -> Sequential {
    assert!(
        widths.len() >= 2,
        "mlp needs at least input and output widths"
    );
    let mut layers = Vec::new();
    for i in 0..widths.len() - 1 {
        layers.push(Layer::Dense(crate::layer::Dense::new(
            widths[i],
            widths[i + 1],
            rng,
        )));
        if i + 2 < widths.len() {
            layers.push(Layer::Relu);
        }
    }
    Sequential::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Dense;
    use tinymlops_tensor::TensorRng;

    fn small_model(seed: u64) -> Sequential {
        let mut rng = TensorRng::seed(seed);
        mlp(&[4, 8, 3], &mut rng)
    }

    #[test]
    fn forward_shape() {
        let m = small_model(1);
        let y = m.forward(&Tensor::zeros(&[5, 4]));
        assert_eq!(y.shape(), &[5, 3]);
    }

    #[test]
    fn forward_collect_has_all_activations() {
        let m = small_model(1);
        let acts = m.forward_collect(&Tensor::zeros(&[2, 4]));
        assert_eq!(acts.len(), m.layers.len() + 1);
        assert_eq!(acts.last().unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn forward_range_composes_to_full_forward() {
        let m = small_model(2);
        let x = TensorRng::seed(7).uniform(&[3, 4], -1.0, 1.0);
        let mid = m.forward_range(&x, 0, 2);
        let out = m.forward_range(&mid, 2, m.layers.len());
        let full = m.forward(&x);
        for (a, b) in out.data().iter().zip(full.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn collect_and_range_keep_the_dense_output_a_relu_fuses_into() {
        // 8 rows take the tiles, 2 rows the `dot` sweep. `forward` fuses
        // each Dense with the Relu after it; `forward_collect` and a range
        // ending at a Dense must still return that Dense's own output,
        // negatives and all, bit for bit what training's forward computes.
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = TensorRng::seed(10);
        let m = mlp(&[64, 64, 64, 10], &mut rng);
        for batch in [8, 2] {
            let x = rng.uniform(&[batch, 64], -1.0, 1.0);
            let acts = m.forward_collect(&x);
            let Layer::Dense(d) = &m.layers[0] else {
                unreachable!("mlp starts with a Dense")
            };
            let mut dense = x.matmul_nt(d.w()).unwrap();
            for row in dense.data_mut().chunks_exact_mut(64) {
                for (v, b) in row.iter_mut().zip(d.b.data()) {
                    *v += b;
                }
            }
            assert_eq!(bits(&acts[1]), bits(&dense), "batch {batch}");
            assert!(acts[1].data().iter().any(|&v| v < 0.0));
            let mut relu = dense.clone();
            relu.map_inplace(|v| v.max(0.0));
            assert_eq!(bits(&acts[2]), bits(&relu), "batch {batch}");
            assert_eq!(bits(&m.forward_range(&x, 0, 1)), bits(&dense));
            assert_eq!(bits(&m.forward_range(&x, 0, 2)), bits(&relu));
            assert_eq!(bits(&m.forward_range(&acts[2], 2, 3)), bits(&acts[3]));
            let out = acts.last().unwrap();
            assert_eq!(bits(&m.forward(&x)), bits(out));
            assert_eq!(bits(&m.clone().forward_train(&x)), bits(out));
        }
    }

    #[test]
    fn flat_params_round_trip() {
        let mut m = small_model(3);
        let flat = m.flat_params();
        assert_eq!(flat.len(), m.num_params());
        let mut scaled: Vec<f32> = flat.iter().map(|v| v * 2.0).collect();
        m.set_flat_params(&scaled).unwrap();
        assert_eq!(m.flat_params(), scaled);
        scaled.push(0.0);
        assert!(m.set_flat_params(&scaled).is_err());
    }

    #[test]
    fn num_params_counts_dense() {
        let m = small_model(4);
        assert_eq!(m.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn serialization_round_trip_preserves_outputs() {
        let m = small_model(5);
        let x = TensorRng::seed(9).uniform(&[2, 4], -1.0, 1.0);
        let bytes = m.to_bytes().unwrap();
        let m2 = Sequential::from_bytes(&bytes).unwrap();
        assert_eq!(m.forward(&x), m2.forward(&x));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Sequential::from_bytes(b"not json").is_err());
    }

    #[test]
    fn training_reduces_loss_on_tiny_problem() {
        // Learn y = argmax over a fixed linear map: sanity-check the full
        // forward/backward/step loop end to end.
        let mut rng = TensorRng::seed(6);
        let mut m = Sequential::new(vec![Layer::Dense(Dense::new(2, 2, &mut rng))]);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.0], &[4, 2]);
        let y = vec![0usize, 1, 1, 1];
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            m.zero_grad();
            let logits = m.forward_train(&x);
            let (loss, grad) = crate::loss::cross_entropy(&logits, &y);
            m.backward(&grad);
            // Plain SGD step.
            for l in &mut m.layers {
                for (p, g) in l.params_mut() {
                    if let Some(g) = g {
                        p.axpy(-0.5, g).unwrap();
                    }
                }
            }
            last = loss;
        }
        assert!(last < 0.1, "loss should shrink, got {last}");
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut m = small_model(8);
        let x = Tensor::zeros(&[1, 4]);
        let y = m.forward_train(&x);
        m.backward(&y);
        assert!(
            m.flat_grads().iter().any(|&g| g != 0.0) || m.flat_grads().iter().all(|&g| g == 0.0)
        );
        m.zero_grad();
        assert!(m.flat_grads().iter().all(|&g| g == 0.0));
    }
}
