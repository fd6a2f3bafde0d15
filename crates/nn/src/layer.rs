//! Core layers: dense, activations, dropout, flatten.
//!
//! The [`Layer`] enum dispatches forward/backward without trait objects so
//! models stay `Clone + Serialize`. Each variant keeps its own training
//! cache (`#[serde(skip)]`) — a serialized model carries only weights.

use crate::conv::{Conv2d, MaxPool2d};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use tinymlops_tensor::matmul::{self, Epilogue, PackedB};
use tinymlops_tensor::{Tensor, TensorRng};

/// A fully-connected layer computing `y = x·Wᵀ + b`.
///
/// `x: [batch, in]`, `W: [out, in]`, `b: [out]`, `y: [batch, out]`.
///
/// Inference multiplies against a *prepared form* of `W` — its packed
/// GEMM panels ([`PackedB`]), built on first need and shared by clones —
/// so a served model packs its weights once, not once per batch. The
/// panels are a snapshot of `W`, which is why `W` is private: every
/// mutable route to it ([`Dense::w_mut`], [`Layer::params_mut`]) drops
/// them, and a deserialized layer starts without any.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: Tensor,
    /// Bias vector, `[out]`.
    pub b: Tensor,
    /// Accumulated weight gradient.
    #[serde(skip)]
    pub grad_w: Option<Tensor>,
    /// Accumulated bias gradient.
    #[serde(skip)]
    pub grad_b: Option<Tensor>,
    #[serde(skip)]
    cache_input: Option<Tensor>,
    #[serde(skip)]
    panels: OnceLock<Arc<PackedB>>,
}

impl Dense {
    /// Kaiming-initialized dense layer.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        Dense::from_params(rng.kaiming(out_dim, in_dim), Tensor::zeros(&[out_dim]))
    }

    /// Construct from explicit weights (tests, deserialization, attacks).
    #[must_use]
    pub fn from_params(w: Tensor, b: Tensor) -> Self {
        assert_eq!(w.shape().len(), 2, "Dense weight must be a matrix");
        assert_eq!(w.shape()[0], b.len(), "bias length must equal out_dim");
        Dense {
            w,
            b,
            grad_w: None,
            grad_b: None,
            cache_input: None,
            panels: OnceLock::new(),
        }
    }

    /// Weight matrix, `[out, in]`.
    #[must_use]
    pub fn w(&self) -> &Tensor {
        &self.w
    }

    /// Mutable weight matrix. Drops the prepared panels: the next
    /// inference forward re-packs from whatever is written here.
    pub fn w_mut(&mut self) -> &mut Tensor {
        self.panels = OnceLock::new();
        &mut self.w
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Build the prepared panels now rather than on the first batch. Every
    /// layer has them: one narrower than a panel (a classifier head) is a
    /// single zero-padded panel per K-block.
    pub fn prepare(&self) {
        self.panels();
    }

    fn panels(&self) -> &PackedB {
        self.panels.get_or_init(|| {
            Arc::new(PackedB::from_transposed(
                self.w.data(),
                self.out_dim(),
                self.in_dim(),
            ))
        })
    }

    /// `x·Wᵀ + b` over the prepared panels — then a ReLU if `relu`, the
    /// bias and the ReLU both fused into the GEMM's store — rounded per
    /// shape as [`Tensor::matmul_nt`] rounds it: tiles where it takes the
    /// tiles, `dot`'s chains where it streams rows. So it is bit-identical
    /// to [`Dense::forward_train`] (then [`Layer::Relu`]) without reading
    /// `W`.
    pub(crate) fn forward(&self, x: &Tensor, relu: bool) -> Tensor {
        let (m, k, n) = (x.rows(), self.in_dim(), self.out_dim());
        assert_eq!(x.cols(), k, "dense shape checked by caller");
        let mut y = vec![0.0f32; m * n];
        let ep = Epilogue {
            bias: Some(self.b.data()),
            relu,
        };
        if matmul::nt_uses_panels(m, k, n) {
            matmul::gemm_prepacked(x.data(), self.panels(), &mut y, m, ep);
        } else {
            matmul::gemm_prepacked_dot(x.data(), self.panels(), &mut y, m, ep);
        }
        Tensor::from_vec(y, &[m, n])
    }

    fn add_bias(&self, y: &mut [f32]) {
        for row in y.chunks_exact_mut(self.b.len()) {
            for (v, b) in row.iter_mut().zip(self.b.data()) {
                *v += b;
            }
        }
    }

    /// Training forward: `W` changes every step, so this packs per call
    /// (and leaves the inference panels alone).
    fn forward_train(&mut self, x: &Tensor) -> Tensor {
        self.cache_input = Some(x.clone());
        let mut y = x.matmul_nt(&self.w).expect("dense shape checked by caller");
        self.add_bias(y.data_mut());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cache_input
            .take()
            .expect("backward called without forward_train");
        // grad_w[out,in] = grad_outᵀ[out,batch] · x[batch,in]
        let gw = grad_out.transpose().matmul(&x).expect("grad_w shapes");
        let gb = grad_out.sum_rows();
        accumulate(&mut self.grad_w, gw);
        accumulate(&mut self.grad_b, gb);
        // grad_in[batch,in] = grad_out[batch,out] · W[out,in]
        grad_out.matmul(&self.w).expect("grad_in shapes")
    }

    /// An optimizer step writes `W` through these.
    fn params_mut(&mut self) -> Vec<(&mut Tensor, &mut Option<Tensor>)> {
        self.panels = OnceLock::new();
        vec![
            (&mut self.w, &mut self.grad_w),
            (&mut self.b, &mut self.grad_b),
        ]
    }
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        Some(acc) => acc.axpy(1.0, &g).expect("gradient shape invariant"),
        None => *slot = Some(g),
    }
}

/// Inverted dropout: scales activations by `1/(1-p)` at training time so
/// inference is a no-op.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    /// Drop probability in `[0,1)`.
    pub p: f32,
    #[serde(skip)]
    mask: Option<Tensor>,
    /// Deterministic counter-based mask seed (advanced every batch).
    pub seed: u64,
    #[serde(skip)]
    counter: u64,
}

impl Dropout {
    /// Dropout with drop-probability `p`.
    #[must_use]
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Dropout {
            p,
            mask: None,
            seed,
            counter: 0,
        }
    }

    fn forward_train(&mut self, x: &Tensor) -> Tensor {
        let mut rng = TensorRng::seed(self.seed.wrapping_add(self.counter));
        self.counter = self.counter.wrapping_add(1);
        let keep = 1.0 - self.p;
        let mask = Tensor::from_vec(
            (0..x.len())
                .map(|_| {
                    if rng.next_f32() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                })
                .collect(),
            x.shape(),
        );
        let y = x.mul(&mask).expect("mask shape matches input");
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward without forward_train");
        grad_out.mul(&mask).expect("mask shape matches grad")
    }
}

/// A network layer. Forward semantics are per-variant; see each struct.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(Dense),
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Squaring activation `x ↦ x²` — the arithmetic-friendly activation
    /// used by SafetyNets-style verifiable networks (§VI).
    Square,
    /// Inverted dropout (training only).
    Dropout(Dropout),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// 2×2 max pooling.
    MaxPool2d(MaxPool2d),
    /// Collapse `[batch, …]` to `[batch, features]`.
    Flatten,
}

/// Activation cache for stateless layers (input needed by backward).
#[derive(Debug, Clone, Default)]
pub struct ActCache {
    input: Option<Tensor>,
}

impl Layer {
    /// Inference-mode forward pass (dropout disabled, no caches).
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        match self {
            Layer::Dense(d) => d.forward(x, false),
            Layer::Conv2d(c) => c.forward(x),
            Layer::MaxPool2d(p) => p.forward(x),
            _ => self.forward_owned(x.clone()),
        }
    }

    /// [`Layer::forward`] on an activation the caller is done with:
    /// element-wise and shape-only layers work in its buffer.
    pub(crate) fn forward_owned(&self, mut h: Tensor) -> Tensor {
        match self {
            Layer::Dense(_) | Layer::Conv2d(_) | Layer::MaxPool2d(_) => return self.forward(&h),
            Layer::Relu => h.map_inplace(|v| v.max(0.0)),
            Layer::LeakyRelu(a) => {
                let a = *a;
                h.map_inplace(move |v| if v >= 0.0 { v } else { a * v });
            }
            Layer::Tanh => h.map_inplace(f32::tanh),
            Layer::Sigmoid => h.map_inplace(|v| 1.0 / (1.0 + (-v).exp())),
            Layer::Square => h.map_inplace(|v| v * v),
            Layer::Dropout(_) => {}
            Layer::Flatten => {
                let batch = h.rows();
                let feat = h.len() / batch.max(1);
                return Tensor::from_vec(h.into_vec(), &[batch, feat]);
            }
        }
        h
    }

    /// Training-mode forward pass; caches whatever backward needs.
    pub fn forward_train(&mut self, x: &Tensor, cache: &mut ActCache) -> Tensor {
        match self {
            Layer::Dense(d) => d.forward_train(x),
            Layer::Dropout(d) => d.forward_train(x),
            Layer::Conv2d(c) => c.forward_train(x),
            Layer::MaxPool2d(p) => p.forward_train(x),
            Layer::Relu | Layer::LeakyRelu(_) | Layer::Tanh | Layer::Sigmoid | Layer::Square => {
                cache.input = Some(x.clone());
                self.forward(x)
            }
            Layer::Flatten => {
                cache.input = Some(x.clone());
                self.forward(x)
            }
        }
    }

    /// Backward pass: gradient w.r.t. input, accumulating parameter grads.
    pub fn backward(&mut self, grad_out: &Tensor, cache: &mut ActCache) -> Tensor {
        match self {
            Layer::Dense(d) => d.backward(grad_out),
            Layer::Dropout(d) => d.backward(grad_out),
            Layer::Conv2d(c) => c.backward(grad_out),
            Layer::MaxPool2d(p) => p.backward(grad_out),
            Layer::Relu => {
                let x = cache.input.take().expect("relu cache");
                Tensor::from_vec(
                    x.data()
                        .iter()
                        .zip(grad_out.data())
                        .map(|(&xi, &g)| if xi > 0.0 { g } else { 0.0 })
                        .collect(),
                    grad_out.shape(),
                )
            }
            Layer::LeakyRelu(a) => {
                let a = *a;
                let x = cache.input.take().expect("leaky relu cache");
                Tensor::from_vec(
                    x.data()
                        .iter()
                        .zip(grad_out.data())
                        .map(|(&xi, &g)| if xi >= 0.0 { g } else { a * g })
                        .collect(),
                    grad_out.shape(),
                )
            }
            Layer::Tanh => {
                let x = cache.input.take().expect("tanh cache");
                Tensor::from_vec(
                    x.data()
                        .iter()
                        .zip(grad_out.data())
                        .map(|(&xi, &g)| {
                            let t = xi.tanh();
                            g * (1.0 - t * t)
                        })
                        .collect(),
                    grad_out.shape(),
                )
            }
            Layer::Sigmoid => {
                let x = cache.input.take().expect("sigmoid cache");
                Tensor::from_vec(
                    x.data()
                        .iter()
                        .zip(grad_out.data())
                        .map(|(&xi, &g)| {
                            let s = 1.0 / (1.0 + (-xi).exp());
                            g * s * (1.0 - s)
                        })
                        .collect(),
                    grad_out.shape(),
                )
            }
            Layer::Square => {
                let x = cache.input.take().expect("square cache");
                Tensor::from_vec(
                    x.data()
                        .iter()
                        .zip(grad_out.data())
                        .map(|(&xi, &g)| 2.0 * xi * g)
                        .collect(),
                    grad_out.shape(),
                )
            }
            Layer::Flatten => {
                let x = cache.input.take().expect("flatten cache");
                grad_out
                    .reshape(x.shape())
                    .expect("flatten backward preserves count")
            }
        }
    }

    /// Mutable references to this layer's parameters and their gradient
    /// slots, in a stable order.
    pub fn params_mut(&mut self) -> Vec<(&mut Tensor, &mut Option<Tensor>)> {
        match self {
            Layer::Dense(d) => d.params_mut(),
            Layer::Conv2d(c) => c.params_mut(),
            _ => vec![],
        }
    }

    /// Immutable references to this layer's parameters.
    #[must_use]
    pub fn params(&self) -> Vec<&Tensor> {
        match self {
            Layer::Dense(d) => vec![&d.w, &d.b],
            Layer::Conv2d(c) => c.params(),
            _ => vec![],
        }
    }

    /// Short human-readable layer name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Dense(_) => "dense",
            Layer::Relu => "relu",
            Layer::LeakyRelu(_) => "leaky_relu",
            Layer::Tanh => "tanh",
            Layer::Sigmoid => "sigmoid",
            Layer::Square => "square",
            Layer::Dropout(_) => "dropout",
            Layer::Conv2d(_) => "conv2d",
            Layer::MaxPool2d(_) => "maxpool2d",
            Layer::Flatten => "flatten",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TensorRng {
        TensorRng::seed(99)
    }

    #[test]
    fn dense_forward_known_values() {
        let d = Dense::from_params(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]),
            Tensor::vector(&[1.0, -1.0]),
        );
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]);
        let y = Layer::Dense(d).forward(&x);
        assert_eq!(y.data(), &[3.0, 2.0]);
    }

    #[test]
    fn relu_clamps_negative() {
        let y = Layer::Relu.forward(&Tensor::vector(&[-1.0, 2.0]));
        assert_eq!(y.data(), &[0.0, 2.0]);
    }

    #[test]
    fn square_activation() {
        let y = Layer::Square.forward(&Tensor::vector(&[-3.0, 2.0]));
        assert_eq!(y.data(), &[9.0, 4.0]);
    }

    /// Numeric gradient check for a Dense layer: perturb each weight and
    /// compare the analytic gradient to finite differences of a scalar loss.
    #[test]
    fn dense_gradient_check() {
        let mut r = rng();
        let mut layer = Layer::Dense(Dense::new(3, 2, &mut r));
        let x = r.uniform(&[4, 3], -1.0, 1.0);
        // Loss = sum(y²)/2 ⇒ grad_out = y.
        let mut cache = ActCache::default();
        let y = layer.forward_train(&x, &mut cache);
        let _ = layer.backward(&y, &mut cache);
        let analytic = match &layer {
            Layer::Dense(d) => d.grad_w.clone().unwrap(),
            _ => unreachable!(),
        };
        let eps = 1e-3;
        if let Layer::Dense(d) = &mut layer {
            for idx in 0..d.w().len() {
                let orig = d.w().data()[idx];
                d.w_mut().data_mut()[idx] = orig + eps;
                let y_plus = Layer::Dense(d.clone()).forward(&x);
                let l_plus: f32 = y_plus.data().iter().map(|v| v * v).sum::<f32>() / 2.0;
                d.w_mut().data_mut()[idx] = orig - eps;
                let y_minus = Layer::Dense(d.clone()).forward(&x);
                let l_minus: f32 = y_minus.data().iter().map(|v| v * v).sum::<f32>() / 2.0;
                d.w_mut().data_mut()[idx] = orig;
                let numeric = (l_plus - l_minus) / (2.0 * eps);
                let got = analytic.data()[idx];
                assert!(
                    (numeric - got).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "dw[{idx}] numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn activation_gradient_checks() {
        let acts = [
            Layer::Relu,
            Layer::LeakyRelu(0.1),
            Layer::Tanh,
            Layer::Sigmoid,
            Layer::Square,
        ];
        let x = Tensor::vector(&[0.3, -0.7, 1.2, 0.01]);
        for mut layer in acts {
            let mut cache = ActCache::default();
            let y = layer.forward_train(&x, &mut cache);
            let grad_in = layer.backward(&Tensor::full(&[4], 1.0), &mut cache);
            let eps = 1e-3;
            for i in 0..x.len() {
                // Skip kink points of piecewise-linear activations.
                if x.data()[i].abs() < 2.0 * eps {
                    continue;
                }
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let numeric = (layer.forward(&xp).sum() - layer.forward(&xm).sum()) / (2.0 * eps);
                assert!(
                    (numeric - grad_in.data()[i]).abs() < 1e-2,
                    "{} grad[{i}]: numeric {numeric} vs {}",
                    layer.name(),
                    grad_in.data()[i]
                );
            }
            let _ = y;
        }
    }

    #[test]
    fn dropout_inference_is_identity() {
        let d = Layer::Dropout(Dropout::new(0.5, 7));
        let x = Tensor::vector(&[1.0, 2.0, 3.0]);
        assert_eq!(d.forward(&x), x);
    }

    #[test]
    fn dropout_train_scales_survivors() {
        let mut d = Layer::Dropout(Dropout::new(0.5, 7));
        let x = Tensor::full(&[1000], 1.0);
        let mut cache = ActCache::default();
        let y = d.forward_train(&x, &mut cache);
        // Survivors are scaled to 2.0; mean stays ≈ 1.
        for &v in y.data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        assert!((y.mean() - 1.0).abs() < 0.15);
    }

    #[test]
    fn flatten_collapses_trailing_dims() {
        let x = Tensor::zeros(&[2, 3, 4]);
        let y = Layer::Flatten.forward(&x);
        assert_eq!(y.shape(), &[2, 12]);
    }

    #[test]
    fn dense_param_count() {
        let mut r = rng();
        let mut l = Layer::Dense(Dense::new(4, 3, &mut r));
        let n: usize = l.params().iter().map(|p| p.len()).sum();
        assert_eq!(n, 4 * 3 + 3);
        assert_eq!(l.params_mut().len(), 2);
    }

    #[test]
    fn gradients_accumulate_across_batches() {
        let mut r = rng();
        let mut l = Layer::Dense(Dense::new(2, 2, &mut r));
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let g = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let mut cache = ActCache::default();
        l.forward_train(&x, &mut cache);
        l.backward(&g, &mut cache);
        let g1 = match &l {
            Layer::Dense(d) => d.grad_w.clone().unwrap(),
            _ => unreachable!(),
        };
        l.forward_train(&x, &mut cache);
        l.backward(&g, &mut cache);
        let g2 = match &l {
            Layer::Dense(d) => d.grad_w.clone().unwrap(),
            _ => unreachable!(),
        };
        for (a, b) in g1.data().iter().zip(g2.data()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }
}
