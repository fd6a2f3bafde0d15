//! Quantized model container: post-training static quantization of dense
//! networks with integer inference kernels.
//!
//! Inference runs through [`QuantizedModel::forward_fused`], which keeps
//! activations in the integer domain across `Dense → (ReLU) → Dense`
//! chains using the per-row fixed-point requantization scheme documented
//! in [`crate::qtensor`]. The unfused [`QuantizedModel::forward`] stays as
//! the per-layer reference path the proptests compare against.

use crate::calibrate::Calibration;
use crate::qtensor::{BinaryDense, QDense, RequantPlan};
use crate::tile::Requant;
use crate::QuantError;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::OnceLock;
use tinymlops_nn::{Layer, Sequential};
use tinymlops_tensor::Tensor;

/// Target numeric scheme for quantization (§III-A's 8/4/2/1-bit menu;
/// "3-bit" in the paper rounds to our 2- and 4-bit neighbours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantScheme {
    /// 8-bit symmetric weights + int8 activations.
    Int8,
    /// 4-bit symmetric weights + int8 activations.
    Int4,
    /// 2-bit symmetric weights + int8 activations.
    Int2,
    /// 1-bit (binary) weights and activations, XNOR-popcount kernel.
    Binary,
}

impl QuantScheme {
    /// Bits per weight.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            QuantScheme::Int8 => 8,
            QuantScheme::Int4 => 4,
            QuantScheme::Int2 => 2,
            QuantScheme::Binary => 1,
        }
    }

    /// Stable name used in registries and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QuantScheme::Int8 => "int8",
            QuantScheme::Int4 => "int4",
            QuantScheme::Int2 => "int2",
            QuantScheme::Binary => "binary",
        }
    }

    /// All schemes, densest first.
    #[must_use]
    pub fn all() -> [QuantScheme; 4] {
        [
            QuantScheme::Int8,
            QuantScheme::Int4,
            QuantScheme::Int2,
            QuantScheme::Binary,
        ]
    }
}

/// One layer of a quantized model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum QLayer {
    /// Integer dense kernel.
    Dense(QDense),
    /// Binary XNOR dense kernel.
    BinaryDense(BinaryDense),
    /// Element-wise / reshaping layer. On the fused path
    /// ([`QuantizedModel::forward_fused`]) a ReLU or Dropout sitting
    /// between two [`QDense`] layers is folded into the preceding kernel's
    /// integer requantization and never materializes in f32; only
    /// passthroughs at the head/tail of the stack, next to a
    /// [`BinaryDense`], or at a boundary with degenerate scales (no
    /// [`RequantPlan`]) still execute here in f32.
    Passthrough(Layer),
}

/// A fusable `Dense → (ReLU/Dropout)* → Dense` boundary: the requant plan
/// carries `in_scale · w_scale / next_in_scale` as fixed-point multipliers.
#[derive(Debug, Clone)]
struct FusedEdge {
    /// Index of the consuming `QLayer::Dense` in `layers`.
    next: usize,
    /// Whether a ReLU between the two denses folds into the requant
    /// (exact: max with zero commutes with a positive scale).
    relu: bool,
    /// Fixed-point multipliers bridging the two layers' scales.
    plan: RequantPlan,
}

/// Per-layer fusion decisions, derived lazily from the (serialized) scales
/// so a deserialized model rebuilds the identical plan.
#[derive(Debug, Clone, Default)]
struct FusedPlan {
    /// `edges[i]` is `Some` iff `layers[i]` is a Dense whose output feeds
    /// another Dense without leaving the integer domain.
    edges: Vec<Option<FusedEdge>>,
}

/// A statically-quantized dense network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedModel {
    /// Quantized layer stack.
    pub layers: Vec<QLayer>,
    /// The scheme this model was quantized with.
    pub scheme: QuantScheme,
    /// Lazily-built fusion plan; derived from `layers`' scales, so it is
    /// skipped in serialization and rebuilt identically after a round trip.
    #[serde(skip)]
    fused: OnceLock<FusedPlan>,
}

impl QuantizedModel {
    /// Quantize `model` post-training, using `calib` inputs to fix
    /// activation scales. Fails on conv layers (dense-only kernels; use
    /// [`crate::fake_quantize`] for conv architectures).
    pub fn quantize(
        model: &Sequential,
        calib: &Tensor,
        scheme: QuantScheme,
    ) -> Result<Self, QuantError> {
        if calib.rows() == 0 {
            return Err(QuantError::BadCalibration("empty calibration batch".into()));
        }
        for l in &model.layers {
            if matches!(l, Layer::Conv2d(_) | Layer::MaxPool2d(_)) {
                return Err(QuantError::Unsupported(format!(
                    "integer kernels cover dense networks; layer `{}` needs fake_quantize",
                    l.name()
                )));
            }
        }
        let cal = Calibration::capture(model, calib, 0.999);
        let layers = model
            .layers
            .iter()
            .enumerate()
            .map(|(i, l)| match l {
                Layer::Dense(d) => match scheme {
                    QuantScheme::Binary => QLayer::BinaryDense(BinaryDense::quantize(d.w(), &d.b)),
                    s => {
                        QLayer::Dense(QDense::quantize(d.w(), &d.b, s.bits(), cal.input_scales[i]))
                    }
                },
                other => QLayer::Passthrough(other.clone()),
            })
            .collect();
        Ok(QuantizedModel::from_layers(layers, scheme))
    }

    /// Assemble a model from already-quantized layers (fusion plan is
    /// derived lazily from the layers' scales on first forward).
    #[must_use]
    pub fn from_layers(layers: Vec<QLayer>, scheme: QuantScheme) -> Self {
        QuantizedModel {
            layers,
            scheme,
            fused: OnceLock::new(),
        }
    }

    /// Unfused forward pass: every layer quantizes its input and
    /// dequantizes its accumulators independently. Kept as the reference
    /// the fused path is property-tested against; production callers
    /// ([`Self::predict`], [`Self::accuracy`]) use
    /// [`Self::forward_fused`].
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.layers.iter().fold(x.clone(), |h, l| match l {
            QLayer::Dense(d) => d.forward(&h),
            QLayer::BinaryDense(b) => b.forward(&h),
            QLayer::Passthrough(p) => p.forward(&h),
        })
    }

    /// Fused forward pass: activations stay int8 across
    /// `Dense → (ReLU/Dropout)* → Dense` chains, with the scale bridge
    /// `in_scale · w_scale / next_in_scale` applied as a fixed-point
    /// multiplier straight off the i32 accumulators, in the integer
    /// tile's store (bit-identical to [`QDense::requantize_acc`]). f32
    /// tensors materialize only at the head/tail of each integer segment:
    /// before a [`BinaryDense`], at a passthrough other than ReLU/Dropout,
    /// at a boundary whose scales yield no valid [`RequantPlan`], and at
    /// the model output.
    ///
    /// A segment quantizes its f32 input straight into the first layer's
    /// tile operand, and each fused edge writes the next layer's operand;
    /// one pair of operand buffers serves every step of the call.
    ///
    /// Differs from the unfused [`Self::forward`] by at most one requant
    /// ULP per fused boundary (the fixed-point multiply rounds once where
    /// the f32 path rounds twice).
    #[must_use]
    pub fn forward_fused(&self, x: &Tensor) -> Tensor {
        let plan = self.fused_plan();
        let mut h = Cow::Borrowed(x);
        let (mut a, mut next_a) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i < self.layers.len() {
            match &self.layers[i] {
                QLayer::Dense(d) => {
                    // Integer segment: quantize once, then chase fused
                    // edges without leaving the integer domain.
                    let batch = h.rows();
                    let mut cur = d;
                    cur.load_operand(h.data(), batch, &mut a);
                    loop {
                        match &plan.edges[i] {
                            Some(edge) => {
                                let QLayer::Dense(next) = &self.layers[edge.next] else {
                                    unreachable!("fused edge targets a Dense");
                                };
                                let lda = next.lda();
                                next_a.resize(batch * lda, 0);
                                let ep = Requant {
                                    plan: &edge.plan,
                                    relu: edge.relu,
                                };
                                cur.run(&a, batch, &mut next_a, lda, ep);
                                std::mem::swap(&mut a, &mut next_a);
                                (i, cur) = (edge.next, next);
                            }
                            None => {
                                let mut out = vec![0.0f32; batch * cur.out_dim];
                                cur.run(&a, batch, &mut out, cur.out_dim, cur.dequant());
                                h = Cow::Owned(Tensor::from_vec(out, &[batch, cur.out_dim]));
                                i += 1;
                                break;
                            }
                        }
                    }
                }
                QLayer::BinaryDense(b) => {
                    h = Cow::Owned(b.forward(&h));
                    i += 1;
                }
                QLayer::Passthrough(p) => {
                    h = Cow::Owned(p.forward(&h));
                    i += 1;
                }
            }
        }
        h.into_owned()
    }

    /// Do everything [`Self::forward_fused`] would do lazily on its first
    /// batch — build each integer layer's tile panel, build the fusion
    /// plan, start the worker pool large batches fan out on — now (model
    /// install).
    pub fn prepare(&self) {
        rayon::current_num_threads();
        self.fused_plan();
        for l in &self.layers {
            match l {
                QLayer::Dense(d) => d.prepare(),
                QLayer::Passthrough(Layer::Dense(d)) => d.prepare(),
                _ => {}
            }
        }
    }

    /// The memoized fusion plan (built on first use; deterministic in the
    /// serialized scales, so identical after a serde round trip).
    fn fused_plan(&self) -> &FusedPlan {
        self.fused.get_or_init(|| self.build_fused_plan())
    }

    fn build_fused_plan(&self) -> FusedPlan {
        let mut edges = Vec::with_capacity(self.layers.len());
        for (i, l) in self.layers.iter().enumerate() {
            let QLayer::Dense(d) = l else {
                edges.push(None);
                continue;
            };
            // Scan past inference-foldable passthroughs: ReLU folds into
            // the requant clamp, Dropout is identity at inference.
            let mut relu = false;
            let mut j = i + 1;
            let edge = loop {
                match self.layers.get(j) {
                    Some(QLayer::Passthrough(Layer::Relu)) => {
                        relu = true;
                        j += 1;
                    }
                    Some(QLayer::Passthrough(Layer::Dropout(_))) => j += 1,
                    Some(QLayer::Dense(d2)) => {
                        break d.requant_plan(d2.in_scale).map(|plan| FusedEdge {
                            next: j,
                            relu,
                            plan,
                        });
                    }
                    _ => break None,
                }
            };
            edges.push(edge);
        }
        FusedPlan { edges }
    }

    /// Class predictions (row-wise argmax) via the fused integer path.
    #[must_use]
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.forward_fused(x).argmax_rows()
    }

    /// Deployment size in bytes (packed weights + scales + biases). A
    /// passthrough dense layer — e.g. the full-precision head a
    /// binary-aware export keeps — ships its f32 parameters, so it counts;
    /// parameter-free passthroughs (activations, reshapes) are free.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                QLayer::Dense(d) => d.size_bytes(),
                QLayer::BinaryDense(b) => b.size_bytes(),
                QLayer::Passthrough(Layer::Dense(d)) => {
                    (d.w().data().len() + d.b.data().len()) * std::mem::size_of::<f32>()
                }
                QLayer::Passthrough(_) => 0,
            })
            .sum()
    }

    /// Classification accuracy on a labelled set.
    #[must_use]
    pub fn accuracy(&self, x: &Tensor, y: &[usize]) -> f32 {
        if y.is_empty() {
            return 0.0;
        }
        let pred = self.predict(x);
        pred.iter().zip(y).filter(|(p, t)| p == t).count() as f32 / y.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinymlops_nn::data::synth_digits;
    use tinymlops_nn::model::mlp;
    use tinymlops_nn::train::{evaluate, fit, FitConfig};
    use tinymlops_nn::Adam;
    use tinymlops_tensor::TensorRng;

    fn trained_digits_model() -> (Sequential, tinymlops_nn::Dataset, tinymlops_nn::Dataset) {
        let data = synth_digits(1200, 0.08, 33);
        let (train, test) = data.split(0.85, 0);
        let mut rng = TensorRng::seed(10);
        let mut model = mlp(&[64, 32, 10], &mut rng);
        let mut opt = Adam::new(0.005);
        fit(
            &mut model,
            &train,
            &mut opt,
            &FitConfig {
                epochs: 20,
                batch_size: 32,
                ..Default::default()
            },
        );
        (model, train, test)
    }

    #[test]
    fn int8_quantization_preserves_accuracy() {
        let (model, train, test) = trained_digits_model();
        let f32_acc = evaluate(&model, &test);
        let q = QuantizedModel::quantize(&model, &train.x, QuantScheme::Int8).unwrap();
        let q_acc = q.accuracy(&test.x, &test.y);
        assert!(
            q_acc > f32_acc - 0.03,
            "int8 {q_acc} should be within 3pt of f32 {f32_acc}"
        );
    }

    #[test]
    fn accuracy_degrades_monotonically_in_expectation() {
        let (model, train, test) = trained_digits_model();
        let acc_of = |s: QuantScheme| {
            QuantizedModel::quantize(&model, &train.x, s)
                .unwrap()
                .accuracy(&test.x, &test.y)
        };
        let a8 = acc_of(QuantScheme::Int8);
        let a4 = acc_of(QuantScheme::Int4);
        let a2 = acc_of(QuantScheme::Int2);
        // 8-bit ≈ f32; 4-bit close; 2-bit noticeably worse but above chance.
        assert!(a8 >= a4 - 0.02, "a8={a8} a4={a4}");
        assert!(a4 >= a2 - 0.05, "a4={a4} a2={a2}");
        assert!(a2 > 0.15, "2-bit should beat chance, got {a2}");
    }

    #[test]
    fn size_ordering_matches_bits() {
        let (model, train, _) = trained_digits_model();
        let size_of = |s: QuantScheme| {
            QuantizedModel::quantize(&model, &train.x, s)
                .unwrap()
                .size_bytes()
        };
        let s8 = size_of(QuantScheme::Int8);
        let s4 = size_of(QuantScheme::Int4);
        let s2 = size_of(QuantScheme::Int2);
        let s1 = size_of(QuantScheme::Binary);
        assert!(s8 > s4 && s4 > s2 && s2 > s1, "{s8} {s4} {s2} {s1}");
        assert!(s8 < model.param_bytes(), "int8 smaller than f32");
    }

    #[test]
    fn conv_models_are_rejected_with_guidance() {
        let mut rng = TensorRng::seed(1);
        let m = Sequential::new(vec![Layer::Conv2d(tinymlops_nn::Conv2d::new(
            1, 2, 3, 0, &mut rng,
        ))]);
        let calib = Tensor::zeros(&[1, 1, 8, 8]);
        let err = QuantizedModel::quantize(&m, &calib, QuantScheme::Int8).unwrap_err();
        assert!(matches!(err, QuantError::Unsupported(_)));
    }

    #[test]
    fn empty_calibration_is_rejected() {
        let mut rng = TensorRng::seed(2);
        let m = mlp(&[4, 2], &mut rng);
        let calib = Tensor::zeros(&[0, 4]);
        assert!(matches!(
            QuantizedModel::quantize(&m, &calib, QuantScheme::Int8),
            Err(QuantError::BadCalibration(_))
        ));
    }

    #[test]
    fn serde_round_trip() {
        let (model, train, test) = trained_digits_model();
        let q = QuantizedModel::quantize(&model, &train.x, QuantScheme::Int4).unwrap();
        let json = serde_json::to_vec(&q).unwrap();
        let q2: QuantizedModel = serde_json::from_slice(&json).unwrap();
        assert_eq!(q.predict(&test.x), q2.predict(&test.x));
    }

    #[test]
    fn fused_forward_fuses_the_interior_boundary() {
        let (model, train, _) = trained_digits_model();
        let q = QuantizedModel::quantize(&model, &train.x, QuantScheme::Int8).unwrap();
        // mlp([64,32,10]) quantizes to Dense, Relu, Dense: exactly one
        // fusable edge, from layer 0 over the ReLU to layer 2.
        let plan = q.fused_plan();
        let edge = plan.edges[0].as_ref().expect("interior edge fuses");
        assert_eq!(edge.next, 2);
        assert!(edge.relu, "the ReLU folds into the requant");
        assert!(plan.edges[2].is_none(), "tail dequantizes to f32");
    }

    #[test]
    fn fused_forward_matches_unfused_predictions() {
        let (model, train, test) = trained_digits_model();
        for scheme in [QuantScheme::Int8, QuantScheme::Int4, QuantScheme::Int2] {
            let q = QuantizedModel::quantize(&model, &train.x, scheme).unwrap();
            let fused = q.forward_fused(&test.x).argmax_rows();
            let unfused = q.forward(&test.x).argmax_rows();
            let agree = fused.iter().zip(&unfused).filter(|(a, b)| a == b).count() as f32
                / fused.len() as f32;
            // The paths differ by at most one requant ULP per fused
            // boundary, so argmax flips only on near-ties.
            assert!(
                agree > 0.98,
                "{}: fused/unfused agreement {agree}",
                scheme.name()
            );
        }
    }

    #[test]
    fn fused_plan_survives_serde_round_trip() {
        let (model, train, test) = trained_digits_model();
        let q = QuantizedModel::quantize(&model, &train.x, QuantScheme::Int8).unwrap();
        let json = serde_json::to_vec(&q).unwrap();
        let q2: QuantizedModel = serde_json::from_slice(&json).unwrap();
        // The plan is derived entirely from serialized scales, so the
        // round-tripped model rebuilds the identical fixed-point bridge
        // and the fused outputs are bit-identical.
        let (p1, p2) = (q.fused_plan(), q2.fused_plan());
        assert_eq!(p1.edges.len(), p2.edges.len());
        for (a, b) in p1.edges.iter().zip(&p2.edges) {
            match (a, b) {
                (None, None) => {}
                (Some(ea), Some(eb)) => {
                    assert_eq!(ea.next, eb.next);
                    assert_eq!(ea.relu, eb.relu);
                    assert_eq!(ea.plan, eb.plan);
                }
                _ => panic!("fusion decisions diverged after round trip"),
            }
        }
        assert_eq!(
            q.forward_fused(&test.x).data(),
            q2.forward_fused(&test.x).data()
        );
    }

    #[test]
    fn binary_and_head_boundaries_fall_back_to_f32() {
        let (model, train, test) = trained_digits_model();
        let q = QuantizedModel::quantize(&model, &train.x, QuantScheme::Binary).unwrap();
        // All-binary stacks have no QDense edges at all; the fused path
        // must degrade to exactly the unfused one.
        assert!(q.fused_plan().edges.iter().all(Option::is_none));
        assert_eq!(q.forward_fused(&test.x).data(), q.forward(&test.x).data());
    }
}
