//! Binarization-aware training with the straight-through estimator.
//!
//! §III-A cites Courbariaux et al. (ref 21): binary networks "work fine" —
//! but only when *trained* binarized, not converted post-hoc (experiment
//! E1 measures the post-hoc collapse honestly). This module implements the
//! standard recipe: keep latent f32 weights, binarize them in the forward
//! pass, and pass gradients straight through the sign function (clipped to
//! |w| ≤ 1 where sign has zero true gradient).
//!
//! The result exports directly to the XNOR [`BinaryDense`] kernel, closing
//! the loop: train binary-aware → deploy 1-bit → accuracy survives.

use crate::qmodel::{QLayer, QuantScheme, QuantizedModel};
use crate::qtensor::BinaryDense;
use tinymlops_nn::layer::ActCache;
use tinymlops_nn::loss::cross_entropy;
use tinymlops_nn::{Dataset, Layer, Optimizer, Sequential};
use tinymlops_tensor::Tensor;

/// Configuration for binarization-aware fine-tuning.
#[derive(Debug, Clone)]
pub struct BinaryAwareConfig {
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate (applied to the latent f32 weights).
    pub lr: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// Keep the final (classifier) dense layer in f32 — the standard BNN
    /// practice that recovers several accuracy points for free.
    pub full_precision_head: bool,
    /// Model *input* binarization during training (XNOR-Net): interior
    /// binarized layers see `β·sign(h)` activations in the forward pass,
    /// with straight-through gradients, so the true XNOR kernel
    /// ([`BinaryDense::binarize_input`] = `true`) holds accuracy at
    /// deployment. The first binarized dense keeps its f32 input, and a
    /// ReLU directly feeding an activation-binarized layer is dropped —
    /// sign *is* the nonlinearity there (post-ReLU sign is degenerate).
    pub binarize_activations: bool,
}

impl Default for BinaryAwareConfig {
    fn default() -> Self {
        BinaryAwareConfig {
            epochs: 15,
            batch_size: 32,
            lr: 0.002,
            seed: 0,
            full_precision_head: true,
            binarize_activations: false,
        }
    }
}

/// Indices of the dense layers inside `model.layers`.
fn dense_indices(model: &Sequential) -> Vec<usize> {
    model
        .layers
        .iter()
        .enumerate()
        .filter_map(|(i, l)| matches!(l, Layer::Dense(_)).then_some(i))
        .collect()
}

/// Which layers get binarized under `cfg`.
fn binarized_set(model: &Sequential, cfg: &BinaryAwareConfig) -> Vec<usize> {
    let mut idx = dense_indices(model);
    if cfg.full_precision_head && idx.len() > 1 {
        idx.pop();
    }
    idx
}

/// Dense layers whose *input* is binarized when
/// [`BinaryAwareConfig::binarize_activations`] is set: every binarized
/// dense except the first — XNOR-Net practice keeps the network input in
/// full precision, so a 2-dense MLP has no activation-binarized layer and
/// the flag is a no-op there.
fn act_binarized_set(model: &Sequential, cfg: &BinaryAwareConfig) -> Vec<usize> {
    if !cfg.binarize_activations {
        return Vec::new();
    }
    let mut idx = binarized_set(model, cfg);
    if !idx.is_empty() {
        idx.remove(0);
    }
    idx
}

/// ReLU layers that feed an activation-binarized dense (possibly through
/// inference-identity Dropouts). Sign replaces them as the nonlinearity —
/// sign of a post-ReLU activation is degenerate (all +1) — so training
/// skips them and the export drops them.
fn skipped_relu_set(model: &Sequential, act: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    for &a in act {
        let mut j = a;
        while j > 0 {
            j -= 1;
            match &model.layers[j] {
                Layer::Dropout(_) => {}
                Layer::Relu => {
                    out.push(j);
                    break;
                }
                _ => break,
            }
        }
    }
    out
}

/// XNOR-Net input binarization: per example row, β = mean |h| and
/// h → β·sign(h), with `v ≥ 0 → +1` matching the [`BinaryDense`] kernel's
/// sign convention so training forward ≡ deployed kernel.
fn binarize_rows(h: &Tensor) -> Tensor {
    let mut out = h.clone();
    let rows = out.rows();
    let cols = out.len().checked_div(rows).unwrap_or(0);
    for r in 0..rows {
        let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
        let beta = row.iter().map(|v| v.abs()).sum::<f32>() / cols.max(1) as f32;
        for v in row.iter_mut() {
            *v = if *v >= 0.0 { beta } else { -beta };
        }
    }
    out
}

/// Forward pass of the *deployed* binary behaviour for evaluation:
/// weights must already be ±α (swap first), activation binarization and
/// ReLU skips applied exactly as the exported XNOR kernels will.
fn binarized_eval_forward(
    model: &Sequential,
    act: &[usize],
    skipped: &[usize],
    x: &Tensor,
) -> Tensor {
    let mut h = x.clone();
    for (i, l) in model.layers.iter().enumerate() {
        if skipped.contains(&i) {
            continue;
        }
        if act.contains(&i) {
            h = binarize_rows(&h);
        }
        h = l.forward(&h);
    }
    h
}

/// Binarize the selected layers' weights in place (sign × per-row α),
/// returning the latent weights so they can be restored.
fn swap_in_binarized(model: &mut Sequential, layers: &[usize]) -> Vec<Vec<f32>> {
    let mut latents = Vec::with_capacity(layers.len());
    for &i in layers {
        if let Layer::Dense(d) = &mut model.layers[i] {
            latents.push(d.w().data().to_vec());
            let (rows, cols) = (d.w().shape()[0], d.w().shape()[1]);
            for r in 0..rows {
                let row = &mut d.w_mut().data_mut()[r * cols..(r + 1) * cols];
                let alpha = row.iter().map(|v| v.abs()).sum::<f32>() / cols as f32;
                for v in row.iter_mut() {
                    *v = if *v >= 0.0 { alpha } else { -alpha };
                }
            }
        }
    }
    latents
}

/// Restore latent weights saved by [`swap_in_binarized`].
fn restore_latents(model: &mut Sequential, layers: &[usize], latents: &[Vec<f32>]) {
    for (&i, latent) in layers.iter().zip(latents) {
        if let Layer::Dense(d) = &mut model.layers[i] {
            d.w_mut().data_mut().copy_from_slice(latent);
        }
    }
}

/// Straight-through gradient clip: zero the latent gradient where
/// |latent| > 1 (outside the STE's linear region).
fn ste_clip(model: &mut Sequential, layers: &[usize], latents: &[Vec<f32>]) {
    for (&i, latent) in layers.iter().zip(latents) {
        if let Layer::Dense(d) = &mut model.layers[i] {
            if let Some(g) = &mut d.grad_w {
                for (gv, &lv) in g.data_mut().iter_mut().zip(latent) {
                    if lv.abs() > 1.0 {
                        *gv = 0.0;
                    }
                }
            }
        }
    }
}

/// Fine-tune `model` binarization-aware. The model's weights remain f32
/// ("latent") afterwards; export with [`export_binary`] for deployment.
/// Returns per-epoch *binarized* training accuracy so callers can watch
/// convergence of the deployed behaviour, not the latent one.
pub fn binary_aware_finetune(
    model: &mut Sequential,
    data: &Dataset,
    cfg: &BinaryAwareConfig,
) -> Vec<f32> {
    let layers = binarized_set(model, cfg);
    let act = act_binarized_set(model, cfg);
    let skipped = skipped_relu_set(model, &act);
    let mut opt = tinymlops_nn::Adam::new(cfg.lr);
    let mut history = Vec::with_capacity(cfg.epochs);
    for e in 0..cfg.epochs {
        for (x, y) in data.batches(cfg.batch_size, cfg.seed.wrapping_add(e as u64)) {
            // Forward+backward with binarized weights…
            let latents = swap_in_binarized(model, &layers);
            model.zero_grad();
            if act.is_empty() {
                let logits = model.forward_train(&x);
                let (_, grad) = cross_entropy(&logits, &y);
                model.backward(&grad);
            } else {
                train_step_act_binarized(model, &act, &skipped, &x, &y);
            }
            // …but step the latent weights (straight-through estimator).
            restore_latents(model, &layers, &latents);
            ste_clip(model, &layers, &latents);
            opt.step(model);
        }
        // Epoch metric: accuracy of the *binarized* network, including
        // activation binarization when configured — the deployed
        // behaviour, not the latent one.
        let latents = swap_in_binarized(model, &layers);
        let correct = binarized_eval_forward(model, &act, &skipped, &data.x)
            .argmax_rows()
            .iter()
            .zip(&data.y)
            .filter(|(p, t)| p == t)
            .count();
        restore_latents(model, &layers, &latents);
        history.push(correct as f32 / data.len().max(1) as f32);
    }
    history
}

/// One forward+backward with activation binarization modelled: interior
/// binarized layers see `β·sign(h)`, ReLUs they replace are skipped, and
/// gradients pass straight through sign (zeroed outside |h| ≤ 1, the
/// STE's linear region). Weights must already be ±α (swap first); leaves
/// parameter gradients accumulated on `model`.
fn train_step_act_binarized(
    model: &mut Sequential,
    act: &[usize],
    skipped: &[usize],
    x: &Tensor,
    y: &[usize],
) {
    let n = model.layers.len();
    let mut caches: Vec<ActCache> = (0..n).map(|_| ActCache::default()).collect();
    // Pre-binarization activations, kept for the STE mask.
    let mut pre: Vec<Option<Tensor>> = vec![None; n];
    let mut h = x.clone();
    for i in 0..n {
        if skipped.contains(&i) {
            continue;
        }
        if act.contains(&i) {
            pre[i] = Some(h.clone());
            h = binarize_rows(&h);
        }
        h = model.layers[i].forward_train(&h, &mut caches[i]);
    }
    let (_, grad0) = cross_entropy(&h, y);
    let mut grad = grad0;
    for i in (0..n).rev() {
        if skipped.contains(&i) {
            continue;
        }
        grad = model.layers[i].backward(&grad, &mut caches[i]);
        if let Some(p) = &pre[i] {
            for (g, &v) in grad.data_mut().iter_mut().zip(p.data()) {
                if v.abs() > 1.0 {
                    *g = 0.0;
                }
            }
        }
    }
}

/// Export a binary-aware-trained model for deployment: binarized layers
/// become XNOR [`BinaryDense`] kernels, the (optional) f32 head stays a
/// dense layer. Returns `(binary kernels in layer order, f32 model with
/// binarized weights materialized)` — callers can run either path.
#[must_use]
pub fn export_binary(
    model: &Sequential,
    cfg: &BinaryAwareConfig,
) -> (Vec<BinaryDense>, Sequential) {
    let layers = binarized_set(model, cfg);
    let mut materialized = model.clone();
    let latents = swap_in_binarized(&mut materialized, &layers);
    let _ = latents; // materialized now carries ±α weights
    let kernels = layers
        .iter()
        .filter_map(|&i| match &materialized.layers[i] {
            Layer::Dense(d) => Some(BinaryDense::quantize(d.w(), &d.b)),
            _ => None,
        })
        .collect();
    (kernels, materialized)
}

/// Package a binary-aware-trained model as a deployable
/// [`QuantizedModel`]: binarized layers become [`BinaryDense`] kernels —
/// true XNOR (input-binarizing) for the activation-binarized set when
/// [`BinaryAwareConfig::binarize_activations`] trained them that way,
/// weight-only otherwise; activations and the (optional) full-precision
/// head run as passthrough layers, except ReLUs a sign nonlinearity
/// replaced, which are dropped to match the trained network exactly.
/// This is what the registry's optimization pipeline
/// stores for the int1 variant, so the artifact that ships is exactly the
/// network whose accuracy was measured — same serialization, loading and
/// serving path as every other `QuantizedModel`.
#[must_use]
pub fn export_quantized(model: &Sequential, cfg: &BinaryAwareConfig) -> QuantizedModel {
    let binarized = binarized_set(model, cfg);
    let act = act_binarized_set(model, cfg);
    let skipped = skipped_relu_set(model, &act);
    let layers = model
        .layers
        .iter()
        .enumerate()
        .filter(|(i, _)| !skipped.contains(i))
        .map(|(i, l)| match l {
            Layer::Dense(d) if act.contains(&i) => {
                // True XNOR kernel: training modelled β·sign(h) inputs
                // for this layer, so the deployed kernel binarizes
                // activations too ([`BinaryDense::binarize_input`]).
                QLayer::BinaryDense(BinaryDense::quantize(d.w(), &d.b))
            }
            Layer::Dense(d) if binarized.contains(&i) => {
                // Weight-only binarization: STE training prepared this
                // layer for ±α weights with f32 activations — ship the
                // kernel it trained as.
                QLayer::BinaryDense(BinaryDense::quantize_weight_only(d.w(), &d.b))
            }
            other => QLayer::Passthrough(other.clone()),
        })
        .collect();
    QuantizedModel::from_layers(layers, QuantScheme::Binary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinymlops_nn::data::synth_digits;
    use tinymlops_nn::model::mlp;
    use tinymlops_nn::train::{evaluate, fit, FitConfig};
    use tinymlops_nn::Adam;
    use tinymlops_tensor::TensorRng;

    fn trained() -> (Sequential, Dataset, Dataset) {
        let data = synth_digits(1200, 0.08, 77);
        let (train, test) = data.split(0.85, 0);
        let mut rng = TensorRng::seed(7);
        let mut model = mlp(&[64, 48, 10], &mut rng);
        let mut opt = Adam::new(0.005);
        fit(
            &mut model,
            &train,
            &mut opt,
            &FitConfig {
                epochs: 12,
                batch_size: 32,
                ..Default::default()
            },
        );
        (model, train, test)
    }

    /// The latent ⇄ binarized weight swap writes `Dense` weights in place
    /// around every evaluation; a layer that has served (panels warm) must
    /// evaluate the binarized weights, then the restored latents.
    #[test]
    fn latent_swap_drops_the_prepared_panels() {
        let mut rng = TensorRng::seed(11);
        let mut model = mlp(&[64, 64, 32], &mut rng);
        let x = rng.uniform(&[16, 64], -1.0, 1.0);
        assert!(tinymlops_tensor::matmul::nt_uses_panels(16, 64, 32));
        let latent_out = model.forward(&x);
        // Deserialized layers have never run: no panels yet.
        let never_run = |m: &Sequential| Sequential::from_bytes(&m.to_bytes().unwrap()).unwrap();
        let layers = dense_indices(&model);
        let latents = swap_in_binarized(&mut model, &layers);
        let binarized_out = model.forward(&x);
        assert_eq!(binarized_out, never_run(&model).forward(&x), "stale panels");
        assert_ne!(binarized_out, latent_out);
        restore_latents(&mut model, &layers, &latents);
        assert_eq!(model.forward(&x), latent_out, "stale binarized panels");
    }

    /// The headline: binary-aware training rescues 1-bit deployment from
    /// the post-hoc collapse E1 measures.
    #[test]
    fn binary_aware_beats_post_hoc_conversion() {
        let (mut model, train, test) = trained();
        // Post-hoc: binarize the trained f32 model directly.
        let cfg = BinaryAwareConfig::default();
        let (_, posthoc) = export_binary(&model, &cfg);
        let posthoc_acc = evaluate(&posthoc, &test);
        // Binary-aware fine-tuning on the same model.
        let history = binary_aware_finetune(&mut model, &train, &cfg);
        let (_, aware) = export_binary(&model, &cfg);
        let aware_acc = evaluate(&aware, &test);
        assert!(
            aware_acc > posthoc_acc + 0.15,
            "binary-aware {aware_acc} should beat post-hoc {posthoc_acc} by a wide margin"
        );
        assert!(
            aware_acc > 0.7,
            "1-bit deployment should work, got {aware_acc}"
        );
        assert!(
            history.last().unwrap() > &0.7,
            "training accuracy converges, got {:?}",
            history.last()
        );
    }

    #[test]
    fn exported_kernels_match_materialized_model() {
        let (mut model, train, _) = trained();
        let cfg = BinaryAwareConfig {
            epochs: 3,
            ..Default::default()
        };
        binary_aware_finetune(&mut model, &train, &cfg);
        let (kernels, materialized) = export_binary(&model, &cfg);
        // One binarized kernel (head stays f32 for a 2-dense MLP).
        assert_eq!(kernels.len(), 1);
        // The materialized first layer holds exactly ±α values per row.
        if let Layer::Dense(d) = &materialized.layers[0] {
            let row = d.w().row(0);
            let alpha = row[0].abs();
            assert!(row.iter().all(|v| (v.abs() - alpha).abs() < 1e-6));
        } else {
            panic!("expected dense");
        }
    }

    #[test]
    fn latent_weights_stay_f32_during_training() {
        let (mut model, train, _) = trained();
        let cfg = BinaryAwareConfig {
            epochs: 2,
            ..Default::default()
        };
        binary_aware_finetune(&mut model, &train, &cfg);
        // Latents are not ±α (they keep full precision for optimization).
        if let Layer::Dense(d) = &model.layers[0] {
            let row = d.w().row(0);
            let alpha = row[0].abs();
            assert!(
                row.iter().any(|v| (v.abs() - alpha).abs() > 1e-4),
                "latent weights must not be binarized in place"
            );
        }
    }

    #[test]
    fn export_quantized_matches_materialized_accuracy() {
        let (mut model, train, test) = trained();
        let cfg = BinaryAwareConfig {
            epochs: 5,
            ..Default::default()
        };
        binary_aware_finetune(&mut model, &train, &cfg);
        let q = export_quantized(&model, &cfg);
        assert_eq!(q.scheme, QuantScheme::Binary);
        let (_, materialized) = export_binary(&model, &cfg);
        let q_acc = q.accuracy(&test.x, &test.y);
        let m_acc = evaluate(&materialized, &test);
        // XNOR kernels binarize activations too, so allow a small gap —
        // but the deployable artifact must track the measured network.
        assert!(
            (q_acc - m_acc).abs() < 0.15,
            "deployed {q_acc} vs materialized {m_acc}"
        );
        // Round-trips through serde like every other registry artifact.
        let bytes = serde_json::to_vec(&q).unwrap();
        let back: QuantizedModel = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.accuracy(&test.x, &test.y), q_acc);
    }

    /// A deeper net so the activation-binarized set is non-empty (the
    /// first binarized dense keeps its f32 input).
    fn trained_deep() -> (Sequential, Dataset, Dataset) {
        let data = synth_digits(1200, 0.08, 77);
        let (train, test) = data.split(0.85, 0);
        let mut rng = TensorRng::seed(7);
        let mut model = mlp(&[64, 48, 32, 10], &mut rng);
        let mut opt = Adam::new(0.005);
        fit(
            &mut model,
            &train,
            &mut opt,
            &FitConfig {
                epochs: 12,
                batch_size: 32,
                ..Default::default()
            },
        );
        (model, train, test)
    }

    /// The tentpole claim: modelling input binarization during training
    /// lets the *true XNOR kernel* hold accuracy, where a weight-only-
    /// trained network collapses on that same kernel.
    #[test]
    fn activation_aware_training_rescues_the_xnor_kernel() {
        let (model, train, test) = trained_deep();
        let act_cfg = BinaryAwareConfig {
            binarize_activations: true,
            ..Default::default()
        };
        let wo_cfg = BinaryAwareConfig::default();

        // Baseline: weight-only binary-aware training, then force the
        // interior layer through the input-binarizing XNOR kernel (what
        // deploying the fastest kernel without act-aware training means).
        let mut wo = model.clone();
        binary_aware_finetune(&mut wo, &train, &wo_cfg);
        let wo_on_xnor = export_quantized(&wo, &act_cfg).accuracy(&test.x, &test.y);

        // Activation-binarization-aware training for the same kernel.
        let mut aw = model.clone();
        let history = binary_aware_finetune(&mut aw, &train, &act_cfg);
        let q = export_quantized(&aw, &act_cfg);
        let aware_acc = q.accuracy(&test.x, &test.y);

        assert!(
            aware_acc > wo_on_xnor + 0.05,
            "act-aware {aware_acc} should beat weight-only-trained-on-XNOR {wo_on_xnor}"
        );
        assert!(aware_acc > 0.6, "true XNOR deployment works: {aware_acc}");
        // The exported artifact tracks the accuracy training measured.
        let trained_acc = *history.last().unwrap();
        assert!(
            (q.accuracy(&train.x, &train.y) - trained_acc).abs() < 0.02,
            "deployed kernel must match the trained forward: {} vs {trained_acc}",
            q.accuracy(&train.x, &train.y)
        );
    }

    #[test]
    fn activation_aware_export_uses_xnor_kernels_and_drops_the_relu() {
        let (model, train, _) = trained_deep();
        let cfg = BinaryAwareConfig {
            binarize_activations: true,
            epochs: 1,
            ..Default::default()
        };
        let mut m = model.clone();
        binary_aware_finetune(&mut m, &train, &cfg);
        let q = export_quantized(&m, &cfg);
        // [D,R,D,R,D] → weight-only D, ReLU, XNOR D (its ReLU dropped),
        // then the passthrough ReLU + f32 head.
        assert_eq!(q.layers.len(), model.layers.len() - 1);
        let kinds: Vec<&str> = q
            .layers
            .iter()
            .map(|l| match l {
                QLayer::BinaryDense(b) if b.binarize_input => "xnor",
                QLayer::BinaryDense(_) => "wo",
                QLayer::Passthrough(_) => "pass",
                QLayer::Dense(_) => "int",
            })
            .collect();
        assert_eq!(kinds, ["wo", "xnor", "pass", "pass"]);
    }

    #[test]
    fn binarize_activations_is_a_noop_on_two_dense_mlps() {
        let (model, train, test) = trained();
        let mut a = model.clone();
        let mut b = model.clone();
        let cfg_off = BinaryAwareConfig {
            epochs: 2,
            ..Default::default()
        };
        let cfg_on = BinaryAwareConfig {
            binarize_activations: true,
            ..cfg_off.clone()
        };
        let ha = binary_aware_finetune(&mut a, &train, &cfg_off);
        let hb = binary_aware_finetune(&mut b, &train, &cfg_on);
        assert_eq!(ha, hb, "no interior layer to binarize — same training");
        assert_eq!(
            export_quantized(&a, &cfg_off).predict(&test.x),
            export_quantized(&b, &cfg_on).predict(&test.x)
        );
    }

    #[test]
    fn full_precision_head_flag_controls_export() {
        let (model, _, _) = trained();
        let with_head = export_binary(
            &model,
            &BinaryAwareConfig {
                full_precision_head: true,
                ..Default::default()
            },
        );
        let without = export_binary(
            &model,
            &BinaryAwareConfig {
                full_precision_head: false,
                ..Default::default()
            },
        );
        assert_eq!(with_head.0.len(), 1);
        assert_eq!(without.0.len(), 2);
    }
}
