//! Neural-network watermarking: static (white-box) and dynamic (black-box).
//!
//! §V: *"Static watermarking techniques embed the watermark into the
//! weights of the model during training … Dynamic watermarking techniques
//! … train the model to behave in a specific way for a carefully designed
//! set of trigger inputs."* And the evaluation axes: *"compared in terms
//! of the trade-off between fidelity, robustness and capacity."*
//!
//! * [`StaticWatermark`] — Uchida-style: a secret seeded projection matrix
//!   `X` maps the first Dense layer's weights to `bits` logits; a BCE
//!   regularizer pushes `σ(X·w)` toward the owner's bitstring during
//!   fine-tuning. Extraction needs white-box access; robustness is
//!   measured as bit-error-rate (BER) under pruning/noise/fine-tuning.
//! * [`DynamicWatermark`] — trigger-set backdooring: `k` secret inputs are
//!   trained to secret labels; ownership is demonstrated black-box by
//!   query accuracy on the trigger set.

use serde::{Deserialize, Serialize};
use tinymlops_nn::loss::cross_entropy;
use tinymlops_nn::{Dataset, Layer, Optimizer, Sequential, Sgd};
use tinymlops_tensor::{Tensor, TensorRng};

/// Report of a watermark evaluation (one row of the E11 table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WatermarkReport {
    /// Watermark kind (`static` / `dynamic`).
    pub kind: String,
    /// Embedded capacity in bits (trigger count for dynamic).
    pub capacity_bits: usize,
    /// Task-accuracy delta caused by embedding (fidelity; ≥ 0 is no loss).
    pub fidelity_delta: f32,
    /// Bit-error rate (static) or trigger error rate (dynamic) right after
    /// embedding.
    pub ber_clean: f32,
    /// BER after the attacker's removal attempt.
    pub ber_after_attack: f32,
}

/// A static white-box watermark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticWatermark {
    /// Owner's secret seed (generates the projection matrix).
    pub key_seed: u64,
    /// The embedded bitstring.
    pub bits: Vec<bool>,
}

impl StaticWatermark {
    /// A random `capacity`-bit watermark under `key_seed`.
    #[must_use]
    pub fn random(capacity: usize, key_seed: u64) -> Self {
        // Domain-separate the bitstring from the projection matrix (both
        // derive from key_seed) so bits and projection stay uncorrelated.
        let mut rng = TensorRng::seed(key_seed ^ 0x57a7_1c3a_5c00_11ee);
        let bits = (0..capacity).map(|_| rng.next_f32() < 0.5).collect();
        StaticWatermark { key_seed, bits }
    }

    /// The watermarked weight vector: first Dense layer's weights, flat.
    fn carrier(model: &Sequential) -> &Tensor {
        for l in &model.layers {
            if let Layer::Dense(d) = l {
                return d.w();
            }
        }
        panic!("model has no dense layer to watermark");
    }

    /// Secret projection matrix `X [bits × n]` from the key seed.
    fn projection(&self, n: usize) -> Tensor {
        let mut rng = TensorRng::seed(self.key_seed);
        rng.normal(&[self.bits.len(), n], 0.0, 1.0)
    }

    /// Embed into `model` by fine-tuning with task loss + λ·BCE(σ(Xw), b).
    /// Returns per-epoch BER so callers can verify convergence.
    pub fn embed(
        &self,
        model: &mut Sequential,
        data: &Dataset,
        lambda: f32,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> Vec<f32> {
        let n = Self::carrier(model).len();
        let x_proj = self.projection(n);
        let mut opt = Sgd::new(lr);
        let mut history = Vec::with_capacity(epochs);
        for e in 0..epochs {
            for (bx, by) in data.batches(32, seed.wrapping_add(e as u64)) {
                model.zero_grad();
                let logits = model.forward_train(&bx);
                let (_, grad) = cross_entropy(&logits, &by);
                model.backward(&grad);
                // Watermark regularizer gradient onto the carrier weights:
                // ∂/∂w λ·BCE(σ(Xw), b) = λ·Xᵀ(σ(Xw) − b)
                let (sig, _) = self.project_bits(model, &x_proj);
                let residual: Vec<f32> = sig
                    .iter()
                    .zip(&self.bits)
                    .map(|(s, &b)| s - if b { 1.0 } else { 0.0 })
                    .collect();
                let carrier_grad = x_proj
                    .transpose()
                    .matmul(&Tensor::vector(&residual))
                    .expect("projection shapes");
                for l in &mut model.layers {
                    if let Layer::Dense(d) = l {
                        match &mut d.grad_w {
                            Some(g) => {
                                for (gv, cv) in g.data_mut().iter_mut().zip(carrier_grad.data()) {
                                    *gv += lambda * cv;
                                }
                            }
                            None => {
                                let mut g = carrier_grad.clone().scale(lambda);
                                g = g.reshape(d.w().shape()).expect("carrier matches layer");
                                d.grad_w = Some(g);
                            }
                        }
                        break; // only the first dense layer carries the mark
                    }
                }
                opt.step(model);
            }
            history.push(self.ber(model));
        }
        history
    }

    fn project_bits(&self, model: &Sequential, x_proj: &Tensor) -> (Vec<f32>, Vec<bool>) {
        let w = Self::carrier(model);
        let flat = Tensor::vector(w.data());
        let logits = x_proj.matmul(&flat).expect("projection × weights");
        let sig: Vec<f32> = logits
            .data()
            .iter()
            .map(|v| 1.0 / (1.0 + (-v).exp()))
            .collect();
        let bits = sig.iter().map(|&s| s > 0.5).collect();
        (sig, bits)
    }

    /// Extract the bitstring (white-box) and return the bit-error rate
    /// against the owner's record.
    #[must_use]
    pub fn ber(&self, model: &Sequential) -> f32 {
        let n = Self::carrier(model).len();
        let x_proj = self.projection(n);
        let (_, extracted) = self.project_bits(model, &x_proj);
        let errors = extracted
            .iter()
            .zip(&self.bits)
            .filter(|(a, b)| a != b)
            .count();
        errors as f32 / self.bits.len() as f32
    }
}

/// A dynamic (black-box) trigger-set watermark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicWatermark {
    /// Secret seed generating the trigger inputs.
    pub key_seed: u64,
    /// Trigger inputs (kept by the owner; shown here for the simulation).
    pub triggers: Tensor,
    /// Assigned secret labels.
    pub labels: Vec<usize>,
}

impl DynamicWatermark {
    /// Generate `k` random trigger inputs in `[0,1]^dim` with random labels.
    #[must_use]
    pub fn generate(k: usize, dim: usize, num_classes: usize, key_seed: u64) -> Self {
        let mut rng = TensorRng::seed(key_seed);
        let triggers = rng.uniform(&[k, dim], 0.0, 1.0);
        let labels = (0..k).map(|_| rng.next_usize(num_classes)).collect();
        DynamicWatermark {
            key_seed,
            triggers,
            labels,
        }
    }

    /// Embed by fine-tuning on task batches with the trigger set
    /// *concatenated into every batch* — joint gradients hold both the task
    /// and the backdoor (alternating steps oscillate and converge poorly).
    ///
    /// `epochs` is a *minimum*, not an exact budget: embedding continues
    /// (up to 4×`epochs`) until the trigger set is fully memorized, since
    /// a watermark that doesn't verify is worthless. Callers timing embed
    /// cost should measure wall clock, not assume `epochs` passes.
    pub fn embed(&self, model: &mut Sequential, data: &Dataset, epochs: usize, lr: f32, seed: u64) {
        let mut opt = Sgd::new(lr);
        let dim = self.triggers.cols();
        // Train at least `epochs`; keep going (bounded) until the trigger
        // set is memorized — an unembedded watermark is worthless, and the
        // few extra mixed batches cost almost nothing in fidelity.
        let max_epochs = epochs.saturating_mul(4).max(1);
        for e in 0..max_epochs {
            if e >= epochs && self.trigger_error(model) == 0.0 {
                break;
            }
            for (bx, by) in data.batches(32, seed.wrapping_add(e as u64)) {
                let mut xs = bx.data().to_vec();
                xs.extend_from_slice(self.triggers.data());
                let rows = bx.rows() + self.triggers.rows();
                let x_cat = Tensor::from_vec(xs, &[rows, dim]);
                let mut y_cat = by.clone();
                y_cat.extend_from_slice(&self.labels);
                model.zero_grad();
                let logits = model.forward_train(&x_cat);
                let (_, grad) = cross_entropy(&logits, &y_cat);
                model.backward(&grad);
                opt.step(model);
            }
        }
    }

    /// Black-box ownership check: fraction of triggers misclassified
    /// (0 = perfect watermark response).
    #[must_use]
    pub fn trigger_error(&self, model: &Sequential) -> f32 {
        let pred = model.predict(&self.triggers);
        let wrong = pred
            .iter()
            .zip(&self.labels)
            .filter(|(p, l)| p != l)
            .count();
        wrong as f32 / self.labels.len() as f32
    }

    /// Ownership verdict at a threshold: real owners see near-zero trigger
    /// error, unrelated models sit near chance (1 − 1/k classes).
    #[must_use]
    pub fn verify(&self, model: &Sequential, max_error: f32) -> bool {
        self.trigger_error(model) <= max_error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinymlops_nn::data::synth_digits;
    use tinymlops_nn::model::mlp;
    use tinymlops_nn::train::{evaluate, fit, FitConfig};
    use tinymlops_nn::Adam;
    use tinymlops_quant::magnitude_prune;

    fn trained() -> (Sequential, Dataset, Dataset) {
        let data = synth_digits(1200, 0.08, 88);
        let (train, test) = data.split(0.85, 0);
        let mut rng = TensorRng::seed(4);
        let mut model = mlp(&[64, 32, 10], &mut rng);
        let mut opt = Adam::new(0.005);
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
        (model, train, test)
    }

    #[test]
    fn static_watermark_embeds_with_low_ber_and_fidelity() {
        let (mut model, train, test) = trained();
        let base_acc = evaluate(&model, &test);
        let wm = StaticWatermark::random(64, 1234);
        assert!(
            wm.ber(&model) > 0.2,
            "pre-embedding BER should be near chance"
        );
        let history = wm.embed(&mut model, &train, 0.05, 6, 0.01, 0);
        let final_ber = *history.last().unwrap();
        assert!(
            final_ber == 0.0,
            "embedding should drive BER to 0, got {final_ber}"
        );
        let acc = evaluate(&model, &test);
        assert!(acc > base_acc - 0.03, "fidelity: {base_acc} → {acc}");
    }

    #[test]
    fn static_watermark_survives_moderate_pruning() {
        let (mut model, train, _) = trained();
        let wm = StaticWatermark::random(32, 77);
        wm.embed(&mut model, &train, 0.05, 6, 0.01, 0);
        let mut attacked = model.clone();
        magnitude_prune(&mut attacked, 0.3);
        let ber = wm.ber(&attacked);
        assert!(ber < 0.15, "30% pruning should leave BER low, got {ber}");
    }

    #[test]
    fn static_watermark_degrades_under_heavy_attack() {
        let (mut model, train, _) = trained();
        let wm = StaticWatermark::random(32, 78);
        wm.embed(&mut model, &train, 0.05, 6, 0.01, 0);
        let mut attacked = model.clone();
        magnitude_prune(&mut attacked, 0.95);
        let heavy = wm.ber(&attacked);
        let mut light = model.clone();
        magnitude_prune(&mut light, 0.2);
        assert!(
            heavy >= wm.ber(&light),
            "robustness decays with attack strength"
        );
    }

    #[test]
    fn wrong_key_reads_noise() {
        let (mut model, train, _) = trained();
        let wm = StaticWatermark::random(64, 100);
        wm.embed(&mut model, &train, 0.05, 6, 0.01, 0);
        // Same bits, wrong projection seed.
        let imposter = StaticWatermark {
            key_seed: 999,
            bits: wm.bits.clone(),
        };
        let ber = imposter.ber(&model);
        assert!(ber > 0.25, "wrong key should read ~chance, got {ber}");
    }

    #[test]
    fn dynamic_watermark_verifies_owner_and_rejects_strangers() {
        let (mut model, train, test) = trained();
        let base_acc = evaluate(&model, &test);
        let wm = DynamicWatermark::generate(24, 64, 10, 555);
        wm.embed(&mut model, &train, 10, 0.05, 0);
        assert!(wm.verify(&model, 0.1), "owner model answers triggers");
        let acc = evaluate(&model, &test);
        assert!(acc > base_acc - 0.05, "fidelity {base_acc} → {acc}");
        // An unrelated model fails the trigger test.
        let stranger = mlp(&[64, 32, 10], &mut TensorRng::seed(9999));
        assert!(!wm.verify(&stranger, 0.1));
        assert!(wm.trigger_error(&stranger) > 0.5);
    }

    #[test]
    fn dynamic_watermark_survives_light_finetune() {
        let (mut model, train, _) = trained();
        let wm = DynamicWatermark::generate(24, 64, 10, 556);
        wm.embed(&mut model, &train, 10, 0.05, 0);
        // Attacker fine-tunes on their own (clean) data for one epoch.
        let mut opt = Adam::new(0.001);
        fit(
            &mut model,
            &train,
            &mut opt,
            &FitConfig {
                epochs: 1,
                batch_size: 32,
                ..Default::default()
            },
        );
        let err = wm.trigger_error(&model);
        assert!(
            err < 0.4,
            "light fine-tune should not erase triggers, err {err}"
        );
    }

    #[test]
    fn capacity_tradeoff_more_bits_cost_more_to_embed() {
        // The capacity axis of the paper's trade-off: under a *fixed*
        // embedding budget (1 epoch), a larger payload converges no better
        // than a small one — capacity costs embedding effort.
        let (model, train, _) = trained();
        let ber_after_one_epoch = |bits: usize| {
            let mut m = model.clone();
            let wm = StaticWatermark::random(bits, 300 + bits as u64);
            let history = wm.embed(&mut m, &train, 0.05, 1, 0.01, 0);
            *history.last().unwrap()
        };
        let small = ber_after_one_epoch(16);
        let large = ber_after_one_epoch(1024);
        assert!(
            large >= small,
            "1024-bit payload should be at least as hard: {large} vs {small}"
        );
        // And with a generous budget even 512 bits embed cleanly.
        let mut m = model.clone();
        let wm = StaticWatermark::random(512, 4000);
        let history = wm.embed(&mut m, &train, 0.05, 8, 0.01, 0);
        assert!(
            *history.last().unwrap() < 0.02,
            "512 bits embeddable with budget, got {}",
            history.last().unwrap()
        );
    }
}
