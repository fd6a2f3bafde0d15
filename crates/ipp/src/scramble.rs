//! Keyed weight scrambling ("chaotic weights", Lin et al., the paper's ref 82).
//!
//! §V: *"Other approaches to protect the intellectual property of machine
//! learning models rely on homomorphic encryption, weight scrambling or
//! designing models that require a secret key to operate at their full
//! potential."* This is the middle one: the stored model's weights are
//! permuted (within each layer's rows) under a keyed pseudorandom
//! permutation. Holding the key, descrambling is free at load time;
//! without it the model is present in plaintext yet functionally useless —
//! a lighter-weight deterrent than full encryption (no keystream pass at
//! load), trading cryptographic secrecy for obfuscation with an exact
//! functional lock.

use crate::IppError;
use tinymlops_crypto::Drbg;
use tinymlops_nn::{Layer, Sequential};

/// Derive the keyed permutation of `n` elements for (key, layer, n).
fn keyed_permutation(key: &[u8; 32], layer_idx: usize, n: usize) -> Vec<usize> {
    let mut seed = Vec::with_capacity(40);
    seed.extend_from_slice(key);
    seed.extend_from_slice(&(layer_idx as u64).to_le_bytes());
    let mut rng = Drbg::new(&seed, b"weight-scramble");
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    perm
}

fn apply_permutation(data: &mut [f32], perm: &[usize], inverse: bool) {
    let orig = data.to_vec();
    if inverse {
        for (i, &p) in perm.iter().enumerate() {
            data[p] = orig[i];
        }
    } else {
        for (i, &p) in perm.iter().enumerate() {
            data[i] = orig[p];
        }
    }
}

/// Scramble every dense layer's weight matrix in place under `key`.
/// The permutation is over the flat weight vector of each layer, so row
/// structure (and hence behaviour) is destroyed without the key.
pub fn scramble(model: &mut Sequential, key: &[u8; 32]) {
    for (i, l) in model.layers.iter_mut().enumerate() {
        if let Layer::Dense(d) = l {
            let perm = keyed_permutation(key, i, d.w().len());
            apply_permutation(d.w_mut().data_mut(), &perm, false);
        }
    }
}

/// Invert [`scramble`] with the same key.
pub fn descramble(model: &mut Sequential, key: &[u8; 32]) {
    for (i, l) in model.layers.iter_mut().enumerate() {
        if let Layer::Dense(d) = l {
            let perm = keyed_permutation(key, i, d.w().len());
            apply_permutation(d.w_mut().data_mut(), &perm, true);
        }
    }
}

/// Convenience: descramble a copy, verifying the unlock actually restores
/// behaviour on a probe batch (guards against key mix-ups in fleets).
pub fn unlock_checked(
    scrambled: &Sequential,
    key: &[u8; 32],
    probe: &tinymlops_tensor::Tensor,
    expected: &tinymlops_tensor::Tensor,
) -> Result<Sequential, IppError> {
    let mut m = scrambled.clone();
    descramble(&mut m, key);
    let got = m.forward(probe);
    let close = got
        .data()
        .iter()
        .zip(expected.data())
        .all(|(a, b)| (a - b).abs() < 1e-4);
    if close {
        Ok(m)
    } else {
        Err(IppError::DecryptionFailed)
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

    fn trained() -> (Sequential, tinymlops_nn::Dataset) {
        let data = synth_digits(900, 0.08, 321);
        let (train, test) = data.split(0.85, 0);
        let mut rng = TensorRng::seed(2);
        let mut model = mlp(&[64, 32, 10], &mut rng);
        let mut opt = Adam::new(0.005);
        fit(
            &mut model,
            &train,
            &mut opt,
            &FitConfig {
                epochs: 10,
                batch_size: 32,
                ..Default::default()
            },
        );
        (model, test)
    }

    #[test]
    fn scramble_destroys_descramble_restores() {
        let (model, test) = trained();
        let base_acc = evaluate(&model, &test);
        let key = [4u8; 32];
        let mut locked = model.clone();
        scramble(&mut locked, &key);
        let locked_acc = evaluate(&locked, &test);
        assert!(
            locked_acc < 0.3,
            "scrambled model must be useless, got {locked_acc} (base {base_acc})"
        );
        descramble(&mut locked, &key);
        assert_eq!(evaluate(&locked, &test), base_acc, "exact restoration");
        let x = test.x.slice_rows(0, 4);
        assert_eq!(locked.forward(&x), model.forward(&x));
    }

    #[test]
    fn wrong_key_does_not_unlock() {
        let (model, test) = trained();
        let mut locked = model.clone();
        scramble(&mut locked, &[4u8; 32]);
        descramble(&mut locked, &[5u8; 32]);
        let acc = evaluate(&locked, &test);
        assert!(acc < 0.3, "wrong key must not restore, got {acc}");
    }

    #[test]
    fn unlock_checked_catches_key_mixups() {
        let (model, test) = trained();
        let probe = test.x.slice_rows(0, 4);
        let expected = model.forward(&probe);
        let mut locked = model.clone();
        scramble(&mut locked, &[4u8; 32]);
        assert!(unlock_checked(&locked, &[4u8; 32], &probe, &expected).is_ok());
        assert!(matches!(
            unlock_checked(&locked, &[9u8; 32], &probe, &expected),
            Err(IppError::DecryptionFailed)
        ));
    }

    #[test]
    fn scrambling_is_norm_preserving() {
        // The deterrent leaks nothing about magnitudes: it is a pure
        // permutation, so weight statistics (norms, histograms) match.
        let (model, _) = trained();
        let mut locked = model.clone();
        scramble(&mut locked, &[4u8; 32]);
        let norm = |m: &Sequential| m.flat_params().iter().map(|v| v * v).sum::<f32>();
        assert!((norm(&model) - norm(&locked)).abs() < 1e-3);
        assert_ne!(model.flat_params(), locked.flat_params());
    }

    /// A served (panels-warm) model that is scrambled must serve the
    /// scrambled weights, not the panels packed from the clear ones — and
    /// the clear clone it was copied from must be unaffected.
    #[test]
    fn scramble_and_descramble_drop_the_prepared_panels() {
        let mut rng = TensorRng::seed(5);
        let model = mlp(&[64, 64, 32], &mut rng);
        let x = rng.uniform(&[16, 64], -1.0, 1.0);
        assert!(tinymlops_tensor::matmul::nt_uses_panels(16, 64, 32));
        let clear = model.forward(&x);
        // Deserialized layers have never run: no panels yet.
        let never_run = |m: &Sequential| Sequential::from_bytes(&m.to_bytes().unwrap()).unwrap();
        let key = [4u8; 32];
        let mut locked = model.clone();
        scramble(&mut locked, &key);
        let scrambled = locked.forward(&x);
        assert_eq!(scrambled, never_run(&locked).forward(&x), "stale panels");
        assert_ne!(scrambled, clear);
        descramble(&mut locked, &key);
        assert_eq!(locked.forward(&x), clear, "stale scrambled panels");
        assert_eq!(model.forward(&x), clear);
    }
}
