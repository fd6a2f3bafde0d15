//! A `Dense` caches packed panels of its weights; a panel that outlives a
//! weight write would silently serve the old model. One case per mutable
//! route to the matrix that this crate owns (`ipp::scramble` and
//! `quant::binary_train` carry their own): warm the cache with a forward,
//! write through the route, and the next forward must equal a layer built
//! fresh from the new weights. Each case fails if its route stops
//! dropping the panels.

use tinymlops_nn::{cross_entropy, Dense, Layer, Optimizer, Sequential, Sgd};
use tinymlops_tensor::matmul::nt_uses_panels;
use tinymlops_tensor::{Tensor, TensorRng};

const BATCH: usize = 16;
const WIDTHS: [usize; 3] = [64, 64, 32];

/// Two dense layers that both take the packed kernel at `BATCH` rows,
/// warmed: the panels exist when this returns.
fn warm_model() -> (Sequential, Tensor) {
    let mut rng = TensorRng::seed(77);
    let layers = WIDTHS
        .windows(2)
        .map(|io| {
            assert!(nt_uses_panels(BATCH, io[0], io[1]), "case must use panels");
            let b = rng.uniform(&[io[1]], -0.5, 0.5);
            Layer::Dense(Dense::from_params(rng.kaiming(io[1], io[0]), b))
        })
        .collect();
    let model = Sequential::new(layers);
    let x = rng.uniform(&[BATCH, WIDTHS[0]], -1.0, 1.0);
    let _ = model.forward(&x);
    (model, x)
}

/// The same parameters in layers that have never run.
fn rebuilt(model: &Sequential) -> Sequential {
    let layers = model.layers.iter().map(|l| match l {
        Layer::Dense(d) => Layer::Dense(Dense::from_params(d.w().clone(), d.b.clone())),
        other => other.clone(),
    });
    Sequential::new(layers.collect())
}

/// `model` serves its current weights, and they are not the ones `before`
/// was computed from.
fn assert_serves_current_weights(model: &Sequential, x: &Tensor, before: &Tensor) {
    let got = model.forward(x);
    assert_eq!(got, rebuilt(model).forward(x), "stale panels served");
    assert_ne!(&got, before, "the route did not change the weights");
}

fn dense_mut(model: &mut Sequential, i: usize) -> &mut Dense {
    match &mut model.layers[i] {
        Layer::Dense(d) => d,
        other => panic!("layer {i} is {}", other.name()),
    }
}

#[test]
fn w_mut_drops_the_panels() {
    let (mut model, x) = warm_model();
    let before = model.forward(&x);
    for i in 0..model.layers.len() {
        dense_mut(&mut model, i).w_mut().map_inplace(|v| -2.0 * v);
    }
    assert_serves_current_weights(&model, &x, &before);
}

/// A classifier head narrower than one panel has a prepared form too (one
/// zero-padded panel, swept with `dot`'s rounding): `w_mut` drops it.
#[test]
fn w_mut_drops_a_narrow_heads_panels() {
    let mut rng = TensorRng::seed(78);
    let (k, n) = (WIDTHS[2], 10);
    assert!(!nt_uses_panels(BATCH, k, n), "case must take the dot sweep");
    let head = Dense::from_params(rng.kaiming(n, k), rng.uniform(&[n], -0.5, 0.5));
    let mut model = Sequential::new(vec![Layer::Dense(head)]);
    let x = rng.uniform(&[BATCH, k], -1.0, 1.0);
    let before = model.forward(&x);
    dense_mut(&mut model, 0).w_mut().map_inplace(|v| -2.0 * v);
    assert_serves_current_weights(&model, &x, &before);
}

#[test]
fn an_optimizer_step_through_params_mut_drops_the_panels() {
    let (mut model, x) = warm_model();
    let before = model.forward(&x);
    let labels: Vec<usize> = (0..BATCH).map(|i| i % WIDTHS[2]).collect();
    let logits = model.forward_train(&x);
    // The training forward packs per call and leaves the panels warm.
    assert_eq!(logits, before);
    let (_, grad) = cross_entropy(&logits, &labels);
    model.backward(&grad);
    Sgd::new(0.5).step(&mut model);
    assert_serves_current_weights(&model, &x, &before);
}

#[test]
fn set_flat_params_drops_the_panels() {
    let (mut model, x) = warm_model();
    let before = model.forward(&x);
    let flipped: Vec<f32> = model.flat_params().iter().map(|v| -v).collect();
    model.set_flat_params(&flipped).unwrap();
    assert_serves_current_weights(&model, &x, &before);
}

#[test]
fn a_deserialized_model_packs_its_own_weights() {
    let (mut model, x) = warm_model();
    let before = model.forward(&x);
    let same = Sequential::from_bytes(&model.to_bytes().unwrap()).unwrap();
    assert_eq!(same.forward(&x), before);
    dense_mut(&mut model, 0).w_mut().map_inplace(|v| 0.5 * v);
    let halved = Sequential::from_bytes(&model.to_bytes().unwrap()).unwrap();
    assert_serves_current_weights(&halved, &x, &before);
}

#[test]
fn mutating_a_clone_leaves_the_original_serving_its_own_weights() {
    let (model, x) = warm_model();
    let before = model.forward(&x);
    // The clone starts out sharing the original's panels.
    let mut clone = model.clone();
    assert_eq!(clone.forward(&x), before);
    dense_mut(&mut clone, 1).w_mut().map_inplace(|v| v + 0.25);
    assert_serves_current_weights(&clone, &x, &before);
    assert_eq!(model.forward(&x), before, "the original's panels moved");
    assert_eq!(model.forward(&x), rebuilt(&model).forward(&x));
}
