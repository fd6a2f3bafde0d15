//! Property-based tests: quantization invariants over arbitrary weights.

use proptest::prelude::*;
use tinymlops_quant::{fake_quantize_tensor, BinaryDense, QDense, SparseDense};
use tinymlops_tensor::Tensor;

proptest! {
    /// Fake quantization is idempotent and bounded: the error of one round
    /// trip never exceeds half a quantization step.
    #[test]
    fn fake_quant_idempotent_and_bounded(
        mut row in proptest::collection::vec(-10.0f32..10.0, 1..128),
        bits in 2u32..9,
    ) {
        let orig = row.clone();
        fake_quantize_tensor(&mut row, bits);
        let once = row.clone();
        fake_quantize_tensor(&mut row, bits);
        prop_assert_eq!(&row, &once, "idempotent");
        let amax = orig.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if amax > 0.0 {
            let qmax = ((1i64 << (bits - 1)) - 1) as f32;
            let step = amax / qmax;
            for (o, q) in orig.iter().zip(&once) {
                prop_assert!((o - q).abs() <= step / 2.0 + 1e-5, "{o} vs {q} step {step}");
            }
        }
    }

    /// The int8 integer kernel approximates the f32 product within the
    /// combined quantization error bound.
    #[test]
    fn qdense_int8_error_bounded(
        out_dim in 1usize..8,
        in_dim in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = tinymlops_tensor::TensorRng::seed(seed);
        let w = rng.uniform(&[out_dim, in_dim], -1.0, 1.0);
        let b = rng.uniform(&[out_dim], -0.5, 0.5);
        let x = rng.uniform(&[3, in_dim], -1.0, 1.0);
        let q = QDense::quantize(&w, &b, 8, 1.0 / 127.0);
        let got = q.forward(&x);
        let want = x.matmul_nt(&w).unwrap().add_row_vector(&b).unwrap();
        // Error bound: per-term quantization error ~ (1/127)(|x|+|w|max);
        // loose bound: 0.02 per input dimension.
        let bound = 0.02 * in_dim as f32 + 0.01;
        for (g, t) in got.data().iter().zip(want.data()) {
            prop_assert!((g - t).abs() < bound, "{g} vs {t} (bound {bound})");
        }
    }

    /// CSR forward equals dense forward for any sparsity pattern.
    #[test]
    fn csr_equals_dense(
        out_dim in 1usize..8,
        in_dim in 1usize..16,
        seed in any::<u64>(),
        zero_prob in 0.0f64..1.0,
    ) {
        let mut rng = tinymlops_tensor::TensorRng::seed(seed);
        let mut w = rng.uniform(&[out_dim, in_dim], -2.0, 2.0);
        for v in w.data_mut() {
            if f64::from(v.abs() % 1.0) < zero_prob {
                *v = 0.0;
            }
        }
        let b = rng.uniform(&[out_dim], -1.0, 1.0);
        let x = rng.uniform(&[4, in_dim], -1.0, 1.0);
        let sp = SparseDense::from_dense(&w, &b);
        let dense_y = x.matmul_nt(&w).unwrap().add_row_vector(&b).unwrap();
        let sparse_y = sp.forward(&x);
        for (a, c) in dense_y.data().iter().zip(sparse_y.data()) {
            prop_assert!((a - c).abs() < 1e-4);
        }
    }

    /// The XNOR kernel reproduces sign-matrix products exactly for ±1
    /// inputs, at any width (including multi-word and padded tails).
    #[test]
    fn binary_kernel_exact_on_signs(
        out_dim in 1usize..6,
        in_dim in 1usize..200,
        seed in any::<u64>(),
    ) {
        let mut rng = tinymlops_tensor::TensorRng::seed(seed);
        let w = rng.uniform(&[out_dim, in_dim], -1.0, 1.0);
        let b = Tensor::zeros(&[out_dim]);
        let q = BinaryDense::quantize(&w, &b);
        let x = rng
            .uniform(&[2, in_dim], -1.0, 1.0)
            .map(|v| if v >= 0.0 { 1.0 } else { -1.0 });
        let got = q.forward(&x);
        let w_sign = w.map(|v| if v >= 0.0 { 1.0 } else { -1.0 });
        let want = x.matmul_nt(&w_sign).unwrap();
        for r in 0..2 {
            for c in 0..out_dim {
                let expect = want.at(r, c) * q.alpha[c];
                prop_assert!((got.at(r, c) - expect).abs() < 1e-3);
            }
        }
    }

    /// Packed storage round-trips exactly through the public matrix view.
    #[test]
    fn packed_unpack_round_trip(
        out_dim in 1usize..6,
        in_dim in 1usize..40,
        bits in prop::sample::select(vec![8u32, 4, 2]),
        seed in any::<u64>(),
    ) {
        let mut rng = tinymlops_tensor::TensorRng::seed(seed);
        let w = rng.uniform(&[out_dim, in_dim], -1.0, 1.0);
        let b = Tensor::zeros(&[out_dim]);
        let q = QDense::quantize(&w, &b, bits, 0.01);
        let ints = q.unpack_matrix();
        prop_assert_eq!(ints.len(), out_dim * in_dim);
        let qmax = ((1i32 << (bits - 1)) - 1) as i8;
        prop_assert!(ints.iter().all(|&v| v >= -qmax && v <= qmax));
    }
}

mod restructured_kernels {
    use super::*;

    proptest! {
        /// The restructured forward (cached unpack, AVX2-dispatched dot,
        /// batch parallelism) is bit-for-bit identical to the seed scalar
        /// loop — not merely close: i32 accumulation is associative, so any
        /// divergence is a kernel bug.
        #[test]
        fn forward_is_bit_identical_to_reference(
            out_dim in 1usize..20,
            in_dim in 1usize..48,
            batch in 1usize..12,
            bits in prop::sample::select(vec![8u32, 4, 2]),
            seed in any::<u64>(),
        ) {
            let mut rng = tinymlops_tensor::TensorRng::seed(seed);
            let w = rng.uniform(&[out_dim, in_dim], -1.5, 1.5);
            let b = rng.uniform(&[out_dim], -0.5, 0.5);
            let x = rng.uniform(&[batch, in_dim], -2.0, 2.0);
            let q = QDense::quantize(&w, &b, bits, 0.02);
            let fast = q.forward(&x);
            let slow = q.forward_reference(&x);
            prop_assert_eq!(fast.shape(), slow.shape());
            prop_assert_eq!(fast.data(), slow.data(), "int{} outputs diverge", bits);
        }

        /// `quantize_input` and the activations the kernel consumes are the
        /// same expression: feeding the verifier's integers through
        /// `int_accumulate` + `dequantize_acc` reproduces `forward` exactly.
        #[test]
        fn verifier_path_reproduces_forward(
            out_dim in 1usize..12,
            in_dim in 1usize..32,
            batch in 1usize..6,
            bits in prop::sample::select(vec![8u32, 4, 2]),
            seed in any::<u64>(),
        ) {
            let mut rng = tinymlops_tensor::TensorRng::seed(seed);
            let w = rng.uniform(&[out_dim, in_dim], -1.0, 1.0);
            let b = rng.uniform(&[out_dim], -0.2, 0.2);
            let x = rng.uniform(&[batch, in_dim], -1.0, 1.0);
            let q = QDense::quantize(&w, &b, bits, 0.01);
            let xq = q.quantize_input(&x);
            let acc = q.int_accumulate(&xq, batch);
            let rebuilt = q.dequantize_acc(&acc, batch);
            let direct = q.forward(&x);
            prop_assert_eq!(rebuilt.data(), direct.data());
        }
    }
}

mod fused_integer_path {
    use super::*;
    use tinymlops_nn::Layer;
    use tinymlops_quant::qmodel::QLayer;
    use tinymlops_quant::qtensor::quantize_activations;
    use tinymlops_quant::{QuantScheme, QuantizedModel};

    proptest! {
        /// The fixed-point requantization bridge stays within one requant
        /// ULP of the f32 boundary it replaces (dequantize → optional ReLU
        /// → quantize at the next scale), for any scales a real layer pair
        /// can produce.
        #[test]
        fn requantize_acc_within_one_ulp_of_f32_boundary(
            out_dim in 1usize..10,
            in_dim in 1usize..24,
            batch in 1usize..5,
            in_scale in 0.002f32..0.1,
            next_scale in 0.002f32..0.1,
            relu in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = tinymlops_tensor::TensorRng::seed(seed);
            let w = rng.uniform(&[out_dim, in_dim], -1.0, 1.0);
            let b = rng.uniform(&[out_dim], -0.5, 0.5);
            let x = rng.uniform(&[batch, in_dim], -1.5, 1.5);
            let q = QDense::quantize(&w, &b, 8, in_scale);
            let Some(plan) = q.requant_plan(next_scale) else {
                // Degenerate scale ratio: the fused path falls back to
                // f32, nothing to compare.
                return Ok(());
            };
            let xq = q.quantize_input(&x);
            let acc = q.int_accumulate(&xq, batch);
            let fused = q.requantize_acc(&acc, batch, &plan, relu);
            let mut f = q.dequantize_acc(&acc, batch);
            if relu {
                f = f.map(|v| v.max(0.0));
            }
            let mut want = vec![0i8; fused.len()];
            quantize_activations(f.data(), next_scale, &mut want);
            for (i, (&g, &t)) in fused.iter().zip(&want).enumerate() {
                prop_assert!(
                    (i32::from(g) - i32::from(t)).abs() <= 1,
                    "elem {}: fused {} vs f32 boundary {} (relu={})", i, g, t, relu
                );
            }
        }

        /// End to end: the fused integer forward matches the unfused
        /// per-layer forward within the amplification of one requant ULP —
        /// the layer-2 input differs by at most 1 quantum per element, so
        /// output r differs by at most
        /// `in2_scale · w_scale2[r] · Σ_j |w2q[r][j]|`.
        #[test]
        fn fused_model_within_one_requant_ulp_of_unfused(
            d1 in 1usize..16,
            d2 in 1usize..16,
            d3 in 1usize..8,
            batch in 1usize..5,
            in_scale in 0.005f32..0.05,
            mid_scale in 0.005f32..0.05,
            relu in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = tinymlops_tensor::TensorRng::seed(seed);
            let w1 = rng.uniform(&[d2, d1], -1.0, 1.0);
            let b1 = rng.uniform(&[d2], -0.3, 0.3);
            let w2 = rng.uniform(&[d3, d2], -1.0, 1.0);
            let b2 = rng.uniform(&[d3], -0.3, 0.3);
            let q1 = QDense::quantize(&w1, &b1, 8, in_scale);
            let q2 = QDense::quantize(&w2, &b2, 8, mid_scale);
            let w2q = q2.unpack_matrix();
            let (sc2, ws2) = (q2.in_scale, q2.w_scales.clone());
            let mut layers = vec![QLayer::Dense(q1)];
            if relu {
                layers.push(QLayer::Passthrough(Layer::Relu));
            }
            layers.push(QLayer::Dense(q2));
            let m = QuantizedModel::from_layers(layers, QuantScheme::Int8);
            let x = rng.uniform(&[batch, d1], -1.0, 1.0);
            let fused = m.forward_fused(&x);
            let unfused = m.forward(&x);
            prop_assert_eq!(fused.shape(), unfused.shape());
            for r in 0..d3 {
                let rowsum: i32 = w2q[r * d2..(r + 1) * d2]
                    .iter()
                    .map(|&v| i32::from(v.abs()))
                    .sum();
                let bound = sc2 * ws2[r] * rowsum as f32 + 1e-4;
                for bi in 0..batch {
                    let (a, c) = (fused.at(bi, r), unfused.at(bi, r));
                    prop_assert!(
                        (a - c).abs() <= bound,
                        "row {} out {}: fused {} vs unfused {} (bound {})", bi, r, a, c, bound
                    );
                }
            }
        }
    }
}
