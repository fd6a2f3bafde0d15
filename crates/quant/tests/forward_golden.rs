//! Bit-identity oracle for the integer inference path: `QDense::forward`
//! at 8, 4 and 2 bits, and `QuantizedModel::{forward_fused, forward}` on
//! the `infer_serving` MLP at int8 and int2, must reproduce the exact
//! output bits pinned below.
//!
//! The tables were generated by `print_quant_forward_golden` on commit
//! `8859949`, while `QDense::forward` still ran its own row kernel with
//! an inlined dequantize epilogue; they pin that arithmetic. The `QDense`
//! dims exercise the AVX2 quad tile (`out_dim` a multiple of 4), the
//! remainder rows (7, 13) and the sub-32 column tails (45, 33, 31); the
//! 512×512 layer at batch ≥ 2 crosses the batch-parallel threshold. A
//! mismatch means integer inference changed; every served int8/int2
//! answer is downstream of it. Find out why before touching a constant.
//!
//! The tables hold under every kernel arm the host has
//! (`tensor::matmul::with_isa_cap`): the integer tile's portable body, its
//! AVX2 clone and the AVX-512-VNNI tile give one set of bits.

use tinymlops_nn::model::mlp;
use tinymlops_nn::Layer;
use tinymlops_quant::{QDense, QuantScheme, QuantizedModel};
use tinymlops_tensor::matmul::{with_isa_cap, Isa};
use tinymlops_tensor::{Tensor, TensorRng};

/// `(out_dim, in_dim)` of the pinned `QDense` layers.
const DIMS: [(usize, usize); 5] = [(7, 45), (13, 33), (4, 64), (8, 31), (512, 512)];
/// Weight widths, in table order.
const BITS: [u32; 3] = [8, 4, 2];
/// Batch sizes per `(dims, bits)` cell.
const BATCHES: [usize; 3] = [1, 2, 5];
/// Model batches are `1..=MODEL_MAX_BATCH`.
const MODEL_MAX_BATCH: usize = 9;
/// The pinned model schemes, in table order.
const SCHEMES: [QuantScheme; 2] = [QuantScheme::Int8, QuantScheme::Int2];

/// FNV-1a over the shape and the exact bit pattern of every element (the
/// same digest as `crates/nn/tests/golden`).
fn digest(t: &Tensor) -> u64 {
    let dims = t.shape().iter().map(|&d| d as u32);
    let bits = t.data().iter().map(|v| v.to_bits());
    dims.chain(bits)
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The pinned layer for `DIMS[d]` at `bits`, with a non-zero bias. Inputs
/// span ±1.2 against a 1/127 input scale, so the activation clamp fires.
fn qdense(d: usize, bits: u32) -> QDense {
    let (out_dim, in_dim) = DIMS[d];
    let mut rng = TensorRng::seed(0x9d + d as u64);
    let w = rng.uniform(&[out_dim, in_dim], -1.0, 1.0);
    let b = rng.uniform(&[out_dim], -0.5, 0.5);
    QDense::quantize(&w, &b, bits, 1.0 / 127.0)
}

fn qdense_input(d: usize, batch: usize) -> Tensor {
    let in_dim = DIMS[d].1;
    TensorRng::seed(3000 + 100 * d as u64 + batch as u64).uniform(&[batch, in_dim], -1.2, 1.2)
}

/// `mlp([64, 512, 512, 10])` with non-zero biases, quantized at `scheme`
/// against a fixed calibration batch.
fn model(scheme: QuantScheme) -> QuantizedModel {
    let mut rng = TensorRng::seed(0x9a47);
    let mut m = mlp(&[64, 512, 512, 10], &mut rng);
    for l in &mut m.layers {
        if let Layer::Dense(d) = l {
            d.b = rng.uniform(&[d.b.len()], -0.5, 0.5);
        }
    }
    let calib = rng.uniform(&[32, 64], -1.0, 1.0);
    QuantizedModel::quantize(&m, &calib, scheme).expect("dense model quantizes")
}

fn model_input(batch: usize) -> Tensor {
    TensorRng::seed(2000 + batch as u64).uniform(&[batch, 64], -1.0, 1.0)
}

/// Every `QDense::forward` digest, in `DIMS` × `BITS` × `BATCHES` order.
fn qdense_digests() -> Vec<u64> {
    let mut out = Vec::new();
    for d in 0..DIMS.len() {
        for bits in BITS {
            let q = qdense(d, bits);
            for batch in BATCHES {
                out.push(digest(&q.forward(&qdense_input(d, batch))));
            }
        }
    }
    out
}

/// `[fused, unfused]` digests per scheme, each over batches `1..=9`.
fn model_digests(scheme: QuantScheme) -> [Vec<u64>; 2] {
    let q = model(scheme);
    let run = |f: &dyn Fn(&Tensor) -> Tensor| {
        (1..=MODEL_MAX_BATCH)
            .map(|batch| digest(&f(&model_input(batch))))
            .collect()
    };
    [run(&|x| q.forward_fused(x)), run(&|x| q.forward(x))]
}

#[test]
fn qdense_forward_is_bit_identical() {
    assert_eq!(qdense_digests(), QDENSE_GOLDEN);
}

#[test]
fn model_forwards_are_bit_identical() {
    for (scheme, table) in SCHEMES.into_iter().zip(&MODEL_GOLDEN) {
        let [fused, unfused] = model_digests(scheme);
        assert_eq!(fused, table[0], "{} forward_fused", scheme.name());
        assert_eq!(unfused, table[1], "{} forward", scheme.name());
    }
}

/// Both tables under every arm this host has, one digest each.
#[test]
fn forwards_are_bit_identical_under_every_isa_arm() {
    for isa in Isa::ALL.into_iter().filter(|&isa| isa <= Isa::detected()) {
        with_isa_cap(isa, || {
            assert_eq!(
                qdense_digests(),
                QDENSE_GOLDEN,
                "QDense::forward on {isa:?}"
            );
            for (scheme, table) in SCHEMES.into_iter().zip(&MODEL_GOLDEN) {
                let [fused, unfused] = model_digests(scheme);
                assert_eq!(
                    fused,
                    table[0],
                    "{} forward_fused on {isa:?}",
                    scheme.name()
                );
                assert_eq!(unfused, table[1], "{} forward on {isa:?}", scheme.name());
            }
        });
    }
}

/// Regenerates the tables below (run on the commit whose forward is the
/// reference): `cargo test -p tinymlops_quant --test forward_golden --
/// --ignored --nocapture`.
#[test]
#[ignore = "prints the golden tables instead of checking them"]
fn print_quant_forward_golden() {
    println!("const QDENSE_GOLDEN: [u64; {}] = [", qdense_digests().len());
    for v in qdense_digests() {
        println!("    {v:#018x},");
    }
    println!("];");
    println!("const MODEL_GOLDEN: [[[u64; MODEL_MAX_BATCH]; 2]; 2] = [");
    for scheme in SCHEMES {
        println!("    [");
        for path in model_digests(scheme) {
            let cells: Vec<String> = path.iter().map(|v| format!("{v:#018x}")).collect();
            println!("        [{}],", cells.join(", "));
        }
        println!("    ],");
    }
    println!("];");
}

#[rustfmt::skip]
const QDENSE_GOLDEN: [u64; 45] = [
    0x067f2133e995c511,
    0x6366827d774ce3f1,
    0x0be55807028286ce,
    0x700e720653b2a53d,
    0x5bb9edd204caed3f,
    0x3892f79433241550,
    0xc3eb4fc7e6a19071,
    0x8e03d592d58b2917,
    0xbaafc76f69f32b04,
    0x966e01c80ccad099,
    0x3ba5941097285133,
    0xdeffe48f22d9f3fe,
    0x4c6d37b804175d58,
    0x435d245d9fd080b3,
    0xf36e0fb524fd8f50,
    0xeabd083315a3267c,
    0x93399ef487c4a00d,
    0x683a62342a45d948,
    0xa676b93cf5753a0d,
    0x43f03461c8f9b3bf,
    0xe57859d0522209ba,
    0x60ed66ea869c2387,
    0xd5fc1e5381805a5c,
    0x3bf237382f11432e,
    0xcc26000aeee328a7,
    0x99ac6cb32b6e948c,
    0xb7d093d301e05206,
    0x03154a0b460e119a,
    0xa23001e179719e63,
    0x92c8bab606370db0,
    0x8bdf118f61793486,
    0x9dd4dc14b7fcc132,
    0xf5a47e267473b6a9,
    0xf4523a45db17e17d,
    0xce7d218b76a41468,
    0x36046a285ae6c696,
    0x47c6387a271d8c76,
    0xd7710e604b0aa501,
    0x0f3a2be448092e00,
    0x36447cba82de9b8d,
    0x3428eead94a97210,
    0xe77d7318762a359d,
    0x99218b89485e581d,
    0x279519b14882e292,
    0x44d3deba8136e794,
];

/// `MODEL_GOLDEN[scheme][path][batch - 1]`, `path` 0 = `forward_fused`,
/// 1 = `forward`.
#[rustfmt::skip]
const MODEL_GOLDEN: [[[u64; MODEL_MAX_BATCH]; 2]; 2] = [
    [
        [0x71928cee38f2554c, 0xae0e59baeecb7ca9, 0x98528e18c80e3fec, 0x10e027919fee18df, 0x726ee601db67f42e, 0x74410ad8168a86fa, 0xf70565f210e01476, 0x4a5b7cbff4ae039e, 0x24ef9608a07425cb],
        [0x71928cee38f2554c, 0x2a3d713799bdf4b8, 0xed63069dc3b323c2, 0x18d5a898c98891a9, 0x726ee601db67f42e, 0x74a759132750694e, 0xf70565f210e01476, 0x6b77310f53fe1a74, 0x24ef9608a07425cb],
    ],
    [
        [0xb8092206825355ef, 0x7e6ce0968a7d7ecb, 0x7511d60cbd850938, 0x8fff1e42df8ef692, 0xfb964b278ef06c95, 0x7c850795dcd5cd06, 0xd8aca23a3f1cad68, 0x5f2f86ec0c533305, 0x07188a4a6162b3d7],
        [0x78e00cb28a35e8cd, 0x5a3ed19742bf71c2, 0x937589f3c28f8ba7, 0x7688b0e0c1e361c5, 0x68f3022ed7440950, 0x0e54fbd2782e1b5c, 0x55630a50a4a3a22c, 0x600f06c531a85233, 0xfbcfc9c9e4c9957c],
    ],
];
