//! Shared by `crates/nn/tests/forward_golden.rs` (every width × batch) and
//! the root crate's `tests/forward_golden.rs` (a tier-1 slice): fixed-seed
//! dense MLPs, fixed-seed inputs, and an FNV-1a digest of the exact output
//! bits of `Sequential::forward`.
//!
//! The tables below were generated on commit `efff5cd` — before `Dense` had
//! a prepared form — by running `print_forward_golden` there, so they pin
//! the per-call-pack forward (6×16 tiles, `KC` = 256 K-blocks, row-stream
//! dispatch below `NR` columns / `PACK_MIN_FLOPS`). A mismatch means the
//! f32 forward's arithmetic changed; every `results/e15…e22_*.json` table
//! is downstream of it. Find out why before touching a constant.

use tinymlops_nn::{Dense, Layer, Sequential};
use tinymlops_tensor::matmul::{KC, NR};
use tinymlops_tensor::{Tensor, TensorRng};

/// Largest batch in the tables (batches are `1..=MAX_BATCH`).
pub const MAX_BATCH: usize = 33;

/// The three pinned models: the `infer_serving` MLP (packed, packed,
/// row-stream), a tiny one (row-stream throughout), and one whose first
/// layer has a K-block remainder and a column-panel remainder.
pub fn widths() -> [Vec<usize>; 3] {
    [
        vec![64, 512, 512, 10],
        vec![20, 16, 3],
        vec![2 * KC + 37, NR + 5, 33],
    ]
}

/// Dense+ReLU stack over `widths` with non-zero biases (`mlp` leaves them
/// at zero, which would not exercise the bias add).
pub fn model(which: usize) -> Sequential {
    let widths = &widths()[which];
    let mut rng = TensorRng::seed(0x601d + which as u64);
    let mut layers = Vec::new();
    for (i, pair) in widths.windows(2).enumerate() {
        let w = rng.kaiming(pair[1], pair[0]);
        let b = rng.uniform(&[pair[1]], -0.5, 0.5);
        layers.push(Layer::Dense(Dense::from_params(w, b)));
        if i + 2 < widths.len() {
            layers.push(Layer::Relu);
        }
    }
    Sequential::new(layers)
}

/// The pinned input for `model(which)` at `batch` rows.
pub fn input(which: usize, batch: usize) -> Tensor {
    let dim = widths()[which][0];
    TensorRng::seed(1000 * (which as u64 + 1) + batch as u64).uniform(&[batch, dim], -1.0, 1.0)
}

/// FNV-1a over the shape and the exact bit pattern of every element.
pub fn digest(t: &Tensor) -> u64 {
    let dims = t.shape().iter().map(|&d| d as u32);
    let bits = t.data().iter().map(|v| v.to_bits());
    dims.chain(bits)
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `GOLDEN[which][batch - 1]` = digest of `model(which).forward(input(which, batch))`.
#[rustfmt::skip]
pub const GOLDEN: [[u64; MAX_BATCH]; 3] = [
    [
        0xe4b2fbf8a691c19e,
        0x3d5a9797588e5c82,
        0x370d921e909c66cc,
        0x0fc4fb2a7515537a,
        0x460db4ea2495b963,
        0x538d13c4a949a04e,
        0xcd1b9b0eed97c07b,
        0x1e73113102c7046a,
        0xace9900614acc0fd,
        0xb82eedc87093a5d8,
        0x375d2dc4e984a400,
        0xf2cc6401db36418c,
        0x25a105a21f90a6a1,
        0x3bb6747a3c7d758e,
        0x845b21b616ebae12,
        0x264d840dbeb6e110,
        0xd24c07737b70441d,
        0x4a690cef3e0cc90d,
        0x0b51f3f13799625c,
        0xd251b69479126185,
        0x75ed13aab83a54ca,
        0x27c0525f72c055ab,
        0x612e7c2403833cb6,
        0xcd46b7043b68e82d,
        0x7920f15ec1fd689e,
        0x5abed19b7fdc43e8,
        0x75b47e155316f5a2,
        0x24487862803f160c,
        0xebb8da02f30da101,
        0xc06ff59dead8bb5d,
        0x07a43174bafe727e,
        0x0cf5d8c9105f8523,
        0x15c85893f6411726,
    ],
    [
        0x3ddcb542628c0089,
        0x5a05b3b49ad0d950,
        0xc9307437806e8e10,
        0xa5e3aae50e7d8cd7,
        0x38c08b7f8f89cb7d,
        0x44ce1b8c51444d8b,
        0xb62121f22749512a,
        0x79957fb28f43aa21,
        0x92b95199288640ef,
        0xc317fc687d13569e,
        0xb7e7eadfdd52273f,
        0x111a82dd2a7c1cec,
        0x2568351259bc8d78,
        0xc79e2ccc5f7749eb,
        0x4de7830ab9ff27f4,
        0xcca55f7621267853,
        0xac24988d308d852a,
        0x922c0d1a0ff94f81,
        0x354bb1c467eadeea,
        0x726dff0680e35ce4,
        0x8fc6fdcd91e76b95,
        0x5e0b809d80cebbee,
        0x271bbdc844724418,
        0x4fd0f0b9a18db8d4,
        0x21b708a2e55b304f,
        0x81de3c4f5dab3dd9,
        0x8be2c17a42e47c87,
        0x03a2c1e9bba2e9de,
        0xefadb17fdb6914e5,
        0x0405f0c9d4c2d185,
        0x6317bc2c5da52ff4,
        0xb242bf1a0ee51623,
        0xe82ea3eee9d84d54,
    ],
    [
        0x50e6ffe4c1627ac6,
        0x0031b2638a9e4f8b,
        0x78b1d99af59ab173,
        0xca42b416c0ebfb5a,
        0xb218a266ca3a41d4,
        0x97ddb1ee073cb21e,
        0x0f068c7ef0776d3d,
        0xa7bd71c6f2c2672d,
        0x46a6564e32db357c,
        0x5c0eb81455dec37d,
        0x45a50ef55c43d575,
        0xe1798a6424542444,
        0x71b5693939efd8ac,
        0x187d6ae64a49afa6,
        0x852ea310e5d1026a,
        0x9832a968e5a88b5c,
        0xb662c82cd4e88df5,
        0xc9208009dd9c2a9f,
        0xc6bcbc850e103a9e,
        0x33b627036bc0bf5b,
        0x56e1384164553519,
        0x666b3e0034cbc862,
        0x117b2ecb87a0315f,
        0xec92b4d136eaa512,
        0x9ec901a77f5599a9,
        0x7b566031e6322fd7,
        0xd2eb47f90831fc78,
        0x4c26b9d2c47a9eb9,
        0x3d0f0fc0b5936eda,
        0xb12842726ad8de4e,
        0x63b57fb4726db4a9,
        0xbebc0ebe96c6c386,
        0xb2dec82974386f1b,
    ],
];
