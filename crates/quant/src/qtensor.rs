//! Quantized dense kernels: packed int8/int4/int2 and binary XNOR.
//!
//! The integer forward path mirrors what a flash-resident deployment does
//! once at boot, not once per inference: the packed weights are unpacked a
//! single time, straight into the integer tile's panel layout (cached in a
//! [`OnceLock`]; the layout is documented in the private `tile` module);
//! activations are quantized by one shared helper
//! ([`quantize_activations`], the expression the verifier replays); and
//! every accumulation runs through that one tile, whose store
//! applies an integer epilogue — the identity for
//! [`QDense::int_accumulate`], requantization onto the next layer's grid on
//! a fused edge, dequantization plus bias for [`QDense::forward`] and the
//! last layer of a fused chain. The tile's arms — `vpdpbusd` on
//! AVX-512-VNNI, a portable body (with an AVX2 clone) elsewhere — are
//! chosen by `tensor::matmul::Isa` and capped per thread by
//! `tensor::matmul::with_isa_cap`. Integer addition is associative, so
//! every arm and tile shape is bit-identical to the seed scalar loop,
//! which is retained as [`QDense::forward_reference`], the oracle of the
//! property tests.
//!
//! # Fixed-point requantization
//!
//! Cross-layer fusion keeps activations in the integer domain between
//! consecutive `QDense` layers: instead of dequantizing accumulators to
//! f32 and re-quantizing at the next layer's input scale, a
//! [`RequantPlan`] folds the whole boundary into one integer multiply per
//! element. For output row `r` feeding a layer with input scale `s_next`,
//! the real-valued rescale factor is
//!
//! ```text
//! M_r = (in_scale · w_scales[r]) / s_next
//! ```
//!
//! which [`QDense::requant_plan`] decomposes (gemmlowp/TFLite style) into
//! a normalized i32 mantissa and a right shift: `M_r = mult_r · 2^-rshift_r`
//! with `mult_r = round(m · 2³¹)` for `m ∈ [0.5, 1)`, so
//! `mult_r ∈ [2³⁰, 2³¹)` keeps a full 31 bits of precision. The bias is
//! quantized once to accumulator units, `bias_q[r] = round(bias[r] /
//! (in_scale · w_scales[r]))`. Applying the plan is then pure integer
//! arithmetic off the i32 accumulator:
//!
//! ```text
//! q = clamp(rounding_shift((acc + bias_q[r]) · mult_r, rshift_r), -127, 127)
//! ```
//!
//! where `rounding_shift` is a round-half-away-from-zero right shift of
//! the i64 product (the same convention as `f32::round`, so the fused
//! activation lands within one int8 step — "one requant ULP" — of the
//! dequantize→`quantize_activations` reference), and the final clamp
//! saturates to the symmetric int8 grid. A ReLU at the boundary is
//! `max(acc + bias_q, 0)` *before* the multiply: the grid's zero-point is
//! 0 and `M_r > 0`, so integer clamping commutes exactly with the f32
//! ReLU. Degenerate scales (non-positive, non-finite, or a rescale ratio
//! outside `2^-62..2^31`) yield no plan and the caller falls back to the
//! f32 boundary.

use crate::tile::{self, operand_byte, Dequant, IntEpilogue, Panel};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use tinymlops_tensor::matmul::Isa;
use tinymlops_tensor::Tensor;

/// Round a weight row onto a symmetric `bits`-bit grid in place.
///
/// The grid has `2^(bits−1) − 1` positive levels (e.g. 127 for int8, 1 for
/// 2-bit); the scale is chosen from the row's max magnitude.
pub fn fake_quantize_tensor(row: &mut [f32], bits: u32) {
    let qmax = ((1i32 << (bits - 1)) - 1).max(1) as f32;
    let amax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if amax == 0.0 {
        return;
    }
    let scale = amax / qmax;
    for v in row.iter_mut() {
        *v = (*v / scale).round().clamp(-qmax, qmax) * scale;
    }
}

/// A dense layer with `bits`-bit symmetric weights (per-output-channel
/// scales), int8 input quantization and i32 accumulation.
///
/// Weights are stored **packed** (2 values/byte at 4 bits, 4 at 2 bits) —
/// what a flash image would hold — and unpacked once, into the integer
/// tile's panel, when the layer is prepared.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QDense {
    /// Packed weight bytes, rows concatenated.
    pub packed: Vec<u8>,
    /// Bits per weight: 8, 4 or 2.
    pub bits: u32,
    /// Per-output-row weight scales.
    pub w_scales: Vec<f32>,
    /// Input activation scale (from calibration).
    pub in_scale: f32,
    /// f32 bias per output.
    pub bias: Vec<f32>,
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// The weights as the integer tile reads them, built from `packed`
    /// on first use (the only RAM image of the weights besides `packed`).
    /// Rebuilt empty on deserialize; invariant: `packed` is immutable
    /// after construction (records are republished, never edited).
    #[serde(skip)]
    panel: OnceLock<Panel>,
}

fn qmax_for(bits: u32) -> i32 {
    (1i32 << (bits - 1)) - 1
}

/// Values per packed byte for a given bit width.
fn per_byte(bits: u32) -> usize {
    (8 / bits) as usize
}

/// Bytes needed per row of `in_dim` weights at `bits` bits.
fn row_bytes(in_dim: usize, bits: u32) -> usize {
    in_dim.div_ceil(per_byte(bits))
}

fn pack_row(q: &[i8], bits: u32, out: &mut Vec<u8>) {
    match bits {
        8 => out.extend(q.iter().map(|&v| v as u8)),
        4 => {
            for pair in q.chunks(2) {
                let lo = (pair[0] as u8) & 0x0f;
                let hi = if pair.len() > 1 {
                    (pair[1] as u8) & 0x0f
                } else {
                    0
                };
                out.push(lo | (hi << 4));
            }
        }
        2 => {
            for quad in q.chunks(4) {
                let mut b = 0u8;
                for (i, &v) in quad.iter().enumerate() {
                    b |= ((v as u8) & 0x03) << (2 * i);
                }
                out.push(b);
            }
        }
        _ => panic!("unsupported bit width {bits}"),
    }
}

fn unpack_row(packed: &[u8], bits: u32, in_dim: usize, out: &mut [i8]) {
    let out = &mut out[..in_dim];
    match bits {
        8 => {
            for (o, &b) in out.iter_mut().zip(packed) {
                *o = b as i8;
            }
        }
        4 => {
            for (pair, &b) in out.chunks_mut(2).zip(packed) {
                for (i, o) in pair.iter_mut().enumerate() {
                    // Sign-extend 4-bit two's complement.
                    *o = (((b >> (4 * i)) << 4) as i8) >> 4;
                }
            }
        }
        2 => {
            for (quad, &b) in out.chunks_mut(4).zip(packed) {
                for (i, o) in quad.iter_mut().enumerate() {
                    *o = (((b >> (2 * i)) << 6) as i8) >> 6;
                }
            }
        }
        _ => panic!("unsupported bit width {bits}"),
    }
}

impl QDense {
    /// Quantize an f32 weight matrix `[out,in]` + bias, with `in_scale`
    /// taken from calibration of this layer's input activations.
    #[must_use]
    pub fn quantize(w: &Tensor, bias: &Tensor, bits: u32, in_scale: f32) -> Self {
        assert!(matches!(bits, 8 | 4 | 2), "QDense supports 8/4/2 bits");
        let (out_dim, in_dim) = (w.shape()[0], w.shape()[1]);
        let qmax = qmax_for(bits) as f32;
        let mut packed = Vec::with_capacity(out_dim * row_bytes(in_dim, bits));
        let mut w_scales = Vec::with_capacity(out_dim);
        let mut qrow = vec![0i8; in_dim];
        for r in 0..out_dim {
            let row = w.row(r);
            let amax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if amax == 0.0 { 1.0 } else { amax / qmax };
            for (q, &v) in qrow.iter_mut().zip(row) {
                *q = (v / scale).round().clamp(-qmax, qmax) as i8;
            }
            pack_row(&qrow, bits, &mut packed);
            w_scales.push(scale);
        }
        QDense {
            packed,
            bits,
            w_scales,
            in_scale: if in_scale <= 0.0 { 1.0 } else { in_scale },
            bias: bias.data().to_vec(),
            in_dim,
            out_dim,
            panel: OnceLock::new(),
        }
    }

    /// Unpack row `r` of the integer weights into `out` (`in_dim` long).
    fn unpack_row_into(&self, r: usize, out: &mut [i8]) {
        let rb = row_bytes(self.in_dim, self.bits);
        unpack_row(
            &self.packed[r * rb..(r + 1) * rb],
            self.bits,
            self.in_dim,
            out,
        );
    }

    /// The tile's panel, built from `packed` in one pass on first use.
    fn panel(&self) -> &Panel {
        self.panel.get_or_init(|| {
            Panel::build(self.out_dim, self.in_dim, |r, row| {
                self.unpack_row_into(r, row)
            })
        })
    }

    /// Build the tile's panel now instead of on the first batch.
    pub fn prepare(&self) {
        self.panel();
    }

    /// Bytes per row of this layer's tile operand ([`QDense::load_operand`]).
    pub(crate) fn lda(&self) -> usize {
        self.panel().lda()
    }

    /// Quantize the `batch × in_dim` activations `x` onto this layer's
    /// input grid, straight into its tile operand `a` (resized to
    /// `batch·lda`): [`quantize_activations`] with the `+128` offset fused
    /// into the store.
    pub(crate) fn load_operand(&self, x: &[f32], batch: usize, a: &mut Vec<u8>) {
        debug_assert_eq!(x.len(), batch * self.in_dim);
        let lda = self.lda();
        a.resize(batch * lda, 0);
        if self.in_dim == 0 {
            return;
        }
        let (isa, inv) = (Isa::current(), 1.0 / self.in_scale);
        for (src, dst) in x.chunks_exact(self.in_dim).zip(a.chunks_exact_mut(lda)) {
            quantize_into(isa, src, inv, &mut dst[..self.in_dim], 0x80);
        }
    }

    /// The tile over this layer's weights: `c[i·ldc + j] = ep(Σ_l
    /// q[i][l]·w[j][l])` for the `batch` rows of operand `a`.
    pub(crate) fn run<E: IntEpilogue>(
        &self,
        a: &[u8],
        batch: usize,
        c: &mut [E::Out],
        ldc: usize,
        ep: E,
    ) {
        tile::sweep(a, batch, self.panel(), c, ldc, ep);
    }

    /// The epilogue that turns accumulators into this layer's f32 output,
    /// as [`QDense::dequantize_acc`] does.
    pub(crate) fn dequant(&self) -> Dequant<'_> {
        Dequant {
            in_scale: self.in_scale,
            w_scales: &self.w_scales,
            bias: &self.bias,
        }
    }

    /// Integer-kernel forward pass: `x [batch,in] → y [batch,out]`.
    /// Bit-identical to the three steps a verifier replays —
    /// [`QDense::quantize_input`], [`QDense::int_accumulate`],
    /// [`QDense::dequantize_acc`] — run as one: quantize into the tile's
    /// operand, dequantize in its store.
    ///
    /// Bit-identical to [`QDense::forward_reference`] (the seed scalar
    /// loop): i32 accumulation is associative, so tiling, panel order and
    /// batch parallelism cannot change a single output bit.
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols(), self.in_dim, "QDense input width");
        let batch = x.rows();
        let mut a = Vec::new();
        self.load_operand(x.data(), batch, &mut a);
        let mut out = vec![0.0f32; batch * self.out_dim];
        self.run(&a, batch, &mut out, self.out_dim, self.dequant());
        Tensor::from_vec(out, &[batch, self.out_dim])
    }

    /// The seed per-forward-unpacking scalar kernel, retained verbatim as
    /// the bit-exactness oracle for property tests (and the baseline
    /// `b01_kernels` times [`QDense::forward`] against).
    #[must_use]
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        assert_eq!(x.cols(), self.in_dim, "QDense input width");
        let q_in_max = 127.0f32;
        let mut xq = vec![0i8; batch * self.in_dim];
        for (q, &v) in xq.iter_mut().zip(x.data()) {
            *q = (v / self.in_scale).round().clamp(-q_in_max, q_in_max) as i8;
        }
        let rb = row_bytes(self.in_dim, self.bits);
        let mut wrow = vec![0i8; self.in_dim];
        let mut out = vec![0.0f32; batch * self.out_dim];
        for r in 0..self.out_dim {
            unpack_row(
                &self.packed[r * rb..(r + 1) * rb],
                self.bits,
                self.in_dim,
                &mut wrow,
            );
            let dequant = self.in_scale * self.w_scales[r];
            for b in 0..batch {
                let xrow = &xq[b * self.in_dim..(b + 1) * self.in_dim];
                let mut acc: i32 = 0;
                for (xv, wv) in xrow.iter().zip(wrow.iter()) {
                    acc += (*xv as i32) * (*wv as i32);
                }
                out[b * self.out_dim + r] = acc as f32 * dequant + self.bias[r];
            }
        }
        Tensor::from_vec(out, &[batch, self.out_dim])
    }

    /// Deployment size in bytes: packed weights + scales + bias.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.packed.len() + 4 * (self.w_scales.len() + self.bias.len()) + 4
    }

    /// Unpack the full integer weight matrix `[out,in]` (row-major i8) —
    /// used by the verifiable-execution layer, whose sum-check operates on
    /// the exact integers the kernel multiplies. Unpacked from `packed` on
    /// each call; no copy is cached.
    #[must_use]
    pub fn unpack_matrix(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.out_dim * self.in_dim];
        if self.in_dim > 0 {
            for (r, row) in out.chunks_exact_mut(self.in_dim).enumerate() {
                self.unpack_row_into(r, row);
            }
        }
        out
    }

    /// Quantize an activation batch to the layer's int8 input grid — the
    /// first step of [`QDense::forward`], exposed so a verifier reproduces
    /// the exact integers the kernel multiplied.
    #[must_use]
    pub fn quantize_input(&self, x: &Tensor) -> Vec<i8> {
        let mut out = vec![0i8; x.len()];
        quantize_activations(x.data(), self.in_scale, &mut out);
        out
    }

    /// Integer accumulator matmul: `acc[b][r] = Σ_j xq[b][j]·w[r][j]` —
    /// the exact integers the proof system commits to. The tile the
    /// forward passes run, with the identity epilogue.
    #[must_use]
    pub fn int_accumulate(&self, xq: &[i8], batch: usize) -> Vec<i32> {
        assert_eq!(xq.len(), batch * self.in_dim, "int_accumulate input");
        let lda = self.lda();
        let mut a = vec![0u8; batch * lda];
        if self.in_dim > 0 {
            for (src, dst) in xq.chunks_exact(self.in_dim).zip(a.chunks_exact_mut(lda)) {
                for (d, &q) in dst.iter_mut().zip(src) {
                    *d = operand_byte(q);
                }
            }
        }
        let mut acc = vec![0i32; batch * self.out_dim];
        self.run(&a, batch, &mut acc, self.out_dim, tile::Identity);
        acc
    }

    /// Dequantize accumulators to f32 outputs (`acc·scale + bias`), the
    /// elementwise step a verifier re-executes cheaply.
    #[must_use]
    pub fn dequantize_acc(&self, acc: &[i32], batch: usize) -> Tensor {
        let mut out = vec![0.0f32; batch * self.out_dim];
        for b in 0..batch {
            for r in 0..self.out_dim {
                out[b * self.out_dim + r] = acc[b * self.out_dim + r] as f32
                    * (self.in_scale * self.w_scales[r])
                    + self.bias[r];
            }
        }
        Tensor::from_vec(out, &[batch, self.out_dim])
    }

    /// Build the fixed-point plan for requantizing this layer's i32
    /// accumulators straight onto the int8 grid of a following layer with
    /// input scale `next_in_scale` — the cross-layer fusion that skips the
    /// f32 round trip [`QDense::dequantize_acc`] +
    /// [`quantize_activations`] would take (see the module docs for the
    /// multiplier/shift derivation). Returns `None` when any scale is
    /// degenerate (non-positive / non-finite) or a per-row rescale ratio
    /// falls outside `2^-62..2^31`; callers then take the f32 boundary.
    #[must_use]
    pub fn requant_plan(&self, next_in_scale: f32) -> Option<RequantPlan> {
        if !next_in_scale.is_finite()
            || next_in_scale <= 0.0
            || !self.in_scale.is_finite()
            || self.in_scale <= 0.0
        {
            return None;
        }
        let mut mult = Vec::with_capacity(self.out_dim);
        let mut rshift = Vec::with_capacity(self.out_dim);
        let mut bias_q = Vec::with_capacity(self.out_dim);
        for r in 0..self.out_dim {
            let acc_scale = f64::from(self.in_scale) * f64::from(self.w_scales[r]);
            let m = acc_scale / f64::from(next_in_scale);
            if !m.is_finite() || m <= 0.0 {
                return None;
            }
            // Normalize: m = frac · 2^exp with frac ∈ [0.5, 1).
            let mut frac = m;
            let mut exp = 0i32;
            while frac >= 1.0 {
                frac *= 0.5;
                exp += 1;
            }
            while frac < 0.5 {
                frac *= 2.0;
                exp -= 1;
            }
            let mut q = (frac * f64::from(1u32 << 31)).round() as i64;
            if q == 1i64 << 31 {
                q >>= 1;
                exp += 1;
            }
            let shift = 31 - exp;
            if !(1..=62).contains(&shift) {
                return None;
            }
            let b = (f64::from(self.bias[r]) / acc_scale).round();
            if b.abs() > f64::from(i32::MAX / 2) {
                return None;
            }
            mult.push(q as i32);
            rshift.push(shift as u32);
            bias_q.push(b as i32);
        }
        Some(RequantPlan {
            mult,
            rshift,
            bias_q,
        })
    }

    /// The fused counterpart of [`QDense::dequantize_acc`]: apply `plan`
    /// to the i32 accumulators, producing the next layer's int8
    /// activations without materializing f32. `relu` folds an intervening
    /// ReLU into the integer domain (`max(acc + bias_q, 0)` — exact, see
    /// module docs).
    #[must_use]
    pub fn requantize_acc(
        &self,
        acc: &[i32],
        batch: usize,
        plan: &RequantPlan,
        relu: bool,
    ) -> Vec<i8> {
        assert_eq!(plan.mult.len(), self.out_dim, "requant plan width");
        let mut out = vec![0i8; batch * self.out_dim];
        #[cfg(target_arch = "x86_64")]
        if Isa::current() >= Isa::Avx2Fma {
            // SAFETY: `Isa::current()` is at most `Isa::detected()`, which
            // checked avx2 on this CPU.
            unsafe { requantize_rows_avx2(acc, batch, self.out_dim, plan, relu, &mut out) };
            return out;
        }
        requantize_rows(acc, batch, self.out_dim, plan, relu, &mut out);
        out
    }
}

/// A per-output-row fixed-point requantization recipe built by
/// [`QDense::requant_plan`] — entirely derived from the serialized layer
/// scales, so plans survive any registry round trip byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequantPlan {
    /// Normalized multiplier mantissas, `mult[r] ∈ [2³⁰, 2³¹)`.
    pub mult: Vec<i32>,
    /// Right-shift amounts pairing each mantissa, in `1..=62`.
    pub rshift: Vec<u32>,
    /// Bias in accumulator units: `round(bias[r] / (in_scale·w_scales[r]))`.
    pub bias_q: Vec<i32>,
}

/// The requantize loop body shared by the portable and AVX2-enabled
/// entry points: zipping the plan columns keeps the per-element loads
/// bounds-check-free, and [`requant_one`] is branch-free, so under AVX2
/// codegen the i64 multiply/variable-shift chain vectorizes.
#[inline(always)]
fn requantize_rows(
    acc: &[i32],
    batch: usize,
    out_dim: usize,
    plan: &RequantPlan,
    relu: bool,
    out: &mut [i8],
) {
    for b in 0..batch {
        let acc_row = &acc[b * out_dim..(b + 1) * out_dim];
        let out_row = &mut out[b * out_dim..(b + 1) * out_dim];
        for ((((o, &a), &m), &sh), &bq) in out_row
            .iter_mut()
            .zip(acc_row)
            .zip(&plan.mult)
            .zip(&plan.rshift)
            .zip(&plan.bias_q)
        {
            *o = requant_one(a, m, sh, bq, relu);
        }
    }
}

/// AVX2 clone of [`requantize_rows`]; with the feature enabled LLVM gets
/// `vpsrlvq`/256-bit integer lanes for the fixed-point chain.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn requantize_rows_avx2(
    acc: &[i32],
    batch: usize,
    out_dim: usize,
    plan: &RequantPlan,
    relu: bool,
    out: &mut [i8],
) {
    requantize_rows(acc, batch, out_dim, plan, relu, out);
}

/// Requantize one accumulator: add the integer bias, optionally clamp at
/// zero (fused ReLU), apply the fixed-point multiplier with a
/// round-half-away-from-zero right shift, and saturate to the symmetric
/// int8 grid.
#[inline(always)]
pub(crate) fn requant_one(acc: i32, mult: i32, rshift: u32, bias_q: i32, relu: bool) -> i8 {
    let mut v = i64::from(acc) + i64::from(bias_q);
    if relu {
        v = v.max(0);
    }
    let prod = v * i64::from(mult);
    let nudge = 1i64 << (rshift - 1);
    // Branch-free round-half-away-from-zero: fold the sign out, shift the
    // magnitude, fold it back (s is 0 or −1, so `(x ^ s) − s` = ±x).
    // Equivalent to the ±branch form but data-independent, which both
    // dodges mispredicts on mixed-sign accumulators and leaves the loop
    // body vectorizable.
    let s = prod >> 63;
    let mag = (prod ^ s) - s;
    let shifted = (((mag + nudge) >> rshift) ^ s) - s;
    shifted.clamp(-127, 127) as i8
}

/// Quantize activations onto the int8 grid at `scale` — the single
/// expression shared by [`QDense::forward`] and [`QDense::quantize_input`]
/// (paper §V: the verifier must see the exact kernel inputs): `v / scale`
/// (as `v · (1/scale)`) rounded half away from zero, saturated to ±127,
/// NaN to 0.
#[inline]
pub fn quantize_activations(src: &[f32], scale: f32, dst: &mut [i8]) {
    debug_assert_eq!(src.len(), dst.len());
    // SAFETY: `i8` and `u8` have the same size and alignment, and every
    // bit pattern is valid for both.
    let dst = unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), dst.len()) };
    quantize_into(Isa::current(), src, 1.0 / scale, dst, 0);
}

/// Quantize `src` at reciprocal scale `inv` into `dst` as the bytes
/// `q ^ flip` — `flip` 0 stores `q`, `0x80` the tile operand `q + 128`.
#[inline]
fn quantize_into(isa: Isa, src: &[f32], inv: f32, dst: &mut [u8], flip: u8) {
    #[cfg(target_arch = "x86_64")]
    if isa >= Isa::Avx2Fma {
        // SAFETY: `isa` is at most `Isa::detected()`, which checked avx2.
        unsafe { quantize_avx2(src, inv, dst, flip) };
        return;
    }
    let _ = isa;
    quantize_body(src, inv, dst, flip);
}

/// One activation onto the grid: a hoisted reciprocal and a
/// trunc/copysign round-half-away-from-zero, then a saturating cast.
#[inline(always)]
fn quantize_one(v: f32, inv: f32) -> i8 {
    let t = v * inv;
    (t + 0.5f32.copysign(t)).trunc().clamp(-127.0, 127.0) as i8
}

/// The quantize loop of the portable arm, and the tail of the AVX2 one.
#[inline(always)]
fn quantize_body(src: &[f32], inv: f32, dst: &mut [u8], flip: u8) {
    for (q, &v) in dst.iter_mut().zip(src) {
        *q = (quantize_one(v, inv) as u8) ^ flip;
    }
}

/// [`quantize_one`] eight lanes at a time: the same multiply, add of
/// `copysign(0.5, t)` and truncation (`vroundps`), then a clamp whose NaN
/// lanes are zeroed before the conversion — the saturating `as i8` cast
/// the compiler would otherwise scalarize. Every lane stores what
/// [`quantize_one`] returns, NaN → 0 and ±∞ → ±127 included.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn quantize_avx2(src: &[f32], inv: f32, dst: &mut [u8], flip: u8) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cvttps_epi32,
        _mm256_extracti128_si256, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_mul_ps,
        _mm256_or_ps, _mm256_round_ps, _mm256_set1_ps, _mm_packs_epi16, _mm_packs_epi32,
        _mm_set1_epi8, _mm_storel_epi64, _mm_xor_si128, _CMP_ORD_Q, _MM_FROUND_NO_EXC,
        _MM_FROUND_TO_ZERO,
    };
    let n = src.len().min(dst.len());
    let body = n - n % 8;
    let inv_v = _mm256_set1_ps(inv);
    let sign = _mm256_set1_ps(-0.0);
    let half = _mm256_set1_ps(0.5);
    let (lo, hi) = (_mm256_set1_ps(-127.0), _mm256_set1_ps(127.0));
    let flip_v = _mm_set1_epi8(flip as i8);
    for c in (0..body).step_by(8) {
        // SAFETY: `c + 8 ≤ n`, so the 8 floats read and 8 bytes written
        // lie in `src` and `dst`; unaligned access is permitted.
        unsafe {
            let t = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(c)), inv_v);
            let r = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_ps(
                t,
                _mm256_or_ps(_mm256_and_ps(t, sign), half),
            ));
            let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(t, t);
            let q = _mm256_and_ps(_mm256_min_ps(_mm256_max_ps(r, lo), hi), ordered);
            let i = _mm256_cvttps_epi32(q);
            let w = _mm_packs_epi32(_mm256_castsi256_si128(i), _mm256_extracti128_si256::<1>(i));
            let b = _mm_xor_si128(_mm_packs_epi16(w, w), flip_v);
            _mm_storel_epi64(dst.as_mut_ptr().add(c).cast(), b);
        }
    }
    quantize_body(&src[body..n], inv, &mut dst[body..n], flip);
}

/// The portable i8·i8 → i32 dot product. Deliberately the plainest
/// possible reduction: unlike `tensor::matmul::dot` (where manual 4-way
/// unrolling supplies the reassociation floats forbid), integer addition
/// is already associative, so LLVM vectorizes this loop as-is — and
/// measurement showed a manual stride-4 unroll *breaks* that
/// vectorization (0.9 vs 6.8 MAC/cycle on AVX2). This loop is the
/// exactness oracle the tile tests hold every integer tile arm to, and
/// `b01_kernels`' baseline. Exactly equal to the sequential sum for any
/// input (associativity; |acc| ≤ len·127² cannot overflow i32 below
/// len ≈ 2¹⁷).
#[inline(always)]
#[must_use]
pub fn dot_i8_portable(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += i32::from(*x) * i32::from(*y);
    }
    acc
}

/// A binary (1-bit) dense layer: sign weights packed into `u64` words with
/// an XNOR-popcount kernel and per-row scaling factors (XNOR-Net style).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinaryDense {
    /// Sign bits, `words_per_row` u64 words per output row (1 = +1, 0 = −1).
    pub w_bits: Vec<u64>,
    /// Per-row scale α = mean |w|.
    pub alpha: Vec<f32>,
    /// f32 bias per output.
    pub bias: Vec<f32>,
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension.
    pub out_dim: usize,
    /// `true` = XNOR-Net: activations are also binarized by sign (the
    /// cheapest kernel, the post-hoc collapse E1 measures). `false` =
    /// weight-only binarization (BinaryConnect-style): the packed ±α
    /// weights multiply f32 activations — what binary-aware training
    /// prepares the network for, so int1 deployment keeps its accuracy.
    pub binarize_input: bool,
}

fn words_per_row(in_dim: usize) -> usize {
    in_dim.div_ceil(64)
}

impl BinaryDense {
    /// Binarize an f32 weight matrix `[out,in]`.
    #[must_use]
    pub fn quantize(w: &Tensor, bias: &Tensor) -> Self {
        let (out_dim, in_dim) = (w.shape()[0], w.shape()[1]);
        let wpr = words_per_row(in_dim);
        let mut w_bits = vec![0u64; out_dim * wpr];
        let mut alpha = Vec::with_capacity(out_dim);
        for r in 0..out_dim {
            let row = w.row(r);
            let a = row.iter().map(|v| v.abs()).sum::<f32>() / in_dim as f32;
            alpha.push(a);
            for (i, &v) in row.iter().enumerate() {
                if v >= 0.0 {
                    w_bits[r * wpr + i / 64] |= 1u64 << (i % 64);
                }
            }
        }
        BinaryDense {
            w_bits,
            alpha,
            bias: bias.data().to_vec(),
            in_dim,
            out_dim,
            binarize_input: true,
        }
    }

    /// Binarize weights only ([`BinaryDense::binarize_input`] = `false`):
    /// same 1-bit packed storage, f32 activations at execution.
    #[must_use]
    pub fn quantize_weight_only(w: &Tensor, bias: &Tensor) -> Self {
        BinaryDense {
            binarize_input: false,
            ..Self::quantize(w, bias)
        }
    }

    /// Forward pass: XNOR-popcount when [`BinaryDense::binarize_input`]
    /// is set (inputs binarized by sign with a per-example scale
    /// β = mean |x|, XNOR-Net: `y ≈ α·β·(x_b ⊙ w_b)`), otherwise the
    /// weight-only kernel `y = α·(Σ₊x − Σ₋x) + bias` over the same packed
    /// sign bits.
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        if !self.binarize_input {
            return self.forward_weight_only(x);
        }
        let batch = x.rows();
        assert_eq!(x.cols(), self.in_dim, "BinaryDense input width");
        let wpr = words_per_row(self.in_dim);
        let n = self.in_dim as i32;
        // Mask of valid bits in the last word (padding bits must not count).
        let tail_bits = self.in_dim % 64;
        let tail_mask: u64 = if tail_bits == 0 {
            !0u64
        } else {
            (1u64 << tail_bits) - 1
        };
        let mut out = vec![0.0f32; batch * self.out_dim];
        let mut x_bits = vec![0u64; wpr];
        for b in 0..batch {
            let xrow = x.row(b);
            let beta = xrow.iter().map(|v| v.abs()).sum::<f32>() / self.in_dim as f32;
            x_bits.fill(0);
            for (i, &v) in xrow.iter().enumerate() {
                if v >= 0.0 {
                    x_bits[i / 64] |= 1u64 << (i % 64);
                }
            }
            for r in 0..self.out_dim {
                let wrow = &self.w_bits[r * wpr..(r + 1) * wpr];
                let mut same: i32 = 0;
                for wi in 0..wpr {
                    let mask = if wi + 1 == wpr { tail_mask } else { !0u64 };
                    // XNOR = matching signs; count within valid lanes.
                    same += (!(x_bits[wi] ^ wrow[wi]) & mask).count_ones() as i32;
                }
                // dot(sign(x), sign(w)) = same − (n − same) = 2·same − n
                let dot = (2 * same - n) as f32;
                out[b * self.out_dim + r] = self.alpha[r] * beta * dot + self.bias[r];
            }
        }
        Tensor::from_vec(out, &[batch, self.out_dim])
    }

    /// Weight-only kernel: per output row, split the f32 input sum by the
    /// weight sign bits — `dot(x, ±α) = α·(2·Σ₊x − Σx)` — so the packed
    /// representation is still the only weight storage touched.
    fn forward_weight_only(&self, x: &Tensor) -> Tensor {
        let batch = x.rows();
        assert_eq!(x.cols(), self.in_dim, "BinaryDense input width");
        let wpr = words_per_row(self.in_dim);
        let mut out = vec![0.0f32; batch * self.out_dim];
        for b in 0..batch {
            let xrow = x.row(b);
            let sum_all: f32 = xrow.iter().sum();
            for r in 0..self.out_dim {
                let wrow = &self.w_bits[r * wpr..(r + 1) * wpr];
                let mut sum_plus = 0.0f32;
                for (i, &v) in xrow.iter().enumerate() {
                    if wrow[i / 64] & (1u64 << (i % 64)) != 0 {
                        sum_plus += v;
                    }
                }
                out[b * self.out_dim + r] =
                    self.alpha[r] * (2.0 * sum_plus - sum_all) + self.bias[r];
            }
        }
        Tensor::from_vec(out, &[batch, self.out_dim])
    }

    /// Deployment size in bytes: bit-planes + scales + bias.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.w_bits.len() * 8 + 4 * (self.alpha.len() + self.bias.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinymlops_tensor::matmul::PAR_MIN_MACS;
    use tinymlops_tensor::TensorRng;

    #[test]
    fn pack_unpack_round_trip_all_widths() {
        for bits in [8u32, 4, 2] {
            let qmax = qmax_for(bits) as i16;
            let vals: Vec<i8> = (0..37i16)
                .map(|i| ((i * 7) % (2 * qmax + 1) - qmax) as i8)
                .collect();
            let mut packed = Vec::new();
            pack_row(&vals, bits, &mut packed);
            assert_eq!(packed.len(), row_bytes(vals.len(), bits));
            let mut out = vec![0i8; vals.len()];
            unpack_row(&packed, bits, vals.len(), &mut out);
            assert_eq!(out, vals, "round trip at {bits} bits");
        }
    }

    #[test]
    fn qdense_int8_close_to_f32() {
        let mut rng = TensorRng::seed(1);
        let w = rng.uniform(&[6, 10], -1.0, 1.0);
        let b = rng.uniform(&[6], -0.1, 0.1);
        let x = rng.uniform(&[4, 10], -1.0, 1.0);
        let q = QDense::quantize(&w, &b, 8, 1.0 / 127.0 * 1.0);
        let got = q.forward(&x);
        let want = x.matmul_nt(&w).unwrap().add_row_vector(&b).unwrap();
        for (g, w_) in got.data().iter().zip(want.data()) {
            assert!((g - w_).abs() < 0.05, "int8: {g} vs {w_}");
        }
    }

    #[test]
    fn qdense_error_grows_as_bits_shrink() {
        let mut rng = TensorRng::seed(2);
        let w = rng.uniform(&[8, 16], -1.0, 1.0);
        let b = Tensor::zeros(&[8]);
        let x = rng.uniform(&[8, 16], -1.0, 1.0);
        let want = x.matmul_nt(&w).unwrap();
        let err_at = |bits: u32| -> f32 {
            let q = QDense::quantize(&w, &b, bits, 1.0 / 127.0);
            let got = q.forward(&x);
            got.sub(&want).unwrap().norm() / want.norm()
        };
        let (e8, e4, e2) = (err_at(8), err_at(4), err_at(2));
        assert!(e8 < e4 && e4 < e2, "errors: 8b={e8} 4b={e4} 2b={e2}");
        assert!(e8 < 0.02, "int8 relative error {e8}");
    }

    #[test]
    fn batch_parallel_path_is_bit_identical() {
        // 64 rows are two slabs and 64·64·64 = 262144 MACs crosses
        // PAR_MIN_MACS, so this exercises the pool branch of the tile
        // sweep (the proptests and the CI quick bench all stay below it).
        let mut rng = TensorRng::seed(9);
        let w = rng.uniform(&[64, 64], -1.0, 1.0);
        let b = rng.uniform(&[64], -0.1, 0.1);
        let x = rng.uniform(&[64, 64], -1.0, 1.0);
        for bits in [8u32, 4, 2] {
            let q = QDense::quantize(&w, &b, bits, 1.0 / 127.0);
            assert!(x.rows() * q.out_dim * q.in_dim >= PAR_MIN_MACS);
            assert_eq!(
                q.forward(&x).data(),
                q.forward_reference(&x).data(),
                "parallel path diverges at {bits} bits"
            );
        }
    }

    #[test]
    fn qdense_size_shrinks_with_bits() {
        let mut rng = TensorRng::seed(3);
        let w = rng.uniform(&[32, 64], -1.0, 1.0);
        let b = Tensor::zeros(&[32]);
        let s8 = QDense::quantize(&w, &b, 8, 0.01).size_bytes();
        let s4 = QDense::quantize(&w, &b, 4, 0.01).size_bytes();
        let s2 = QDense::quantize(&w, &b, 2, 0.01).size_bytes();
        assert!(s4 < s8 && s2 < s4);
        // Weight payloads should be exactly 1×, ½×, ¼×.
        assert_eq!(s8 - s4, 32 * 64 / 2);
    }

    #[test]
    fn binary_dense_sign_agreement() {
        // With ±1 inputs the XNOR kernel must reproduce the exact dot
        // product of the sign matrices.
        let mut rng = TensorRng::seed(4);
        let w = rng.uniform(&[5, 70], -1.0, 1.0); // >64 exercises multi-word
        let b = Tensor::zeros(&[5]);
        let q = BinaryDense::quantize(&w, &b);
        let x = rng
            .uniform(&[3, 70], -1.0, 1.0)
            .map(|v| if v >= 0.0 { 1.0 } else { -1.0 });
        let got = q.forward(&x);
        // Reference: sign(w) dot x, scaled by alpha (beta = 1 for ±1 x).
        let w_sign = w.map(|v| if v >= 0.0 { 1.0 } else { -1.0 });
        let want = x.matmul_nt(&w_sign).unwrap();
        for r in 0..3 {
            for c in 0..5 {
                let g = got.at(r, c);
                let alpha = q.alpha[c];
                let wnt = want.at(r, c) * alpha;
                assert!((g - wnt).abs() < 1e-4, "({r},{c}): {g} vs {wnt}");
            }
        }
    }

    #[test]
    fn binary_padding_bits_do_not_leak() {
        // in_dim = 65: one padding-heavy word. All-(-1) weights and inputs
        // must give dot = +65, not polluted by the 63 padding lanes.
        let w = Tensor::full(&[1, 65], -1.0);
        let b = Tensor::zeros(&[1]);
        let q = BinaryDense::quantize(&w, &b);
        let x = Tensor::full(&[1, 65], -1.0);
        let y = q.forward(&x);
        // alpha = 1, beta = 1, dot = 65.
        assert!((y.data()[0] - 65.0).abs() < 1e-4, "got {}", y.data()[0]);
    }

    #[test]
    fn binary_size_is_one_eighth() {
        let mut rng = TensorRng::seed(5);
        let w = rng.uniform(&[16, 128], -1.0, 1.0);
        let b = Tensor::zeros(&[16]);
        let q = BinaryDense::quantize(&w, &b);
        // 128 bits = 2 words = 16 bytes per row.
        assert_eq!(q.w_bits.len() * 8, 16 * 16);
        assert!(q.size_bytes() < 16 * 128); // ≪ 8 KiB of f32
    }

    #[test]
    fn int_accumulate_matches_portable_dots_on_awkward_dims() {
        // Dims chosen to exercise ragged k-groups (in_dim mod 4 ≠ 0) and
        // ragged panels (out_dim < 16) of the integer tile at once.
        let mut rng = TensorRng::seed(23);
        for (out_dim, in_dim) in [(7usize, 45usize), (4, 64), (13, 33), (1, 100), (8, 31)] {
            let w = rng.uniform(&[out_dim, in_dim], -1.0, 1.0);
            let b = rng.uniform(&[out_dim], -0.1, 0.1);
            let x = rng.uniform(&[3, in_dim], -1.5, 1.5);
            let q = QDense::quantize(&w, &b, 8, 0.02);
            let xq = q.quantize_input(&x);
            let acc = q.int_accumulate(&xq, 3);
            let wq = q.unpack_matrix();
            for bi in 0..3 {
                let xrow = &xq[bi * in_dim..(bi + 1) * in_dim];
                for r in 0..out_dim {
                    assert_eq!(
                        acc[bi * out_dim + r],
                        dot_i8_portable(xrow, &wq[r * in_dim..(r + 1) * in_dim]),
                        "acc diverges at [{bi},{r}] for {out_dim}x{in_dim}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_matches_reference_on_awkward_dims() {
        let mut rng = TensorRng::seed(21);
        let w = rng.uniform(&[19, 45], -1.0, 1.0);
        let b = rng.uniform(&[19], -0.1, 0.1);
        let x = rng.uniform(&[5, 45], -1.0, 1.0);
        for bits in [8u32, 4, 2] {
            let q = QDense::quantize(&w, &b, bits, 1.0 / 127.0);
            assert_eq!(q.forward(&x).data(), q.forward_reference(&x).data());
        }
    }

    #[test]
    fn requantize_acc_within_one_ulp_of_f32_boundary() {
        let mut rng = TensorRng::seed(30);
        let w = rng.uniform(&[9, 23], -1.0, 1.0);
        let b = rng.uniform(&[9], -0.4, 0.4);
        let x = rng.uniform(&[6, 23], -1.5, 1.5);
        let q = QDense::quantize(&w, &b, 8, 0.013);
        let next_in_scale = 0.021f32;
        let plan = q.requant_plan(next_in_scale).expect("sane scales");
        let xq = q.quantize_input(&x);
        let acc = q.int_accumulate(&xq, 6);
        for relu in [false, true] {
            let fused = q.requantize_acc(&acc, 6, &plan, relu);
            // Reference: dequantize to f32, (ReLU,) quantize at next scale.
            let mut f = q.dequantize_acc(&acc, 6);
            if relu {
                f = f.map(|v| v.max(0.0));
            }
            let mut want = vec![0i8; fused.len()];
            quantize_activations(f.data(), next_in_scale, &mut want);
            for (i, (&got, &w_)) in fused.iter().zip(&want).enumerate() {
                assert!(
                    (i32::from(got) - i32::from(w_)).abs() <= 1,
                    "relu={relu} elem {i}: fused {got} vs reference {w_}"
                );
            }
        }
    }

    #[test]
    fn requant_plan_rejects_degenerate_scales() {
        let mut rng = TensorRng::seed(31);
        let w = rng.uniform(&[3, 8], -1.0, 1.0);
        let b = Tensor::zeros(&[3]);
        let q = QDense::quantize(&w, &b, 8, 0.01);
        assert!(q.requant_plan(0.0).is_none());
        assert!(q.requant_plan(-1.0).is_none());
        assert!(q.requant_plan(f32::NAN).is_none());
        // An absurd rescale ratio (shift out of range) also bails out.
        assert!(q.requant_plan(1e38).is_none());
        assert!(q.requant_plan(0.02).is_some());
    }

    #[test]
    fn requant_fused_relu_is_exact() {
        // ReLU folded into the integer domain must equal the f32 ReLU
        // exactly whenever the unfused boundary itself rounds identically:
        // max commutes with positive scaling and round is monotone.
        let mut rng = TensorRng::seed(32);
        let w = rng.uniform(&[5, 12], -1.0, 1.0);
        let b = rng.uniform(&[5], -0.3, 0.3);
        let x = rng.uniform(&[4, 12], -1.0, 1.0);
        let q = QDense::quantize(&w, &b, 8, 0.011);
        let plan = q.requant_plan(0.017).expect("plan");
        let xq = q.quantize_input(&x);
        let acc = q.int_accumulate(&xq, 4);
        let relu_then = q.requantize_acc(&acc, 4, &plan, true);
        let plain = q.requantize_acc(&acc, 4, &plan, false);
        for (&r, &p) in relu_then.iter().zip(&plain) {
            assert_eq!(r, p.max(0), "integer ReLU must clamp exactly");
        }
    }

    /// The vectorized quantizer keeps every bit of the scalar expression
    /// at its edge cases — NaN → 0, ±∞ → ±127, ties away from zero, ±127.5
    /// saturating, −0.0 → 0 — in vector lanes and in the scalar tail, on
    /// every arm.
    #[test]
    fn quantize_activations_edge_cases_are_bit_exact_on_every_arm() {
        use tinymlops_tensor::matmul::with_isa_cap;
        let cases: [(f32, i8); 20] = [
            (f32::NAN, 0),
            (-f32::NAN, 0),
            (f32::INFINITY, 127),
            (f32::NEG_INFINITY, -127),
            (0.5, 1),
            (-0.5, -1),
            (1.5, 2),
            (-1.5, -2),
            (2.5, 3),
            (-2.5, -3),
            (127.5, 127),
            (-127.5, -127),
            (126.5, 127),
            (-126.5, -127),
            (-0.0, 0),
            (0.0, 0),
            (0.4, 0),
            (-0.6, -1),
            (1e30, 127),
            (-1e30, -127),
        ];
        // Every case lands once in each of the 8 vector lanes and in the
        // scalar tail.
        let n = cases.len() * 9 + 5;
        let src: Vec<f32> = (0..n).map(|i| cases[(i * 7) % cases.len()].0).collect();
        let want: Vec<i8> = (0..n).map(|i| cases[(i * 7) % cases.len()].1).collect();
        for isa in Isa::ALL.into_iter().filter(|&isa| isa <= Isa::detected()) {
            let mut got = vec![99i8; n];
            with_isa_cap(isa, || quantize_activations(&src, 1.0, &mut got));
            assert_eq!(got, want, "{isa:?}");
        }
    }

    #[test]
    fn fake_quantize_tensor_is_idempotent() {
        let mut row = vec![0.9f32, -0.4, 0.1, 0.0];
        fake_quantize_tensor(&mut row, 4);
        let once = row.clone();
        fake_quantize_tensor(&mut row, 4);
        assert_eq!(row, once);
    }
}
