//! Packed-panel, rayon-parallel matrix multiplication, and the register-tile
//! sweep the f32 and integer GEMMs share.
//!
//! GEMM dominates both training (federated rounds, watermark embedding) and
//! inference (every experiment), so this is the one kernel we tune. The
//! dense path is a BLIS-style cache-blocked kernel: B is packed once per
//! K-block into NR-wide column panels, and a register tile reads its rows
//! of A in place, one K-block window at a time, while it sweeps the panels.
//! Packing pays for itself by turning every B access into a contiguous,
//! branch-free stream; the panels are reused across the whole M sweep, so
//! B is read from DRAM once per K-block instead of once per output row.
//!
//! Pruned models still win with the seed row-streaming kernel (its
//! `a == 0.0` skip elides whole B-row passes), so [`gemm`] measures the
//! sparsity of A and dispatches: dense inputs take the packed tiles,
//! genuinely sparse inputs ([`SPARSE_SKIP_THRESHOLD`]) keep the skip. The
//! row kernel is retained as [`gemm_row_stream`] — it is also the seed
//! baseline that `b01_kernels` benchmarks the packed path against.
//!
//! A *constant* transposed B — a `Dense` weight matrix at inference — is
//! packed once into a [`PackedB`] and multiplied through
//! [`gemm_prepacked`]: the same panels, the same sweep, no per-call pack.
//!
//! [`sweep`] is the loop both element types run, the f32 tile here and
//! `quant`'s int8 tile being its two [`TileKernel`]s. It cuts C into
//! 32-row slabs (the pool takes them only when there is more than one and
//! the product is at least [`PAR_MIN_MACS`]), each slab into tiles of
//! balanced height (7 rows are 4+3 on a 6-row tile, not 6+1), and reads
//! each group of adjacent panels once while the slab's tiles cycle under
//! it, so a small batch streams each panel exactly once. On a CPU with
//! AVX-512F the f32 tile is up to 8 rows by three adjacent panels (8 × 48:
//! 24 zmm accumulators), so the 8-row batch the serving micro-batcher sends
//! is one tile; elsewhere it is up to 6 × 16. The f32 product runs the
//! sweep once per K-block. Every output element is still the same
//! `mul_add` chain over `l` within a K-block, added into C K-block by
//! K-block in order — tiling, tile shape, loop order and pre-packing cannot
//! change a bit of it. An [`Epilogue`] (a bias, then a ReLU) rides on the
//! last K-block's store.
//!
//! Shapes [`nt_uses_panels`] keeps off the tiles (a 10-class head, a tiny
//! batch) round like [`dot`]. [`gemm_prepacked_dot`] computes exactly
//! that rounding over a [`PackedB`], with SIMD lanes across output
//! columns, so a prepared weight matrix serves every shape.
//!
//! Which instruction set the kernels use is decided per call by [`Isa`]:
//! the widest arm the CPU has, capped per thread by [`with_isa_cap`] so
//! tests can run every arm on one host. No arm changes a bit.

use crate::{Tensor, TensorError};
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::OnceLock;

/// Multiply-accumulates (`m·k·n`) below which a kernel stays on the
/// calling thread: handing a smaller product to the pool costs more than
/// it saves.
pub const PAR_MIN_MACS: usize = 64 * 64 * 64;

/// FLOP threshold below which packing overhead dominates and the
/// row-streaming kernel is used instead of the tiled path.
const PACK_MIN_FLOPS: usize = 32 * 32 * 32;

/// Rows per f32 tile on the portable and AVX2+FMA arms.
pub const MR: usize = 6;

/// Columns per B-panel. Under AVX2 a panel is two ymm vectors of f32, and
/// with MR=6 the 6×16 tile is the classic x86 register blocking: 12
/// accumulator vectors + 2 B vectors + 1 broadcast ≤ 16 ymm. Under AVX-512
/// a panel is one zmm vector and a tile spans up to three adjacent panels.
/// The panel layout is the same on every CPU, so a [`PackedB`] is too.
pub const NR: usize = 16;

/// Rows per f32 tile on the AVX-512 arm. With `WR_ZMM` panels an 8 × 48
/// tile is 24 zmm accumulators + 3 B vectors + 1 broadcast = 28 of 32
/// registers, and 8 is the batch the serving micro-batcher fills.
const MR_ZMM: usize = 8;

/// Adjacent B panels per f32 tile on the AVX-512 arm (a row's last one or
/// two panels take a narrower tile).
const WR_ZMM: usize = 3;

/// K-dimension block: the B-panel block of `KC` rows plus a slab's A rows
/// over the same `KC` columns stay L2-resident while the M sweep reuses
/// them.
pub const KC: usize = 256;

/// Rows of C per slab, the unit [`sweep`] hands the pool: large enough to
/// amortize task spawn, small enough to load-balance odd shapes.
const M_TASK_ROWS: usize = 32;

/// Zero fraction of A at which the row-streaming kernel's pruned-weight
/// skip beats the branch-free packed tiles. Measured with `b01_kernels`:
/// at 256³ the packed kernel is >2× the row kernel on dense inputs, so the
/// skip has to elide well over half the K-passes before it wins.
pub const SPARSE_SKIP_THRESHOLD: f32 = 0.6;

/// Elements sampled (evenly strided) when estimating the sparsity of A.
const SPARSITY_SAMPLE: usize = 1024;

/// An instruction-set arm of the f32 and integer kernels, narrowest first.
/// Every arm produces the same bits; they differ only in speed. The f32
/// kernels top out at [`Isa::Avx512`]; `quant`'s int8 tile adds
/// [`Isa::Avx512Vnni`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// The `mul_add` bodies compiled for the baseline target (native
    /// fused instructions on aarch64, a correctly rounded `fmaf` call on
    /// an x86-64 without FMA).
    Portable,
    /// x86-64 AVX2 + FMA: `H × 16` tiles in ymm registers.
    Avx2Fma,
    /// x86-64 AVX-512F (with AVX2 + FMA): tiles of up to 8 rows × 3 panels
    /// (8 × 48) in zmm registers.
    Avx512,
    /// [`Isa::Avx512`] plus AVX-512 VNNI, BW and DQ: the int8 tile's
    /// `vpdpbusd` and its requantizing store. The f32 kernels run their
    /// AVX-512 arm here.
    Avx512Vnni,
}

impl Isa {
    /// Every arm, narrowest first.
    pub const ALL: [Isa; 4] = [Isa::Portable, Isa::Avx2Fma, Isa::Avx512, Isa::Avx512Vnni];

    /// The widest arm this CPU supports, read from CPUID once per process.
    #[must_use]
    pub fn detected() -> Isa {
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(Isa::probe)
    }

    fn probe() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if !std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx2Fma;
            }
            return if std::arch::is_x86_feature_detected!("avx512vnni")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                Isa::Avx512Vnni
            } else {
                Isa::Avx512
            };
        }
        Isa::Portable
    }

    /// The arm a kernel called on this thread runs: [`Isa::detected`],
    /// capped by the innermost [`with_isa_cap`]. Never wider than the CPU,
    /// which is what the kernels' `unsafe` dispatch relies on.
    #[must_use]
    pub fn current() -> Isa {
        Isa::detected().min(ISA_CAP.with(Cell::get))
    }
}

thread_local! {
    static ISA_CAP: Cell<Isa> = const { Cell::new(Isa::Avx512Vnni) };
}

/// Run `f` with this thread's kernels — f32 here, integer in `quant` —
/// capped at `cap` (the arm is still never wider than the CPU). Restores
/// the previous cap afterwards (also on panic); nestable. A kernel reads
/// the cap once on entry and hands the arm to its pool tasks, so worker
/// threads follow the caller.
pub fn with_isa_cap<R>(cap: Isa, f: impl FnOnce() -> R) -> R {
    ISA_CAP.with(|c| {
        let prev = c.replace(cap);
        struct Restore<'a>(&'a Cell<Isa>, Isa);
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.0.set(self.1);
            }
        }
        let _restore = Restore(c, prev);
        f()
    })
}

impl Tensor {
    /// Matrix product `self · rhs` for `[m,k] × [k,n] → [m,n]`.
    ///
    /// A `[k]` vector `rhs` is treated as `[k,1]` (result `[m]`), and a
    /// `[k]` vector `self` as `[1,k]`.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k1) = two_d(self);
        let (k2, n) = two_d(rhs);
        if k1 != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm(self.data(), rhs.data(), &mut out, m, k1, n);
        let shape: Vec<usize> = match (self.shape().len(), rhs.shape().len()) {
            (1, _) => vec![n],
            (_, 1) => vec![m],
            _ => vec![m, n],
        };
        Ok(Tensor::from_vec(out, &shape))
    }

    /// `self · rhsᵀ` without materializing the transpose: `[m,k] × [n,k] → [m,n]`.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let (m, k1) = two_d(self);
        let (n, k2) = two_d(rhs);
        if k1 != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        gemm_nt(self.data(), rhs.data(), &mut out, m, k1, n);
        Ok(Tensor::from_vec(out, &[m, n]))
    }
}

/// Interpret a 1-D or 2-D tensor as a matrix: vectors on the left are rows,
/// on the right columns — matching the dispatch in [`Tensor::matmul`].
fn two_d(t: &Tensor) -> (usize, usize) {
    match t.shape().len() {
        1 => (t.shape()[0], 1),
        2 => (t.shape()[0], t.shape()[1]),
        _ => panic!("matmul operands must be 1-D or 2-D, got {:?}", t.shape()),
    }
}

/// Dot product over four accumulation chains: chain `l mod 4` sums
/// `a[l]·b[l]` (a multiply, then an add: two roundings) for `l` below the
/// last multiple of 4, the chains are summed `((s0+s1)+s2)+s3`, and the
/// `len mod 4` tail is added last.
///
/// Float adds cannot be reassociated, so the compiler runs this as four
/// scalar, latency-bound chains rather than SIMD across `l`. The rounding
/// is part of [`gemm_nt_row_stream`]'s arithmetic; [`gemm_prepacked_dot`]
/// reproduces it bit for bit with the SIMD lanes across output columns.
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let base = i * 4;
        s0 += a[base] * b[base];
        s1 += a[base + 1] * b[base + 1];
        s2 += a[base + 2] * b[base + 2];
        s3 += a[base + 3] * b[base + 3];
    }
    let mut sum = s0 + s1 + s2 + s3;
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Estimated zero fraction of `a`, from an evenly strided sample. The scan
/// is O(min(len, [`SPARSITY_SAMPLE`])) — negligible next to the O(m·k·n)
/// multiply it steers.
fn sparsity_estimate(a: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    let stride = (a.len() / SPARSITY_SAMPLE).max(1);
    let mut zeros = 0usize;
    let mut seen = 0usize;
    let mut i = 0;
    while i < a.len() {
        if a[i] == 0.0 {
            zeros += 1;
        }
        seen += 1;
        i += stride;
    }
    zeros as f32 / seen as f32
}

/// Raw GEMM: `c[m×n] = a[m×k] · b[k×n]`, with `c` pre-zeroed.
///
/// Dispatches on shape and content: tiny or narrow problems take the
/// row-streaming kernel (packing would not amortize), sparse A keeps the
/// seed kernel's zero-skip, and everything else runs the packed tiles.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if n < NR || m * k * n < PACK_MIN_FLOPS || sparsity_estimate(a) >= SPARSE_SKIP_THRESHOLD {
        gemm_row_stream(a, b, c, m, k, n);
    } else {
        gemm_packed(a, b, c, m, k, n);
    }
}

/// Raw transposed-B GEMM: `c[m×n] = a[m×k] · b[n×k]ᵀ`, `c` pre-zeroed.
///
/// Shares the packed micro-kernel with [`gemm`]: only the B-packing step
/// differs (panels gather rows of `b` instead of columns), so both layouts
/// hit the identical inner loop.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if nt_uses_panels(m, k, n) {
        gemm_packed_nt(a, b, c, m, k, n);
    } else {
        gemm_nt_row_stream(a, b, c, m, k, n);
    }
}

/// Whether [`gemm_nt`] runs this shape on packed tiles (else
/// [`gemm_nt_row_stream`]). The two kernels round differently, so a caller
/// holding a [`PackedB`] asks this to stay bit-identical to [`gemm_nt`]:
/// [`gemm_prepacked`] if it does, [`gemm_prepacked_dot`] if not.
#[must_use]
pub fn nt_uses_panels(m: usize, k: usize, n: usize) -> bool {
    n >= NR && m * k * n >= PACK_MIN_FLOPS
}

/// How a B-panel gathers its `kc × NR` block out of the source matrix.
#[derive(Clone, Copy)]
enum BSource {
    /// `b` is `[k,n]` row-major: panel column `j` reads `b[l·n + j]`.
    Normal { n: usize },
    /// `b` is `[n,k]` row-major (transposed operand), packed by a blocked
    /// transpose: each source row streams contiguously into the panel's
    /// strided column, so every cache line of B is read once, sequentially.
    Transposed { k: usize },
}

/// Pack one `kc × nr` B-panel (zero-padded to NR columns) at `bp`, laid out
/// k-major so the micro-kernel reads NR contiguous floats per k-step.
fn pack_b_panel(
    b: &[f32],
    src: BSource,
    l0: usize,
    kc: usize,
    j0: usize,
    nr: usize,
    bp: &mut [f32],
) {
    debug_assert_eq!(bp.len(), kc * NR);
    match src {
        BSource::Normal { n } => {
            for l in 0..kc {
                let row = &b[(l0 + l) * n + j0..(l0 + l) * n + j0 + nr];
                let dst = &mut bp[l * NR..l * NR + NR];
                dst[..nr].copy_from_slice(row);
                dst[nr..].fill(0.0);
            }
        }
        BSource::Transposed { k } => {
            // Blocked transpose: read each of the nr source rows once,
            // contiguously (`kc` sequential floats), scattering into the
            // panel's NR-strided column. The writes all land in the same
            // hot panel lines (≤ 16 KiB, reused across the whole M sweep),
            // so streaming the reads is the win.
            if nr < NR {
                for row in bp.chunks_exact_mut(NR).take(kc) {
                    row[nr..].fill(0.0);
                }
            }
            for jj in 0..nr {
                let src = &b[(j0 + jj) * k + l0..(j0 + jj) * k + l0 + kc];
                for (l, &v) in src.iter().enumerate() {
                    bp[l * NR + jj] = v;
                }
            }
        }
    }
}

/// Pack K-rows `l0..l0+kc` of B into `block`: `⌈n/NR⌉` consecutive
/// `kc × NR` panels.
fn pack_b_block(b: &[f32], src: BSource, l0: usize, kc: usize, n: usize, block: &mut [f32]) {
    for (pj, bp) in block.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = pj * NR;
        pack_b_panel(b, src, l0, kc, j0, NR.min(n - j0), bp);
    }
}

/// A constant transposed-B operand (`[n,k]` row-major — a `Dense` weight
/// matrix) packed once into the panels [`gemm_packed_nt`] builds per call:
/// every K-block's `⌈n/NR⌉` panels of `kc × NR`, K-blocks in order (a
/// matrix narrower than `NR` is one zero-padded panel per K-block).
/// [`gemm_prepacked`] and [`gemm_prepacked_dot`] multiply against it
/// without touching the source rows again. It is a snapshot: whoever owns
/// the source matrix drops the `PackedB` when the matrix changes.
pub struct PackedB {
    k: usize,
    n: usize,
    /// `⌈n/NR⌉·NR·k` floats; the block for K-rows `l0..l0+kc` is
    /// `[⌈n/NR⌉·NR·l0, ⌈n/NR⌉·NR·(l0+kc))`.
    panels: Vec<f32>,
}

impl PackedB {
    /// Pack `bt` (`[n,k]` row-major).
    #[must_use]
    pub fn from_transposed(bt: &[f32], n: usize, k: usize) -> Self {
        assert_eq!(bt.len(), n * k, "PackedB: {n}x{k} matrix expected");
        let mut packed = PackedB {
            k,
            n,
            panels: vec![0.0f32; n.div_ceil(NR) * NR * k],
        };
        for l0 in (0..k).step_by(KC) {
            let kc = KC.min(k - l0);
            let block = packed.block_range(l0, kc);
            pack_b_block(
                bt,
                BSource::Transposed { k },
                l0,
                kc,
                n,
                &mut packed.panels[block],
            );
        }
        packed
    }

    fn block_range(&self, l0: usize, kc: usize) -> std::ops::Range<usize> {
        let width = self.n.div_ceil(NR) * NR;
        width * l0..width * (l0 + kc)
    }
}

impl std::fmt::Debug for PackedB {
    /// Dimensions only — the panels are a megabyte of the source's floats.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedB({}x{})", self.n, self.k)
    }
}

/// What [`gemm_prepacked`] and [`gemm_prepacked_dot`] apply to each
/// output element as they store it: `+ bias[j]`, then `max(·, 0)` — a
/// `Dense` layer's bias and a ReLU after it, fused into the GEMM's last
/// store instead of two more passes over C, and rounded exactly as those
/// passes round them (`v += bias[j]`, then `v = v.max(0.0)`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Added to column `j` of every row; `n` long.
    pub bias: Option<&'a [f32]>,
    /// Clamp at zero after the bias as `v.max(0.0)` does: a NaN becomes
    /// `+0.0`. (No `-0.0` reaches it: a sum whose chain starts at `+0.0`
    /// plus a bias is `-0.0` only if both are.)
    pub relu: bool,
}

impl Epilogue<'_> {
    /// The epilogue applied to output `v` of column `j`.
    #[inline(always)]
    fn apply(self, v: f32, j: usize) -> f32 {
        let v = match self.bias {
            Some(bias) => v + bias[j],
            None => v,
        };
        if self.relu {
            v.max(0.0)
        } else {
            v
        }
    }
}

/// A register-tile kernel that [`sweep`] drives: it owns the operands, its
/// tile shape and tile bodies per [`Isa`] arm, and its store. The f32 tile
/// over one K-block (this module) and `quant`'s int8 tile are the two.
pub trait TileKernel: Sync {
    /// The element type of C.
    type Out: Send;

    /// The tallest (rows) and widest (adjacent `NR`-column panels) tile
    /// this kernel runs on `isa`; at most 8 × 3.
    fn max_tile(isa: Isa) -> (usize, usize);

    /// The tile at rows `i0..i0 + H` of the product and panels
    /// `pj..pj + W`: it writes columns `pj·NR..pj·NR + cols` of its `H`
    /// rows of C, `c` (row `i` of the tile at `i·ldc`). `cols` is in
    /// `(W − 1)·NR + 1..=W·NR`, and `H × W` fits [`TileKernel::max_tile`]
    /// of `isa`, which is never wider than the CPU.
    fn tile<const H: usize, const W: usize>(
        &self,
        isa: Isa,
        i0: usize,
        pj: usize,
        cols: usize,
        c: &mut [Self::Out],
        ldc: usize,
    );
}

/// Run `kernel` over the `m × n` product into `c`, whose row `i` starts at
/// `i·ldc`. `k` is the product's depth and only sizes the pool rule (a
/// K-blocked product passes its whole K, so every block decides alike).
///
/// C is cut into slabs of `M_TASK_ROWS` rows, handed to the pool when there
/// is more than one and the product is at least [`PAR_MIN_MACS`]. A slab's
/// rows are cut into tiles of balanced height at most the kernel's
/// [`TileKernel::max_tile`] — the first `rows mod tiles` one row taller —
/// and each group of adjacent panels (as wide as the kernel's tile while
/// that many remain, the ragged rest after) is read once while the tiles
/// cycle under it.
pub fn sweep<K: TileKernel>(
    kernel: &K,
    m: usize,
    k: usize,
    n: usize,
    c: &mut [K::Out],
    ldc: usize,
) {
    assert!(ldc >= n && c.len() >= m * ldc, "rows of C");
    if m == 0 || n == 0 {
        return;
    }
    let isa = Isa::current();
    let c = &mut c[..m * ldc];
    let slab = |(s, c_slab): (usize, &mut [K::Out])| {
        sweep_slab(isa, kernel, s * M_TASK_ROWS, n, c_slab, ldc);
    };
    if m > M_TASK_ROWS && m * k * n >= PAR_MIN_MACS {
        c.par_chunks_mut(M_TASK_ROWS * ldc)
            .enumerate()
            .for_each(slab);
    } else {
        c.chunks_mut(M_TASK_ROWS * ldc).enumerate().for_each(slab);
    }
}

/// One slab of C: rows `i_base..`, `c_slab.len() / ldc` of them.
fn sweep_slab<K: TileKernel>(
    isa: Isa,
    kernel: &K,
    i_base: usize,
    n: usize,
    c_slab: &mut [K::Out],
    ldc: usize,
) {
    let (mr, wr) = K::max_tile(isa);
    let rows = c_slab.len() / ldc;
    let tiles = rows.div_ceil(mr);
    let (short, taller) = (rows / tiles, rows % tiles);
    let n_panels = n.div_ceil(NR);
    for pj in (0..n_panels).step_by(wr) {
        let w = wr.min(n_panels - pj);
        let cols = (w * NR).min(n - pj * NR);
        for t in 0..tiles {
            // Tile `t` starts at row `t·short + min(t, taller)` of the slab.
            let (i0, h) = (t * short + t.min(taller), short + usize::from(t < taller));
            let c_tile = &mut c_slab[i0 * ldc..(i0 + h) * ldc];
            let tile: TileFn<K> = match h {
                1 => tile_w::<K, 1>,
                2 => tile_w::<K, 2>,
                3 => tile_w::<K, 3>,
                4 => tile_w::<K, 4>,
                5 => tile_w::<K, 5>,
                6 => tile_w::<K, 6>,
                7 => tile_w::<K, 7>,
                8 => tile_w::<K, 8>,
                _ => unreachable!("tiles are 1..=8 rows tall"),
            };
            tile(kernel, isa, w, i_base + i0, pj, cols, c_tile, ldc);
        }
    }
}

/// [`tile_w`] at one height.
type TileFn<K> = fn(&K, Isa, usize, usize, usize, usize, &mut [<K as TileKernel>::Out], usize);

/// [`TileKernel::tile`] at height `H` for a run-time panel count `w`.
#[allow(clippy::too_many_arguments)] // raw kernel plumbing, not an API
fn tile_w<K: TileKernel, const H: usize>(
    kernel: &K,
    isa: Isa,
    w: usize,
    i0: usize,
    pj: usize,
    cols: usize,
    c: &mut [K::Out],
    ldc: usize,
) {
    match w {
        1 => kernel.tile::<H, 1>(isa, i0, pj, cols, c, ldc),
        2 => kernel.tile::<H, 2>(isa, i0, pj, cols, c, ldc),
        3 => kernel.tile::<H, 3>(isa, i0, pj, cols, c, ldc),
        _ => unreachable!("tiles are 1..=3 panels wide"),
    }
}

/// The f32 [`TileKernel`]: `C += A · B` over one K-block — columns
/// `l0..l0 + kc` of A's rows, read in place `lda` apart, against that
/// block's `kc × NR` panels — then `ep` on the stored values.
struct F32Block<'a> {
    a: &'a [f32],
    lda: usize,
    l0: usize,
    /// The block's panels, `kc·NR` floats each.
    panels: &'a [f32],
    kc: usize,
    ep: Epilogue<'a>,
}

impl TileKernel for F32Block<'_> {
    type Out = f32;

    fn max_tile(isa: Isa) -> (usize, usize) {
        if isa >= Isa::Avx512 {
            (MR_ZMM, WR_ZMM)
        } else {
            (MR, 1)
        }
    }

    /// [`tile_avx512`] on the AVX-512 arm, else [`tile_avx2`] or
    /// [`tile_portable`] and [`add_tile`] (one panel wide).
    #[inline]
    fn tile<const H: usize, const W: usize>(
        &self,
        isa: Isa,
        i0: usize,
        pj: usize,
        cols: usize,
        c: &mut [f32],
        ldc: usize,
    ) {
        let a = &self.a[i0 * self.lda + self.l0..];
        let bp = &self.panels[pj * self.kc * NR..(pj + W) * self.kc * NR];
        let (lda, j0, ep) = (self.lda, pj * NR, self.ep);
        #[cfg(target_arch = "x86_64")]
        if isa >= Isa::Avx512 {
            // SAFETY: `isa` is at most `Isa::detected()`, which checked
            // avx512f on this CPU.
            return unsafe { tile_avx512::<H, W>(a, lda, bp, c, ldc, j0, cols, ep) };
        }
        // Constant per instantiation: the 8-row and 3-panel tiles the
        // sweep's table also instantiates never compile a narrow body.
        assert!(H <= MR && W == 1, "the ymm and portable tiles are MR × 1");
        #[cfg(target_arch = "x86_64")]
        if isa >= Isa::Avx2Fma {
            // SAFETY: `isa` is at most `Isa::detected()`, which checked
            // avx2+fma on this CPU.
            let acc = unsafe { tile_avx2::<H>(a, lda, bp) };
            return add_tile(&acc, c, ldc, j0, cols, ep);
        }
        let _ = isa;
        add_tile(&tile_portable::<H>(a, lda, bp), c, ldc, j0, cols, ep);
    }
}

/// The portable f32 tile body, and the oracle the other two are held to:
/// `H` rows of A (`lda` apart, read in place) times one `kc × NR` panel
/// `bp`. Each element is one accumulator chained over `l` from zero with
/// `mul_add` — a native fused instruction on aarch64, a correctly rounded
/// `fmaf` call on an x86-64 without FMA — so its bits depend neither on
/// `H` nor on the arm.
fn tile_portable<const H: usize>(a: &[f32], lda: usize, bp: &[f32]) -> [[f32; NR]; H] {
    let mut t = [[0.0f32; NR]; H];
    for (l, bv) in bp.chunks_exact(NR).enumerate() {
        for (i, row) in t.iter_mut().enumerate() {
            let ai = a[i * lda + l];
            for (t, &b) in row.iter_mut().zip(bv) {
                *t = ai.mul_add(b, *t);
            }
        }
    }
    t
}

/// The AVX2+FMA f32 tile body: [`tile_portable`]'s chains in `2·H` ymm
/// accumulators (12 of the 16 registers at `H` = `MR`, beside the panel
/// row's two vectors and a broadcast). Per k-step each row's A value is
/// broadcast once, in place, and feeds two `vfmadd231ps`, which round as
/// `mul_add` does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn tile_avx2<const H: usize>(a: &[f32], lda: usize, bp: &[f32]) -> [[f32; NR]; H] {
    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let kc = bp.len() / NR;
    // The bounds every pointer below stays inside.
    assert!(
        bp.len() == kc * NR && a.len() >= (H - 1) * lda + kc,
        "tile operands"
    );
    let (ap, b) = (a.as_ptr(), bp.as_ptr());
    let mut acc = [[_mm256_setzero_ps(); 2]; H];
    for l in 0..kc {
        // SAFETY: `l < kc`, so the 16 floats at `l·NR` lie in `bp`.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(b.add(l * NR)),
                _mm256_loadu_ps(b.add(l * NR + 8)),
            )
        };
        for (i, row) in acc.iter_mut().enumerate() {
            // SAFETY: `i·lda + l < (H − 1)·lda + kc ≤ a.len()`.
            let ai = _mm256_set1_ps(unsafe { *ap.add(i * lda + l) });
            row[0] = _mm256_fmadd_ps(ai, b0, row[0]);
            row[1] = _mm256_fmadd_ps(ai, b1, row[1]);
        }
    }
    let mut t = [[0.0f32; NR]; H];
    for (out, row) in t.iter_mut().zip(&acc) {
        // SAFETY: `out` is `NR` = 16 floats; unaligned stores are permitted.
        unsafe {
            _mm256_storeu_ps(out.as_mut_ptr(), row[0]);
            _mm256_storeu_ps(out.as_mut_ptr().add(8), row[1]);
        }
    }
    t
}

/// Add each accumulator row's first `cols` values into its row of C
/// (`ldc` apart) at column `j0`, then apply `ep`.
#[inline]
fn add_tile(
    acc: &[[f32; NR]],
    c_tile: &mut [f32],
    ldc: usize,
    j0: usize,
    cols: usize,
    ep: Epilogue<'_>,
) {
    for (c_row, acc_row) in c_tile.chunks_mut(ldc).zip(acc) {
        for (j, (cv, &av)) in c_row[j0..j0 + cols].iter_mut().zip(acc_row).enumerate() {
            *cv = ep.apply(*cv + av, j0 + j);
        }
    }
}

/// The AVX-512 f32 register tile: `C[.., j0..j0+cols] += A · Bp` over one
/// K-block for `H` rows of A (`lda` apart, read in place) and `W` adjacent
/// panels (`bp`, each `kc × NR`), then `ep` on the stored values. `H ≤
/// MR_ZMM`, `W ≤ WR_ZMM`, and the last panel's dead columns (`cols < W·NR`)
/// are masked off.
///
/// The 8 × 48 tile is 24 zmm accumulators, 3 B vectors and a broadcast of
/// A: 28 of the 32 registers. Per k-step each A value is broadcast once
/// and feeds `W` FMAs, and each B vector feeds `H`. Every accumulator
/// starts from zero and chains `vfmadd231ps` over `l` — exactly
/// [`tile_portable`]'s chain for its element — and the finished tile is
/// *added* into C, so an element's bits do not depend on `H`, `W` or the
/// arm.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)] // raw kernel plumbing, not an API
fn tile_avx512<const H: usize, const W: usize>(
    a: &[f32],
    lda: usize,
    bp: &[f32],
    c_tile: &mut [f32],
    ldc: usize,
    j0: usize,
    cols: usize,
    ep: Epilogue<'_>,
) {
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_max_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    let kc = bp.len() / (W * NR);
    // The bounds every pointer below stays inside.
    assert!(
        bp.len() == W * kc * NR && a.len() >= (H - 1) * lda + kc,
        "tile operands"
    );
    assert!(cols > (W - 1) * NR && cols <= W * NR, "tile columns");
    assert!(c_tile.len() >= (H - 1) * ldc + j0 + cols, "tile rows of C");
    assert!(ep.bias.is_none_or(|b| b.len() >= j0 + cols), "bias columns");
    let (ap, b) = (a.as_ptr(), bp.as_ptr());
    let mut acc = [[_mm512_setzero_ps(); W]; H];
    for l in 0..kc {
        let mut bv = [_mm512_setzero_ps(); W];
        for (w, bw) in bv.iter_mut().enumerate() {
            // SAFETY: `w < W` and `l < kc`, so the 16 floats at
            // `(w·kc + l)·NR` lie in `bp` (asserted `W·kc·NR` long).
            *bw = unsafe { _mm512_loadu_ps(b.add((w * kc + l) * NR)) };
        }
        for (i, row) in acc.iter_mut().enumerate() {
            // SAFETY: `i·lda + l < (H − 1)·lda + kc ≤ a.len()`.
            let ai = _mm512_set1_ps(unsafe { *ap.add(i * lda + l) });
            for (t, &bw) in row.iter_mut().zip(&bv) {
                *t = _mm512_fmadd_ps(ai, bw, *t);
            }
        }
    }
    let zero = _mm512_setzero_ps();
    for (i, row) in acc.iter().enumerate() {
        for (w, &t) in row.iter().enumerate() {
            let j = j0 + w * NR;
            let live = (cols - w * NR).min(NR);
            let mask = u16::MAX >> (NR - live);
            // SAFETY: the lanes `mask` keeps are columns `j..j+live` of
            // row `i`, `j + live ≤ j0 + cols`, so they lie in `c_tile` and
            // in `bias` (asserted above); masked-off lanes are not touched.
            unsafe {
                let p = c_tile.as_mut_ptr().add(i * ldc + j);
                let mut v: __m512 = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, p), t);
                if let Some(bias) = ep.bias {
                    v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(mask, bias.as_ptr().add(j)));
                }
                if ep.relu {
                    // `vmaxps` returns its second operand when either is a
                    // NaN (or both are zeros), so a NaN becomes `+0.0`, as
                    // under `f32::max(v, 0.0)`.
                    v = _mm512_max_ps(v, zero);
                }
                _mm512_mask_storeu_ps(p, mask, v);
            }
        }
    }
}

/// Where the tiled sweep finds B's panels.
enum Panels<'a> {
    /// Packed per K-block into one reused block buffer, then swept — for a
    /// B that is not constant (training, `backward`).
    PerCall(&'a [f32], BSource),
    /// Already packed.
    Packed(&'a PackedB),
}

/// `c += a · b` over the tiles, then `ep` on the stored values: one
/// [`sweep`] per K-block, the epilogue riding on the last one's store.
#[allow(clippy::too_many_arguments)] // raw kernel plumbing, not an API
fn gemm_tiled(
    a: &[f32],
    b: Panels<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
) {
    if k == 0 {
        // No K-block to ride on: C is the whole product.
        for row in c.chunks_exact_mut(n.max(1)) {
            for (j, v) in row.iter_mut().enumerate() {
                *v = ep.apply(*v, j);
            }
        }
        return;
    }
    let n_panels = n.div_ceil(NR);
    let mut bp_scratch = match b {
        Panels::PerCall(..) => vec![0.0f32; n_panels * KC.min(k) * NR],
        Panels::Packed(_) => Vec::new(),
    };
    for l0 in (0..k).step_by(KC) {
        let kc = KC.min(k - l0);
        let ep = if l0 + kc == k {
            ep
        } else {
            Epilogue::default()
        };
        let panels = match b {
            Panels::PerCall(b, src) => {
                let block = &mut bp_scratch[..n_panels * kc * NR];
                pack_b_block(b, src, l0, kc, n, block);
                &*block
            }
            Panels::Packed(p) => &p.panels[p.block_range(l0, kc)],
        };
        let block = F32Block {
            a,
            lda: k,
            l0,
            panels,
            kc,
            ep,
        };
        sweep(&block, m, k, n, c, n);
    }
}

/// Packed-tile GEMM over `b` in `[k,n]` layout. Exposed so tests and
/// `b01_kernels` can exercise the tiled path regardless of the sparsity /
/// size dispatch in [`gemm`].
pub fn gemm_packed(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let b = Panels::PerCall(b, BSource::Normal { n });
    gemm_tiled(a, b, c, m, k, n, Epilogue::default());
}

/// Packed-tile GEMM over `b` in transposed `[n,k]` layout: same micro-kernel
/// as [`gemm_packed`], B packed via a blocked transpose (contiguous source
/// reads) instead of strided column gathers.
pub fn gemm_packed_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let b = Panels::PerCall(b, BSource::Transposed { k });
    gemm_tiled(a, b, c, m, k, n, Epilogue::default());
}

/// [`gemm_packed_nt`] against panels packed ahead of time, with `ep` fused
/// into the store: `c[m×n] = ep(a[m×k] · bᵀ)` for the `[n,k]` matrix `b`
/// was built from, `c` pre-zeroed — bit-identical to the per-call pack
/// followed by `ep` as a separate pass.
pub fn gemm_prepacked(a: &[f32], b: &PackedB, c: &mut [f32], m: usize, ep: Epilogue<'_>) {
    debug_assert_eq!(a.len(), m * b.k);
    debug_assert_eq!(c.len(), m * b.n);
    assert!(ep.bias.is_none_or(|bias| bias.len() == b.n), "bias length");
    gemm_tiled(a, Panels::Packed(b), c, m, b.k, b.n, ep);
}

/// [`gemm_nt_row_stream`] against panels packed ahead of time, with `ep`
/// fused into the store: `c[m×n] = ep(a[m×k] · bᵀ)`, every product
/// rounded exactly as [`dot`] rounds it, so bit-identical to the
/// row-stream kernel on the `[n,k]` matrix `b` was built from followed by
/// `ep` as a separate pass. The shapes [`nt_uses_panels`] keeps off the
/// tiles — a classifier head narrower than `NR`, a batch too small to
/// tile — take this with the same `PackedB` the tiles use.
///
/// Per row of A and panel of B it keeps [`dot`]'s four chains, one
/// `NR`-lane vector each, with the lanes across the panel's output
/// columns: the panel row for `l` is the `NR` weights `b[j][l]`, so lane
/// `j` of chain `l mod 4` adds `a[l]·b[j][l]` in the order `dot` does.
pub fn gemm_prepacked_dot(a: &[f32], b: &PackedB, c: &mut [f32], m: usize, ep: Epilogue<'_>) {
    let (k, n) = (b.k, b.n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    assert!(ep.bias.is_none_or(|bias| bias.len() == n), "bias length");
    let isa = Isa::current();
    let body = |(i, c_row): (usize, &mut [f32])| {
        let a_row = &a[i * k..(i + 1) * k];
        for (pj, c_cols) in c_row.chunks_mut(NR).enumerate() {
            let sums = dot_panel(isa, a_row, b, pj);
            for (j, (cv, &sum)) in c_cols.iter_mut().zip(&sums).enumerate() {
                *cv = ep.apply(sum, pj * NR + j);
            }
        }
    };
    if m * n * k >= PAR_MIN_MACS && m > 1 {
        c.par_chunks_mut(n).enumerate().for_each(body);
    } else {
        c.chunks_mut(n).enumerate().for_each(body);
    }
}

// `dot_panel_portable` runs `dot`'s chains across K-blocks.
const _: () = assert!(KC.is_multiple_of(4));

/// [`dot`] of `a_row` with each of panel `pj`'s `NR` columns, on `isa`.
///
/// Both x86 arms run the AVX2 clone. A zmm clone saved ≈0.6 µs on an
/// 8-row 512→10 head, but a narrow-only model (every layer on this sweep)
/// would then run 512-bit FP code and clock down whatever runs after it:
/// an int8 forward following it measured ≈16 % slower.
#[inline]
fn dot_panel(isa: Isa, a_row: &[f32], b: &PackedB, pj: usize) -> [f32; NR] {
    #[cfg(target_arch = "x86_64")]
    if isa >= Isa::Avx2Fma {
        // SAFETY: `isa` is at most `Isa::detected()`, which checked avx2
        // on this CPU.
        return unsafe { dot_panel_avx2(a_row, b, pj) };
    }
    let _ = isa;
    dot_panel_portable(a_row, b, pj)
}

/// The body of [`dot_panel`]. A multiply and an add per step — never a
/// fused one: `dot` rounds twice.
#[inline(always)]
fn dot_panel_portable(a_row: &[f32], b: &PackedB, pj: usize) -> [f32; NR] {
    let k = a_row.len();
    // `dot`'s chained prefix; K-blocks start at multiples of KC, and so of
    // 4, so each block holds whole chain steps and the chains run across
    // blocks unbroken.
    let quads = k / 4 * 4;
    let panel = |l0: usize, kc: usize| {
        let block = &b.panels[b.block_range(l0, kc)];
        &block[pj * kc * NR..(pj + 1) * kc * NR]
    };
    let mut s = [[0.0f32; NR]; 4];
    for l0 in (0..quads).step_by(KC) {
        let kc = KC.min(k - l0);
        let q = kc.min(quads - l0);
        let bp = &panel(l0, kc)[..q * NR];
        for (av, bv) in a_row[l0..l0 + q]
            .chunks_exact(4)
            .zip(bp.chunks_exact(4 * NR))
        {
            for (r, s) in s.iter_mut().enumerate() {
                for j in 0..NR {
                    s[j] += av[r] * bv[r * NR + j];
                }
            }
        }
    }
    let mut sum = [0.0f32; NR];
    for j in 0..NR {
        sum[j] = s[0][j] + s[1][j] + s[2][j] + s[3][j];
    }
    // The tail lies in the last K-block.
    if quads < k {
        let l0 = (k - 1) / KC * KC;
        let bp = panel(l0, k - l0);
        for l in quads..k {
            for j in 0..NR {
                sum[j] += a_row[l] * bp[(l - l0) * NR + j];
            }
        }
    }
    sum
}

/// AVX2 clone of [`dot_panel_portable`]: each chain is two ymm vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_panel_avx2(a_row: &[f32], b: &PackedB, pj: usize) -> [f32; NR] {
    dot_panel_portable(a_row, b, pj)
}

/// The seed row-streaming kernel: k-outer loop per C row with contiguous B
/// streaming and an `a == 0.0` skip that elides whole B-row passes.
///
/// Retained for two callers: [`gemm`] routes genuinely sparse A here (the
/// skip beats branch-free tiles past [`SPARSE_SKIP_THRESHOLD`]), and
/// `b01_kernels` measures the packed kernel's speedup against it.
pub fn gemm_row_stream(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let row_kernel = |(i, c_row): (usize, &mut [f32])| {
        let a_row = &a[i * k..(i + 1) * k];
        for (l, &a_val) in a_row.iter().enumerate() {
            if a_val == 0.0 {
                continue; // pruned-model fast path
            }
            let b_row = &b[l * n..(l + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += a_val * bv;
            }
        }
    };
    if m * k * n >= PAR_MIN_MACS && m > 1 {
        c.par_chunks_mut(n).enumerate().for_each(row_kernel);
    } else {
        c.chunks_mut(n).enumerate().for_each(row_kernel);
    }
}

/// Row-streaming transposed-B kernel (dot products over contiguous rows of
/// both operands) — the small-shape fallback for [`gemm_nt`], and the seed
/// baseline `b01_kernels` measures the packed nt path against.
pub fn gemm_nt_row_stream(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let body = |(i, out_row): (usize, &mut [f32])| {
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            *o = dot(a_row, b_row);
        }
    };
    if m * n * k >= PAR_MIN_MACS && m > 1 {
        c.par_chunks_mut(n).enumerate().for_each(body);
    } else {
        c.chunks_mut(n).enumerate().for_each(body);
    }
}

/// Sequential reference GEMM used by tests and benchmarks as ground truth.
pub fn gemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for l in 0..k {
                s += a[i * k + l] * b[l * n + j];
            }
            c[i * n + j] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = TensorRng::seed(7);
        let a = rng.uniform(&[5, 5], -1.0, 1.0);
        let c = a.matmul(&Tensor::eye(5)).unwrap();
        for (x, y) in a.data().iter().zip(c.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matvec_shapes() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]);
        let x = Tensor::vector(&[3.0, 4.0]);
        let y = a.matmul(&x).unwrap();
        assert_eq!(y.shape(), &[2]);
        assert_eq!(y.data(), &[3.0, 8.0]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn gemm_matches_naive_on_random_matrices() {
        let mut rng = TensorRng::seed(42);
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 9, 23), (64, 32, 16)] {
            let a = rng.uniform(&[m, k], -2.0, 2.0);
            let b = rng.uniform(&[k, n], -2.0, 2.0);
            let mut want = vec![0.0; m * n];
            gemm_naive(a.data(), b.data(), &mut want, m, k, n);
            let got = a.matmul(&b).unwrap();
            for (g, w) in got.data().iter().zip(&want) {
                assert!((g - w).abs() < 1e-4, "mismatch {g} vs {w}");
            }
        }
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let mut rng = TensorRng::seed(11);
        let (m, k, n) = (80, 70, 90); // above PAR_MIN_MACS
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let mut want = vec![0.0; m * n];
        gemm_naive(a.data(), b.data(), &mut want, m, k, n);
        let got = a.matmul(&b).unwrap();
        for (g, w) in got.data().iter().zip(&want) {
            assert!((g - w).abs() < 1e-3);
        }
    }

    #[test]
    fn packed_kernel_handles_k_blocking_boundary() {
        // k spans multiple KC blocks including a remainder block.
        let mut rng = TensorRng::seed(19);
        let (m, k, n) = (10, 2 * KC + 37, 12);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let mut want = vec![0.0; m * n];
        gemm_naive(a.data(), b.data(), &mut want, m, k, n);
        let mut got = vec![0.0; m * n];
        gemm_packed(a.data(), b.data(), &mut got, m, k, n);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-2, "{g} vs {w}");
        }
    }

    #[test]
    fn packed_nt_matches_naive_on_remainder_tiles() {
        let mut rng = TensorRng::seed(23);
        let (m, k, n) = (MR + 1, KC + 3, NR + 5);
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let bt = rng.uniform(&[n, k], -1.0, 1.0);
        let b = bt.transpose();
        let mut want = vec![0.0; m * n];
        gemm_naive(a.data(), b.data(), &mut want, m, k, n);
        let mut got = vec![0.0; m * n];
        gemm_packed_nt(a.data(), bt.data(), &mut got, m, k, n);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-2, "{g} vs {w}");
        }
    }

    #[test]
    fn blocked_transpose_pack_is_bit_identical_to_gather_pack() {
        // Same panels, different fill order: the blocked transpose must
        // write exactly what the stride-k column gather it replaced wrote
        // (kept here as the reference), on every tile shape including
        // remainder columns and multi-KC K spans — and so the product
        // over either set of panels is the same bits.
        let gather_pack = |bt: &[f32], n: usize, k: usize| {
            let n_panels = n.div_ceil(NR);
            let mut panels = vec![0.0f32; n_panels * NR * k];
            for l in 0..k {
                let (l0, kc) = (l / KC * KC, KC.min(k - l / KC * KC));
                for j in 0..n {
                    let panel = n_panels * NR * l0 + (j / NR) * kc * NR;
                    panels[panel + (l - l0) * NR + j % NR] = bt[j * k + l];
                }
            }
            PackedB { k, n, panels }
        };
        let mut rng = TensorRng::seed(29);
        for &(m, k, n) in &[
            (MR + 1, KC + 3, NR + 5),
            (2 * MR, 2 * KC + 17, 3 * NR - 7),
            (13, 40, NR),
        ] {
            let a = rng.uniform(&[m, k], -1.0, 1.0);
            let bt = rng.uniform(&[n, k], -1.0, 1.0);
            let gathered = gather_pack(bt.data(), n, k);
            assert_eq!(
                PackedB::from_transposed(bt.data(), n, k).panels,
                gathered.panels,
                "{k}x{n} panels"
            );
            let mut blocked = vec![0.0; m * n];
            gemm_packed_nt(a.data(), bt.data(), &mut blocked, m, k, n);
            let mut via_gather = vec![0.0; m * n];
            gemm_prepacked(a.data(), &gathered, &mut via_gather, m, Epilogue::default());
            assert_eq!(blocked, via_gather, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_is_bit_identical_to_per_call_pack() {
        // One slab, several slabs in sequence, and slabs through the pool;
        // K-block and column remainders; every balanced tile height.
        let mut rng = TensorRng::seed(37);
        for &(k, n) in &[(2 * KC + 37, NR + 5), (64, 3 * NR), (KC, NR)] {
            let bt = rng.uniform(&[n, k], -1.0, 1.0);
            let packed = PackedB::from_transposed(bt.data(), n, k);
            for m in (1..=2 * M_TASK_ROWS + 3).chain([5 * M_TASK_ROWS + 1]) {
                let a = rng.uniform(&[m, k], -1.0, 1.0);
                let mut per_call = vec![0.0; m * n];
                gemm_packed_nt(a.data(), bt.data(), &mut per_call, m, k, n);
                let mut pre = vec![0.0; m * n];
                gemm_prepacked(a.data(), &packed, &mut pre, m, Epilogue::default());
                assert_eq!(per_call, pre, "{m}x{k}x{n}");
            }
        }
    }

    /// `h × cols` of A·B: A as `h` rows `lda` apart whose `kc` live values
    /// start at column `off` — the K-block window a tile reads in place —
    /// with NaN junk around them (read, it poisons the element), returned
    /// from the window on; B packed as `⌈cols/NR⌉` adjacent panels; and the
    /// scalar `mul_add` chain from zero that each tile element must equal
    /// (0 in padding columns). Row 0 of A is zero and every even column of
    /// B negative, so those chains add only `-0.0` products: seeded with
    /// the first product instead of zero, such a chain ends at `-0.0`.
    fn tile_case(
        rng: &mut TensorRng,
        h: usize,
        kc: usize,
        cols: usize,
        (lda, off): (usize, usize),
    ) -> (Vec<f32>, Vec<f32>, impl Fn(usize, usize) -> f32) {
        let mut a = rng.uniform(&[h, kc], -1.0, 1.0);
        a.data_mut()[..kc].fill(0.0);
        let mut b = rng.uniform(&[kc, cols], -1.0, 1.0);
        for (x, v) in b.data_mut().iter_mut().enumerate() {
            if (x % cols).is_multiple_of(2) {
                *v = -v.abs();
            }
        }
        let mut rows = vec![f32::NAN; h * lda];
        for (row, src) in rows.chunks_exact_mut(lda).zip(a.data().chunks_exact(kc)) {
            row[off..off + kc].copy_from_slice(src);
        }
        let rows = rows[off..(h - 1) * lda + off + kc].to_vec();
        let mut bp = vec![0.0; kc * cols.div_ceil(NR) * NR];
        pack_b_block(b.data(), BSource::Normal { n: cols }, 0, kc, cols, &mut bp);
        let want = move |i: usize, j: usize| {
            if j < cols {
                (0..kc).fold(0.0f32, |s, l| a.at(i, l).mul_add(b.at(l, j), s))
            } else {
                0.0
            }
        };
        (rows, bp, want)
    }

    /// A's rows packed (`lda = kc`), and `lda > kc` with junk between them.
    fn row_layouts(kc: usize) -> [(usize, usize); 2] {
        [(kc, 0), (kc + 7, 3)]
    }

    /// The CI host dispatches to the AVX-512 tile; this runs the portable
    /// body at every tile height its arm instantiates, with a `kc` that is
    /// not a multiple of anything, a panel whose last columns are padding
    /// and rows read in place at a stride, and holds it bit-exact to a
    /// scalar `mul_add` chain in the same k-order — and the AVX2 tile too
    /// where the host has it.
    #[test]
    fn portable_micro_kernel_matches_naive_at_every_tile_height() {
        fn check<const H: usize>(rng: &mut TensorRng) {
            for &(kc, nr) in &[(KC, NR), (37, NR), (37, 5), (1, 1)] {
                for layout in row_layouts(kc) {
                    let (a, bp, want) = tile_case(rng, H, kc, nr, layout);
                    let lda = layout.0;
                    let mut tiles = vec![("portable", tile_portable::<H>(&a, lda, &bp))];
                    #[cfg(target_arch = "x86_64")]
                    if Isa::detected() >= Isa::Avx2Fma {
                        // SAFETY: `Isa::detected` checked avx2+fma on this CPU.
                        tiles.push(("avx2", unsafe { tile_avx2::<H>(&a, lda, &bp) }));
                    }
                    for (arm, acc) in tiles {
                        for (i, acc_row) in acc.iter().enumerate() {
                            for (j, &got) in acc_row.iter().enumerate() {
                                let want = want(i, j);
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{arm} H={H} kc={kc} lda={lda} [{i}][{j}]"
                                );
                            }
                        }
                    }
                }
            }
        }
        let mut rng = TensorRng::seed(41);
        check::<1>(&mut rng);
        check::<2>(&mut rng);
        check::<3>(&mut rng);
        check::<4>(&mut rng);
        check::<5>(&mut rng);
        check::<6>(&mut rng);
    }

    /// The AVX-512 tile at every height `1..=MR_ZMM` × width `1..=WR_ZMM`
    /// × `kc` ∈ {1, 37, KC}, full and ragged last panel, rows of A packed
    /// and at a stride, stored into a C that already holds values (`-0.0`
    /// in row 0) between untouched margins: each live element must be
    /// `(C + chain) + bias`, then `max(·, 0)` when the epilogue asks — the
    /// chain the scalar `mul_add` fold computes, added, not stored.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_tile_matches_a_scalar_chain_at_every_shape() {
        if Isa::detected() < Isa::Avx512 {
            eprintln!("skipped: this CPU has no AVX-512F");
            return;
        }
        fn check<const H: usize>(rng: &mut TensorRng) {
            for w in 1..=WR_ZMM {
                for kc in [1, 37, KC] {
                    for (cols, layout) in [w * NR, (w - 1) * NR + 5]
                        .into_iter()
                        .flat_map(|cols| row_layouts(kc).map(|layout| (cols, layout)))
                    {
                        let (a, bp, want) = tile_case(rng, H, kc, cols, layout);
                        let (bp, lda) = (&bp[..w * kc * NR], layout.0);
                        let (j0, n) = (3, cols + 5);
                        let mut c0 = rng.uniform(&[H, n], -1.0, 1.0).into_vec();
                        c0[..n].fill(-0.0);
                        let bias = rng.uniform(&[n], -1.0, 1.0).into_vec();
                        for ep in [
                            Epilogue::default(),
                            Epilogue {
                                bias: Some(&bias),
                                relu: true,
                            },
                        ] {
                            let mut c = c0.clone();
                            let tile = match w {
                                1 => tile_avx512::<H, 1>,
                                2 => tile_avx512::<H, 2>,
                                _ => tile_avx512::<H, 3>,
                            };
                            // SAFETY: `Isa::detected` checked avx512f.
                            unsafe { tile(&a, lda, bp, &mut c, n, j0, cols, ep) };
                            for (x, (&got, &before)) in c.iter().zip(&c0).enumerate() {
                                let (i, j) = (x / n, x % n);
                                let want = if (j0..j0 + cols).contains(&j) {
                                    let v = before + want(i, j - j0);
                                    let v = ep.bias.map_or(v, |b| v + b[j]);
                                    if ep.relu {
                                        v.max(0.0)
                                    } else {
                                        v
                                    }
                                } else {
                                    before
                                };
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "H={H} W={w} kc={kc} lda={lda} cols={cols} relu={} \
                                     [{i}][{j}]: {got} vs {want}",
                                    ep.relu
                                );
                            }
                        }
                    }
                }
            }
        }
        let mut rng = TensorRng::seed(59);
        check::<1>(&mut rng);
        check::<2>(&mut rng);
        check::<3>(&mut rng);
        check::<4>(&mut rng);
        check::<5>(&mut rng);
        check::<6>(&mut rng);
        check::<7>(&mut rng);
        check::<8>(&mut rng);
    }

    /// The arms this host can run, narrowest first.
    fn host_arms() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|&isa| isa <= Isa::detected())
    }

    #[test]
    fn every_isa_arm_sweeps_the_same_bits() {
        // Every tile height on every arm (m 1..=17: one, two and three
        // 8-row tiles, balanced), every 3-panel remainder (1..=9 panels,
        // even counts with a ragged last panel), one K-block, a ragged
        // one, several; then slabs through the pool.
        let mut rng = TensorRng::seed(43);
        let shapes = (1..=17).flat_map(|m| {
            (1..=9).flat_map(move |p: usize| {
                let n = p * NR - if p.is_multiple_of(2) { 5 } else { 0 };
                [1, 37, KC, 2 * KC + 37].map(|k| (m, k, n))
            })
        });
        for (m, k, n) in shapes.chain([(M_TASK_ROWS + 9, 2 * KC + 37, 3 * NR)]) {
            let a = rng.uniform(&[m, k], -1.0, 1.0);
            let bt = rng.uniform(&[n, k], -1.0, 1.0);
            let packed = PackedB::from_transposed(bt.data(), n, k);
            let run = |isa: Isa| {
                with_isa_cap(isa, || {
                    let mut per_call = vec![0.0; m * n];
                    gemm_packed_nt(a.data(), bt.data(), &mut per_call, m, k, n);
                    let mut pre = vec![0.0; m * n];
                    gemm_prepacked(a.data(), &packed, &mut pre, m, Epilogue::default());
                    assert_eq!(per_call, pre, "{isa:?} {m}x{k}x{n}");
                    pre
                })
            };
            let portable = run(Isa::Portable);
            for isa in host_arms().skip(1) {
                assert_eq!(run(isa), portable, "{isa:?} vs portable, {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn fused_epilogue_matches_separate_bias_and_relu_passes() {
        // The tiles (n ≥ NR: full and ragged panels, one and three
        // K-blocks, no K at all) and the `dot` sweep (a 10-wide head, a
        // tiny product); every arm. Row 0 of A is zero, so its sums are `+0.0`; the bias
        // holds `-0.0`, NaN, ±inf, and row 1's sums negated, so that
        // `(Σ)+b` cancels to zero exactly.
        let mut rng = TensorRng::seed(53);
        type Sweep = fn(&[f32], &PackedB, &mut [f32], usize, Epilogue<'_>);
        for &(m, k, n) in &[
            (8, 64, 3 * NR + 5),
            (9, 2 * KC + 37, 2 * NR),
            (8, 512, 10),
            (3, 5, NR + 1),
            (4, 0, NR + 1),
        ] {
            let mut a = rng.uniform(&[m, k], -1.0, 1.0);
            a.data_mut()[..k].fill(0.0);
            let bt = rng.uniform(&[n, k], -1.0, 1.0);
            let packed = PackedB::from_transposed(bt.data(), n, k);
            for isa in host_arms() {
                for sweep in [gemm_prepacked as Sweep, gemm_prepacked_dot] {
                    with_isa_cap(isa, || {
                        let mut sums = Tensor::zeros(&[m, n]);
                        sweep(a.data(), &packed, sums.data_mut(), m, Epilogue::default());
                        let bias: Vec<f32> = (0..n)
                            .map(|j| match j % 6 {
                                0 => -0.0,
                                1 => f32::NAN,
                                2 => f32::INFINITY,
                                3 => f32::NEG_INFINITY,
                                4 => -sums.at(1, j),
                                _ => rng.next_f32() - 0.5,
                            })
                            .collect();
                        for relu in [false, true] {
                            let mut want = sums.clone();
                            for row in want.data_mut().chunks_exact_mut(n) {
                                for (v, b) in row.iter_mut().zip(&bias) {
                                    *v += b;
                                }
                            }
                            if relu {
                                want.map_inplace(|v| v.max(0.0));
                            }
                            let mut got = vec![0.0; m * n];
                            let ep = Epilogue {
                                bias: Some(&bias),
                                relu,
                            };
                            sweep(a.data(), &packed, &mut got, m, ep);
                            assert_eq!(
                                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                "{isa:?} {m}x{k}x{n} relu={relu}"
                            );
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn isa_cap_is_scoped_and_never_exceeds_the_cpu() {
        assert_eq!(Isa::current(), Isa::detected());
        with_isa_cap(Isa::Portable, || {
            assert_eq!(Isa::current(), Isa::Portable);
            with_isa_cap(Isa::Avx512Vnni, || {
                assert_eq!(Isa::current(), Isa::detected());
            });
            assert_eq!(Isa::current(), Isa::Portable);
        });
        assert_eq!(Isa::current(), Isa::detected());
    }

    #[test]
    fn prepacked_dot_is_bit_identical_to_row_stream() {
        // k mod 4 ≠ 0, k < 4, and several K-blocks; n below, at and above
        // one panel; on the portable body and every arm the host has.
        let mut rng = TensorRng::seed(47);
        for k in [1, 3, 5, 64, 2 * KC + 37] {
            for n in [1, 3, 10, 15, 16, 33] {
                let bt = rng.uniform(&[n, k], -1.0, 1.0);
                let packed = PackedB::from_transposed(bt.data(), n, k);
                for m in 1..=9 {
                    let a = rng.uniform(&[m, k], -1.0, 1.0);
                    let mut want = vec![0.0; m * n];
                    gemm_nt_row_stream(a.data(), bt.data(), &mut want, m, k, n);
                    for isa in host_arms() {
                        let mut got = vec![f32::NAN; m * n];
                        with_isa_cap(isa, || {
                            gemm_prepacked_dot(a.data(), &packed, &mut got, m, Epilogue::default())
                        });
                        assert_eq!(
                            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "{isa:?} {m}x{k}x{n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_dispatch_matches_dense_result() {
        // ~80% zeros: gemm takes the row-stream skip path; the product must
        // agree with the naive reference regardless.
        let mut rng = TensorRng::seed(31);
        let (m, k, n) = (40, 50, 60);
        let a = rng
            .uniform(&[m, k], -1.0, 1.0)
            .map(|v| if v.abs() < 0.8 { 0.0 } else { v });
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let mut want = vec![0.0; m * n];
        gemm_naive(a.data(), b.data(), &mut want, m, k, n);
        let got = a.matmul(&b).unwrap();
        for (g, w) in got.data().iter().zip(&want) {
            assert!((g - w).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = TensorRng::seed(3);
        let a = rng.uniform(&[6, 8], -1.0, 1.0);
        let b = rng.uniform(&[5, 8], -1.0, 1.0);
        let want = a.matmul(&b.transpose()).unwrap();
        let got = a.matmul_nt(&b).unwrap();
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-5);
        }
    }

    #[test]
    fn dot_handles_remainders() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(dot(&a, &b), 30.0);
    }
}
