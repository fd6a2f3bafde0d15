//! Packed-tile, rayon-parallel matrix multiplication.
//!
//! GEMM dominates both training (federated rounds, watermark embedding) and
//! inference (every experiment), so this is the one kernel we tune. The
//! dense path is a BLIS-style cache-blocked kernel: B is packed once per
//! K-block into NR-wide column panels, A is packed into MR-tall row panels,
//! and an MR×NR register-tiled micro-kernel sweeps the panels. Packing pays
//! for itself by turning every inner-loop access into a contiguous,
//! branch-free stream the compiler vectorizes; the panels are reused across
//! the whole M sweep, so B is read from DRAM once per K-block instead of
//! once per output row.
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
//! Inside a row slab the sweep runs B-panel-outer / A-tile-inner over A
//! tiles packed once per K-block, so a small batch streams each B panel
//! exactly once, and tile heights are balanced (8 rows = 4+4, not 6+2
//! padded to 6). Every output element is still the same `mul_add` chain
//! over `l` within a K-block, summed over K-blocks in order — tiling,
//! loop order and pre-packing cannot change a bit of it.

use crate::{Tensor, TensorError};
use rayon::prelude::*;

/// FLOP threshold below which the sequential kernel is used; spawning
/// rayon tasks for tiny matrices costs more than it saves.
const PAR_MIN_FLOPS: usize = 64 * 64 * 64;

/// FLOP threshold below which packing overhead dominates and the
/// row-streaming kernel is used instead of the tiled path.
const PACK_MIN_FLOPS: usize = 32 * 32 * 32;

/// Rows per A-panel / micro-tile (register rows of C).
pub const MR: usize = 6;

/// Columns per B-panel / micro-tile (register columns of C; two AVX
/// vectors of f32 — with MR=6 the 6×16 tile is the classic x86 register
/// blocking: 12 accumulator vectors + 2 B vectors + 1 broadcast ≤ 16 ymm).
pub const NR: usize = 16;

/// K-dimension block: one A-panel strip of `MR×KC` f32 (4 KiB) plus the
/// B-panel block stay L2-resident while the M sweep reuses them.
pub const KC: usize = 256;

/// Rows of C per parallel task: a multiple of MR large enough to amortize
/// task spawn, small enough to load-balance odd shapes.
const M_TASK_ROWS: usize = 32;

/// Zero fraction of A at which the row-streaming kernel's pruned-weight
/// skip beats the branch-free packed tiles. Measured with `b01_kernels`:
/// at 256³ the packed kernel is >2× the row kernel on dense inputs, so the
/// skip has to elide well over half the K-passes before it wins.
pub const SPARSE_SKIP_THRESHOLD: f32 = 0.6;

/// Elements sampled (evenly strided) when estimating the sparsity of A.
const SPARSITY_SAMPLE: usize = 1024;

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

/// Dot product with 4-way unrolling (reliably auto-vectorized).
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
/// holding a [`PackedB`] asks this to stay bit-identical to [`gemm_nt`].
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
/// every K-block's `⌈n/NR⌉` panels of `kc × NR`, K-blocks in order.
/// [`gemm_prepacked`] multiplies against it without touching the source
/// rows again. It is a snapshot: whoever owns the source matrix drops the
/// `PackedB` when the matrix changes.
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

/// Pack rows `i0..i0+H` of A over K-columns `l0..l0+kc` at `ap`, k-major
/// so the micro-kernel reads `H` contiguous floats per k-step.
fn pack_a_tile(a: &[f32], k: usize, i0: usize, h: usize, l0: usize, kc: usize, ap: &mut [f32]) {
    debug_assert_eq!(ap.len(), kc * h);
    for (ii, row) in a[i0 * k..].chunks(k).take(h).enumerate() {
        for (l, &v) in row[l0..l0 + kc].iter().enumerate() {
            ap[l * h + ii] = v;
        }
    }
}

/// The register micro-kernel: an `H × NR` tile of `Ap · Bp` over one
/// K-block, `H ≤ MR` rows tall.
///
/// Per k-step this reads H contiguous A values and NR contiguous B values
/// and issues H×NR fused multiply-adds on register-resident accumulators —
/// no branches, no stores, so the compiler keeps the tile in vector
/// registers. On x86-64 with AVX2+FMA (detected once at runtime) the loop
/// nest runs in a `#[target_feature]` wrapper whose `mul_add`s compile to
/// `vfmadd231ps`; elsewhere the same `mul_add`s are a native fused
/// instruction (aarch64) or a correctly rounded `fmaf` call. Either way an
/// element is one accumulator chained over `l`, rounded once per step, so
/// its bits depend neither on `H` nor on the host.
#[inline]
fn micro_kernel<const H: usize>(ap: &[f32], bp: &[f32]) -> [[f32; NR]; H] {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: `fma_available` checked avx2+fma on this CPU.
        return unsafe { micro_kernel_fma(ap, bp) };
    }
    micro_kernel_portable(ap, bp)
}

/// The micro-kernel loop nest. The tile is a local until the loop is
/// done, so no accumulator address escapes it: under AVX2 LLVM promotes
/// all H×16 floats into 2·H ymm registers.
#[inline(always)]
fn micro_kernel_portable<const H: usize>(ap: &[f32], bp: &[f32]) -> [[f32; NR]; H] {
    let mut t = [[0.0f32; NR]; H];
    for (av, bv) in ap.chunks_exact(H).zip(bp.chunks_exact(NR)) {
        for i in 0..H {
            let ai = av[i];
            for j in 0..NR {
                t[i][j] = ai.mul_add(bv[j], t[i][j]);
            }
        }
    }
    t
}

/// Whether the AVX2+FMA micro-kernel can run (cached by the detection
/// macro; an atomic load per call).
#[cfg(target_arch = "x86_64")]
#[inline]
fn fma_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// AVX2+FMA clone of [`micro_kernel_portable`]. `mul_add` only lowers to
/// a fused instruction (instead of a libm call) when the enclosing
/// function enables the feature, hence the wrapper rather than a runtime
/// branch in the body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn micro_kernel_fma<const H: usize>(ap: &[f32], bp: &[f32]) -> [[f32; NR]; H] {
    micro_kernel_portable(ap, bp)
}

/// `C[i0..i0+H, j0..j0+nr] += Ap · Bp`: one micro-kernel call, then the
/// tile's live `nr` columns added into `c_tile` (the tile's H rows of C).
#[inline]
fn sweep_tile<const H: usize>(
    ap: &[f32],
    bp: &[f32],
    c_tile: &mut [f32],
    n: usize,
    j0: usize,
    nr: usize,
) {
    let acc = micro_kernel::<H>(ap, bp);
    for (c_row, acc_row) in c_tile.chunks_exact_mut(n).zip(&acc) {
        for (cv, &av) in c_row[j0..j0 + nr].iter_mut().zip(acc_row) {
            *cv += av;
        }
    }
}

// `sweep_slab` instantiates `sweep_tile` for every height `1..=MR`.
const _: () = assert!(MR == 6);

/// Sweep one horizontal slab of C (rows `i_base..`, `c_slab.len() / n` of
/// them) against the packed B block for K-rows `l0..l0+kc`.
///
/// The slab's rows are cut into `⌈rows/MR⌉` tiles of balanced height (the
/// first `rows mod tiles` one row taller) and packed into `ap` once; then
/// each B panel is read once while the A tiles — at most
/// `M_TASK_ROWS·KC` floats, cache-resident — cycle under it.
#[allow(clippy::too_many_arguments)] // raw kernel plumbing, not an API
fn sweep_slab(
    a: &[f32],
    k: usize,
    bp_block: &[f32],
    c_slab: &mut [f32],
    i_base: usize,
    n: usize,
    l0: usize,
    kc: usize,
    ap: &mut [f32],
) {
    let rows = c_slab.len() / n;
    let tiles = rows.div_ceil(MR);
    let (short, taller) = (rows / tiles, rows % tiles);
    // Tile `t` starts at row `t·short + min(t, taller)` of the slab.
    let tile = |t: usize| (t * short + t.min(taller), short + usize::from(t < taller));
    let ap = &mut ap[..rows * kc];
    for (i0, h) in (0..tiles).map(tile) {
        pack_a_tile(
            a,
            k,
            i_base + i0,
            h,
            l0,
            kc,
            &mut ap[i0 * kc..(i0 + h) * kc],
        );
    }
    for (pj, bp) in bp_block.chunks_exact(kc * NR).enumerate() {
        let j0 = pj * NR;
        let nr = NR.min(n - j0);
        for (i0, h) in (0..tiles).map(tile) {
            let ap = &ap[i0 * kc..(i0 + h) * kc];
            let c_tile = &mut c_slab[i0 * n..(i0 + h) * n];
            match h {
                1 => sweep_tile::<1>(ap, bp, c_tile, n, j0, nr),
                2 => sweep_tile::<2>(ap, bp, c_tile, n, j0, nr),
                3 => sweep_tile::<3>(ap, bp, c_tile, n, j0, nr),
                4 => sweep_tile::<4>(ap, bp, c_tile, n, j0, nr),
                5 => sweep_tile::<5>(ap, bp, c_tile, n, j0, nr),
                6 => sweep_tile::<6>(ap, bp, c_tile, n, j0, nr),
                _ => unreachable!("tile heights are 1..=MR"),
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

fn gemm_tiled(a: &[f32], b: Panels<'_>, c: &mut [f32], m: usize, k: usize, n: usize) {
    let n_panels = n.div_ceil(NR);
    // A single slab has nothing to hand the pool.
    let parallel = m > M_TASK_ROWS && m * k * n >= PAR_MIN_FLOPS;
    let mut bp_scratch = match b {
        Panels::PerCall(..) => vec![0.0f32; n_panels * KC.min(k) * NR],
        Panels::Packed(_) => Vec::new(),
    };
    // One A-tile buffer for the whole product when slabs run in sequence;
    // pool tasks each bring their own.
    let ap_len = if parallel {
        0
    } else {
        M_TASK_ROWS.min(m) * KC.min(k)
    };
    let mut ap = vec![0.0f32; ap_len];
    for l0 in (0..k).step_by(KC) {
        let kc = KC.min(k - l0);
        let bp_block = match b {
            Panels::PerCall(b, src) => {
                let block = &mut bp_scratch[..n_panels * kc * NR];
                pack_b_block(b, src, l0, kc, n, block);
                &*block
            }
            Panels::Packed(p) => &p.panels[p.block_range(l0, kc)],
        };
        if parallel {
            c.par_chunks_mut(M_TASK_ROWS * n)
                .enumerate()
                .for_each(|(si, c_slab)| {
                    let ap = &mut vec![0.0f32; M_TASK_ROWS * kc];
                    sweep_slab(a, k, bp_block, c_slab, si * M_TASK_ROWS, n, l0, kc, ap);
                });
        } else {
            for (si, c_slab) in c.chunks_mut(M_TASK_ROWS * n).enumerate() {
                sweep_slab(a, k, bp_block, c_slab, si * M_TASK_ROWS, n, l0, kc, &mut ap);
            }
        }
    }
}

/// Packed-tile GEMM over `b` in `[k,n]` layout. Exposed so tests and
/// `b01_kernels` can exercise the tiled path regardless of the sparsity /
/// size dispatch in [`gemm`].
pub fn gemm_packed(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_tiled(a, Panels::PerCall(b, BSource::Normal { n }), c, m, k, n);
}

/// Packed-tile GEMM over `b` in transposed `[n,k]` layout: same micro-kernel
/// as [`gemm_packed`], B packed via a blocked transpose (contiguous source
/// reads) instead of strided column gathers.
pub fn gemm_packed_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_tiled(a, Panels::PerCall(b, BSource::Transposed { k }), c, m, k, n);
}

/// [`gemm_packed_nt`] against panels packed ahead of time:
/// `c[m×n] = a[m×k] · bᵀ` for the `[n,k]` matrix `b` was built from, `c`
/// pre-zeroed — bit-identical to the per-call pack.
pub fn gemm_prepacked(a: &[f32], b: &PackedB, c: &mut [f32], m: usize) {
    debug_assert_eq!(a.len(), m * b.k);
    debug_assert_eq!(c.len(), m * b.n);
    gemm_tiled(a, Panels::Packed(b), c, m, b.k, b.n);
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
    if m * k * n >= PAR_MIN_FLOPS && m > 1 {
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
    if m * n * k >= PAR_MIN_FLOPS && m > 1 {
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
        let (m, k, n) = (80, 70, 90); // above PAR_MIN_FLOPS
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
            gemm_prepacked(a.data(), &gathered, &mut via_gather, m);
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
                gemm_prepacked(a.data(), &packed, &mut pre, m);
                assert_eq!(per_call, pre, "{m}x{k}x{n}");
            }
        }
    }

    /// The CI host always dispatches to `micro_kernel_fma`; this runs the
    /// portable body at every tile height the sweep instantiates, with a
    /// `kc` that is not a multiple of anything and a panel whose last
    /// columns are padding, and holds it bit-exact to a scalar `mul_add`
    /// chain in the same k-order — and to the FMA kernel where the host
    /// has one.
    #[test]
    fn portable_micro_kernel_matches_naive_at_every_tile_height() {
        fn check<const H: usize>(rng: &mut TensorRng) {
            for &(kc, nr) in &[(KC, NR), (37, NR), (37, 5), (1, 1)] {
                let a = rng.uniform(&[H, kc], -1.0, 1.0);
                let b = rng.uniform(&[kc, nr], -1.0, 1.0);
                let mut ap = vec![0.0; kc * H];
                pack_a_tile(a.data(), kc, 0, H, 0, kc, &mut ap);
                let mut bp = vec![0.0; kc * NR];
                pack_b_panel(b.data(), BSource::Normal { n: nr }, 0, kc, 0, nr, &mut bp);
                let acc = micro_kernel_portable::<H>(&ap, &bp);
                for (i, acc_row) in acc.iter().enumerate() {
                    for (j, &got) in acc_row.iter().enumerate() {
                        let want = if j < nr {
                            (0..kc).fold(0.0f32, |s, l| a.at(i, l).mul_add(b.at(l, j), s))
                        } else {
                            0.0
                        };
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "H={H} kc={kc} [{i}][{j}]: {got} vs {want}"
                        );
                    }
                }
                #[cfg(target_arch = "x86_64")]
                if fma_available() {
                    // SAFETY: `fma_available` checked avx2+fma on this CPU.
                    let fused = unsafe { micro_kernel_fma::<H>(&ap, &bp) };
                    assert_eq!(acc, fused, "H={H} kc={kc}: portable vs FMA");
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
