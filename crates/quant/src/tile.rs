//! The integer GEMM every [`crate::QDense`] runs: weights prepared once into
//! a [`Panel`], swept by a register tile whose store applies an
//! [`IntEpilogue`].
//!
//! The loop around the tile is `tensor::matmul::sweep`, the one f32 runs
//! too; this module supplies its integer [`TileKernel`]. A [`Panel`] holds
//! the `[n,k]` integer weights as 16-column panels of 4-byte k-groups (K
//! and N zero-padded), so one 64-byte row of a panel is, per output
//! column, the four weights one `vpdpbusd` lane multiplies. Activations
//! arrive as *operands*: row-major `u8` rows of `q + 128`, [`Panel::lda`]
//! bytes apart, so a tile broadcasts four activations of a row with one
//! 32-bit load and no A-pack. The offset makes the unsigned × signed
//! `vpdpbusd` exact (the saturating `vpmaddubsw` is never used), and the
//! store subtracts `128·colsum[j]` — kept beside the panel — to recover
//! `Σ q·w` exactly in wrapping i32 arithmetic, the same integers the scalar
//! loop computes.
//!
//! The shared sweep cuts C into 32-row slabs, each slab into balanced
//! tiles, and reads each group of adjacent panels once while the slab's
//! tiles cycle under it. On [`Isa::Avx512Vnni`] a tile is up to 8 × 48: 24
//! zmm accumulators over the whole of K. The other arms run narrow tiles
//! (two rows, one panel) over the same panel: a `vpmaddwd` body on AVX2, a
//! plain loop elsewhere. Integer addition is associative, so every arm,
//! tile shape and schedule stores the same bits.

use tinymlops_tensor::matmul::{self, Isa, TileKernel, NR};

use crate::qtensor::{requant_one, RequantPlan};

/// Weights per k-group: the four bytes one `vpdpbusd` lane reduces.
const KG: usize = 4;
/// Bytes per k-group row of a panel: `NR` = 16 columns, one zmm of i32
/// accumulators.
const GROUP_BYTES: usize = NR * KG;
/// Rows per tile on the AVX-512-VNNI arm: 8 × 3 panels is 24 zmm
/// accumulators + 3 weight vectors + 1 broadcast, and 8 is the batch the
/// serving micro-batcher fills.
const MR_VNNI: usize = 8;
/// Adjacent panels per tile on the AVX-512-VNNI arm.
const WR_VNNI: usize = 3;
/// Rows per tile of the portable and AVX2 bodies (one panel wide): the
/// AVX2 tile's 2 × 4 ymm accumulators, 4 weight vectors and a broadcast
/// fit the 16 registers.
const MR_NARROW: usize = 2;

/// An `[n,k]` integer weight matrix prepared for the tile.
#[derive(Debug, Clone)]
pub(crate) struct Panel {
    /// Panel `p`, k-group `g`, column `j`, byte `t` is
    /// `w[16p + j][4g + t]` at `((p·kg + g)·16 + j)·4 + t`; zero where the
    /// row or column is padding.
    w: Vec<i8>,
    /// `128·Σ_l w[j][l]` per column, zero-padded to whole panels.
    colsum128: Vec<i32>,
    /// K-groups per column (`k` rounded up to whole groups).
    kg: usize,
    /// Output columns.
    n: usize,
}

impl Panel {
    /// Build from an `n × k` matrix whose row `r` `row(r, buf)` writes
    /// into `buf` (`k` long) — each row is produced once and scattered
    /// straight into the panel.
    pub(crate) fn build(n: usize, k: usize, mut row: impl FnMut(usize, &mut [i8])) -> Panel {
        let kg = k.div_ceil(KG);
        let n_panels = n.div_ceil(NR);
        let mut w = vec![0i8; n_panels * kg * GROUP_BYTES];
        let mut colsum128 = vec![0i32; n_panels * NR];
        // Zero past `k`, so every k-group of a row is a whole quad.
        let mut buf = vec![0i8; kg * KG];
        for (r, colsum) in colsum128.iter_mut().enumerate().take(n) {
            row(r, &mut buf[..k]);
            let panel = &mut w[(r / NR) * kg * GROUP_BYTES..][..kg * GROUP_BYTES];
            let col = (r % NR) * KG;
            let (groups, _) = panel.as_chunks_mut::<GROUP_BYTES>();
            for (group, quad) in groups.iter_mut().zip(buf.as_chunks::<KG>().0) {
                group[col..col + KG].copy_from_slice(quad);
            }
            *colsum = 128i32.wrapping_mul(buf.iter().map(|&v| i32::from(v)).sum());
        }
        Panel {
            w,
            colsum128,
            kg,
            n,
        }
    }

    /// Bytes between consecutive rows of an operand: `k` rounded up to
    /// whole k-groups.
    pub(crate) fn lda(&self) -> usize {
        self.kg * KG
    }

    /// Panels `pj..pj + w`, contiguous.
    fn panels(&self, pj: usize, w: usize) -> &[i8] {
        &self.w[pj * self.kg * GROUP_BYTES..(pj + w) * self.kg * GROUP_BYTES]
    }
}

/// The operand byte of activation `q`: `q + 128`.
#[inline(always)]
pub(crate) fn operand_byte(q: i8) -> u8 {
    (q as u8) ^ 0x80
}

/// What the tile stores for a finished, exact accumulator `Σ q·w` — the
/// integer twin of `tensor::matmul::Epilogue`. Each arm calls the same
/// epilogue on the same integers, so the stored bits are arm-independent.
pub(crate) trait IntEpilogue: Copy + Send + Sync {
    /// The element type of C.
    type Out: Copy + Send + Sync;

    /// The value stored for accumulator `acc` of column `j`.
    fn apply(self, acc: i32, j: usize) -> Self::Out;

    /// [`IntEpilogue::apply`] on the 16 accumulators of columns
    /// `j..j + 16`, stored at `p` for the lanes `mask` keeps.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512 F, BW and DQ; the kept lanes must lie
    /// in C and in every per-column table the epilogue reads.
    #[cfg(target_arch = "x86_64")]
    unsafe fn store_zmm(
        self,
        acc: std::arch::x86_64::__m512i,
        j: usize,
        p: *mut Self::Out,
        mask: u16,
    );
}

/// Store the accumulators themselves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Identity;

impl IntEpilogue for Identity {
    type Out = i32;

    #[inline(always)]
    fn apply(self, acc: i32, _j: usize) -> i32 {
        acc
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_zmm(self, acc: std::arch::x86_64::__m512i, _j: usize, p: *mut i32, mask: u16) {
        // SAFETY: the caller keeps only lanes inside C.
        unsafe { std::arch::x86_64::_mm512_mask_storeu_epi32(p, mask, acc) };
    }
}

/// Requantize onto the next layer's grid (`requant_one`, ReLU folded in)
/// and store the operand byte `q + 128`: a fused edge writes the next
/// layer's A operand directly.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Requant<'a> {
    /// The edge's fixed-point bridge, one entry per column.
    pub(crate) plan: &'a RequantPlan,
    /// Clamp at zero before the multiply.
    pub(crate) relu: bool,
}

impl IntEpilogue for Requant<'_> {
    type Out = u8;

    #[inline(always)]
    fn apply(self, acc: i32, j: usize) -> u8 {
        let p = self.plan;
        operand_byte(requant_one(
            acc,
            p.mult[j],
            p.rshift[j],
            p.bias_q[j],
            self.relu,
        ))
    }

    /// `requant_one` in eight i64 lanes per half: the same sum, clamp,
    /// product, sign-folded rounding shift and saturation.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn store_zmm(self, acc: std::arch::x86_64::__m512i, j: usize, p: *mut u8, mask: u16) {
        use std::arch::x86_64::{
            __m256i, __m512i, _mm512_add_epi32, _mm512_add_epi64, _mm512_castsi256_si512,
            _mm512_castsi512_si256, _mm512_cvtepi32_epi64, _mm512_cvtepi64_epi32,
            _mm512_cvtepu32_epi64, _mm512_extracti64x4_epi64, _mm512_inserti64x4,
            _mm512_mask_cvtepi32_storeu_epi8, _mm512_maskz_loadu_epi32, _mm512_max_epi64,
            _mm512_min_epi64, _mm512_mullo_epi64, _mm512_set1_epi32, _mm512_set1_epi64,
            _mm512_setzero_si512, _mm512_sllv_epi64, _mm512_srai_epi64, _mm512_srav_epi64,
            _mm512_sub_epi64, _mm512_xor_si512,
        };
        let plan = self.plan;
        // SAFETY: the caller keeps only lanes inside the plan's columns;
        // masked-off lanes are neither loaded nor stored.
        let (bias_q, mult, rshift) = unsafe {
            (
                _mm512_maskz_loadu_epi32(mask, plan.bias_q.as_ptr().add(j)),
                _mm512_maskz_loadu_epi32(mask, plan.mult.as_ptr().add(j)),
                _mm512_maskz_loadu_epi32(mask, plan.rshift.as_ptr().add(j).cast()),
            )
        };
        let one = _mm512_set1_epi64(1);
        let relu = self.relu;
        let half = |acc: __m256i, bias_q: __m256i, mult: __m256i, rshift: __m256i| -> __m512i {
            let mut v = _mm512_add_epi64(_mm512_cvtepi32_epi64(acc), _mm512_cvtepi32_epi64(bias_q));
            if relu {
                v = _mm512_max_epi64(v, _mm512_setzero_si512());
            }
            let prod = _mm512_mullo_epi64(v, _mm512_cvtepi32_epi64(mult));
            let sh = _mm512_cvtepu32_epi64(rshift);
            let s = _mm512_srai_epi64::<63>(prod);
            let mag = _mm512_sub_epi64(_mm512_xor_si512(prod, s), s);
            let nudge = _mm512_sllv_epi64(one, _mm512_sub_epi64(sh, one));
            let shifted = _mm512_srav_epi64(_mm512_add_epi64(mag, nudge), sh);
            let q = _mm512_sub_epi64(_mm512_xor_si512(shifted, s), s);
            _mm512_min_epi64(
                _mm512_max_epi64(q, _mm512_set1_epi64(-127)),
                _mm512_set1_epi64(127),
            )
        };
        let lo = _mm512_castsi512_si256;
        let hi = _mm512_extracti64x4_epi64::<1>;
        let q_lo = half(lo(acc), lo(bias_q), lo(mult), lo(rshift));
        let q_hi = half(hi(acc), hi(bias_q), hi(mult), hi(rshift));
        let q = _mm512_inserti64x4::<1>(
            _mm512_castsi256_si512(_mm512_cvtepi64_epi32(q_lo)),
            _mm512_cvtepi64_epi32(q_hi),
        );
        let bytes = _mm512_add_epi32(q, _mm512_set1_epi32(128));
        // SAFETY: the caller keeps only lanes inside C.
        unsafe { _mm512_mask_cvtepi32_storeu_epi8(p.cast(), mask, bytes) };
    }
}

/// Dequantize to f32: `acc as f32 · (in_scale · w_scales[j]) + bias[j]`,
/// rounded as [`crate::QDense::dequantize_acc`] rounds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dequant<'a> {
    /// The layer's input scale.
    pub(crate) in_scale: f32,
    /// Per-column weight scales.
    pub(crate) w_scales: &'a [f32],
    /// Per-column bias.
    pub(crate) bias: &'a [f32],
}

impl IntEpilogue for Dequant<'_> {
    type Out = f32;

    #[inline(always)]
    fn apply(self, acc: i32, j: usize) -> f32 {
        acc as f32 * (self.in_scale * self.w_scales[j]) + self.bias[j]
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_zmm(self, acc: std::arch::x86_64::__m512i, j: usize, p: *mut f32, mask: u16) {
        use std::arch::x86_64::{
            _mm512_add_ps, _mm512_cvtepi32_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
            _mm512_mul_ps, _mm512_set1_ps,
        };
        // SAFETY: the caller keeps only lanes inside C and the columns'
        // tables; masked-off lanes are neither loaded nor stored.
        unsafe {
            let w_scales = _mm512_maskz_loadu_ps(mask, self.w_scales.as_ptr().add(j));
            let bias = _mm512_maskz_loadu_ps(mask, self.bias.as_ptr().add(j));
            let scale = _mm512_mul_ps(_mm512_set1_ps(self.in_scale), w_scales);
            let v = _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(acc), scale), bias);
            _mm512_mask_storeu_ps(p, mask, v);
        }
    }
}

/// `C[i, j] = ep(Σ_l q[i][l]·w[j][l])` for the `m` operand rows of `a`
/// ([`Panel::lda`] bytes apart) against `panel`: `tensor`'s shared sweep
/// with the integer tile. Row `i` of C starts at `i·ldc` and its first `n`
/// (the panel's columns) elements are written.
pub(crate) fn sweep<E: IntEpilogue>(
    a: &[u8],
    m: usize,
    panel: &Panel,
    c: &mut [E::Out],
    ldc: usize,
    ep: E,
) {
    let lda = panel.lda();
    assert!(a.len() >= m * lda, "operand rows");
    let kernel = IntKernel { a, lda, panel, ep };
    matmul::sweep(&kernel, m, lda, panel.n, c, ldc);
}

/// The integer [`TileKernel`]: operand rows of `a`, `lda` bytes apart,
/// against `panel`, stored through `ep`.
struct IntKernel<'a, E> {
    a: &'a [u8],
    lda: usize,
    panel: &'a Panel,
    ep: E,
}

impl<E: IntEpilogue> TileKernel for IntKernel<'_, E> {
    type Out = E::Out;

    fn max_tile(isa: Isa) -> (usize, usize) {
        if isa >= Isa::Avx512Vnni {
            (MR_VNNI, WR_VNNI)
        } else {
            (MR_NARROW, 1)
        }
    }

    /// [`tile_vnni`] on the AVX-512-VNNI arm, else ([`sums_avx2`] or
    /// [`sums_portable`]) + [`store_sums`], one panel wide.
    #[inline]
    fn tile<const H: usize, const W: usize>(
        &self,
        isa: Isa,
        i0: usize,
        pj: usize,
        cols: usize,
        c: &mut [E::Out],
        ldc: usize,
    ) {
        let (a, lda, panel) = (&self.a[i0 * self.lda..], self.lda, self.panel);
        let j0 = pj * NR;
        let tile = Tile {
            panels: panel.panels(pj, W),
            kg: panel.kg,
            colsum128: &panel.colsum128[j0..j0 + W * NR],
            j0,
            cols,
        };
        #[cfg(target_arch = "x86_64")]
        if isa >= Isa::Avx512Vnni {
            // SAFETY: `isa` is at most `Isa::detected()`, which checked
            // avx512f, avx512bw, avx512dq and avx512vnni on this CPU.
            return unsafe { tile_vnni::<H, W, E>(a, lda, &tile, c, ldc, self.ep) };
        }
        // Constant per instantiation: the taller and wider tiles the
        // sweep's table also instantiates never compile a narrow body.
        assert!(H <= MR_NARROW && W == 1, "narrow tiles are MR_NARROW × 1");
        let sums = sums_narrow::<H>(isa, a, lda, &tile);
        store_sums(&sums, &tile, c, ldc, self.ep);
    }
}

/// The weight side of one tile: `w` adjacent panels.
struct Tile<'a> {
    /// The panels, contiguous (`w · kg · 64` bytes).
    panels: &'a [i8],
    /// K-groups per panel.
    kg: usize,
    /// `128·colsum` of the panels' `w · 16` columns.
    colsum128: &'a [i32],
    /// The first column.
    j0: usize,
    /// Live columns, `(w − 1)·16 < cols ≤ w·16`.
    cols: usize,
}

/// The raw sums `Σ_l a[i][l]·w[j][l]` (operand bytes, before the
/// `128·colsum` correction) of an `H`-row, one-panel tile:
/// [`sums_avx2`] where the CPU has AVX2, else [`sums_portable`].
#[inline]
fn sums_narrow<const H: usize>(isa: Isa, a: &[u8], lda: usize, tile: &Tile<'_>) -> [[i32; NR]; H] {
    #[cfg(target_arch = "x86_64")]
    if isa >= Isa::Avx2Fma {
        // SAFETY: `isa` is at most `Isa::detected()`, which checked avx2.
        return unsafe { sums_avx2::<H>(a, lda, tile) };
    }
    let _ = isa;
    sums_portable::<H>(a, lda, tile)
}

/// The portable body: per k-group, each column's four products, summed
/// into its accumulator with wrapping adds as the `vpdpbusd` lanes wrap.
fn sums_portable<const H: usize>(a: &[u8], lda: usize, tile: &Tile<'_>) -> [[i32; NR]; H] {
    let mut acc = [[0i32; NR]; H];
    let (groups, _) = tile.panels.as_chunks::<GROUP_BYTES>();
    for (g, wg) in groups.iter().enumerate() {
        for (i, row) in acc.iter_mut().enumerate() {
            let a4 = &a[i * lda + g * KG..][..KG];
            for (s, w4) in row.iter_mut().zip(wg.chunks_exact(KG)) {
                let dot: i32 = a4
                    .iter()
                    .zip(w4)
                    .map(|(&x, &w)| i32::from(x) * i32::from(w))
                    .sum();
                *s = s.wrapping_add(dot);
            }
        }
    }
    acc
}

/// The AVX2 body over the same panel: each k-group row of the panel is
/// sign-extended to i16 once (4 ymm: 4 columns × 4 weights each) and
/// `vpmaddwd`-ed against every tile row's four zero-extended operand
/// bytes, broadcast. A `vpmaddwd` lane sums two products of at most
/// `255·127`, so nothing saturates; each column's two lanes are folded at
/// the end. The same integers as [`sums_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sums_avx2<const H: usize>(a: &[u8], lda: usize, tile: &Tile<'_>) -> [[i32; NR]; H] {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_broadcastq_epi64, _mm256_cvtepi8_epi16, _mm256_hadd_epi32,
        _mm256_madd_epi16, _mm256_permute4x64_epi64, _mm256_setzero_si256, _mm256_storeu_si256,
        _mm_cvtepu8_epi16, _mm_cvtsi32_si128, _mm_loadu_si128,
    };
    let kg = tile.kg;
    // The bounds every pointer below stays inside.
    assert!(
        lda >= kg * KG && a.len() >= (H - 1) * lda + kg * KG,
        "tile operand rows"
    );
    assert!(tile.panels.len() == kg * GROUP_BYTES, "tile panel");
    let (ap, bp) = (a.as_ptr(), tile.panels.as_ptr());
    let mut acc = [[_mm256_setzero_si256(); 4]; H];
    for g in 0..kg {
        let mut wv = [_mm256_setzero_si256(); 4];
        for (q, v) in wv.iter_mut().enumerate() {
            // SAFETY: `g < kg`, so the 16 bytes at `g·64 + 16q` lie in the
            // panel (asserted `kg·64` long).
            *v = _mm256_cvtepi8_epi16(unsafe {
                _mm_loadu_si128(bp.add(g * GROUP_BYTES + 16 * q).cast())
            });
        }
        for (i, row) in acc.iter_mut().enumerate() {
            // SAFETY: `i·lda + 4g + 4 ≤ (H−1)·lda + 4·kg ≤ a.len()`.
            let quad = unsafe { ap.add(i * lda + g * KG).cast::<i32>().read_unaligned() };
            let av = _mm256_broadcastq_epi64(_mm_cvtepu8_epi16(_mm_cvtsi32_si128(quad)));
            for (t, &v) in row.iter_mut().zip(&wv) {
                *t = _mm256_add_epi32(*t, _mm256_madd_epi16(v, av));
            }
        }
    }
    let mut sums = [[0i32; NR]; H];
    for (out, row) in sums.iter_mut().zip(&acc) {
        // `hadd` of two 4-column vectors gives columns (0 1 4 5 | 2 3 6 7);
        // the permute puts them in order.
        for (half, pair) in out.chunks_exact_mut(8).zip(row.chunks_exact(2)) {
            let v = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_hadd_epi32(pair[0], pair[1]));
            // SAFETY: `half` is 8 i32 long; unaligned stores are permitted.
            unsafe { _mm256_storeu_si256(half.as_mut_ptr().cast(), v) };
        }
    }
    sums
}

/// Store the raw sums of a narrow tile: subtract `128·colsum`, apply `ep`.
fn store_sums<const H: usize, E: IntEpilogue>(
    sums: &[[i32; NR]; H],
    tile: &Tile<'_>,
    c: &mut [E::Out],
    ldc: usize,
    ep: E,
) {
    for (i, row) in sums.iter().enumerate() {
        let out = &mut c[i * ldc + tile.j0..][..tile.cols];
        for (jj, ((o, &sum), &colsum)) in out.iter_mut().zip(row).zip(tile.colsum128).enumerate() {
            *o = ep.apply(sum.wrapping_sub(colsum), tile.j0 + jj);
        }
    }
}

/// The AVX-512-VNNI register tile: `H` rows × `W` panels (`H ≤ 8`,
/// `W ≤ 3`), then `ep` on the stored values, dead columns of the last
/// panel masked off.
///
/// The 8 × 48 tile is 24 zmm accumulators, 3 weight vectors and one
/// broadcast: per k-group each row's four operand bytes are broadcast
/// once and feed `W` `vpdpbusd`s, and each weight vector feeds `H`. The
/// k-loop runs over the whole of K, so the store sees finished sums.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vnni")]
fn tile_vnni<const H: usize, const W: usize, E: IntEpilogue>(
    a: &[u8],
    lda: usize,
    tile: &Tile<'_>,
    c: &mut [E::Out],
    ldc: usize,
    ep: E,
) {
    use std::arch::x86_64::{
        _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_set1_epi32, _mm512_setzero_si512,
        _mm512_sub_epi32,
    };
    let kg = tile.kg;
    // The bounds every pointer below stays inside.
    assert!(
        lda >= kg * KG && a.len() >= (H - 1) * lda + kg * KG,
        "tile operand rows"
    );
    assert!(tile.panels.len() == W * kg * GROUP_BYTES, "tile panels");
    assert!(
        tile.cols > (W - 1) * NR && tile.cols <= W * NR && tile.colsum128.len() == W * NR,
        "tile columns"
    );
    assert!(
        c.len() >= (H - 1) * ldc + tile.j0 + tile.cols,
        "tile rows of C"
    );
    let (ap, bp) = (a.as_ptr(), tile.panels.as_ptr());
    let mut acc = [[_mm512_setzero_si512(); W]; H];
    for g in 0..kg {
        let mut bv = [_mm512_setzero_si512(); W];
        for (w, b) in bv.iter_mut().enumerate() {
            // SAFETY: `w < W` and `g < kg`, so the 64 bytes at
            // `(w·kg + g)·64` lie in the panels (asserted `W·kg·64` long).
            *b = unsafe { _mm512_loadu_si512(bp.add((w * kg + g) * GROUP_BYTES).cast()) };
        }
        for (i, row) in acc.iter_mut().enumerate() {
            // SAFETY: `i·lda + 4g + 4 ≤ (H−1)·lda + 4·kg ≤ a.len()`.
            let quad = unsafe { ap.add(i * lda + g * KG).cast::<i32>().read_unaligned() };
            let ai = _mm512_set1_epi32(quad);
            for (t, &b) in row.iter_mut().zip(&bv) {
                *t = _mm512_dpbusd_epi32(*t, ai, b);
            }
        }
    }
    for w in 0..W {
        let jj = w * NR;
        let live = (tile.cols - jj).min(NR);
        let mask = u16::MAX >> (NR - live);
        // SAFETY: `colsum128` holds `W·16` columns (asserted).
        let colsum = unsafe { _mm512_loadu_si512(tile.colsum128.as_ptr().add(jj).cast()) };
        let j = tile.j0 + jj;
        for (i, row) in acc.iter().enumerate() {
            // SAFETY: the lanes `mask` keeps are columns `j..j + live` of
            // row `i`, inside C (asserted above) and inside the epilogue's
            // `j0 + cols` columns; this function's features cover the
            // epilogue's.
            unsafe {
                ep.store_zmm(
                    _mm512_sub_epi32(row[w], colsum),
                    j,
                    c.as_mut_ptr().add(i * ldc + j),
                    mask,
                )
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qtensor::{dot_i8_portable, QDense};
    use tinymlops_tensor::matmul::with_isa_cap;
    use tinymlops_tensor::TensorRng;

    /// Every arm this host has, narrowest first.
    fn host_arms() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|&isa| isa <= Isa::detected())
    }

    /// `rows × cols` int8 values in `-127..=127`; `sign` ±1 pins every
    /// value to ±127.
    fn int8_matrix(rng: &mut TensorRng, rows: usize, cols: usize, sign: Option<i8>) -> Vec<i8> {
        let v = rng.uniform(&[rows.max(1), cols.max(1)], -127.49, 127.49);
        (0..rows * cols)
            .map(|i| match sign {
                Some(s) => 127 * s,
                None => v.data()[i].round() as i8,
            })
            .collect()
    }

    /// The operand of `x` (`m × k`), its padding bytes filled with junk:
    /// the tile must not read meaning into them.
    fn operand(x: &[i8], k: usize, lda: usize) -> Vec<u8> {
        let m = x.len().checked_div(k).unwrap_or(0);
        let mut a = vec![0xA5u8; m * lda];
        for (row, src) in a.chunks_exact_mut(lda.max(1)).zip(x.chunks_exact(k.max(1))) {
            for (d, &q) in row.iter_mut().zip(src) {
                *d = operand_byte(q);
            }
        }
        a
    }

    /// The tile's accumulators equal `dot_i8_portable` for every tile
    /// height `1..=8`, every width `1..=3` panels (`n` of 1–4 panels,
    /// ragged and whole), K with every remainder mod 4 and one past a
    /// typical layer, and operands at the ±127 extremes — on every arm.
    #[test]
    fn tile_matches_portable_dots_at_every_shape() {
        let mut rng = TensorRng::seed(0x71e);
        let ks = [1usize, 3, 4, 5, 63, 64, 65, 512];
        let ns = [1usize, 10, 16, 17, 47, 48, 49];
        for isa in host_arms() {
            for &k in &ks {
                for &n in &ns {
                    for (case, m) in (1..=MR_VNNI).enumerate() {
                        // Cycle extremes through the shapes: random, all
                        // +127 against all −127, all +127 against +127.
                        let (xs, ws) = match case % 3 {
                            0 => (None, None),
                            1 => (Some(1), Some(-1)),
                            _ => (Some(1), Some(1)),
                        };
                        let x = int8_matrix(&mut rng, m, k, xs);
                        let w = int8_matrix(&mut rng, n, k, ws);
                        let panel =
                            Panel::build(n, k, |r, row| row.copy_from_slice(&w[r * k..][..k]));
                        let a = operand(&x, k, panel.lda());
                        let mut c = vec![i32::MIN; m * n];
                        with_isa_cap(isa, || sweep(&a, m, &panel, &mut c, n, Identity));
                        for i in 0..m {
                            for j in 0..n {
                                let want = dot_i8_portable(&x[i * k..][..k], &w[j * k..][..k]);
                                assert_eq!(
                                    c[i * n + j],
                                    want,
                                    "{isa:?} m={m} k={k} n={n} at [{i},{j}]"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// A product of several slabs — on the pool when large enough — and
    /// row tiles of every balanced height agree with the dots too.
    #[test]
    fn multi_slab_sweeps_match_portable_dots() {
        let mut rng = TensorRng::seed(0x5ab);
        for (m, k, n) in [(33usize, 40usize, 21usize), (70, 512, 64), (9, 7, 50)] {
            let x = int8_matrix(&mut rng, m, k, None);
            let w = int8_matrix(&mut rng, n, k, None);
            let panel = Panel::build(n, k, |r, row| row.copy_from_slice(&w[r * k..][..k]));
            let a = operand(&x, k, panel.lda());
            for isa in host_arms() {
                let mut c = vec![0i32; m * n];
                with_isa_cap(isa, || sweep(&a, m, &panel, &mut c, n, Identity));
                for (i, row) in c.chunks_exact(n).enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        let want = dot_i8_portable(&x[i * k..][..k], &w[j * k..][..k]);
                        assert_eq!(v, want, "{isa:?} {m}x{k}x{n} at [{i},{j}]");
                    }
                }
            }
        }
    }

    /// The fused epilogues store exactly what the verifier's replay steps
    /// compute from the same accumulators: requantization (with and
    /// without the folded ReLU) as `requantize_acc`, dequantization as
    /// `dequantize_acc` — on every arm, across ragged panels whose
    /// columns each carry their own scale, bias and plan.
    #[test]
    fn fused_epilogues_match_the_replay_steps() {
        let mut rng = TensorRng::seed(0xe91);
        for (batch, k, n) in [
            (8usize, 64usize, 49usize),
            (3, 33, 17),
            (8, 5, 10),
            (1, 512, 48),
        ] {
            let w = rng.uniform(&[n, k], -1.0, 1.0);
            let b = rng.uniform(&[n], -0.6, 0.6);
            let q = QDense::quantize(&w, &b, 8, 0.013);
            // Wide inputs push activations onto the ±127 clamp.
            let x = rng.uniform(&[batch, k], -3.0, 3.0);
            let xq = q.quantize_input(&x);
            let acc = q.int_accumulate(&xq, batch);
            let plan = q.requant_plan(0.021).expect("sane scales");
            let want_f32 = q.dequantize_acc(&acc, batch);
            for isa in host_arms() {
                with_isa_cap(isa, || {
                    let mut a = Vec::new();
                    q.load_operand(x.data(), batch, &mut a);
                    assert_eq!(q.int_accumulate(&xq, batch), acc, "{isa:?} accumulators");
                    for relu in [false, true] {
                        let want: Vec<u8> = q
                            .requantize_acc(&acc, batch, &plan, relu)
                            .into_iter()
                            .map(operand_byte)
                            .collect();
                        let ldc = n.next_multiple_of(KG);
                        let mut got = vec![0u8; batch * ldc];
                        q.run(&a, batch, &mut got, ldc, Requant { plan: &plan, relu });
                        for (i, row) in got.chunks_exact(ldc).enumerate() {
                            assert_eq!(
                                &row[..n],
                                &want[i * n..][..n],
                                "{isa:?} relu={relu} row {i}"
                            );
                        }
                    }
                    let mut got = vec![f32::NAN; batch * n];
                    q.run(&a, batch, &mut got, n, q.dequant());
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(want_f32.data()), "{isa:?} dequant");
                });
            }
        }
    }

    /// The operand quantizer stores `quantize_activations` plus 128, on
    /// every arm.
    #[test]
    fn load_operand_is_the_quantized_input_offset() {
        let mut rng = TensorRng::seed(0x10ad);
        let (batch, k) = (5, 37);
        let w = rng.uniform(&[3, k], -1.0, 1.0);
        let q = QDense::quantize(&w, &tinymlops_tensor::Tensor::zeros(&[3]), 8, 0.01);
        let x = rng.uniform(&[batch, k], -2.0, 2.0);
        let xq = q.quantize_input(&x);
        for isa in host_arms() {
            let mut a = vec![7u8; 3];
            with_isa_cap(isa, || q.load_operand(x.data(), batch, &mut a));
            for (i, row) in a.chunks_exact(q.lda()).enumerate() {
                let want: Vec<u8> = xq[i * k..][..k].iter().map(|&v| operand_byte(v)).collect();
                assert_eq!(&row[..k], &want[..], "{isa:?} row {i}");
            }
        }
    }
}
