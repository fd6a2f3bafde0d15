//! SHA-256 (FIPS 180-4).
//!
//! This is the workspace-wide content hash: model artifacts in the registry,
//! audit-chain links in the metering crate, Merkle leaves in the signature
//! scheme and Fiat–Shamir transcripts in the verifiable-execution crate all
//! use it. Validated against the NIST short-message vectors below.

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use tinymlops_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), tinymlops_crypto::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    /// Bytes pending in `buf`; always `< 64` between calls.
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// Continue from a chaining value that already absorbed `absorbed`
    /// bytes (a whole number of blocks) — how [`crate::hmac::HmacKey`]
    /// skips re-hashing its pad blocks.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0, "midstates sit on block boundaries");
        Sha256 {
            state,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: absorbed,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consume the hasher and produce the digest.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros to 56 mod 64, 64-bit big-endian bit length —
        // a second block only when the 0x80 lands past byte 55.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        digest_of(&self.state)
    }
}

/// Serialize a chaining value as the big-endian digest.
pub(crate) fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function: fold one 64-byte block into `state`.
///
/// Runtime-dispatched like the AVX2 kernels in `quant::qtensor`: the
/// SHA-NI kernel on x86-64 CPUs that have the SHA extensions,
/// [`compress_portable`] everywhere else. Both are bit-exact FIPS 180-4
/// (`tests/props.rs` checks them against each other), so nothing
/// downstream can observe which one ran. Public only (and hidden) so that
/// proptest can reach it.
#[doc(hidden)]
#[inline]
pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani_available() {
        // SAFETY: sha, ssse3 and sse4.1 presence checked on this CPU.
        unsafe { compress_shani(state, block) };
        return;
    }
    compress_portable(state, block);
}

/// Whether [`compress`] takes the SHA-NI kernel on this CPU (tests and
/// the kernels bench report it; nothing can set it).
#[doc(hidden)]
#[must_use]
pub fn shani_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Portable scalar rounds — what every non-x86 and pre-SHA-NI host runs
/// (and what Miri sees). Public only (and hidden) as the reference the
/// SHA-NI equivalence proptest and the b01 `_portable` rows are built on.
#[doc(hidden)]
pub fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One block through the x86 SHA extensions: `sha256rnds2` retires two
/// rounds per instruction on the `(ABEF, CDGH)` register pair, and
/// `sha256msg1`/`sha256msg2` compute the message schedule four words at
/// a time, so the 64 rounds are 16 groups of 4, fully unrolled.
///
/// # Safety
///
/// The CPU must support the `sha`, `ssse3` and `sse4.1` features. All
/// memory access is unaligned 16-byte loads/stores at fixed offsets
/// inside the two fixed-size references.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
unsafe fn compress_shani(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;

    // Big-endian words → lanes; [u32; 8] state → the ABEF/CDGH pairing
    // the round instruction wants.
    let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let sp = state.as_mut_ptr().cast::<__m128i>();
    let bp = block.as_ptr().cast::<__m128i>();
    let dcba = _mm_shuffle_epi32(_mm_loadu_si128(sp), 0xB1);
    let hgfe = _mm_shuffle_epi32(_mm_loadu_si128(sp.add(1)), 0x1B);
    let mut abef = _mm_alignr_epi8(dcba, hgfe, 8);
    let mut cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // Round constants K[4g..4g+4] as one vector (folded at compile time).
    macro_rules! k4 {
        ($g:expr) => {
            _mm_set_epi32(
                K[4 * $g + 3] as i32,
                K[4 * $g + 2] as i32,
                K[4 * $g + 1] as i32,
                K[4 * $g] as i32,
            )
        };
    }
    // Rounds 4g..4g+4 on schedule words `$w` = W[4g..4g+4].
    macro_rules! rounds4 {
        ($g:expr, $w:expr) => {{
            let wk = _mm_add_epi32($w, k4!($g));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }
    // `rounds4` plus the schedule: finish W[4g+4..4g+8] into `$next`
    // (which holds msg1(W[4g-12..], W[4g-8..])) from `$prev`/`$cur`.
    macro_rules! rounds4_sched {
        ($g:expr, $prev:ident, $cur:ident, $next:ident) => {{
            rounds4!($g, $cur);
            $next =
                _mm_sha256msg2_epu32(_mm_add_epi32($next, _mm_alignr_epi8($cur, $prev, 4)), $cur);
        }};
    }

    let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(bp), be);
    let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(bp.add(1)), be);
    let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(bp.add(2)), be);
    let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(bp.add(3)), be);

    rounds4!(0, w0);
    rounds4!(1, w1);
    w0 = _mm_sha256msg1_epu32(w0, w1);
    rounds4!(2, w2);
    w1 = _mm_sha256msg1_epu32(w1, w2);
    rounds4_sched!(3, w2, w3, w0);
    w2 = _mm_sha256msg1_epu32(w2, w3);
    rounds4_sched!(4, w3, w0, w1);
    w3 = _mm_sha256msg1_epu32(w3, w0);
    rounds4_sched!(5, w0, w1, w2);
    w0 = _mm_sha256msg1_epu32(w0, w1);
    rounds4_sched!(6, w1, w2, w3);
    w1 = _mm_sha256msg1_epu32(w1, w2);
    rounds4_sched!(7, w2, w3, w0);
    w2 = _mm_sha256msg1_epu32(w2, w3);
    rounds4_sched!(8, w3, w0, w1);
    w3 = _mm_sha256msg1_epu32(w3, w0);
    rounds4_sched!(9, w0, w1, w2);
    w0 = _mm_sha256msg1_epu32(w0, w1);
    rounds4_sched!(10, w1, w2, w3);
    w1 = _mm_sha256msg1_epu32(w1, w2);
    rounds4_sched!(11, w2, w3, w0);
    w2 = _mm_sha256msg1_epu32(w2, w3);
    rounds4_sched!(12, w3, w0, w1);
    w3 = _mm_sha256msg1_epu32(w3, w0);
    rounds4_sched!(13, w0, w1, w2);
    rounds4_sched!(14, w1, w2, w3);
    rounds4!(15, w3);

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    _mm_storeu_si128(sp, _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(sp.add(1), _mm_alignr_epi8(dchg, feba, 8));
}

/// One-shot SHA-256.
#[must_use]
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hash the concatenation of two digests — Merkle-tree node combiner.
#[must_use]
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(left);
    h.update(right);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    #[test]
    fn nist_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let msg: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let want = sha256(&msg);
        for split in 0..msg.len() {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn hash_pair_is_order_sensitive() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
    }
}
