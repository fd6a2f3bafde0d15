//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//!
//! HMAC authenticates metering vouchers and seals every audit-chain link
//! (§III-C) and authenticates encrypted model blobs (§V); HKDF derives
//! per-device model-encryption keys from a vendor master key, so a
//! compromised device never reveals another device's key.
//!
//! There is one HMAC construction, [`HmacKey`]: the audit chain MACs once
//! per metered query under a key that never changes, so the key-only
//! work is done once and held.

use crate::sha256::{compress, digest_of, sha256, Digest, Sha256, H0};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key with its schedule precomputed.
///
/// The first block of both the inner and the outer hash is `key ⊕ pad` —
/// key-only, identical for every message. `new` compresses those two
/// blocks once and keeps the resulting chaining values, so each
/// [`HmacKey::mac`] costs only the message blocks plus one outer block
/// (3 compressions for the audit chain's 57-byte entries instead of 5).
/// Output is bit-identical to textbook RFC 2104.
///
/// The midstates are key-equivalent secret material: the type is not
/// serializable and its `Debug` prints no state.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Schedule `key` (keys longer than one block are hashed first, per
    /// RFC 2104).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut state = H0;
            compress(&mut state, &k.map(|b| b ^ pad));
            state
        };
        HmacKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// Compute `HMAC-SHA256(key, message)`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> Digest {
        let mut inner = Sha256::resume(self.inner, BLOCK as u64);
        inner.update(message);
        // The outer message is always opad-block ‖ 32-byte digest: one
        // tail block with fixed padding and bit length (64 + 32) · 8.
        let mut tail = [0u8; BLOCK];
        tail[..32].copy_from_slice(&inner.finalize());
        tail[32] = 0x80;
        tail[62..].copy_from_slice(&768u16.to_be_bytes());
        let mut state = self.outer;
        compress(&mut state, &tail);
        digest_of(&state)
    }
}

/// The schedule of the empty key — by RFC 2104 zero-padding also that of
/// any all-zero key. Exists so a `#[serde(skip)]` holder deserializes to
/// a defined placeholder until the real key is re-attached.
impl Default for HmacKey {
    fn default() -> Self {
        HmacKey::new(&[])
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

/// Compute `HMAC-SHA256(key, message)` for a one-off key; hold an
/// [`HmacKey`] instead when the key is reused.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// HKDF-Extract: turn input keying material into a pseudorandom key.
#[must_use]
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Digest {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derive `len` bytes of output keying material (`len <= 8160`).
#[must_use]
pub fn hkdf_expand(prk: &Digest, info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * 32, "HKDF-Expand output too long");
    let mut okm = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut msg = Vec::with_capacity(t.len() + info.len() + 1);
        msg.extend_from_slice(&t);
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac_sha256(prk, &msg);
        t = block.to_vec();
        okm.extend_from_slice(&block);
        counter = counter.wrapping_add(1);
    }
    okm.truncate(len);
    okm
}

/// One-shot HKDF: extract-then-expand.
#[must_use]
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    /// RFC 4231 vectors go through a held schedule *and* the one-shot
    /// wrapper, so both entry points are pinned.
    fn check(key: &[u8], data: &[u8], want: &str) {
        let schedule = HmacKey::new(key);
        assert_eq!(to_hex(&schedule.mac(data)), want);
        assert_eq!(to_hex(&schedule.mac(data)), want, "schedule is reusable");
        assert_eq!(to_hex(&hmac_sha256(key, data)), want);
    }

    #[test]
    fn rfc4231_case1() {
        check(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case2() {
        check(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case3() {
        check(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        check(
            &key,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    // Key longer than the block size: hashed first.
    #[test]
    fn rfc4231_case6_long_key() {
        check(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    // Long key and a message spanning several blocks.
    #[test]
    fn rfc4231_case7_long_key_long_data() {
        check(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn debug_prints_no_state() {
        assert_eq!(format!("{:?}", HmacKey::new(&[7; 32])), "HmacKey(..)");
    }

    #[test]
    fn default_is_the_all_zero_key() {
        let msg = b"placeholder";
        assert_eq!(
            HmacKey::default().mac(msg),
            HmacKey::new(&[0u8; 32]).mac(msg)
        );
    }

    fn check_hkdf(ikm: &[u8], salt: &[u8], info: &[u8], prk_hex: &str, okm_hex: &str) {
        let prk = hkdf_extract(salt, ikm);
        assert_eq!(to_hex(&prk), prk_hex);
        let okm = hkdf_expand(&prk, info, okm_hex.len() / 2);
        assert_eq!(to_hex(&okm), okm_hex);
    }

    #[test]
    fn rfc5869_case1() {
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        check_hkdf(
            &[0x0b; 22],
            &salt,
            &info,
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5",
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865",
        );
    }

    // 80-byte inputs: salt (the HMAC key) longer than one block.
    #[test]
    fn rfc5869_case2_long_inputs() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        check_hkdf(
            &ikm,
            &salt,
            &info,
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244",
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87",
        );
    }

    // Empty salt and info.
    #[test]
    fn rfc5869_case3_empty_salt_and_info() {
        check_hkdf(
            &[0x0b; 22],
            &[],
            &[],
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04",
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8",
        );
    }

    #[test]
    fn hkdf_distinct_infos_give_distinct_keys() {
        let a = hkdf(b"salt", b"master", b"device-1", 32);
        let b = hkdf(b"salt", b"master", b"device-2", 32);
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn hkdf_long_output_is_deterministic() {
        let a = hkdf(b"s", b"ikm", b"ctx", 100);
        let b = hkdf(b"s", b"ikm", b"ctx", 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
    }
}
