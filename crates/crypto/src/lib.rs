//! From-scratch cryptographic substrate for the TinyMLOps platform.
//!
//! The paper's §III-C (offline metering), §V (model IP protection) and §VI
//! (verifiable execution) all assume cryptographic primitives that a real
//! TinyMLOps deployment would ship on-device. This crate implements them
//! without external dependencies so the whole workspace stays auditable:
//!
//! * [`sha256()`] — SHA-256 (FIPS 180-4), the workspace-wide content hash;
//!   one compression function, runtime-dispatched to the x86 SHA
//!   extensions where the CPU has them.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) as a reusable [`HmacKey`] schedule,
//!   and HKDF (RFC 5869) key derivation.
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439) used for model
//!   encryption, plus an encrypt-then-MAC [`chacha20::SealedBox`].
//! * [`sig`] — hash-based signatures: Lamport one-time signatures composed
//!   into a Merkle many-time scheme (the classic embedded/post-quantum
//!   construction), used to sign deployment capsules.
//! * [`drbg`] — a deterministic random bit generator built on ChaCha20,
//!   used wherever the platform needs reproducible key material.
//!
//! All primitives are validated against RFC / NIST test vectors in the unit
//! tests. This is a *defensive* substrate: it protects models in transit and
//! at rest and makes audit logs tamper-evident.

pub mod chacha20;
pub mod drbg;
pub mod hmac;
pub mod sha256;
pub mod sig;

pub use chacha20::{ChaCha20, SealedBox};
pub use drbg::Drbg;
pub use hmac::{hkdf, hmac_sha256, HmacKey};
pub use sha256::{sha256, Digest, Sha256};
pub use sig::{MerkleSignature, MerkleSigner, OtsKeypair};

/// Errors surfaced by cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A MAC or signature failed to verify.
    VerificationFailed,
    /// A ciphertext or encoded structure was malformed.
    Malformed(&'static str),
    /// A one-time key was asked to sign a second message, or a Merkle
    /// signer ran out of leaves.
    KeyExhausted,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::Malformed(what) => write!(f, "malformed input: {what}"),
            CryptoError::KeyExhausted => write!(f, "one-time key material exhausted"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Constant-time byte-slice equality (length leaks, contents do not).
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// Encode bytes as lowercase hex.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

/// Decode a lowercase/uppercase hex string into bytes.
pub fn from_hex(s: &str) -> Result<Vec<u8>, CryptoError> {
    if !s.len().is_multiple_of(2) {
        return Err(CryptoError::Malformed("odd-length hex"));
    }
    let nibble = |c: u8| -> Result<u8, CryptoError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(CryptoError::Malformed("non-hex character")),
        }
    };
    let b = s.as_bytes();
    (0..s.len() / 2)
        .map(|i| Ok(nibble(b[2 * i])? << 4 | nibble(b[2 * i + 1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let data = vec![0u8, 1, 2, 0xab, 0xcd, 0xef, 255];
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"diff"));
        assert!(!ct_eq(b"same", b"longer"));
        assert!(ct_eq(b"", b""));
    }
}
