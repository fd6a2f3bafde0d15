//! Property-based tests: cryptographic invariants over arbitrary inputs.

use proptest::prelude::*;
use tinymlops_crypto::sha256::{compress, compress_portable, shani_available};
use tinymlops_crypto::{from_hex, sha256, to_hex, Digest, HmacKey, SealedBox, Sha256};

/// FIPS 180-4 initial hash value.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Whole-message SHA-256 over the portable rounds only, padding written
/// out longhand — the oracle for the dispatched hasher.
fn sha256_portable(msg: &[u8]) -> Digest {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    for block in padded.chunks_exact(64) {
        compress_portable(&mut state, block.try_into().unwrap());
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Textbook RFC 2104 — the construction `hmac_sha256` used before key
/// schedules existed, kept here only as the oracle for [`HmacKey`].
fn reference_hmac(key: &[u8], message: &[u8]) -> Digest {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&k.map(|b| b ^ 0x36));
    inner.update(message);
    let mut outer = Sha256::new();
    outer.update(&k.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

/// Every length 0..=130 crosses the one-block/two-block padding
/// boundaries (55/56, 63/64, 119/120) on both kernels: one-shot,
/// byte-at-a-time and split-in-the-middle hashing through the dispatched
/// path all equal the portable oracle.
#[test]
fn sha256_all_lengths_match_portable_oracle() {
    let msg: Vec<u8> = (0u32..130).map(|i| (i * 7 + 3) as u8).collect();
    for len in 0..=msg.len() {
        let m = &msg[..len];
        let want = sha256_portable(m);
        assert_eq!(sha256(m), want, "one-shot, len {len}");
        let mut bytewise = Sha256::new();
        for b in m {
            bytewise.update(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finalize(), want, "byte-at-a-time, len {len}");
        let mut halves = Sha256::new();
        halves.update(&m[..len / 2]);
        halves.update(&m[len / 2..]);
        assert_eq!(halves.finalize(), want, "split, len {len}");
    }
}

proptest! {
    /// The SHA-NI kernel and the portable rounds are the same function of
    /// (chaining value, block). On a CPU without the SHA extensions the
    /// dispatched side *is* the portable one and the property is vacuous.
    #[test]
    fn compress_shani_equals_portable(state in any::<[u32; 8]>(), block in any::<[u8; 64]>()) {
        if !shani_available() {
            static NOTE: std::sync::Once = std::sync::Once::new();
            NOTE.call_once(|| println!("note: CPU lacks `sha`; SHA-NI ≡ portable check skipped"));
            return Ok(());
        }
        let (mut fast, mut portable) = (state, state);
        compress(&mut fast, &block);
        compress_portable(&mut portable, &block);
        prop_assert_eq!(fast, portable);
    }

    /// The key schedule changes the cost of a MAC, never its value.
    #[test]
    fn hmac_key_matches_textbook_construction(
        key in proptest::collection::vec(any::<u8>(), 0..201),
        message in proptest::collection::vec(any::<u8>(), 0..301),
    ) {
        prop_assert_eq!(HmacKey::new(&key).mac(&message), reference_hmac(&key, &message));
    }


    /// Incremental hashing equals one-shot for any split of any message.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Hex encode/decode round-trips arbitrary bytes.
    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
    }

    /// Sealed boxes decrypt to the original plaintext with the right key…
    #[test]
    fn sealed_box_round_trip(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let sealed = SealedBox::seal(&key, nonce, &aad, &pt);
        prop_assert_eq!(sealed.open(&key, &aad).unwrap(), pt);
    }

    /// …and any single-byte corruption of the ciphertext is rejected.
    #[test]
    fn sealed_box_tamper_detected(
        key in any::<[u8; 32]>(),
        pt in proptest::collection::vec(any::<u8>(), 1..256),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let mut sealed = SealedBox::seal(&key, [0u8; 12], b"", &pt);
        let idx = flip_at % sealed.ciphertext.len();
        sealed.ciphertext[idx] ^= 1 << flip_bit;
        prop_assert!(sealed.open(&key, b"").is_err());
    }

    /// Wire round trip of sealed boxes preserves open-ability.
    #[test]
    fn sealed_box_wire_round_trip(
        key in any::<[u8; 32]>(),
        pt in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let sealed = SealedBox::seal(&key, [3u8; 12], b"hdr", &pt);
        let parsed = SealedBox::from_bytes(&sealed.to_bytes()).unwrap();
        prop_assert_eq!(parsed.open(&key, b"hdr").unwrap(), pt);
    }

    /// Distinct keys practically never open each other's boxes.
    #[test]
    fn sealed_box_key_separation(
        k1 in any::<[u8; 32]>(),
        k2 in any::<[u8; 32]>(),
        pt in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        prop_assume!(k1 != k2);
        let sealed = SealedBox::seal(&k1, [0u8; 12], b"", &pt);
        prop_assert!(sealed.open(&k2, b"").is_err());
    }
}
