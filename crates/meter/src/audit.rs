//! Hash-chained, HMAC-sealed audit log.
//!
//! Every metered event appends an entry whose hash covers the previous
//! entry's hash — editing, inserting, reordering or truncating history
//! breaks the chain. Sealing each link with a device-specific HMAC key
//! means a tamperer without the key cannot even *re-mint* a consistent
//! forged chain.

use serde::{Deserialize, Serialize};
use tinymlops_crypto::{Digest, HmacKey};

use crate::MeterError;

/// What kind of event an audit entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryKind {
    /// A metered model query.
    Query,
    /// A voucher redemption adding quota.
    Redeem,
    /// A sync checkpoint acknowledged by the server.
    Checkpoint,
    /// Prepaid queries returned to the balance because admitted work was
    /// shed downstream (NoRoute / deadline) before being served. Refunds
    /// are chain entries, not edits: billing reconciles the *net* count,
    /// and a tamperer cannot mint refunds without the sealing key.
    Refund,
    /// The whole quota partition (balance + this chain) moved between
    /// serving nodes in a live migration. The payload packs the source
    /// and destination node ids (`from << 32 | to`), so billing can see
    /// *where* every span of queries was metered and a tamperer cannot
    /// silently re-home an account: the handoff is part of the sealed
    /// history itself.
    Handoff,
    /// The account was evacuated to a surviving node after its home node
    /// died (emergency handoff, no source cooperation beyond the sealed
    /// chain itself). Payload packs `(from, to)` like [`EntryKind::Handoff`]
    /// but under a distinct domain-separation byte, so billing can tell a
    /// planned migration from a failover and a tamperer cannot relabel one
    /// as the other.
    Failover,
}

/// Pack a `(from, to)` node pair into a [`EntryKind::Handoff`] or
/// [`EntryKind::Failover`] payload.
#[must_use]
pub fn handoff_payload(from: u32, to: u32) -> u64 {
    (u64::from(from) << 32) | u64::from(to)
}

/// Unpack a [`EntryKind::Handoff`] / [`EntryKind::Failover`] payload into
/// its `(from, to)` pair.
#[must_use]
pub fn handoff_nodes(payload: u64) -> (u32, u32) {
    ((payload >> 32) as u32, payload as u32)
}

/// One link in the audit chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Monotonic sequence number (0-based).
    pub seq: u64,
    /// Event kind.
    pub kind: EntryKind,
    /// Small payload (e.g. voucher serial, query count).
    pub payload: u64,
    /// Simulated timestamp (ms).
    pub time_ms: u64,
    /// HMAC over (seq ‖ kind ‖ payload ‖ time ‖ prev_link).
    pub link: [u8; 32],
}

fn entry_mac(
    key: &HmacKey,
    seq: u64,
    kind: EntryKind,
    payload: u64,
    time_ms: u64,
    prev: &Digest,
) -> Digest {
    let mut msg = [0u8; 8 + 1 + 8 + 8 + 32];
    msg[..8].copy_from_slice(&seq.to_le_bytes());
    msg[8] = match kind {
        EntryKind::Query => 0,
        EntryKind::Redeem => 1,
        EntryKind::Checkpoint => 2,
        EntryKind::Refund => 3,
        EntryKind::Handoff => 4,
        EntryKind::Failover => 5,
    };
    msg[9..17].copy_from_slice(&payload.to_le_bytes());
    msg[17..25].copy_from_slice(&time_ms.to_le_bytes());
    msg[25..].copy_from_slice(prev);
    key.mac(&msg)
}

/// An append-only audit log sealed under a device key.
///
/// The log holds the key only as its [`HmacKey`] schedule: every append
/// reuses the two pad-block midstates, and `Debug` output never carries
/// key material.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
    /// Not serialized: a deserialized log seals under the all-zero key
    /// until [`AuditLog::set_key`] re-attaches the real one.
    #[serde(skip)]
    key: HmacKey,
}

const GENESIS: Digest = [0u8; 32];

impl AuditLog {
    /// New empty log sealed under `key` (derive per-device via HKDF).
    #[must_use]
    pub fn new(key: [u8; 32]) -> Self {
        AuditLog {
            entries: Vec::new(),
            key: HmacKey::new(&key),
        }
    }

    /// Re-attach the sealing key after deserialization.
    pub fn set_key(&mut self, key: [u8; 32]) {
        self.key = HmacKey::new(&key);
    }

    /// Append an event; returns the new head link.
    pub fn append(&mut self, kind: EntryKind, payload: u64, time_ms: u64) -> Digest {
        let seq = self.entries.len() as u64;
        let prev = self.head();
        let link = entry_mac(&self.key, seq, kind, payload, time_ms, &prev);
        self.entries.push(AuditEntry {
            seq,
            kind,
            payload,
            time_ms,
            link,
        });
        link
    }

    /// Current head link (genesis hash when empty).
    #[must_use]
    pub fn head(&self) -> Digest {
        self.entries.last().map_or(GENESIS, |e| e.link)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no events are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries (read-only).
    #[must_use]
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Verify the whole chain under `key`. O(n) HMACs, one key schedule.
    pub fn verify(&self, key: &[u8; 32]) -> Result<(), MeterError> {
        let key = &HmacKey::new(key);
        let mut prev = GENESIS;
        for (i, e) in self.entries.iter().enumerate() {
            if e.seq != i as u64 {
                return Err(MeterError::ChainBroken { at_seq: i as u64 });
            }
            let want = entry_mac(key, e.seq, e.kind, e.payload, e.time_ms, &prev);
            if !tinymlops_crypto::ct_eq(&want, &e.link) {
                return Err(MeterError::ChainBroken { at_seq: e.seq });
            }
            prev = e.link;
        }
        Ok(())
    }

    /// Count of query events (for billing reconciliation). Saturates
    /// rather than overflowing: payloads are device-reported, and a
    /// hostile `u64::MAX` must not panic a debug build of the backend.
    #[must_use]
    pub fn query_count(&self) -> u64 {
        self.payload_total(EntryKind::Query)
    }

    /// Count of refunded queries (admitted work shed before service);
    /// saturating, like [`AuditLog::query_count`].
    #[must_use]
    pub fn refund_count(&self) -> u64 {
        self.payload_total(EntryKind::Refund)
    }

    fn payload_total(&self, kind: EntryKind) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == kind)
            .fold(0u64, |total, e| total.saturating_add(e.payload))
    }

    /// Billable queries: consumed minus refunded. This is the number the
    /// backend invoices against — shed-then-refunded work costs nothing.
    #[must_use]
    pub fn net_query_count(&self) -> u64 {
        self.query_count().saturating_sub(self.refund_count())
    }

    /// Count of node-to-node handoff entries (live tenant migrations).
    #[must_use]
    pub fn handoff_count(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Handoff)
            .count() as u64
    }

    /// Count of emergency-failover entries (account evacuated off a dead
    /// node).
    #[must_use]
    pub fn failover_count(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Failover)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> [u8; 32] {
        [7u8; 32]
    }

    fn sample_log(n: usize) -> AuditLog {
        let mut log = AuditLog::new(key());
        for i in 0..n {
            log.append(EntryKind::Query, 1, i as u64 * 10);
        }
        log
    }

    #[test]
    fn verify_accepts_honest_chain() {
        let log = sample_log(100);
        log.verify(&key()).unwrap();
        assert_eq!(log.query_count(), 100);
    }

    #[test]
    fn edit_breaks_chain() {
        let mut log = sample_log(50);
        log.entries[20].payload = 0; // understate usage
        let err = log.verify(&key()).unwrap_err();
        assert_eq!(err, MeterError::ChainBroken { at_seq: 20 });
    }

    #[test]
    fn reorder_breaks_chain() {
        let mut log = sample_log(10);
        log.entries.swap(3, 4);
        assert!(log.verify(&key()).is_err());
    }

    #[test]
    fn deletion_breaks_chain() {
        let mut log = sample_log(10);
        log.entries.remove(5);
        assert!(log.verify(&key()).is_err());
    }

    #[test]
    fn truncation_is_internally_valid_but_changes_head() {
        // Pure truncation keeps a valid prefix — that's exactly why the
        // sync server must remember heads (see sync.rs).
        let mut log = sample_log(10);
        let head_before = log.head();
        log.entries.truncate(5);
        log.verify(&key()).unwrap();
        assert_ne!(log.head(), head_before);
    }

    #[test]
    fn forger_without_key_cannot_remint() {
        let mut log = sample_log(10);
        // Attacker edits and recomputes links with a guessed key.
        let fake_key = HmacKey::new(&[8u8; 32]);
        log.entries[2].payload = 0;
        let mut prev = GENESIS;
        for e in &mut log.entries {
            e.link = entry_mac(&fake_key, e.seq, e.kind, e.payload, e.time_ms, &prev);
            prev = e.link;
        }
        assert!(log.verify(&key()).is_err(), "verifier uses the real key");
    }

    /// The wire format, pinned: a fixed chain over all six entry kinds
    /// whose head link was computed by the commit *before* key schedules
    /// and the SHA-NI kernel existed. If this fails, every chain ever
    /// written stops verifying.
    #[test]
    fn golden_chain_head_is_unchanged() {
        let mut log = AuditLog::new(key());
        log.append(EntryKind::Redeem, 1000, 0);
        log.append(EntryKind::Query, 1, 10);
        log.append(EntryKind::Query, 3, 20);
        log.append(EntryKind::Refund, 2, 30);
        log.append(EntryKind::Checkpoint, 996, 40);
        log.append(EntryKind::Handoff, handoff_payload(0, 2), 50);
        log.append(EntryKind::Failover, handoff_payload(2, 1), 60);
        log.append(EntryKind::Query, u64::MAX, u64::MAX);
        assert_eq!(
            tinymlops_crypto::to_hex(&log.entries()[0].link),
            "bc69b168ab911c6d3e2eb3ac084e7067a0414f246072db1e575e3affbc8ef96f"
        );
        assert_eq!(
            tinymlops_crypto::to_hex(&log.head()),
            "6c35ecf278906cb799b391fbba8734fd00f5d403c9aa7c376b05354086519a33"
        );
        log.verify(&key()).unwrap();
    }

    #[test]
    fn debug_output_carries_no_key_material() {
        // A distinctive key, so its bytes cannot collide with the entry
        // fields in the dump.
        let key: [u8; 32] = std::array::from_fn(|i| 0xa5 ^ (i as u8 * 7));
        let mut log = AuditLog::new(key);
        log.append(EntryKind::Query, 1, 2);
        let mut quota = crate::QuotaManager::new(key);
        quota.credit(5, 1, 0);
        for dump in [format!("{log:?}"), format!("{quota:?}")] {
            // The key field prints as the redacted schedule and nothing
            // else (so no midstate words either; `crypto` pins that the
            // schedule's whole `Debug` is this string) …
            assert!(dump.contains("key: HmacKey(..)"), "{dump}");
            // … and a raw `[u8; 32]` would print as a decimal list.
            let leading = format!("{}, {}, {}, {}", key[0], key[1], key[2], key[3]);
            assert!(!dump.contains(&leading), "raw key bytes leaked: {dump}");
        }
    }

    #[test]
    fn empty_log_verifies() {
        let log = AuditLog::new(key());
        log.verify(&key()).unwrap();
        assert_eq!(log.head(), GENESIS);
        assert!(log.is_empty());
    }

    #[test]
    fn mixed_kinds_count_only_queries() {
        let mut log = AuditLog::new(key());
        log.append(EntryKind::Redeem, 1000, 0);
        log.append(EntryKind::Query, 3, 1);
        log.append(EntryKind::Checkpoint, 0, 2);
        log.append(EntryKind::Query, 2, 3);
        assert_eq!(log.query_count(), 5);
    }

    #[test]
    fn counts_saturate_on_hostile_payloads() {
        let mut log = AuditLog::new(key());
        log.append(EntryKind::Query, 3, 0);
        log.append(EntryKind::Query, u64::MAX, 1);
        log.append(EntryKind::Refund, u64::MAX, 2);
        log.append(EntryKind::Refund, 1, 3);
        assert_eq!(log.query_count(), u64::MAX);
        assert_eq!(log.refund_count(), u64::MAX);
        assert_eq!(log.net_query_count(), 0);
    }

    #[test]
    fn refunds_are_chained_and_net_out_of_billing() {
        let mut log = AuditLog::new(key());
        log.append(EntryKind::Redeem, 1000, 0);
        log.append(EntryKind::Query, 5, 1);
        log.append(EntryKind::Refund, 2, 2);
        log.verify(&key()).unwrap();
        assert_eq!(log.query_count(), 5);
        assert_eq!(log.refund_count(), 2);
        assert_eq!(log.net_query_count(), 3);
        // A forged refund (understating usage) breaks the chain.
        let mut forged = log.clone();
        forged.entries[2].payload = 5;
        assert!(forged.verify(&key()).is_err());
    }

    #[test]
    fn handoff_entries_are_chained_and_billing_neutral() {
        let mut log = AuditLog::new(key());
        log.append(EntryKind::Redeem, 1000, 0);
        log.append(EntryKind::Query, 5, 1);
        log.append(EntryKind::Handoff, handoff_payload(2, 0), 2);
        log.append(EntryKind::Query, 3, 3);
        log.verify(&key()).unwrap();
        assert_eq!(log.handoff_count(), 1);
        assert_eq!(log.query_count(), 8, "queries span the handoff");
        assert_eq!(log.net_query_count(), 8, "handoffs are billing-neutral");
        assert_eq!(handoff_nodes(handoff_payload(2, 0)), (2, 0));
        // Re-homing the account by editing the handoff breaks the chain.
        let mut forged = log.clone();
        forged.entries[2].payload = handoff_payload(2, 1);
        assert!(forged.verify(&key()).is_err());
    }

    #[test]
    fn handoff_kind_is_domain_separated() {
        // Same payload/time, different kind ⇒ different link: a tamperer
        // cannot relabel a Query as a Handoff (or vice versa) in place.
        let mut as_query = AuditLog::new(key());
        as_query.append(EntryKind::Query, 7, 9);
        let mut as_handoff = AuditLog::new(key());
        as_handoff.append(EntryKind::Handoff, 7, 9);
        assert_ne!(as_query.head(), as_handoff.head());
        let mut relabeled = as_query.clone();
        relabeled.entries[0].kind = EntryKind::Handoff;
        assert!(relabeled.verify(&key()).is_err());
    }

    #[test]
    fn failover_entries_are_chained_and_billing_neutral() {
        let mut log = AuditLog::new(key());
        log.append(EntryKind::Redeem, 1000, 0);
        log.append(EntryKind::Query, 5, 1);
        log.append(EntryKind::Failover, handoff_payload(1, 2), 2);
        log.append(EntryKind::Query, 3, 3);
        log.verify(&key()).unwrap();
        assert_eq!(log.failover_count(), 1);
        assert_eq!(log.handoff_count(), 0, "failover is not a handoff");
        assert_eq!(log.query_count(), 8, "queries span the failover");
        assert_eq!(log.net_query_count(), 8, "failovers are billing-neutral");
        // Re-homing the account by editing the failover breaks the chain.
        let mut forged = log.clone();
        forged.entries[2].payload = handoff_payload(1, 0);
        assert!(forged.verify(&key()).is_err());
    }

    #[test]
    fn failover_kind_is_domain_separated_from_handoff() {
        // Same (from, to) payload and time, different kind ⇒ different
        // link: a tamperer cannot pass an emergency failover off as a
        // planned migration (or vice versa) in place.
        let mut as_handoff = AuditLog::new(key());
        as_handoff.append(EntryKind::Handoff, handoff_payload(3, 1), 9);
        let mut as_failover = AuditLog::new(key());
        as_failover.append(EntryKind::Failover, handoff_payload(3, 1), 9);
        assert_ne!(as_handoff.head(), as_failover.head());
        let mut relabeled = as_handoff.clone();
        relabeled.entries[0].kind = EntryKind::Failover;
        assert!(relabeled.verify(&key()).is_err());
    }

    #[test]
    fn refund_kind_is_domain_separated_from_query() {
        // Same payload/time, different kind ⇒ different link: a tamperer
        // cannot relabel a Query entry as a Refund in place.
        let mut as_query = AuditLog::new(key());
        as_query.append(EntryKind::Query, 7, 9);
        let mut as_refund = AuditLog::new(key());
        as_refund.append(EntryKind::Refund, 7, 9);
        assert_ne!(as_query.head(), as_refund.head());
        let mut relabeled = as_query.clone();
        relabeled.entries[0].kind = EntryKind::Refund;
        assert!(relabeled.verify(&key()).is_err());
    }
}
