//! Adversarial integration tests for the §III-C metering stack: every
//! fraud path the paper worries about ("secure offline way on untrusted
//! hardware") must be caught at sync time.

use tinymlops::meter::{
    audit::{handoff_payload, AuditLog, EntryKind},
    QuotaManager, RateCard, SyncServer, VoucherIssuer, VoucherLedger,
};

const DEVICE_KEY: [u8; 32] = [11u8; 32];

fn provisioned_backend() -> SyncServer {
    let mut s = SyncServer::new();
    s.provision(1, DEVICE_KEY);
    s
}

#[test]
fn honest_device_lifecycle_bills_correctly() {
    let mut backend = provisioned_backend();
    let mut issuer = VoucherIssuer::new([2u8; 32]);
    let mut ledger = VoucherLedger::new();
    let mut quota = QuotaManager::new(DEVICE_KEY);

    // Two purchase/consume/sync cycles.
    let mut t = 0u64;
    for cycle in 0..2 {
        let v = issuer.issue(1500, 1);
        ledger.register(v.serial).unwrap();
        quota.credit(v.quota, v.serial, t);
        for _ in 0..15 {
            quota.consume(100, t).unwrap();
            t += 1;
        }
        let outcome = backend.sync(1, quota.log()).unwrap();
        assert_eq!(outcome.new_queries, 1500, "cycle {cycle}");
    }
    let invoice =
        tinymlops::meter::Invoice::compute(1, backend.billed(1), &RateCard::cloud_vision_like());
    assert_eq!(invoice.queries, 3000);
    // 3000 − 1000 free = 2000 billable at $1.50/1k.
    assert_eq!(invoice.amount_display(), "$3.00");
}

#[test]
fn understating_usage_breaks_the_chain() {
    let mut backend = provisioned_backend();
    let mut quota = QuotaManager::new(DEVICE_KEY);
    quota.credit(100, 1, 0);
    for t in 0..10 {
        quota.consume(10, t).unwrap();
    }
    backend.sync(1, quota.log()).unwrap();

    // Attacker fabricates a log claiming only 1 query, sealed with a
    // guessed key.
    let mut forged = AuditLog::new([0u8; 32]);
    forged.append(EntryKind::Query, 1, 0);
    assert!(backend.sync(1, &forged).is_err());
}

#[test]
fn rollback_to_presync_state_is_a_fork() {
    let mut backend = provisioned_backend();
    let mut quota = QuotaManager::new(DEVICE_KEY);
    quota.credit(50, 1, 0);
    quota.consume(50, 1).unwrap();
    backend.sync(1, quota.log()).unwrap();

    // Restore the device image from before the consumption.
    let mut restored = QuotaManager::new(DEVICE_KEY);
    restored.credit(50, 1, 0); // replays the same voucher state
    assert!(
        backend.sync(1, restored.log()).is_err(),
        "restored snapshot must not reconcile"
    );
}

#[test]
fn voucher_cloning_across_devices_is_caught() {
    let mut issuer = VoucherIssuer::new([2u8; 32]);
    let mut ledger = VoucherLedger::new();
    let v = issuer.issue(1000, 0); // bearer voucher
                                   // Device A redeems and syncs.
    ledger.register(v.serial).unwrap();
    // Device B presents the same serial.
    assert!(ledger.register(v.serial).is_err());
}

#[test]
fn quota_denial_is_exact_not_approximate() {
    let mut quota = QuotaManager::new(DEVICE_KEY);
    quota.credit(7, 1, 0);
    assert!(quota.consume(7, 1).is_ok());
    assert!(quota.consume(1, 2).is_err());
    // Audit trail shows exactly 7 queries, no phantom denials.
    assert_eq!(quota.log().query_count(), 7);
    quota.log().verify(&DEVICE_KEY).unwrap();
}

/// The chain's wire format, pinned at tier 1: a fixed chain over all six
/// entry kinds whose head link was computed before HMAC key schedules and
/// the SHA-NI kernel existed (mirror of the golden test in `meter::audit`).
/// A faster MAC that changes one bit here orphans every deployed chain.
#[test]
fn audit_chain_format_is_pinned() {
    let key = [7u8; 32];
    let mut log = AuditLog::new(key);
    log.append(EntryKind::Redeem, 1000, 0);
    log.append(EntryKind::Query, 1, 10);
    log.append(EntryKind::Query, 3, 20);
    log.append(EntryKind::Refund, 2, 30);
    log.append(EntryKind::Checkpoint, 996, 40);
    log.append(EntryKind::Handoff, handoff_payload(0, 2), 50);
    log.append(EntryKind::Failover, handoff_payload(2, 1), 60);
    log.append(EntryKind::Query, u64::MAX, u64::MAX);
    assert_eq!(
        tinymlops::crypto::to_hex(&log.head()),
        "6c35ecf278906cb799b391fbba8734fd00f5d403c9aa7c376b05354086519a33"
    );
    log.verify(&key).unwrap();
    // The `u64::MAX` payload saturates the count instead of overflowing
    // it, so the backend reconciles the chain in debug builds too.
    let mut backend = SyncServer::new();
    backend.provision(9, key);
    let outcome = backend.sync(9, &log).expect("golden chain reconciles");
    assert_eq!(outcome.log_len, 8);
    assert_eq!(
        outcome.new_queries,
        u64::MAX - 2,
        "saturated queries net of the refund"
    );
}
