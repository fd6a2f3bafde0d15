//! Prepaid vouchers: issued online, redeemable offline, double-spend
//! detected at the next sync.
//!
//! The voucher is an HMAC-authenticated `(serial, quota, device)` triple.
//! A device can redeem it while offline (adding quota locally); because
//! serials are single-use *per the server's ledger*, redeeming a copied
//! voucher on two devices — or replaying it — surfaces as soon as either
//! device syncs.

use crate::MeterError;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use tinymlops_crypto::HmacKey;

/// A prepaid-quota voucher.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Voucher {
    /// Unique serial number.
    pub serial: u64,
    /// Number of prepaid queries this voucher grants.
    pub quota: u64,
    /// Device the voucher is bound to (0 = bearer voucher).
    pub device_id: u32,
    /// HMAC over serial ‖ quota ‖ device.
    pub mac: [u8; 32],
}

fn voucher_mac(key: &HmacKey, serial: u64, quota: u64, device_id: u32) -> [u8; 32] {
    let mut msg = [0u8; 8 + 8 + 4];
    msg[..8].copy_from_slice(&serial.to_le_bytes());
    msg[8..16].copy_from_slice(&quota.to_le_bytes());
    msg[16..].copy_from_slice(&device_id.to_le_bytes());
    key.mac(&msg)
}

/// Server-side voucher mint.
#[derive(Debug)]
pub struct VoucherIssuer {
    key: HmacKey,
    next_serial: u64,
}

impl VoucherIssuer {
    /// New issuer with a signing key.
    #[must_use]
    pub fn new(key: [u8; 32]) -> Self {
        VoucherIssuer {
            key: HmacKey::new(&key),
            next_serial: 1,
        }
    }

    /// Issue a voucher for `quota` queries bound to `device_id`.
    pub fn issue(&mut self, quota: u64, device_id: u32) -> Voucher {
        let serial = self.next_serial;
        self.next_serial += 1;
        Voucher {
            serial,
            quota,
            device_id,
            mac: voucher_mac(&self.key, serial, quota, device_id),
        }
    }

    /// Verify authenticity (not spend status) of a voucher.
    pub fn verify(&self, v: &Voucher) -> Result<(), MeterError> {
        let want = voucher_mac(&self.key, v.serial, v.quota, v.device_id);
        if tinymlops_crypto::ct_eq(&want, &v.mac) {
            Ok(())
        } else {
            Err(MeterError::BadVoucher("authentication failed"))
        }
    }
}

/// Server-side ledger of redeemed serials (double-spend detection).
#[derive(Debug, Default)]
pub struct VoucherLedger {
    redeemed: HashSet<u64>,
}

impl VoucherLedger {
    /// New empty ledger.
    #[must_use]
    pub fn new() -> Self {
        VoucherLedger::default()
    }

    /// Register a redemption reported at sync. Errors when the serial was
    /// already spent (cloned voucher / replay).
    pub fn register(&mut self, serial: u64) -> Result<(), MeterError> {
        if self.redeemed.insert(serial) {
            Ok(())
        } else {
            Err(MeterError::BadVoucher("double spend"))
        }
    }

    /// Number of serials spent so far.
    #[must_use]
    pub fn spent(&self) -> usize {
        self.redeemed.len()
    }
}

/// Device-side validation before redeeming: check binding and MAC (the
/// device holds the same key, derived per-device via HKDF in deployment).
pub fn validate_for_device(
    voucher: &Voucher,
    key: &[u8; 32],
    device_id: u32,
) -> Result<(), MeterError> {
    let want = voucher_mac(
        &HmacKey::new(key),
        voucher.serial,
        voucher.quota,
        voucher.device_id,
    );
    if !tinymlops_crypto::ct_eq(&want, &voucher.mac) {
        return Err(MeterError::BadVoucher("authentication failed"));
    }
    if voucher.device_id != 0 && voucher.device_id != device_id {
        return Err(MeterError::BadVoucher("bound to another device"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> [u8; 32] {
        [3u8; 32]
    }

    #[test]
    fn issue_verify_round_trip() {
        let mut issuer = VoucherIssuer::new(key());
        let v = issuer.issue(1000, 7);
        issuer.verify(&v).unwrap();
        validate_for_device(&v, &key(), 7).unwrap();
    }

    /// Voucher MACs are a wire format too: this one was minted by the
    /// commit before the key-schedule refactor.
    #[test]
    fn golden_voucher_mac_is_unchanged() {
        let v = VoucherIssuer::new(key()).issue(1000, 7);
        assert_eq!(v.serial, 1);
        assert_eq!(
            tinymlops_crypto::to_hex(&v.mac),
            "5cdd6605440cd9dd79ec2b7e9045c8af464bade2856a66214aefed555b0cb438"
        );
    }

    #[test]
    fn serials_are_unique_and_increasing() {
        let mut issuer = VoucherIssuer::new(key());
        let a = issuer.issue(10, 1);
        let b = issuer.issue(10, 1);
        assert!(b.serial > a.serial);
    }

    #[test]
    fn forged_quota_is_rejected() {
        let mut issuer = VoucherIssuer::new(key());
        let mut v = issuer.issue(10, 1);
        v.quota = 1_000_000; // user edits the voucher
        assert!(issuer.verify(&v).is_err());
        assert!(validate_for_device(&v, &key(), 1).is_err());
    }

    #[test]
    fn wrong_device_binding_rejected() {
        let mut issuer = VoucherIssuer::new(key());
        let v = issuer.issue(10, 1);
        assert!(validate_for_device(&v, &key(), 2).is_err());
    }

    #[test]
    fn bearer_voucher_works_on_any_device() {
        let mut issuer = VoucherIssuer::new(key());
        let v = issuer.issue(10, 0);
        validate_for_device(&v, &key(), 5).unwrap();
        validate_for_device(&v, &key(), 9).unwrap();
    }

    #[test]
    fn double_spend_detected_at_sync() {
        let mut ledger = VoucherLedger::new();
        ledger.register(42).unwrap();
        assert_eq!(
            ledger.register(42),
            Err(MeterError::BadVoucher("double spend"))
        );
        assert_eq!(ledger.spent(), 1);
    }
}
