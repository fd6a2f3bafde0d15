//! Constraint-aware fleet routing.
//!
//! The router shards batches across the device fleet: for each device it
//! keeps the `deploy::select` choice of model variant (recomputed when
//! fleet state churns — battery, connectivity), and dispatches each batch
//! to the least-loaded healthy device that can run any feasible variant
//! of the requested family. §IV fragmentation shows up directly: an M0
//! node never receives f32 work, an offline node receives nothing.
//!
//! Plans are keyed by (family, brownout level): level `k` selects over
//! the family with its `k` largest variants removed
//! ([`crate::degrade_records`]), so a degraded node routes through the
//! same table and the same walk as a healthy one, at a different index.

use crate::cache::ModelCache;
use crate::fault::degrade_records;
use std::collections::BTreeMap;
use std::sync::Arc;
use tinymlops_deploy::{select_variant, Requirements, Selection};
use tinymlops_device::Fleet;
use tinymlops_registry::ModelRecord;

/// A routing decision for one batch.
#[derive(Debug, Clone)]
pub struct Route {
    /// Chosen device id.
    pub device: u32,
    /// Index into `fleet.devices`.
    pub device_index: usize,
    /// The variant selection that device will run — shared with the plan
    /// cache, so routing a batch costs one refcount bump instead of a deep
    /// copy of the record's name/tags/metrics.
    pub selection: Arc<Selection>,
}

/// One family's cached routing plan: the selected variant per device
/// index (`None` = no feasible variant on that device).
type FamilyPlan = Vec<Option<Arc<Selection>>>;

/// Least-loaded constraint-aware router over a [`Fleet`].
pub struct Router {
    /// The device population being served against.
    pub fleet: Fleet,
    requirements: Requirements,
    /// Cached per-device selections: family → brownout level → plan.
    /// Level `k`'s plan is selected over the family with its `k` most
    /// expensive variants removed ([`degrade_records`]); level 0 — the
    /// full family — is the plan everything outside a brownout routes on.
    /// A level is built on first use and dropped with every other by
    /// fleet churn.
    plans: BTreeMap<String, Vec<Option<FamilyPlan>>>,
    /// Device busy-until times (simulated microseconds).
    free_at_us: Vec<u64>,
    /// Batches dispatched per device (for the report's balance view).
    dispatched: Vec<u64>,
}

impl Router {
    /// New router. `requirements` are the serving-wide SLO constraints
    /// fed into variant selection.
    #[must_use]
    pub fn new(fleet: Fleet, requirements: Requirements) -> Self {
        let n = fleet.devices.len();
        Router {
            fleet,
            requirements,
            plans: BTreeMap::new(),
            free_at_us: vec![0; n],
            dispatched: vec![0; n],
        }
    }

    /// The serving requirements in force.
    #[must_use]
    pub fn requirements(&self) -> &Requirements {
        &self.requirements
    }

    /// Recompute per-device selections for `family` (call after
    /// `fleet.step()` or when a new family version lands).
    pub fn refresh_family(&mut self, family: &str, records: &[ModelRecord]) {
        self.refresh_at(family, 0, records);
    }

    /// Recompute `family`'s plan at brownout `level` from its full record
    /// set.
    pub(crate) fn refresh_at(&mut self, family: &str, level: usize, records: &[ModelRecord]) {
        let records = degrade_records(records, level);
        let req = &self.requirements;
        // Sequential: a node's few dozen selections cost less than waking
        // the worker pool for them.
        let plan = self
            .fleet
            .devices
            .iter()
            .map(|device| select_variant(&records, device, req).ok().map(Arc::new))
            .collect();
        let levels = self.plans.entry(family.to_string()).or_default();
        if levels.len() <= level {
            levels.resize(level + 1, None);
        }
        levels[level] = Some(plan);
    }

    /// Drop all cached plans (fleet state churned).
    pub fn invalidate_plans(&mut self) {
        self.plans.clear();
    }

    /// Whether a plan exists for `family`.
    #[must_use]
    pub fn has_plan(&self, family: &str) -> bool {
        self.plan_at(family, 0).is_some()
    }

    /// `family`'s plan at brownout `level`, if built.
    pub(crate) fn plan_at(&self, family: &str, level: usize) -> Option<&[Option<Arc<Selection>>]> {
        self.plans.get(family)?.get(level)?.as_deref()
    }

    /// Advance fleet dynamics one step and invalidate cached plans.
    pub fn step_fleet(&mut self) {
        self.fleet.step();
        self.invalidate_plans();
    }

    /// Route a batch of `family` work at `now_us`: the feasible, healthy
    /// device whose queue frees earliest (ties → lowest device id, so
    /// routing is deterministic). Returns `None` when no device fits.
    pub fn route(&self, family: &str, now_us: u64) -> Option<Route> {
        self.route_at(family, 0, now_us, None)
    }

    /// Affinity-aware routing: like [`Router::route`], but a device whose
    /// selected variant is *not* resident in this node's [`ModelCache`] is
    /// charged the artifact-load time it would actually cost
    /// (`size_bytes / load_bytes_per_ms`). The dispatcher then prefers a
    /// slightly-busier device that can start on a cache hit over an idle
    /// one that would trigger an eviction-reload cycle — which is exactly
    /// the LRU churn E15c exposed when device classes disagree on the
    /// variant to run under a small byte budget.
    pub fn route_affine(
        &self,
        family: &str,
        now_us: u64,
        cache: &ModelCache,
        load_bytes_per_ms: u64,
    ) -> Option<Route> {
        self.route_at(family, 0, now_us, Some((cache, load_bytes_per_ms)))
    }

    /// Route against `family`'s plan at brownout `level`: minimize the
    /// estimated start time — when the device's queue frees, plus, with
    /// `affinity` (the node's cache and its load bandwidth), the
    /// artifact-load time of a selected variant that is not resident
    /// ([`Router::route_affine`]'s policy; without it, [`Router::route`]'s
    /// pure least-loaded one). Ties → lowest index.
    pub(crate) fn route_at(
        &self,
        family: &str,
        level: usize,
        now_us: u64,
        affinity: Option<(&ModelCache, u64)>,
    ) -> Option<Route> {
        let plan = self.plan_at(family, level)?;
        let mut best: Option<(u64, usize)> = None;
        for (idx, (device, selection)) in self.fleet.devices.iter().zip(plan.iter()).enumerate() {
            let Some(selection) = selection else {
                continue;
            };
            // Health gates: reachable, and not about to die unplugged.
            if !device.online() {
                continue;
            }
            if device.state.battery.is_low() && !device.state.battery.plugged {
                continue;
            }
            let penalty_us = match affinity {
                Some((cache, load_bytes_per_ms)) if !cache.contains(selection.record.id) => {
                    let ms = selection.record.size_bytes as f64 / load_bytes_per_ms.max(1) as f64;
                    (ms * 1000.0) as u64
                }
                _ => 0,
            };
            let score = self.free_at_us[idx].max(now_us) + penalty_us;
            if best.is_none_or(|(t, _)| score < t) {
                best = Some((score, idx));
            }
        }
        let (_, idx) = best?;
        let selection = Arc::clone(plan[idx].as_ref().expect("feasible by filter"));
        Some(Route {
            device: self.fleet.devices[idx].id,
            device_index: idx,
            selection,
        })
    }

    /// Mark a device busy until `done_us` (called by the dispatcher).
    pub fn occupy(&mut self, device_index: usize, done_us: u64) {
        self.free_at_us[device_index] = done_us;
        self.dispatched[device_index] += 1;
    }

    /// When the device's queue frees (≥ `now_us` after `max`).
    #[must_use]
    pub fn free_at(&self, device_index: usize, now_us: u64) -> u64 {
        self.free_at_us[device_index].max(now_us)
    }

    /// Count of devices that received at least one batch.
    #[must_use]
    pub fn devices_used(&self) -> usize {
        self.dispatched.iter().filter(|&&n| n > 0).count()
    }

    /// Batches dispatched per device id (deterministic order).
    #[must_use]
    pub fn dispatch_census(&self) -> Vec<(u32, u64)> {
        self.fleet
            .devices
            .iter()
            .map(|d| d.id)
            .zip(self.dispatched.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tinymlops_device::default_mix;
    use tinymlops_registry::{ModelFormat, ModelId, SemVer};

    fn family() -> Vec<ModelRecord> {
        let mut records = Vec::new();
        for (id, format, size, acc) in [
            (0u64, ModelFormat::F32, 40_000u64, 0.96),
            (1, ModelFormat::Quantized { bits: 8 }, 10_000, 0.95),
            (2, ModelFormat::Quantized { bits: 2 }, 2_500, 0.88),
        ] {
            let mut metrics = BTreeMap::new();
            metrics.insert("accuracy".into(), acc);
            records.push(ModelRecord {
                id: ModelId(id),
                name: "m".into(),
                version: SemVer::new(1, 0, 0),
                format,
                parent: None,
                artifact: [0; 32],
                size_bytes: size,
                macs: 1_000_000,
                metrics,
                tags: vec![],
                created_ms: 0,
            });
        }
        records
    }

    fn requirements() -> Requirements {
        Requirements {
            max_latency_ms: 1e9,
            max_download_ms: f64::INFINITY,
            min_accuracy: 0.0,
            max_energy_mj: f64::INFINITY,
        }
    }

    #[test]
    fn routes_prefer_idle_devices() {
        let fleet = Fleet::generate(30, &default_mix(), 3);
        let mut router = Router::new(fleet, requirements());
        router.refresh_family("m", &family());
        let first = router.route("m", 0).expect("some device fits");
        router.occupy(first.device_index, 10_000);
        let second = router.route("m", 0).expect("another device fits");
        assert_ne!(
            first.device_index, second.device_index,
            "busy device is deprioritized"
        );
    }

    #[test]
    fn affinity_routing_prefers_resident_variant_over_idle_miss() {
        let fleet = Fleet::generate(30, &default_mix(), 3);
        let mut router = Router::new(fleet, requirements());
        router.refresh_family("m", &family());
        // Dispatch once least-loaded to learn a concrete (device, variant).
        let first = router.route("m", 0).expect("some device fits");
        let resident_id = first.selection.record.id;
        let mut cache = ModelCache::new(1 << 20);
        cache.admit(first.selection.record.clone());
        // Busy the warm device by less than the smallest possible miss
        // penalty (the 2 500-byte int2 variant loads in 1 250 µs): affinity
        // routing must still land on a resident variant, while least-loaded
        // routing walks to whatever idle device is cheapest by queue alone.
        let load_bytes_per_ms = 2_000;
        router.occupy(first.device_index, 600);
        let affine = router
            .route_affine("m", 0, &cache, load_bytes_per_ms)
            .expect("route exists");
        assert_eq!(
            affine.selection.record.id, resident_id,
            "affinity routes onto the resident variant"
        );
        // Once the warm device's backlog dwarfs any artifact-load cost,
        // load wins again: affinity is a bounded preference, not pinning.
        router.occupy(first.device_index, 10_000_000);
        let rebalanced = router
            .route_affine("m", 0, &cache, load_bytes_per_ms)
            .expect("route exists");
        assert_ne!(
            rebalanced.device_index, first.device_index,
            "overloaded warm device is abandoned"
        );
    }

    #[test]
    fn unknown_family_has_no_route() {
        let fleet = Fleet::generate(10, &default_mix(), 3);
        let router = Router::new(fleet, requirements());
        assert!(router.route("ghost", 0).is_none());
    }

    #[test]
    fn offline_and_critical_devices_are_skipped() {
        let mut fleet = Fleet::generate(20, &default_mix(), 1);
        for d in &mut fleet.devices {
            d.state.network = tinymlops_device::NetworkKind::Offline;
        }
        let mut router = Router::new(fleet, requirements());
        router.refresh_family("m", &family());
        assert!(router.route("m", 0).is_none(), "whole fleet offline");
    }

    #[test]
    fn step_fleet_invalidates_plans() {
        let fleet = Fleet::generate(10, &default_mix(), 3);
        let mut router = Router::new(fleet, requirements());
        router.refresh_family("m", &family());
        assert!(router.has_plan("m"));
        router.step_fleet();
        assert!(!router.has_plan("m"));
    }

    #[test]
    fn degraded_plans_route_cheaper_variants() {
        let fleet = Fleet::generate(20, &default_mix(), 3);
        let mut router = Router::new(fleet, requirements());
        let records = family();
        router.refresh_family("m", &records);
        // Level 1 drops the fat f32 record: no level-1 route may select it.
        router.refresh_at("m", 1, &records);
        assert!(router.plan_at("m", 1).is_some());
        assert!(router.plan_at("m", 2).is_none());
        let degraded = router.route_at("m", 1, 0, None).expect("route exists");
        assert_ne!(degraded.selection.record.format, ModelFormat::F32);
        assert!(
            degraded.selection.record.size_bytes <= 10_000,
            "level 1 serves a quantized variant"
        );
        // Level 0 is untouched by degraded refreshes.
        assert!(router.has_plan("m"));
        router.step_fleet();
        assert!(router.plan_at("m", 1).is_none(), "churn invalidates levels");
    }
}
