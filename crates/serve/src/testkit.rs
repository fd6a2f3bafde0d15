//! Scenario-test harness: the replay-parity and conservation assertions
//! every fabric experiment repeats, extracted once.
//!
//! Before this module, `e17_live_serving`, `e18_migration` and
//! `e20_faults` each carried its own copy of the same ritual: build two
//! identical fabrics, run the same workload through the simulator and
//! the threaded backend under [`crate::ExecMode::Replay`], and assert
//! the reports (and migration records, and quota censuses) are
//! bit-identical. [`assert_sim_live_parity`] is that ritual as one
//! call; [`assert_conservation`] is the matching bundle of conservation
//! laws (served + shed = arrivals, refunds balance, quota census exact).
//! The controller property tests and `e21_autoscale` drive both.
//! [`report_digest`] folds a finished run into one number, for golden tests
//! that pin behaviour across a refactor.
//!
//! Everything here assumes the test-grade meter keys
//! [`crate::ServeFabric::provision`] installs (serial = tenant id, key =
//! tenant id in the first four bytes — see [`test_meter_key`]).
//! Platform-level experiments with real vouchers keep their own keys.

use crate::exec::ExecConfig;
use crate::fabric::{FabricConfig, FabricReport, MigrationSpec, ServeFabric};
use crate::request::{Request, TenantId};
use std::collections::BTreeMap;
use tinymlops_device::{default_mix, Fleet};
use tinymlops_registry::{ModelFormat, ModelId, ModelRecord, SemVer};

/// The test meter-key scheme [`crate::ServeFabric::provision`] uses:
/// the tenant id in the first four bytes, zero elsewhere.
#[must_use]
pub fn test_meter_key(tenant: TenantId) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..4].copy_from_slice(&tenant.to_le_bytes());
    key
}

/// A three-variant model family (f32 / int8 / int2) with the standard
/// test sizes — the catalog shape every fabric test installs.
#[must_use]
pub fn test_family(name: &str, base_id: u64) -> Vec<ModelRecord> {
    let mut records = Vec::new();
    for (i, (format, size, acc)) in [
        (ModelFormat::F32, 40_000u64, 0.96),
        (ModelFormat::Quantized { bits: 8 }, 10_000, 0.95),
        (ModelFormat::Quantized { bits: 2 }, 2_500, 0.88),
    ]
    .into_iter()
    .enumerate()
    {
        let mut metrics = BTreeMap::new();
        metrics.insert("accuracy".into(), acc);
        records.push(ModelRecord {
            id: ModelId(base_id + i as u64),
            name: name.into(),
            version: SemVer::new(1, 0, 0),
            format,
            parent: None,
            artifact: [0; 32],
            size_bytes: size,
            macs: 100_000,
            metrics,
            tags: vec![],
            created_ms: 0,
        });
    }
    records
}

/// A fabric over a generated device fleet with the standard `kws` +
/// `vision` test catalog installed. The fleet is partitioned across
/// active *and* standby nodes, matching [`crate::ServeFabric::new`]'s
/// contract.
#[must_use]
pub fn test_fabric(cfg: &FabricConfig, fleet_size: usize, seed: u64) -> ServeFabric {
    let partitions = cfg.node_weights.len() + cfg.controller.standby_weights.len();
    let fleets = Fleet::generate(fleet_size, &default_mix(), seed).partition(partitions);
    let mut f = ServeFabric::new(cfg, fleets);
    f.install_family("kws", test_family("kws", 0));
    f.install_family("vision", test_family("vision", 100));
    f
}

/// What a parity run produced (the two backends agreed on all of it).
pub struct ParityOutcome {
    /// The fleet report both backends produced, bit-identically —
    /// migration records (scheduled specs *and* controller-initiated
    /// moves) and control log included.
    pub report: FabricReport,
    /// The simulator-side fabric after the run (topology, censuses).
    pub sim: ServeFabric,
    /// The live-side fabric after the run.
    pub live: ServeFabric,
}

/// The replay-parity ritual, extracted: build two identical fabrics via
/// `build` (which must provision tenants itself), schedule `specs` on
/// both, run `stream` through the simulator and through the threaded
/// backend in [`crate::ExecMode::Replay`], and assert that reports
/// (migration records included) and quota censuses are bit-identical and
/// that no node worker died. Panics (test-style) on any divergence;
/// returns the agreed outcome for further scenario-specific assertions.
pub fn assert_sim_live_parity(
    mut build: impl FnMut() -> ServeFabric,
    stream: &[Request],
    specs: &[MigrationSpec],
) -> ParityOutcome {
    let mut sim = build();
    sim.schedule_migrations(specs).expect("specs valid (sim)");
    let sim_report = sim.run(stream).expect("sim replay run");
    let mut live = build();
    live.schedule_migrations(specs).expect("specs valid (live)");
    let live_report = live
        .run_live(stream, &ExecConfig::default())
        .expect("live replay run");
    assert!(
        live_report.failures.is_empty(),
        "no node worker may die in a parity run: {:?}",
        live_report.failures
    );
    assert_eq!(
        live_report.fabric, sim_report,
        "threaded replay must be bit-identical to the simulator"
    );
    assert_eq!(
        live.quota_census(),
        sim.quota_census(),
        "quota censuses must agree after the run"
    );
    ParityOutcome {
        report: sim_report,
        sim,
        live,
    }
}

/// Assert every fleet-level conservation law on a finished fabric:
/// every arrival served or shed, refunds exactly matching downstream
/// sheds (none burned, none minted), the quota census summing back to
/// the prepaid total, and every audit chain verifying under the
/// test-grade keys.
pub fn assert_conservation(
    fabric: &ServeFabric,
    report: &FabricReport,
    arrivals: u64,
    prepaid_total: u64,
) {
    assert_eq!(
        report.fleet.served + report.fleet.shed_total,
        arrivals,
        "every arrival is served or shed"
    );
    assert_eq!(report.unrefunded_sheds(), 0, "no prepaid query burned");
    assert!(
        report.refunds_balance(),
        "refunds ({}) must equal downstream sheds ({})",
        report.refunds,
        report.downstream_sheds()
    );
    let census = fabric.quota_census();
    let spent: u64 = census.iter().map(|q| q.consumed - q.refunded).sum();
    let left: u64 = census.iter().map(|q| q.balance).sum();
    assert_eq!(
        spent + left,
        prepaid_total,
        "prepaid quota neither burned nor minted"
    );
    let checked = fabric
        .verify_chains(test_meter_key)
        .expect("every audit chain verifies");
    assert_eq!(
        checked,
        census.len(),
        "every censused tenant's chain was checked"
    );
}

/// FNV-1a over the `Debug` rendering of what a finished run decided: the
/// fleet and per-node reports, refunds, control log, migration records,
/// quota census and every tenant's audit-chain head. Wall time and
/// telemetry stay out, so two runs digest equal iff they served, shed,
/// billed and moved exactly the same things.
#[must_use]
pub fn report_digest(fabric: &ServeFabric, report: &FabricReport) -> u64 {
    let mut heads: Vec<(TenantId, [u8; 32])> = fabric
        .nodes()
        .iter()
        .flat_map(|n| n.plane.gateway.accounts())
        .map(|(tenant, account)| (tenant, account.quota.log().head()))
        .collect();
    heads.sort_unstable();
    let rendered = format!(
        "{:?}",
        (
            &report.fleet,
            &report.per_node,
            report.refunds,
            &report.control,
            &report.migrations,
            fabric.quota_census(),
            heads,
        )
    );
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
