//! Property tests for the live-migration drain/handoff protocol and
//! bounded-load tenant placement.
//!
//! The migration contract: moving a tenant between fabric nodes *while
//! requests are in flight* must (a) be bit-identical between the
//! simulator (`ServeFabric::run`) and the threaded backend (`run_live`)
//! in `ExecMode::Replay` over one `schedule_migrations` — reports, records and
//! per-tenant quota state; (b) conserve every prepaid query exactly
//! (spliced work is never dropped or double-billed, every downstream
//! shed refunds); and (c) keep every audit chain — now carrying
//! `EntryKind::Handoff` entries — verifiable. The bounded-load contract:
//! no node's tenant count ever exceeds `load_factor ×` its fair share,
//! and join/leave still move only who they must.

use proptest::prelude::*;
use tinymlops_serve::testkit::{test_fabric as fabric, test_family as family};
use tinymlops_serve::{
    ExecConfig, ExecMode, FabricConfig, LoadPlan, MigrationPhase, MigrationSpec, ServeConfig,
    ServeFabric, TenantSpec,
};

fn plan(seed: u64, rps: f64, prepaid: u64, tenants: u32, deadline_us: u64) -> LoadPlan {
    LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / f64::from(tenants),
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: prepaid,
                deadline_us,
            })
            .collect(),
        duration_us: 1_000_000,
        seed,
        feature_dim: 0,
    }
}

/// Run the same (stream, specs) through both backends on fresh fabrics
/// and demand bitwise equality plus exact conservation.
fn assert_migrating_parity_and_conservation(
    cfg: &FabricConfig,
    p: &LoadPlan,
    specs: &[MigrationSpec],
    fleet_size: usize,
    queue_capacity: usize,
) -> Result<(), TestCaseError> {
    let stream = p.generate();
    let prepaid_total: u64 = p.tenants.iter().map(|t| t.prepaid_queries).sum();

    let mut sim = fabric(cfg, fleet_size, 5);
    sim.provision(p);
    sim.schedule_migrations(specs).expect("specs valid");
    let sim_report = sim.run(&stream).expect("sim run");
    let sim_records = &sim_report.migrations;

    let mut live = fabric(cfg, fleet_size, 5);
    live.provision(p);
    live.schedule_migrations(specs).expect("specs valid");
    let live_report = live
        .run_live(
            &stream,
            &ExecConfig {
                mode: ExecMode::Replay,
                queue_capacity,
            },
        )
        .expect("live run");
    let live_records = &live_report.fabric.migrations;

    prop_assert_eq!(&live_report.fabric, &sim_report);
    prop_assert_eq!(live_records, sim_records);
    prop_assert_eq!(live.quota_census(), sim.quota_census());

    // Every migration completed its state machine.
    prop_assert_eq!(sim_records.len(), specs.len());
    for record in sim_records {
        prop_assert_eq!(record.phase, MigrationPhase::Resumed);
        prop_assert_eq!(record.queue_spliced, 0usize, "replay never queue-splices");
    }
    // Conservation: every arrival accounted, every downstream shed
    // refunded, prepaid quota neither burned nor minted, chains (with
    // their handoff entries) verifiable under the provisioning keys.
    prop_assert_eq!(
        sim_report.fleet.served + sim_report.fleet.shed_total,
        stream.len() as u64
    );
    prop_assert_eq!(sim_report.unrefunded_sheds(), 0);
    prop_assert!(sim_report.refunds_balance());
    let census = sim.quota_census();
    prop_assert_eq!(census.len(), p.tenants.len(), "no tenant lost in a move");
    let spent: u64 = census.iter().map(|q| q.consumed - q.refunded).sum();
    let left: u64 = census.iter().map(|q| q.balance).sum();
    prop_assert_eq!(spent + left, prepaid_total);
    let checked = sim
        .verify_chains(|t| {
            let mut key = [0u8; 32];
            key[..4].copy_from_slice(&t.to_le_bytes());
            key
        })
        .expect("all chains verify across handoffs");
    prop_assert_eq!(checked, p.tenants.len());
    // Migrated tenants actually live on their final destinations.
    for record in sim_records {
        if record.from != record.to {
            let last_for_tenant = sim_records
                .iter()
                .rev()
                .find(|r| r.tenant == record.tenant)
                .expect("record exists");
            prop_assert_eq!(sim.home_node(record.tenant), Some(last_for_tenant.to));
        }
    }
    Ok(())
}

proptest! {
    /// Random migration points under refund-heavy overload: tight
    /// deadlines make NoRoute/deadline sheds (and thus refunds) routine,
    /// and the migration trigger lands anywhere in (or past) the stream.
    #[test]
    fn random_migration_points_under_overload(
        seed in 0u64..500,
        trigger_us in 0u64..1_400_000,
        tenant in 1u32..9,
        to in 0u32..3,
        deadline_us in proptest::sample::select(vec![1_500u64, 40_000, 250_000]),
    ) {
        let cfg = FabricConfig::default();
        let p = plan(seed, 3_000.0, 1_000_000_000, 8, deadline_us);
        let specs = [MigrationSpec { tenant, to, trigger_us }];
        assert_migrating_parity_and_conservation(&cfg, &p, &specs, 24, 256)?;
    }

    /// Queue capacity 1: every ingest entry — arrivals *and* the
    /// drain/adopt control entries — forces a full handoff between the
    /// feeder and the node threads, maximizing interleavings.
    #[test]
    fn migration_survives_capacity_one_queues(
        seed in 0u64..200,
        trigger_us in 100_000u64..900_000,
        tenant in 1u32..7,
        to in 0u32..3,
    ) {
        let cfg = FabricConfig::default();
        let p = plan(seed, 2_000.0, 100_000, 6, 50_000);
        let specs = [MigrationSpec { tenant, to, trigger_us }];
        assert_migrating_parity_and_conservation(&cfg, &p, &specs, 18, 1)?;
    }

    /// Repeated migrations of the same tenant (including ping-pong back
    /// to the original home and no-op moves to the current home): the
    /// account hops across live threads multiple times in one run, and
    /// every hop appends a verifiable handoff entry.
    #[test]
    fn repeated_migrations_of_one_tenant(
        seed in 0u64..200,
        tenant in 1u32..7,
        hops in proptest::collection::vec((0u32..3, 1u64..10), 2..5),
    ) {
        let cfg = FabricConfig::default();
        let p = plan(seed, 2_500.0, 1_000_000_000, 6, 40_000);
        // Spread the hops across the stream in order.
        let step = 1_000_000 / (hops.len() as u64 + 1);
        let specs: Vec<MigrationSpec> = hops
            .iter()
            .enumerate()
            .map(|(i, (to, jitter))| MigrationSpec {
                tenant,
                to: *to,
                trigger_us: step * (i as u64 + 1) + jitter,
            })
            .collect();
        assert_migrating_parity_and_conservation(&cfg, &p, &specs, 18, 64)?;
    }

    /// Several tenants migrating at several points in one run, under
    /// fleet churn (periodic device battery/connectivity steps), with
    /// wall-mode conservation checked on the same workload.
    #[test]
    fn concurrent_migrations_with_fleet_churn(
        seed in 0u64..100,
        moves in proptest::collection::vec((1u32..9, 0u32..3, 0u64..1_100_000), 1..4),
    ) {
        let cfg = FabricConfig {
            serve: ServeConfig {
                fleet_step_period_us: 150_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let p = plan(seed, 3_000.0, 1_000_000_000, 8, 30_000);
        let specs: Vec<MigrationSpec> = moves
            .iter()
            .map(|(tenant, to, trigger_us)| MigrationSpec {
                tenant: *tenant,
                to: *to,
                trigger_us: *trigger_us,
            })
            .collect();
        assert_migrating_parity_and_conservation(&cfg, &p, &specs, 24, 128)?;
    }

    /// Bounded-load placement: for any topology, weights, affinity and
    /// population, no node ever exceeds `load_factor ×` its fair share —
    /// at registration time and across join/leave rebalances — and with
    /// the bound disabled, join still moves tenants only onto the joiner
    /// (classic rendezvous minimal movement through the fabric path).
    #[test]
    fn bounded_load_caps_hold_across_churn(
        nodes in 2usize..6,
        affinity in 0.0f64..1.0,
        load_factor in proptest::sample::select(vec![1.0f64, 1.1, 1.25, 2.0, f64::INFINITY]),
        tenants in 4u32..48,
        join_weight in 0.5f64..2.0,
    ) {
        let cfg = FabricConfig {
            node_weights: vec![1.0; nodes],
            tenant_affinity: affinity,
            load_factor,
            serve: ServeConfig::default(),
            ..FabricConfig::default()
        };
        let fleets = tinymlops_device::Fleet::generate(6 * nodes, &tinymlops_device::default_mix(), 3)
            .partition(nodes);
        let mut f = ServeFabric::new(&cfg, fleets);
        f.install_family("kws", family("kws", 0));
        f.install_family("vision", family("vision", 100));
        let family_of = |t: u32| if t.is_multiple_of(3) { "kws" } else { "vision" };
        for t in 1..=tenants {
            f.register_tenant(t, family_of(t), [0u8; 32]);
        }
        let check_caps = |f: &ServeFabric, total: usize, label: &str| -> Result<(), TestCaseError> {
            let caps = f.shard_router.bounded_caps(total, load_factor);
            for (node, load) in f.tenant_loads() {
                let cap = caps
                    .iter()
                    .find(|(n, _)| *n == node)
                    .map(|(_, c)| *c)
                    .unwrap_or(usize::MAX);
                prop_assert!(
                    load <= cap,
                    "{}: node {} holds {} > cap {}", label, node, load, cap
                );
            }
            prop_assert_eq!(
                f.tenant_loads().iter().map(|(_, l)| *l).sum::<usize>(),
                total,
                "every tenant has exactly one home ({})", label
            );
            Ok(())
        };
        check_caps(&f, tenants as usize, "after registration")?;

        let homes_before: Vec<(u32, _)> =
            (1..=tenants).map(|t| (t, f.home_node(t).unwrap())).collect();
        let extra = tinymlops_device::Fleet::generate(6, &tinymlops_device::default_mix(), 9);
        let (new_id, moved) = f.add_node(join_weight, extra);
        check_caps(&f, tenants as usize, "after join")?;
        if load_factor.is_infinite() {
            for (t, old) in &homes_before {
                let new = f.home_node(*t).unwrap();
                if new != *old {
                    prop_assert_eq!(new, new_id, "unbounded movers only land on the joiner");
                }
            }
        }
        prop_assert!(moved <= tenants as usize);

        let moved_back = f.remove_node(new_id).expect("node exists");
        check_caps(&f, tenants as usize, "after leave")?;
        prop_assert!(moved_back <= tenants as usize);
    }
}
