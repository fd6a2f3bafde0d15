//! Concurrency stress tests for the wall-clock serving backend.
//!
//! The contract under test: `ServeFabric::run_live` in `ExecMode::Replay`
//! — one OS thread per node behind real bounded ingest queues — produces
//! a `FabricReport` **bit-identical** to the single-threaded simulator
//! (`ServeFabric::run`) for the same stream, across seeds, node counts,
//! batch policies, fleet churn, and refund-heavy overload. `ExecMode::
//! Wall` gives up bitwise determinism but must keep every conservation
//! law: arrivals = served + shed, refunds = downstream sheds, prepaid
//! quota neither burned nor minted.

use proptest::prelude::*;
use tinymlops_device::{default_mix, Fleet, NetworkKind};
use tinymlops_serve::testkit::{test_fabric as fabric, test_family as family};
use tinymlops_serve::{
    ExecConfig, ExecMode, FabricConfig, LoadPlan, ServeConfig, ServeFabric, TenantSpec,
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

/// Run the same stream through the simulator and the threaded backend on
/// fresh, identically-built fabrics, and demand bitwise equality.
fn assert_live_matches_sim(cfg: &FabricConfig, p: &LoadPlan, fleet_size: usize, queue_cap: usize) {
    let stream = p.generate();
    let mut sim_fabric = fabric(cfg, fleet_size, 5);
    sim_fabric.provision(p);
    let sim_report = sim_fabric.run(&stream).expect("sim replay");
    let mut live_fabric = fabric(cfg, fleet_size, 5);
    live_fabric.provision(p);
    let live = live_fabric
        .run_live(
            &stream,
            &ExecConfig {
                mode: ExecMode::Replay,
                queue_capacity: queue_cap,
            },
        )
        .expect("live replay");
    assert_eq!(
        live.fabric, sim_report,
        "threaded replay diverged from the simulator"
    );
    assert_eq!(live.requests, stream.len());
    assert!(live.wall_ms > 0.0);
    // The per-tenant quota state must match too, not just the report.
    assert_eq!(live_fabric.quota_census(), sim_fabric.quota_census());
}

#[test]
fn live_replay_matches_sim_at_scale_with_churn_and_refunds() {
    // Tight deadlines + periodic fleet churn: deadline and NoRoute sheds
    // exercise the refund path from worker threads.
    let cfg = FabricConfig {
        node_weights: vec![1.0, 2.0, 1.0],
        serve: ServeConfig {
            fleet_step_period_us: 150_000,
            ..Default::default()
        },
        ..Default::default()
    };
    let p = plan(41, 8_000.0, u64::MAX / 2, 12, 1_900);
    let stream = p.generate();
    let mut live_fabric = fabric(&cfg, 30, 5);
    live_fabric.provision(&p);
    let live = live_fabric
        .run_live(&stream, &ExecConfig::default())
        .expect("live");
    assert!(
        live.fabric.downstream_sheds() > 0,
        "stress workload must produce admitted-then-shed work"
    );
    assert_eq!(live.fabric.unrefunded_sheds(), 0);
    assert!(live.fabric.refunds_balance());
    assert_live_matches_sim(&cfg, &p, 30, 1024);
}

#[test]
fn live_replay_matches_sim_under_tiny_queues() {
    // Capacity 1 forces a queue handoff per request — maximum
    // backpressure, maximum interleaving of feeder and node threads.
    let cfg = FabricConfig::default();
    let p = plan(7, 2_000.0, 1_000_000, 8, 200_000);
    assert_live_matches_sim(&cfg, &p, 45, 1);
}

#[test]
fn live_replay_matches_sim_when_all_routes_are_down() {
    // Every admitted batch hits NoRoute: the refund path carries the
    // whole run, concurrently on every node thread.
    let cfg = FabricConfig::default();
    let mut fleets = Fleet::generate(30, &default_mix(), 2).partition(3);
    for fleet in &mut fleets {
        for d in &mut fleet.devices {
            d.state.network = NetworkKind::Offline;
        }
    }
    let build = || {
        let mut f = ServeFabric::new(&cfg, {
            let mut fs = Fleet::generate(30, &default_mix(), 2).partition(3);
            for fleet in &mut fs {
                for d in &mut fleet.devices {
                    d.state.network = NetworkKind::Offline;
                }
            }
            fs
        });
        f.install_family("kws", family("kws", 0));
        f.install_family("vision", family("vision", 100));
        f
    };
    drop(fleets);
    let p = plan(3, 500.0, 10_000, 6, 200_000);
    let stream = p.generate();
    let mut sim_fabric = build();
    sim_fabric.provision(&p);
    let sim_report = sim_fabric.run(&stream).unwrap();
    let mut live_fabric = build();
    live_fabric.provision(&p);
    let live = live_fabric
        .run_live(&stream, &ExecConfig::default())
        .unwrap();
    assert_eq!(live.fabric, sim_report);
    assert_eq!(live.fabric.fleet.served, 0);
    assert!(live.fabric.downstream_sheds() > 0);
    assert_eq!(live.fabric.unrefunded_sheds(), 0);
    for q in live_fabric.quota_census() {
        assert_eq!(q.balance, 10_000, "refunds restored tenant {}", q.tenant);
    }
}

#[test]
fn wall_mode_keeps_conservation_laws() {
    // Wall-clock outcomes are timing-dependent, but nothing may leak:
    // every arrival is served or shed, every downstream shed refunds,
    // and prepaid balances add up.
    let cfg = FabricConfig::default();
    let prepaid = 4_000u64;
    // Short plan (0.25 s simulated) so the paced feeder finishes fast.
    let p = LoadPlan {
        duration_us: 250_000,
        ..plan(11, 4_000.0, prepaid, 6, 50_000)
    };
    let stream = p.generate();
    let mut f = fabric(&cfg, 30, 5);
    f.provision(&p);
    let live = f
        .run_live(
            &stream,
            &ExecConfig {
                mode: ExecMode::Wall,
                queue_capacity: 256,
            },
        )
        .expect("wall run");
    let fleet = &live.fabric.fleet;
    assert_eq!(
        fleet.served + fleet.shed_total,
        stream.len() as u64,
        "every arrival is accounted for"
    );
    assert!(
        live.fabric.refunds_balance(),
        "refunds ({}) must match downstream sheds ({})",
        live.fabric.refunds,
        live.fabric.downstream_sheds()
    );
    assert_eq!(live.fabric.unrefunded_sheds(), 0);
    let census = f.quota_census();
    let spent: u64 = census.iter().map(|q| q.consumed - q.refunded).sum();
    let left: u64 = census.iter().map(|q| q.balance).sum();
    assert_eq!(
        spent + left,
        prepaid * 6,
        "prepaid quota neither burned nor minted"
    );
    // Wall time really elapsed: the feeder paces up to the *last
    // arrival's* timestamp (strictly below the nominal 250 ms plan
    // duration), so that — not the plan duration — is the hard floor.
    let last_arrival_ms = stream.last().expect("non-empty stream").arrival_us as f64 / 1e3;
    assert!(
        live.wall_ms >= last_arrival_ms,
        "paced run took {} ms, below the last arrival at {} ms",
        live.wall_ms,
        last_arrival_ms
    );
}

#[test]
fn errored_node_returns_instead_of_deadlocking_the_feeder() {
    // A fabric with no installed families makes every node worker exit
    // with `NoFamilies` *before* draining its queue. With a bounded
    // queue smaller than the stream, the feeder must not block forever
    // against the dead consumer — the run returns the error, exactly
    // like the simulated backend does for the identical input.
    let cfg = FabricConfig::default();
    let fleets = Fleet::generate(9, &default_mix(), 1).partition(3);
    let mut empty_fabric = ServeFabric::new(&cfg, fleets);
    let p = plan(5, 1_000.0, 1_000, 4, 200_000);
    empty_fabric.provision(&p);
    let stream = p.generate();
    assert!(stream.len() > 16, "stream must overflow the tiny queues");
    let result = empty_fabric.run_live(
        &stream,
        &ExecConfig {
            mode: ExecMode::Replay,
            queue_capacity: 4,
        },
    );
    assert!(
        matches!(result, Err(tinymlops_serve::ServeError::NoFamilies)),
        "live backend must surface the node error: {result:?}"
    );
}

#[test]
fn live_backend_is_reusable_across_runs() {
    // Back-to-back live runs on one fabric: balances carry over and the
    // second run still matches a sim replay of a twice-run fabric.
    let cfg = FabricConfig::default();
    let p = plan(17, 1_000.0, 50_000, 8, 200_000);
    let stream = p.generate();
    let mut live_fabric = fabric(&cfg, 30, 5);
    live_fabric.provision(&p);
    let mut sim_fabric = fabric(&cfg, 30, 5);
    sim_fabric.provision(&p);
    let first_live = live_fabric
        .run_live(&stream, &ExecConfig::default())
        .unwrap();
    let first_sim = sim_fabric.run(&stream).unwrap();
    assert_eq!(first_live.fabric, first_sim);
    let second_live = live_fabric
        .run_live(&stream, &ExecConfig::default())
        .unwrap();
    let second_sim = sim_fabric.run(&stream).unwrap();
    assert_eq!(second_live.fabric, second_sim);
}

proptest! {
    /// Randomized workloads: node count, rates, batch size, deadlines and
    /// queue capacity all vary; the threaded replay must stay bit-exact.
    #[test]
    fn live_replay_matches_sim_for_arbitrary_workloads(
        seed in 0u64..1000,
        nodes in 2usize..5,
        tenants in 2u32..10,
        rps in 500.0f64..3_000.0,
        max_batch in 1usize..12,
        deadline_us in proptest::sample::select(vec![1_500u64, 50_000, 250_000]),
        queue_capacity in proptest::sample::select(vec![1usize, 64, 4096]),
    ) {
        let cfg = FabricConfig {
            node_weights: vec![1.0; nodes],
            serve: ServeConfig {
                batch: tinymlops_serve::BatchPolicy {
                    max_batch,
                    max_delay_us: 2_000,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let p = plan(seed, rps, 100_000, tenants, deadline_us);
        assert_live_matches_sim(&cfg, &p, 8 * nodes, queue_capacity);
    }
}
