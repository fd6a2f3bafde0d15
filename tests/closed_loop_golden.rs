//! Closed-loop determinism, pinned at tier 1 (mirror of the retrying
//! case in `crates/serve/tests/closedloop_golden.rs`, whose constants
//! were generated before the client pool replaced the driver's B-tree
//! bookkeeping): twelve clients collide on a two-deep per-tenant pending
//! cap, so the run exercises issue order, think gaps, retry scheduling,
//! budget denial and the completion → client routing in 401 deliveries.

use tinymlops::serve::testkit::test_fabric;
use tinymlops::serve::{
    ClientPlan, ClientSpec, FabricConfig, GatewayConfig, LoadPlan, RetryPolicy, TenantSpec,
};

fn tenants() -> Vec<TenantSpec> {
    (1..=4u32)
        .map(|id| TenantSpec {
            id,
            rate_rps: 0.0,
            model: if id % 2 == 0 { "kws" } else { "vision" }.into(),
            prepaid_queries: 50_000,
            deadline_us: 40_000,
        })
        .collect()
}

/// FNV-1a over little-endian words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn closed_loop_trace_and_stats_are_pinned() {
    let mut cfg = FabricConfig {
        node_weights: vec![1.0, 1.0, 1.0],
        ..FabricConfig::default()
    };
    cfg.serve.gateway = GatewayConfig {
        max_pending_per_tenant: 2,
        max_total_pending: 1024,
    };
    let mut fabric = test_fabric(&cfg, 24, 11);
    fabric.provision(&LoadPlan {
        tenants: tenants(),
        duration_us: 0,
        seed: 0,
        feature_dim: 0,
    });
    let plan = ClientPlan {
        clients: tenants()
            .into_iter()
            .flat_map(|t| {
                (0..3).map(move |_| ClientSpec {
                    tenant: t.id,
                    model: t.model.clone(),
                    think_mean_us: 3_000.0,
                    deadline_us: t.deadline_us,
                })
            })
            .collect(),
        duration_us: 300_000,
        seed: 5,
        feature_dim: 0,
        retry: RetryPolicy::default(),
    };
    let run = fabric.run_closed_loop(&plan).expect("closed loop runs");
    let trace = fnv(run
        .trace
        .iter()
        .flat_map(|q| [q.id, u64::from(q.tenant), q.arrival_us, q.deadline_us]));
    assert_eq!((run.trace.len(), trace), (401, 0xb9b2_b246_c267_70c9));
    let c = &run.clients;
    assert_eq!(
        [
            c.issued,
            c.retries,
            c.served,
            c.goodput,
            c.shed_final,
            c.lost
        ],
        [329, 72, 88, 63, 241, 0]
    );
    assert_eq!(
        [
            c.retry.scheduled,
            c.retry.succeeded,
            c.retry.attempts_exhausted,
            c.retry.deadline_denied,
            c.retry.budget_denied
        ],
        [72, 8, 16, 0, 225]
    );
    assert_eq!([c.latency_us(50.0), c.latency_us(99.0)], [4_200, 107_200]);
    assert_eq!(
        [run.fabric.fleet.served, run.fabric.fleet.shed_total],
        [88, 313]
    );
}
