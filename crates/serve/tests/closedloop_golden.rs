//! Golden closed-loop digests, generated on the commit *before* the
//! client pool replaced the driver's B-tree bookkeeping (PR 13): the
//! same plan must still produce the same deliveries, in the same order,
//! with the same outcomes. No retired twin of the old driver is kept in
//! library code — these constants are the oracle.

use tinymlops_serve::testkit::test_fabric;
use tinymlops_serve::{
    ClientPlan, ClientSpec, ClosedLoopReport, FabricConfig, GatewayConfig, LoadPlan, RetryPolicy,
    ServeFabric, TenantSpec,
};

fn tenants() -> Vec<TenantSpec> {
    (1..=4u32)
        .map(|id| TenantSpec {
            id,
            rate_rps: 0.0, // rate is the clients' business here
            model: if id % 2 == 0 { "kws" } else { "vision" }.into(),
            prepaid_queries: 50_000,
            deadline_us: 40_000,
        })
        .collect()
}

/// Three nodes over 24 devices, four tenants; `tight` caps every tenant
/// at two pending requests, so its three clients collide and retry.
fn provisioned_fabric(tight: bool) -> ServeFabric {
    let mut cfg = FabricConfig {
        node_weights: vec![1.0, 1.0, 1.0],
        ..FabricConfig::default()
    };
    if tight {
        cfg.serve.gateway = GatewayConfig {
            max_pending_per_tenant: 2,
            max_total_pending: 1024,
        };
    }
    let mut fabric = test_fabric(&cfg, 24, 11);
    fabric.provision(&LoadPlan {
        tenants: tenants(),
        duration_us: 0,
        seed: 0,
        feature_dim: 0,
    });
    fabric
}

/// Three clients per tenant over a 300 ms issue window.
fn plan(seed: u64, feature_dim: usize, think_mean_us: f64) -> ClientPlan {
    ClientPlan {
        clients: tenants()
            .into_iter()
            .flat_map(|t| {
                (0..3).map(move |_| ClientSpec {
                    tenant: t.id,
                    model: t.model.clone(),
                    think_mean_us,
                    deadline_us: t.deadline_us,
                })
            })
            .collect(),
        duration_us: 300_000,
        seed,
        feature_dim,
        retry: RetryPolicy::default(),
    }
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

/// What one run is pinned by.
#[derive(Debug, PartialEq)]
struct Digest {
    deliveries: usize,
    /// Hash of (id, tenant, arrival, deadline, feature bits) over the trace.
    trace: u64,
    /// issued, retries, served, goodput, shed_final, lost.
    clients: [u64; 6],
    /// scheduled, succeeded, attempts_exhausted, deadline_denied, budget_denied.
    retry: [u64; 5],
    /// Client-perceived p50 / p99 / max latency, µs.
    latency_us: [u64; 3],
    /// Fleet served / shed.
    fleet: [u64; 2],
}

fn digest(r: &ClosedLoopReport) -> Digest {
    let c = &r.clients;
    Digest {
        deliveries: r.trace.len(),
        trace: fnv(r.trace.iter().flat_map(|q| {
            [q.id, u64::from(q.tenant), q.arrival_us, q.deadline_us]
                .into_iter()
                .chain(q.features.iter().flatten().map(|f| u64::from(f.to_bits())))
                .collect::<Vec<_>>()
        })),
        clients: [
            c.issued,
            c.retries,
            c.served,
            c.goodput,
            c.shed_final,
            c.lost,
        ],
        retry: [
            c.retry.scheduled,
            c.retry.succeeded,
            c.retry.attempts_exhausted,
            c.retry.deadline_denied,
            c.retry.budget_denied,
        ],
        latency_us: [c.latency_us(50.0), c.latency_us(99.0), c.latency_us(100.0)],
        fleet: [r.fabric.fleet.served, r.fabric.fleet.shed_total],
    }
}

#[test]
fn retrying_population_matches_the_parent_commit() {
    let run = provisioned_fabric(true)
        .run_closed_loop(&plan(5, 0, 3_000.0))
        .expect("closed loop runs");
    assert_eq!(
        digest(&run),
        Digest {
            deliveries: 401,
            trace: 0xb9b2_b246_c267_70c9,
            clients: [329, 72, 88, 63, 241, 0],
            retry: [72, 8, 16, 0, 225],
            latency_us: [4_200, 107_200, 107_200],
            fleet: [88, 313],
        }
    );
}

#[test]
fn feature_carrying_population_matches_the_parent_commit() {
    let run = provisioned_fabric(false)
        .run_closed_loop(&plan(21, 4, 3_000.0))
        .expect("closed loop runs");
    assert_eq!(
        digest(&run),
        Digest {
            deliveries: 222,
            trace: 0x7475_8ab1_ad4b_180b,
            clients: [222, 0, 222, 193, 0, 0],
            retry: [0; 5],
            latency_us: [5_200, 80_727, 82_200],
            fleet: [222, 0],
        }
    );
}

#[test]
fn zero_think_population_matches_the_parent_commit() {
    let run = provisioned_fabric(false)
        .run_closed_loop(&plan(9, 0, 0.0))
        .expect("closed loop runs");
    assert_eq!(
        digest(&run),
        Digest {
            deliveries: 24,
            trace: 0xb0d0_c986_ddf4_1b0d,
            clients: [24, 0, 24, 0, 0, 0],
            retry: [0; 5],
            latency_us: [152_200, 157_200, 157_200],
            fleet: [24, 0],
        }
    );
}
