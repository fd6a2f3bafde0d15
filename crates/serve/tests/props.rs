//! Property-based tests: serving-plane invariants under arbitrary
//! traffic shapes.
//!
//! The batcher must never exceed its size or delay bounds and must
//! preserve per-tenant FIFO order; the model cache must never exceed its
//! byte budget and must evict in strict LRU order.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tinymlops_serve::{Admission, BatchPolicy, MicroBatcher, ModelCache, PushOutcome, Request};

use tinymlops_registry::{ModelFormat, ModelId, ModelRecord, SemVer};

fn request(id: u64, tenant: u32, model: &str, arrival_us: u64) -> Request {
    Request {
        id,
        tenant,
        model: model.into(),
        arrival_us,
        deadline_us: 1_000_000,
        features: None,
    }
}

/// Earliest forced-flush time across all families.
fn next_deadline_us(batcher: &MicroBatcher) -> Option<(String, u64)> {
    batcher
        .flush_deadlines()
        .into_iter()
        .min_by_key(|(_, due)| *due)
}

fn record(id: u64, size: u64) -> ModelRecord {
    ModelRecord {
        id: ModelId(id),
        name: format!("m{id}"),
        version: SemVer::new(1, 0, 0),
        format: ModelFormat::F32,
        parent: None,
        artifact: [0; 32],
        size_bytes: size,
        macs: 1,
        metrics: BTreeMap::new(),
        tags: vec![],
        created_ms: 0,
    }
}

proptest! {
    /// Every flushed batch respects `max_batch`, holds one family only,
    /// and flushes no earlier than necessary / no later than allowed:
    /// a deadline-triggered batch's oldest member has waited at least
    /// `max_delay_us`.
    #[test]
    fn batcher_never_exceeds_size_or_delay_bounds(
        max_batch in 1usize..12,
        max_delay_us in 100u64..5_000,
        // (tenant, family, gap_us) per arriving request.
        arrivals in proptest::collection::vec((0u32..4, 0u8..3, 0u64..2_000), 1..200),
    ) {
        let mut batcher = MicroBatcher::new(BatchPolicy { max_batch, max_delay_us });
        let mut now = 0u64;
        let mut flushed: Vec<(u64, tinymlops_serve::Batch)> = Vec::new();
        for (id, (tenant, family, gap)) in arrivals.iter().enumerate() {
            now += gap;
            // Deadline triggers that became due before this arrival.
            while let Some((f, due)) = next_deadline_us(&batcher) {
                if due > now { break; }
                let batch = batcher.flush_due(&f, due).expect("due timer flushes");
                flushed.push((due, batch));
            }
            let family_name = ["a", "b", "c"][*family as usize];
            if let PushOutcome::Flushed(batch) = batcher.push(request(id as u64, *tenant, family_name, now)) {
                flushed.push((now, batch));
            }
        }
        // Drain the tail via deadline triggers.
        while let Some((f, due)) = next_deadline_us(&batcher) {
            let batch = batcher.flush_due(&f, due).expect("due timer flushes");
            flushed.push((due, batch));
        }
        prop_assert_eq!(batcher.pending(), 0);
        let mut total = 0usize;
        for (flush_time, batch) in &flushed {
            prop_assert!(batch.requests.len() <= max_batch, "batch over size bound");
            prop_assert!(!batch.requests.is_empty());
            total += batch.requests.len();
            for r in &batch.requests {
                prop_assert_eq!(&r.model, &batch.model, "one family per batch");
                let waited = flush_time.saturating_sub(r.arrival_us);
                prop_assert!(
                    waited <= max_delay_us,
                    "request waited {}us > bound {}us", waited, max_delay_us
                );
            }
            if batch.trigger == tinymlops_serve::FlushTrigger::Deadline {
                let oldest = batch.requests.first().expect("non-empty");
                prop_assert!(
                    flush_time - oldest.arrival_us >= max_delay_us,
                    "deadline flush fired early"
                );
            }
        }
        prop_assert_eq!(total, arrivals.len(), "no request lost or duplicated");
    }

    /// A family the batcher has never seen: the first push opens its
    /// queue and reports the deadline to arm, pushes 2..n share that
    /// timer (`None`), and the n-th returns a size-triggered batch named
    /// after the family — whatever other families are already queued.
    #[test]
    fn unseen_family_opens_a_queue_then_fills_to_a_named_size_batch(
        max_batch in 2usize..10,
        max_delay_us in 100u64..5_000,
        seen in proptest::collection::vec(0u8..3, 0..8),
        gaps in proptest::collection::vec(0u64..50, 10..11),
        start_us in 0u64..1_000_000,
    ) {
        let mut batcher = MicroBatcher::new(BatchPolicy { max_batch, max_delay_us });
        // Other families, kept below the size trigger, sorting on both
        // sides of the new name.
        for (id, family) in seen.iter().take(max_batch - 1).enumerate() {
            batcher.push(request(1_000 + id as u64, 9, ["a", "m", "z"][*family as usize], 0));
        }
        let queued_elsewhere = batcher.pending();
        let mut now = start_us;
        for n in 1..=max_batch {
            now += gaps[n - 1];
            match batcher.push(request(n as u64, 1, "fresh", now)) {
                PushOutcome::Queued { flush_at_us } => {
                    prop_assert!(n < max_batch, "push {} of {} must flush", n, max_batch);
                    let opened = (n == 1).then(|| start_us + gaps[0] + max_delay_us);
                    prop_assert_eq!(flush_at_us, opened, "push {}", n);
                }
                PushOutcome::Flushed(batch) => {
                    prop_assert_eq!(n, max_batch, "flushed early");
                    prop_assert_eq!(batch.trigger, tinymlops_serve::FlushTrigger::Size);
                    prop_assert_eq!(batch.model.as_str(), "fresh");
                    let ids: Vec<u64> = batch.requests.iter().map(|r| r.id).collect();
                    prop_assert_eq!(ids, (1..=max_batch as u64).collect::<Vec<_>>());
                }
            }
        }
        prop_assert_eq!(batcher.pending(), queued_elsewhere, "other queues untouched");
    }

    /// Concatenating flushed batches preserves, per tenant, the exact
    /// arrival order (FIFO fairness: batching never reorders a tenant's
    /// own requests).
    #[test]
    fn batcher_preserves_per_tenant_fifo(
        max_batch in 1usize..10,
        tenants in proptest::collection::vec(0u32..5, 1..150),
    ) {
        let mut batcher = MicroBatcher::new(BatchPolicy { max_batch, max_delay_us: 1_000 });
        let mut dispatched: Vec<Request> = Vec::new();
        for (id, tenant) in tenants.iter().enumerate() {
            if let PushOutcome::Flushed(batch) = batcher.push(request(id as u64, *tenant, "m", id as u64)) {
                dispatched.extend(batch.requests);
            }
        }
        for batch in batcher.drain() {
            dispatched.extend(batch.requests);
        }
        for tenant in 0u32..5 {
            let order: Vec<u64> = dispatched
                .iter()
                .filter(|r| r.tenant == tenant)
                .map(|r| r.id)
                .collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&order, &sorted, "tenant {} reordered: {:?}", tenant, order);
        }
    }

    /// Under any interleaving of admits and lookups the cache never
    /// exceeds its byte budget, and evictions happen in exact LRU order.
    #[test]
    fn cache_holds_budget_and_evicts_strict_lru(
        budget in 1u64..2_000,
        // (model id, size, lookup-first flag) operations.
        ops in proptest::collection::vec((0u64..30, 1u64..600, any::<bool>()), 1..200),
    ) {
        let mut cache = ModelCache::new(budget);
        // Shadow model: perfect LRU list of (id, size), hottest last.
        let mut shadow: Vec<(u64, u64)> = Vec::new();
        for (id, size, lookup_first) in ops.iter() {
            if *lookup_first {
                let hit = cache.get(ModelId(*id)).is_some();
                let shadow_hit = shadow.iter().any(|(sid, _)| sid == id);
                prop_assert_eq!(hit, shadow_hit, "hit/miss diverges from shadow LRU");
                if shadow_hit {
                    let pos = shadow.iter().position(|(sid, _)| sid == id).expect("hit");
                    let entry = shadow.remove(pos);
                    shadow.push(entry);
                }
                continue;
            }
            // Admission: resident ids refresh; new ids evict coldest-first.
            let resident = shadow.iter().any(|(sid, _)| sid == id);
            let outcome = cache.admit(record(*id, *size));
            if resident {
                prop_assert_eq!(outcome, Admission::AlreadyResident);
                let pos = shadow.iter().position(|(sid, _)| sid == id).expect("resident");
                let entry = shadow.remove(pos);
                shadow.push(entry);
            } else if *size > budget {
                prop_assert_eq!(outcome, Admission::TooLarge);
            } else {
                let mut used: u64 = shadow.iter().map(|(_, s)| s).sum();
                let mut evicted = 0usize;
                while used + size > budget {
                    let (_, gone) = shadow.remove(0);
                    used -= gone;
                    evicted += 1;
                }
                shadow.push((*id, *size));
                prop_assert_eq!(outcome, Admission::Inserted(evicted));
            }
            let used: u64 = shadow.iter().map(|(_, s)| s).sum();
            prop_assert!(cache.used_bytes() <= budget, "budget exceeded");
            prop_assert_eq!(cache.used_bytes(), used, "byte accounting diverges");
            let order: Vec<u64> = cache.resident_lru_order().iter().map(|m| m.0).collect();
            let shadow_order: Vec<u64> = shadow.iter().map(|(sid, _)| *sid).collect();
            prop_assert_eq!(&order, &shadow_order, "LRU order diverges from shadow");
        }
    }
}
