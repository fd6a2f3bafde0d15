//! Micro-batching request queues.
//!
//! Per model family, admitted requests wait briefly so the runtime can
//! amortize per-dispatch overhead across a batch — the classic serving
//! trade (Edge-Impulse-style runtimes batch aggressively on gateways,
//! MCUs run batch 1). A batch flushes when it reaches `max_batch`
//! requests (size trigger) or when its oldest member has waited
//! `max_delay_us` (deadline trigger). Queues are FIFO, so per-tenant
//! order is preserved by construction.

use crate::request::Request;
use std::collections::{BTreeMap, VecDeque};

/// Batcher configuration.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// Maximum requests per batch (size trigger).
    pub max_batch: usize,
    /// Maximum time the oldest request may wait before a forced flush.
    pub max_delay_us: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_delay_us: 2_000,
        }
    }
}

/// A flushed batch, ready for routing.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Model family every member requested.
    pub model: String,
    /// Members in arrival order.
    pub requests: Vec<Request>,
    /// Why the batch flushed (for stats).
    pub trigger: FlushTrigger,
}

/// What caused a flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushTrigger {
    /// Queue reached `max_batch`.
    Size,
    /// Oldest member hit `max_delay_us`.
    Deadline,
    /// Explicit drain at end of run.
    Drain,
}

/// Per-family FIFO queues with size- and deadline-triggered flushing.
#[derive(Debug)]
pub struct MicroBatcher {
    policy: BatchPolicy,
    queues: BTreeMap<String, VecDeque<Request>>,
    pending: usize,
}

impl MicroBatcher {
    /// New batcher under `policy`.
    #[must_use]
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch > 0, "max_batch must be positive");
        MicroBatcher {
            policy,
            queues: BTreeMap::new(),
            pending: 0,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Requests currently queued across all families.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Enqueue an admitted request. Returns a full batch when this push
    /// hits the size trigger, else the deadline by which the caller must
    /// call [`MicroBatcher::flush_due`] for this family. The deadline is
    /// reported only when this push opened the queue (later pushes share
    /// the already-armed timer, which fires off the same oldest member).
    pub fn push(&mut self, request: Request) -> PushOutcome {
        // One lookup by `&str`; the key is allocated only the first time
        // a family is seen.
        let queue = match self.queues.get_mut(request.model.as_str()) {
            Some(queue) => queue,
            None => self.queues.entry(request.model.clone()).or_default(),
        };
        let arrival_us = request.arrival_us;
        queue.push_back(request);
        self.pending += 1;
        if queue.len() >= self.policy.max_batch {
            let batch = take_batch(queue, &mut self.pending, &self.policy, FlushTrigger::Size);
            return PushOutcome::Flushed(batch);
        }
        let flush_at_us =
            (queue.len() == 1).then(|| arrival_us.saturating_add(self.policy.max_delay_us));
        PushOutcome::Queued { flush_at_us }
    }

    /// Flush `family` if its oldest member has waited out the delay
    /// budget at `now_us` (deadline trigger). Stale timers (queue already
    /// flushed by the size trigger) return `None`.
    pub fn flush_due(&mut self, family: &str, now_us: u64) -> Option<Batch> {
        let queue = self.queues.get_mut(family)?;
        let oldest = queue.front()?.arrival_us;
        if now_us < oldest.saturating_add(self.policy.max_delay_us) {
            return None;
        }
        Some(take_batch(
            queue,
            &mut self.pending,
            &self.policy,
            FlushTrigger::Deadline,
        ))
    }

    /// Splice one tenant's queued requests out of every family queue,
    /// preserving their relative arrival order. Used by the live-migration
    /// drain: the spliced requests were already admitted (and charged) on
    /// the draining node, so they travel with the tenant's account and
    /// re-enter the destination node's queues without a second admission.
    ///
    /// Splicing can change a queue's oldest member; callers that armed a
    /// deadline timer for the old front must re-arm every surviving
    /// queue from [`MicroBatcher::flush_deadlines`] (stale timers are
    /// harmless, a missing one stalls the queue).
    pub fn splice_tenant(&mut self, tenant: crate::request::TenantId) -> Vec<Request> {
        let mut spliced = Vec::new();
        for queue in self.queues.values_mut() {
            let mut kept = VecDeque::with_capacity(queue.len());
            for request in queue.drain(..) {
                if request.tenant == tenant {
                    spliced.push(request);
                } else {
                    kept.push_back(request);
                }
            }
            *queue = kept;
        }
        self.pending -= spliced.len();
        spliced.sort_by_key(|r| (r.arrival_us, r.id));
        spliced
    }

    /// Deadline-trigger times per non-empty family queue (front arrival +
    /// delay budget) — what a scheduler must have armed for no queue to
    /// stall. Used to re-arm after a splice changed queue fronts.
    #[must_use]
    pub fn flush_deadlines(&self) -> Vec<(String, u64)> {
        self.queues
            .iter()
            .filter_map(|(family, q)| {
                q.front().map(|r| {
                    (
                        family.clone(),
                        r.arrival_us.saturating_add(self.policy.max_delay_us),
                    )
                })
            })
            .collect()
    }

    /// Drain every queue (end of run), preserving FIFO order.
    pub fn drain(&mut self) -> Vec<Batch> {
        let mut batches = Vec::new();
        for queue in self.queues.values_mut() {
            while !queue.is_empty() {
                batches.push(take_batch(
                    queue,
                    &mut self.pending,
                    &self.policy,
                    FlushTrigger::Drain,
                ));
            }
        }
        batches
    }
}

/// Cut the next batch (up to `max_batch` members, FIFO) off a non-empty
/// family queue. The batch is named after its first member, so callers
/// need not hold the family name across the queue borrow.
fn take_batch(
    queue: &mut VecDeque<Request>,
    pending: &mut usize,
    policy: &BatchPolicy,
    trigger: FlushTrigger,
) -> Batch {
    let n = queue.len().min(policy.max_batch);
    let requests: Vec<Request> = queue.drain(..n).collect();
    *pending -= requests.len();
    Batch {
        model: requests[0].model.clone(),
        requests,
        trigger,
    }
}

/// Result of [`MicroBatcher::push`].
#[derive(Debug)]
pub enum PushOutcome {
    /// Request queued.
    Queued {
        /// Absolute deadline-trigger time to arm for the family queue —
        /// `Some` only when this push opened the queue; `None` means a
        /// timer for the same oldest member is already armed.
        flush_at_us: Option<u64>,
    },
    /// The push completed a batch (size trigger).
    Flushed(Batch),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, tenant: u32, model: &str, arrival_us: u64) -> Request {
        Request {
            id,
            tenant,
            model: model.into(),
            arrival_us,
            deadline_us: 50_000,
            features: None,
        }
    }

    #[test]
    fn size_trigger_flushes_exactly_max_batch() {
        let mut b = MicroBatcher::new(BatchPolicy {
            max_batch: 3,
            max_delay_us: 1_000,
        });
        assert!(matches!(
            b.push(req(0, 1, "m", 0)),
            PushOutcome::Queued { .. }
        ));
        assert!(matches!(
            b.push(req(1, 1, "m", 5)),
            PushOutcome::Queued { .. }
        ));
        let PushOutcome::Flushed(batch) = b.push(req(2, 1, "m", 9)) else {
            panic!("third push must flush");
        };
        assert_eq!(batch.trigger, FlushTrigger::Size);
        assert_eq!(batch.requests.len(), 3);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn deadline_trigger_fires_only_when_due() {
        let mut b = MicroBatcher::new(BatchPolicy {
            max_batch: 8,
            max_delay_us: 1_000,
        });
        let PushOutcome::Queued { flush_at_us } = b.push(req(0, 1, "m", 100)) else {
            panic!("first push queues");
        };
        assert_eq!(flush_at_us, Some(1_100), "first push arms the timer");
        let PushOutcome::Queued { flush_at_us } = b.push(req(1, 1, "m", 200)) else {
            panic!("second push queues");
        };
        assert_eq!(flush_at_us, None, "timer already armed for this queue");
        assert!(b.flush_due("m", 1_099).is_none(), "not due yet");
        let batch = b.flush_due("m", 1_100).expect("due");
        assert_eq!(batch.trigger, FlushTrigger::Deadline);
        assert_eq!(batch.requests.len(), 2, "one deadline flush takes both");
        assert!(b.flush_due("m", 2_000).is_none(), "stale timer is a no-op");
    }

    #[test]
    fn families_batch_independently() {
        let mut b = MicroBatcher::new(BatchPolicy {
            max_batch: 2,
            max_delay_us: 1_000,
        });
        b.push(req(0, 1, "a", 0));
        b.push(req(1, 1, "b", 1));
        let PushOutcome::Flushed(batch) = b.push(req(2, 2, "a", 2)) else {
            panic!("family a reaches max_batch");
        };
        assert_eq!(batch.model, "a");
        assert_eq!(b.pending(), 1, "family b still queued");
    }

    #[test]
    fn per_tenant_fifo_is_preserved() {
        let mut b = MicroBatcher::new(BatchPolicy {
            max_batch: 4,
            max_delay_us: 1_000,
        });
        for (i, tenant) in [(0u64, 7u32), (1, 9), (2, 7), (3, 7)] {
            if let PushOutcome::Flushed(batch) = b.push(req(i, tenant, "m", i)) {
                let tenant7: Vec<u64> = batch
                    .requests
                    .iter()
                    .filter(|r| r.tenant == 7)
                    .map(|r| r.id)
                    .collect();
                assert_eq!(tenant7, vec![0, 2, 3], "tenant order follows arrival");
                return;
            }
        }
        panic!("batch never flushed");
    }

    #[test]
    fn splice_extracts_one_tenant_in_arrival_order() {
        let mut b = MicroBatcher::new(BatchPolicy {
            max_batch: 8,
            max_delay_us: 1_000,
        });
        b.push(req(0, 7, "a", 0));
        b.push(req(1, 9, "a", 5));
        b.push(req(2, 7, "b", 3));
        b.push(req(3, 7, "a", 9));
        let spliced = b.splice_tenant(7);
        let ids: Vec<u64> = spliced.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 2, 3], "tenant 7's requests, arrival order");
        assert_eq!(b.pending(), 1, "tenant 9 stays queued");
        // Family a's front changed (id 0 → id 1): the re-arm schedule
        // reflects the surviving front, family b is empty and absent.
        assert_eq!(b.flush_deadlines(), vec![("a".to_string(), 1_005)]);
        assert!(b.splice_tenant(7).is_empty(), "splice is idempotent");
    }

    #[test]
    fn drain_empties_every_family() {
        let mut b = MicroBatcher::new(BatchPolicy::default());
        b.push(req(0, 1, "a", 0));
        b.push(req(1, 1, "b", 0));
        let batches = b.drain();
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|x| x.trigger == FlushTrigger::Drain));
        assert_eq!(b.pending(), 0);
    }
}
