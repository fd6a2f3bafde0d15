//! Serving statistics: latency percentiles, throughput, shed and cache
//! rates. Everything is computed from exact simulated timestamps, so a
//! fixed seed reproduces the report bit-for-bit.

use crate::observer::NodeObservation;
use crate::request::ShedReason;
use std::collections::BTreeMap;
use tinymlops_observe::LogHistogram;

/// Accumulator filled during a run.
#[derive(Debug, Default)]
pub struct ServeStats {
    latencies_us: Vec<u64>,
    hist: LogHistogram,
    shed: BTreeMap<&'static str, u64>,
    batches: u64,
    batch_items: u64,
    first_arrival_us: Option<u64>,
    last_completion_us: u64,
    /// Outputs produced by real (non-virtual) model execution.
    pub real_predictions: u64,
    /// Per-node observability output (windows, alarms, trace), populated
    /// by the engine at finish when observation is enabled. Node-local:
    /// [`ServeStats::merge`] deliberately does not combine it — the
    /// fabric extracts it per node before fleet aggregation.
    pub(crate) observation: Option<Box<NodeObservation>>,
}

impl ServeStats {
    /// New empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        ServeStats::default()
    }

    /// Record an arrival (tracks run start).
    pub fn on_arrival(&mut self, arrival_us: u64) {
        if self.first_arrival_us.is_none() {
            self.first_arrival_us = Some(arrival_us);
        }
    }

    /// Record a served request.
    pub fn on_served(&mut self, latency_us: u64, completion_us: u64) {
        self.latencies_us.push(latency_us);
        self.hist.record(latency_us);
        self.last_completion_us = self.last_completion_us.max(completion_us);
    }

    /// The log-bucketed latency histogram (same samples as the exact
    /// percentile path; bounded-memory and exactly mergeable, so it is
    /// what leaves the node in fleet aggregation).
    #[must_use]
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }

    /// Take the node's observability output, if the engine produced one.
    pub fn take_observation(&mut self) -> Option<Box<NodeObservation>> {
        self.observation.take()
    }

    /// Record a shed request.
    pub fn on_shed(&mut self, reason: ShedReason) {
        *self.shed.entry(reason.name()).or_insert(0) += 1;
    }

    /// Record a dispatched batch of `items` requests.
    pub fn on_batch(&mut self, items: usize) {
        self.batches += 1;
        self.batch_items += items as u64;
    }

    /// Fold another node's accumulator into this one (fleet aggregation).
    /// Latencies are concatenated, not summarized, so the merged report's
    /// percentiles are exact — identical to a single accumulator having
    /// observed every node's completions.
    pub fn merge(&mut self, other: &ServeStats) {
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.hist.merge(&other.hist);
        for (k, v) in &other.shed {
            *self.shed.entry(k).or_insert(0) += v;
        }
        self.batches += other.batches;
        self.batch_items += other.batch_items;
        self.first_arrival_us = match (self.first_arrival_us, other.first_arrival_us) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_completion_us = self.last_completion_us.max(other.last_completion_us);
        self.real_predictions += other.real_predictions;
    }

    /// Finish: compute the report. `cache` supplies hit/miss counts.
    #[must_use]
    pub fn report(&self, cache_hits: u64, cache_misses: u64, devices_used: usize) -> ServeReport {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let served = sorted.len() as u64;
        let shed_total: u64 = self.shed.values().sum();
        let span_us = self
            .last_completion_us
            .saturating_sub(self.first_arrival_us.unwrap_or(0));
        let throughput_rps = if span_us == 0 {
            0.0
        } else {
            served as f64 / (span_us as f64 / 1e6)
        };
        ServeReport {
            served,
            shed: self.shed.clone(),
            shed_total,
            shed_rate: if served + shed_total == 0 {
                0.0
            } else {
                shed_total as f64 / (served + shed_total) as f64
            },
            p50_ms: nearest_rank(&sorted, 50.0) as f64 / 1000.0,
            p95_ms: nearest_rank(&sorted, 95.0) as f64 / 1000.0,
            p99_ms: nearest_rank(&sorted, 99.0) as f64 / 1000.0,
            p999_ms: nearest_rank(&sorted, 99.9) as f64 / 1000.0,
            max_ms: sorted.last().copied().unwrap_or(0) as f64 / 1000.0,
            throughput_rps,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.batch_items as f64 / self.batches as f64
            },
            batches: self.batches,
            cache_hits,
            cache_misses,
            cache_hit_rate: if cache_hits + cache_misses == 0 {
                0.0
            } else {
                cache_hits as f64 / (cache_hits + cache_misses) as f64
            },
            devices_used,
            real_predictions: self.real_predictions,
        }
    }
}

/// Nearest-rank percentile of an ascending list: the sample at rank
/// `⌈pct/100 · n⌉` (`pct` in (0, 100]), 0 for an empty list. The one rank
/// rule behind every latency percentile the serving plane reports.
pub(crate) fn nearest_rank(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The per-run serving report (deterministic under a fixed seed).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Requests served to completion.
    pub served: u64,
    /// Shed counts by reason name.
    pub shed: BTreeMap<&'static str, u64>,
    /// Total shed.
    pub shed_total: u64,
    /// Shed fraction of all admitted-or-shed requests.
    pub shed_rate: f64,
    /// Median end-to-end latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// 99.9th-percentile latency.
    pub p999_ms: f64,
    /// Worst-case latency.
    pub max_ms: f64,
    /// Served requests per simulated second.
    pub throughput_rps: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Batches dispatched.
    pub batches: u64,
    /// Model-cache hits.
    pub cache_hits: u64,
    /// Model-cache misses.
    pub cache_misses: u64,
    /// Cache hit fraction.
    pub cache_hit_rate: f64,
    /// Devices that served at least one batch.
    pub devices_used: usize,
    /// Predictions produced by real `nn`/`quant` execution (0 in the
    /// virtual-cost mode).
    pub real_predictions: u64,
}

impl ServeReport {
    /// Shed count for one reason.
    #[must_use]
    pub fn shed_by(&self, reason: ShedReason) -> u64 {
        self.shed.get(reason.name()).copied().unwrap_or(0)
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} | {:.0} rps | p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms | \
             shed {:.1}% | batch {:.2} | cache {:.1}% | {} devices",
            self.served,
            self.throughput_rps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.shed_rate * 100.0,
            self.mean_batch,
            self.cache_hit_rate * 100.0,
            self.devices_used
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), 50);
        assert_eq!(nearest_rank(&sorted, 95.0), 95);
        assert_eq!(nearest_rank(&sorted, 99.0), 99);
        assert_eq!(nearest_rank(&sorted, 100.0), 100);
        assert_eq!(nearest_rank(&[], 50.0), 0);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
    }

    #[test]
    fn merge_is_equivalent_to_one_accumulator() {
        let mut a = ServeStats::new();
        a.on_arrival(100);
        a.on_served(1000, 5000);
        a.on_shed(ShedReason::NoRoute);
        a.on_batch(2);
        let mut b = ServeStats::new();
        b.on_arrival(50);
        b.on_served(3000, 9000);
        b.on_served(2000, 7000);
        b.on_batch(3);
        let mut whole = ServeStats::new();
        whole.on_arrival(50);
        whole.on_served(1000, 5000);
        whole.on_served(3000, 9000);
        whole.on_served(2000, 7000);
        whole.on_shed(ShedReason::NoRoute);
        whole.on_batch(2);
        whole.on_batch(3);
        a.merge(&b);
        assert_eq!(a.report(0, 0, 1), whole.report(0, 0, 1));
    }

    #[test]
    fn report_rates() {
        let mut s = ServeStats::new();
        s.on_arrival(0);
        for i in 0..8 {
            s.on_served(1000 * (i + 1), 2_000_000);
        }
        s.on_shed(ShedReason::QuotaExhausted);
        s.on_shed(ShedReason::Overload);
        s.on_batch(4);
        s.on_batch(4);
        let r = s.report(3, 1, 5);
        assert_eq!(r.served, 8);
        assert_eq!(r.shed_total, 2);
        assert!((r.shed_rate - 0.2).abs() < 1e-12);
        assert!((r.cache_hit_rate - 0.75).abs() < 1e-12);
        assert!((r.mean_batch - 4.0).abs() < 1e-12);
        assert!((r.throughput_rps - 4.0).abs() < 1e-9, "8 served over 2s");
        assert_eq!(r.shed_by(ShedReason::QuotaExhausted), 1);
        assert_eq!(r.shed_by(ShedReason::NoRoute), 0);
    }
}
