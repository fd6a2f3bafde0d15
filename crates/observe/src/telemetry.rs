//! On-device telemetry with bounded memory and deferred upload.
//!
//! §III-B: *"we are also interested in monitoring the number of requests a
//! user has made and the execution time of the model … record the actual
//! execution time, memory and energy consumption on the end-user's device.
//! … We might decide to store these statistics locally and transmit them to
//! the cloud when the device is connected to WiFi."*
//!
//! Two recording paths share one sink:
//!
//! * **By name** (`incr`/`record`/`record_hist`): convenient, but every
//!   call walks a `BTreeMap<String, _>` and a miss allocates the key.
//! * **By handle** (`counter_id` → `incr_id`, …): a fixed metric set is
//!   registered once, then every event is one mutex lock plus a `Vec`
//!   index — no allocation, no tree walk. Handles stay valid across
//!   [`Telemetry::drain`] (values reset, registrations persist). A
//!   single-writer hot path (the serve engine) goes one step further:
//!   it accumulates locally and folds in once through `add_id` /
//!   `merge_timer_id` / `merge_hist_id`, paying the lock per run instead
//!   of per event.
//!
//! Reports fold both paths into the same named maps, so the wire format
//! does not depend on which path recorded a metric.

use crate::hist::{HistSummary, LogHistogram};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tinymlops_tensor::stats::RunningStats;

/// A bounded-memory telemetry sink: counters, streaming statistics, and
/// log-bucketed histograms. Thread-safe; inference threads record while
/// an uploader drains.
#[derive(Default)]
pub struct Telemetry {
    inner: Mutex<TelemetryInner>,
}

#[derive(Default)]
struct TelemetryInner {
    counters: BTreeMap<String, u64>,
    timers: BTreeMap<String, RunningStats>,
    hists: BTreeMap<String, LogHistogram>,
    // Handle-indexed fast lanes: registered once, indexed per event.
    fast_counters: Vec<(String, u64)>,
    fast_timers: Vec<(String, RunningStats)>,
    fast_hists: Vec<(String, LogHistogram)>,
}

/// Pre-registered handle to a counter (see [`Telemetry::counter_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Pre-registered handle to a timer (see [`Telemetry::timer_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId(usize);

/// Pre-registered handle to a histogram (see [`Telemetry::hist_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// A compact, serializable snapshot of telemetry state.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TelemetryReport {
    /// Monotonic counters (e.g. `queries`, `errors`).
    pub counters: BTreeMap<String, u64>,
    /// Timer summaries: `(count, mean, std, min, max)` per metric.
    pub timers: BTreeMap<String, TimerSummary>,
    /// Sparse log-bucketed histograms (exactly mergeable across nodes).
    pub hists: BTreeMap<String, HistSummary>,
}

/// Five-number summary of a timer/value series.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TimerSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
}

impl Telemetry {
    /// New empty sink.
    #[must_use]
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Increment a named counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Add `n` to a named counter.
    pub fn add(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Register (or find) a counter handle. Idempotent; call once per
    /// metric at setup, not per event.
    #[must_use]
    pub fn counter_id(&self, name: &str) -> CounterId {
        let mut inner = self.inner.lock();
        if let Some(i) = inner.fast_counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        inner.fast_counters.push((name.to_string(), 0));
        CounterId(inner.fast_counters.len() - 1)
    }

    /// Increment a pre-registered counter — the allocation-free hot path.
    pub fn incr_id(&self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Add `n` to a pre-registered counter.
    pub fn add_id(&self, id: CounterId, n: u64) {
        self.inner.lock().fast_counters[id.0].1 += n;
    }

    /// Record a timing/measurement sample (ms, mJ, bytes — caller's units).
    pub fn record(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        inner
            .timers
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Register (or find) a timer handle. Idempotent, setup-time only.
    #[must_use]
    pub fn timer_id(&self, name: &str) -> TimerId {
        let mut inner = self.inner.lock();
        if let Some(i) = inner.fast_timers.iter().position(|(n, _)| n == name) {
            return TimerId(i);
        }
        inner
            .fast_timers
            .push((name.to_string(), RunningStats::new()));
        TimerId(inner.fast_timers.len() - 1)
    }

    /// Record into a pre-registered timer — allocation-free.
    pub fn record_id(&self, id: TimerId, value: f64) {
        self.inner.lock().fast_timers[id.0].1.push(value);
    }

    /// Fold a locally accumulated series into a pre-registered timer, as
    /// if its samples had been [`Telemetry::record_id`]ed here in order:
    /// bit-exact when the lane is empty (the usual case — one writer, one
    /// fold per drain), pooled-variance accurate otherwise.
    pub fn merge_timer_id(&self, id: TimerId, series: &RunningStats) {
        self.inner.lock().fast_timers[id.0].1.merge(series);
    }

    /// Record into a named log-bucketed histogram (caller's units; use a
    /// handle via [`Telemetry::hist_id`] on hot paths).
    pub fn record_hist(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock();
        inner
            .hists
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Register (or find) a histogram handle. Idempotent, setup-time only.
    #[must_use]
    pub fn hist_id(&self, name: &str) -> HistId {
        let mut inner = self.inner.lock();
        if let Some(i) = inner.fast_hists.iter().position(|(n, _)| n == name) {
            return HistId(i);
        }
        inner
            .fast_hists
            .push((name.to_string(), LogHistogram::new()));
        HistId(inner.fast_hists.len() - 1)
    }

    /// Record into a pre-registered histogram — allocation-free.
    pub fn record_hist_id(&self, id: HistId, value: u64) {
        self.inner.lock().fast_hists[id.0].1.record(value);
    }

    /// Fold a locally accumulated histogram into a pre-registered one
    /// (bucket-wise exact, whatever the lane already holds).
    pub fn merge_hist_id(&self, id: HistId, hist: &LogHistogram) {
        self.inner.lock().fast_hists[id.0].1.merge(hist);
    }

    /// Fold an already-summarized timer series into this sink, as if the
    /// underlying samples had been [`Telemetry::record`]ed here — exact
    /// for count/mean/min/max, pooled-variance accurate for std. This is
    /// the fleet-aggregation entry point: a serving fabric's per-node
    /// sinks summarize locally, and the platform sink absorbs the merged
    /// summaries instead of dropping them at the fabric report.
    pub fn record_summary(&self, name: &str, summary: &TimerSummary) {
        if summary.count == 0 {
            return;
        }
        let incoming = RunningStats::from_summary(
            summary.count,
            summary.mean,
            summary.std,
            summary.min,
            summary.max,
        );
        let mut inner = self.inner.lock();
        inner
            .timers
            .entry(name.to_string())
            .or_default()
            .merge(&incoming);
    }

    /// Fold a sparse histogram snapshot into this sink's named histogram
    /// (bucket-wise exact, the histogram analogue of
    /// [`Telemetry::record_summary`]).
    pub fn record_hist_summary(&self, name: &str, summary: &HistSummary) {
        if summary.buckets.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        inner
            .hists
            .entry(name.to_string())
            .or_default()
            .absorb_summary(summary);
    }

    /// Fold a whole [`TelemetryReport`] into this sink: counters add,
    /// timer summaries merge via [`Telemetry::record_summary`], histograms
    /// bucket-add. Used by `Platform` to land a fabric run's merged fleet
    /// telemetry in the platform-wide sink.
    pub fn absorb_report(&self, report: &TelemetryReport) {
        for (name, value) in &report.counters {
            self.add(name, *value);
        }
        for (name, summary) in &report.timers {
            self.record_summary(name, summary);
        }
        for (name, summary) in &report.hists {
            self.record_hist_summary(name, summary);
        }
    }

    /// Current value of a counter (0 if never written; sums the named and
    /// handle lanes when both were used).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock();
        let slow = inner.counters.get(name).copied().unwrap_or(0);
        let fast = inner
            .fast_counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v);
        slow + fast
    }

    /// Snapshot the current state without clearing it. Handle-lane metrics
    /// fold into the same named maps; never-written registrations are
    /// omitted, so registering handles alone does not change reports.
    #[must_use]
    pub fn snapshot(&self) -> TelemetryReport {
        let inner = self.inner.lock();
        let mut counters = inner.counters.clone();
        for (name, v) in &inner.fast_counters {
            if *v > 0 {
                *counters.entry(name.clone()).or_insert(0) += v;
            }
        }
        let mut timers: BTreeMap<String, RunningStats> = inner.timers.clone();
        for (name, s) in &inner.fast_timers {
            if s.count() > 0 {
                timers.entry(name.clone()).or_default().merge(s);
            }
        }
        let mut hists = inner.hists.clone();
        for (name, h) in &inner.fast_hists {
            if !h.is_empty() {
                hists.entry(name.clone()).or_default().merge(h);
            }
        }
        TelemetryReport {
            counters,
            timers: timers
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        TimerSummary {
                            count: s.count(),
                            mean: s.mean(),
                            std: s.std_dev(),
                            min: s.min(),
                            max: s.max(),
                        },
                    )
                })
                .collect(),
            hists: hists
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(k, h)| (k.clone(), h.to_summary()))
                .collect(),
        }
    }

    /// Snapshot and reset — the "flush" an uploader calls. Handle
    /// registrations survive (values reset to zero), so held
    /// [`CounterId`]/[`TimerId`]/[`HistId`]s stay valid across drains.
    #[must_use]
    pub fn drain(&self) -> TelemetryReport {
        let report = self.snapshot();
        let mut inner = self.inner.lock();
        inner.counters.clear();
        inner.timers.clear();
        inner.hists.clear();
        for (_, v) in inner.fast_counters.iter_mut() {
            *v = 0;
        }
        for (_, s) in inner.fast_timers.iter_mut() {
            *s = RunningStats::new();
        }
        for (_, h) in inner.fast_hists.iter_mut() {
            *h = LogHistogram::new();
        }
        report
    }
}

impl TelemetryReport {
    /// An empty report (merge identity).
    #[must_use]
    pub fn empty() -> Self {
        TelemetryReport {
            counters: BTreeMap::new(),
            timers: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    /// Fold many per-node reports into one fleet-level report — the
    /// server-side aggregation path a multi-node serving fabric uses to
    /// present one pane of glass over N nodes' counters and timers.
    #[must_use]
    pub fn merged(reports: impl IntoIterator<Item = TelemetryReport>) -> Self {
        let mut out = TelemetryReport::empty();
        for report in reports {
            out.merge(&report);
        }
        out
    }

    /// Approximate wire size in bytes (summaries only — the point of
    /// on-device aggregation is that this is *constant* in query count).
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        // counter: key + 8 bytes; timer: key + 5 × 8 bytes; histogram:
        // key + 12 bytes (u32 index + u64 count) per non-empty bucket.
        self.counters.keys().map(|k| k.len() + 8).sum::<usize>()
            + self.timers.keys().map(|k| k.len() + 40).sum::<usize>()
            + self
                .hists
                .iter()
                .map(|(k, h)| k.len() + 12 * h.buckets.len())
                .sum::<usize>()
    }

    /// Merge another report into this one (server-side aggregation).
    pub fn merge(&mut self, other: &TelemetryReport) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, t) in &other.timers {
            match self.timers.get_mut(k) {
                None => {
                    self.timers.insert(k.clone(), t.clone());
                }
                Some(mine) => {
                    // Weighted merge of means; std merged approximately via
                    // pooled variance (exact requires raw moments).
                    let n1 = mine.count as f64;
                    let n2 = t.count as f64;
                    if n1 + n2 > 0.0 {
                        let mean = (mine.mean * n1 + t.mean * n2) / (n1 + n2);
                        let var = (n1 * (mine.std.powi(2) + (mine.mean - mean).powi(2))
                            + n2 * (t.std.powi(2) + (t.mean - mean).powi(2)))
                            / (n1 + n2);
                        mine.mean = mean;
                        mine.std = var.sqrt();
                    }
                    mine.count += t.count;
                    mine.min = mine.min.min(t.min);
                    mine.max = mine.max.max(t.max);
                }
            }
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }
}

/// A store-and-forward queue that holds reports until the link policy
/// allows bulk upload (§III-B's "transmit … when connected to WiFi").
#[derive(Debug, Default)]
pub struct UploadQueue {
    pending: Vec<TelemetryReport>,
    /// Total reports ever uploaded.
    pub uploaded: usize,
    /// Total bytes ever uploaded.
    pub uploaded_bytes: usize,
}

impl UploadQueue {
    /// New empty queue.
    #[must_use]
    pub fn new() -> Self {
        UploadQueue::default()
    }

    /// Enqueue a report for later upload.
    pub fn push(&mut self, report: TelemetryReport) {
        self.pending.push(report);
    }

    /// Number of reports waiting.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Attempt an upload: if `bulk_ok` (e.g. unmetered WiFi) drain all
    /// pending reports and return them; otherwise keep buffering.
    pub fn try_upload(&mut self, bulk_ok: bool) -> Vec<TelemetryReport> {
        if !bulk_ok {
            return Vec::new();
        }
        let out = std::mem::take(&mut self.pending);
        self.uploaded += out.len();
        self.uploaded_bytes += out.iter().map(TelemetryReport::wire_bytes).sum::<usize>();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Telemetry::new();
        t.incr("queries");
        t.add("queries", 4);
        assert_eq!(t.counter("queries"), 5);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn timers_summarize() {
        let t = Telemetry::new();
        for v in [10.0, 20.0, 30.0] {
            t.record("latency_ms", v);
        }
        let snap = t.snapshot();
        let s = &snap.timers["latency_ms"];
        assert_eq!(s.count, 3);
        assert!((s.mean - 20.0).abs() < 1e-9);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.0);
    }

    #[test]
    fn drain_resets() {
        let t = Telemetry::new();
        t.incr("q");
        let first = t.drain();
        assert_eq!(first.counters["q"], 1);
        assert_eq!(t.counter("q"), 0);
        assert!(t.drain().counters.is_empty());
    }

    #[test]
    fn handles_match_named_path_and_survive_drain() {
        let by_name = Telemetry::new();
        let by_id = Telemetry::new();
        let c = by_id.counter_id("serve.served");
        let tm = by_id.timer_id("serve.latency_ms");
        let h = by_id.hist_id("serve.latency_us");
        // Registration is idempotent and does not pollute reports.
        assert_eq!(by_id.counter_id("serve.served"), c);
        assert!(by_id.snapshot().counters.is_empty());
        for i in 0..5u64 {
            by_name.incr("serve.served");
            by_id.incr_id(c);
            by_name.record("serve.latency_ms", i as f64);
            by_id.record_id(tm, i as f64);
            by_name.record_hist("serve.latency_us", i * 100);
            by_id.record_hist_id(h, i * 100);
        }
        assert_eq!(by_id.snapshot(), by_name.snapshot());
        // Drain keeps handles valid; the next epoch records cleanly.
        let _ = by_id.drain();
        by_id.add_id(c, 3);
        assert_eq!(by_id.counter("serve.served"), 3);
        assert_eq!(by_id.snapshot().counters["serve.served"], 3);
    }

    #[test]
    fn named_and_handle_lanes_fold_into_one_metric() {
        let t = Telemetry::new();
        let c = t.counter_id("q");
        t.incr_id(c);
        t.add("q", 2);
        assert_eq!(t.counter("q"), 3);
        assert_eq!(t.snapshot().counters["q"], 3);
    }

    #[test]
    fn hists_merge_exactly_across_reports() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        let both = Telemetry::new();
        for v in [100u64, 5_000, 90_000] {
            a.record_hist("lat", v);
            both.record_hist("lat", v);
        }
        for v in [250u64, 250, 1 << 33] {
            b.record_hist("lat", v);
            both.record_hist("lat", v);
        }
        let fleet = TelemetryReport::merged([a.drain(), b.drain()]);
        let want = both.drain();
        assert_eq!(fleet.hists["lat"], want.hists["lat"]);
        assert_eq!(fleet.hists["lat"].count(), 6);
        assert_eq!(
            fleet.hists["lat"].quantile(50.0),
            want.hists["lat"].quantile(50.0)
        );
    }

    #[test]
    fn absorb_report_lands_hists() {
        let node = Telemetry::new();
        node.record_hist("lat", 700);
        node.record_hist("lat", 900);
        let platform = Telemetry::new();
        platform.record_hist("lat", 100);
        platform.absorb_report(&node.drain());
        assert_eq!(platform.snapshot().hists["lat"].count(), 3);
    }

    #[test]
    fn wire_bytes_constant_in_query_count() {
        let t = Telemetry::new();
        for _ in 0..10 {
            t.record("lat", 1.0);
            t.record_hist("lat_us", 500);
        }
        let small = t.snapshot().wire_bytes();
        for _ in 0..10_000 {
            t.record("lat", 1.0);
            t.record_hist("lat_us", 500);
        }
        let big = t.snapshot().wire_bytes();
        assert_eq!(small, big, "aggregation keeps reports constant-size");
    }

    #[test]
    fn wire_bytes_empty_report_is_zero() {
        assert_eq!(TelemetryReport::empty().wire_bytes(), 0);
        let t = Telemetry::new();
        assert_eq!(t.snapshot().wire_bytes(), 0);
        // Registering handles without recording keeps the report empty.
        let _ = t.counter_id("a");
        let _ = t.timer_id("b");
        let _ = t.hist_id("c");
        assert_eq!(t.snapshot().wire_bytes(), 0);
    }

    #[test]
    fn wire_bytes_counts_each_section() {
        let t = Telemetry::new();
        t.incr("c"); // 1 + 8
        t.record("t", 1.0); // 1 + 40
        t.record_hist("h", 7); // 1 + 12 (one bucket)
        assert_eq!(t.snapshot().wire_bytes(), 9 + 41 + 13);
    }

    #[test]
    fn record_summary_matches_recording_the_samples() {
        // One sink sees raw samples; the other absorbs per-node summaries
        // (the `Platform::absorb_serving` path). They must agree.
        let raw = Telemetry::new();
        let folded = Telemetry::new();
        folded.record("serve.latency_ms", 5.0); // pre-existing local data
        raw.record("serve.latency_ms", 5.0);
        let node_series = [vec![1.0, 2.0, 3.0], vec![10.0, 20.0]];
        for series in &node_series {
            let node = Telemetry::new();
            for &v in series {
                node.record("serve.latency_ms", v);
                raw.record("serve.latency_ms", v);
            }
            let report = node.drain();
            folded.record_summary("serve.latency_ms", &report.timers["serve.latency_ms"]);
        }
        let want = &raw.snapshot().timers["serve.latency_ms"];
        let got = &folded.snapshot().timers["serve.latency_ms"];
        assert_eq!(got.count, want.count);
        assert!((got.mean - want.mean).abs() < 1e-9);
        assert!((got.std - want.std).abs() < 1e-6);
        assert_eq!(got.min, want.min);
        assert_eq!(got.max, want.max);
        // Zero-count summaries are no-ops, not NaN factories.
        folded.record_summary(
            "serve.latency_ms",
            &TimerSummary {
                count: 0,
                mean: 0.0,
                std: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            },
        );
        assert_eq!(
            folded.snapshot().timers["serve.latency_ms"].count,
            want.count
        );
    }

    #[test]
    fn absorb_report_lands_counters_and_timers() {
        let node = Telemetry::new();
        node.add("serve.served", 7);
        node.record("serve.latency_ms", 4.0);
        node.record("serve.latency_ms", 6.0);
        let report = node.drain();
        let platform = Telemetry::new();
        platform.add("serve.served", 1);
        platform.absorb_report(&report);
        assert_eq!(platform.counter("serve.served"), 8);
        let snap = platform.snapshot();
        let t = &snap.timers["serve.latency_ms"];
        assert_eq!(t.count, 2);
        assert!((t.mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_pools_statistics() {
        let t1 = Telemetry::new();
        let t2 = Telemetry::new();
        for v in [1.0, 2.0, 3.0] {
            t1.record("x", v);
        }
        for v in [4.0, 5.0] {
            t2.record("x", v);
        }
        t1.incr("n");
        t2.add("n", 2);
        let mut a = t1.snapshot();
        a.merge(&t2.snapshot());
        assert_eq!(a.counters["n"], 3);
        let s = &a.timers["x"];
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn merged_folds_many_node_reports() {
        let reports: Vec<TelemetryReport> = (0..3)
            .map(|i| {
                let t = Telemetry::new();
                t.add("served", 10 + i);
                t.record("latency_ms", i as f64);
                t.drain()
            })
            .collect();
        let fleet = TelemetryReport::merged(reports);
        assert_eq!(fleet.counters["served"], 33);
        assert_eq!(fleet.timers["latency_ms"].count, 3);
        assert_eq!(TelemetryReport::merged([]).counters.len(), 0);
    }

    #[test]
    fn upload_queue_defers_until_wifi() {
        let t = Telemetry::new();
        t.incr("q");
        let mut q = UploadQueue::new();
        q.push(t.drain());
        assert!(q.try_upload(false).is_empty(), "metered link: hold");
        assert_eq!(q.pending(), 1);
        let sent = q.try_upload(true);
        assert_eq!(sent.len(), 1);
        assert_eq!(q.pending(), 0);
        assert!(q.uploaded_bytes > 0);
    }

    #[test]
    fn upload_queue_non_bulk_backoff_preserves_order() {
        let mut q = UploadQueue::new();
        for i in 0..3u64 {
            let t = Telemetry::new();
            t.add("seq", i + 1);
            q.push(t.drain());
        }
        // Metered link: repeated refusals neither drain nor reorder.
        for _ in 0..5 {
            assert!(q.try_upload(false).is_empty());
        }
        assert_eq!(q.pending(), 3);
        assert_eq!(q.uploaded, 0);
        assert_eq!(q.uploaded_bytes, 0);
        // Bulk drain ships everything at once, FIFO.
        let sent = q.try_upload(true);
        let seqs: Vec<u64> = sent.iter().map(|r| r.counters["seq"]).collect();
        assert_eq!(seqs, vec![1, 2, 3], "drain preserves push order");
        assert_eq!(q.uploaded, 3);
        assert_eq!(
            q.uploaded_bytes,
            sent.iter().map(TelemetryReport::wire_bytes).sum::<usize>()
        );
        // An empty bulk drain is free: no phantom uploads or bytes.
        assert!(q.try_upload(true).is_empty());
        assert_eq!(q.uploaded, 3);
    }

    #[test]
    fn upload_queue_empty_reports_cost_nothing() {
        let mut q = UploadQueue::new();
        q.push(TelemetryReport::empty());
        let sent = q.try_upload(true);
        assert_eq!(sent.len(), 1);
        assert_eq!(q.uploaded_bytes, 0, "empty report has zero wire bytes");
    }

    #[test]
    fn telemetry_is_shareable_across_threads() {
        use std::sync::Arc;
        let t = Arc::new(Telemetry::new());
        let t2 = Arc::clone(&t);
        let c = t.counter_id("fast");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.incr("q");
                        t.incr_id(c);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t2.counter("q"), 4000);
        assert_eq!(t2.counter("fast"), 4000);
    }
}
