//! Property-based tests for the telemetry fold paths and histograms.
//!
//! The sharded/live serving fabrics never ship raw samples: per-node
//! sinks summarize locally and the platform re-absorbs summaries
//! (`RunningStats::from_summary` / `Telemetry::record_summary`) or sparse
//! histogram snapshots. These properties guard that the folds are
//! order-insensitive and agree with having recorded the raw stream
//! directly.

use proptest::prelude::*;
use tinymlops_observe::telemetry::TimerSummary;
use tinymlops_observe::{LogHistogram, Telemetry};
use tinymlops_tensor::stats::RunningStats;

fn summarize(xs: &[f64]) -> TimerSummary {
    let mut s = RunningStats::new();
    for &v in xs {
        s.push(v);
    }
    TimerSummary {
        count: s.count(),
        mean: s.mean(),
        std: s.std_dev(),
        min: s.min(),
        max: s.max(),
    }
}

/// Absorb summaries one by one into a fresh sink and read the result.
fn fold(summaries: &[TimerSummary]) -> TimerSummary {
    let t = Telemetry::new();
    for s in summaries {
        t.record_summary("m", s);
    }
    t.snapshot()
        .timers
        .get("m")
        .cloned()
        .unwrap_or(TimerSummary {
            count: 0,
            mean: 0.0,
            std: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    /// `record_summary` of per-chunk summaries matches recording the raw
    /// concatenated stream, within floating-point tolerance.
    #[test]
    fn record_summary_matches_direct_recording(
        xs in proptest::collection::vec(-1e4f64..1e4, 1..64),
        ys in proptest::collection::vec(-1e4f64..1e4, 1..64),
        zs in proptest::collection::vec(-1e4f64..1e4, 0..64),
    ) {
        let direct = Telemetry::new();
        for &v in xs.iter().chain(&ys).chain(&zs) {
            direct.record("m", v);
        }
        let want = direct.snapshot().timers["m"].clone();
        let chunks = [summarize(&xs), summarize(&ys), summarize(&zs)];
        let got = fold(&chunks);
        prop_assert_eq!(got.count, want.count);
        prop_assert!(close(got.mean, want.mean, 1e-9), "{} vs {}", got.mean, want.mean);
        prop_assert!(close(got.std, want.std, 1e-6), "{} vs {}", got.std, want.std);
        prop_assert_eq!(got.min, want.min);
        prop_assert_eq!(got.max, want.max);
    }

    /// Folding summaries is associative: (a ⊕ b) ⊕ c ≈ a ⊕ (b ⊕ c).
    #[test]
    fn summary_merge_is_associative(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..48),
        ys in proptest::collection::vec(-1e3f64..1e3, 1..48),
        zs in proptest::collection::vec(-1e3f64..1e3, 1..48),
    ) {
        let (a, b, c) = (summarize(&xs), summarize(&ys), summarize(&zs));
        let left = fold(&[fold(&[a.clone(), b.clone()]), c.clone()]);
        let right = fold(&[a, fold(&[b, c])]);
        prop_assert_eq!(left.count, right.count);
        prop_assert!(close(left.mean, right.mean, 1e-9));
        prop_assert!(close(left.std, right.std, 1e-6));
        prop_assert_eq!(left.min, right.min);
        prop_assert_eq!(left.max, right.max);
    }

    /// `RunningStats::from_summary` round-trips a summary exactly enough
    /// that re-merging it is indistinguishable from the original stream.
    #[test]
    fn from_summary_round_trip(
        xs in proptest::collection::vec(-1e4f64..1e4, 2..96),
    ) {
        let s = summarize(&xs);
        let back = RunningStats::from_summary(s.count, s.mean, s.std, s.min, s.max);
        prop_assert_eq!(back.count(), xs.len() as u64);
        prop_assert!(close(back.mean(), s.mean, 1e-12));
        prop_assert!(close(back.std_dev(), s.std, 1e-9));
        prop_assert_eq!(back.min(), s.min);
        prop_assert_eq!(back.max(), s.max);
    }

    /// The single-writer fold-in (what the serve engine does): accumulating
    /// an epoch's events locally and landing them with one `add_id` /
    /// `merge_timer_id` / `merge_hist_id` is bit-identical to recording
    /// each event through `incr_id` / `record_id` / `record_hist_id` when
    /// the lanes start empty, and within the pooled-variance tolerance
    /// when a second epoch folds in without a drain in between.
    #[test]
    fn local_fold_in_matches_per_event_recording(
        first in proptest::collection::vec((0u64..5_000_000, -1e4f64..1e4), 1..96),
        second in proptest::collection::vec((0u64..5_000_000, -1e4f64..1e4), 0..96),
    ) {
        let per_event = Telemetry::new();
        let folded = Telemetry::new();
        let handles = |t: &Telemetry| (t.counter_id("c"), t.timer_id("t"), t.hist_id("h"));
        let (pc, pt, ph) = handles(&per_event);
        let (fc, ft, fh) = handles(&folded);
        let mut exact = true;
        for epoch in [&first, &second] {
            let (mut n, mut series, mut hist) = (0u64, RunningStats::new(), LogHistogram::new());
            for &(us, ms) in epoch {
                per_event.incr_id(pc);
                per_event.record_id(pt, ms);
                per_event.record_hist_id(ph, us);
                n += 1;
                series.push(ms);
                hist.record(us);
            }
            folded.add_id(fc, n);
            folded.merge_timer_id(ft, &series);
            folded.merge_hist_id(fh, &hist);
            let (got, want) = (folded.snapshot(), per_event.snapshot());
            if exact {
                prop_assert_eq!(&got, &want, "fold into empty lanes is bit-exact");
            } else {
                prop_assert_eq!(&got.counters, &want.counters);
                prop_assert_eq!(&got.hists, &want.hists);
                let (g, w) = (&got.timers["t"], &want.timers["t"]);
                prop_assert_eq!(g.count, w.count);
                prop_assert!(close(g.mean, w.mean, 1e-9), "{} vs {}", g.mean, w.mean);
                prop_assert!(close(g.std, w.std, 1e-6), "{} vs {}", g.std, w.std);
                prop_assert_eq!((g.min, g.max), (w.min, w.max));
            }
            exact = false;
        }
    }

    /// Histogram merge is exact: merging per-node histograms equals one
    /// histogram over the concatenated stream, and summaries round-trip
    /// counts and quantiles.
    #[test]
    fn histogram_merge_is_exact(
        xs in proptest::collection::vec(0u64..2_000_000, 0..96),
        ys in proptest::collection::vec(0u64..2_000_000, 0..96),
    ) {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for &v in &xs {
            a.record(v);
            both.record(v);
        }
        for &v in &ys {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &both);
        let summary = both.to_summary();
        let back = LogHistogram::from_summary(&summary);
        prop_assert_eq!(back.count(), both.count());
        for pct in [50.0, 95.0, 99.0, 99.9] {
            prop_assert_eq!(back.quantile(pct), both.quantile(pct));
        }
    }

    /// Histogram quantiles agree with the exact nearest-rank percentile
    /// within one bucket width — the bound e19 asserts fleet-wide.
    #[test]
    fn histogram_quantile_within_one_bucket(
        mut xs in proptest::collection::vec(0u64..50_000_000, 1..128),
        pct in 1.0f64..100.0,
    ) {
        let mut h = LogHistogram::new();
        for &v in &xs {
            h.record(v);
        }
        xs.sort_unstable();
        let rank = ((pct / 100.0) * xs.len() as f64).ceil() as usize;
        let exact = xs[rank.clamp(1, xs.len()) - 1];
        let got = h.quantile(pct);
        let width = h.quantile_width(pct);
        prop_assert!(
            got <= exact && exact < got + width,
            "p{}: hist {} exact {} width {}", pct, got, exact, width
        );
    }
}
