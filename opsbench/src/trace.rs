//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, and the span that caused it; spans of one
//! request share its id. Spans live in a pre-allocated buffer and are
//! written out as JSON when the run ends. A stage's *self* time is its
//! spans' duration minus the part their child spans cover, minus the
//! calibrated cost of the spans themselves.

use std::io::Write;
use std::time::Instant;

/// A layer boundary the staged drive records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// `Gateway::admit` that admitted (quota consume + HMAC append).
    GatewayAdmit,
    /// `Gateway::admit` that refused (the cheap-shed path).
    GatewayShed,
    /// `Gateway::resolve` of a served request.
    GatewayResolve,
    /// `Gateway::resolve_shed` (refund chain entry).
    GatewayRefund,
    /// `MicroBatcher::push`.
    BatcherPush,
    /// `MicroBatcher::flush_due` from a deadline timer.
    BatcherFlush,
    /// One dispatched batch; parents route/cache/predict/occupy.
    Dispatch,
    /// `Router::route_affine`.
    RouterRoute,
    /// `Router::free_at` + `Router::occupy`.
    RouterOccupy,
    /// `ModelCache::get` (+ `admit` on a miss).
    CacheLookup,
    /// `ExecModel::predict` (real inference).
    Predict,
    /// `ServeStats::on_served`.
    StatsRecord,
    /// Calibration only: an empty span.
    Empty,
}

impl Stage {
    /// Every stage, in discriminant order.
    pub const ALL: [Stage; 13] = [
        Stage::GatewayAdmit,
        Stage::GatewayShed,
        Stage::GatewayResolve,
        Stage::GatewayRefund,
        Stage::BatcherPush,
        Stage::BatcherFlush,
        Stage::Dispatch,
        Stage::RouterRoute,
        Stage::RouterOccupy,
        Stage::CacheLookup,
        Stage::Predict,
        Stage::StatsRecord,
        Stage::Empty,
    ];

    /// Span name in the written file: `<layer module>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::GatewayAdmit => "gateway.admit",
            Stage::GatewayShed => "gateway.shed",
            Stage::GatewayResolve => "gateway.resolve",
            Stage::GatewayRefund => "gateway.refund",
            Stage::BatcherPush => "batcher.push",
            Stage::BatcherFlush => "batcher.flush_due",
            Stage::Dispatch => "engine.dispatch",
            Stage::RouterRoute => "router.route_affine",
            Stage::RouterOccupy => "router.occupy",
            Stage::CacheLookup => "cache.lookup",
            Stage::Predict => "exec.predict",
            Stage::StatsRecord => "stats.on_served",
            Stage::Empty => "trace.empty",
        }
    }
}

/// Index of a recorded span (`u32::MAX` = none).
pub type SpanId = u32;
/// "No parent" / "tracing off".
pub const NO_SPAN: SpanId = u32::MAX;
/// "No request" (a batch-level span).
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The boundary.
    pub stage: Stage,
    /// The span that caused this one ([`NO_SPAN`] at top level).
    pub parent: SpanId,
    /// The request it served ([`NO_REQUEST`] for batch-level spans).
    pub request: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Calibrated cost of one span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// Nanoseconds that land *inside* an empty span's own interval.
    pub inside_ns: f64,
    /// Nanoseconds one empty span adds to its parent's interval.
    pub total_ns: f64,
}

/// Per-stage aggregate over a span buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotal {
    /// Spans recorded.
    pub calls: u64,
    /// Σ (duration − children), span cost subtracted, floored at 0.
    pub self_ns: f64,
}

impl StageTotal {
    /// Mean self time per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns / self.calls as f64
        }
    }
}

/// The span recorder. Disabled, every call is a branch and nothing else,
/// so one drive serves both the traced and the untraced measurement.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// A recorder with room for `capacity` spans (pre-allocated, so
    /// recording never reallocates inside a measured interval).
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            enabled: true,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; the start is read last so the push is outside it.
    #[inline]
    pub fn begin(&mut self, stage: Stage, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            stage,
            parent,
            request,
            start_ns: 0,
            end_ns: 0,
        });
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Close a span; the end is read first.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Re-label a closed span once the call's outcome is known.
    #[inline]
    pub fn relabel(&mut self, id: SpanId, stage: Stage) {
        if id != NO_SPAN {
            self.spans[id as usize].stage = stage;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Measure what a span costs: `n` empty spans under one parent. The
    /// mean child duration is the cost inside a span's own interval; the
    /// parent's duration per child is what a span adds to its parent.
    pub fn calibrate(n: usize) -> SpanCost {
        let mut tracer = Tracer::with_capacity(n + 1);
        let parent = tracer.begin(Stage::Empty, NO_SPAN, NO_REQUEST);
        for _ in 0..n {
            let child = tracer.begin(Stage::Empty, parent, NO_REQUEST);
            tracer.end(child);
        }
        tracer.end(parent);
        let spans = tracer.spans();
        let inside: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        let n = n.max(1) as f64;
        SpanCost {
            inside_ns: inside as f64 / n,
            total_ns: (spans[0].end_ns - spans[0].start_ns) as f64 / n,
        }
    }
}

/// Self time per stage: each span's duration minus its children's, minus
/// the calibrated span cost (its own inside cost, plus what each child
/// span added around its own interval).
pub fn self_times(spans: &[Span], cost: SpanCost) -> [StageTotal; Stage::ALL.len()] {
    let mut child_ns = vec![0u64; spans.len()];
    let mut children = vec![0u32; spans.len()];
    for span in spans {
        if span.parent != NO_SPAN {
            child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            children[span.parent as usize] += 1;
        }
    }
    let around_child_ns = (cost.total_ns - cost.inside_ns).max(0.0);
    let mut totals = [StageTotal::default(); Stage::ALL.len()];
    for (i, span) in spans.iter().enumerate() {
        let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]) as f64;
        let corrected = own - cost.inside_ns - f64::from(children[i]) * around_child_ns;
        let total = &mut totals[span.stage as usize];
        total.calls += 1;
        total.self_ns += corrected.max(0.0);
    }
    totals
}

/// At most this many spans are written to the file (the aggregates cover
/// all of them): a 300 k-request drive records ~1.5 M spans, and 60 MB of
/// JSON per traced run helps nobody.
pub const MAX_SPANS_WRITTEN: usize = 200_000;

/// Write the span buffer as one JSON object: the stage names, then
/// `[stage, parent, request, start_ns, end_ns]` rows (`-1` = none).
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    cost: SpanCost,
    spans: &[Span],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let names: Vec<String> = Stage::ALL
        .iter()
        .map(|s| format!("\"{}\"", s.name()))
        .collect();
    let written = spans.len().min(MAX_SPANS_WRITTEN);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"span_cost_ns\":{:.3},\"span_inside_ns\":{:.3},\
         \"spans_recorded\":{},\"spans_written\":{written},\"stages\":[{}],\
         \"columns\":[\"stage\",\"parent\",\"request\",\"start_ns\",\"end_ns\"],\"spans\":[",
        cost.total_ns,
        cost.inside_ns,
        spans.len(),
        names.join(","),
    )?;
    for (i, s) in spans[..written].iter().enumerate() {
        let parent = if s.parent == NO_SPAN {
            -1
        } else {
            i64::from(s.parent)
        };
        let request = if s.request == NO_REQUEST {
            -1
        } else {
            s.request as i64
        };
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}[{},{parent},{request},{},{}]",
            s.stage as u8, s.start_ns, s.end_ns
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            stage,
            parent,
            request: NO_REQUEST,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_on_a_hand_built_tree() {
        // dispatch [0,1000] ─┬─ route [100,300]
        //                    ├─ cache [300,350]
        //                    └─ predict [400,900]
        // admit [2000,2500] stands alone.
        let spans = [
            span(Stage::Dispatch, NO_SPAN, 0, 1000),
            span(Stage::RouterRoute, 0, 100, 300),
            span(Stage::CacheLookup, 0, 300, 350),
            span(Stage::Predict, 0, 400, 900),
            span(Stage::GatewayAdmit, NO_SPAN, 2000, 2500),
        ];
        let free = SpanCost {
            inside_ns: 0.0,
            total_ns: 0.0,
        };
        let totals = self_times(&spans, free);
        assert_eq!(totals[Stage::Dispatch as usize].self_ns, 250.0);
        assert_eq!(totals[Stage::RouterRoute as usize].self_ns, 200.0);
        assert_eq!(totals[Stage::CacheLookup as usize].self_ns, 50.0);
        assert_eq!(totals[Stage::Predict as usize].self_ns, 500.0);
        assert_eq!(totals[Stage::GatewayAdmit as usize].self_ns, 500.0);
        assert_eq!(totals[Stage::GatewayAdmit as usize].calls, 1);
        assert_eq!(totals[Stage::GatewayShed as usize].calls, 0);

        // With a span cost: every span loses its inside cost, and the
        // parent also loses what each child added around its interval.
        let cost = SpanCost {
            inside_ns: 20.0,
            total_ns: 50.0,
        };
        let totals = self_times(&spans, cost);
        assert_eq!(
            totals[Stage::Dispatch as usize].self_ns,
            250.0 - 20.0 - 3.0 * 30.0
        );
        assert_eq!(totals[Stage::Predict as usize].self_ns, 480.0);
        // Never negative: a 50 ns span under a 60 ns inside cost is 0.
        let tiny = [span(Stage::CacheLookup, NO_SPAN, 0, 50)];
        let heavy = SpanCost {
            inside_ns: 60.0,
            total_ns: 60.0,
        };
        assert_eq!(
            self_times(&tiny, heavy)[Stage::CacheLookup as usize].self_ns,
            0.0
        );
    }

    #[test]
    fn tracer_records_parents_and_disabled_records_nothing() {
        let mut tracer = Tracer::with_capacity(4);
        let batch = tracer.begin(Stage::Dispatch, NO_SPAN, NO_REQUEST);
        let route = tracer.begin(Stage::RouterRoute, batch, 7);
        tracer.end(route);
        tracer.end(batch);
        tracer.relabel(route, Stage::CacheLookup);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, batch);
        assert_eq!(spans[1].request, 7);
        assert_eq!(spans[1].stage, Stage::CacheLookup);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::disabled();
        let id = off.begin(Stage::Dispatch, NO_SPAN, NO_REQUEST);
        off.end(id);
        assert_eq!(id, NO_SPAN);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn stage_discriminants_index_the_all_table() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i);
        }
    }
}
