//! The staged drive: the serving engine's request walk re-assembled from
//! the layers' public functions, so each call can carry a span.
//!
//! `ServeEngine` is crate-private, so the benchmark owns a single-node
//! loop over the workload's stream that makes the same calls in the same
//! order — `Gateway::admit` → `MicroBatcher::push`/`flush_due` →
//! `Router::route_affine` → `ModelCache::get`/`admit` →
//! `ExecModel::predict` → `Router::occupy` → `Gateway::resolve` →
//! `ServeStats::on_served` — with a timer heap and in-flight slab of its
//! own. It must produce the same `ServeReport` as `ServeSim::run` on an
//! identical plane (checked by the caller), so a statement about the
//! engine's residual is a statement about the same work. Planes off: no
//! observer, faults, brownout, controller or fleet churn.

use crate::inputs::{family_name, family_records, fleet, record_id};
use crate::trace::{Stage, Tracer, NO_REQUEST, NO_SPAN};
use crate::workloads::Inputs;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;
use tinymlops_registry::{ModelFormat, ModelId};
use tinymlops_serve::{
    Batch, ExecModel, FlushTrigger, PushOutcome, Request, ServeConfig, ServePlane, ServeReport,
    ServeSim, ServeStats, ShedReason,
};
use tinymlops_tensor::Tensor;

/// The serving configuration of the one node that stands in for the
/// workload's fabric: the same policy, with the global pending ceiling
/// multiplied by the active node count — one gateway now fronts every
/// node's devices, and keeping one node's ceiling would turn a 5 % shed
/// workload into a 60 % one.
pub fn single_plane_config(inputs: &Inputs) -> ServeConfig {
    let mut cfg = inputs.cfg.serve.clone();
    cfg.gateway.max_total_pending *= inputs.cfg.node_weights.len();
    cfg
}

/// One serving node holding the workload's whole device population and
/// catalog, provisioned like the fabric provisions — what both the
/// staged drive and the `ServeSim::run` it is compared with start from.
pub fn single_plane(inputs: &Inputs) -> (ServePlane, BTreeMap<ModelId, ExecModel>) {
    let cfg = &single_plane_config(inputs);
    let mut plane = ServePlane::new(cfg, fleet(inputs.devices));
    let mut execs = BTreeMap::new();
    for family in 0..inputs.families {
        plane.install_family(&family_name(family), family_records(family));
        if let Some(models) = &inputs.execs {
            for (variant, model) in models.iter().enumerate() {
                plane.install_executable(record_id(family, variant), model.clone());
                execs.insert(record_id(family, variant), model.clone());
            }
        }
    }
    ServeSim::new(cfg.clone(), None).provision(&mut plane, &inputs.plan);
    (plane, execs)
}

/// Heap-ordered timer of the drive (the engine's `Timer`, planes off).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Flush(String),
    BatchDone(usize),
}

struct InFlight {
    requests: Vec<Request>,
    done_us: u64,
}

/// Counts taken at the layer boundaries, where the work happens.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveCounts {
    /// Batches flushed by the size trigger.
    pub size_flushes: u64,
    /// Batches flushed by the deadline trigger.
    pub deadline_flushes: u64,
    /// Batches no device could take.
    pub no_route_batches: u64,
    /// Batches dispatched per variant (f32, int8, int2).
    pub variant_batches: [u64; 3],
    /// Rows pushed through `ExecModel::predict`.
    pub predicted_rows: u64,
    /// Wall nanoseconds of `ServeStats::report` at the end.
    pub report_ns: u64,
}

/// What one drive produced.
pub struct DriveResult {
    /// The same report `ServeSim::run` assembles.
    pub report: ServeReport,
    /// Wall nanoseconds of the whole drive (report excluded).
    pub wall_ns: u64,
    /// Boundary counts.
    pub counts: DriveCounts,
}

struct Drive<'a> {
    cfg: &'a ServeConfig,
    plane: &'a mut ServePlane,
    execs: &'a BTreeMap<ModelId, ExecModel>,
    tracer: &'a mut Tracer,
    stats: ServeStats,
    timers: BinaryHeap<Reverse<(u64, u64, Timer)>>,
    seq: u64,
    inflight: Vec<Option<InFlight>>,
    counts: DriveCounts,
}

impl Drive<'_> {
    fn arm(&mut self, at_us: u64, timer: Timer) {
        self.timers.push(Reverse((at_us, self.seq, timer)));
        self.seq += 1;
    }

    fn run_timers_through(&mut self, t_us: u64) {
        while self
            .timers
            .peek()
            .is_some_and(|Reverse((at, _, _))| *at <= t_us)
        {
            let Reverse((now, _, timer)) = self.timers.pop().expect("peeked");
            match timer {
                Timer::Flush(family) => {
                    let span = self.tracer.begin(Stage::BatcherFlush, NO_SPAN, NO_REQUEST);
                    let batch = self.plane.batcher.flush_due(&family, now);
                    self.tracer.end(span);
                    if let Some(batch) = batch {
                        self.dispatch(batch, now);
                    }
                }
                Timer::BatchDone(idx) => {
                    let done = self.inflight[idx].take().expect("completes once");
                    for r in &done.requests {
                        let span = self.tracer.begin(Stage::GatewayResolve, NO_SPAN, r.id);
                        self.plane.gateway.resolve(r.tenant);
                        self.tracer.end(span);
                        let span = self.tracer.begin(Stage::StatsRecord, NO_SPAN, r.id);
                        self.stats
                            .on_served(done.done_us - r.arrival_us, done.done_us);
                        self.tracer.end(span);
                    }
                }
            }
        }
    }

    fn on_arrival(&mut self, request: &Request) {
        self.stats.on_arrival(request.arrival_us);
        let span = self.tracer.begin(Stage::GatewayAdmit, NO_SPAN, request.id);
        let admitted = self.plane.gateway.admit(request);
        self.tracer.end(span);
        if let Err(reason) = admitted {
            self.tracer.relabel(span, Stage::GatewayShed);
            self.stats.on_shed(reason);
            return;
        }
        // The admission-time copy is a request move, not batcher work.
        let owned = request.clone();
        let span = self.tracer.begin(Stage::BatcherPush, NO_SPAN, request.id);
        let outcome = self.plane.batcher.push(owned);
        self.tracer.end(span);
        match outcome {
            PushOutcome::Flushed(batch) => self.dispatch(batch, request.arrival_us),
            PushOutcome::Queued {
                flush_at_us: Some(at_us),
            } => self.arm(at_us, Timer::Flush(request.model.clone())),
            PushOutcome::Queued { flush_at_us: None } => {}
        }
    }

    fn shed_admitted(&mut self, requests: &[Request], reason: ShedReason, now: u64, batch: u32) {
        for r in requests {
            let span = self.tracer.begin(Stage::GatewayRefund, batch, r.id);
            self.plane.gateway.resolve_shed(r.tenant, now / 1000);
            self.tracer.end(span);
            self.stats.on_shed(reason);
        }
    }

    fn dispatch(&mut self, batch: Batch, now: u64) {
        match batch.trigger {
            FlushTrigger::Size => self.counts.size_flushes += 1,
            FlushTrigger::Deadline | FlushTrigger::Drain => self.counts.deadline_flushes += 1,
        }
        let batch_span = self.tracer.begin(Stage::Dispatch, NO_SPAN, NO_REQUEST);
        let (live, expired): (Vec<Request>, Vec<Request>) = batch
            .requests
            .into_iter()
            .partition(|r| r.deadline_abs_us() >= now);
        self.shed_admitted(&expired, ShedReason::DeadlineExpired, now, batch_span);
        if live.is_empty() {
            self.tracer.end(batch_span);
            return;
        }
        let span = self
            .tracer
            .begin(Stage::RouterRoute, batch_span, NO_REQUEST);
        let route = if self.cfg.affinity_routing {
            self.plane.router.route_affine(
                &batch.model,
                now,
                &self.plane.cache,
                self.cfg.cache_load_bytes_per_ms,
            )
        } else {
            self.plane.router.route(&batch.model, now)
        };
        self.tracer.end(span);
        let Some(route) = route else {
            self.counts.no_route_batches += 1;
            self.shed_admitted(&live, ShedReason::NoRoute, now, batch_span);
            self.tracer.end(batch_span);
            return;
        };
        self.stats.on_batch(live.len());
        let record = &route.selection.record;
        self.counts.variant_batches[match record.format {
            ModelFormat::F32 => 0,
            ModelFormat::Quantized { bits: 8 } => 1,
            _ => 2,
        }] += 1;

        let span = self
            .tracer
            .begin(Stage::CacheLookup, batch_span, NO_REQUEST);
        let hit = self.plane.cache.get(record.id).is_some();
        let load_us = if hit {
            0
        } else {
            self.plane.cache.admit(record.clone());
            let ms = record.size_bytes as f64 / self.cfg.cache_load_bytes_per_ms.max(1) as f64;
            (ms * 1000.0) as u64
        };
        self.tracer.end(span);

        if let Some(exec) = self.execs.get(&record.id) {
            let dim = live.iter().find_map(|r| r.features.as_ref().map(Vec::len));
            if let Some(dim) = dim {
                let mut data = Vec::with_capacity(live.len() * dim);
                let mut rows = 0;
                for features in live.iter().filter_map(|r| r.features.as_ref()) {
                    if features.len() == dim {
                        data.extend_from_slice(features);
                        rows += 1;
                    }
                }
                let x = Tensor::from_vec(data, &[rows, dim]);
                let span = self.tracer.begin(Stage::Predict, batch_span, NO_REQUEST);
                let predictions = exec.predict(&x);
                self.tracer.end(span);
                self.stats.real_predictions += predictions.len() as u64;
                self.counts.predicted_rows += predictions.len() as u64;
            }
        }

        let per_item_us = (route.selection.latency_ms * 1000.0) as u64;
        let service_us = self.cfg.dispatch_overhead_us + load_us + per_item_us * live.len() as u64;
        let span = self
            .tracer
            .begin(Stage::RouterOccupy, batch_span, NO_REQUEST);
        let start = self.plane.router.free_at(route.device_index, now);
        let done_us = start + service_us.max(1);
        self.plane.router.occupy(route.device_index, done_us);
        self.tracer.end(span);
        let energy = route.selection.energy_mj * live.len() as f64;
        let _ = self.plane.router.fleet.devices[route.device_index]
            .state
            .battery
            .drain_mj(energy);

        let idx = self.inflight.len();
        self.inflight.push(Some(InFlight {
            requests: live,
            done_us,
        }));
        self.arm(done_us, Timer::BatchDone(idx));
        self.tracer.end(batch_span);
    }
}

/// Drive `stream` through `plane` stage by stage, recording one span per
/// layer call into `tracer` (pass [`Tracer::disabled`] for the untraced
/// measurement of the same drive).
pub fn drive(
    cfg: &ServeConfig,
    plane: &mut ServePlane,
    execs: &BTreeMap<ModelId, ExecModel>,
    stream: &[Request],
    tracer: &mut Tracer,
) -> DriveResult {
    let mut d = Drive {
        cfg,
        plane,
        execs,
        tracer,
        stats: ServeStats::new(),
        timers: BinaryHeap::new(),
        seq: 0,
        inflight: Vec::new(),
        counts: DriveCounts::default(),
    };
    let start = Instant::now();
    for request in stream {
        d.run_timers_through(request.arrival_us);
        d.on_arrival(request);
    }
    d.run_timers_through(u64::MAX);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let report_start = Instant::now();
    let report = d.stats.report(
        d.plane.cache.hits(),
        d.plane.cache.misses(),
        d.plane.router.devices_used(),
    );
    d.counts.report_ns = report_start.elapsed().as_nanos() as u64;
    DriveResult {
        report,
        wall_ns,
        counts: d.counts,
    }
}

/// Upper bound on the spans a drive over `requests` arrivals records:
/// admit + push + resolve + on_served per request, plus at most five per
/// batch — and a batch holds at least one request.
pub fn span_capacity(requests: usize) -> usize {
    requests * 9 + 16
}
