//! B01 — kernel and serving-plane performance, as a tracked artifact.
//!
//! The ROADMAP's "as fast as the hardware allows" is unfalsifiable without
//! numbers: this harness times the hot kernels every experiment funnels
//! through — f32 GEMM (packed tiles vs the seed row-streaming kernel, on
//! shapes spanning the parallelism threshold and remainder tiles), QDense
//! integer forward at 8/4/2 bits (restructured vs the seed scalar loop),
//! whole-model `Sequential`/`QuantizedModel` forwards, and an end-to-end
//! e15-style serving replay — and appends one run record to
//! `results/BENCH_kernels.json`. The schema is before/after-friendly:
//! entries carry stable ids, so any later perf PR reruns this binary and
//! diffs the same ids across runs.
//!
//! `--quick` shrinks shapes and reps to CI-smoke size (the JSON is still
//! written and self-parsed, so the harness cannot rot unnoticed).

use rayon::pool::{configure_threads, effective_threads, with_dispatch, Dispatch};
use std::time::Instant;
use tinymlops_bench::{fmt, print_table, synthetic_family, synthetic_family_xnor};
use tinymlops_nn::model::mlp;
use tinymlops_observe::{LogHistogram, Telemetry};
use tinymlops_quant::{QDense, QuantScheme, QuantizedModel};
use tinymlops_serve::{
    ExecConfig, FabricConfig, LoadPlan, ObserveConfig, ServeConfig, ServeFabric, ServePlane,
    ServeSim, TenantSpec,
};
use tinymlops_tensor::matmul::{
    gemm, gemm_naive, gemm_nt_row_stream, gemm_packed, gemm_packed_nt, gemm_row_stream,
};
use tinymlops_tensor::stats::RunningStats;
use tinymlops_tensor::{Tensor, TensorRng};

const SEED: u64 = 101;
const RESULTS_PATH: &str = "results/BENCH_kernels.json";

/// One benchmark datapoint; `baseline_id`/`speedup_vs_baseline` tie an
/// optimized kernel to the seed kernel measured in the same run.
struct Entry {
    id: String,
    group: &'static str,
    shape: String,
    reps: usize,
    ns_per_op: f64,
    /// `None` for entries where FLOP/s is not meaningful (serving replay).
    gflops: Option<f64>,
    baseline_id: Option<String>,
    speedup_vs_baseline: Option<f64>,
}

/// Mean ns per call over `reps` calls (after one warmup call).
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e9 / reps as f64
}

/// Best (minimum) of `rounds` timing rounds — for comparisons between
/// near-equal kernels, where one noisy round on a shared host would
/// otherwise record a phantom speedup or regression.
fn time_ns_best(rounds: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    (0..rounds.max(1))
        .map(|_| time_ns(reps, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Reps that keep one measurement around `target_ms`, clamped to ≥ 1.
fn reps_for(ns_estimate: f64, target_ms: f64) -> usize {
    ((target_ms * 1e6 / ns_estimate).ceil() as usize).max(1)
}

type GemmFn = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

fn bench_gemm_f32(quick: bool, entries: &mut Vec<Entry>) {
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(32, 32, 32), (96, 80, 72)]
    } else {
        // Spans the PAR/packing thresholds, remainder tiles (non-multiples
        // of MR/NR/KC) and the 256³ acceptance shape.
        &[
            (48, 48, 48),
            (128, 128, 128),
            (192, 176, 200),
            (256, 256, 256),
            (384, 300, 256),
        ]
    };
    let mut rng = TensorRng::seed(SEED);
    for &(m, k, n) in shapes {
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let b = rng.uniform(&[k, n], -1.0, 1.0);
        let mut c = vec![0.0f32; m * n];
        let flops = 2.0 * (m * k * n) as f64;
        let shape = format!("{m}x{k}x{n}");
        let probe = time_ns(1, || {
            c.fill(0.0);
            gemm_row_stream(a.data(), b.data(), &mut c, m, k, n);
        });
        let reps = if quick { 1 } else { reps_for(probe, 60.0) };

        let variants: &[(&str, GemmFn)] = &[
            ("rowstream", gemm_row_stream),
            ("packed", gemm_packed),
            ("dispatch", gemm),
        ];
        let mut row_ns = 0.0;
        for (tag, f) in variants {
            let ns = time_ns(reps, || {
                c.fill(0.0);
                f(a.data(), b.data(), &mut c, m, k, n);
            });
            if *tag == "rowstream" {
                row_ns = ns;
            }
            // The packed path must agree with the naive reference.
            if *tag == "packed" {
                let mut want = vec![0.0f32; m * n];
                gemm_naive(a.data(), b.data(), &mut want, m, k, n);
                let worst = c
                    .iter()
                    .zip(&want)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f32, f32::max);
                assert!(worst < 1e-2 * k as f32 / 64.0, "packed vs naive: {worst}");
            }
            entries.push(Entry {
                id: format!("gemm_f32_{shape}_{tag}"),
                group: "gemm_f32",
                shape: shape.clone(),
                reps,
                ns_per_op: ns,
                gflops: Some(flops / ns),
                baseline_id: (*tag != "rowstream").then(|| format!("gemm_f32_{shape}_rowstream")),
                speedup_vs_baseline: (*tag != "rowstream").then(|| row_ns / ns),
            });
        }
    }

    // Sparse A (~85% zeros): the dispatcher must keep the row-stream skip.
    let (m, k, n) = if quick { (64, 64, 64) } else { (256, 256, 256) };
    let a = rng
        .uniform(&[m, k], -1.0, 1.0)
        .map(|v| if v.abs() < 0.85 { 0.0 } else { v });
    let b = rng.uniform(&[k, n], -1.0, 1.0);
    let mut c = vec![0.0f32; m * n];
    let shape = format!("{m}x{k}x{n}@85%zero");
    let reps = if quick { 1 } else { 20 };
    let flops = 2.0 * (m * k * n) as f64;
    let sparse: &[(&str, GemmFn)] = &[("packed", gemm_packed), ("dispatch", gemm)];
    let mut packed_ns = 0.0;
    for (tag, f) in sparse {
        let ns = time_ns(reps, || {
            c.fill(0.0);
            f(a.data(), b.data(), &mut c, m, k, n);
        });
        if *tag == "packed" {
            packed_ns = ns;
        }
        entries.push(Entry {
            id: format!("gemm_f32_sparse_{tag}"),
            group: "gemm_f32_sparse",
            shape: shape.clone(),
            reps,
            ns_per_op: ns,
            gflops: Some(flops / ns),
            baseline_id: (*tag == "dispatch").then(|| "gemm_f32_sparse_packed".to_string()),
            speedup_vs_baseline: (*tag == "dispatch").then(|| packed_ns / ns),
        });
    }
}

/// Transposed-B GEMM (`grad_w` in training): the packed path (B-panels
/// filled by a blocked transpose) against the row-stream seed baseline.
fn bench_gemm_nt(quick: bool, entries: &mut Vec<Entry>) {
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(64, 64, 48)]
    } else {
        &[(256, 256, 256), (384, 300, 256)]
    };
    let mut rng = TensorRng::seed(SEED + 3);
    for &(m, k, n) in shapes {
        let a = rng.uniform(&[m, k], -1.0, 1.0);
        let bt = rng.uniform(&[n, k], -1.0, 1.0);
        let b = bt.transpose();
        let mut c = vec![0.0f32; m * n];
        let flops = 2.0 * (m * k * n) as f64;
        let shape = format!("{m}x{k}x{n}");
        let probe = time_ns(1, || {
            c.fill(0.0);
            gemm_nt_row_stream(a.data(), bt.data(), &mut c, m, k, n);
        });
        let reps = if quick { 1 } else { reps_for(probe, 60.0) };
        let rounds = if quick { 1 } else { 5 };
        let variants: &[(&str, GemmFn)] = &[
            ("rowstream", gemm_nt_row_stream),
            ("packed", gemm_packed_nt),
        ];
        let mut ns_of = [0.0f64; 2];
        for (vi, (tag, f)) in variants.iter().enumerate() {
            let ns = time_ns_best(rounds, reps, || {
                c.fill(0.0);
                f(a.data(), bt.data(), &mut c, m, k, n);
            });
            ns_of[vi] = ns;
            if *tag == "packed" {
                let mut want = vec![0.0f32; m * n];
                gemm_naive(a.data(), b.data(), &mut want, m, k, n);
                let worst = c
                    .iter()
                    .zip(&want)
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0f32, f32::max);
                assert!(
                    worst < 1e-2 * k as f32 / 64.0,
                    "packed nt vs naive: {worst}"
                );
            }
            let baseline = (*tag == "packed").then_some(("gemm_nt", "rowstream", ns_of[0]));
            entries.push(Entry {
                id: format!("gemm_nt_{shape}_{tag}"),
                group: "gemm_nt",
                shape: shape.clone(),
                reps,
                ns_per_op: ns,
                gflops: Some(flops / ns),
                baseline_id: baseline.map(|(g, b, _)| format!("{g}_{shape}_{b}")),
                speedup_vs_baseline: baseline.map(|(_, _, base_ns)| base_ns / ns),
            });
        }
    }
}

fn bench_qdense(quick: bool, entries: &mut Vec<Entry>) {
    let (out_d, in_d) = if quick { (64, 64) } else { (256, 256) };
    let batches: &[usize] = if quick { &[8] } else { &[1, 32, 64] };
    let mut rng = TensorRng::seed(SEED + 1);
    let w = rng.uniform(&[out_d, in_d], -1.0, 1.0);
    let bias = rng.uniform(&[out_d], -0.1, 0.1);
    for &batch in batches {
        let x = rng.uniform(&[batch, in_d], -1.0, 1.0);
        for bits in [8u32, 4, 2] {
            let q = QDense::quantize(&w, &bias, bits, 1.0 / 127.0);
            let shape = format!("b{batch}x{in_d}->{out_d}");
            let macs = (batch * in_d * out_d) as f64;
            let probe = time_ns(1, || {
                std::hint::black_box(q.forward_reference(&x));
            });
            let reps = if quick { 1 } else { reps_for(probe, 40.0) };
            let ref_ns = time_ns(reps, || {
                std::hint::black_box(q.forward_reference(&x));
            });
            let new_ns = time_ns(reps, || {
                std::hint::black_box(q.forward(&x));
            });
            // The restructured kernel is bit-identical, not just close.
            assert_eq!(
                q.forward(&x).data(),
                q.forward_reference(&x).data(),
                "int{bits} kernels diverge"
            );
            let ref_id = format!("qdense_int{bits}_{shape}_reference");
            entries.push(Entry {
                id: ref_id.clone(),
                group: "qdense",
                shape: shape.clone(),
                reps,
                ns_per_op: ref_ns,
                gflops: Some(2.0 * macs / ref_ns),
                baseline_id: None,
                speedup_vs_baseline: None,
            });
            entries.push(Entry {
                id: format!("qdense_int{bits}_{shape}_tuned"),
                group: "qdense",
                shape,
                reps,
                ns_per_op: new_ns,
                gflops: Some(2.0 * macs / new_ns),
                baseline_id: Some(ref_id),
                speedup_vs_baseline: Some(ref_ns / new_ns),
            });
        }
    }
}

/// The explicit `vpmaddwd`-shaped AVX2 int8 kernel vs the autovectorized
/// widening-multiply row kernel it replaced, on the QDense batched path.
/// The autovec path is retained as `forward_autovec` purely so this
/// before/after lands in one run; both are asserted bit-identical first.
/// Acceptance: maddwd wins at batch ≥ 8 (single-row calls are dominated
/// by quantize/dequantize traffic, not MACs).
fn bench_dot_maddwd(quick: bool, entries: &mut Vec<Entry>) {
    let (out_d, in_d) = if quick { (64, 64) } else { (256, 256) };
    let batches: &[usize] = if quick { &[8] } else { &[1, 8, 32] };
    let mut rng = TensorRng::seed(SEED + 5);
    let w = rng.uniform(&[out_d, in_d], -1.0, 1.0);
    let bias = rng.uniform(&[out_d], -0.1, 0.1);
    let q = QDense::quantize(&w, &bias, 8, 1.0 / 127.0);
    for &batch in batches {
        let x = rng.uniform(&[batch, in_d], -1.0, 1.0);
        assert_eq!(
            q.forward(&x).data(),
            q.forward_autovec(&x).data(),
            "maddwd kernel diverges from autovec"
        );
        let shape = format!("b{batch}x{in_d}->{out_d}");
        let macs = (batch * in_d * out_d) as f64;
        let probe = time_ns(1, || {
            std::hint::black_box(q.forward_autovec(&x));
        });
        let reps = if quick { 1 } else { reps_for(probe, 40.0) };
        let rounds = if quick { 1 } else { 5 };
        let auto_ns = time_ns_best(rounds, reps, || {
            std::hint::black_box(q.forward_autovec(&x));
        });
        let maddwd_ns = time_ns_best(rounds, reps, || {
            std::hint::black_box(q.forward(&x));
        });
        let base_id = format!("dot_i8_{shape}_autovec");
        entries.push(Entry {
            id: base_id.clone(),
            group: "dot_i8_maddwd",
            shape: shape.clone(),
            reps,
            ns_per_op: auto_ns,
            gflops: Some(2.0 * macs / auto_ns),
            baseline_id: None,
            speedup_vs_baseline: None,
        });
        entries.push(Entry {
            id: format!("dot_i8_{shape}_maddwd"),
            group: "dot_i8_maddwd",
            shape,
            reps,
            ns_per_op: maddwd_ns,
            gflops: Some(2.0 * macs / maddwd_ns),
            baseline_id: Some(base_id),
            speedup_vs_baseline: Some(auto_ns / maddwd_ns),
        });
    }
}

/// Whole-model quantized forward, three ways: f32, the unfused per-layer
/// int8 path (quantize/dequantize at every boundary), and the fused
/// integer-domain forward (activations stay i8 across Dense→ReLU→Dense,
/// scales bridged by fixed-point requantization). The ROADMAP measurement
/// this targets: boundary traffic made int8 *lose* to f32 on the b64 MLP;
/// the fused path must flip that. Both int8 entries are scored against
/// the f32 forward.
fn bench_qmodel_fused(quick: bool, entries: &mut Vec<Entry>) {
    let widths: &[usize] = if quick {
        &[64, 32, 10]
    } else {
        &[64, 128, 64, 10]
    };
    let batch = if quick { 8 } else { 64 };
    let mut rng = TensorRng::seed(SEED + 6);
    let model = mlp(widths, &mut rng);
    let x = rng.uniform(&[batch, widths[0]], -1.0, 1.0);
    let calib = rng.uniform(&[32, widths[0]], -1.0, 1.0);
    let q8 = QuantizedModel::quantize(&model, &calib, QuantScheme::Int8).expect("dense mlp");
    let shape = format!("b{batch}-{widths:?}");
    let probe = time_ns(1, || {
        std::hint::black_box(model.forward(&x));
    });
    let reps = if quick { 1 } else { reps_for(probe, 15.0) };
    let rounds = if quick { 1 } else { 11 };
    // Interleave the three variants round-robin and keep each one's best
    // round: host interference spans whole measurement blocks, so
    // back-to-back per-variant blocks can hand one variant a quiet
    // machine and another a noisy one — round-robin sampling gives every
    // variant a shot at each quiet window.
    let mut f32_ns = f64::INFINITY;
    let mut unfused_ns = f64::INFINITY;
    let mut fused_ns = f64::INFINITY;
    for _ in 0..rounds {
        f32_ns = f32_ns.min(time_ns(reps, || {
            std::hint::black_box(model.forward(&x));
        }));
        unfused_ns = unfused_ns.min(time_ns(reps, || {
            std::hint::black_box(q8.forward(&x));
        }));
        fused_ns = fused_ns.min(time_ns(reps, || {
            std::hint::black_box(q8.forward_fused(&x));
        }));
    }
    let f32_id = "qmodel_fused_f32".to_string();
    for (id, ns, scored) in [
        (f32_id.clone(), f32_ns, false),
        ("qmodel_fused_int8_unfused".to_string(), unfused_ns, true),
        ("qmodel_fused_int8_fused".to_string(), fused_ns, true),
    ] {
        entries.push(Entry {
            id,
            group: "qmodel_fused",
            shape: shape.clone(),
            reps,
            ns_per_op: ns,
            gflops: None,
            baseline_id: scored.then(|| f32_id.clone()),
            speedup_vs_baseline: scored.then(|| f32_ns / ns),
        });
    }
}

/// Brownout ladder depth: the E20d flash crowd replayed over three
/// configurations — pure shedding, the PR-7 ladder whose deepest level is
/// int2, and a ladder extended one level onto the activation-binarization-
/// aware int1 (XNOR) record ([`synthetic_family_xnor`]). The fastest
/// kernel in the tree only carries traffic if it is registered *and* the
/// ladder is allowed to reach it; the tracked datapoint is served
/// requests, with the xnor entry scored against the int2 ladder.
fn bench_xnor_serving(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_device::{default_mix, Fleet};
    use tinymlops_registry::ModelFormat;
    use tinymlops_serve::{degrade_records, BrownoutConfig, FaultPlan, GatewayConfig};

    let duration_us = if quick { 500_000 } else { 2_000_000 };
    let burst_rps = if quick { 30_000.0 } else { 48_000.0 };
    let tenants = 8u32;
    let mk_plan = |rps: f64, dur: u64, seed: u64| LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / f64::from(tenants),
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 40_000,
            })
            .collect(),
        duration_us: dur,
        seed,
        feature_dim: 0,
    };
    let base_plan = mk_plan(3_000.0, duration_us, SEED);
    let burst_plan = mk_plan(burst_rps, duration_us / 4, SEED + 1);
    let mut flash: Vec<_> = base_plan.generate();
    let offset = duration_us * 3 / 8;
    flash.extend(burst_plan.generate().into_iter().map(|mut r| {
        r.arrival_us += offset;
        r
    }));
    flash.sort_by_key(|r| r.arrival_us);
    for (i, r) in flash.iter_mut().enumerate() {
        r.id = i as u64;
    }

    // max_level 2 walks f32 → int8 → int2 on the 3-record catalog;
    // max_level 3 on the 4-record catalog ends on the int1 XNOR record.
    let run = |max_level: usize, xnor: bool| {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            serve: ServeConfig {
                gateway: GatewayConfig {
                    max_pending_per_tenant: 24,
                    max_total_pending: 64,
                },
                ..Default::default()
            },
            fault: FaultPlan {
                enabled: true,
                events: vec![],
                brownout: if max_level == 0 {
                    BrownoutConfig::default()
                } else {
                    BrownoutConfig {
                        max_level,
                        ..BrownoutConfig::enabled()
                    }
                },
            },
            ..Default::default()
        };
        let fleets =
            Fleet::generate(if quick { 30 } else { 60 }, &default_mix(), SEED).partition(3);
        let mut fabric = ServeFabric::new(&cfg, fleets);
        let fam = if xnor {
            synthetic_family_xnor
        } else {
            synthetic_family
        };
        fabric.install_family("kws", fam("kws", 0));
        fabric.install_family("vision", fam("vision", 100));
        fabric.provision(&base_plan);
        let start = Instant::now();
        let report = fabric.run(&flash).expect("flash run");
        (report, start.elapsed().as_secs_f64())
    };
    // All three runs share the 4-record catalog, so the only variable is
    // ladder depth: max_level 2 bottoms out on int2, 3 reaches the int1
    // XNOR record.
    let (shed_only, shed_wall) = run(0, true);
    let (int2, int2_wall) = run(2, true);
    let (xnor, xnor_wall) = run(3, true);
    println!(
        "xnor serving: flash crowd {} requests; served shed-only {} / ladder-int2 {} / ladder-xnor {}",
        flash.len(),
        shed_only.fleet.served,
        int2.fleet.served,
        xnor.fleet.served,
    );
    // Both ladder depths must rescue throughput over pure shedding. They
    // are not ordered against each other: deeper degradation drains
    // queues faster, so gateway pressure recovers below the low
    // watermark sooner and the node steps back up to expensive variants
    // earlier — the two ladders land within feedback noise of each other
    // (the served ratio is still recorded as the xnor entry's speedup).
    assert!(
        int2.fleet.served > shed_only.fleet.served,
        "the int2 ladder must out-serve pure shedding ({} vs {})",
        int2.fleet.served,
        shed_only.fleet.served
    );
    assert!(
        xnor.fleet.served > shed_only.fleet.served,
        "the XNOR ladder must out-serve pure shedding ({} vs {})",
        xnor.fleet.served,
        shed_only.fleet.served
    );
    // And level 3 must actually bottom out on the XNOR record: the
    // 4-record catalog degraded three steps leaves exactly the int1.
    let deepest = degrade_records(&synthetic_family_xnor("kws", 0), 3);
    assert!(
        deepest.len() == 1 && matches!(deepest[0].format, ModelFormat::Quantized { bits: 1 }),
        "ladder level 3 must serve the int1 XNOR record, got {:?}",
        deepest.iter().map(|r| r.format.clone()).collect::<Vec<_>>()
    );
    let reqs = flash.len() as f64;
    for (id, report, wall, baseline) in [
        ("xnor_serving_shed_only", &shed_only, shed_wall, None),
        (
            "xnor_serving_ladder_int2",
            &int2,
            int2_wall,
            Some(("xnor_serving_shed_only", shed_only.fleet.served)),
        ),
        (
            "xnor_serving_ladder_xnor",
            &xnor,
            xnor_wall,
            Some(("xnor_serving_ladder_int2", int2.fleet.served)),
        ),
    ] {
        entries.push(Entry {
            id: id.into(),
            group: "xnor_serving",
            shape: format!("{}req-flash-served{}", flash.len(), report.fleet.served),
            reps: 1,
            ns_per_op: wall * 1e9 / reqs,
            gflops: None,
            baseline_id: baseline.map(|(b, _)| b.to_string()),
            speedup_vs_baseline: baseline
                .map(|(_, base)| report.fleet.served as f64 / base.max(1) as f64),
        });
    }
}

fn bench_model_forward(quick: bool, entries: &mut Vec<Entry>) {
    let widths: &[usize] = if quick {
        &[64, 32, 10]
    } else {
        &[64, 128, 64, 10]
    };
    let batch = if quick { 8 } else { 64 };
    let mut rng = TensorRng::seed(SEED + 2);
    let model = mlp(widths, &mut rng);
    let x = rng.uniform(&[batch, widths[0]], -1.0, 1.0);
    let calib = rng.uniform(&[32, widths[0]], -1.0, 1.0);
    let q8 = QuantizedModel::quantize(&model, &calib, QuantScheme::Int8).expect("dense mlp");
    let shape = format!("b{batch}-{widths:?}");
    let reps = if quick { 1 } else { 400 };
    for (tag, f) in [
        (
            "f32",
            Box::new(|| std::hint::black_box(model.forward(&x))) as Box<dyn Fn() -> Tensor>,
        ),
        ("int8", Box::new(|| std::hint::black_box(q8.forward(&x)))),
    ] {
        let mut g = f;
        let ns = time_ns(reps, || {
            std::hint::black_box(&mut g)();
        });
        entries.push(Entry {
            id: format!("model_forward_{tag}"),
            group: "model_forward",
            shape: shape.clone(),
            reps,
            ns_per_op: ns,
            gflops: None,
            baseline_id: None,
            speedup_vs_baseline: None,
        });
    }
}

fn bench_serving_replay(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_device::{default_mix, Fleet};

    let cfg = ServeConfig::default();
    let fleet = Fleet::generate(if quick { 8 } else { 40 }, &default_mix(), SEED);
    let mut plane = ServePlane::new(&cfg, fleet);
    plane.install_family("kws", synthetic_family("kws", 0));
    plane.install_family("vision", synthetic_family("vision", 100));
    let rps = if quick { 2_000.0 } else { 25_000.0 };
    let duration_us = if quick { 500_000 } else { 4_000_000 };
    let plan = LoadPlan {
        tenants: vec![
            TenantSpec {
                id: 1,
                rate_rps: rps * 0.6,
                model: "kws".into(),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 200_000,
            },
            TenantSpec {
                id: 2,
                rate_rps: rps * 0.4,
                model: "vision".into(),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 200_000,
            },
        ],
        duration_us,
        seed: SEED,
        feature_dim: 0,
    };
    let sim = ServeSim::new(cfg, None);
    sim.provision(&mut plane, &plan);
    let stream = plan.generate();
    let start = Instant::now();
    let report = sim.run(&mut plane, &stream).expect("families installed");
    let wall_s = start.elapsed().as_secs_f64();
    let reqs = stream.len() as f64;
    println!(
        "serving replay: {} requests in {:.1} ms wall ({:.0} req/s; served {}, shed rate {:.2})",
        stream.len(),
        wall_s * 1e3,
        reqs / wall_s,
        report.served,
        report.shed_rate
    );
    entries.push(Entry {
        id: "serve_replay_e15".into(),
        group: "serving",
        shape: format!("{}req-2tenant", stream.len()),
        reps: 1,
        ns_per_op: wall_s * 1e9 / reqs,
        gflops: None,
        baseline_id: None,
        speedup_vs_baseline: None,
    });
}

/// Sharded serving replay: the same two-family catalog replayed through a
/// 3-node `ServeFabric` twice at one cache byte budget — least-loaded
/// device routing vs the affinity score that weighs ModelCache residency
/// against queue depth. The tracked datapoint is the fleet hit rate (the
/// E15c LRU cliff is the bottleneck this targets); `speedup_vs_baseline`
/// is the hit-rate ratio affinity/least-loaded.
fn bench_serving_sharded(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_device::{default_mix, Fleet};

    let families = 6u64;
    let budget = 12 * 1024u64;
    let rps = if quick { 4_000.0 } else { 25_000.0 };
    let duration_us = if quick { 500_000 } else { 3_000_000 };
    let plan = LoadPlan {
        tenants: (0..12u32)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / 12.0,
                model: format!("family{}", u64::from(i) % families),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 250_000,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    };
    let stream = plan.generate();

    let mut hit_rates = [0.0f64; 2];
    let mut wall = [0.0f64; 2];
    for (i, affinity_routing) in [false, true].into_iter().enumerate() {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            tenant_affinity: 0.0,
            load_factor: f64::INFINITY,
            serve: ServeConfig {
                cache_budget_bytes: budget,
                affinity_routing,
                ..Default::default()
            },
            ..Default::default()
        };
        let fleets =
            Fleet::generate(if quick { 12 } else { 24 }, &default_mix(), SEED).partition(3);
        let mut fabric = ServeFabric::new(&cfg, fleets);
        for f in 0..families {
            fabric.install_family(
                &format!("family{f}"),
                synthetic_family(&format!("family{f}"), f * 100),
            );
        }
        fabric.provision(&plan);
        let start = Instant::now();
        let report = fabric.run(&stream).expect("families installed");
        wall[i] = start.elapsed().as_secs_f64();
        hit_rates[i] = report.fleet.cache_hit_rate;
        assert!(
            report.refunds_balance(),
            "refunds must exactly match downstream sheds"
        );
    }
    println!(
        "sharded replay: {} requests x2 over 3 nodes; hit rate least-loaded {:.1}% vs affinity {:.1}%",
        stream.len(),
        hit_rates[0] * 100.0,
        hit_rates[1] * 100.0,
    );
    for (i, tag) in ["leastload", "affinity"].into_iter().enumerate() {
        entries.push(Entry {
            id: format!("serve_fabric_{tag}"),
            group: "serving_sharded",
            shape: format!(
                "{}req-3node-12KiB-hit{:.1}%",
                stream.len(),
                hit_rates[i] * 100.0
            ),
            reps: 1,
            ns_per_op: wall[i] * 1e9 / stream.len() as f64,
            gflops: None,
            baseline_id: (i == 1).then(|| "serve_fabric_leastload".to_string()),
            speedup_vs_baseline: (i == 1).then(|| hit_rates[1] / hit_rates[0].max(1e-9)),
        });
    }
}

/// Persistent-pool vs spawn-per-region dispatch, on the real packed GEMM.
/// The pool is pinned to ≥2 threads for this process (see `main`), so
/// even a 1-core CI host measures the dispatch mechanisms rather than two
/// identical inline paths: `spawn` pays OS-thread creation per parallel
/// region (per GEMM call × per K-block), `pool` reuses sleeping workers.
/// `sequential` is the inline reference the other two are scored against.
fn bench_pool_dispatch(quick: bool, entries: &mut Vec<Entry>) {
    let (m, k, n) = if quick { (64, 64, 64) } else { (256, 256, 256) };
    let mut rng = TensorRng::seed(SEED + 4);
    let a = rng.uniform(&[m, k], -1.0, 1.0);
    let b = rng.uniform(&[k, n], -1.0, 1.0);
    let mut c = vec![0.0f32; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let shape = format!("{m}x{k}x{n}@{}t", effective_threads());
    let probe = time_ns(1, || {
        c.fill(0.0);
        gemm_packed(a.data(), b.data(), &mut c, m, k, n);
    });
    let reps = if quick { 1 } else { reps_for(probe, 60.0) };
    let rounds = if quick { 1 } else { 5 };
    let modes = [
        ("sequential", Dispatch::Sequential),
        ("spawn", Dispatch::Spawn),
        ("pool", Dispatch::Pool),
    ];
    let mut ns_of = [0.0f64; 3];
    for (i, (tag, mode)) in modes.into_iter().enumerate() {
        let ns = time_ns_best(rounds, reps, || {
            with_dispatch(mode, || {
                c.fill(0.0);
                gemm_packed(a.data(), b.data(), &mut c, m, k, n);
            });
        });
        ns_of[i] = ns;
        // pool is scored against spawn (the dispatch this PR replaced);
        // spawn against the inline reference.
        let baseline = match tag {
            "pool" => Some(("spawn", ns_of[1])),
            "spawn" => Some(("sequential", ns_of[0])),
            _ => None,
        };
        entries.push(Entry {
            id: format!("gemm_dispatch_{tag}"),
            group: "pool_dispatch",
            shape: shape.clone(),
            reps,
            ns_per_op: ns,
            gflops: Some(flops / ns),
            baseline_id: baseline.map(|(b, _)| format!("gemm_dispatch_{b}")),
            speedup_vs_baseline: baseline.map(|(_, base_ns)| base_ns / ns),
        });
    }
}

/// Wall-clock serving: the same fabric workload through the
/// single-threaded simulator and the threaded live backend
/// (`ExecMode::Replay` — reports are asserted bit-identical, so the only
/// thing this measures is the pipeline itself). The tracked datapoint is
/// wall ns per request; `speedup_vs_baseline` on the live entry is
/// sim_wall / live_wall (> 1 once node parallelism beats queue-handoff
/// overhead; expected ≲ 1 on a 1-core host).
fn bench_serving_live(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_device::{default_mix, Fleet};

    let families = 6u64;
    let rps = if quick { 4_000.0 } else { 25_000.0 };
    let duration_us = if quick { 500_000 } else { 3_000_000 };
    let plan = LoadPlan {
        tenants: (0..12u32)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / 12.0,
                model: format!("family{}", u64::from(i) % families),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 250_000,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    };
    let stream = plan.generate();
    let build = || {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            tenant_affinity: 0.0,
            load_factor: f64::INFINITY,
            serve: ServeConfig::default(),
            ..Default::default()
        };
        let fleets =
            Fleet::generate(if quick { 12 } else { 24 }, &default_mix(), SEED).partition(3);
        let mut fabric = ServeFabric::new(&cfg, fleets);
        for f in 0..families {
            fabric.install_family(
                &format!("family{f}"),
                synthetic_family(&format!("family{f}"), f * 100),
            );
        }
        fabric.provision(&plan);
        fabric
    };

    let mut sim_fabric = build();
    let start = Instant::now();
    let sim_report = sim_fabric.run(&stream).expect("sim replay");
    let sim_wall_s = start.elapsed().as_secs_f64();

    let mut live_fabric = build();
    let live = live_fabric
        .run_live(&stream, &ExecConfig::default())
        .expect("live replay");
    assert_eq!(
        live.fabric, sim_report,
        "live backend must replay bit-identically"
    );
    let live_wall_s = live.wall_ms / 1e3;
    println!(
        "live serving: {} requests x2 over 3 node threads; sim {:.1} ms vs live {:.1} ms wall",
        stream.len(),
        sim_wall_s * 1e3,
        live.wall_ms,
    );
    for (tag, wall_s) in [("sim", sim_wall_s), ("live", live_wall_s)] {
        entries.push(Entry {
            id: format!("serve_exec_{tag}_replay"),
            group: "serving_live",
            shape: format!("{}req-3node-replay", stream.len()),
            reps: 1,
            ns_per_op: wall_s * 1e9 / stream.len() as f64,
            gflops: None,
            baseline_id: (tag == "live").then(|| "serve_exec_sim_replay".to_string()),
            speedup_vs_baseline: (tag == "live").then(|| sim_wall_s / live_wall_s),
        });
    }
}

/// Telemetry recording lanes, ns per event: string-keyed counter
/// increments (BTreeMap lookup per event), pre-registered handle
/// increments (`counter_id` once, `incr_id` per event — one lock each),
/// and the single-writer local shard the serve engine uses (plain fields
/// per event, one fold into the sink per run). Each lane is scored
/// against the one it replaced on the serving path.
fn bench_telemetry(quick: bool, entries: &mut Vec<Entry>) {
    let telemetry = Telemetry::new();
    // A realistic name population: the serve engine registers ~12
    // counters; lookups pay for the tree, not a single-entry map.
    for i in 0..12 {
        telemetry.incr(&format!("serve.warm.counter.{i}"));
    }
    let id = telemetry.counter_id("serve.bench.hot");
    let reps = if quick { 10_000 } else { 2_000_000 };
    let rounds = if quick { 1 } else { 5 };
    let str_ns = time_ns_best(rounds, 1, || {
        for _ in 0..reps {
            telemetry.incr(std::hint::black_box("serve.bench.hot"));
        }
    }) / reps as f64;
    let handle_ns = time_ns_best(rounds, 1, || {
        for _ in 0..reps {
            telemetry.incr_id(std::hint::black_box(id));
        }
    }) / reps as f64;
    println!(
        "telemetry incr: string {:.1} ns vs handle {:.1} ns ({:.1}x)",
        str_ns,
        handle_ns,
        str_ns / handle_ns
    );
    entries.push(Entry {
        id: "telemetry_incr_str".into(),
        group: "telemetry",
        shape: "12-counter-sink".into(),
        reps,
        ns_per_op: str_ns,
        gflops: None,
        baseline_id: None,
        speedup_vs_baseline: None,
    });
    entries.push(Entry {
        id: "telemetry_incr_handle".into(),
        group: "telemetry",
        shape: "12-counter-sink".into(),
        reps,
        ns_per_op: handle_ns,
        gflops: None,
        baseline_id: Some("telemetry_incr_str".to_string()),
        speedup_vs_baseline: Some(str_ns / handle_ns),
    });

    // What the serve engine does since it became the only writer of its
    // node's metric set: one served event (counter + latency timer +
    // latency histogram) accumulated in local fields, folded into the
    // sink once per 100k events — against the same event recorded
    // through the handle lane, three lock round-trips each.
    let timer = telemetry.timer_id("serve.bench.latency_ms");
    let hist = telemetry.hist_id("serve.bench.latency_us");
    let events = if quick { 10_000 } else { 100_000 };
    let flushes = if quick { 1 } else { 20 };
    let latency_us = |i: usize| 900 + (i as u64 * 37) % 4_000;
    let per_event_ns = time_ns_best(rounds, flushes, || {
        for i in 0..events {
            let us = std::hint::black_box(latency_us(i));
            telemetry.incr_id(id);
            telemetry.record_id(timer, us as f64 / 1000.0);
            telemetry.record_hist_id(hist, us);
        }
    }) / events as f64;
    let shard_ns = time_ns_best(rounds, flushes, || {
        let mut served = 0u64;
        let mut series = RunningStats::new();
        let mut buckets = LogHistogram::new();
        for i in 0..events {
            let us = std::hint::black_box(latency_us(i));
            served += 1;
            series.push(us as f64 / 1000.0);
            buckets.record(us);
        }
        telemetry.add_id(id, served);
        telemetry.merge_timer_id(timer, &series);
        telemetry.merge_hist_id(hist, &buckets);
    }) / events as f64;
    println!(
        "telemetry served event: per-event handles {:.1} ns vs local shard + one flush {:.1} ns ({:.1}x)",
        per_event_ns,
        shard_ns,
        per_event_ns / shard_ns
    );
    entries.push(Entry {
        id: "telemetry_served_event_handles".into(),
        group: "telemetry",
        shape: format!("{events}ev-counter+timer+hist"),
        reps: events * flushes,
        ns_per_op: per_event_ns,
        gflops: None,
        baseline_id: None,
        speedup_vs_baseline: None,
    });
    entries.push(Entry {
        id: "telemetry_shard_flush".into(),
        group: "telemetry",
        shape: format!("{events}ev-counter+timer+hist"),
        reps: events * flushes,
        ns_per_op: shard_ns,
        gflops: None,
        baseline_id: Some("telemetry_served_event_handles".to_string()),
        speedup_vs_baseline: Some(per_event_ns / shard_ns),
    });
}

/// `MicroBatcher::push` in steady state: six families, `max_batch` 8, so
/// seven pushes in eight queue and the eighth cuts a size-triggered
/// batch. Requests are built, and flushed batches dropped, outside the
/// timed region; the datapoint is ns per push (queue lookup, enqueue,
/// and the amortised batch cut).
fn bench_batcher_push(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_serve::{BatchPolicy, MicroBatcher, PushOutcome, Request};
    let families: Vec<String> = (0..6).map(|f| format!("family-{f}")).collect();
    let reps = if quick { 12_000 } else { 240_000 };
    let rounds = if quick { 1 } else { 7 };
    let mut batcher = MicroBatcher::new(BatchPolicy {
        max_batch: 8,
        max_delay_us: 2_000,
    });
    let mut best_ns = f64::INFINITY;
    for round in 0..rounds {
        let requests: Vec<Request> = (0..reps)
            .map(|i| Request {
                id: (round * reps + i) as u64,
                tenant: (i % 12) as u32,
                model: families[i % families.len()].clone(),
                arrival_us: i as u64,
                deadline_us: 50_000,
                features: None,
            })
            .collect();
        let mut flushed = Vec::with_capacity(reps / 8 + 1);
        let start = Instant::now();
        for request in requests {
            if let PushOutcome::Flushed(batch) = batcher.push(std::hint::black_box(request)) {
                flushed.push(batch);
            }
        }
        best_ns = best_ns.min(start.elapsed().as_secs_f64() * 1e9 / reps as f64);
        assert_eq!(
            flushed.len(),
            reps / 8,
            "every eighth push per family flushes"
        );
    }
    println!("batcher push (6 families, 8-deep): {best_ns:.1} ns per push");
    entries.push(Entry {
        id: "batcher_push_steady".into(),
        group: "batcher_push",
        shape: "6fam-batch8".into(),
        reps,
        ns_per_op: best_ns,
        gflops: None,
        baseline_id: None,
        speedup_vs_baseline: None,
    });
}

/// Observability overhead on the serving replay: the same 3-node fabric
/// workload with the observer plane off (baseline) and on (flight
/// recorder + windows + drift bank armed on every node). The reports
/// must stay equal — the observer is passive — and the tracked
/// datapoint is wall ns per request; `speedup_vs_baseline` on the
/// traced entry is off_wall / traced_wall (≥ 0.95 is the acceptance
/// target: < 5% overhead).
fn bench_serving_traced(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_device::{default_mix, Fleet};

    let families = 6u64;
    let rps = if quick { 4_000.0 } else { 25_000.0 };
    let duration_us = if quick { 500_000 } else { 1_000_000 };
    let plan = LoadPlan {
        tenants: (0..12u32)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / 12.0,
                model: format!("family{}", u64::from(i) % families),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 250_000,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    };
    let stream = plan.generate();
    let build = |observe: ObserveConfig| {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            tenant_affinity: 0.0,
            load_factor: f64::INFINITY,
            serve: ServeConfig::default(),
            observe,
            ..Default::default()
        };
        let fleets =
            Fleet::generate(if quick { 12 } else { 24 }, &default_mix(), SEED).partition(3);
        let mut fabric = ServeFabric::new(&cfg, fleets);
        for f in 0..families {
            fabric.install_family(
                &format!("family{f}"),
                synthetic_family(&format!("family{f}"), f * 100),
            );
        }
        fabric.provision(&plan);
        fabric
    };
    // The two sides differ by only a few percent — far less than one
    // preempted round's wall-clock jitter on a shared host. So the
    // primary measurement is *CPU time* (`/proc/self/schedstat`, on-CPU
    // ns of the replay thread) over interleaved rounds: other processes
    // stealing the core don't count against either side, while the
    // observer's own cache misses still do. Each round runs off and
    // traced back-to-back — alternating which goes first each round, so
    // ordering effects cancel — and slowly-drifting co-runner cache
    // pressure hits both sides of a pair about equally. The *median of
    // per-round paired differences* is therefore the overhead estimate
    // (robust to rounds where a noise episode lands on one side),
    // against the median off-side round as the baseline. A warmup round
    // is excluded, and wall-clock minima are the fallback where
    // schedstat is unavailable.
    let cpu_ns = || -> Option<u64> {
        let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
        s.split_whitespace().next()?.parse().ok()
    };
    let rounds = if quick { 1 } else { 48 };
    let mut diffs: Vec<i64> = Vec::new();
    let mut off_cpus: Vec<u64> = Vec::new();
    let mut walls = [f64::INFINITY; 2];
    let mut fleets_match = true;
    let mut warm = !quick;
    let run_side = |on: bool, walls: &mut [f64; 2]| {
        let mut fab = build(if on {
            ObserveConfig::enabled()
        } else {
            ObserveConfig::default()
        });
        let c0 = cpu_ns();
        let start = Instant::now();
        let report = fab.run(&stream).expect("replay");
        let side = usize::from(on);
        walls[side] = walls[side].min(start.elapsed().as_secs_f64());
        let cpu = match (c0, cpu_ns()) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };
        (cpu, report.fleet)
    };
    for round in 0..rounds {
        let traced_first = round % 2 == 1;
        let first = run_side(traced_first, &mut walls);
        let second = run_side(!traced_first, &mut walls);
        fleets_match &= first.1 == second.1;
        let (off_cpu, on_cpu) = if traced_first {
            (second.0, first.0)
        } else {
            (first.0, second.0)
        };
        if let (Some(off), Some(on)) = (off_cpu, on_cpu) {
            if !warm {
                off_cpus.push(off);
                diffs.push(on as i64 - off as i64);
            }
        }
        warm = false;
    }
    assert!(fleets_match, "tracing must not perturb serving outcomes");
    // ns/request per side: off = median CPU round, traced = off + median
    // paired difference; wall minima where schedstat is unavailable.
    let per_req: Vec<f64> = if !off_cpus.is_empty() {
        diffs.sort_unstable();
        off_cpus.sort_unstable();
        let median_diff = diffs[diffs.len() / 2] as f64;
        let off = off_cpus[off_cpus.len() / 2] as f64;
        vec![
            off / stream.len() as f64,
            (off + median_diff).max(0.0) / stream.len() as f64,
        ]
    } else {
        walls
            .iter()
            .map(|w| w * 1e9 / stream.len() as f64)
            .collect()
    };
    println!(
        "traced replay: {} requests x{} over 3 nodes; off {:.0} ns/req vs traced {:.0} ns/req ({}, {:+.1}% overhead)",
        stream.len(),
        2 * rounds,
        per_req[0],
        per_req[1],
        if off_cpus.is_empty() {
            "wall time"
        } else {
            "cpu time"
        },
        (per_req[1] / per_req[0] - 1.0) * 100.0,
    );
    for (i, tag) in ["off", "traced"].into_iter().enumerate() {
        entries.push(Entry {
            id: format!("serve_replay_{tag}"),
            group: "serving_traced",
            shape: format!("{}req-3node-replay", stream.len()),
            reps: rounds,
            ns_per_op: per_req[i],
            gflops: None,
            baseline_id: (i == 1).then(|| "serve_replay_off".to_string()),
            speedup_vs_baseline: (i == 1).then(|| per_req[0] / per_req[1]),
        });
    }
}

/// Fault-plane overhead on the serving replay: the same 3-node fabric
/// workload with the fault plane disabled (baseline, `FaultPlan::
/// default()`) and armed-but-empty (`FaultPlan::armed()` — every
/// engine-side hook alive, nothing scheduled). Reports must stay equal —
/// an idle plane is byte-inert — and the datapoint is CPU ns per request
/// via the same paired-difference protocol as `bench_serving_traced`
/// (interleaved rounds, median of per-round differences, schedstat
/// on-CPU time, wall minima as fallback). Acceptance: ~0% overhead.
fn bench_serving_faults(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_device::{default_mix, Fleet};
    use tinymlops_serve::FaultPlan;

    let families = 6u64;
    let rps = if quick { 4_000.0 } else { 25_000.0 };
    let duration_us = if quick { 500_000 } else { 1_000_000 };
    let plan = LoadPlan {
        tenants: (0..12u32)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / 12.0,
                model: format!("family{}", u64::from(i) % families),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 250_000,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    };
    let stream = plan.generate();
    let build = |fault: FaultPlan| {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            tenant_affinity: 0.0,
            load_factor: f64::INFINITY,
            serve: ServeConfig::default(),
            fault,
            ..Default::default()
        };
        let fleets =
            Fleet::generate(if quick { 12 } else { 24 }, &default_mix(), SEED).partition(3);
        let mut fabric = ServeFabric::new(&cfg, fleets);
        for f in 0..families {
            fabric.install_family(
                &format!("family{f}"),
                synthetic_family(&format!("family{f}"), f * 100),
            );
        }
        fabric.provision(&plan);
        fabric
    };
    let cpu_ns = || -> Option<u64> {
        let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
        s.split_whitespace().next()?.parse().ok()
    };
    let rounds = if quick { 1 } else { 48 };
    let mut diffs: Vec<i64> = Vec::new();
    let mut off_cpus: Vec<u64> = Vec::new();
    let mut walls = [f64::INFINITY; 2];
    let mut fleets_match = true;
    let mut warm = !quick;
    let run_side = |armed: bool, walls: &mut [f64; 2]| {
        let mut fab = build(if armed {
            FaultPlan::armed()
        } else {
            FaultPlan::default()
        });
        let c0 = cpu_ns();
        let start = Instant::now();
        let report = fab.run(&stream).expect("replay");
        let side = usize::from(armed);
        walls[side] = walls[side].min(start.elapsed().as_secs_f64());
        let cpu = match (c0, cpu_ns()) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };
        (cpu, report.fleet)
    };
    for round in 0..rounds {
        let armed_first = round % 2 == 1;
        let first = run_side(armed_first, &mut walls);
        let second = run_side(!armed_first, &mut walls);
        fleets_match &= first.1 == second.1;
        let (off_cpu, on_cpu) = if armed_first {
            (second.0, first.0)
        } else {
            (first.0, second.0)
        };
        if let (Some(off), Some(on)) = (off_cpu, on_cpu) {
            if !warm {
                off_cpus.push(off);
                diffs.push(on as i64 - off as i64);
            }
        }
        warm = false;
    }
    assert!(
        fleets_match,
        "an idle fault plane must not perturb serving outcomes"
    );
    let per_req: Vec<f64> = if !off_cpus.is_empty() {
        diffs.sort_unstable();
        off_cpus.sort_unstable();
        let median_diff = diffs[diffs.len() / 2] as f64;
        let off = off_cpus[off_cpus.len() / 2] as f64;
        vec![
            off / stream.len() as f64,
            (off + median_diff).max(0.0) / stream.len() as f64,
        ]
    } else {
        walls
            .iter()
            .map(|w| w * 1e9 / stream.len() as f64)
            .collect()
    };
    println!(
        "fault-plane replay: {} requests x{} over 3 nodes; off {:.0} ns/req vs armed {:.0} ns/req ({}, {:+.1}% overhead)",
        stream.len(),
        2 * rounds,
        per_req[0],
        per_req[1],
        if off_cpus.is_empty() {
            "wall time"
        } else {
            "cpu time"
        },
        (per_req[1] / per_req[0] - 1.0) * 100.0,
    );
    for (i, tag) in ["fault_off", "fault_armed"].into_iter().enumerate() {
        entries.push(Entry {
            id: format!("serve_replay_{tag}"),
            group: "serving_faults",
            shape: format!("{}req-3node-replay", stream.len()),
            reps: rounds,
            ns_per_op: per_req[i],
            gflops: None,
            baseline_id: (i == 1).then(|| "serve_replay_fault_off".to_string()),
            speedup_vs_baseline: (i == 1).then(|| per_req[0] / per_req[1]),
        });
    }
}

/// Serving replay cost of the fleet controller: disabled
/// (`ControllerConfig::default()`) vs armed-but-untrippable (enabled,
/// ticking and sampling every interval, thresholds no sample can
/// reach, no standby). Reports must stay equal — an idle controller is
/// byte-inert — and the datapoint is CPU ns per request via the same
/// paired-difference protocol as `bench_serving_faults` (interleaved
/// rounds, median of per-round differences, schedstat on-CPU time,
/// wall minima as fallback). The armed side pays for real work — the
/// per-node control tap on every request plus a topology sample every
/// control interval — so acceptance is small, not zero.
fn bench_serving_controlled(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_device::{default_mix, Fleet};
    use tinymlops_serve::ControllerConfig;

    let families = 6u64;
    let rps = if quick { 4_000.0 } else { 25_000.0 };
    let duration_us = if quick { 500_000 } else { 1_000_000 };
    let plan = LoadPlan {
        tenants: (0..12u32)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: rps / 12.0,
                model: format!("family{}", u64::from(i) % families),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 250_000,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    };
    let stream = plan.generate();
    let build = |controller: ControllerConfig| {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            tenant_affinity: 0.0,
            load_factor: f64::INFINITY,
            serve: ServeConfig::default(),
            controller,
            ..Default::default()
        };
        let fleets =
            Fleet::generate(if quick { 12 } else { 24 }, &default_mix(), SEED).partition(3);
        let mut fabric = ServeFabric::new(&cfg, fleets);
        for f in 0..families {
            fabric.install_family(
                &format!("family{f}"),
                synthetic_family(&format!("family{f}"), f * 100),
            );
        }
        fabric.provision(&plan);
        fabric
    };
    let armed_idle = || ControllerConfig {
        enabled: true,
        high_pressure: f64::INFINITY,
        high_shed_rate: f64::INFINITY,
        low_pressure: -1.0,
        ..ControllerConfig::default()
    };
    let cpu_ns = || -> Option<u64> {
        let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
        s.split_whitespace().next()?.parse().ok()
    };
    let rounds = if quick { 1 } else { 48 };
    let mut diffs: Vec<i64> = Vec::new();
    let mut off_cpus: Vec<u64> = Vec::new();
    let mut walls = [f64::INFINITY; 2];
    let mut fleets_match = true;
    let mut warm = !quick;
    let run_side = |armed: bool, walls: &mut [f64; 2]| {
        let mut fab = build(if armed {
            armed_idle()
        } else {
            ControllerConfig::default()
        });
        let c0 = cpu_ns();
        let start = Instant::now();
        let report = fab.run(&stream).expect("replay");
        let side = usize::from(armed);
        walls[side] = walls[side].min(start.elapsed().as_secs_f64());
        let cpu = match (c0, cpu_ns()) {
            (Some(a), Some(b)) => Some(b - a),
            _ => None,
        };
        (cpu, report.fleet)
    };
    for round in 0..rounds {
        let armed_first = round % 2 == 1;
        let first = run_side(armed_first, &mut walls);
        let second = run_side(!armed_first, &mut walls);
        fleets_match &= first.1 == second.1;
        let (off_cpu, on_cpu) = if armed_first {
            (second.0, first.0)
        } else {
            (first.0, second.0)
        };
        if let (Some(off), Some(on)) = (off_cpu, on_cpu) {
            if !warm {
                off_cpus.push(off);
                diffs.push(on as i64 - off as i64);
            }
        }
        warm = false;
    }
    assert!(
        fleets_match,
        "an idle controller must not perturb serving outcomes"
    );
    let per_req: Vec<f64> = if !off_cpus.is_empty() {
        diffs.sort_unstable();
        off_cpus.sort_unstable();
        let median_diff = diffs[diffs.len() / 2] as f64;
        let off = off_cpus[off_cpus.len() / 2] as f64;
        vec![
            off / stream.len() as f64,
            (off + median_diff).max(0.0) / stream.len() as f64,
        ]
    } else {
        walls
            .iter()
            .map(|w| w * 1e9 / stream.len() as f64)
            .collect()
    };
    println!(
        "controller replay: {} requests x{} over 3 nodes; off {:.0} ns/req vs armed {:.0} ns/req ({}, {:+.1}% overhead)",
        stream.len(),
        2 * rounds,
        per_req[0],
        per_req[1],
        if off_cpus.is_empty() {
            "wall time"
        } else {
            "cpu time"
        },
        (per_req[1] / per_req[0] - 1.0) * 100.0,
    );
    for (i, tag) in ["controller_off", "controller_armed"]
        .into_iter()
        .enumerate()
    {
        entries.push(Entry {
            id: format!("serve_replay_{tag}"),
            group: "serving_controlled",
            shape: format!("{}req-3node-replay", stream.len()),
            reps: rounds,
            ns_per_op: per_req[i],
            gflops: None,
            baseline_id: (i == 1).then(|| "serve_replay_controller_off".to_string()),
            speedup_vs_baseline: (i == 1).then(|| per_req[0] / per_req[1]),
        });
    }
}

/// Ingest-queue handoff: the retired mutex/condvar queue vs the
/// lock-free Vyukov ring that replaced it (PR 10), measured as a paired
/// producer→consumer handoff — one producer thread pushes `items`
/// payloads through a bounded queue while the calling thread pops them
/// all. The datapoint is ns per handoff; the lock-free entry's
/// `speedup_vs_baseline` is mutex/lock-free (≥ 1 means the replacement
/// is no slower — the acceptance gate for the swap).
fn bench_ingest_queue(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_bench::MutexIngestQueue;
    use tinymlops_serve::IngestQueue;

    let items: u64 = if quick { 20_000 } else { 200_000 };
    let capacity = 256;
    let rounds = if quick { 2 } else { 5 };

    fn handoff_ns<Q: Sync>(
        items: u64,
        rounds: usize,
        queue: &Q,
        push: impl Fn(&Q, u64) -> bool + Sync,
        pop: impl Fn(&Q) -> Option<u64>,
    ) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..rounds {
            let start = Instant::now();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for i in 0..items {
                        assert!(push(queue, i), "queue closed mid-bench");
                    }
                });
                let mut next = 0u64;
                while next < items {
                    let got = pop(queue).expect("producer still pushing");
                    assert_eq!(got, next, "FIFO broken");
                    next += 1;
                }
            });
            best = best.min(start.elapsed().as_secs_f64() * 1e9 / items as f64);
        }
        best
    }

    let mutex_q = MutexIngestQueue::<u64>::new(capacity);
    let mutex_ns = handoff_ns(items, rounds, &mutex_q, |q, i| q.push(i), |q| q.pop());
    let lockfree_q = IngestQueue::<u64>::new(capacity);
    let lockfree_ns = handoff_ns(items, rounds, &lockfree_q, |q, i| q.push(i), |q| q.pop());
    println!(
        "ingest queue handoff: mutex {mutex_ns:.0} ns/op vs lock-free {lockfree_ns:.0} ns/op \
         ({items} items, cap {capacity})"
    );
    for (tag, ns) in [("mutex", mutex_ns), ("lockfree", lockfree_ns)] {
        entries.push(Entry {
            id: format!("ingest_queue_handoff_{tag}"),
            group: "ingest_queue",
            shape: format!("{items}x1prod-cap{capacity}"),
            reps: rounds,
            ns_per_op: ns,
            gflops: None,
            baseline_id: (tag == "lockfree").then(|| "ingest_queue_handoff_mutex".to_string()),
            speedup_vs_baseline: (tag == "lockfree").then(|| mutex_ns / lockfree_ns),
        });
    }
}

/// Closed-loop serving driver vs open-loop replay of its own trace: the
/// closed loop materializes every delivery it makes, and replaying that
/// trace open loop through an identically provisioned fabric reproduces
/// the fleet report bit-for-bit. The paired timing therefore isolates
/// the *driver* overhead (completion tap, client bookkeeping, retry
/// scheduling) from the serving work, which is identical on both sides.
fn bench_serving_closed_loop(quick: bool, entries: &mut Vec<Entry>) {
    use tinymlops_device::{default_mix, Fleet};
    use tinymlops_serve::{ClientPlan, ClientSpec, RetryPolicy};

    let tenants = 8u32;
    let clients = if quick { 24 } else { 60 };
    let duration_us = if quick { 400_000 } else { 2_000_000 };
    let provision_plan = LoadPlan {
        tenants: (0..tenants)
            .map(|i| TenantSpec {
                id: i + 1,
                rate_rps: 1.0,
                model: if i % 2 == 0 { "kws" } else { "vision" }.into(),
                prepaid_queries: u64::MAX / 2,
                deadline_us: 50_000,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
    };
    let build = || {
        let cfg = FabricConfig {
            node_weights: vec![1.0; 3],
            ..Default::default()
        };
        let fleets =
            Fleet::generate(if quick { 12 } else { 24 }, &default_mix(), SEED).partition(3);
        let mut fabric = ServeFabric::new(&cfg, fleets);
        fabric.install_family("kws", synthetic_family("kws", 0));
        fabric.install_family("vision", synthetic_family("vision", 100));
        fabric.provision(&provision_plan);
        fabric
    };
    let plan = ClientPlan {
        clients: (0..clients)
            .map(|c| ClientSpec {
                tenant: (c % tenants) + 1,
                model: if c % 2 == 0 { "kws" } else { "vision" }.into(),
                think_mean_us: 10_000.0,
                deadline_us: 50_000,
            })
            .collect(),
        duration_us,
        seed: SEED,
        feature_dim: 0,
        retry: RetryPolicy::default(),
    };

    let mut closed_fabric = build();
    let start = Instant::now();
    let closed = closed_fabric.run_closed_loop(&plan).expect("closed loop");
    let closed_wall_s = start.elapsed().as_secs_f64();
    let pushes = closed.clients.pushes().max(1) as f64;

    let mut open_fabric = build();
    let start = Instant::now();
    let open_report = open_fabric.run(&closed.trace).expect("trace replay");
    let open_wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        open_report, closed.fabric,
        "open-loop replay of the closed-loop trace must be bit-identical"
    );
    println!(
        "closed-loop serving: {} pushes from {clients} clients; closed {:.1} ms vs \
         open trace replay {:.1} ms wall",
        closed.clients.pushes(),
        closed_wall_s * 1e3,
        open_wall_s * 1e3,
    );
    for (tag, wall_s) in [("open_trace", open_wall_s), ("closed", closed_wall_s)] {
        entries.push(Entry {
            id: format!("serve_closed_loop_{tag}"),
            group: "serving_closed_loop",
            shape: format!("{}req-{clients}cl-3node", closed.clients.pushes()),
            reps: 1,
            ns_per_op: wall_s * 1e9 / pushes,
            gflops: None,
            baseline_id: (tag == "closed").then(|| "serve_closed_loop_open_trace".to_string()),
            speedup_vs_baseline: (tag == "closed").then(|| open_wall_s / closed_wall_s),
        });
    }
}

/// Append this run to `results/BENCH_kernels.json` (creating the file on
/// first run), then read it back and parse it as a self-check.
/// The audit chain's entry MAC rebuilt on `compress_portable`: the same
/// schedule-holding, three-compression walk as `HmacKey::mac` on a
/// 57-byte entry, minus the runtime dispatch. Library code has exactly one
/// HMAC and no switch to force the portable rounds, so the bench carries
/// this copy to put a "same algorithm, scalar instructions" row beside
/// every dispatched one — and checks it bit-equal before timing it.
mod portable_chain {
    use tinymlops_crypto::sha256::compress_portable;

    const H0: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    fn digest(state: [u32; 8]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// SHA-256 of exactly one block of message (data block + padding block).
    pub fn sha256_64(msg: &[u8; 64]) -> [u8; 32] {
        let mut state = H0;
        compress_portable(&mut state, msg);
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        pad[62..].copy_from_slice(&512u16.to_be_bytes());
        compress_portable(&mut state, &pad);
        digest(state)
    }

    pub struct Key {
        inner: [u32; 8],
        outer: [u32; 8],
    }

    impl Key {
        pub fn new(key: &[u8; 32]) -> Self {
            let midstate = |pad: u8| {
                let mut block = [pad; 64];
                for (b, k) in block.iter_mut().zip(key) {
                    *b ^= k;
                }
                let mut state = H0;
                compress_portable(&mut state, &block);
                state
            };
            Key {
                inner: midstate(0x36),
                outer: midstate(0x5c),
            }
        }

        /// HMAC of a 57-byte message: 57 B + padding spills into a second
        /// inner block, then one outer block.
        pub fn mac57(&self, msg: &[u8; 57]) -> [u8; 32] {
            let mut blocks = [0u8; 128];
            blocks[..57].copy_from_slice(msg);
            blocks[57] = 0x80;
            blocks[126..].copy_from_slice(&((64 + 57) * 8u16).to_be_bytes());
            let mut state = self.inner;
            compress_portable(&mut state, blocks[..64].try_into().unwrap());
            compress_portable(&mut state, blocks[64..].try_into().unwrap());
            let mut tail = [0u8; 64];
            tail[..32].copy_from_slice(&digest(state));
            tail[32] = 0x80;
            tail[62..].copy_from_slice(&((64 + 32) * 8u16).to_be_bytes());
            let mut state = self.outer;
            compress_portable(&mut state, &tail);
            digest(state)
        }
    }
}

/// The metering layer's cost, bottom up: one SHA-256 block, one chained
/// entry MAC, one `AuditLog::append`, one verified entry. Every id has a
/// `_portable` twin (same algorithm over `compress_portable`, see
/// [`portable_chain`]) so the log separates what the SHA-NI kernel buys
/// (id vs `_portable`) from what holding the key schedule buys
/// (`hmac_entry_57B_portable` vs `_portable_rekeyed`, which re-derives
/// the pads per MAC as the chain did before `HmacKey`).
/// MACs are *chained* — each message embeds the previous digest — so
/// these are latencies, which is what an append pays.
fn bench_audit_chain(quick: bool, entries: &mut Vec<Entry>) {
    use std::hint::black_box;
    use tinymlops_crypto::sha256::shani_available;
    use tinymlops_crypto::{sha256, HmacKey};
    use tinymlops_meter::audit::{AuditEntry, AuditLog, EntryKind};

    let key = [7u8; 32];
    let n: u64 = if quick { 2_000 } else { 20_000 };
    let rounds = if quick { 2 } else { 7 };
    let path = if shani_available() {
        "sha-ni"
    } else {
        "portable"
    };
    println!("audit chain: dispatched compress takes the {path} kernel on this host");

    // The chain's 57-byte message for a Query entry.
    let entry_msg = |seq: u64, payload: u64, time_ms: u64, prev: &[u8; 32]| {
        let mut msg = [0u8; 57];
        msg[..8].copy_from_slice(&seq.to_le_bytes());
        msg[9..17].copy_from_slice(&payload.to_le_bytes());
        msg[17..25].copy_from_slice(&time_ms.to_le_bytes());
        msg[25..].copy_from_slice(prev);
        msg
    };
    let build_log = || {
        let mut log = AuditLog::new(key);
        for t in 0..n {
            log.append(EntryKind::Query, 1, t);
        }
        log
    };
    let portable_key = portable_chain::Key::new(&key);
    let build_portable = || {
        let mut chain: Vec<AuditEntry> = Vec::new();
        let mut prev = [0u8; 32];
        for seq in 0..n {
            prev = portable_key.mac57(&entry_msg(seq, 1, seq, &prev));
            chain.push(AuditEntry {
                seq,
                kind: EntryKind::Query,
                payload: 1,
                time_ms: seq,
                link: prev,
            });
        }
        chain
    };
    let log = build_log();
    assert_eq!(
        build_portable().last().map(|e| e.link),
        Some(log.head()),
        "portable twin must mint the library's chain bit for bit"
    );
    let block = [0xabu8; 64];
    assert_eq!(portable_chain::sha256_64(&block), sha256(&block));

    let per = |total_ns: f64| total_ns / n as f64;
    let chained = |mac: &dyn Fn(&[u8; 57]) -> [u8; 32]| {
        per(time_ns_best(rounds, 1, || {
            let mut prev = [0u8; 32];
            for seq in 0..n {
                prev = mac(&entry_msg(seq, 1, seq, &prev));
            }
            black_box(prev);
        }))
    };
    let schedule = HmacKey::new(&key);
    // (id, dispatched ns, portable ns)
    let pairs = [
        (
            "sha256_64B",
            per(time_ns_best(rounds, 1, || {
                for _ in 0..n {
                    black_box(sha256(black_box(&block)));
                }
            })),
            per(time_ns_best(rounds, 1, || {
                for _ in 0..n {
                    black_box(portable_chain::sha256_64(black_box(&block)));
                }
            })),
        ),
        (
            "hmac_entry_57B",
            chained(&|msg| schedule.mac(msg)),
            chained(&|msg| portable_key.mac57(msg)),
        ),
        (
            "audit_append",
            per(time_ns_best(rounds, 1, || {
                black_box(build_log());
            })),
            per(time_ns_best(rounds, 1, || {
                black_box(build_portable());
            })),
        ),
        (
            "audit_verify_per_entry",
            per(time_ns_best(rounds, 1, || log.verify(&key).unwrap())),
            per(time_ns_best(rounds, 1, || {
                let mut prev = [0u8; 32];
                for e in log.entries() {
                    let want = portable_key.mac57(&entry_msg(e.seq, e.payload, e.time_ms, &prev));
                    assert!(tinymlops_crypto::ct_eq(&want, &e.link));
                    prev = e.link;
                }
            })),
        ),
    ];
    // Pads re-derived per MAC (5 compressions): what every chain append
    // paid before the log held an `HmacKey`.
    let rekeyed_ns = chained(&|msg| portable_chain::Key::new(&key).mac57(msg));
    println!(
        "audit chain: entry MAC {:.0} ns ({path}) <- {:.0} ns portable <- {rekeyed_ns:.0} ns \
         portable rekeyed; append {:.0} ns, verify {:.0} ns/entry",
        pairs[1].1, pairs[1].2, pairs[2].1, pairs[3].1
    );
    let mut push = |id: String, on: &str, ns: f64, baseline: Option<(String, f64)>| {
        entries.push(Entry {
            id,
            group: "audit_chain",
            shape: format!("{n}x-{on}"),
            reps: rounds,
            ns_per_op: ns,
            gflops: None,
            speedup_vs_baseline: baseline.as_ref().map(|(_, base_ns)| base_ns / ns),
            baseline_id: baseline.map(|(id, _)| id),
        });
    };
    let rekeyed_id = "hmac_entry_57B_portable_rekeyed".to_string();
    push(rekeyed_id.clone(), "portable", rekeyed_ns, None);
    for (id, dispatched_ns, portable_ns) in pairs {
        let portable_id = format!("{id}_portable");
        // The schedule win is a row of its own: portable vs portable.
        let schedule_win = (id == "hmac_entry_57B").then(|| (rekeyed_id.clone(), rekeyed_ns));
        push(portable_id.clone(), "portable", portable_ns, schedule_win);
        push(
            id.into(),
            path,
            dispatched_ns,
            Some((portable_id, portable_ns)),
        );
    }
}

fn save_and_verify(mode: &str, entries: &[Entry]) {
    let entry_values: Vec<serde_json::Value> = entries
        .iter()
        .map(|e| {
            serde_json::json!({
                "id": e.id.clone(),
                "group": e.group,
                "shape": e.shape.clone(),
                "reps": e.reps as u64,
                "ns_per_op": e.ns_per_op,
                "gflops": e.gflops.map_or(serde_json::Value::Null, |g| serde_json::json!(g)),
                "baseline_id": e.baseline_id.clone()
                    .map_or(serde_json::Value::Null, |b| serde_json::json!(b)),
                "speedup_vs_baseline": e.speedup_vs_baseline
                    .map_or(serde_json::Value::Null, |s| serde_json::json!(s)),
            })
        })
        .collect();
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let run = serde_json::json!({
        "mode": mode,
        "unix_time_s": unix_s,
        "pool_threads": effective_threads() as u64,
        "entries": entry_values,
    });

    // Append to the existing trajectory when the file parses; start a
    // fresh one otherwise (first run, or a corrupt artifact).
    let mut runs: Vec<serde_json::Value> = std::fs::read(RESULTS_PATH)
        .ok()
        .and_then(|bytes| serde_json::from_slice::<serde_json::Value>(&bytes).ok())
        .and_then(|v| v.as_object().and_then(|o| o.get("runs").cloned()))
        .and_then(|r| r.as_array().cloned())
        .unwrap_or_default();
    runs.push(run);
    let payload = serde_json::json!({
        "bench": "b01_kernels",
        "schema_version": 1u64,
        "runs": runs,
    });
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(
        RESULTS_PATH,
        serde_json::to_vec_pretty(&payload).expect("encode"),
    )
    .expect("write results");

    // Self-check: the artifact on disk must parse and contain this run.
    let bytes = std::fs::read(RESULTS_PATH).expect("re-read results");
    let parsed: serde_json::Value =
        serde_json::from_slice(&bytes).expect("BENCH_kernels.json must parse");
    let n = parsed
        .as_object()
        .and_then(|o| o.get("runs"))
        .and_then(|r| r.as_array().map(Vec::len))
        .expect("runs array");
    assert!(n >= 1, "no runs recorded");
    println!("[saved {RESULTS_PATH}: {n} run(s)]");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mode = if quick { "quick" } else { "full" };
    // Pin the pool to ≥2 threads before first use so the pool-vs-spawn
    // dispatch comparison measures real cross-thread dispatch even on a
    // 1-core host (where the default pool would run inline on both
    // sides). Recorded as `pool_threads` in the run artifact.
    let _ = configure_threads(effective_threads().max(2));
    println!(
        "b01_kernels ({mode} mode, {} pool threads)",
        effective_threads()
    );

    let mut entries = Vec::new();
    // The historical kernel groups run inline (`Dispatch::Sequential`) —
    // identical execution to every pre-pool run on 1-core hosts, so the
    // per-id trajectories in BENCH_kernels.json stay comparable. The
    // threading backends are measured explicitly by `pool_dispatch` and
    // `serving_live` below.
    with_dispatch(Dispatch::Sequential, || {
        bench_gemm_f32(quick, &mut entries);
        bench_gemm_nt(quick, &mut entries);
        bench_qdense(quick, &mut entries);
        bench_dot_maddwd(quick, &mut entries);
        bench_model_forward(quick, &mut entries);
        bench_qmodel_fused(quick, &mut entries);
        bench_serving_replay(quick, &mut entries);
        bench_serving_sharded(quick, &mut entries);
        bench_telemetry(quick, &mut entries);
        bench_batcher_push(quick, &mut entries);
        bench_serving_traced(quick, &mut entries);
        bench_serving_faults(quick, &mut entries);
        bench_serving_controlled(quick, &mut entries);
        bench_xnor_serving(quick, &mut entries);
        bench_serving_closed_loop(quick, &mut entries);
    });
    bench_pool_dispatch(quick, &mut entries);
    bench_serving_live(quick, &mut entries);
    bench_ingest_queue(quick, &mut entries);
    bench_audit_chain(quick, &mut entries);

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.id.clone(),
                e.shape.clone(),
                format!("{}", e.reps),
                fmt(e.ns_per_op, 0),
                e.gflops.map_or("-".into(), |g| fmt(g, 2)),
                e.speedup_vs_baseline
                    .map_or("-".into(), |s| format!("{}x", fmt(s, 2))),
            ]
        })
        .collect();
    print_table(
        "B01 kernel & serving benchmarks",
        &["id", "shape", "reps", "ns/op", "GFLOP/s", "speedup"],
        &rows,
    );

    save_and_verify(mode, &entries);

    // Acceptance gates (informational in quick mode: tiny shapes and 1 rep
    // are noise-dominated, so CI only checks that the harness runs).
    let speedup_of = |id: &str| {
        entries
            .iter()
            .find(|e| e.id == id)
            .and_then(|e| e.speedup_vs_baseline)
    };
    if !quick {
        let gemm = speedup_of("gemm_f32_256x256x256_packed").unwrap_or(0.0);
        let q8 = speedup_of("qdense_int8_b32x256->256_tuned").unwrap_or(0.0);
        let traced = speedup_of("serve_replay_traced").unwrap_or(0.0);
        println!(
            "acceptance: gemm 256^3 packed {gemm:.2}x (need >= 2), qdense int8 b32 {q8:.2}x (need >= 2), \
             traced replay {:.1}% overhead (need < 5%)",
            (1.0 / traced.max(1e-9) - 1.0) * 100.0
        );
        let maddwd = speedup_of("dot_i8_b8x256->256_maddwd").unwrap_or(0.0);
        let unfused = speedup_of("qmodel_fused_int8_unfused").unwrap_or(0.0);
        let fused = speedup_of("qmodel_fused_int8_fused").unwrap_or(0.0);
        let xnor = speedup_of("xnor_serving_ladder_xnor").unwrap_or(0.0);
        println!(
            "acceptance: maddwd b8 {maddwd:.2}x vs autovec (need > 1), fused int8 vs f32 b64 \
             {fused:.2}x (need > 1; unfused was {unfused:.2}x), xnor ladder served {xnor:.3}x \
             the int2 ladder (need >= 1)"
        );
    }
}
