//! Shared experiment-harness utilities: table rendering, JSON result
//! emission and wall-clock timing.
//!
//! Every experiment binary (`src/bin/e*.rs`, `src/bin/f1_platform.rs`)
//! prints a human-readable table *and* writes the same rows as JSON under
//! `results/` so EXPERIMENTS.md numbers are regenerable and diffable.

use std::time::Instant;
use tinymlops_core::Platform;
use tinymlops_registry::{ModelFormat, ModelId, ModelRecord, SemVer};
use tinymlops_serve::{
    ExecConfig, FabricConfig, FabricReport, LiveReport, LoadPlan, MigrationSpec,
};

/// Render an aligned ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<width$} | ", c, width = widths[i]));
        }
        s
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    println!("{}", line(&header_cells));
    let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
    println!("{:-<total$}", "");
    for row in rows {
        println!("{}", line(row));
    }
}

/// Write experiment rows as JSON under `results/<name>.json` (best effort:
/// prints a warning instead of failing the experiment if the FS is
/// read-only).
pub fn save_json(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let objects: Vec<serde_json::Value> = rows
        .iter()
        .map(|row| {
            let mut obj = serde_json::Map::new();
            for (h, c) in headers.iter().zip(row) {
                obj.insert((*h).to_string(), serde_json::Value::String(c.clone()));
            }
            serde_json::Value::Object(obj)
        })
        .collect();
    let payload = serde_json::json!({ "experiment": name, "rows": objects });
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    match std::fs::write(&path, serde_json::to_vec_pretty(&payload).expect("json")) {
        Ok(()) => println!("[saved {path}]"),
        Err(e) => eprintln!("[warn: could not save {path}: {e}]"),
    }
}

/// The shared synthetic model family used by serving benchmarks and the
/// sharding experiment: one fat f32, one mid int8, one small int2 record
/// (40 KB / 10 KB / 2.5 KB). One definition, so every serving experiment
/// and `b01_kernels`' `xnor_serving` group replay the same catalog.
#[must_use]
pub fn synthetic_family(name: &str, base_id: u64) -> Vec<ModelRecord> {
    [
        (ModelFormat::F32, 40_000u64, 0.96),
        (ModelFormat::Quantized { bits: 8 }, 10_000, 0.95),
        (ModelFormat::Quantized { bits: 2 }, 2_500, 0.88),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (format, size, acc))| {
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("accuracy".into(), acc);
        ModelRecord {
            id: ModelId(base_id + i as u64),
            name: name.into(),
            version: SemVer::new(1, 0, 0),
            format,
            parent: None,
            artifact: [0; 32],
            size_bytes: size,
            macs: 100_000,
            metrics,
            tags: vec![],
            created_ms: 0,
        }
    })
    .collect()
}

/// [`synthetic_family`] plus an int1 (XNOR) record: the activation-
/// binarization-aware binary variant the brownout ladder's deepest level
/// serves (1-bit body + f32 head ≈ 1.3 KB; accuracy from the
/// `e01_bitwidth` E1b measurement, above the ~0.70 weight-only-trained
/// baseline on the same kernel). A separate constructor so historical
/// experiments keep their 3-record catalogs byte-identical.
#[must_use]
pub fn synthetic_family_xnor(name: &str, base_id: u64) -> Vec<ModelRecord> {
    let mut family = synthetic_family(name, base_id);
    let mut metrics = std::collections::BTreeMap::new();
    metrics.insert("accuracy".into(), 0.82);
    family.push(ModelRecord {
        id: ModelId(base_id + family.len() as u64),
        name: name.into(),
        version: SemVer::new(1, 0, 0),
        format: ModelFormat::Quantized { bits: 1 },
        parent: None,
        artifact: [0; 32],
        size_bytes: 1_300,
        macs: 100_000,
        metrics,
        tags: vec!["aware:activation-binarized".into()],
        created_ms: 0,
    });
    family
}

/// Time a closure, returning `(result, milliseconds)`.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

/// Time a closure repeated `n` times, returning mean milliseconds.
pub fn time_ms_n(n: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_secs_f64() * 1000.0 / n as f64
}

/// Format a float with fixed precision.
#[must_use]
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format bytes human-readably.
#[must_use]
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Replay `plan` on the simulator through a fabric freshly built on
/// `platform` with `specs` scheduled, folding the report into the
/// platform's telemetry — the composition the fabric experiments repeat.
pub fn serve_sharded(
    platform: &mut Platform,
    plan: &LoadPlan,
    cfg: &FabricConfig,
    specs: &[MigrationSpec],
) -> FabricReport {
    let mut fabric = platform.build_fabric(plan, cfg).expect("fabric");
    fabric.schedule_migrations(specs).expect("specs valid");
    let report = fabric.run(&plan.generate()).expect("sim replay");
    platform.absorb_serving(&report);
    report
}

/// [`serve_sharded`] on the threaded backend.
pub fn serve_live(
    platform: &mut Platform,
    plan: &LoadPlan,
    cfg: &FabricConfig,
    specs: &[MigrationSpec],
    exec: &ExecConfig,
) -> LiveReport {
    let mut fabric = platform.build_fabric(plan, cfg).expect("fabric");
    fabric.schedule_migrations(specs).expect("specs valid");
    let live = fabric.run_live(&plan.generate(), exec).expect("live run");
    platform.absorb_serving(&live.fabric);
    live
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_bytes(100), "100 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn timers_run() {
        let (v, ms) = time_ms(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert!(time_ms_n(3, || {}) >= 0.0);
    }
}
