//! What the benchmark reads from the host: process CPU time, peak RSS,
//! and the stamp (commit, CPU model, cores, build profile) that makes a
//! number attributable.

use serde_json::{json, Value};

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported 100 to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process: every thread, exited ones
/// included (`/proc/self/stat` fields 14 + 15). The sum is exact to one
/// tick; 0.0 where procfs is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Field 2 (comm) may contain spaces; fields are counted after its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / CLK_TCK
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0.0 where
/// procfs is unavailable.
pub fn peak_rss_mib() -> f64 {
    let kib = || -> Option<f64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    kib().map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// HEAD of the checkout the binary runs in, read straight from `.git`
/// (no subprocess); "unknown" outside a git checkout.
fn commit_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cores the process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The stamp carried by every detail line.
pub fn stamp() -> Value {
    json!({
        "commit": commit_sha(),
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "pool_threads": rayon::pool::effective_threads(),
        "release": !cfg!(debug_assertions),
    })
}
