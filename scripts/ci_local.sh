#!/usr/bin/env bash
# Reproduce the full CI gate (.github/workflows/ci.yml) offline, in the
# same order CI runs it: fmt, clippy, release build, tier-1 + workspace
# tests + the benchmark's own suite, warning-free rustdoc, the experiment
# smokes with their jq assertions, and the bench smoke + regression gate.
#
# Usage:
#   scripts/ci_local.sh           # the whole gate
#   scripts/ci_local.sh lint      # one stage: lint|build|test|docs|smoke|bench
#
# Requires: the repo's pinned stable Rust toolchain and `jq`. No network:
# every dependency is vendored under shims/ (CARGO_NET_OFFLINE below
# enforces it, exactly like CI).

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TERM_COLOR=${CARGO_TERM_COLOR:-always}
export CARGO_NET_OFFLINE=true

stage=${1:-all}
run_stage() { [ "$stage" = all ] || [ "$stage" = "$1" ]; }

banner() { printf '\n==== %s ====\n' "$*"; }

if ! command -v jq >/dev/null 2>&1; then
    echo "ci_local: jq is required (CI asserts on experiment artifacts with it)" >&2
    exit 1
fi

if run_stage lint; then
    banner "lint: rustfmt"
    cargo fmt --all --check
    banner "lint: clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

if run_stage build; then
    banner "build (release)"
    cargo build --release
fi

if run_stage test; then
    banner "tier-1 tests"
    cargo test -q
    banner "workspace tests"
    cargo test --workspace -q
    # The allocation budget holds for optimised builds only (the debug
    # run above skips it with a note), so run that one binary in release.
    banner "allocation budget (release)"
    cargo test --release -q -p tinymlops_serve --test alloc_budget
    # Outside the workspace, so not covered above: every benchmark
    # workload at smoke scale with all output checks on.
    banner "benchmark self-tests (opsbench)"
    cargo test --offline --manifest-path opsbench/Cargo.toml
fi

if run_stage docs; then
    banner "rustdoc (deny warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
fi

if run_stage smoke; then
    # The smoke + jq assertion pairs live in scripts/smoke.sh, shared
    # verbatim with the CI test job (e15 through e22, in order).
    scripts/smoke.sh all
fi

if run_stage bench; then
    banner "b01 kernel bench smoke + regression gate"
    cargo run --release -p tinymlops_bench --bin b01_kernels -- --quick
    jq -e '.schema_version == 1 and (.runs | length >= 1)' results/BENCH_kernels.json
    # Fused-inference groups must be present in the newest run, the fused
    # int8 forward must beat f32, and the vpmaddwd dot must beat the
    # autovectorized kernel at batch >= 8.
    jq -e '.runs[-1].entries | map(.group) | (index("dot_i8_maddwd") != null) and (index("qmodel_fused") != null) and (index("xnor_serving") != null)' results/BENCH_kernels.json
    jq -e '[.runs[-1].entries[] | select(.id == "qmodel_fused_int8_fused")][0].speedup_vs_baseline > 1' results/BENCH_kernels.json
    jq -e '[.runs[-1].entries[] | select(.id | (startswith("dot_i8_b8x") or startswith("dot_i8_b32x")) and endswith("_maddwd"))] | length >= 1 and all(.speedup_vs_baseline > 1)' results/BENCH_kernels.json
    # Overload-serving groups: the ingest-queue handoff and closed-loop
    # serving benches must be present, and the lock-free queue must not
    # lose to the mutex baseline it replaced.
    jq -e '.runs[-1].entries | map(.group) | (index("ingest_queue") != null) and (index("serving_closed_loop") != null)' results/BENCH_kernels.json
    jq -e '[.runs[-1].entries[] | select(.id == "ingest_queue_handoff_lockfree")][0].speedup_vs_baseline >= 1' results/BENCH_kernels.json
    # Audit-chain group: dispatched + portable rows for the metering
    # layer, and the held key schedule must beat re-deriving the pads.
    jq -e '.runs[-1].entries | map(.id) | (index("sha256_64B") != null) and (index("hmac_entry_57B") != null) and (index("audit_append") != null) and (index("audit_verify_per_entry") != null)' results/BENCH_kernels.json
    jq -e '[.runs[-1].entries[] | select(.id == "hmac_entry_57B_portable")][0].speedup_vs_baseline > 1' results/BENCH_kernels.json
    # Hard ns/op gate on the queue groups only — their workloads are
    # long-running enough to be meaningful on a shared runner.
    cargo run --release -p tinymlops_bench --bin b01_compare -- --fail-on-regression 50 --groups ingest_queue,serving_closed_loop
fi

banner "ci_local: PASS (stage: $stage)"
