#!/usr/bin/env bash
# Reproduce the full CI gate (.github/workflows/ci.yml) offline, in the
# same order CI runs it: fmt, clippy, release build, tier-1 + workspace
# tests + the benchmark's own suite, warning-free rustdoc, the experiment
# smokes with their jq assertions, and the bench smoke + b01_compare log check.
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
    # ...and nothing but timing may differ from the committed artifacts.
    scripts/smoke.sh identical
fi

if run_stage bench; then
    # The bench run, its jq assertions and the b01_compare check live in
    # scripts/smoke.sh too, shared verbatim with CI's bench-smoke job.
    scripts/smoke.sh b01
fi

banner "ci_local: PASS (stage: $stage)"
