#!/usr/bin/env bash
# One smoke per experiment: run the quick binary, then gate on its JSON
# artifacts with jq. This is the single home of the smoke + assert
# pairs — both .github/workflows/ci.yml and scripts/ci_local.sh call in
# here, so the two gates can never drift apart.
#
# Usage:
#   scripts/smoke.sh e18        # one experiment
#   scripts/smoke.sh all        # e15 through e22, in order
#   scripts/smoke.sh b01        # kernel bench smoke + b01_compare log check
#                               # (its own CI job; not part of `all`)
#   scripts/smoke.sh identical  # after `all`: every regenerated e15-e22
#                               # artifact equals the committed one,
#                               # timing cells aside
#
# Requires: the repo toolchain and `jq`. Offline like CI.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TERM_COLOR=${CARGO_TERM_COLOR:-always}
export CARGO_NET_OFFLINE=true

if ! command -v jq >/dev/null 2>&1; then
    echo "smoke: jq is required (the gates assert on experiment artifacts with it)" >&2
    exit 1
fi

quick() { cargo run --release -p tinymlops_bench --bin "$1" -- --quick; }

smoke_e15() {
    # e15 has no quick mode: the full 100k-request replay IS the smoke.
    cargo run --release -p tinymlops_bench --bin e15_serving
}

smoke_e16() {
    quick e16_sharding
    jq -e '.rows | length >= 4' results/e16_sharding_fleet.json
    jq -e '.rows[-1].node == "fleet"' results/e16_sharding_fleet.json
    jq -e '.rows[0].unrefunded == "0"' results/e16_sharding_refunds.json
}

smoke_e17() {
    quick e17_live_serving
    jq -e '.rows | length == 3' results/e17_live_parity.json
    jq -e '.rows[-1].backend == "identical" and .rows[-1].served == "yes"' results/e17_live_parity.json
    jq -e '.rows[-1].unrefunded == "0"' results/e17_live_parity.json
    jq -e '.rows | length == 2' results/e17_live_throughput.json
    jq -e '.rows[0].unrefunded == "0"' results/e17_live_wallmode.json
}

smoke_e18() {
    quick e18_migration
    # Every migrated tenant ends up served on its new home, no prepaid
    # query is lost (unrefunded 0, census equal), sim and live replays
    # are bit-identical, and the bounded-load cap held.
    jq -e '.rows | length >= 1' results/e18_migration_handoff.json
    jq -e '[.rows[] | select(.new_home_serves == "yes")] | length >= 1' results/e18_migration_handoff.json
    jq -e '[.rows[] | select(.unrefunded != "0" or .census != "equal")] | length == 0' results/e18_migration_handoff.json
    jq -e '.rows[-1].identical == "yes"' results/e18_migration_parity.json
    jq -e '.rows[0]["victim load after"] == "0"' results/e18_migration_drain.json
    jq -e '[.rows[] | select(.capped != "yes")] | length == 0' results/e18_migration_bounded.json
    jq -e '.rows[0].unrefunded == "0"' results/e18_migration_wall.json
}

smoke_e19() {
    quick e19_observability
    # Tracing must not change any serving outcome (sim and live
    # identical, off/on fleets equal), fleet quantiles must land within
    # one histogram bucket, and the Chrome-trace dump must carry both
    # handoff spans of the scripted migration.
    jq -e '.rows | length == 3' results/e19_observe_parity.json
    jq -e '[.rows[] | select(.identical == "NO")] | length == 0' results/e19_observe_parity.json
    jq -e '.rows[0]["trace events"] == "0" and .rows[0].windows == "0"' results/e19_observe_parity.json
    jq -e '.rows[1]["trace events"] == .rows[2]["trace events"]' results/e19_observe_parity.json
    jq -e '[.rows[] | select(.within != "yes")] | length == 0' results/e19_observe_hist.json
    jq -e '.rows | length >= 1' results/e19_observe_windows.json
    jq -e '[.rows[] | select(.["span kind"] == "handoff")][0].events == "2"' results/e19_observe_trace.json
    jq -e 'length >= 1 and ([.[] | select(.name == "handoff")] | length == 2)' results/e19_trace.json
}

smoke_e20() {
    quick e20_faults
    # A mid-stream crash must lose zero prepaid queries (unrefunded 0,
    # census exact, every chain verified), the same fault plan must
    # replay bit-identically on the threaded backend, an armed-but-empty
    # plan must change nothing, the brownout ladder must beat shed-only
    # under the flash crowd while holding p99, and a genuinely panicked
    # worker must surface as one structured NodeFailure instead of
    # killing the run.
    jq -e '.rows[0].unrefunded == "0" and .rows[0].census == "exact" and .rows[0].chains == "verified"' results/e20_faults_crash.json
    jq -e '(.rows[0]["failover sheds"] | tonumber) > 0' results/e20_faults_crash.json
    jq -e '.rows[-1].identical == "yes"' results/e20_faults_parity.json
    jq -e '.rows[-1].identical == "yes"' results/e20_faults_identity.json
    jq -e '.rows[-1].brownout_wins == "yes" and .rows[-1].p99_held == "yes"' results/e20_faults_brownout.json
    jq -e '(.rows[-1].succeeded | tonumber) > 0 and (.rows[-1].deadline_denied | tonumber) > 0' results/e20_faults_retry.json
    jq -e '.rows[0].panic_contained == "yes"' results/e20_faults_panic.json
}

smoke_e21() {
    quick e21_autoscale
    # The controlled run must actually scale (>= 1 join and >= 1 drain
    # inside the stream) while holding the p99/shed gates the static
    # fleet breaches, the controlled replay must be bit-identical sim vs
    # live (control log included), and an armed-but-untrippable
    # controller must change nothing.
    jq -e '.rows[-1].slo_held == "yes" and .rows[-1].controller_wins == "yes"' results/e21_autoscale_elastic.json
    jq -e '(.rows[-1].joins | tonumber) >= 1 and (.rows[-1].drains | tonumber) >= 1' results/e21_autoscale_elastic.json
    jq -e '.rows[0].slo_held == "NO"' results/e21_autoscale_elastic.json
    jq -e '.rows[0].identical == "yes" and (.rows[0].joins | tonumber) >= 1' results/e21_autoscale_parity.json
    jq -e '.rows[-1].identical == "yes"' results/e21_autoscale_identity.json
}

smoke_e22() {
    quick e22_overload
    # The lock-free-ingest replay must be bit-identical sim vs live on
    # the parity workload, with every admitted-then-shed query refunded.
    jq -e '.rows[0].identical == "yes"' results/e22_overload_parity.json
    jq -e '(.rows[0].requests | tonumber) >= 1000' results/e22_overload_parity.json
    jq -e '.rows[0].unrefunded == "0"' results/e22_overload_parity.json
    # The knee sweep must show goodput monotone non-increasing past the
    # knee (the level where goodput peaks), bounded retry amplification
    # (the token-bucket retry budget throttles retry storms), zero
    # unrefunded queries at every offered load, and the managed fabric
    # (brownout + controller) shedding less than the static open loop at
    # the top of the sweep.
    jq -e '[.rows[] | .["goodput %"] | tonumber] as $g | ($g | index(max)) as $k
           | [range($k; ($g | length) - 1)] | all(. as $i | $g[$i] + 1e-9 >= $g[$i + 1])' \
        results/e22_overload_knee.json
    jq -e '[.rows[] | .["retry amp"] | tonumber] | all(. <= 4.0)' results/e22_overload_knee.json
    jq -e '[.rows[] | select(.unrefunded != "0")] | length == 0' results/e22_overload_knee.json
    jq -e '.rows[-1] | (.["managed shed %"] | tonumber) < (.["open shed %"] | tonumber)' \
        results/e22_overload_knee.json
    # All four shaped arrival patterns ran and conserved prepaid volume.
    jq -e '.rows | length == 4' results/e22_overload_shaped.json
    jq -e '[.rows[] | select(.unrefunded != "0")] | length == 0' results/e22_overload_shaped.json
    # Wall-clock closed loop: every issued request is accounted for.
    jq -e '.rows[0] | (.issued | tonumber) == (.served | tonumber) + (.shed | tonumber) + (.lost | tonumber)' \
        results/e22_overload_wall.json
}

smoke_b01() {
    local log=results/BENCH_kernels.json
    cargo run --release -p tinymlops_bench --bin b01_kernels -- --quick
    jq -e '.schema_version == 1 and (.runs | length >= 1)' "$log"
    # Fused-inference groups must be present in the newest run, the fused
    # int8 forward must beat f32, and the integer tile on the host's best
    # arm must beat its portable arm at batch >= 8.
    jq -e '.runs[-1].entries | map(.group) | (index("dot_i8_maddwd") != null) and (index("qmodel_fused") != null) and (index("xnor_serving") != null)' "$log"
    jq -e '[.runs[-1].entries[] | select(.id == "qmodel_fused_int8_fused")][0].speedup_vs_baseline > 1' "$log"
    jq -e '[.runs[-1].entries[] | select(.id | (startswith("dot_i8_b8x") or startswith("dot_i8_b32x")) and endswith("_tile"))] | length >= 1 and all(.speedup_vs_baseline > 1)' "$log"
    # Audit-chain group: dispatched + portable rows for the metering
    # layer, and the held key schedule must beat re-deriving the pads.
    jq -e '.runs[-1].entries | map(.id) | (index("sha256_64B") != null) and (index("hmac_entry_57B") != null) and (index("audit_append") != null) and (index("audit_verify_per_entry") != null)' "$log"
    jq -e '[.runs[-1].entries[] | select(.id == "hmac_entry_57B_portable")][0].speedup_vs_baseline > 1' "$log"
    # Log check: schema drift and vanished groups fail; ns/op deltas are
    # report-only (serving throughput is opsbench's to judge).
    cargo run --release -p tinymlops_bench --bin b01_compare
}

smoke_identical() {
    # Run after `all`. The e15-e22 artifacts are tracked, so "this change
    # moved no serving outcome" is a verdict, not a sentence in CHANGES:
    # every regenerated results/e15..e22 table must equal the committed
    # one (`git show HEAD:<file>`) once the cells that measure the host
    # rather than the system are masked - `wall ms`, `req/s (wall)`,
    # `p99 ms (real)`, e20_faults_panic's `lost requests` (how far the
    # feeder got before the panicking worker closed its queue), and
    # e22_overload_wall's `issued`, `pushes` and `served` (how many think
    # / issue cycles the wall-clock closed loop fits into its run; its
    # `issued == served + shed + lost` assert in smoke_e22 still holds).
    # results/e19_trace.json (a 0.5 MB event dump) is not tracked; its
    # per-kind event counts are results/e19_observe_trace.json, which is.
    local mask='walk(if type == "object" then with_entries(select(
        (.key | IN("wall ms", "req/s (wall)", "p99 ms (real)")
            or ($file == "results/e20_faults_panic.json" and . == "lost requests")
            or ($file == "results/e22_overload_wall.json" and IN("issued", "pushes", "served"))) | not))
        else . end)'
    local failed=0 file
    # Committed or regenerated: a table on one side only is a difference.
    for file in $({ git ls-tree -r --name-only HEAD -- results
                    ls results/e1[5-9]_*.json results/e2[0-2]_*.json; } \
                  | grep -E '^results/e(1[5-9]|2[0-2])_' | sort -u); do
        [ "$file" = results/e19_trace.json ] && continue
        if ! git cat-file -e "HEAD:$file" 2>/dev/null; then
            echo "identical: $file is not committed (new artifacts must be tracked)" >&2
            failed=1
        elif [ ! -f "$file" ]; then
            echo "identical: $file is committed but was not regenerated" >&2
            failed=1
        elif ! diff -u --label "HEAD:$file" --label "$file" \
            <(git show "HEAD:$file" | jq -S --arg file "$file" "$mask") \
            <(jq -S --arg file "$file" "$mask" "$file"); then
            failed=1
        fi
    done
    [ "$failed" = 0 ] || { echo "identical: a non-timing cell differs from HEAD" >&2; return 1; }
}

banner() { printf '\n==== smoke: %s ====\n' "$*"; }

experiments=(e15 e16 e17 e18 e19 e20 e21 e22)
target=${1:-all}

if [ "$target" = all ]; then
    for exp in "${experiments[@]}"; do
        banner "$exp"
        "smoke_$exp"
    done
elif declare -F "smoke_$target" >/dev/null; then
    banner "$target"
    "smoke_$target"
else
    echo "smoke: unknown experiment '$target' (expected one of: ${experiments[*]} all b01 identical)" >&2
    exit 1
fi

printf '\nsmoke: PASS (%s)\n' "$target"
