#!/usr/bin/env bash
# Paired opsbench comparison of two builds on one workload.
#
# Usage:
#   scripts/pair.sh <base-rev> <workload> [pairs=10] [seconds=10] [change-rev]
#
# Exports <base-rev> and the change — <change-rev>, or the working tree
# (tracked and untracked, not ignored) when it is omitted — into two
# directories of the same path length under $PAIR_DIR (default
# ${TMPDIR:-/tmp}/opsbench-pair), builds opsbench in each, and runs the two
# executables in alternation: pair i runs seed i on both sides, the base
# first when i is odd and the change first when it is even. Passing the
# same rev twice gives an A/A set: two builds of one source, the host's
# noise floor.
#
# Prints, per end-to-end metric: both medians and IQRs, the pairs the
# change won (ties count for neither), and the median and range of the
# paired gain (positive = the change is better); then `opsbench compare`'s
# verdict rows. Every run's detail and result lines are kept in
# <workdir>/<workload>.{base,change}.jsonl.
#
# An export is a `git archive`, not a worktree, so the repository's .git
# is never written. It never edits opsbench/ or BENCHMARK.json.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    sed -n '2,5p' "$0" >&2
    exit 2
fi
base_rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-10} change_rev=${5:-}
work=${PAIR_DIR:-${TMPDIR:-/tmp}/opsbench-pair}
export CARGO_NET_OFFLINE=true

# Export <rev> (or the working tree for "") to <dir>, keeping the build
# cache in opsbench/target. A rev's directory is named by its hash, so its
# sources never change under that cache; the working tree keeps its files'
# modification times, so cargo rebuilds exactly what was edited.
export_tree() {
    local rev=$1 dir=$2
    mkdir -p "$dir/opsbench"
    find "$dir" -mindepth 1 -maxdepth 1 ! -name opsbench -exec rm -rf {} +
    find "$dir/opsbench" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
    if [ -n "$rev" ]; then
        git archive "$rev" | tar -x -C "$dir"
    else
        git ls-files -z -co --exclude-standard |
            while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
            tar -c --null -T - | tar -x -C "$dir"
    fi
}

# key <rev|""> — a 12-character directory name.
key() {
    if [ -n "$1" ]; then git rev-parse --short=12 "$1^{commit}"; else echo working-tree; fi
}

build() {
    local rev=$1 side=$2 dir
    dir=$work/$side/$(key "$rev")
    echo "pair: building ${rev:-the working tree} in $dir" >&2
    export_tree "$rev" "$dir"
    (cd "$dir" && cargo build --release --quiet --manifest-path opsbench/Cargo.toml)
    cp "$dir/opsbench/target/release/opsbench" "$work/opsbench-$side"
}

build "$base_rev" a
build "$change_rev" b
exe_base=$work/opsbench-a exe_change=$work/opsbench-b
out_base=$work/$workload.base.jsonl out_change=$work/$workload.change.jsonl
: >"$out_base"
: >"$out_change"

run() {
    local exe=$1 out=$2 seed=$3 tmp
    tmp=$(mktemp)
    "$exe" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$tmp"
    cat "$tmp" >>"$out"
    rm -f "$tmp"
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run "$exe_base" "$out_base" "$i"
        run "$exe_change" "$out_change" "$i"
    else
        run "$exe_change" "$out_change" "$i"
        run "$exe_base" "$out_base" "$i"
    fi
    echo "pair: $i/$pairs done" >&2
done

# Detail lines carry the workload; result lines are the runs' last lines.
jq -rn --slurpfile b <(jq -c 'select(.workload)' "$out_base") \
    --slurpfile c <(jq -c 'select(.workload)' "$out_change") \
    --slurpfile spec BENCHMARK.json '
    def q($p): sort as $s | ((($s | length) - 1) * $p) as $x | ($x | floor) as $i
        | if $i + 1 < ($s | length) then $s[$i] + ($s[$i + 1] - $s[$i]) * ($x - $i) else $s[$i] end;
    def per($d): if $d == 0 then 0 else . / $d * 1000 | round / 10 end;
    def num: if . >= 100 then round else . * 1e5 | round / 1e5 end | tostring;
    def col($w): tostring | " " * ([$w - length, 0] | max) + .;
    "\($b[0].workload): \($b | length) pairs, \($b[0].seconds) s each; gain > 0 is the change better",
    "\("metric" | col(18)) \("base median" | col(13)) \("IQR%" | col(6)) \("change median" | col(13)) \("IQR%" | col(6)) \("won" | col(6)) \("gain% median [min, max]" | col(26))",
    ($spec[0].end_to_end[] as $m
     | [$b[].metrics[$m.name].value] as $x | [$c[].metrics[$m.name].value] as $y
     | ($x | q(0.5)) as $xm | ($y | q(0.5)) as $ym
     | [range(0; $x | length) as $i | $y[$i] - $x[$i] | per($x[$i])
        | if $m.better == "higher" then . else 0 - . end] as $g
     | "\($m.name | col(18)) \($xm | num | col(13)) \(($x | q(0.75)) - ($x | q(0.25)) | per($xm) | col(6)) \($ym | num | col(13)) \(($y | q(0.75)) - ($y | q(0.25)) | per($ym) | col(6)) \("\([$g[] | select(. > 0)] | length)/\($g | length)" | col(6)) \("\($g | q(0.5) * 10 | round / 10) [\($g | min), \($g | max)]" | col(26))")'
"$exe_change" compare "$out_base" "$out_change"
