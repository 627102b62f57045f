#!/usr/bin/env bash
# sweep.sh HEAD_DIR BASE_DIR OUT_DIR — CI's sweep-bench gate.
#
# Runs the gated micro-benchmarks on two checkouts of the repository:
# the change (HEAD_DIR) and its merge base (BASE_DIR; an empty or
# missing directory means no baseline, and nothing is gated).
#
#  1. Screen: three rounds of `-count 1 -benchtime 200ms`, head
#     and base alternating within each round and swapping which goes
#     first every round, so drift on a shared runner lands on both
#     sides alike. benchdiff collapses each row to its best run and
#     flags rows slower (time/op or B/op) than the base by more than
#     10%.
#  2. Confirm: each flagged row alone, five alternating rounds per side
#     at `-benchtime 1s`, compared the same way. Only a
#     row that breaches 10% here too fails the job.
#
# Writes sweep-new.txt, sweep-old.txt and BENCH_sweep.json (screen) and
# confirm-new.txt, confirm-old.txt and BENCH_sweep_confirm.json
# (confirm, when anything was flagged) to OUT_DIR. Exit status 1 means
# a confirmed regression.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: sweep.sh HEAD_DIR BASE_DIR OUT_DIR" >&2
  exit 2
fi
head=$(cd "$1" && pwd)
base=""
if [ -n "$2" ] && [ -d "$2" ]; then
  base=$(cd "$2" && pwd)
fi
mkdir -p "$3"
out=$(cd "$3" && pwd)
threshold=0.10

# A top-level '|' in -bench separates whole name paths, so each
# nodes=1800/jobs=N filter applies to its own benchmark
# (BenchmarkSimulateStream, BenchmarkSimulatePolicies) alone. The
# 100,000-job policy row is the one whose outcome order is a real
# permutation of arrival order (IDs past job9999); at 10,000 jobs it
# is the identity.
bench='BenchmarkCapSweep|BenchmarkMeasureOnePoint|BenchmarkCapSolverSolve|BenchmarkKDE|BenchmarkProfileSeries|BenchmarkProfileRun|BenchmarkProfileCodec|BenchmarkScheduleFire$|BenchmarkSimulateStream$/nodes=1800/jobs=10000$|BenchmarkSimulatePolicies$/nodes=1800/jobs=10000$|BenchmarkSimulatePolicies$/nodes=1800/jobs=100000$|BenchmarkSum|BenchmarkTotalTrace|BenchmarkDoHit$|BenchmarkColdMeasure$|BenchmarkWarmMeasure$|BenchmarkEnvMeasureCold$|BenchmarkQuickStudyCold$|BenchmarkQuickStudyDiskCold$|BenchmarkQuickStudyWarm$|BenchmarkScheduleBuild|BenchmarkOpenAndRead$'
pkgs=(./internal/workloads ./internal/dft/method ./internal/core ./internal/hw/gpu ./internal/stats ./internal/sched ./internal/sim ./internal/timeseries ./internal/hw/node ./internal/memo ./internal/memo/diskcache ./internal/serve ./internal/experiments ./cmd/powerstudy)

benchdiff=$(mktemp -d)/benchdiff
(cd "$head" && go build -o "$benchdiff" ./cmd/benchdiff)

# run DIR BENCHTIME REGEX PKG... appends one -count 1 pass to stdout.
# A failing baseline pass is reported, not fatal: the base may predate
# a benchmark or fail to build, and its rows then simply go ungated.
run() {
  local dir=$1 benchtime=$2 regex=$3
  shift 3
  (cd "$dir" && go test "$@" -run '^$' -bench "$regex" -benchmem -count 1 -benchtime "$benchtime") ||
    { [ "$dir" = "$base" ] && echo "baseline bench pass failed; its rows go ungated" >&2; } ||
    return 1
}

# alternate ROUNDS BENCHTIME REGEX NEW OLD PKG... runs head and base
# in alternating passes, swapping which goes first each round.
alternate() {
  local n=$1 benchtime=$2 regex=$3 new=$4 old=$5 r
  shift 5
  for r in $(seq "$n"); do
    if [ -z "$base" ]; then
      run "$head" "$benchtime" "$regex" "$@" >> "$new"
    elif [ $((r % 2)) -eq 1 ]; then
      run "$head" "$benchtime" "$regex" "$@" >> "$new"
      run "$base" "$benchtime" "$regex" "$@" >> "$old"
    else
      run "$base" "$benchtime" "$regex" "$@" >> "$old"
      run "$head" "$benchtime" "$regex" "$@" >> "$new"
    fi
  done
}

rm -f "$out/BENCH_sweep_confirm.json"
for f in sweep-new sweep-old confirm-new confirm-old; do
  : > "$out/$f.txt"
done
alternate 3 200ms "$bench" "$out/sweep-new.txt" "$out/sweep-old.txt" "${pkgs[@]}"

status=0
"$benchdiff" -new "$out/sweep-new.txt" -old "$out/sweep-old.txt" \
  -threshold "$threshold" -out "$out/BENCH_sweep.json" > /dev/null 2> "$out/screen.err" || status=$?
cat "$out/screen.err" >&2
case $status in
0) echo "screen: no row above +10%"; exit 0 ;;
1) ;;
*) exit "$status" ;;
esac

# Each flagged row is "<import path>.<Benchmark/sub/...>"; rerun it
# alone, every name level anchored and regex-quoted.
sed -n 's/^REGRESSION \(.*\): [0-9.]* -> .*/\1/p' "$out/screen.err" | sort -u |
  while read -r row; do
    pkg=${row%%.Benchmark*}
    name=Benchmark${row#*.Benchmark}
    regex=$(printf '%s' "$name" | sed 's/[][\.*^$+?(){}|]/\\&/g; s#/#$/^#g; s/^/^/; s/$/$/')
    echo "confirm: $row" >&2
    alternate 5 1s "$regex" "$out/confirm-new.txt" "$out/confirm-old.txt" "./${pkg#vasppower/}" < /dev/null
  done

status=0
"$benchdiff" -new "$out/confirm-new.txt" -old "$out/confirm-old.txt" \
  -threshold "$threshold" -out "$out/BENCH_sweep_confirm.json" > /dev/null || status=$?
if [ "$status" -eq 0 ]; then
  echo "confirm: every flagged row is within +10% at -benchtime 1s; not a regression"
fi
exit "$status"
