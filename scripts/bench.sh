#!/usr/bin/env bash
# bench.sh — run the repository's benchmark suite and emit
# BENCH_results.json so the performance trajectory is tracked across
# PRs.
#
# Usage:
#   scripts/bench.sh [quick|full]
#
#   quick (default)  the smoke set: BenchmarkAppRun (single-thread
#                    simulator speed) and the cache/noc/soc
#                    micro-benchmarks.
#   full             additionally regenerates every experiment artifact
#                    (BenchmarkHeadline, BenchmarkFigure*, ...) under the
#                    Quick protocol, with the worker pool at GOMAXPROCS
#                    and again pinned to 1 worker for the sequential
#                    reference.
#
# Environment:
#   COHMELEON_WORKERS  worker-pool override forwarded to the benchmarks.
#   BENCH_COUNT        repetitions per benchmark (default 3; the JSON
#                      keeps every sample so consumers can take medians —
#                      single samples are meaningless on noisy hosts).
#
# Output: BENCH_results.json in the repository root, of the form
#   {"generated_unix": ..., "go": "...", "benchmarks":
#     [{"name": "...", "workers": "...", "samples_ns_op": [...]}, ...]}

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-quick}"
count="${BENCH_COUNT:-3}"
out="BENCH_results.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run_bench() { # pkg regex benchtime workers label
    local pkg="$1" regex="$2" benchtime="$3" workers="$4" label="$5"
    echo ">> $label ($pkg -bench $regex, workers=$workers)" >&2
    COHMELEON_WORKERS="$workers" go test "$pkg" -run NONE -bench "$regex" \
        -benchtime "$benchtime" -count "$count" -timeout 120m \
        | tee -a "$tmp/raw.txt" \
        | awk -v w="$workers" '/^Benchmark/ { printf "%s %s %s\n", $1, w, $3 }' >> "$tmp/samples.txt"
}

run_bench_mem() { # pkg regex benchtime workers label — also records allocs/op
    local pkg="$1" regex="$2" benchtime="$3" workers="$4" label="$5"
    echo ">> $label ($pkg -bench $regex, workers=$workers, -benchmem)" >&2
    COHMELEON_WORKERS="$workers" go test "$pkg" -run NONE -bench "$regex" \
        -benchtime "$benchtime" -count "$count" -timeout 120m -benchmem \
        | tee -a "$tmp/raw.txt" \
        | awk -v w="$workers" '/^Benchmark/ { printf "%s %s %s %s\n", $1, w, $3, $7 }' >> "$tmp/samples.txt"
}

: > "$tmp/raw.txt"
: > "$tmp/samples.txt"

# Single-thread simulator speed: the hot-path reference number.
run_bench . 'BenchmarkAppRun$' 3x "${COHMELEON_WORKERS:-1}" "simulator app run"

# The same application once per registered coherence-protocol stack,
# with allocs/op: tracks the default (mesi) stack against its
# alternatives and guards the batched flows' alloc discipline under
# every protocol.
run_bench_mem . 'BenchmarkAppRunProtocol/' 3x "${COHMELEON_WORKERS:-1}" "simulator app run per protocol"

# Hot-path micro-benchmarks. The coherence-group and DMA-group series
# carry allocs/op: the run-batched group flows must stay 0 allocs/op on
# every steady-state path.
run_bench ./internal/cache '.' 1000000x 1 "cache micro"
run_bench ./internal/noc 'Transfer' 1000000x 1 "noc micro"
run_bench_mem ./internal/soc 'BenchmarkCoherenceGroupAccess|BenchmarkDMAGroup|BenchmarkCachedGroup' 100000x 1 "coherence group micro"
run_bench ./internal/soc 'BenchmarkInvocation' 100000x 1 "soc invocation micro"

# Simulation-kernel micro-benchmarks, with allocs/op: the alloc columns
# are the regression guard for the zero-allocation scheduler (0 expected
# on every steady-state path; TestZeroAlloc* enforces the same in CI).
run_bench_mem ./internal/sim 'BenchmarkEngineScheduleRun|BenchmarkProcSwitch|BenchmarkSemaphorePingPong' 500000x 1 "sim kernel micro"

# Learner decide+update micro-benchmarks, one sub-benchmark per
# registered algorithm, with allocs/op: the default ("q") path is the
# per-invocation hot path and must stay 0 allocs/op (TestZeroAlloc* in
# internal/learn enforces the same in CI).
run_bench_mem ./internal/learn 'BenchmarkLearnerDecide|BenchmarkFeaturize' 1000000x 1 "learner micro"

# Randomized scenario sweep (fixed 8 scenarios inside the benchmark):
# tracks the per-scenario cost of the sweep subsystem across PRs.
# BenchmarkSweep regenerates cold each iteration; BenchmarkSweepCached
# regenerates warm through the content-keyed run cache — the gap is the
# duplicate-run elimination on repeated artifact regeneration.
# BenchmarkSweep16 is the same sweep at 16 scenarios (a second point on
# the scenario-count axis); BenchmarkSweepScreening is the 8-scenario
# grid through the calibrated analytical cost model with the calibration
# pre-fitted — its ratio to BenchmarkSweep is the screening speedup.
run_bench . 'BenchmarkSweep$' 1x "${COHMELEON_WORKERS:-1}" "scenario sweep (cold)"
run_bench . 'BenchmarkSweepCached$' 1x "${COHMELEON_WORKERS:-1}" "scenario sweep (warm run cache)"
run_bench . 'BenchmarkSweep16$' 1x "${COHMELEON_WORKERS:-1}" "scenario sweep (16 scenarios)"
run_bench . 'BenchmarkSweepScreening$' 1x "${COHMELEON_WORKERS:-1}" "scenario sweep (screening fidelity)"

# Cost-model estimate micro-benchmark, with allocs/op: one feature
# extraction plus one model evaluation — the screening hot path — must
# stay 0 allocs/op (TestZeroAllocFeaturesEstimate enforces the same in
# CI).
run_bench_mem ./internal/costmodel 'BenchmarkCostModelEstimate$' 1000000x 1 "cost model estimate micro"

# Analytical replay of one ~300-invocation app, with allocs/op: Run keeps
# every invocation record (screened roster evaluation), Train keeps none
# (screened training). Both allocate per run, never per invocation
# (TestZeroAllocPerInvocationReplay enforces that in CI).
run_bench_mem ./internal/costmodel 'BenchmarkEstimatorRun$|BenchmarkEstimatorTrain$' 2000x 1 "cost model replay"

# Learner grid (fixed 4 scenarios × 8 stacks inside the benchmark):
# tracks the cost of the pluggable-learner comparison across PRs.
run_bench . 'BenchmarkLearners$' 1x "${COHMELEON_WORKERS:-1}" "learner grid"

if [ "$mode" = "full" ]; then
    # Artifact regeneration, parallel then sequential reference.
    run_bench . 'BenchmarkHeadline$' 1x 0 "headline (workers=GOMAXPROCS)"
    run_bench . 'BenchmarkHeadline$' 1x 1 "headline (sequential)"
    run_bench . 'BenchmarkFigure[0-9]+$|BenchmarkTable4$|BenchmarkOverhead$|BenchmarkAblation$' 1x 0 "figures"
fi

python3 - "$tmp/samples.txt" "$out" <<'EOF'
import json, sys, time, subprocess

samples = {}
allocs = {}
order = []
for line in open(sys.argv[1]):
    parts = line.split()
    name, workers, ns = parts[0], parts[1], parts[2]
    key = (name, workers)
    if key not in samples:
        samples[key] = []
        order.append(key)
    samples[key].append(float(ns))
    if len(parts) > 3:  # -benchmem rows carry allocs/op
        allocs.setdefault(key, []).append(float(parts[3]))

go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
def entry(n, w):
    e = {"name": n, "workers": w, "samples_ns_op": samples[(n, w)]}
    if (n, w) in allocs:
        e["samples_allocs_op"] = allocs[(n, w)]
    return e
doc = {
    "generated_unix": int(time.time()),
    "go": go,
    "benchmarks": [entry(n, w) for (n, w) in order],
}
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"wrote {sys.argv[2]} with {len(order)} benchmark series")
EOF
