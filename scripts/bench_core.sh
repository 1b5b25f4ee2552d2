#!/usr/bin/env bash
# Measure the simulator hot loops and append the results to
# BENCH_core.json, the checked-in perf trajectory: the single-core
# instruction rate under SP and under the fenced Log+P+Sf variant, the
# paper-suite round's run rate (population included), the
# replicated-fleet request rates (a small fleet with the chaos fabric
# compiled in but disabled — the chaos-off overhead guard — and the
# 16-node fleet-serve shape), the versioned store's changeset-commit rate
# and the trial rates of the crash, litmus and chaos campaign engines. Run
# from anywhere:
#
#   scripts/bench_core.sh              # 3 iterations (default)
#   BENCHTIME=10x scripts/bench_core.sh
#
# CI runs this with BENCHTIME=1x as a smoke and as a perf gate: each
# benchmark must produce a parseable rate figure, the trajectory file must
# stay valid, and no fresh entry may fall more than 20% below its
# predecessor (benchtrend -check fails the build otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-3x}"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
date=$(date -u +%Y-%m-%d)

for bench in BenchmarkCoreInstrRate BenchmarkCoreInstrRateLogPSf; do
  out=$(go test -run '^$' -bench "^$bench\$" -benchtime "$benchtime" .)
  printf '%s\n' "$out" >&2
  printf '%s\n' "$out" |
    go run ./cmd/benchtrend -file BENCH_core.json -commit "$commit" -date "$date"
done

out=$(go test -run '^$' -bench '^BenchmarkPaperSuite$' -benchtime "$benchtime" .)
printf '%s\n' "$out" >&2
printf '%s\n' "$out" |
  go run ./cmd/benchtrend -file BENCH_core.json -metric runs/s -commit "$commit" -date "$date"

for bench in BenchmarkClusterFleet BenchmarkClusterFleetServe; do
  out=$(go test -run '^$' -bench "^$bench\$" -benchtime "$benchtime" .)
  printf '%s\n' "$out" >&2
  printf '%s\n' "$out" |
    go run ./cmd/benchtrend -file BENCH_core.json -metric sim-reqs/s -commit "$commit" -date "$date"
done

out=$(go test -run '^$' -bench '^BenchmarkVstoreCommit$' -benchtime "$benchtime" .)
printf '%s\n' "$out" >&2
printf '%s\n' "$out" |
  go run ./cmd/benchtrend -file BENCH_core.json -metric sim-commits/s -commit "$commit" -date "$date"

for bench in BenchmarkFaultCampaign BenchmarkLitmusCampaign BenchmarkChaosCampaign; do
  out=$(go test -run '^$' -bench "^$bench\$" -benchtime "$benchtime" .)
  printf '%s\n' "$out" >&2
  printf '%s\n' "$out" |
    go run ./cmd/benchtrend -file BENCH_core.json -metric trials/s -commit "$commit" -date "$date"
done

go run ./cmd/benchtrend -file BENCH_core.json -check
