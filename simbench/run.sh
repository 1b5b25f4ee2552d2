#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash simbench/run.sh --workload paper-suite --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and Go's own state files stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout, and the build never reaches the network.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/simbench" && go build -o "$out/simbench" .) >&2
# The launch time lets setup_s include exec and package initialisation.
SIMBENCH_T0=$EPOCHREALTIME exec "$out/simbench" "$@"
