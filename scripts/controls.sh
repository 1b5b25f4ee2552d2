#!/usr/bin/env bash
# Run every seeded-bug negative control and require each to be caught,
# shrunk to a reproducer, and replayed to the same kind of violation:
#
#   Log+P               crash campaign on an unfenced variant (crashtest)
#   -vstore-unsafe-flip versioned store commits its root before its data (crashtest)
#   -break-dedup        fleet re-applies duplicate deliveries (chaos)
#   -weaken-ref         litmus reference drops the sfence->pcommit edge (litmus)
#
# A control that finds nothing, writes no reproducer, or whose reproducer
# replays clean fails the script. Run from anywhere; RACE=1 builds the
# commands with the race detector. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build ${RACE:+-race} -o "$work/" ./cmd/crashtest ./cmd/chaos ./cmd/litmus

# crash_control NAME ARGS...: a crash campaign that must violate; its first
# shrunk plan must replay to a violation.
crash_control() {
  name=$1
  shift
  "$work/crashtest" -exhaustive -torn -expect-violations -json "$@" > "$work/$name.json"
  jq -e '.structures[0].details[0].shrunk' "$work/$name.json" > "$work/$name-minimal.json"
  "$work/crashtest" -replay "$work/$name-minimal.json" -expect-violations
  echo "controls: $name caught, shrunk and replayed"
}

crash_control log-p -structures list -variant Log+P -warmup 40 -ops 2
crash_control vstore-unsafe-flip -structures vstore -vstore-unsafe-flip -warmup 8 -ops 2

"$work/chaos" -trials 12 -seed 7 -break-dedup -expect-violations -shrink-budget 60 -out "$work/break-dedup-minimal.json"
"$work/chaos" -replay "$work/break-dedup-minimal.json" -expect-violations
echo "controls: break-dedup caught, shrunk and replayed"

"$work/litmus" -programs 0 -weaken-ref -expect-violations -out "$work/weaken-ref-minimal.json"
"$work/litmus" -replay "$work/weaken-ref-minimal.json" -expect-violations
echo "controls: weaken-ref caught, shrunk and replayed"
