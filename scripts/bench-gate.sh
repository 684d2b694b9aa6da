#!/usr/bin/env bash
# Runs one second of every workload named in scripts/bench-baseline.json
# through bench/run.sh (seed 1, untraced; each run verifies its own output
# and exits non-zero on a mismatch) and compares the counters recorded
# there, which a work-bounded run repeats exactly per seed. No timing is
# compared: one-shot timings on a shared box spread by more than any
# threshold worth setting. The result files stay in bench/out/gate/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
baseline=$root/scripts/bench-baseline.json
out=$root/bench/out/gate
mkdir -p "$out"

status=0
for w in $(jq -r 'keys_unsorted[]' "$baseline"); do
  bash "$root/bench/run.sh" --workload "$w" --seed 1 --seconds 1 --trace 0 -o "$out/$w.json"
  # A baseline key is a top-level field of the result (correct, attempted,
  # failed) or the name of a metric.
  diff=$(jq -r --arg w "$w" --slurpfile base "$baseline" '
    . as $r | $base[0][$w] | to_entries[]
    | .key as $k
    | (if $r | has($k) then $r[$k] else $r.metrics[$k].value end) as $got
    | select($got != .value)
    | "  \($k): got \($got), baseline \(.value)"' "$out/$w.json")
  if [ -n "$diff" ]; then
    printf 'bench-gate: %s differs from scripts/bench-baseline.json\n%s\n' "$w" "$diff"
    status=1
  else
    echo "bench-gate: $w matches"
  fi
done
exit $status
