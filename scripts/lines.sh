#!/usr/bin/env bash
# The tracked number of ROADMAP aim 2: non-test Go lines per package and in
# total outside bench/. Prints the table and writes it to LINES.txt at the
# repository root. Reported, not thresholded.
set -euo pipefail
cd "$(dirname "$0")/.."
{ for p in internal/* cmd/*; do
    printf '%6d %s\n' "$(find "$p" -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" "$p"
  done
  printf '%6d total outside bench/\n' "$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
} | tee LINES.txt
