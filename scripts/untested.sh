#!/usr/bin/env bash
# Reports what no test reaches: runs the whole suite with every package
# under internal/ and cmd/ instrumented, merges the coverage blocks of all
# test binaries (a block counts as reached when any binary reached it) and
# writes, per function, the non-test statements no test executes, most
# first, then the total. Reported, not thresholded.
#
#   bash scripts/untested.sh [out]    # default experiments-report/untested.txt
#
# Command mains read 0: their tests run them as subprocesses, which write
# no coverage here.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-experiments-report/untested.txt}
mkdir -p "$(dirname "$out")"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go test -count=1 -coverpkg=./internal/...,./cmd/... -coverprofile="$work/all.out" ./... > "$work/test.log" ||
  { cat "$work/test.log"; exit 1; }
# Each binary lists every instrumented block: keep the highest count.
awk '/^mode:/ { if (NR == 1) print; next }
     { k = $1 " " $2; if (!(k in n) || $3 > n[k]) n[k] = $3 }
     END { for (k in n) print k, n[k] }' "$work/all.out" > "$work/merged.out"
go tool cover -func="$work/merged.out" > "$work/func.txt"

# A block belongs to the last function of its file starting at or before
# it; blocks never straddle two functions.
awk -F'\t+' 'FNR == NR {
       if ($1 ~ /^total:/) next
       split($1, a, ":"); f[a[1], ++nf[a[1]]] = a[2]; name[a[1], nf[a[1]]] = $2
       next
     }
     FNR > 1 && $3 == 0 {
       split($1, a, ":"); split(a[2], b, "."); file = a[1]; line = b[1] + 0
       best = 0
       for (i = 1; i <= nf[file]; i++) if (f[file, i] + 0 <= line && f[file, i] + 0 > f[file, best] + 0) best = i
       if (best) { miss[file ":" f[file, best] " " name[file, best]] += $2; total += $2 }
     }
     END {
       for (k in miss) printf "%6d %s\n", miss[k], k | "sort -k1,1nr -k2"
       close("sort -k1,1nr -k2")
       printf "%6d statements no test executes\n", total
     }' "$work/func.txt" FS=' ' "$work/merged.out" > "$out"
tail -n 1 "$out"
