#!/usr/bin/env bash
# The tracked number of ROADMAP aim 2: non-test source lines (Go and
# assembly, *.go and *.s) per package and in total outside bench/. Prints
# the table and writes it to LINES.txt at the repository root. Reported,
# not thresholded.
#
# --diff <rev> prints the same table at <rev> (read with git show, no
# worktree) beside the working tree, with the delta; a package present on
# one side only counts 0 on the other. It writes no file.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ${1:-} != --diff ]]; then
  { for p in internal/* cmd/*; do
      printf '%6d %s\n' "$(find "$p" \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' | xargs cat | wc -l)" "$p"
    done
    printf '%6d total outside bench/\n' "$(find . -path ./bench -prune -o \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -print | xargs cat | wc -l)"
  } | tee LINES.txt
  exit
fi
rev=${2:?usage: scripts/lines.sh [--diff <rev>]}
git rev-parse --verify -q "$rev^{commit}" > /dev/null || { echo "lines.sh: unknown revision $rev" >&2; exit 2; }

# files prints "<lines> <path>" for every non-test Go or assembly file
# outside bench/:
# at the revision given, or in the working tree without one.
files() {
  if [[ $# -gt 0 ]]; then
    git ls-tree -r --name-only "$1" | grep -e '\.go$' -e '\.s$' | grep -v -e '_test\.go$' -e '^bench/' |
      while read -r f; do printf '%d %s\n' "$(git show "$1:$f" | wc -l)" "$f"; done
  else
    find . -path ./bench -prune -o \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -print | sed 's|^\./||' |
      while read -r f; do printf '%d %s\n' "$(wc -l < "$f")" "$f"; done
  fi
}

printf '%6s → %-6s %6s\n' "$rev" "tree" "delta"
awk '{
       side = FILENAME == ARGV[1] ? 1 : 2
       if (split($2, p, "/") > 2 && (p[1] == "internal" || p[1] == "cmd")) {
         pkg = p[1] "/" p[2]; seen[pkg]; n[side, pkg] += $1
       }
       total[side] += $1
     }
     END {
       for (pkg in seen) printf "%6d → %-6d %+6d %s\n", n[1, pkg], n[2, pkg], n[2, pkg] - n[1, pkg], pkg | "sort -k5"
       close("sort -k5")
       printf "%6d → %-6d %+6d total outside bench/\n", total[1], total[2], total[2] - total[1]
     }' <(files "$rev") <(files)
