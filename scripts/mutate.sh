#!/usr/bin/env bash
# Runs the committed mutants: each scripts/mutants/<name>.patch is a small
# deliberate bug that a named test must catch. A patch opens with the line
#
#   # <package> <go test -run pattern>
#
# then any further '#' lines saying what the bug is, then the diff. Every
# patch is applied to its own temporary git worktree of HEAD (committed
# code only) and its tests run there. A mutant is
#
#   killed    the tests fail, as they must;
#   survived  the tests pass: the test no longer catches the bug;
#   stale     the patch no longer applies: re-cut it against the code that
#             moved, never delete it to get a pass.
#
# Exits non-zero on any survived or stale mutant.
#
#   bash scripts/mutate.sh                       # every mutant
#   bash scripts/mutate.sh scripts/mutants/x.patch
#
# Worktrees and test logs go to a directory under ${TMPDIR:-/tmp}, removed
# on exit; a survivor's log is printed first.
set -uo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ $# -gt 0 ]; then
  patches=("$@")
else
  patches=("$root"/scripts/mutants/*.patch)
fi
work=$(mktemp -d)
cleanup() {
  for wt in "$work"/wt-*; do
    [ -d "$wt" ] && git -C "$root" worktree remove --force "$wt"
  done
  git -C "$root" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT

status=0
for patch in "${patches[@]}"; do
  patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
  name=$(basename "$patch" .patch)
  read -r hash pkg run < "$patch"
  if [ "$hash" != "#" ] || [ -z "$pkg" ] || [ -z "$run" ]; then
    echo "stale     $name: first line is not '# <package> <pattern>'"
    status=1
    continue
  fi
  wt=$work/wt-$name
  git -C "$root" worktree add --quiet --detach "$wt" HEAD
  if ! git -C "$wt" apply "$patch" 2> "$work/$name.log"; then
    verdict=stale
  elif (cd "$wt" && go test -count=1 -run "$run" "$pkg") >> "$work/$name.log" 2>&1; then
    verdict=survived
  else
    verdict=killed
  fi
  git -C "$root" worktree remove --force "$wt"
  if [ "$verdict" != killed ]; then
    sed 's/^/    /' "$work/$name.log"
    status=1
  fi
  printf '%-9s %s (%s -run %s)\n' "$verdict" "$name" "$pkg" "$run"
done
exit $status
