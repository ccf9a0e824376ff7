#!/usr/bin/env bash
# Run-to-run repeatability check (wired into ctest as `check_repeatability`
# for tables III/IV, `check_repeatability_scheduling` for the scheduling
# ablation and `check_repeatability_figures` for Fig. 4b/4c).
#
# The Table III/IV high-load cells were historically flaky: tenants sharing
# a board emit equal-ready-stamp tasks, and before every session was
# registered with the conservative gate the pop order followed the real
# connect order of the driver threads. The fix is the sequential pre-warm
# (SharingOptions.prewarm, docs/SCHEDULING.md); this script is the
# regression tripwire — each benchmark passed as an argument must produce
# byte-identical stdout across three consecutive runs.
#
# Usage: tools/check_repeatability.sh <benchmark-binary> [<more> ...]
set -euo pipefail

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <benchmark-binary> [<more> ...]" >&2
  exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

status=0
for bench in "$@"; do
  name="$(basename "$bench")"
  for run in 1 2 3; do
    "$bench" > "$tmpdir/$name.$run" 2>&1 || {
      echo "check_repeatability: $name: run $run exited non-zero" >&2
      status=1
      continue 2
    }
  done
  if diff -q "$tmpdir/$name.1" "$tmpdir/$name.2" > /dev/null \
     && diff -q "$tmpdir/$name.1" "$tmpdir/$name.3" > /dev/null; then
    echo "check_repeatability: $name: 3/3 runs byte-identical"
  else
    echo "check_repeatability: $name: output differs across runs" >&2
    diff "$tmpdir/$name.1" "$tmpdir/$name.2" >&2 || true
    diff "$tmpdir/$name.1" "$tmpdir/$name.3" >&2 || true
    status=1
  fi
done
exit "$status"
