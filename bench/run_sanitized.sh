#!/usr/bin/env bash
# Builds the tree under TSan and ASan (the BF_SANITIZE matrix from
# CMakePresets.json) and runs the fault-, parallel-, recovery-, trace-,
# churn-, sched-, proto- and datapath-labeled tests — the fault-injection
# matrix plus the queue/gate/event/pump suites it leans on, the worker-pool /
# parallel-kernel suites, the deadline/retry/health recovery suite, the
# golden-trace / span-invariant suites (TraceBuilder collects spans from
# app threads, devmgr workers and board completions concurrently), the
# registry churn invariant stress harness, the device-scheduler policy
# suite (dispatcher threads push while the worker pops), the wire codec
# suite (golden encodings plus a seeded byte-mutation fuzz loop over every
# decoder) and the data-plane suite (shm segments with bytes and size-only,
# hot-path allocation loops) — under each. Any sanitizer report fails the
# run.
#
# Usage: bench/run_sanitized.sh [thread|address ...]
#   (defaults to both; pass a subset to save time)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(thread address)
fi

for sanitizer in "${sanitizers[@]}"; do
  case "$sanitizer" in
    thread)  preset=tsan ;;
    address) preset=asan ;;
    *) echo "unknown sanitizer '$sanitizer' (want thread|address)" >&2
       exit 2 ;;
  esac
  build="$repo/build-$preset"

  echo "=== [$sanitizer] configure ($build) ==="
  cmake -S "$repo" -B "$build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBF_SANITIZE="$sanitizer"

  echo "=== [$sanitizer] build ==="
  cmake --build "$build" -j"$(nproc)"

  echo "=== [$sanitizer] ctest -L 'fault|parallel|recovery|trace|churn|sched|proto|datapath' ==="
  # halt_on_error makes any report a hard test failure; the second-kill
  # suppression keeps TSan's atexit handling from masking the exit code.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest --test-dir "$build" \
      -L "fault|parallel|recovery|trace|churn|sched|proto|datapath" --output-on-failure
done

echo "All sanitized fault, parallel, recovery, trace, churn, sched, proto and datapath suites passed."
