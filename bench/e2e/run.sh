#!/usr/bin/env bash
# Builds velox_e2e (Release, into bench/e2e/build) and runs it.
#
#   bench/e2e/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke]
#
# Prints one "workload.metric value unit n=<samples>" line per metric,
# then one JSON line {"correct", "attempted", "failed", "metrics"}, and
# writes bench/e2e/out/results.json (plus trace_<workload>.json with
# --trace). Exits non-zero if the build fails or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build"
mkdir -p "$build"

log="$build/build.log"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" -j "$(nproc)"; } >"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

# Only a checkout with its own .git names a commit; never look upward.
sha="unknown"
if [ -e "$root/.git" ]; then
  sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

exec "$build/velox_e2e" --out "$here/out" --git-sha "$sha" "$@"
