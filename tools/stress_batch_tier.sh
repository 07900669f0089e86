#!/usr/bin/env bash
# Stress loop for timing races that only an optimized build opens:
# runs the suites that drive real ALS retrains and install replays
# through ParallelFor (retrain_scheduler_test, failover_test), the ALS
# half-step stages on their own (als_test), the nearline refresh's
# half-step stage (incremental_trainer_test) and the
# journal's concurrent observers (durability_test: the bootstrapper's
# running sum must replay bit for bit, and each cadence crossing must
# take one snapshot) back to back in 4 parallel loops for a fixed
# wall-clock duration,
# killing any single run after 20 s. A lost ParallelFor wake-up shows
# up as a hang (killed) or a crash, a journal race as a failed
# assertion; the script fails on any non-zero exit, crash or kill and
# keeps the failing run's output.
#
# Usage: tools/stress_batch_tier.sh <build-dir> <seconds>
#   e.g. cmake --build build -j --target retrain_scheduler_test failover_test \
#          durability_test incremental_trainer_test als_test
#        tools/stress_batch_tier.sh build 60
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <seconds>" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
seconds=$2
loops=4
per_run_limit=20
suites=(retrain_scheduler_test failover_test durability_test incremental_trainer_test
        als_test)

for s in "${suites[@]}"; do
  if [[ ! -x "$build/tests/$s" ]]; then
    echo "missing $build/tests/$s (build it first)" >&2
    exit 2
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
end=$(($(date +%s) + seconds))

run_loop() {
  local id=$1 runs=0 fails=0 rc
  mkdir -p "$work/$id"
  cd "$work/$id" || return
  # durability_test keeps its journal files in gtest's TempDir(); one
  # directory per loop keeps the parallel loops off each other's files.
  export TEST_TMPDIR="$work/$id"
  while (($(date +%s) < end)); do
    for s in "${suites[@]}"; do
      timeout -k 5 "$per_run_limit" "$build/tests/$s" >out.log 2>&1
      rc=$?
      runs=$((runs + 1))
      if ((rc != 0)); then
        fails=$((fails + 1))
        # 124 = killed at the per-run limit (a hang); >128 = signal.
        echo "loop $id run $runs: $s exited $rc" >&2
        tail -n 20 out.log >&2
      fi
    done
  done
  echo "$runs $fails" >"$work/$id.count"
}

for ((i = 0; i < loops; ++i)); do run_loop "$i" & done
wait

total_runs=0
total_fails=0
for ((i = 0; i < loops; ++i)); do
  read -r runs fails <"$work/$i.count"
  total_runs=$((total_runs + runs))
  total_fails=$((total_fails + fails))
done
echo "stress_batch_tier: ${total_runs} runs, ${total_fails} failures in ${seconds}s"
((total_fails == 0))
