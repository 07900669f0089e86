#!/usr/bin/env bash
# Runs the benchmark N times and prints, for every workload and metric,
# the median, the interquartile range (Python's statistics.quantiles,
# n=4) and (max-min)/median, each spread as a share of the median.
#
#   bench/e2e/repeat.sh N [run.sh args...]
#
# Without --seed among the args, run i uses seed i. Writes the summary
# and every run's values to bench/e2e/out/repeat.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ $# -lt 1 ] || ! [[ "$1" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: $0 N [run.sh args...]" >&2
  exit 2
fi
n="$1"
shift

fixed_seed=0
for arg in "$@"; do
  if [ "$arg" = "--seed" ]; then fixed_seed=1; fi
done

runs="$here/out/repeat"
rm -rf "$runs"
mkdir -p "$runs"
for i in $(seq 1 "$n"); do
  seed=()
  if [ "$fixed_seed" = 0 ]; then seed=(--seed "$i"); fi
  echo "repeat.sh: run $i/$n" >&2
  "$here/run.sh" "$@" "${seed[@]}" >"$runs/stdout_$i.txt"
  cp "$here/out/results.json" "$runs/results_$i.json"
done

python3 - "$runs" "$n" "$here/out/repeat.json" <<'EOF'
import json
import statistics
import sys

runs_dir, n, out_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
results = [json.load(open(f"{runs_dir}/results_{i}.json")) for i in range(1, n + 1)]

summary = {}
for res in results:
    for wname, w in res["workloads"].items():
        for mname, m in w["metrics"].items():
            entry = summary.setdefault(wname, {}).setdefault(
                mname, {"unit": m["unit"], "values": [], "n": []})
            entry["values"].append(m["value"])
            entry["n"].append(m["n"])

print(f"{'workload.metric':58} {'median':>14} {'iqr/med':>8} {'rng/med':>8}  unit")
for wname, metrics in summary.items():
    for mname, e in metrics.items():
        vals = [v for v in e["values"] if v is not None]
        med = statistics.median(vals) if vals else 0.0
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        e["median"] = med
        e["iqr"] = q3 - q1
        e["iqr_share"] = (q3 - q1) / med if med else 0.0
        e["range_share"] = (max(vals) - min(vals)) / med if med and vals else 0.0
        print(f"{wname + '.' + mname:58} {med:14.6g} {e['iqr_share']:8.3f} "
              f"{e['range_share']:8.3f}  {e['unit']}")

first = results[0]
doc = {
    "provenance": dict(first["provenance"], runs=n,
                       seeds=[r["provenance"]["seed"] for r in results]),
    "correct": all(r["correct"] for r in results),
    "attempted": [r["attempted"] for r in results],
    "failed": [r["failed"] for r in results],
    "metrics": summary,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"repeat.sh: wrote {out_path}", file=sys.stderr)
EOF
