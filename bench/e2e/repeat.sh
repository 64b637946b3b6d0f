#!/usr/bin/env bash
# Repeats bench_e2e to measure its run-to-run spread.
#
#   bench/e2e/repeat.sh N [SECONDS] [FIRST_SEED]
#
# Makes N invocations of every workload listed in BENCHMARK.json, each a
# separate process through bench/e2e/run.py, measuring SECONDS each
# (default: run_seconds in BENCHMARK.json). Invocation i uses seed
# FIRST_SEED+i and runs the workloads forward when i is even and in reverse
# when odd, so no workload always runs first. Then prints, per workload and
# end-to-end metric, the median, the quartiles (Python's
# statistics.quantiles(values, n=4)) and the spread (IQR / median), and
# checks that the even and the odd invocations agree: each set's median
# must be within the metric's BENCHMARK.json bound of the other's.
# Results are kept in $CARGO_TARGET_DIR/repeat (default .bench_build/repeat).
set -euo pipefail

n=${1:?usage: repeat.sh N [SECONDS] [FIRST_SEED]}
root=$(cd "$(dirname "$0")/../.." && pwd)
seconds=${2:-$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")}
first_seed=${3:-1}
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
out="$build/repeat"
mkdir -p "$out"
rm -f "$out"/*.jsonl

mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$root/BENCHMARK.json")

for ((i = 0; i < n; i++)); do
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    order=()
    for ((k = ${#workloads[@]} - 1; k >= 0; k--)); do order+=("${workloads[k]}"); done
  fi
  for w in "${order[@]}"; do
    seed=$((first_seed + i))
    echo "repeat.sh: invocation $((i + 1))/$n $w seed $seed" >&2
    line=$(python3 "$root/bench/e2e/run.py" --workload "$w" --seed "$seed" \
             --seconds "$seconds" --trace 0 | tail -n 1)
    echo "{\"invocation\": $i, \"result\": $line}" >> "$out/$w.jsonl"
  done
done

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import json, os, statistics, sys

bench = json.load(open(sys.argv[1]))
ok = True
for w in bench["workloads"]:
    rows = [json.loads(l) for l in open(os.path.join(sys.argv[2], w["name"] + ".jsonl"))]
    print("\n%s (%d runs)" % (w["name"], len(rows)))
    print("%-20s %12s %12s %12s %8s %8s %10s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "sets_diff"))
    for m in bench["end_to_end"]:
        name = m["name"]
        vals = [r["result"]["metrics"][name]["value"] for r in rows]
        sets = [[r["result"]["metrics"][name]["value"] for r in rows
                 if r["invocation"] % 2 == k] for k in (0, 1)]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        a, b = (statistics.median(s) if s else med for s in sets)
        # How much worse either set's median is than the other's.
        worse = (max(a, b) / min(a, b) - 1) if min(a, b) > 0 else 0.0
        flag = ""
        if worse > m["bound"]:
            flag += " SETS-DISAGREE"
            ok = False
        if name != "setup_s" and spread > m["bound"]:
            flag += " SPREAD>BOUND"
            ok = False
        print("%-20s %12.6g %12.6g %12.6g %8.4f %8.4f %10.4f%s" % (
            name, med, q1, q3, spread, m["bound"], worse, flag))
    failed = sum(not r["result"]["correct"] for r in rows)
    if failed:
        print("  %d runs failed their output checks" % failed)
        ok = False
print("\nagreement: %s" % ("ok" if ok else "FAILED"))
sys.exit(0 if ok else 1)
EOF
