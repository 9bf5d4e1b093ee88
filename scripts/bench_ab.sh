#!/usr/bin/env bash
# A/B comparison of two built enginebench binaries on one workload.
#
#   scripts/bench_ab.sh <workload> <seconds> <pairs> <binA> <binB>
#
# Runs the two binaries <pairs> times each with `--seed 1 --trace 0`
# (`BENCH_SEED=<n>` picks another seed), alternating which one goes
# first in each pair so slow drift of a shared host hits both alike.
# Prints, for every end-to-end metric of BENCHMARK.json: the median of A
# and of B, the change, the interquartile range of A's runs, and in how
# many pairs B beat A (in the metric's `better` direction). Then, from
# each run's `rep N: ... raw X/s, ref a/b s` lines on stderr, each side's
# median raw (not host-normalised) events/s and median reference-kernel
# time, with a warning when the two sides' reference times differ by
# more than 10 %: the normalised rate then moves with the binary, not
# with the engine. The raw events/s line also gives A's IQR and in how
# many pairs B's raw rate beat A's, so a claim can be read on raw
# events/s alone. Ends with whether every run reported "correct": true.
# Run from the repository root (the observed workload writes under
# .bench_out/ there). Build a binary with
#
#   CARGO_TARGET_DIR=<dir> cargo build --release --offline \
#       --manifest-path enginebench/Cargo.toml
#
# and copy <dir>/release/enginebench somewhere stable before comparing.
set -euo pipefail

if [ "$#" -ne 5 ]; then
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
workload=$1 seconds=$2 pairs=$3 bin_a=$4 bin_b=$5 seed=${BENCH_SEED:-1}
here=$(cd "$(dirname "$0")/.." && pwd)
scratch=$(mktemp -d)
results=$scratch/results
trap 'rm -rf "$scratch"' EXIT

run() {
    local label=$1 bin=$2 line
    line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$scratch/$label.$pair.err" | tail -n 1) || line=''
    printf '%s %s %s\n' "$label" "$pair" "${line:-null}" >>"$results"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run A "$bin_a"
        run B "$bin_b"
    else
        run B "$bin_b"
        run A "$bin_a"
    fi
    echo "pair $pair/$pairs done" >&2
done

python3 - "$results" "$here/BENCHMARK.json" "$workload" "$scratch" <<'PY'
import json
import os
import re
import statistics
import sys

results_path, benchmark_path, workload, scratch = sys.argv[1:5]
with open(benchmark_path) as f:
    better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
runs = {"A": {}, "B": {}}
correct = True
with open(results_path) as f:
    for line in f:
        label, pair, payload = line.rstrip("\n").split(" ", 2)
        result = json.loads(payload)
        if not result or not result.get("correct"):
            correct = False
            continue
        runs[label][int(pair)] = {
            name: m["value"] for name, m in result["metrics"].items()
        }


def quartile_gap(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


print(f"workload {workload}: {len(runs['A'])} A runs, {len(runs['B'])} B runs")
print(f"{'metric':<14} {'median A':>12} {'median B':>12} {'change':>8} "
      f"{'IQR A':>10} {'B won':>7}")
for name, direction in better.items():
    pairs = sorted(set(runs["A"]) & set(runs["B"]))
    a = [runs["A"][p][name] for p in pairs]
    b = [runs["B"][p][name] for p in pairs]
    if not pairs:
        print(f"{name:<14} no complete pair")
        continue
    wins = sum((y > x) if direction == "higher" else (y < x) for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / ma * 100 if ma else float("nan")
    print(f"{name:<14} {ma:>12.6g} {mb:>12.6g} {change:>+7.1f}% "
          f"{quartile_gap(a):>10.4g} {wins:>3}/{len(pairs)}")

# Per run: the median over its reps of the raw rate and of the reference
# times bracketing each rep; per side: the median over its runs.
REP = re.compile(r"^rep \d+: .* raw ([0-9.]+)/s, ref ([0-9.]+)/([0-9.]+) s")
raw = {"A": {}, "B": {}}
ref = {"A": {}, "B": {}}
for name in sorted(os.listdir(scratch)):
    if not name.endswith(".err"):
        continue
    label, pair = name.split(".")[:2]
    rates, refs = [], []
    with open(os.path.join(scratch, name)) as f:
        for line in f:
            m = REP.match(line)
            if m:
                rates.append(float(m.group(1)))
                refs += [float(m.group(2)), float(m.group(3))]
    if rates:
        raw[label][int(pair)] = statistics.median(rates)
        ref[label][int(pair)] = statistics.median(refs)
if raw["A"] and raw["B"]:
    ra, rb = statistics.median(raw["A"].values()), statistics.median(raw["B"].values())
    fa, fb = statistics.median(ref["A"].values()), statistics.median(ref["B"].values())
    pairs = sorted(set(raw["A"]) & set(raw["B"]))
    raw_wins = sum(raw["B"][p] > raw["A"][p] for p in pairs)
    print(f"{'raw events/s':<14} {ra:>12.6g} {rb:>12.6g} {(rb - ra) / ra * 100:>+7.1f}% "
          f"{quartile_gap(list(raw['A'].values())):>10.4g} {raw_wins:>3}/{len(pairs)}")
    print(f"{'host.ref_s':<14} {fa:>12.6g} {fb:>12.6g} {(fb - fa) / fa * 100:>+7.1f}%")
    if abs(fb - fa) > 0.1 * fa:
        print("WARNING: the two binaries' reference-kernel times differ by more "
              "than 10 %; compare raw events/s, not events_per_s")
else:
    print("raw events/s: no rep lines on stderr")
print(f"correct: {str(correct).lower()}")
sys.exit(0 if correct else 1)
PY
