#!/usr/bin/env bash
# Alternating benchmark pairs of the working tree against another commit.
#
#   tools/bench_pairs.sh BASE_REF WORKLOAD PAIRS SECONDS [SEED]
#
# Exports BASE_REF, and copies the working tree's src/, perfbench/ (without
# perfbench/out/) and BENCHMARK.json, into a temporary directory, then runs
# PAIRS pairs of untraced benchmark runs,
#
#   python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# one run at a time, each side from its own copy.  The side that runs first
# alternates: BASE_REF in odd pairs, the working tree in even ones.  Nothing
# in the repository is written; each copy's perfbench/out/ holds its runs.
# SEED defaults to 1.
#
# Prints every run's end-to-end metrics, as each run reports them, then for
# each metric each side's median and quartiles over the pairs, the change of
# the median, and in how many pairs the working tree was better, worse or
# equal, "better" being the direction BENCHMARK.json gives the metric.  Each
# metric with a bound in BENCHMARK.json also gets a verdict against it, the
# bound being a fraction of the base median: "beyond bound" when the tree's
# median is worse than the base's by more than the bound, else "unresolved"
# when the base's quartile spread (q3 - q1) exceeds the bound, else "within
# bound".
#
# Exit status: 0 when every run succeeded, 1 when one failed (its stderr is
# shown), 2 on a usage error.  Set PYTHON to choose the interpreter
# (default: python3).
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 BASE_REF WORKLOAD PAIRS SECONDS [SEED]" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
    echo "error: unknown commit '$1'" >&2
    exit 2
}
workload=$2 pairs=$3 seconds=$4 seed=${5:-1}
case $pairs in
    '' | *[!0-9]* | 0) echo "error: PAIRS must be a positive integer" >&2; exit 2 ;;
esac
python=${PYTHON:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base" "$work/tree"
git -C "$root" archive "$base_sha" src perfbench BENCHMARK.json | tar -x -C "$work/base"
tar -c -C "$root" --exclude=perfbench/out --exclude=__pycache__ src perfbench BENCHMARK.json \
    | tar -x -C "$work/tree"

# run SIDE PAIR: one untraced run; prints its metrics and appends them to runs.jsonl
run() {
    local side=$1 pair=$2
    if ! (cd "$work/$side" && "$python" perfbench/run.py --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace 0 >"$work/out" 2>"$work/err"); then
        echo "error: $side run of pair $pair failed:" >&2
        cat "$work/err" >&2
        exit 1
    fi
    "$python" - "$side" "$pair" "$work/out" "$work/runs.jsonl" <<'EOF'
import json, sys
side, pair, out, runs = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
result = json.loads(open(out).read().strip().splitlines()[-1])
metrics = {name: m["value"] for name, m in result["metrics"].items()}
metrics["failed_frac"] = result["failed"] / max(result["attempted"], 1)
with open(runs, "a") as fh:
    fh.write(json.dumps({"side": side, "pair": pair, "metrics": metrics}) + "\n")
values = "  ".join(f"{name} {value:.6g}" for name, value in metrics.items())
print(f"pair {pair} {side:4s}  {values}", flush=True)
EOF
}

echo "$workload, seed $seed, $pairs pairs of ${seconds} s: base $base_sha against the working tree"
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run base "$pair"
        run tree "$pair"
    else
        run tree "$pair"
        run base "$pair"
    fi
done

"$python" - "$work/runs.jsonl" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

runs = [json.loads(line) for line in open(sys.argv[1])]
end_to_end = json.load(open(sys.argv[2]))["end_to_end"]
better = {m["name"]: m["better"] for m in end_to_end}
better["failed_frac"] = "lower"
bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
by_side = {side: {r["pair"]: r["metrics"] for r in runs if r["side"] == side}
           for side in ("base", "tree")}
pairs = sorted(by_side["base"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(name, side):
    values = [by_side[side][p][name] for p in pairs]
    median, spread = statistics.median(values), quartiles(values)
    return median, spread, f"{median:.6g} [{', '.join(f'{q:.6g}' for q in spread)}]"


print(f"{'metric':14s}  {'base median [q1, q3]':34s}  {'tree median [q1, q3]':34s}  "
      f"{'change':>7s}  {'tree better/worse/equal':23s}  verdict")
for name in by_side["base"][pairs[0]]:
    (base_med, (q1, q3), base_text), (tree_med, _, tree_text) = (
        summary(name, s) for s in ("base", "tree"))
    sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
    diffs = [sign * (by_side["tree"][p][name] - by_side["base"][p][name]) for p in pairs]
    won, lost = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
    change = f"{(tree_med - base_med) / base_med:+.1%}" if base_med else "n/a"
    verdict = ""
    if name in bounds:
        allowed = bounds[name] * abs(base_med)
        verdict = ("beyond bound" if sign * (base_med - tree_med) > allowed
                   else "unresolved" if q3 - q1 > allowed else "within bound")
    print(f"{name:14s}  {base_text:34s}  {tree_text:34s}  {change:>7s}  "
          f"{f'{won}/{lost}/{len(pairs) - won - lost}':23s}  {verdict}".rstrip())
EOF
