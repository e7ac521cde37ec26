#!/usr/bin/env bash
# Byte-identity check of the nlipol outputs against another commit.
#
#   tools/compare_outputs.sh BASE_REF
#
# Exports BASE_REF into a temporary directory, runs the same fixed list of
# nlipol commands with the working tree's src/ and with BASE_REF's src/, and
# compares every file they write (output files, stdout, stderr and exit
# codes) with cmp.  The commands cover every figure id, `simulate` in both
# regimes with Poisson noise, three more exact `simulate` runs that reach
# every branch of the exact composer (unequal gains with a pump phase, the
# rotated sample of the first analyzer setting, a blocked signal arm), an
# exact `simulate` whose photon number overflows (V = 1e200, expected to
# exit 3), `calibrate`, and `estimate` for the fourier pipeline and for
# every assumption of the rotated and ellipse pipelines (the general mode
# with --phibar).  Five refusals pin their stderr and exit code 3 too:
# `calibrate` with the two scans swapped, the fourier pipeline on a scan
# that ramps one phase only (unequal rates), the rotated pipeline on a
# setting pair at 4 points per period, and the ellipse pipeline on two
# records of different lengths.
#
# For each .csv file that differs, it also prints how far the file moved:
# the number of cells that differ and the largest absolute difference
# between them (nan when a differing cell is not a number), in total and
# for each column that moved, named by its header cell.  For each .json
# file that differs, it prints the leaf keys that differ (dotted paths, list
# items by index) and the largest absolute difference between them.
#
# Exit status: 0 when every file matches and every command exits as
# expected (0, or the code listed in expected_exit), 1 otherwise, 2 on a
# usage error.  Set PYTHON to choose the interpreter (default: python3).
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
    echo "error: unknown commit '$1'" >&2
    exit 2
}
python=${PYTHON:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base" "$work/configs"
git -C "$root" archive "$base_sha" | tar -x -C "$work/base"

# The configs: the README's example sample (V = 0.5, crossed quarter-wave
# pair) scanned at equal rates, the same in the exact regime at V = 1e200,
# at unequal gains with a pump phase and with the signal arm blocked, two
# sample-removed calibration scans, and the two analyzer settings of a
# sample rotated by psi = 1.8 (the first also in the exact regime, both also
# at 4 points per period).
"$python" - "$work/configs" <<'EOF'
import copy, json, math, sys

qwp, diag = math.pi / 2, math.pi / 4
base = {
    "interferometer": {
        "gain1": {"V": 0.5}, "gain2": {"V": 0.5}, "signal": {"ts_mag": 1.0},
        "wp1": {"axis_angle": diag, "retardance": qwp},
        "wp2": {"axis_angle": 3 * diag, "retardance": qwp},
        "sample": {"t_perp_mag": 0.9, "t_par_mag": 0.2,
                   "t_perp_phase": 0.85, "t_par_phase": -0.05},
    },
    "schedule": {"xi_bar": 0.23, "delta_xi": -0.61, "rate_phi0": 16 * math.pi / 400,
                 "rate_delta": 16 * math.pi / 400, "n_samples": 400},
    "noise": {"counts_per_unit_N": 1.0e4, "seed": 5, "mode": "poisson"},
    "regime": "lowgain",
}
empty = {"t_perp_mag": 1.0, "t_par_mag": 1.0, "t_perp_phase": 0.0, "t_par_phase": 0.0}


def config(name, interferometer=None, schedule=None, noise=None, regime="lowgain"):
    doc = copy.deepcopy(base)
    doc["interferometer"].update(interferometer or {})
    doc["schedule"].update(schedule or {})
    doc["noise"].update(noise or {})
    doc["regime"] = regime
    with open(f"{sys.argv[1]}/{name}.json", "w") as fh:
        json.dump(doc, fh)


config("lowgain")
config("exact", regime="exact")
config("exact_overflow", {"gain1": {"V": 1e200}, "gain2": {"V": 1e200}}, regime="exact")
config("exact_unequal", {"gain1": {"V": 0.3, "pump_phase": 0.7}, "gain2": {"V": 1.2}},
       noise={"seed": 10}, regime="exact")
config("exact_blocked", {"signal": {"ts_mag": 0.0}}, noise={"seed": 11}, regime="exact")
config("cal_signal", {"sample": empty},
       {"rate_phi0": 2 * math.pi / 100, "rate_delta": 0.0}, {"seed": 6})
config("cal_idler", {"sample": empty},
       {"rate_phi0": 0.0, "rate_delta": 4 * math.pi / 160}, {"seed": 7})
rotated = {"sample": {"t_perp_mag": 0.9, "t_par_mag": 0.3,
                      "t_perp_phase": 0.4, "t_par_phase": 0.4}, "psi": 1.8}
schedule = {"xi_bar": 0.0, "delta_xi": 0.0, "rate_phi0": 2 * math.pi / 72,
            "rate_delta": 0.0, "n_samples": 72}
config("setting1", rotated, schedule, {"seed": 8})
config("exact_rotated", rotated, schedule, {"seed": 12}, regime="exact")
config("setting2", dict(rotated, wp2={"axis_angle": diag, "retardance": qwp}),
       schedule, {"seed": 9})
coarse = dict(schedule, rate_phi0=2 * math.pi / 4)
config("coarse1", rotated, coarse, {"seed": 13})
config("coarse2", dict(rotated, wp2={"axis_angle": diag, "retardance": qwp}),
       coarse, {"seed": 14})
EOF

# run_all SRC OUT: run the command list with SRC on PYTHONPATH, in OUT.
run_all() {
    local src=$1 out=$2 cfg=$work/configs
    mkdir "$out"
    nlipol() {
        local name=$1
        shift
        if (cd "$out" && PYTHONPATH="$src" "$python" -B -m nli_polarimetry.cli "$@" \
                >"$name.stdout" 2>"$name.stderr"); then
            echo 0 >"$out/$name.exit"
        else
            echo $? >"$out/$name.exit"
        fi
    }
    for id in fig3a fig3b fig4a fig4b fig5b fig6; do
        nlipol "figures_$id" figures --id "$id" --out-dir figures
    done
    for name in lowgain exact exact_unequal exact_rotated exact_blocked exact_overflow \
            cal_signal cal_idler setting1 setting2 coarse1 coarse2; do
        nlipol "simulate_$name" simulate --config "$cfg/$name.json" --out "$name.csv"
    done
    nlipol calibrate calibrate --signal-scan cal_signal.csv --idler-scan cal_idler.csv \
        --out calibration.json
    nlipol estimate_fourier estimate --pipeline fourier --data lowgain.csv \
        --calibration calibration.json --out estimate_fourier.json
    for pipeline in rotated ellipse; do
        nlipol "estimate_$pipeline" estimate --pipeline "$pipeline" \
            --data setting1.csv --data setting2.csv --out "estimate_$pipeline.json"
        nlipol "estimate_${pipeline}_attenuation" estimate --pipeline "$pipeline" \
            --data setting1.csv --data setting2.csv --assume isotropic_attenuation \
            --out "estimate_${pipeline}_attenuation.json"
    done
    nlipol estimate_rotated_general estimate --pipeline rotated \
        --data setting1.csv --data setting2.csv --assume general --phibar 0.4 \
        --out estimate_rotated_general.json
    # refusals
    nlipol calibrate_swapped calibrate --signal-scan cal_idler.csv \
        --idler-scan cal_signal.csv --out calibration_swapped.json
    nlipol estimate_fourier_unequal estimate --pipeline fourier --data setting1.csv \
        --calibration calibration.json --out estimate_fourier_unequal.json
    nlipol estimate_rotated_undersampled estimate --pipeline rotated \
        --data coarse1.csv --data coarse2.csv --out estimate_rotated_undersampled.json
    nlipol estimate_ellipse_lengths estimate --pipeline ellipse \
        --data setting1.csv --data lowgain.csv --out estimate_ellipse_lengths.json
}

# csv_delta NEW OLD: how far a CSV file moved, cell by cell
csv_delta() {
    "$python" - "$1" "$2" <<'PY'
import csv, sys

new, old = ([row for row in csv.reader(open(path, newline=""))] for path in sys.argv[1:])
if len(new) != len(old) or any(len(a) != len(b) for a, b in zip(new, old)):
    print(f"  cells: the shapes differ ({len(new)} against {len(old)} rows)")
    sys.exit()
# per column index: [cells that differ, largest |difference|]
moved = {}
for row_new, row_old in zip(new, old):
    for col, (a, b) in enumerate(zip(row_new, row_old)):
        if a != b:
            entry = moved.setdefault(col, [0, 0.0])
            entry[0] += 1
            try:
                entry[1] = max(entry[1], abs(float(a) - float(b)))
            except ValueError:
                entry[1] = float("nan")
differ = sum(n for n, _ in moved.values())
deltas = [d for _, d in moved.values()]
largest = float("nan") if any(d != d for d in deltas) else max(deltas, default=0.0)
print(f"  cells: {differ} of {sum(map(len, new))} differ, largest |difference| {largest!r}")
header = new[0] if new else []
for col, (n, d) in sorted(moved.items()):
    name = header[col] if col < len(header) else f"column {col + 1}"
    print(f"    {name}: {n} of {len(new)} cells differ, largest |difference| {d!r}")
PY
}

# json_delta NEW OLD: how far a JSON file moved, leaf by leaf
json_delta() {
    "$python" - "$1" "$2" <<'PY'
import json, sys


def leaves(node, path=""):
    """Map each leaf's dotted path to its value; an empty dict or list is a leaf."""
    if isinstance(node, dict) and node:
        items = node.items()
    elif isinstance(node, list) and node:
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, value in items:
        out.update(leaves(value, f"{path}.{key}" if path else str(key)))
    return out


try:
    new, old = (leaves(json.load(open(path))) for path in sys.argv[1:])
except ValueError as exc:
    print(f"  keys: not comparable as JSON ({exc})")
    sys.exit()
keys = new.keys() | old.keys()
# repr tells -0.0 from 0.0 and matches a NaN with itself
differ = sorted(k for k in keys if (k in new) != (k in old) or repr(new[k]) != repr(old[k]))
deltas = {}
for key in differ:
    a, b = new.get(key), old.get(key)
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    deltas[key] = abs(a - b) if numbers else float("nan")
largest = max(deltas.values(), default=0.0)
if any(d != d for d in deltas.values()):
    largest = float("nan")
print(f"  keys: {len(differ)} of {len(keys)} leaves differ, largest |difference| {largest!r}")
for key in differ:
    print(f"    {key}: |difference| {deltas[key]!r}")
PY
}

# commands expected to fail, with their exit code; every other one exits 0
declare -A expected_exit=([simulate_exact_overflow]=3 [calibrate_swapped]=3
    [estimate_fourier_unequal]=3 [estimate_rotated_undersampled]=3
    [estimate_ellipse_lengths]=3)

run_all "$root/src" "$work/head"
run_all "$work/base/src" "$work/base_out"

status=0
files=$(cd "$work/head" && find . -type f | sort)
if [ "$files" != "$(cd "$work/base_out" && find . -type f | sort)" ]; then
    echo "DIFFERENT file lists:" >&2
    diff <(echo "$files") <(cd "$work/base_out" && find . -type f | sort) >&2 || true
    status=1
fi
count=0
for f in $files; do
    count=$((count + 1))
    if ! cmp -s "$work/head/$f" "$work/base_out/$f"; then
        echo "DIFFERENT ${f#./}" >&2
        case $f in
            *.csv) csv_delta "$work/head/$f" "$work/base_out/$f" >&2 ;;
            *.json) json_delta "$work/head/$f" "$work/base_out/$f" >&2 ;;
        esac
        status=1
    fi
done
for f in $(cd "$work/head" && find . -name '*.exit' | sort); do
    name=$(basename "$f" .exit)
    want=${expected_exit[$name]:-0}
    if [ "$(cat "$work/head/$f")" != "$want" ]; then
        echo "FAILED ${f#./} exited $(cat "$work/head/$f"), expected $want:" >&2
        cat "$work/head/${f%.exit}.stderr" >&2
        status=1
    fi
done
if [ $status -eq 0 ]; then
    echo "identical: $count files against ${base_sha:0:12}"
fi
exit $status
