#!/usr/bin/env bash
# Bit-identity check of the round-trip estimates against another commit.
#
#   tools/estimate_bits.sh BASE_REF [SEED]
#
# Exports BASE_REF's src/ into a temporary directory, then runs
# perfbench/workloads.py's run_round_trip over every pool entry of the
# mc_lowgain and exact_gain_sweep workloads (pool seed SEED, default 1, as
# the benchmark's runs use), once with BASE_REF's src/ and once with the
# working tree's.  Both sides import the working tree's perfbench/ (read
# only: no bytecode is written).  For every entry it compares the bytes
# (.tobytes()) of the expected_n and counts columns of the five records the
# round trip simulates (a Poisson draw absorbs most last-bit changes of its
# mean, so the counts alone would not show a change of the forward model),
# and it takes the Fourier, rotated and ellipse estimates and compares
# float.hex() of each of their float fields and residuals (signed zeros and
# NaN payloads included), their flags and their None fields; a trial that
# raises is compared by its exception type, flag and message.  On each
# entry's two setting records it also runs, and compares in the same way,
# the two-setting modes that the round trip does not: estimate_rotated with
# assume="isotropic_attenuation" and with assume="general", phibar=0.4 (the
# mean phase of the workloads' rotated sample), and estimate_ellipse with
# assume="isotropic_attenuation"; a mode that refuses the records is
# compared by its exception type, flag and message.
#
# Then it takes the 500 seeded samples of tests/two_setting_draws.py (drawn
# from default_rng(20261018)), simulates each one's two low-gain setting
# records (72 steps, as tests/test_estimation.py's setting_scan does),
# noiseless and Poisson-drawn, and compares the bytes of their expected_n
# and counts columns and the estimates of all five two-setting modes on
# them: estimate_rotated with each structural assumption and with "general"
# at the draw's given phibar (perturbed on about half the draws, which makes
# the general mode refuse some records with inconsistent_amplitudes), and
# estimate_ellipse with each structural assumption.
#
# Prints each field that differs, as "workload entry route.field: base
# VALUE, tree VALUE" ("draws K noise route.field" for a draw; for a record
# column: how many values differ and the largest |difference|).  When one
# differs, a table follows with a row per route.field that moved: how many
# of its entries moved numerically (a record column is one entry) and the
# largest |difference| among them (inf for a NaN or a changed length), and
# apart from those how many differ in their flags, in a refusal (raised on
# one side, or with another type, flag or message) and in a None field.
# Then one summary line.  Exit status: 0 when every field matches, 1 when
# one differs, 2 on a usage error.  Set PYTHON to choose the interpreter
# (default: python3).
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BASE_REF [SEED]" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
    echo "error: unknown commit '$1'" >&2
    exit 2
}
seed=${2:-1}
case $seed in
    '' | *[!0-9]*) echo "error: SEED must be a nonnegative integer" >&2; exit 2 ;;
esac
python=${PYTHON:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

git -C "$root" archive "$base_sha" src | tar -x -C "$work"

# estimates SRC OUT: the records and estimates of every pool entry and draw,
# as JSON, with SRC's package
estimates() {
    PYTHONPATH="$1:$root/perfbench:$root/tests" PYTHONDONTWRITEBYTECODE=1 "$python" - "$seed" "$2" <<'EOF'
import cmath, dataclasses, json, math, sys, tempfile
from pathlib import Path

import nli_polarimetry as nlp
import workloads
from two_setting_draws import two_setting_draws


def bits(value):
    """float.hex of a float (a dict's floats by key); anything else as repr."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return repr(value)


def refusal(exc):
    """A refusal as its exception type, flag and message."""
    return repr((type(exc).__name__, getattr(exc, "flag", None), str(exc)))


def add(key, route, est):
    """The fields of the estimate ``est`` of ``route``, by ``key``."""
    for field, value in dataclasses.asdict(est).items():
        value = bits(value)
        if isinstance(value, dict):
            for sub, item in value.items():
                fields[f"{key} {route}.{field}.{sub}"] = item
        else:
            fields[f"{key} {route}.{field}"] = value


# the records of a round trip, as it simulates them, in order
RECORDS = ("signal_scan", "idler_scan", "measurement", "setting1", "setting2")
simulated = []
simulate_scan = workloads.scan.simulate_scan
workloads.scan.simulate_scan = lambda *a, **k: simulated.append(simulate_scan(*a, **k)) or simulated[-1]
# the two-setting modes the round trip does not run, on its setting records
estimation = workloads.estimation
MODES = (
    ("rotated_attenuation", estimation.estimate_rotated, {"assume": "isotropic_attenuation"}),
    ("rotated_general", estimation.estimate_rotated, {"assume": "general", "phibar": 0.4}),
    ("ellipse_attenuation", estimation.estimate_ellipse, {"assume": "isotropic_attenuation"}),
)


def compare_modes(key, records, modes):
    """Add the estimate of each mode on the setting ``records``, or its refusal."""
    for route, estimator, kwargs in modes:
        try:
            add(key, route, estimator(*records, **kwargs))
        except Exception as exc:
            fields[f"{key} {route} raised"] = refusal(exc)


def add_record(key, record, series):
    """The bytes of the ``record`` ``series``'s expected_n and counts, by ``key``."""
    for column in ("expected_n", "counts"):
        fields[f"{key} {record}.{column}"] = getattr(series, column).tobytes().hex()


def setting_record(draw, setting, noise):
    """The 72-step low-gain record of analyzer setting 1 (crossed quarter-wave
    pair) or 2 (aligned pair) for the draw's sample, rotated by its psi."""
    half_dt, half_dphi = 0.5 * draw.dt, 0.5 * draw.dphi
    cfg = nlp.InterferometerConfig(
        crystal1=nlp.CrystalGain(draw.v),
        crystal2=nlp.CrystalGain(draw.v),
        signal=nlp.SignalControl(1.0),
        waveplate1=nlp.quarter_wave(math.pi / 4),
        waveplate2=nlp.quarter_wave(3 * math.pi / 4 if setting == 1 else math.pi / 4),
        sample=nlp.SampleAxes(
            t_perp=(draw.tbar + half_dt) * cmath.exp(1j * (draw.phibar + half_dphi)),
            t_par=(draw.tbar - half_dt) * cmath.exp(1j * (draw.phibar - half_dphi)),
        ),
        rotation=draw.psi,
    )
    sched = nlp.ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
    return nlp.simulate_scan(cfg, sched, noise, regime="lowgain")


seed, out = int(sys.argv[1]), sys.argv[2]
fields = {}
with tempfile.TemporaryDirectory() as tmp:
    for name in ("mc_lowgain", "exact_gain_sweep"):
        wl = workloads.make(name, Path(tmp))
        wl.setup(seed, Path(tmp))
        for j, entry in enumerate(wl.pool):
            key = f"{name} {j}"
            simulated.clear()
            try:
                result = workloads.run_round_trip(entry)
            except Exception as exc:
                fields[f"{key} raised"] = refusal(exc)
                result = ()
            for record, series in zip(RECORDS, simulated):
                add_record(key, record, series)
            for route, estimate in zip(("fourier", "rotated", "ellipse"), result):
                add(key, route, estimate)
            if len(simulated) == len(RECORDS):
                compare_modes(key, simulated[3:], MODES)
for k, draw in enumerate(two_setting_draws()):
    noises = (("noiseless", nlp.NoiseModel(1.0e4)),
              ("poisson", nlp.NoiseModel(draw.kappa, seed=k, mode="poisson")))
    for label, noise in noises:
        key = f"draws {k} {label}"
        records = [setting_record(draw, setting, noise) for setting in (1, 2)]
        for record, series in zip(RECORDS[3:], records):
            add_record(key, record, series)
        compare_modes(key, records, (
            ("rotated_phase", estimation.estimate_rotated, {"assume": "isotropic_phase"}),
            MODES[0],
            ("rotated_general", estimation.estimate_rotated,
             {"assume": "general", "phibar": draw.phibar_given}),
            ("ellipse_phase", estimation.estimate_ellipse, {"assume": "isotropic_phase"}),
            MODES[2],
        ))
Path(out).write_text(json.dumps(fields))
EOF
}

estimates "$work/src" "$work/base.json"
estimates "$root/src" "$work/tree.json"

"$python" - "$work/base.json" "$work/tree.json" "${base_sha:0:12}" <<'EOF'
import collections, json, math, sys

import numpy as np

base, tree = (json.load(open(path)) for path in sys.argv[1:3])
missing = object()
differ = [key for key in sorted(base.keys() | tree.keys(),
                                key=lambda k: (k.split()[0], int(k.split()[1]), k))
          if base.get(key, missing) != tree.get(key, missing)]


def field_of(key):
    """The route.field of a key, without its pool entry or draw."""
    return key.split(maxsplit=3 if key.startswith("draws ") else 2)[-1]


# per route.field: its fields, and of those the numbers that moved (with the
# largest |difference|) and the flag, refusal and None differences
summary = collections.defaultdict(lambda: {"fields": 0, "moved": 0, "largest": 0.0,
                                           "flags": 0, "refusals": 0, "None": 0})
for key in base.keys() | tree.keys():
    summary[field_of(key)]["fields"] += 1
for key in differ:
    row = summary[field_of(key)]
    old, new = base.get(key, missing), tree.get(key, missing)
    if key.endswith((".expected_n", ".counts")) and missing not in (old, new):
        old, new = (np.frombuffer(bytes.fromhex(side)) for side in (old, new))
        row["moved"] += 1
        if old.shape != new.shape:
            print(f"{key}: base {old.size} values, tree {new.size}")
            row["largest"] = math.inf
            continue
        moved = old.view(np.uint64) != new.view(np.uint64)
        largest = float(np.abs(new[moved] - old[moved]).max())
        print(f"{key}: {int(moved.sum())} of {old.size} values differ, largest "
              f"|difference| {largest!r}")
        row["largest"] = max(row["largest"], largest)
        continue
    print(f"{key}: base {base.get(key, '(absent)')}, tree {tree.get(key, '(absent)')}")
    if key.endswith(" raised") or missing in (old, new):
        row["refusals"] += 1
    elif key.endswith(".flags"):
        row["flags"] += 1
    elif "None" in (old, new):
        row["None"] += 1
    else:
        row["moved"] += 1
        # a NaN that moved, or a move from or to one, counts as infinite
        try:
            largest = abs(float.fromhex(new) - float.fromhex(old))
        except ValueError:
            largest = math.inf
        row["largest"] = max(row["largest"], largest if largest == largest else math.inf)
samples = {" ".join(key.split()[:2]) for key in base}
draws = sum(sample.startswith("draws ") for sample in samples)
over = f"over {len(samples) - draws} pool entries and {draws} draws against {sys.argv[3]}"
if differ:
    width = max(len(name) for name in summary)
    print(f"{'route.field':<{width}}  {'moved':>14}  {'largest |diff|':>14}  flags  "
          "refusals  None")
    for name, row in sorted(summary.items()):
        if row["moved"] or row["flags"] or row["refusals"] or row["None"]:
            print(f"{name:<{width}}  {row['moved']:>6} of {row['fields']:<6}  "
                  f"{row['largest']:>14.3g}  {row['flags']:>5}  {row['refusals']:>8}  "
                  f"{row['None']:>4}")
    print(f"DIFFERENT: {len(differ)} of {len(base.keys() | tree.keys())} fields {over}")
    sys.exit(1)
print(f"identical: {len(base)} fields {over}")
EOF
