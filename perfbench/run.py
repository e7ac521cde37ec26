"""Layered benchmark of nli_polarimetry: one workload per run, one JSON result.

Run from the repository root (the package is imported from ``src``):

    python3 perfbench/run.py --workload mc_lowgain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` wraps the public functions of ``scan``, ``estimation`` and
``cli`` and reports the per-layer metrics instead.

Each trial time and the set-up time are referred to a nominal machine speed
by the slowdown that ``speed.SpeedProbe`` measured around them (see there);
per-layer times are divided by the run's overall slowdown.  The record keeps
the values as measured next to the slowdown.

Human-readable lines come first; the last stdout line is ``{"correct",
"attempted", "failed", "metrics"}``.  The run also writes its record
(environment, metrics, tail percentile) and, when traced, its spans under
``perfbench/out/``.  It exits nonzero if any output check fails, and without
a result if the package cannot be imported.  ``--workload all`` runs each
workload in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
INTERPRETER_PROBES = 5
WORKLOAD_NAMES = ("mc_lowgain", "exact_gain_sweep", "cli_pipeline")
SPAN_LAYERS = (
    "scan.simulate_exact", "scan.simulate_lowgain", "scan.calibrate", "scan.to_csv",
    "scan.from_csv", "estimation.harmonic_regress", "estimation.extract_sample_fourier",
    "estimation.estimate_rotated", "estimation.estimate_ellipse",
    "cli.simulate", "cli.calibrate", "cli.estimate",
)


def import_package() -> float:
    """Import the package from ``src`` and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    module = importlib.import_module("nli_polarimetry.cli")
    elapsed = time.perf_counter() - start
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"nli_polarimetry was imported from {module.__file__}, not from src")
    return elapsed


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int, trace: bool) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "trace": trace,
        "platform": platform.platform(),
    }


def child_seconds(argv: list[str], repeats: int) -> float:
    """Median wall seconds of a fresh interpreter running ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_loop(wl, seconds: float, tracer, probe) -> dict:
    """Closed loop, one client: trials back to back for ``seconds``.

    The loop runs on past the deadline until ``wl.min_trials`` trials are
    done, so the tail percentile and the accuracy pool are always covered.
    In a traced run every other trial is traced, and all trials run the CLI
    in this process.
    """
    import numpy as np

    starts, durations, traced = [], [], []
    attempted = failed = 0
    first_error = None
    traced_run = tracer is not None
    deadline = time.perf_counter() + seconds
    hard_stop = deadline + 90.0
    k = 0
    while time.perf_counter() < deadline or (k < wl.min_trials and time.perf_counter() < hard_stop):
        wl.before_trial(k)
        on = traced_run and k % 2 == 1
        if on:
            tracer.install()
            tracer.trial = k
            span = tracer.open("trial")
        start = time.perf_counter()
        try:
            result = wl.trial(k, traced_run)
        except Exception:  # a failed trial is counted, and the loop goes on
            result = None
            first_error = first_error or traceback.format_exc()
        elapsed = time.perf_counter() - start
        if on:
            tracer.close(span)
            tracer.uninstall()
        attempted += 1
        if result is None:
            failed += 1
        else:
            starts.append(start)
            durations.append(elapsed)
            traced.append(on)
            wl.after_trial(k, result)
        probe.after_trial(elapsed)
        k += 1
    if first_error:
        print(f"first failed trial:\n{first_error}", file=sys.stderr)
    probe.sample()
    return {"attempted": attempted, "failed": failed, "durations": durations,
            "scaled": np.asarray(durations) / probe.local_slowdowns(starts, durations),
            "traced": traced}


def trial_stats(d, tail_pct: float) -> dict:
    import numpy as np

    d = np.asarray(d)
    return {
        "trials_per_s": len(d) / float(d.sum()),
        "trial_p50_ms": float(np.median(d)) * 1e3,
        "trial_tail_ms": float(np.percentile(d, tail_pct)) * 1e3,
    }


def end_to_end(wl, loop: dict, setup_s: float) -> tuple[dict, dict]:
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli_pipeline" else resource.RUSAGE_SELF
    values = {
        "setup_s": setup_s,
        **trial_stats(loop["durations"], wl.tail_pct),
        "failed_frac": loop["failed"] / loop["attempted"],
        "est_rms_err": wl.est_rms_err(),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    tail = values["trial_tail_ms"] / 1e3
    notes = {"tail_percentile": wl.tail_pct, "trials": len(loop["durations"]),
             "trials_beyond_tail": sum(d > tail for d in loop["durations"])}
    return values, notes


def per_layer(wl, loop: dict, tracer) -> tuple[dict, dict]:
    import numpy as np

    stats = tracer.summary()
    counts = tracer.counts
    trial = stats.get("trial", {"calls": 0, "busy": 0.0, "self": 0.0})
    trials, trial_time = trial["calls"], trial["busy"]
    values = {}
    for name in SPAN_LAYERS:
        st = stats.get(name, {"calls": 0, "busy": 0.0, "self": 0.0, "durations": [0.0]})
        values[f"{name}.calls"] = st["calls"]
        values[f"{name}.busy_ms"] = st["busy"] * 1e3 / max(trials, 1)
        values[f"{name}.self_frac"] = st["self"] / trial_time if trial_time else 0.0
        if name.startswith("cli."):
            values[f"{name}.wall_ms"] = statistics.median(st["durations"]) * 1e3
    for name in ("scan.simulate_exact", "scan.simulate_lowgain"):
        values[f"{name}.steps"] = counts[f"{name}.steps"]
    steps = counts["scan.simulate_exact.steps"]
    values["scan.simulate_exact.us_per_step"] = (
        stats["scan.simulate_exact"]["busy"] * 1e6 / steps if steps else 0.0
    )
    for name in ("scan.to_csv", "scan.from_csv"):
        calls = values[f"{name}.calls"]
        values[f"{name}.bytes"] = counts[f"{name}.bytes"] / calls if calls else 0.0
    for name in ("scan.calibrate", "estimation.harmonic_regress",
                 "estimation.extract_sample_fourier", "estimation.estimate_rotated",
                 "estimation.estimate_ellipse"):
        values[f"{name}.failed"] = counts[f"{name}.failed"]
    values["estimation.flagged_ratio"] = (
        counts["estimates_flagged"] / counts["estimates"] if counts["estimates"] else 0.0
    )
    values["cli.exit_nonzero"] = counts["cli.exit_nonzero"]
    if wl.name == "cli_pipeline":
        bare = child_seconds(["-c", "pass"], INTERPRETER_PROBES)
        imported = child_seconds(["-c", "import nli_polarimetry.cli"], INTERPRETER_PROBES)
        values["cli.interpreter_ms"] = bare * 1e3
        values["cli.import_ms"] = (imported - bare) * 1e3
    else:
        values["cli.interpreter_ms"] = values["cli.import_ms"] = 0.0
    values["trace.trials"] = trials
    on = np.array(loop["traced"])
    values["trace.overhead_frac"] = (
        float(np.median(loop["scaled"][on]) / np.median(loop["scaled"][~on])) - 1.0
    )
    covered = trial_time - trial["self"]
    values["trace.coverage_frac"] = covered / trial_time if trial_time else 0.0
    notes = {"traced_trials": trials, "untraced_trials": int(np.sum(~on))}
    return values, notes


def refer(values: dict, wanted: list[dict], slowdown: float) -> dict:
    """Divide every time by the run's slowdown."""
    return {m["name"]: values[m["name"]] / slowdown if m["unit"] in ("s", "ms", "us")
            else values[m["name"]] for m in wanted}


def run_workload(args, spec: dict) -> int:
    setup_start = time.perf_counter()
    import_s = import_package()
    import workloads
    from spans import Tracer

    wl = workloads.make(args.workload, ROOT)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup(args.seed, workdir)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        setup_span = time.perf_counter() - setup_start
        tracer = Tracer() if args.trace else None
        origin = time.perf_counter()
        try:
            workloads.check_noiseless_round_trip(args.seed)
            probe = wl.speed_probe(in_process=bool(args.trace))
            loop = run_loop(wl, args.seconds, tracer, probe)
            wl.finish(bool(args.trace))
        except workloads.CheckFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not loop["durations"]:
            print("error: no trial completed", file=sys.stderr)
            return 1
        if args.trace:
            values, notes = per_layer(wl, loop, tracer)
            wanted = spec["per_layer"]
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json", origin)
        else:
            values, notes = end_to_end(wl, loop, setup_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    slowdown = probe.slowdown()
    referred = refer(values, wanted, slowdown)
    if not args.trace:  # referred to the slowdown around them, not the run's
        referred.update(trial_stats(loop["scaled"], wl.tail_pct))
        referred["setup_s"] = setup_s / probe.local_slowdowns([setup_start], [setup_span])[0]
    metrics = {m["name"]: {"value": referred[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(args.seed, bool(args.trace))
    record = {"workload": args.workload, "environment": env, "notes": notes,
              "slowdown": slowdown, "attempted": loop["attempted"], "failed": loop["failed"],
              "metrics": metrics, "measured": {m["name"]: values[m["name"]] for m in wanted}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"workload {args.workload}: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"  slowdown {slowdown:.4f}: times are referred to slowdown 1, "
          "as measured in brackets")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}  [{values[name]:.6g}]")
    if not args.trace:
        print(f"  {'failed_frac':44s} {values['failed_frac']:.6g} "
              f"({loop['failed']} of {loop['attempted']} trials)")
        print(f"  trial_tail_ms is p{notes['tail_percentile']} of {notes['trials']} trials, "
              f"{notes['trials_beyond_tail']} beyond it")
    print(json.dumps({"correct": True, "attempted": loop["attempted"],
                      "failed": loop["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one at a time."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args, spec)
    except ImportError as exc:
        print(f"error: cannot import nli_polarimetry from {SRC}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
