"""In-memory span tracer that times the package's public functions from outside.

A traced run wraps the public functions of ``nli_polarimetry.scan``,
``nli_polarimetry.estimation`` and ``nli_polarimetry.cli`` in every namespace
that holds them (the defining module, the package root and the ``cli``
module, which imports them by name), and the CSV methods of ``TimeSeries``.
Each call records one span: name, start, end, parent span and trial id.
Spans stay in memory; ``dump`` writes them out when the run ends.

``install``/``uninstall`` swap the wrappers in and out, so an untraced trial
runs the unmodified functions.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import nli_polarimetry
from nli_polarimetry import cli, estimation, scan

# functions that return a SampleEstimate, whose flags feed flagged_ratio
ESTIMATING_FUNCTIONS = ("extract_sample_fourier", "estimate_rotated", "estimate_ellipse")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trial id]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.trial = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)

        def simulate_name(args, kwargs):
            regime = kwargs.get("regime", args[3] if len(args) > 3 else "exact")
            return f"scan.simulate_{regime}"

        def count_steps(name, args, kwargs, result):
            self.counts[f"{name}.steps"] += len(result)

        def count_bytes(name, args, kwargs, result):
            self.counts[f"{name}.bytes"] += os.path.getsize(args[1])

        def count_flags(name, args, kwargs, result):
            self.counts["estimates"] += 1
            self.counts["estimates_flagged"] += bool(result.flags)

        def count_exit(name, args, kwargs, result):
            self.counts["cli.exit_nonzero"] += result != 0

        def fixed(name):
            return lambda args, kwargs: name

        functions = [
            (scan.simulate_scan, simulate_name, count_steps),
            (scan.calibrate, fixed("scan.calibrate"), None),
            (estimation.harmonic_regress, fixed("estimation.harmonic_regress"), None),
            (cli.main, lambda args, kwargs: f"cli.{args[0][0]}", count_exit),
        ]
        functions += [
            (getattr(estimation, fn), fixed(f"estimation.{fn}"), count_flags)
            for fn in ESTIMATING_FUNCTIONS
        ]
        modules = (nli_polarimetry, scan, estimation, cli)
        for original, name_of, hook in functions:
            wrapper = self._wrap(original, name_of, hook)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

        series = scan.TimeSeries
        to_csv = series.__dict__["to_csv"]
        from_csv = series.__dict__["from_csv"]
        self._patches += [
            (series, "to_csv", to_csv, self._wrap(to_csv, fixed("scan.to_csv"), count_bytes)),
            (series, "from_csv", from_csv,
             classmethod(self._wrap(from_csv.__func__, fixed("scan.from_csv"), count_bytes))),
        ]

    def _wrap(self, fn, name_of, hook):
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.failed"] += 1
                raise
            finally:
                self.close(idx)
            if hook is not None:
                hook(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.trial])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, busy seconds, self seconds, durations.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is single
        threaded.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "durations": []})
            st["calls"] += 1
            st["busy"] += end - start
            st["self"] += end - start - child[i]
            st["durations"].append(end - start)
        return stats

    def dump(self, path, origin: float) -> None:
        rows = [
            [name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent, trial]
            for name, start, end, parent, trial in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_us", "end_us", "parent", "trial"], "spans": rows},
                      fh, separators=(",", ":"))
