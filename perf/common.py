"""Shared by every file of the benchmark: paths, the declared contract, statistics.

Nothing here imports ``repro`` — the parent process, ``aa.py`` and the
host canaries must work (and fail cleanly) without the library.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Iterable, Sequence

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = PERF_DIR / "out"
SCHEMA = "repro-bench-v1"


def load_contract() -> dict:
    """``BENCHMARK.json``: the workloads, metrics, units and bounds the
    driver holds this benchmark to.  The one place they are declared."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way the driver computes them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted sample."""
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    pos = p / 100.0 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def cell(values: Iterable[float], unit: str, better: str | None = None) -> dict:
    """One ``repro-bench-v1`` cell: a value with the median, both
    quartiles and the sample count beside it.

    With *better* given (per-trial timings) the value is the quartile on
    the metric's good side — the first for ``"lower"``, the third for
    ``"higher"``.  Noise on a shared host only ever slows a trial down,
    in bursts of seconds that hit some of a run's trials: the good-side
    quartile moves when three quarters of the trials move (as a change
    to the code makes them), where the median flips once half are hit.
    Without it the value is the median."""
    vals = [float(v) for v in values]
    q1, med, q3 = quartiles(vals)
    value = {"lower": q1, "higher": q3, None: med}[better]
    return {"value": value, "unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(vals)}


def scalar(value: float, unit: str) -> dict:
    """A cell for a quantity measured once (a count, a peak)."""
    return {"value": float(value), "unit": unit, "n": 1}
