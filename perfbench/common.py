"""Paths, the package import guard and the summary statistics shared by the
benchmark's scripts."""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"          # work files, results and span files (ignored by git)
RESULTS = OUT / "results"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_hvsinglet():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    init = SRC / "hvsinglet" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no hvsinglet sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hvsinglet

    if Path(hvsinglet.__file__).resolve() != init.resolve():
        raise BenchError(f"imported hvsinglet from {hvsinglet.__file__}, not from {init}")
    return hvsinglet


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples beyond it.

    Returns (p, value), or None when fewer than 20 samples exist.
    """
    vals = sorted(values)
    n = len(vals)
    best = None
    for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            k = min(n - 1, max(0, math.ceil(p / 100.0 * n) - 1))
            best = (p, vals[k])
    return best
