"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) of the result records that
``run.py`` saves under ``perfbench/out/results``, one record per run. For
every workload and end-to-end metric the command prints each side's median
and quartiles over its runs and a verdict under the bounds in
``BENCHMARK.json``:

* ``worse``: NEW's median is worse than BASE's by more than the bound, and
  the runs are steady enough to say so (both spreads within the bound, or
  every NEW run worse than every BASE run);
* ``better``: NEW's median is better by more than BASE's spread and at least
  nine in ten NEW runs beat BASE's median;
* ``unresolved``: the spread of either side is wider than the bound, and the
  runs do not separate;
* ``unchanged``: otherwise.

Spread is the distance between the quartiles as a share of the median.
Per-layer metrics from traced runs are printed as NEW/BASE ratios of the
medians, with both bases.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import ROOT, median, quartiles


def load_records(path: Path) -> list[dict]:
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    records = []
    for f in files:
        if f.name.startswith("spans-"):
            continue
        rec = json.loads(f.read_text(encoding="utf-8"))
        if {"workload", "trace", "metrics"} <= rec.keys():
            records.append(rec)
    return records


def by_metric(records: list[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(float(m["value"]))
    return out


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    worse_by = sign * (nm - bm) / bm           # > 0: NEW is worse
    spread_base = (b3 - b1) / bm
    spread = max(spread_base, (n3 - n1) / nm)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if worse_by > bound:
        return "worse" if spread <= bound or all_worse else "unresolved"
    beats = sum(sign * v < sign * bm for v in new) / len(new)
    if worse_by < -spread_base and beats >= 0.9 and (spread <= bound or all_better):
        return "better"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load_records(args.base), load_records(args.new)
    if not base or not new:
        print("compare: no result records found on one side", file=sys.stderr)
        return 2

    workloads = [w["name"] for w in spec["workloads"]]
    a, b = by_metric(base, 0), by_metric(new, 0)
    print(f"{'workload':14s} {'metric':14s} {'base median [q1, q3] (n)':36s} "
          f"{'new median [q1, q3] (n)':36s} {'change':>8s}  verdict (bound)")
    for w in workloads:
        for m in spec["end_to_end"]:
            key = (w, m["name"])
            if key not in a or key not in b:
                print(f"{w:14s} {m['name']:14s} missing on {'base' if key not in a else 'new'}")
                continue
            cols = []
            for vals in (a[key], b[key]):
                q1, q2, q3 = quartiles(vals)
                cols.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] ({len(vals)})")
            change = (median(b[key]) - median(a[key])) / median(a[key])
            v = verdict(a[key], b[key], m["bound"], m["better"] == "lower")
            print(f"{w:14s} {m['name']:14s} {cols[0]:36s} {cols[1]:36s} {change:+8.1%}  "
                  f"{v} ({m['bound']:g})")

    a, b = by_metric(base, 1), by_metric(new, 1)
    if a and b:
        print()
        print(f"{'workload':14s} {'per-layer metric':58s} {'new/base':>9s}  base -> new")
        for w in workloads:
            for m in spec["per_layer"]:
                key = (w, m["name"])
                if key not in a or key not in b:
                    continue
                ma, mb = median(a[key]), median(b[key])
                ratio = f"{mb / ma:9.3f}" if ma else f"{'n/a':>9s}"
                print(f"{w:14s} {m['name']:58s} {ratio}  {ma:.5g} -> {mb:.5g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
