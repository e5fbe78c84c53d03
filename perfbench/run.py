"""hvsinglet benchmark: time to a verdict or CSV, per model and thread count.

    python3 perfbench/run.py --workload validate-quad --seed 1 --seconds 30 --trace 0

Runs the workload's commands through ``hvsinglet.cli.main`` in this process,
at ``--threads 1`` and ``--threads 2``, in rounds until ``--seconds`` have
passed, and checks every output. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs the traced replay and the
layer probes instead (see ``tracing.py``) and reports the per-layer
metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable table and the environment stamp. The full record is saved
under ``perfbench/out/results`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (BENCH_DIR, OUT, RESULTS, ROOT, BenchError, import_hvsinglet, median,
                    quartiles, tail_percentile)
import workloads
from workloads import Ledger, run_rounds

# Fresh set-up processes per run; setup_s is their median. Half run before
# the rounds and half after, so one slow stretch of the machine cannot set it.
N_SETUP = 8
SETUP_TIMEOUT_S = 60


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def env_stamp(seed: int, load_start: str) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": read_loadavg(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: str, seed: int, work: Path, first: int, count: int) -> list[float]:
    """setup_s samples, each from a fresh interpreter."""
    samples = []
    for i in range(first, first + count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--work", str(work / f"setup-{i}")],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(cli, workload: str, seed: int, seconds: float, work: Path,
               ledger: Ledger) -> tuple[dict, dict]:
    """Untraced run: (metrics, samples) for the end-to-end table."""
    setup = measure_setup(workload, seed, work, 0, N_SETUP // 2)
    inputs = workloads.prepare(workload, seed, work / "main", cli)
    ops = workloads.ops_for(workload, inputs)
    rounds = run_rounds(cli, ops, seconds, ledger, refs={})
    setup += measure_setup(workload, seed, work, N_SETUP // 2, N_SETUP - N_SETUP // 2)

    samples: dict[str, list[float]] = {}
    for threads in workloads.THREADS:
        samples[f"wall_s.t{threads}"] = [
            sum(v for (_, t), v in r.items() if t == threads) for r in rounds]
        for model in dict.fromkeys(op.model for op in ops):
            samples[f"wall_s.{model}.t{threads}"] = [r[(model, threads)] for r in rounds]
    samples["setup_s"] = setup
    metrics = {
        "wall_s.t1": (median(samples["wall_s.t1"]), "s"),
        "wall_s.t2": (median(samples["wall_s.t2"]), "s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, samples


def print_table(metrics: dict, samples: dict, ledger: Ledger) -> None:
    print(f"# {'metric':28s} {'median':>12s} {'q1':>10s} {'q3':>10s} {'tail':>18s} {'n':>5s}")
    names = list(metrics) + [k for k in samples if k not in metrics]
    for name in names:
        vals = samples.get(name)
        unit = metrics[name][1] if name in metrics else "s"
        if vals:
            q1, q2, q3 = quartiles(vals)
            tail = tail_percentile(vals)
            tail_s = "n<20" if tail is None else f"p{tail[0]:g}={tail[1]:.4g}"
            print(f"# {name:28s} {q2:12.6g} {q1:10.4g} {q3:10.4g} {tail_s:>18s} "
                  f"{len(vals):5d} {unit}")
        else:
            print(f"# {name:28s} {metrics[name][0]:12.6g} {'':10s} {'':10s} {'':>18s} "
                  f"{'1':>5s} {unit}")
    frac = ledger.failed / max(1, ledger.attempted)
    print(f"# {'error_frac':28s} {frac:12.6g}   ({ledger.failed} failed of "
          f"{ledger.attempted} operations)")
    for p in ledger.problems:
        print(f"# FAILED {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_start = read_loadavg()
    try:
        import_hvsinglet()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: cannot import hvsinglet from this checkout: {exc}", file=sys.stderr)
        return 2
    from hvsinglet import cli

    work = OUT / f"work-{os.getpid()}"
    ledger = Ledger()
    try:
        if args.trace:
            import tracing

            metrics, samples = tracing.traced_run(cli, args.workload, args.seed,
                                                  args.seconds, work, ledger)
        else:
            metrics, samples = end_to_end(cli, args.workload, args.seed, args.seconds,
                                          work, ledger)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = env_stamp(args.seed, load_start)
    print(f"# hvsinglet benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  seconds={args.seconds:g}")
    print(f"# why: {workloads.WHY[args.workload]}")
    print("# env " + json.dumps(env, sort_keys=True))
    print_table(metrics, samples, ledger)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "problems": ledger.problems,
              "samples": samples}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
