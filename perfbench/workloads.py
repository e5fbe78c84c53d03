"""Workload definitions: the commands each workload runs and the inputs the
benchmark generates for them from the workload seed."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks

WHY = {
    "validate-mc": "cerf has no quadrature, so validate is pure Monte Carlo: sphere sampling, "
                   "the cerf kernel and the validator's serial MC loops (the slowest command)",
    "validate-quad": "validate on the quadrature models and two recipe specs: table scans, "
                     "exponent fits, endpoint checks and the failing wrongtrial path; "
                     "little sampling",
    "sample-shots": "chsh and analytic simulate at 250k shots: the only workload that draws "
                    "outcomes and runs the simulator's per-block thread pool",
}
WORKLOADS = tuple(WHY)
THREADS = (1, 2)
# A quarter of the 1M shots a user would ask for: each command still runs
# several 65536-shot blocks per settings pair, so the t2 thread pool has
# work to share, and a run holds about a dozen rounds instead of four. With
# four, one slow stretch of a shared host moved the t2 median by a quarter.
SHOTS = "250000"
# A quarter of validate's default --mc-samples: cerf validate takes ~13 s at
# the default, so a run could hold only one t1/t2 round and the noisy t2
# time would go unaveraged. Every check still runs and decides (pass).
CERF_MC_SAMPLES = "250000"
RECIPES = (("square", "2"), ("cross_uab", "1"))


@dataclass(frozen=True)
class Op:
    """One command; ``argv`` leaves out ``--threads``."""

    model: str        # metric label: family1, family2, wrongtrial, recipe or cerf
    kind: str         # validate, chsh or simulate
    argv: tuple[str, ...]
    expect_exit: int = 0

    @property
    def label(self) -> str:
        name = Path(self.argv[self.argv.index("--model") + 1]).stem
        return f"{self.kind} {name}"


@dataclass(frozen=True)
class Inputs:
    program_seed: int
    settings: Path            # four settings pairs for simulate
    recipes: tuple[Path, ...]


def program_seed(workload_seed: int) -> int:
    return random.Random(f"hvsinglet-bench-{workload_seed}").randrange(1, 2**31)


def settings_pairs(workload_seed: int, n: int = 4) -> list[list[list[float]]]:
    """``n`` pairs of unit vectors drawn from the workload seed."""
    rng = random.Random(f"hvsinglet-bench-settings-{workload_seed}")

    def unit() -> list[float]:
        while True:
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            if norm > 1e-3:
                return [x / norm for x in v]

    return [[unit(), unit()] for _ in range(n)]


def run_cli(cli, argv) -> tuple[str, int, float]:
    """``cli.main(argv)`` in-process: (stdout text, exit code, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(list(argv))
        dt = time.perf_counter() - t0
    return out.getvalue(), rc, dt


def recipe_argv(f: str, s: str, seed: int, path: Path) -> list[str]:
    return ["build-recipe", f, s, "--seed", str(seed), "--out", str(path)]


def prepare(workload: str, workload_seed: int, work: Path, cli) -> Inputs:
    """Write the settings file and build the recipe specs with ``build-recipe``."""
    seed = program_seed(workload_seed)
    work.mkdir(parents=True, exist_ok=True)
    settings = work / "settings.json"
    settings.write_text(json.dumps(settings_pairs(workload_seed)) + "\n", encoding="utf-8")
    recipes = []
    for f, s in RECIPES if "recipe" in models_used(workload) else ():
        path = work / f"recipe-{f}-s{s}.json"
        _, rc, _ = run_cli(cli, recipe_argv(f, s, seed, path))
        if rc != 0:
            raise RuntimeError(f"build-recipe {f} {s} exited {rc}")
        recipes.append(path)
    return Inputs(seed, settings, tuple(recipes))


def models_used(workload: str) -> tuple[str, ...]:
    """The --model values a workload passes: built-in names or 'recipe'."""
    return {
        "validate-mc": ("cerf",),
        "validate-quad": ("family1", "family2", "wrongtrial", "recipe"),
        "sample-shots": ("family1", "family2", "cerf"),
    }[workload]


def validate_op(model: str, path: str, seed: int) -> Op:
    argv = ("validate", "--model", path, "--seed", str(seed))
    if model == "cerf":
        argv += ("--mc-samples", CERF_MC_SAMPLES)
    return Op(model, "validate", argv, expect_exit=1 if model == "wrongtrial" else 0)


def ops_for(workload: str, inputs: Inputs) -> list[Op]:
    seed = inputs.program_seed
    if workload == "validate-mc":
        return [validate_op("cerf", "cerf", seed)]
    if workload == "validate-quad":
        ops = [validate_op(m, m, seed) for m in ("family1", "family2", "wrongtrial")]
        return ops + [validate_op("recipe", str(p), seed) for p in inputs.recipes]
    if workload == "sample-shots":
        ops = [Op(m, "chsh", ("chsh", "--model", m, "--seed", str(seed), "--shots", SHOTS))
               for m in ("family1", "family2", "cerf")]
        ops.append(Op("cerf", "simulate",
                      ("simulate", "--model", "cerf", "--seed", str(seed), "--shots", SHOTS,
                       "--mode", "analytic", "--settings", str(inputs.settings))))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


class Ledger:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def run_checked(cli, op: Op, threads: int, ledger: Ledger, refs: dict) -> float:
    """Run one command, check its output and return its wall time in seconds.

    ``refs`` holds the first output of each command; later runs of it, at
    any thread count, must reproduce those bytes.
    """
    label = f"{op.label} t{threads}"
    t0 = time.perf_counter()
    try:
        text, rc, dt = run_cli(cli, [*op.argv, "--threads", str(threads)])
    except Exception:  # a crashing command is a failed operation, not a crashed benchmark
        ledger.record(label, [traceback.format_exc(limit=3)])
        return time.perf_counter() - t0
    ledger.record(label, checks.check_output(op.kind, text, rc, expect_exit=op.expect_exit,
                                             reference=refs.get(op)))
    refs.setdefault(op, text)
    return dt


def run_rounds(cli, ops, seconds: float, ledger: Ledger, refs: dict,
               between=None) -> list[dict]:
    """Rounds of every op at each thread count until ``seconds`` have passed.

    A round is ``{(model, threads): seconds}``. The loop stops when the
    next round would end more than half a round past the deadline.
    ``between(k)`` runs after round ``k``, outside the measured time.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        walls: dict = {}
        for op in ops:
            for threads in THREADS:
                dt = run_checked(cli, op, threads, ledger, refs)
                walls[(op.model, threads)] = walls.get((op.model, threads), 0.0) + dt
        rounds.append(walls)
        if between is not None:
            between(len(rounds) - 1)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + 0.5 * last >= seconds:
            return rounds
