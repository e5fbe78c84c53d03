"""Command line driver.

Subcommands:

* ``validate``: run the admissibility battery on a model, emit a JSON report.
* ``simulate``: estimate correlations for a list of settings, emit CSV.
* ``chsh``: run the four-pair CHSH combination (optimal axes by default).
* ``scan``: sweep a.b and tabulate the correction envelope, emit CSV.
* ``build-recipe``: construct an admissible model from a base function and
  write its JSON spec.

Exit codes: 0 success / all checks pass, 1 a constraint is violated,
2 nothing failed but some Monte Carlo check was inconclusive, 64 usage or
input error. Every numeric flag is range-checked by its argparse type as it
is parsed, before any model loads, so a bad count exits 64 with a message
naming the flag and its bound. The seed is resolved from --seed, then the
HV_SEED environment variable, then the model spec, then 0; each must lie in
[0, 2^64), or the command exits 64.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .geometry import _SEED_MAX, GeometryError, RandomStream, dot, sample_uniform_sphere
from .models import (
    _MAX_DRAWS,
    _MAX_GAUSS_NODES,
    ModelSpecError,
    RECIPE_REGISTRY,
    _masked_rows,
    load_model,
    model_from_spec,
    setting_dot,
)
from .simulator import (
    _MAX_PAIRS,
    OPTIMAL_CHSH_SETTINGS,
    ExperimentConfig,
    chsh,
    find_chsh_witness,
    run_experiment,
    write_chsh_csv,
    write_correlations_csv,
)
from .validator import CheckStatus, ValidatorConfig, run_full_suite

EX_OK = 0
EX_VIOLATION = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64

_BUILTIN_FAMILIES = ("family1", "family2", "wrongtrial", "cerf")

# Caps on the size flags. A lambda row costs about 160 B at the peak of
# validate (~170 MB at 2**20 rows); a settings pair or a scan point costs a
# list entry and a pass over the lambda rows; --grid-n is the sphere's polar
# Gauss count; --mc-samples and --shots count 16384-row blocks keyed by one
# 20-bit stream-split field.
_MAX_LAMBDA = 1 << 20
_MAX_SETTINGS = 1 << 16


class UsageError(Exception):
    """Bad arguments or unreadable inputs; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; the contract says 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _add_count(p: argparse.ArgumentParser, flag: str, lo: int, hi: int | None = None,
               env: str | None = None, **kw) -> None:
    """An integer flag whose type checks lo <= value <= hi as it is parsed, so a
    value out of range exits 64 with a message naming the flag and its bound.
    With ``env``, the flag defaults to that environment variable, checked alike."""
    name = flag if env is None else f"{flag} (or {env})"

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"{name} must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"{name} must be <= {hi}, got {value}")
        return value
    if env is not None:  # argparse runs a string default through the type
        kw["default"] = os.environ.get(env)
    p.add_argument(flag, type=count, **kw)


def _add_common(p: argparse.ArgumentParser, *, out_help: str) -> None:
    p.add_argument("--model", required=True, metavar="PATH",
                   help="model spec JSON; a bare family name uses its defaults")
    _add_count(p, "--seed", 0, _SEED_MAX, env="HV_SEED",
               help="RNG seed (default: HV_SEED env, then the model spec, then 0)")
    _add_count(p, "--grid-n", 1, _MAX_GAUSS_NODES, default=None, metavar="N",
               help="override sphere quadrature to N polar x 2N azimuthal nodes")
    _add_count(p, "--threads", 1, default=1,
               help="worker processes of the command's one pass, at most one per task "
                    "and per CPU this process may use; the calling process is one of "
                    "them, so N workers fork N-1 processes; a model's quadrature runs in "
                    "the calling process alone (a fork restarts OpenBLAS's threads, which "
                    "costs more than its millisecond blocks); scan runs no pass, but the "
                    "value is still checked; results do not depend on this")
    p.add_argument("--out", metavar="PATH", default=None, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hvsinglet", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="run the admissibility checks")
    _add_common(p, out_help="write the JSON report here instead of stdout")
    _add_count(p, "--lambda-n", 0, _MAX_LAMBDA, default=2000,
               help="lambda draws per scanned setting (default 2000)")
    _add_count(p, "--settings-n", 0, _MAX_SETTINGS, default=100,
               help="setting pairs for the table scans (default 100)")
    _add_count(p, "--mc-samples", 0, _MAX_DRAWS, default=1_000_000,
               help="Monte Carlo draws per integral check without quadrature")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="estimate correlations at given settings")
    _add_common(p, out_help="write CSV here instead of stdout")
    p.add_argument("--settings", required=True, metavar="PATH|random:N",
                   help="JSON file with [[a, b], ...] pairs, or random:N")
    _add_count(p, "--shots", 1, _MAX_DRAWS, default=100_000)
    p.add_argument("--mode", choices=("sampling", "analytic"), default="sampling")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("chsh", help="four-pair CHSH combination")
    _add_common(p, out_help="write CSV here instead of stdout")
    p.add_argument("--settings", default="preset:optimal", metavar="PATH|preset:optimal",
                   help="JSON file with exactly 4 pairs (default: optimal axes)")
    _add_count(p, "--shots", 1, _MAX_DRAWS, default=100_000)
    p.add_argument("--mode", choices=("sampling", "analytic"), default="sampling")
    p.add_argument("--witness", action="store_true",
                   help="also report the largest per-lambda CHSH value")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("scan", help="sweep a.b and tabulate the correction")
    _add_common(p, out_help="write CSV here instead of stdout")
    _add_count(p, "--points", 2, _MAX_SETTINGS, default=41, help="grid points in [-1, 1]")
    _add_count(p, "--lambda-n", 1, _MAX_LAMBDA, default=2000,
               help="lambda draws when the model has no quadrature")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("build-recipe", help="construct a model from a base function")
    p.add_argument("f", choices=sorted(RECIPE_REGISTRY), help="base function name")
    p.add_argument("s", type=float, help="envelope exponent, s >= 1")
    p.add_argument("--scalar-measure", choices=("uniform", "two_point"), default="uniform")
    p.add_argument("--gamma", type=float, default=1.0)
    _add_count(p, "--grid-n", 1, _MAX_GAUSS_NODES, default=32, metavar="N")
    _add_count(p, "--seed", 0, _SEED_MAX, env="HV_SEED")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="where to write the model spec JSON (default: recipe-<f>-s<s>.json)")
    p.set_defaults(func=cmd_build_recipe)
    return parser


# ---------------------------------------------------------------------------
# Helpers


def _resolve_seed(arg_seed: int | None, spec_seed) -> int:
    """--seed (whose default is HV_SEED), then the model spec's seed, then 0."""
    return arg_seed if arg_seed is not None else int(spec_seed or 0)


def _load_model(args):
    name = args.model
    if not os.path.exists(name) and name in _BUILTIN_FAMILIES:
        return model_from_spec({"family": name}, grid_n=args.grid_n)
    return load_model(name, grid_n=args.grid_n)


def _parse_settings(value: str, seed: int, *, expect: int | None = None) -> np.ndarray:
    if value == "preset:optimal":
        return np.array(OPTIMAL_CHSH_SETTINGS)
    if value.startswith("random:"):
        try:
            n = int(value.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad settings count in {value!r}") from None
        if n < 1 or (expect is not None and n != expect):
            raise UsageError(f"need {expect or 'at least 1'} settings pairs, got {n}")
        _check_pair_count(n)
        gen = RandomStream(seed).split(14).generator()
        pairs = np.stack([sample_uniform_sphere(gen, n), sample_uniform_sphere(gen, n)], axis=1)
        return pairs
    try:
        with open(value, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read settings file {value!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise UsageError(f"{value}: not valid JSON ({exc})") from exc
    try:
        pairs = np.asarray(raw, dtype=float)
    except (ValueError, TypeError):  # non-numbers, ragged lists, a JSON object
        raise UsageError(f"{value}: expected a list of [a, b] 3-vector pairs") from None
    if pairs.ndim != 3 or pairs.shape[1:] != (2, 3):
        raise UsageError(f"{value}: expected a list of [a, b] 3-vector pairs")
    norms = np.linalg.norm(pairs, axis=2)
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise UsageError(f"{value}: settings must be unit vectors (worst |norm - 1| = "
                         f"{np.abs(norms - 1.0).max():.2e})")
    if expect is not None and len(pairs) != expect:
        raise UsageError(f"{value}: expected {expect} pairs, got {len(pairs)}")
    _check_pair_count(len(pairs))
    return pairs


def _check_pair_count(n: int) -> None:
    # each pair index takes a 20-bit stream-split field; reject before any work
    if n > _MAX_PAIRS:
        raise UsageError(f"at most {_MAX_PAIRS} settings pairs (the stream split limit), "
                         f"got {n}")


def _config(cls, **fields):
    """``cls(**fields)``; the config's own ValueError (library bounds) exits 64."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    model = _load_model(args)
    seed = _resolve_seed(args.seed, model.spec.get("seed"))
    cfg = _config(ValidatorConfig, n_settings=args.settings_n, n_lambda=args.lambda_n,
                  exponent_lambda=args.lambda_n, mc_samples=args.mc_samples,
                  threads=args.threads)
    result = run_full_suite(model, cfg, seed=seed)
    _emit(result.to_json() + "\n", args.out)
    for r in result.reports:
        print(_verdict_line(r), file=sys.stderr)
    print(f"overall: {result.overall} (exit {result.exit_code})", file=sys.stderr)
    return result.exit_code


def _verdict_line(r) -> str:
    """A check's stderr line; an inconclusive one says why, from its details."""
    line, d = f"{r.constraint_id:20s} {r.status.value}", r.details
    if r.status is not CheckStatus.INCONCLUSIVE:
        return line
    why = "; ".join(f"{k} {d[k]}" for k in ("samples_needed", "undefined_rows", "undefined_mass")
                    if k in d) or d.get("reason") or (
        "no samples" if not r.samples_used else "a pair with under two draws or zero spread")
    return f"{line} ({why})"


def cmd_simulate(args) -> int:
    model = _load_model(args)
    seed = _resolve_seed(args.seed, model.spec.get("seed"))
    pairs = _parse_settings(args.settings, seed)
    cfg = _config(ExperimentConfig, shots=args.shots, mode=args.mode, seed=seed,
                  threads=args.threads)
    ests = run_experiment(model, pairs, cfg)
    buf = io.StringIO()
    write_correlations_csv(buf, ests)
    _emit(buf.getvalue(), args.out)
    return EX_OK


def cmd_chsh(args) -> int:
    model = _load_model(args)
    seed = _resolve_seed(args.seed, model.spec.get("seed"))
    pairs = _parse_settings(args.settings, seed, expect=4)
    cfg = _config(ExperimentConfig, shots=args.shots, mode=args.mode, seed=seed,
                  threads=args.threads)
    result = chsh(model, cfg, settings=pairs)
    buf = io.StringIO()
    write_chsh_csv(buf, result)
    _emit(buf.getvalue(), args.out)
    print(f"S = {result.s_est:.6f} +- {result.stderr:.6f} (quantum {result.s_qm:.6f})",
          file=sys.stderr)
    if args.witness:
        s_max, lam = find_chsh_witness(model, pairs, source=RandomStream(seed).split(15))
        print(f"max per-lambda S = {s_max:.6f} at lambda = {lam.to_jsonable()}",
              file=sys.stderr)
    return EX_OK


def cmd_scan(args) -> int:
    model = _load_model(args)
    seed = _resolve_seed(args.seed, model.spec.get("seed"))
    batch, w = model.lambda_space.nodes(RandomStream(seed).split(13), args.lambda_n)
    a = np.array([0.0, 0.0, 1.0])
    tangent = np.array([1.0, 0.0, 0.0])
    rows = []
    for x in np.linspace(-1.0, 1.0, args.points):
        b = x * a + np.sqrt(max(0.0, 1.0 - x * x)) * tangent
        b /= np.linalg.norm(b)
        rows.append([f"{float(v):.17g}" for v in (x, *_scan_row(model, batch, w, a, b))])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a_dot_b", "mean_abs_c", "min_entry", "max_entry"])
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out)
    return EX_OK


def _scan_row(model, batch, w, a, b) -> tuple:
    """Weighted mean |C| and the extreme table entries over the valid rows.

    The rule is evaluated once: C and its values v (k, or a direct rule's
    tables) take the bits of ``implied_c`` and ``_values_masked``. Each entry
    and its rounding are monotone in each value, so the entries of v's
    per-lambda min and max hold the extremes exactly, with no tables for k.
    """
    if model.is_canonical:
        c = model.c_values(batch, a, b)
        v = setting_dot(a, b) - c
    else:
        v, ok = model._values_masked(batch, a, b)
        w, v = _masked_rows(ok, w, v)
        c = model._maps.correlator(v)
        c += dot(a, b)
    ends = np.array([model._maps.entries(v.min(axis=0)), model._maps.entries(v.max(axis=0))])
    return np.sum(w * np.abs(c)) / max(np.sum(w), 1e-300), ends.min(), ends.max()


def cmd_build_recipe(args) -> int:
    spec = {"family": "recipe", "s": args.s, "gamma": args.gamma,
            "scalar_measure": args.scalar_measure, "seed": _resolve_seed(args.seed, None),
            "parameters": {"f": args.f}}
    model = model_from_spec(spec, grid_n=args.grid_n)  # --grid-n sizes a sphere if any
    out = args.out or f"recipe-{args.f}-s{args.s:g}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(model.spec, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    scale = model.spec["parameters"]["scale"]
    print(f"wrote {out} (scale {scale:.6g})", file=sys.stderr)
    return EX_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # our error() raises 64; --help/--version raise 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, ModelSpecError, GeometryError, OSError) as exc:
        print(f"hvsinglet: error: {exc}", file=sys.stderr)
        return EX_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
