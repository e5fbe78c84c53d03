"""Admissibility checks for hidden-variable singlet models.

Each check returns a ConstraintReport and the full battery is assembled by
``run_full_suite``. The constraints mirror the structural requirements on
the canonical form P = (1 - sigma*tau*(a.b - C))/4:

* normalization, positivity, entry-half-bound: every per-lambda table is a
  probability table with entries in [0, 1/2];
* marginal-triviality: per-lambda single-side marginals are exactly 1/2;
* zero-average: the lambda-average of C vanishes at every setting pair, so
  the model reproduces the singlet statistics;
* coincident-zero: C(lambda, a, +-a) = 0, preserving the perfect
  (anti)correlations lambda by lambda;
* exponent-bound: C vanishes at least linearly in (1 -+ a.b) at the
  endpoints (fitted exponents s_+- >= 1);
* endpoint-g-bound: when the opposite exponent is exactly 1, the reduced
  amplitude G = C / ((1+a.b)^s+ (1-a.b)^s-) obeys |G| <= 1/2^(s+-) at the
  matching endpoint, and G does not vanish on almost every lambda;
* expansion: near +-1 the entries follow the first-order form
  (eps/4)(1 +- 2^(s+-) eps^(s-+ - 1) G);
* qm-reproduction: lambda-averaged tables match the singlet table.

The two integral checks draw their settings pairs first, then sum over the
model's quadrature one pair at a time (``models._quad_means``) or, without
one, run the MC engine shared with the simulator (``models._mc_means``): it
draws 16384-row lambda blocks keyed by (check stream, block index),
evaluates each block at every pair (common random numbers) and counts the
rows where the rule is undefined. In both modes kernel models average k, so
no check builds tables over the quadrature. An MC pair fails at 5 sigma; a
standard error above 1e-2, a pair with fewer than two samples, zero spread
with a nonzero deviation, or a pair undefined on more than
``models._UNDEFINED_TOL`` of its rows leaves the check ``inconclusive``
rather than guessing, as does a check that evaluated no rows. Each MC check
is a job (its pairs, its block streams, its evaluator) and a report made
from the job's result. ``run_full_suite`` runs a model without a
quadrature as one pass on worker processes, the caller one of them: the
six per-lambda checks and both jobs' blocks (``models._mc_blocks``). A
model with a quadrature runs every check in the calling process: forking
its short checks saved little and slowed one-worker runs, for a cause not
found. The checks take the correction from ``model.implied_c`` and their
lambda rows from ``LambdaSpace.nodes``.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import closing
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any

import numpy as np

from .geometry import (RandomStream, _map_ordered, as_generator, dot, sample_uniform_sphere,
                       with_dot)
from .models import (
    _MAX_DRAWS,
    _SIGMA_TAU,
    _UNDEFINED_TOL,
    HiddenVariableModel,
    LambdaPoint,
    OUTCOMES,
    _mc_blocks,
    _mc_means,
    _quad_means,
    qm_table,
    setting_dot,
)

__all__ = [
    "CheckStatus",
    "Witness",
    "ConstraintReport",
    "DeltaDecomposition",
    "ExponentEstimate",
    "ValidatorConfig",
    "SuiteResult",
    "decompose_delta",
    "check_table_scan",
    "check_marginal_triviality",
    "check_zero_average",
    "check_coincident_zero",
    "estimate_exponents",
    "check_exponent_bound",
    "check_endpoint_g_bound",
    "check_expansion",
    "check_qm_reproduction",
    "run_full_suite",
    "overall_exit_code",
]

CONSTRAINT_ORDER = (
    "normalization",
    "positivity",
    "entry-half-bound",
    "marginal-triviality",
    "zero-average",
    "coincident-zero",
    "exponent-bound",
    "endpoint-g-bound",
    "expansion",
    "qm-reproduction",
)

_SIGMA = np.array([[1.0, 1.0], [-1.0, -1.0]])
_TAU = np.array([[1.0, -1.0], [1.0, -1.0]])

# an MC check whose standard error exceeds this cannot resolve its tolerance
_MC_STDERR_TOL = 1e-2


class CheckStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not_applicable"


@dataclass
class Witness:
    """Where an extremal value was observed."""

    value: float
    lam: LambdaPoint | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    sigma: int | None = None
    tau: int | None = None

    def to_dict(self) -> dict:
        as_list = lambda v: None if v is None else [float(x) for x in v]
        return {
            "value": _finite_or_none(self.value),
            "lambda": None if self.lam is None else self.lam.to_jsonable(),
            "a": as_list(self.a),
            "b": as_list(self.b),
            "sigma": self.sigma,
            "tau": self.tau,
        }


@dataclass
class ConstraintReport:
    constraint_id: str
    status: CheckStatus
    extremal_value: float | None
    tolerance: float
    samples_used: int
    witness: Witness | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "constraint-id": self.constraint_id,
            "status": self.status.value,
            "extremal_value": _finite_or_none(self.extremal_value),
            "tolerance": float(self.tolerance),
            "samples_used": int(self.samples_used),
            "witness": None if self.witness is None else self.witness.to_dict(),
            "details": _jsonable(self.details),
        }


def _finite_or_none(x) -> float | None:
    """JSON has no inf or nan; such values serialize as null."""
    return None if x is None or not np.isfinite(x) else float(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return _finite_or_none(obj)
    if isinstance(obj, np.integer):
        return obj.item()
    return obj


def _valid_rows(values: np.ndarray, ok: np.ndarray):
    """``values[ok]`` and a map from its rows back to the batch rows.

    When every row is valid the values come back as they are, uncopied.
    """
    if ok.all():
        return values, lambda j: j
    rows = np.flatnonzero(ok)
    return values[rows], lambda j: int(rows[j])


def _entry_sums(flat: np.ndarray) -> np.ndarray:
    """Row sums of (n, 4) table entries, bit for bit ``tables.sum(axis=(1, 2))``.

    Both add the four entries left to right; the columns skip the reduction's
    slow small-axis loop.
    """
    return flat[:, 0] + flat[:, 1] + flat[:, 2] + flat[:, 3]


def _no_evidence(constraint_id: str, tol: float, details: dict | None = None) -> ConstraintReport:
    """A check that evaluated no rows can neither pass nor fail."""
    return ConstraintReport(constraint_id, CheckStatus.INCONCLUSIVE, None, tol, 0,
                            details={**(details or {}), "reason": "no samples"})


# ---------------------------------------------------------------------------
# Table decomposition


@dataclass(frozen=True)
class DeltaDecomposition:
    """Coefficients of the deviation 4P - (1 - sigma*tau*a.b).

    The deviation decomposes as offset + sigma*alice + tau*bob +
    sigma*tau*corr. A normalized table has offset = 0; trivial per-lambda
    marginals force alice = bob = 0, leaving corr as the only hidden-variable
    freedom, which is the canonical C up to sign conventions.
    """

    alice: float
    bob: float
    corr: float
    offset: float

    def reconstruct(self, x: float) -> np.ndarray:
        delta = self.offset + _SIGMA * self.alice + _TAU * self.bob + _SIGMA_TAU * self.corr
        return ((1.0 - _SIGMA_TAU * x) + delta) / 4.0


def decompose_delta(table, a, b) -> DeltaDecomposition:
    """Project a conditional table onto the {1, sigma, tau, sigma*tau} basis."""
    t = np.asarray(table, dtype=float)
    if t.shape != (2, 2):
        raise ValueError(f"expected a 2x2 table, got shape {t.shape}")
    if abs(float(t.sum()) - 1.0) > 1e-12:
        raise ValueError(f"table is not normalized: sum = {t.sum()!r}")
    x = dot(a, b)
    delta = 4.0 * t - (1.0 - _SIGMA_TAU * x)
    return DeltaDecomposition(
        alice=float(np.sum(_SIGMA * delta)) / 4.0,
        bob=float(np.sum(_TAU * delta)) / 4.0,
        corr=float(np.sum(_SIGMA_TAU * delta)) / 4.0,
        offset=float(np.sum(delta)) / 4.0,
    )


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ValidatorConfig:
    """Scan sizes and Monte Carlo budgets for the full suite.

    ``threads`` caps the worker processes, the caller one of them, of the
    one pass that runs every check of a model without a quadrature. Every
    check of a model with a quadrature runs in the calling process.
    """

    n_settings: int = 100
    n_lambda: int = 2000
    marginal_settings: int = 100
    marginal_lambda: int = 100
    mc_samples: int = 1_000_000
    mc_settings: int = 10
    qm_settings: int = 20
    coincident_axes: int = 50
    endpoint_eps: float = 1e-6
    endpoint_pairs: int = 8
    expansion_eps: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    expansion_axes: int = 4
    exponent_window: tuple[float, float] = (1e-5, 1e-2)
    exponent_points: int = 20
    exponent_lambda: int = 2000
    threads: int = 1

    def __post_init__(self) -> None:
        # every count is >= 0; an exponent fit needs two points, a pass one worker
        lows = {"exponent_points": 2, "threads": 1}
        for f in fields(self):
            value, lo = getattr(self, f.name), lows.get(f.name, 0)
            if f.type == "int" and value < lo:
                raise ValueError(f"{f.name} must be >= {lo}, got {value}")
        if self.mc_samples > _MAX_DRAWS:
            raise ValueError(f"mc_samples must be <= {_MAX_DRAWS} (the stream split limit), "
                             f"got {self.mc_samples}")


def _random_pair(gen, endpoint: bool) -> tuple[np.ndarray, np.ndarray]:
    """A settings pair, biased toward near-coincident axes when asked.

    Positivity failures of too-weak endpoint zeros only show up for
    |a.b| -> 1, so half the scan budget is spent there.
    """
    a = sample_uniform_sphere(gen)
    t = sample_uniform_sphere(gen)
    if endpoint:
        u = gen.uniform(-8.0, -2.0)
        x = (1.0 - 10.0**u) * (1.0 if gen.random() < 0.5 else -1.0)
        return a, with_dot(a, t, x)
    # gen.uniform(-1.0, 1.0) bit for bit: the scale by 2 is exact, so only the sum rounds
    return a, with_dot(a, t, -1.0 + 2.0 * gen.random())


# ---------------------------------------------------------------------------
# Table-level scans


def check_table_scan(model: HiddenVariableModel, n_settings: int, n_lambda: int,
                     source) -> tuple[ConstraintReport, ConstraintReport, ConstraintReport]:
    """One scan, three verdicts: normalization, positivity, half bound."""
    gen = as_generator(source)
    tol = 1e-12
    used = 0
    worst_min = Witness(np.inf)
    worst_max = Witness(-np.inf)
    worst_norm = Witness(-np.inf)

    for i in range(n_settings):
        a, b = _random_pair(gen, endpoint=(i % 2 == 1))
        batch = model.lambda_space.sample(gen, n_lambda)
        tables, ok = model.tables_masked(batch, a, b)
        tables, row_of = _valid_rows(tables, ok)
        if len(tables) == 0:
            continue
        used += len(tables)

        flat = tables.reshape(-1, 4)
        norm_dev = np.abs(_entry_sums(flat) - 1.0)
        j = int(norm_dev.argmax())
        if norm_dev[j] > worst_norm.value:
            worst_norm = Witness(float(norm_dev[j]), batch.point(row_of(j)), a, b)

        j = int(flat.argmin())
        row, entry = divmod(j, 4)
        if flat.flat[j] < worst_min.value:
            worst_min = Witness(float(flat.flat[j]), batch.point(row_of(row)), a, b,
                                OUTCOMES[entry // 2], OUTCOMES[entry % 2])
        j = int(flat.argmax())
        row, entry = divmod(j, 4)
        if flat.flat[j] > worst_max.value:
            worst_max = Witness(float(flat.flat[j]), batch.point(row_of(row)), a, b,
                                OUTCOMES[entry // 2], OUTCOMES[entry % 2])

    if used == 0:
        return tuple(_no_evidence(cid, tol) for cid in CONSTRAINT_ORDER[:3])

    def verdict(cond: bool) -> CheckStatus:
        return CheckStatus.PASS if cond else CheckStatus.FAIL

    norm_rep = ConstraintReport(
        "normalization", verdict(worst_norm.value <= tol), worst_norm.value, tol, used,
        worst_norm)
    pos_rep = ConstraintReport(
        "positivity", verdict(worst_min.value >= -tol), worst_min.value, tol, used,
        worst_min)
    half_rep = ConstraintReport(
        "entry-half-bound", verdict(worst_max.value <= 0.5 + tol), worst_max.value, tol,
        used, worst_max)
    return norm_rep, pos_rep, half_rep


def check_marginal_triviality(model: HiddenVariableModel, n_settings: int, n_lambda: int,
                              source) -> ConstraintReport:
    """Per-lambda one-side marginals must equal 1/2 (setting independence)."""
    gen = as_generator(source)
    tol = 1e-10
    used = 0
    worst = Witness(-np.inf)
    for _ in range(n_settings):
        a, b = _random_pair(gen, endpoint=False)
        batch = model.lambda_space.sample(gen, n_lambda)
        tables, ok = model.tables_masked(batch, a, b)
        tables, row_of = _valid_rows(tables, ok)
        if len(tables) == 0:
            continue
        used += len(tables)
        # the two-term sums of tables.sum(axis=2) and tables.sum(axis=1)
        for marginals, outcomes in ((tables[:, :, 0] + tables[:, :, 1], "sigma"),
                                    (tables[:, 0] + tables[:, 1], "tau")):
            gap = np.abs(marginals - 0.5)
            j = int(gap.argmax())
            row, side = divmod(j, 2)
            if gap.flat[j] > worst.value:
                w = Witness(float(gap.flat[j]), batch.point(row_of(row)), a, b)
                if outcomes == "sigma":
                    w.sigma = OUTCOMES[side]
                else:
                    w.tau = OUTCOMES[side]
                worst = w
    if used == 0:
        return _no_evidence("marginal-triviality", tol)
    status = CheckStatus.PASS if worst.value <= tol else CheckStatus.FAIL
    return ConstraintReport("marginal-triviality", status, worst.value, tol, used, worst)


# ---------------------------------------------------------------------------
# Integral constraints


def _quadrature_check(constraint_id: str, tol: float, model: HiddenVariableModel, source,
                      n_settings: int, evaluate, deviation) -> ConstraintReport:
    """``deviation(a, b, W, mean)`` of each pair's ``_quad_means`` must stay <= tol, and
    without a failure an undefined mass 1 - W above ``_UNDEFINED_TOL`` is inconclusive."""
    if n_settings < 1:
        return _no_evidence(constraint_id, tol, {"mode": "quadrature"})
    gen = as_generator(source)
    pairs = [_random_pair(gen, endpoint=False) for _ in range(n_settings)]
    worst, undefined = Witness(-np.inf), 0.0
    for (a, b), (weight, mean) in zip(pairs, _quad_means(model, evaluate, pairs)):
        undefined = max(undefined, 1.0 - float(weight))
        dev = np.ravel(deviation(a, b, weight, mean))  # one value, or the (sigma, tau) entries
        j = int(dev.argmax())
        if dev[j] > worst.value:
            outcomes = (OUTCOMES[j // 2], OUTCOMES[j % 2]) if len(dev) > 1 else ()
            worst = Witness(float(dev[j]), None, a, b, *outcomes)
    status = (CheckStatus.FAIL if not worst.value <= tol else CheckStatus.INCONCLUSIVE
              if undefined > _UNDEFINED_TOL else CheckStatus.PASS)
    details = {"mode": "quadrature"}
    if undefined > 0.0:
        details["undefined_mass"] = undefined
    return ConstraintReport(constraint_id, status, worst.value, tol,
                            n_settings * len(model.lambda_space.quadrature[1]), worst, details)


def _mc_job(source, n_settings: int, evaluate):
    """An MC check's job: pairs from ``source.generator()``, block i from ``source.split(i)``."""
    if not isinstance(source, RandomStream):
        raise TypeError(f"a Monte Carlo check needs a RandomStream, got {type(source)!r}")
    gen = source.generator()
    return source, [_random_pair(gen, endpoint=False) for _ in range(n_settings)], evaluate


def _mc_estimates(pairs, stats, compare):
    """An MC check's compare/z step over its job's ``_mc_means`` result.

    ``compare(a, b, mean, stderr)`` gives (dev, stderr) and z = dev / stderr;
    zero spread is not evidence, so stderr 0 gives z = 0 for dev 0 and NaN
    otherwise. A pair fails above 5 sigma; else a stderr above 1e-2 (with
    ``samples_needed``, from stderr ~ 1/sqrt(n)) or an unresolved pair (none
    at all, fewer than two kept values, undefined above ``_UNDEFINED_TOL``, a
    NaN z) makes the check inconclusive. Returns (the (a, b, n, dev, stderr,
    z) of pairs with n >= 2, kept values, status, details).
    """
    estimates = []
    unresolved = not pairs
    max_stderr, worst_z, undefined_rows = 0.0, -np.inf, 0
    for (a, b), (n, mean, stderr, undefined) in zip(pairs, stats):
        undefined_rows += undefined
        unresolved = unresolved or n < 2 or undefined > _UNDEFINED_TOL * (n + undefined)
        if n < 2:
            continue
        dev, stderr = compare(a, b, mean, stderr)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(stderr > 0, dev / stderr, np.where(dev == 0, 0.0, np.nan))
        unresolved = unresolved or bool(np.isnan(z).any())
        max_stderr = max(max_stderr, float(np.max(stderr)))
        worst_z = max(worst_z, float(np.max(np.where(np.isnan(z), -np.inf, z))))
        estimates.append((a, b, n, dev, stderr, z))
    status = (CheckStatus.FAIL if worst_z > 5.0 else CheckStatus.INCONCLUSIVE
              if unresolved or max_stderr > _MC_STDERR_TOL else CheckStatus.PASS)
    details = {"mode": "mc", "max_stderr": max_stderr, "max_z": worst_z}
    if undefined_rows:
        details["undefined_rows"] = undefined_rows
    if status is CheckStatus.INCONCLUSIVE and max_stderr > _MC_STDERR_TOL:
        details["samples_needed"] = max(
            math.ceil(n * (float(np.max(stderr)) / _MC_STDERR_TOL) ** 2)
            for _, _, n, _, stderr, _ in estimates)
    return estimates, sum(n for n, *_ in stats), status, details


def _zero_average_mc(model: HiddenVariableModel, n_settings: int, source):
    """zero-average's MC job and the report it makes of the job's result."""
    job = _mc_job(source, n_settings, model.implied_c)

    def report(stats) -> ConstraintReport:
        estimates, used, status, details = _mc_estimates(
            job[1], stats, lambda a, b, mean, stderr: (np.abs(mean), stderr))
        top = max(estimates, key=lambda e: e[3], default=None)  # the first largest deviation
        worst = None if top is None else Witness(top[3], None, top[0], top[1])
        return ConstraintReport("zero-average", status, None if worst is None else worst.value,
                                1e-2, used, worst, details)

    return job, report


def check_zero_average(model: HiddenVariableModel, n_settings: int, source, *,
                       mc_samples: int = 1_000_000) -> ConstraintReport:
    """The lambda-average of C (or of the implied correction) must vanish."""
    if model.lambda_space.quadrature is not None:
        return _quadrature_check("zero-average", 1e-10, model, source, n_settings,
                                 model.implied_c, lambda a, b, weight, mean: abs(float(mean)))
    job, report = _zero_average_mc(model, n_settings, source)
    return report(*_mc_means(model, [job], mc_samples))


def check_coincident_zero(model: HiddenVariableModel, n_axes: int, n_lambda: int,
                          source) -> ConstraintReport:
    """C(lambda, a, +-a) = 0 per lambda: perfect (anti)correlations survive."""
    gen = as_generator(source)
    tol = 1e-10
    used = 0
    worst = Witness(-np.inf)
    for _ in range(n_axes):
        a = sample_uniform_sphere(gen)
        nodes, _ = model.lambda_space.nodes(gen, n_lambda)
        for b in (a, -a):
            c, ok = model.implied_c(nodes, a, b)
            c, row_of = _valid_rows(c, ok)
            c = np.abs(c)
            used += len(c)
            if len(c) == 0:
                continue
            j = int(c.argmax())
            if c[j] > worst.value:
                worst = Witness(float(c[j]), nodes.point(row_of(j)), a, b)
    if used == 0:
        return _no_evidence("coincident-zero", tol)
    status = CheckStatus.PASS if worst.value <= tol else CheckStatus.FAIL
    return ConstraintReport("coincident-zero", status, worst.value, tol, used, worst)


# ---------------------------------------------------------------------------
# Endpoint structure


@dataclass(frozen=True)
class ExponentEstimate:
    """Log-log slope fits of mean |C| against the endpoint gaps."""

    s_plus: float
    s_minus: float
    residual_plus: float
    residual_minus: float
    samples_used: int
    window: tuple[float, float]
    flat_plus: bool = False
    flat_minus: bool = False


def estimate_exponents(model: HiddenVariableModel, source,
                       window: tuple[float, float] = (1e-5, 1e-2),
                       n_points: int = 20, n_lambda: int = 2000) -> ExponentEstimate:
    """Fit mean_lambda |C(lambda, a, b)| ~ t^s for t = 1 -+ a.b -> 0.

    Uses the quadrature measure when available so the fit is noise-free;
    the lambda average makes slopes robust to individual zeros of C.
    """
    if not model.is_canonical:
        raise ValueError("exponent fits need the canonical C function")
    gen = as_generator(source)
    a = sample_uniform_sphere(gen)
    tangent = sample_uniform_sphere(gen)
    nodes, w = model.lambda_space.nodes(gen, n_lambda)
    ts = np.geomspace(window[0], window[1], n_points)

    def fit(side: float) -> tuple[float, float, bool]:
        means = np.empty(len(ts))
        for k, t in enumerate(ts):
            b = with_dot(a, tangent, side * (1.0 - t))
            means[k] = float((w * np.abs(model.c_values(nodes, a, b))).sum())
        if np.max(means) < 1e-14:
            return np.nan, 0.0, True
        logt, logm = np.log(ts), np.log(means)
        slope, intercept = np.polyfit(logt, logm, 1)
        resid = float(np.sqrt(np.mean((logm - (slope * logt + intercept)) ** 2)))
        return float(slope), resid, False

    s_minus, r_minus, flat_minus = fit(+1.0)  # gap t = 1 - a.b
    s_plus, r_plus, flat_plus = fit(-1.0)     # gap t = 1 + a.b
    return ExponentEstimate(s_plus, s_minus, r_plus, r_minus,
                            2 * len(ts) * len(nodes), tuple(window),
                            flat_plus=flat_plus, flat_minus=flat_minus)


def check_exponent_bound(model: HiddenVariableModel, source,
                         window: tuple[float, float] = (1e-5, 1e-2),
                         n_points: int = 20, n_lambda: int = 2000,
                         estimate: ExponentEstimate | None = None) -> ConstraintReport:
    """Fitted endpoint exponents must satisfy s+ >= 1 and s- >= 1."""
    tol = 0.05
    if not model.is_canonical:
        return ConstraintReport("exponent-bound", CheckStatus.NOT_APPLICABLE, None, tol, 0,
                                details={"reason": "direct rule, no canonical C"})
    est = estimate or estimate_exponents(model, source, window, n_points, n_lambda)
    details = {
        "s_plus": est.s_plus, "s_minus": est.s_minus,
        "residual_plus": est.residual_plus, "residual_minus": est.residual_minus,
        "declared": list(model.declared_exponents),
    }
    if est.flat_plus or est.flat_minus:
        return ConstraintReport("exponent-bound", CheckStatus.INCONCLUSIVE, None, tol,
                                est.samples_used, details={**details, "reason": "C is flat"})
    if max(est.residual_plus, est.residual_minus) > 0.2:
        return ConstraintReport("exponent-bound", CheckStatus.INCONCLUSIVE,
                                float(min(est.s_plus, est.s_minus)), tol,
                                est.samples_used,
                                details={**details, "reason": "poor log-log fit"})
    extremal = float(min(est.s_plus, est.s_minus))
    status = CheckStatus.PASS if extremal >= 1.0 - tol else CheckStatus.FAIL
    return ConstraintReport("exponent-bound", status, extremal, tol, est.samples_used,
                            details=details)


def _g_values(c, a, b, s_plus, s_minus, out=None):
    """Reduced amplitude G = C / ((1+a.b)^s+ (1-a.b)^s-) from C's values."""
    x = dot(a, b)
    pref = (1.0 + x) ** s_plus * (1.0 - x) ** s_minus
    return np.divide(c, pref, out=out)


def check_endpoint_g_bound(model: HiddenVariableModel, source, *, eps: float = 1e-6,
                           n_pairs: int = 8, n_lambda: int = 2000,
                           s_plus: float | None = None,
                           s_minus: float | None = None) -> ConstraintReport:
    """|G(lambda, a, +-a)| <= 1/2^(s+-) whenever the opposite exponent is 1.

    Also requires G to be nonzero on a non-negligible fraction of lambda
    near each applicable endpoint, so the endpoint domains really carry
    hidden-variable weight.
    """
    tol = 1e-9
    if not model.is_canonical:
        return ConstraintReport("endpoint-g-bound", CheckStatus.NOT_APPLICABLE, None, tol, 0,
                                details={"reason": "direct rule, no canonical C"})
    sp = model.c_function.s_plus if s_plus is None else s_plus
    sm = model.c_function.s_minus if s_minus is None else s_minus
    if sp is None or sm is None or not np.isfinite(sp) or not np.isfinite(sm):
        return ConstraintReport("endpoint-g-bound", CheckStatus.INCONCLUSIVE, None, tol, 0,
                                details={"reason": "endpoint exponents unknown"})
    sides = []
    if abs(sm - 1.0) <= 0.05:
        sides.append(("+1", +1.0, 0.5**sp))
    if abs(sp - 1.0) <= 0.05:
        sides.append(("-1", -1.0, 0.5**sm))
    if not sides:
        return ConstraintReport(
            "endpoint-g-bound", CheckStatus.NOT_APPLICABLE, None, tol, 0,
            details={"reason": "neither opposite exponent equals 1",
                     "s_plus": float(sp), "s_minus": float(sm)})

    gen = as_generator(source)
    used = 0
    worst_margin = -np.inf
    worst = None
    side_details: dict[str, Any] = {}
    min_fraction = 1.0
    for label, sign, bound in sides:
        max_g = -np.inf
        nonzero_weight = 0.0
        wit = None
        for _ in range(n_pairs):
            a = sample_uniform_sphere(gen)
            tangent = sample_uniform_sphere(gen)
            b = with_dot(a, tangent, sign * (1.0 - eps))
            nodes, w = model.lambda_space.nodes(gen, n_lambda)
            g = np.abs(_g_values(model.c_values(nodes, a, b), a, b, sp, sm))
            if len(g) == 0:
                continue
            used += len(g)
            nonzero_weight = max(nonzero_weight, float(w[g > 1e-9].sum()))
            j = int(g.argmax())
            if g[j] > max_g:
                max_g = float(g[j])
                wit = Witness(max_g, nodes.point(j), a, b)
        margin = max_g - bound
        if margin > worst_margin:
            worst_margin = margin
            worst = wit
        min_fraction = min(min_fraction, nonzero_weight)
        side_details[label] = {"bound": bound, "max_abs_g": max_g,
                               "nonzero_fraction": nonzero_weight}
    if used == 0:
        return _no_evidence("endpoint-g-bound", tol)
    ok = worst_margin <= tol and min_fraction >= 0.01
    status = CheckStatus.PASS if ok else CheckStatus.FAIL
    return ConstraintReport(
        "endpoint-g-bound", status, None if worst is None else worst.value, tol, used,
        worst, details={"sides": side_details, "min_nonzero_fraction": min_fraction,
                        "s_plus": float(sp), "s_minus": float(sm)})


def check_expansion(model: HiddenVariableModel, source,
                    eps_list: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
                    n_axes: int = 4, n_lambda: int = 2000) -> ConstraintReport:
    """First-order endpoint form of the table entries.

    With C = (1+a.b)^s+ (1-a.b)^s- G, expanding at a.b = 1 - eps gives
    P(sigma, sigma) = (eps/4) (1 + 2^s+ eps^(s- - 1) G(lambda, a, b)) + O(eps^2)
    and at a.b = -(1 - eps)
    P(sigma, -sigma) = (eps/4) (1 - 2^s- eps^(s+ - 1) G(lambda, a, b)) + O(eps^2).
    The relative deviation must stay below 10*eps; the denominator is floored
    at eps/40 because the leading term cancels when G sits on the boundary
    of its admissible range (there the entry itself is O(eps^2) and only
    nonnegativity is informative).
    """
    tol = 10.0
    sp, sm = model.declared_exponents
    if not model.is_canonical or sp is None or sm is None:
        return ConstraintReport("expansion", CheckStatus.NOT_APPLICABLE, None, tol, 0,
                                details={"reason": "needs declared endpoint exponents"})
    gen = as_generator(source)
    used = 0
    worst_ratio = -np.inf   # relative deviation / eps, must stay < 10
    worst = None
    per_eps: dict[str, float] = {}
    negative = None
    for eps in eps_list:
        max_rel = 0.0
        for _ in range(n_axes):
            a = sample_uniform_sphere(gen)
            tangent = sample_uniform_sphere(gen)
            nodes, _ = model.lambda_space.nodes(gen, n_lambda)
            if len(nodes) == 0:
                continue
            for sign in (+1.0, -1.0):
                x = sign * (1.0 - eps)
                b = with_dot(a, tangent, x)
                # a canonical model's entry (1 -+ k)/4, k = a.b - C, without the other
                # three. C is evaluated once; the entry, G, the formula and rel take C's
                # buffer and one more, each with its whole-array expression's operations.
                c = model.c_values(nodes, a, b)
                if not c.flags.owndata:  # a view may alias the nodes: never write into it
                    c = c.copy()
                exact = np.subtract(setting_dot(a, b), c)  # k, then the entry
                used += len(nodes)
                g = _g_values(c, a, b, sp, sm, out=c)
                if sign > 0:  # sigma = tau = +1: (1 - k)/4, (eps/4) (1 + 2^s+ eps^(s- - 1) G)
                    np.subtract(1.0, exact, out=exact)
                    np.add(1.0, np.multiply(2.0**sp * eps ** (sm - 1.0), g, out=g), out=g)
                else:  # sigma = +1, tau = -1: (1 + k)/4, (eps/4) (1 - 2^s- eps^(s+ - 1) G)
                    np.add(1.0, exact, out=exact)
                    np.subtract(1.0, np.multiply(2.0**sm * eps ** (sp - 1.0), g, out=g), out=g)
                np.divide(exact, 4.0, out=exact)
                formula = np.multiply(eps / 4.0, g, out=g)
                if negative is None and float(exact.min()) < -1e-12:
                    j = int(exact.argmin())
                    negative = Witness(float(exact[j]), nodes.point(j), a, b)
                rel = np.abs(np.subtract(formula, exact, out=formula), out=formula)
                np.divide(rel, np.maximum(exact, eps / 40.0, out=exact), out=rel)
                j = int(rel.argmax())
                if rel[j] / eps > worst_ratio:
                    worst_ratio = float(rel[j]) / eps
                    worst = Witness(float(rel[j]), nodes.point(j), a, b)
                max_rel = max(max_rel, float(rel[j]))
        per_eps[f"{eps:g}"] = max_rel
    if used == 0:
        return _no_evidence("expansion", tol)
    details = {"max_rel_dev_per_eps": per_eps, "s_plus": float(sp), "s_minus": float(sm)}
    if negative is not None:
        return ConstraintReport("expansion", CheckStatus.FAIL, negative.value, tol, used,
                                negative, details={**details, "reason": "negative entry"})
    status = CheckStatus.PASS if worst_ratio < tol else CheckStatus.FAIL
    return ConstraintReport("expansion", status, worst_ratio, tol, used, worst, details)


# ---------------------------------------------------------------------------
# Statistics reproduction


def _qm_terms(model: HiddenVariableModel):
    """qm-reproduction's evaluator and its deviation(a, b, W, mean) from the singlet table.

    Kernel models average k in both modes: the mean table is
    (W - sigma*tau*kbar)/4 over the valid mass W (1 for MC draws).
    """
    def deviation(a, b, weight, mean):
        table = (weight - _SIGMA_TAU * mean) / 4.0 if model.has_kernel else mean
        return np.abs(table - qm_table(a, b))

    return (model.kernel_masked if model.has_kernel else model.tables_masked), deviation


def _qm_reproduction_mc(model: HiddenVariableModel, n_settings: int, source):
    """qm-reproduction's MC job and the report it makes of the job's result."""
    evaluate, deviation = _qm_terms(model)
    job = _mc_job(source, n_settings, evaluate)

    def compare(a, b, mean, stderr):
        return deviation(a, b, 1.0, mean), (np.full((2, 2), stderr / 4.0)  # stderr(k)/4
                                            if model.has_kernel else stderr)

    def report(stats) -> ConstraintReport:
        estimates, used, status, details = _mc_estimates(job[1], stats, compare)
        worst, worst_z = None, -np.inf
        for a, b, _, dev, _, z in estimates:
            z = np.where(np.isnan(z), -np.inf, z)  # an unresolved entry sets no z
            i, j = divmod(int(z.argmax()), 2)
            if z[i, j] > worst_z:
                worst_z = float(z[i, j])
                worst = Witness(float(dev[i, j]), None, a, b, OUTCOMES[i], OUTCOMES[j])
        return ConstraintReport("qm-reproduction", status, None if worst is None else worst_z,
                                5.0, used, worst, details)

    return job, report


def check_qm_reproduction(model: HiddenVariableModel, n_settings: int, source, *,
                          mc_samples: int = 1_000_000) -> ConstraintReport:
    """Lambda-averaged tables must equal (1 - sigma*tau*a.b)/4."""
    if model.lambda_space.quadrature is not None:
        return _quadrature_check("qm-reproduction", 1e-9, model, source, n_settings,
                                 *_qm_terms(model))
    job, report = _qm_reproduction_mc(model, n_settings, source)
    return report(*_mc_means(model, [job], mc_samples))


# ---------------------------------------------------------------------------
# Full suite


@dataclass
class SuiteResult:
    model_spec: dict
    seed: int
    reports: list[ConstraintReport]

    @property
    def exit_code(self) -> int:
        return overall_exit_code(self.reports)

    @property
    def overall(self) -> str:
        return {0: "pass", 1: "fail", 2: "inconclusive"}[self.exit_code]

    def report(self, constraint_id: str) -> ConstraintReport:
        for r in self.reports:
            if r.constraint_id == constraint_id:
                return r
        raise KeyError(constraint_id)

    def to_dict(self) -> dict:
        return {
            "model": _jsonable(self.model_spec),
            "seed": int(self.seed),
            "overall": self.overall,
            "exit_code": self.exit_code,
            "checks": [r.to_dict() for r in self.reports],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, allow_nan=False)


def overall_exit_code(reports: list[ConstraintReport]) -> int:
    """0 all pass, 1 any fail, 2 no fail but something inconclusive."""
    statuses = {r.status for r in reports}
    if CheckStatus.FAIL in statuses:
        return 1
    if CheckStatus.INCONCLUSIVE in statuses:
        return 2
    return 0


def run_full_suite(model: HiddenVariableModel, config: ValidatorConfig | None = None,
                   seed: int = 0) -> SuiteResult:
    """Run every admissibility check with independent, fixed RNG streams.

    Results are bitwise reproducible for a given seed regardless of
    ``config.threads``: each check owns a stream derived from its fixed
    position in the battery, so scheduling cannot reorder draws.

    The exponent fit, which two checks share, runs first. A model without a
    quadrature then runs as one ``_map_ordered`` pass on up to
    ``config.threads`` worker processes, the caller one of them: its tasks
    are the six per-lambda checks, longest first, then the blocks of both
    Monte Carlo jobs (``models._mc_blocks``), qm-reproduction's first, so
    the checks overlap the blocks. A model with a quadrature runs every
    check in the calling process: forking its short checks saved little and
    slowed one-worker runs, for a cause not found.
    """
    cfg = config or ValidatorConfig()
    root = RandomStream(seed).split(3)  # purpose tag for validation streams
    # the exponent fit is shared by two checks
    est = (estimate_exponents(model, root.split(6), cfg.exponent_window, cfg.exponent_points,
                              cfg.exponent_lambda) if model.is_canonical else None)

    def fitted(side: str) -> float | None:
        declared = dict(zip(("plus", "minus"), model.declared_exponents))[side]
        # a declared exponent is the check's own default
        return None if declared is not None or est is None else getattr(est, f"s_{side}")

    checks = [
        lambda: check_table_scan(model, cfg.n_settings, cfg.n_lambda, root.split(1)),
        lambda: check_coincident_zero(model, cfg.coincident_axes, cfg.n_lambda, root.split(5)),
        lambda: check_marginal_triviality(model, cfg.marginal_settings, cfg.marginal_lambda,
                                          root.split(2)),
        lambda: check_exponent_bound(model, root.split(6), cfg.exponent_window,
                                     cfg.exponent_points, cfg.exponent_lambda, estimate=est),
        lambda: check_endpoint_g_bound(model, root.split(7), eps=cfg.endpoint_eps,
                                       n_pairs=cfg.endpoint_pairs, n_lambda=cfg.n_lambda,
                                       s_plus=fitted("plus"), s_minus=fitted("minus")),
        lambda: check_expansion(model, root.split(8), cfg.expansion_eps, cfg.expansion_axes,
                                cfg.n_lambda),
    ]
    if model.lambda_space.quadrature is None:
        mc = [_qm_reproduction_mc(model, cfg.qm_settings, root.split(9)),
              _zero_average_mc(model, cfg.mc_settings, root.split(4))]
        count, block, fold = _mc_blocks(model, [job for job, _ in mc], cfg.mc_samples)

        def task(t: int):
            return checks[t]() if t < len(checks) else block(t - len(checks))

        with closing(_map_ordered(task, range(len(checks) + count), cfg.threads)) as results:
            per_lambda = list(itertools.islice(results, len(checks)))
            integral = [report(stats) for (_, report), stats in zip(mc, fold(results))]
    else:
        per_lambda = [check() for check in checks]
        integral = [check_qm_reproduction(model, cfg.qm_settings, root.split(9)),
                    check_zero_average(model, cfg.n_settings, root.split(4))]
    scan, *others = per_lambda
    by_id = {r.constraint_id: r for r in [*integral, *scan, *others]}
    reports = [by_id[cid] for cid in CONSTRAINT_ORDER]
    return SuiteResult(model_spec=dict(model.spec), seed=int(seed), reports=reports)
