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

Checks that integrate over lambda use the model's quadrature when it has
one and fall back to Monte Carlo with 5-sigma gates otherwise; an MC check
whose standard error is too large to resolve its tolerance (above 1e-2)
reports ``inconclusive`` rather than guessing. An MC check draws its settings
pairs first and then each lambda block once, evaluating that block at every
pair (common random numbers), so its pairs share their draws. Models with a
per-lambda kernel k are averaged through k instead of whole tables. A check
that evaluated no rows, or an MC pair with fewer than two samples, reports
``inconclusive``: there is no evidence to pass on. Neither is zero spread:
a pair whose draws are all equal has stderr 0, which counts as z = 0 when
the deviation is 0 too and leaves the pair unresolved otherwise. The checks
take the correction from ``model.implied_c`` and their lambda rows from
``LambdaSpace.nodes``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor
from enum import Enum
from typing import Any

import numpy as np

from .geometry import RandomStream, as_generator, dot, sample_uniform_sphere, with_dot
from .models import (
    _SIGMA_TAU,
    HiddenVariableModel,
    LambdaPoint,
    OUTCOMES,
    qm_table,
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

_MC_BLOCK = 65536
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
    """Scan sizes and Monte Carlo budgets for the full suite."""

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
    return a, with_dot(a, t, gen.uniform(-1.0, 1.0))


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

        norm_dev = np.abs(tables.sum(axis=(1, 2)) - 1.0)
        j = int(np.argmax(norm_dev))
        if norm_dev[j] > worst_norm.value:
            worst_norm = Witness(float(norm_dev[j]), batch.point(row_of(j)), a, b)

        flat = tables.reshape(-1, 4)
        j = int(np.argmin(flat))
        row, entry = divmod(j, 4)
        if flat.flat[j] < worst_min.value:
            worst_min = Witness(float(flat.flat[j]), batch.point(row_of(row)), a, b,
                                OUTCOMES[entry // 2], OUTCOMES[entry % 2])
        j = int(np.argmax(flat))
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
        for axis, outcomes in ((2, "sigma"), (1, "tau")):
            gap = np.abs(tables.sum(axis=axis) - 0.5)
            j = int(np.argmax(gap))
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


def _mc_estimates(model: HiddenVariableModel, gen, pairs, mc_samples: int, evaluate,
                  compare):
    """Per-pair Monte Carlo comparisons of the mean of ``evaluate`` values.

    Common random numbers: each lambda block is drawn once from ``gen`` and
    evaluated at every settings pair, one pair at a time, so the pairs share
    their draws and no (block x pairs) array is built. ``evaluate`` maps
    (batch, a, b) to (values (n, ...), ok (n,)). Rows with ok False are
    dropped and made up from later blocks until every pair holds
    ``mc_samples`` values. A block that adds no row to any pair still short
    of that stops the loop, and those pairs keep fewer values.

    ``compare(a, b, mean, stderr)`` turns a pair's mean and standard error
    (from the (n - 1) variance) into (dev, stderr) of the compared
    quantities, and z = dev / stderr. Zero spread is not evidence: a value
    whose draws are all equal has that draw as its mean and stderr 0,
    exactly (rounding in the sums would otherwise fake a tiny stderr and
    deviation); where stderr is 0, dev 0 gives z = 0 and any other dev
    leaves z NaN.

    Returns [(a, b, n, dev, stderr, z)] over the pairs with n >= 2 values,
    the number of values used, and ``unresolved``: True when there are no
    pairs, some pair has fewer than two values (one value has no spread to
    estimate a stderr from) or some z is NaN.
    """
    counts = np.zeros(len(pairs), dtype=np.int64)
    sums: list = [0.0] * len(pairs)
    sums_sq: list = [0.0] * len(pairs)
    first: list = [None] * len(pairs)
    spread: list = [False] * len(pairs)  # some draw differs from the first
    while len(pairs) and (counts < mc_samples).any():
        need = mc_samples - counts
        batch = model.lambda_space.sample(gen, min(_MC_BLOCK, int(need.max())))
        progress = False
        for p, (a, b) in enumerate(pairs):
            if need[p] <= 0:
                continue
            vals, ok = evaluate(batch, a, b)
            if not ok.all():
                vals = vals[ok]
            vals = vals[:need[p]]
            if len(vals) and not np.all(spread[p]):
                if first[p] is None:
                    first[p] = vals[0]
                spread[p] = spread[p] | (vals != first[p]).any(axis=0)
            sums[p] = sums[p] + vals.sum(axis=0)
            sums_sq[p] = sums_sq[p] + (vals * vals).sum(axis=0)
            counts[p] += len(vals)
            progress = progress or len(vals) > 0
        if not progress:
            break
    estimates = []
    unresolved = not (len(pairs) and (counts >= 2).all())
    for p, (a, b) in enumerate(pairs):
        n = counts[p]
        if n < 2:
            continue
        mean = sums[p] / n
        var = np.maximum(0.0, (sums_sq[p] - n * mean * mean) / (n - 1))
        dev, stderr = compare(a, b, np.where(spread[p], mean, first[p]),
                              np.where(spread[p], np.sqrt(var / n), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(stderr > 0, dev / stderr, np.where(dev == 0, 0.0, np.nan))
        unresolved = unresolved or bool(np.isnan(z).any())
        estimates.append((a, b, int(n), dev, stderr, z))
    return estimates, int(counts.sum()), unresolved


def _mc_status(worst_z: float, max_stderr: float, unresolved: bool) -> CheckStatus:
    """5-sigma fail gate, then inconclusive when any pair is unresolved."""
    if worst_z > 5.0:
        return CheckStatus.FAIL
    if unresolved or max_stderr > _MC_STDERR_TOL:
        return CheckStatus.INCONCLUSIVE
    return CheckStatus.PASS


def _mc_details(estimates, max_stderr: float, worst_z: float, status: CheckStatus) -> dict:
    """Details of an MC check.

    When a standard error above 1e-2 leaves the check inconclusive,
    ``samples_needed`` is the per-pair sample count that would bring every
    pair's standard error down to 1e-2, from stderr proportional to 1/sqrt(n).
    """
    details = {"mode": "mc", "max_stderr": max_stderr, "max_z": worst_z}
    if status is CheckStatus.INCONCLUSIVE and max_stderr > _MC_STDERR_TOL:
        details["samples_needed"] = max(
            math.ceil(n * (float(np.max(stderr)) / _MC_STDERR_TOL) ** 2)
            for _, _, n, _, stderr, _ in estimates)
    return details


def check_zero_average(model: HiddenVariableModel, n_settings: int, source, *,
                       mc_samples: int = 1_000_000) -> ConstraintReport:
    """The lambda-average of C (or of the implied correction) must vanish."""
    gen = as_generator(source)
    quad = model.lambda_space.quadrature
    if quad is not None:
        nodes, w = quad
        tol = 1e-10
        if n_settings < 1:
            return _no_evidence("zero-average", tol, {"mode": "quadrature"})
        worst = Witness(-np.inf)
        for _ in range(n_settings):
            a, b = _random_pair(gen, endpoint=False)
            c, ok = model.implied_c(nodes, a, b)
            val = abs(float(np.sum(w[ok] * c[ok])))
            if val > worst.value:
                worst = Witness(val, None, a, b)
        status = CheckStatus.PASS if worst.value <= tol else CheckStatus.FAIL
        return ConstraintReport(
            "zero-average", status, worst.value, tol, n_settings * len(nodes), worst,
            details={"mode": "quadrature"})

    # Monte Carlo path: per-setting mean of the implied correction
    pairs = [_random_pair(gen, endpoint=False) for _ in range(n_settings)]
    estimates, used, unresolved = _mc_estimates(
        model, gen, pairs, mc_samples, model.implied_c,
        lambda a, b, mean, stderr: (np.abs(mean), stderr))
    worst = None
    max_stderr = 0.0
    worst_z = -np.inf
    for a, b, _, dev, stderr, z in estimates:
        max_stderr = max(max_stderr, float(stderr))
        if worst is None or dev > worst.value:
            worst = Witness(dev, None, a, b)
        if z > worst_z:  # False for NaN: an unresolved pair sets no z
            worst_z = float(z)
    status = _mc_status(worst_z, max_stderr, unresolved)
    return ConstraintReport("zero-average", status, None if worst is None else worst.value,
                            1e-2, used, worst,
                            _mc_details(estimates, max_stderr, worst_z, status))


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
            j = int(np.argmax(c))
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
            means[k] = float(np.sum(w * np.abs(model.c_values(nodes, a, b))))
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


def _g_values(model, nodes, a, b, s_plus, s_minus):
    x = dot(a, b)
    pref = (1.0 + x) ** s_plus * (1.0 - x) ** s_minus
    return model.c_values(nodes, a, b) / pref


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
            g = np.abs(_g_values(model, nodes, a, b, sp, sm))
            if len(g) == 0:
                continue
            used += len(g)
            nonzero_weight = max(nonzero_weight, float(np.sum(w[g > 1e-9])))
            j = int(np.argmax(g))
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
                tables, ok = model.tables_masked(nodes, a, b)
                used += int(np.count_nonzero(ok))
                g = _g_values(model, nodes, a, b, sp, sm)
                if sign > 0:
                    exact = tables[:, 0, 0]  # sigma = tau = +1
                    formula = (eps / 4.0) * (1.0 + 2.0**sp * eps ** (sm - 1.0) * g)
                else:
                    exact = tables[:, 0, 1]  # sigma = +1, tau = -1
                    formula = (eps / 4.0) * (1.0 - 2.0**sm * eps ** (sp - 1.0) * g)
                if negative is None and float(exact.min()) < -1e-12:
                    j = int(np.argmin(exact))
                    negative = Witness(float(exact[j]), nodes.point(j), a, b)
                rel = np.abs(formula - exact) / np.maximum(exact, eps / 40.0)
                j = int(np.argmax(rel))
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


def check_qm_reproduction(model: HiddenVariableModel, n_settings: int, source, *,
                          mc_samples: int = 1_000_000) -> ConstraintReport:
    """Lambda-averaged tables must equal (1 - sigma*tau*a.b)/4."""
    gen = as_generator(source)
    quad = model.lambda_space.quadrature
    if quad is not None:
        nodes, w = quad
        tol = 1e-9
        if n_settings < 1:
            return _no_evidence("qm-reproduction", tol, {"mode": "quadrature"})
        worst = Witness(-np.inf)
        for _ in range(n_settings):
            a, b = _random_pair(gen, endpoint=False)
            tables, ok = model.tables_masked(nodes, a, b)
            avg = np.einsum("n,nij->ij", w[ok], tables[ok])
            dev = np.abs(avg - qm_table(a, b))
            i, j = np.unravel_index(int(np.argmax(dev)), (2, 2))
            if dev[i, j] > worst.value:
                worst = Witness(float(dev[i, j]), None, a, b, OUTCOMES[i], OUTCOMES[j])
        status = CheckStatus.PASS if worst.value <= tol else CheckStatus.FAIL
        return ConstraintReport("qm-reproduction", status, worst.value, tol,
                                n_settings * len(nodes), worst,
                                details={"mode": "quadrature"})

    # Monte Carlo path: kernel models average k, whose mean kbar gives the
    # mean table (1 - sigma*tau*kbar)/4 with per-entry stderr stderr(k)/4
    pairs = [_random_pair(gen, endpoint=False) for _ in range(n_settings)]
    evaluate = model.kernel_masked if model.has_kernel else model.tables_masked

    def compare(a, b, mean, stderr):
        if model.has_kernel:
            mean, stderr = (1.0 - _SIGMA_TAU * mean) / 4.0, np.full((2, 2), stderr / 4.0)
        return np.abs(mean - qm_table(a, b)), stderr

    estimates, used, unresolved = _mc_estimates(model, gen, pairs, mc_samples, evaluate,
                                                compare)
    worst_z = -np.inf
    worst = None
    max_stderr = 0.0
    for a, b, _, dev, stderr, z in estimates:
        max_stderr = max(max_stderr, float(stderr.max()))
        z = np.where(np.isnan(z), -np.inf, z)  # an unresolved entry sets no z
        i, j = np.unravel_index(int(np.argmax(z)), (2, 2))
        if z[i, j] > worst_z:
            worst_z = float(z[i, j])
            worst = Witness(float(dev[i, j]), None, a, b, OUTCOMES[i], OUTCOMES[j])
    status = _mc_status(worst_z, max_stderr, unresolved)
    return ConstraintReport("qm-reproduction", status, None if worst is None else worst_z, 5.0,
                            used, worst, _mc_details(estimates, max_stderr, worst_z, status))


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
    """
    cfg = config or ValidatorConfig()
    root = RandomStream(seed).split(3)  # purpose tag for validation streams

    exponent_est: list[ExponentEstimate | None] = [None]

    def exponents() -> ExponentEstimate | None:
        if model.is_canonical and exponent_est[0] is None:
            exponent_est[0] = estimate_exponents(
                model, root.split(6), cfg.exponent_window, cfg.exponent_points,
                cfg.exponent_lambda)
        return exponent_est[0]

    def fitted(side: str) -> float | None:
        declared = dict(zip(("plus", "minus"), model.declared_exponents))[side]
        if declared is not None:
            return None  # check uses the declared value
        est = exponents()
        return None if est is None else getattr(est, f"s_{side}")

    def scan():
        return check_table_scan(model, cfg.n_settings, cfg.n_lambda, root.split(1))

    def marginal():
        return check_marginal_triviality(model, cfg.marginal_settings,
                                         cfg.marginal_lambda, root.split(2))

    def zero_avg():
        n = cfg.n_settings if model.lambda_space.quadrature is not None else cfg.mc_settings
        return check_zero_average(model, n, root.split(4), mc_samples=cfg.mc_samples)

    def coincident():
        return check_coincident_zero(model, cfg.coincident_axes, cfg.n_lambda, root.split(5))

    def exponent_bound():
        return check_exponent_bound(model, root.split(6), cfg.exponent_window,
                                    cfg.exponent_points, cfg.exponent_lambda,
                                    estimate=exponents())

    def endpoint_g():
        return check_endpoint_g_bound(
            model, root.split(7), eps=cfg.endpoint_eps, n_pairs=cfg.endpoint_pairs,
            n_lambda=cfg.n_lambda, s_plus=fitted("plus"), s_minus=fitted("minus"))

    def expansion():
        return check_expansion(model, root.split(8), cfg.expansion_eps,
                               cfg.expansion_axes, cfg.n_lambda)

    def qm():
        return check_qm_reproduction(model, cfg.qm_settings, root.split(9),
                                     mc_samples=cfg.mc_samples)

    # the exponent fit is shared by two checks; materialize it first
    exponents()
    jobs = [marginal, zero_avg, coincident, exponent_bound, endpoint_g, expansion, qm]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            scan_reports = pool.submit(scan)
            results = list(pool.map(lambda f: f(), jobs))
            norm_rep, pos_rep, half_rep = scan_reports.result()
    else:
        norm_rep, pos_rep, half_rep = scan()
        results = [f() for f in jobs]

    by_id = {r.constraint_id: r for r in [norm_rep, pos_rep, half_rep, *results]}
    reports = [by_id[cid] for cid in CONSTRAINT_ORDER]
    return SuiteResult(model_spec=dict(model.spec), seed=int(seed), reports=reports)
