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

Every witness comes from one scan (``_Worst``): per batch it takes the
argmax or argmin of the values, keeps the worst witness and counts the rows.
The per-lambda checks and the quadrature integral checks take their verdict
from it too, and one that scanned no rows is ``inconclusive``. A NaN on a
row the rule calls defined is the worst value, so the check fails with a
``null`` witness value.

Each integral check is one record (``_Integral``): its evaluator, the
deviation of a pair's lambda-sum S over valid mass W from the target, the
map of S's stderr to the deviation's, and the MC witness rule. A check
draws its settings pairs first, then runs the lambda-mean engine shared
with the simulator (``models._mc_means``) on its node source: the model's
quadrature, one block of all its nodes, or else 16384-row lambda blocks
keyed by (check stream, block index). Each block is evaluated at every pair
(common random numbers), and the rows where the rule is undefined are
counted. In both modes kernel models average k, so no check builds tables
over the quadrature. The two modes keep two reports, as their verdict rules
and details differ. A quadrature pair fails above the check's tolerance. An
MC pair fails at 5 sigma; a standard error above 1e-2, a pair with fewer
than two samples, zero spread with a nonzero deviation, or a pair undefined
on more than ``models._UNDEFINED_TOL`` of its rows leaves the check
``inconclusive`` rather than guessing, as does a check that evaluated no
rows. By MC, zero-average reports its largest deviation against 1e-2 and
qm-reproduction its largest z against 5.
``run_full_suite`` runs every model as one pass: the six per-lambda checks
and the blocks of both integral checks' jobs (``models._mc_blocks``), on
worker processes unless the model has a quadrature. The checks take the
correction from ``model.implied_c`` and their lambda rows from
``LambdaSpace.nodes``.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import closing
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Callable, NamedTuple

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
    _kernel_entry,
    _masked_rows,
    _mc_blocks,
    _mc_means,
    _Moments,
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


def _entry_sums(flat: np.ndarray) -> np.ndarray:
    """Row sums of (n, 4) table entries, bit for bit ``tables.sum(axis=(1, 2))``.

    Both add the four entries left to right; the columns skip the reduction's
    slow small-axis loop.
    """
    return flat[:, 0] + flat[:, 1] + flat[:, 2] + flat[:, 3]


_NO_LABELS = ((None, None),)
_ENTRIES = tuple(itertools.product(OUTCOMES, OUTCOMES))  # (sigma, tau) of a flat table's columns
_SIGMA_SIDES = tuple((s, None) for s in OUTCOMES)
_TAU_SIDES = tuple((None, t) for t in OUTCOMES)


class _Worst:
    """A check's worst value, the witness where it was seen and the rows it scanned.

    ``add`` scans one batch's values, a row per lambda row and a column per
    (sigma, tau) label, by ``rank`` (the values themselves by default): its
    argmin when ``lowest``, else its argmax. A batch replaces the witness
    only when strictly worse, so of two equal values the first wins. A NaN
    is worse than any number: argmin and argmax return the first NaN, and it
    replaces any witness but an earlier NaN, so a NaN on a defined row fails
    the check with a ``null`` value.
    """

    def __init__(self, lowest: bool = False):
        self.lowest = lowest
        self.key = np.inf if lowest else -np.inf
        self.witness: Witness | None = None
        self.used = 0

    @property
    def value(self):
        """The worst witness's stored value; None before the first."""
        return None if self.witness is None else self.witness.value

    def _worse(self, key: float) -> bool:
        return (key < self.key if self.lowest else key > self.key) or (
            math.isnan(key) and not math.isnan(self.key))

    def add(self, values, batch=None, ok=None, a=None, b=None, labels=_NO_LABELS, *,
            rank=None, rows=None) -> None:
        """Scan one batch; ``rows`` lambda rows stand behind it, one per row of values
        by default. The values are ``batch``'s rows where the mask ``ok`` holds."""
        self.used += len(values) if rows is None else rows
        if len(values) == 0:
            return
        rank = values if rank is None else rank
        j = int(rank.argmin() if self.lowest else rank.argmax())
        key = float(rank.flat[j])
        if self._worse(key):
            row, col = divmod(j, len(labels))
            row = row if ok is None else int(np.flatnonzero(ok)[row])
            lam = None if batch is None else batch.point(row)
            self.key, self.witness = key, Witness(float(values.flat[j]), lam, a, b, *labels[col])

    def take(self, scan: "_Worst", key: float) -> None:
        """Fold in a finished ``scan``, ranked by ``key``, a function of its worst value."""
        self.used += scan.used
        if self._worse(key):
            self.key, self.witness = key, scan.witness

    def report(self, constraint_id: str, tol: float, passed: bool, details: dict | None = None,
               extremal: float | None = None) -> ConstraintReport:
        """PASS when ``passed``, else FAIL, at the worst key unless ``extremal`` is given.

        A check that scanned no rows can neither pass nor fail.
        """
        if self.used == 0:
            return ConstraintReport(constraint_id, CheckStatus.INCONCLUSIVE, None, tol, 0,
                                    details={"reason": "no samples"})
        return ConstraintReport(constraint_id, CheckStatus.PASS if passed else CheckStatus.FAIL,
                                self.key if extremal is None else extremal, tol, self.used,
                                self.witness, details or {})


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
    one pass that runs every check.
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
    norm, low, high = _Worst(), _Worst(lowest=True), _Worst()
    for i in range(n_settings):
        a, b = _random_pair(gen, endpoint=(i % 2 == 1))
        batch = model.lambda_space.sample(gen, n_lambda)
        tables, ok = model.tables_masked(batch, a, b)
        (tables,) = _masked_rows(ok, tables)
        flat = tables.reshape(-1, 4)
        norm.add(np.abs(_entry_sums(flat) - 1.0), batch, ok, a, b)
        low.add(flat, batch, ok, a, b, _ENTRIES)
        high.add(flat, batch, ok, a, b, _ENTRIES)
    return (norm.report("normalization", tol, norm.key <= tol),
            low.report("positivity", tol, low.key >= -tol),
            high.report("entry-half-bound", tol, high.key <= 0.5 + tol))


def check_marginal_triviality(model: HiddenVariableModel, n_settings: int, n_lambda: int,
                              source) -> ConstraintReport:
    """Per-lambda one-side marginals must equal 1/2 (setting independence)."""
    gen = as_generator(source)
    tol = 1e-10
    worst = _Worst()
    for _ in range(n_settings):
        a, b = _random_pair(gen, endpoint=False)
        batch = model.lambda_space.sample(gen, n_lambda)
        tables, ok = model.tables_masked(batch, a, b)
        (tables,) = _masked_rows(ok, tables)
        # the two-term sums of tables.sum(axis=2) and tables.sum(axis=1), over the same rows
        worst.add(np.abs(tables[:, :, 0] + tables[:, :, 1] - 0.5), batch, ok, a, b,
                  _SIGMA_SIDES)
        worst.add(np.abs(tables[:, 0] + tables[:, 1] - 0.5), batch, ok, a, b, _TAU_SIDES,
                  rows=0)
    return worst.report("marginal-triviality", tol, worst.key <= tol)


# ---------------------------------------------------------------------------
# Integral constraints


class _Integral(NamedTuple):
    """An integral check: at each settings pair, the lambda-sum S of the model's
    ``evaluator`` over the valid mass W; ``deviation(model, a, b, W, S)`` is its
    distance from the target, one value or the entries of ``labels``.

    Over a quadrature the deviation must stay within ``quad_tol``. By Monte Carlo
    S is a mean (W = 1) and ``stderr(model, s)`` maps its stderr s to the
    deviation's. The MC witness is ranked by z when ``by_z``, which reports
    max z against 5 sigma, else by the deviation, which it reports against 1e-2.
    """

    constraint_id: str
    quad_tol: float
    evaluator: Callable  # model -> its masked evaluator
    deviation: Callable
    stderr: Callable
    labels: tuple
    by_z: bool


_ZERO_AVERAGE = _Integral("zero-average", 1e-10, lambda m: m.implied_c,
                          lambda m, a, b, weight, total: np.abs(total), lambda m, s: s,
                          _NO_LABELS, by_z=False)
# kernel models average k: the mean table is (W -+ kbar)/4, no tables are built
_QM_REPRODUCTION = _Integral(
    "qm-reproduction", 1e-9, lambda m: m._values_masked,
    lambda m, a, b, weight, total: np.abs(
        np.reshape(m._maps.entries(total, weight), (2, 2)) - qm_table(a, b)),
    lambda m, s: np.abs(np.reshape(m._maps.entries(s, 0.0), (2, 2))),  # the linear part
    _ENTRIES, by_z=True)


def _integral_job(check: _Integral, model: HiddenVariableModel, n_settings: int, source):
    """``check``'s MC job (stream, pairs, evaluate, reduce): its settings pairs are drawn
    first from ``source``, MC block i then from ``source.split(i)``."""
    gen = as_generator(source)
    return (source, [_random_pair(gen, endpoint=False) for _ in range(n_settings)],
            check.evaluator(model), _Moments.of)


def _quadrature_check(check: _Integral, model: HiddenVariableModel, job,
                      stats) -> ConstraintReport:
    """``check.deviation`` of each job pair's (W, S) must stay <= its tolerance, and without
    a failure an undefined mass 1 - W above ``_UNDEFINED_TOL`` is inconclusive."""
    _, pairs, *_ = job
    worst, undefined = _Worst(), 0.0
    for (a, b), (rows, weight, total, _, _) in zip(pairs, stats):
        undefined = max(undefined, 1.0 - float(weight))
        worst.add(np.ravel(check.deviation(model, a, b, weight, total)), a=a, b=b,
                  labels=check.labels, rows=rows)
    rep = worst.report(check.constraint_id, check.quad_tol, worst.key <= check.quad_tol)
    rep.details["mode"] = "quadrature"
    if undefined > 0.0:
        rep.details["undefined_mass"] = undefined
    if rep.status is CheckStatus.PASS and undefined > _UNDEFINED_TOL:
        rep.status = CheckStatus.INCONCLUSIVE
    return rep


def _mc_report(check: _Integral, model: HiddenVariableModel, job, stats) -> ConstraintReport:
    """An MC check's report from its job's ``_mc_means`` result.

    z = dev / stderr; zero spread is not evidence, so stderr 0 gives z = 0
    for dev 0 and NaN otherwise. A pair fails above 5 sigma; else a stderr
    above 1e-2 (with ``samples_needed``, from stderr ~ 1/sqrt(n)) or an
    unresolved pair (none at all, fewer than two kept values, undefined above
    ``_UNDEFINED_TOL``, a NaN z) makes the check inconclusive. An unresolved
    entry ranks below every z.
    """
    _, pairs, *_ = job
    worst, spreads = _Worst(), []
    unresolved = not pairs
    max_stderr, worst_z, undefined_rows = 0.0, -np.inf, 0
    for (a, b), (n, weight, mean, stderr, undefined) in zip(pairs, stats):
        undefined_rows += undefined
        unresolved = unresolved or n < 2 or undefined > _UNDEFINED_TOL * (n + undefined)
        if n < 2:
            continue
        dev, stderr = check.deviation(model, a, b, weight, mean), check.stderr(model, stderr)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(stderr > 0, dev / stderr, np.where(dev == 0, 0.0, np.nan))
        unresolved = unresolved or bool(np.isnan(z).any())
        z = np.where(np.isnan(z), -np.inf, z)
        spreads.append((n, float(np.max(stderr))))
        max_stderr, worst_z = max(max_stderr, spreads[-1][1]), max(worst_z, float(np.max(z)))
        worst.add(np.ravel(dev), a=a, b=b, labels=check.labels, rank=z if check.by_z else None)
    status = (CheckStatus.FAIL if worst_z > 5.0 else CheckStatus.INCONCLUSIVE
              if unresolved or max_stderr > _MC_STDERR_TOL else CheckStatus.PASS)
    details = {"mode": "mc", "max_stderr": max_stderr, "max_z": worst_z}
    if undefined_rows:
        details["undefined_rows"] = undefined_rows
    if status is CheckStatus.INCONCLUSIVE and max_stderr > _MC_STDERR_TOL:
        details["samples_needed"] = max(math.ceil(n * (s / _MC_STDERR_TOL) ** 2)
                                        for n, s in spreads)
    extremal = (None if worst.witness is None else worst.key) if check.by_z else worst.value
    return ConstraintReport(check.constraint_id, status, extremal,
                            5.0 if check.by_z else _MC_STDERR_TOL, sum(n for n, *_ in stats),
                            worst.witness, details)


def _node_source(model: HiddenVariableModel, mc_samples: int):
    """(n, report): the node source, quadrature (None) or ``mc_samples`` draws, and its report."""
    if model.lambda_space.quadrature is not None:
        return None, _quadrature_check
    return mc_samples, _mc_report


def _integral_check(check: _Integral, model: HiddenVariableModel, n_settings: int, source,
                    mc_samples: int) -> ConstraintReport:
    """``check`` at ``n_settings`` pairs: over the model's quadrature, else by
    ``mc_samples`` MC draws per pair."""
    job = _integral_job(check, model, n_settings, source)
    n, report = _node_source(model, mc_samples)
    return report(check, model, job, *_mc_means(model, [job], n))


def check_zero_average(model: HiddenVariableModel, n_settings: int, source, *,
                       mc_samples: int = 1_000_000) -> ConstraintReport:
    """The lambda-average of C (or of the implied correction) must vanish."""
    return _integral_check(_ZERO_AVERAGE, model, n_settings, source, mc_samples)


def check_coincident_zero(model: HiddenVariableModel, n_axes: int, n_lambda: int,
                          source) -> ConstraintReport:
    """C(lambda, a, +-a) = 0 per lambda: perfect (anti)correlations survive."""
    gen = as_generator(source)
    tol = 1e-10
    worst = _Worst()
    for _ in range(n_axes):
        a = sample_uniform_sphere(gen)
        nodes, _ = model.lambda_space.nodes(gen, n_lambda)
        for b in (a, -a):
            c, ok = model.implied_c(nodes, a, b)
            (c,) = _masked_rows(ok, c)
            worst.add(np.abs(c), nodes, ok, a, b)
    return worst.report("coincident-zero", tol, worst.key <= tol)


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
                                details={"reason": "no canonical C"})
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
                                details={"reason": "no canonical C"})
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
    worst = _Worst()  # the sides ranked by their margin max |G| - bound
    side_details: dict[str, Any] = {}
    min_fraction = 1.0
    for label, sign, bound in sides:
        scan = _Worst()
        nonzero_weight = 0.0
        for _ in range(n_pairs):
            a = sample_uniform_sphere(gen)
            tangent = sample_uniform_sphere(gen)
            b = with_dot(a, tangent, sign * (1.0 - eps))
            nodes, w = model.lambda_space.nodes(gen, n_lambda)
            g = np.abs(_g_values(model.c_values(nodes, a, b), a, b, sp, sm))
            scan.add(g, nodes, a=a, b=b)
            nonzero_weight = max(nonzero_weight, float(w[g > 1e-9].sum()))
        worst.take(scan, scan.key - bound)
        min_fraction = min(min_fraction, nonzero_weight)
        side_details[label] = {"bound": bound, "max_abs_g": scan.key,
                               "nonzero_fraction": nonzero_weight}
    return worst.report(
        "endpoint-g-bound", tol, worst.key <= tol and min_fraction >= 0.01,
        {"sides": side_details, "min_nonzero_fraction": min_fraction, "s_plus": float(sp),
         "s_minus": float(sm)}, extremal=worst.value)


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
    worst = _Worst()  # ranked by relative deviation / eps, which must stay < 10
    negative = _Worst(lowest=True)  # the lowest entry, up to the first negative one
    per_eps: dict[str, float] = {}
    for eps in eps_list:
        scan = _Worst()
        for _ in range(n_axes):
            a = sample_uniform_sphere(gen)
            tangent = sample_uniform_sphere(gen)
            nodes, _ = model.lambda_space.nodes(gen, n_lambda)
            if len(nodes) == 0:
                continue
            for sign in (+1.0, -1.0):
                x = sign * (1.0 - eps)
                b = with_dot(a, tangent, x)
                # a canonical model's entry (1 -+ k)/4, k = a.b - C, at sigma = +1 and
                # tau = sign. C is evaluated once; the entry, G, the formula and rel take C's
                # buffer and one more, each with its whole-array expression's operations.
                c = model.c_values(nodes, a, b)
                if not c.flags.owndata:  # a view may alias the nodes: never write into it
                    c = c.copy()
                k = np.subtract(setting_dot(a, b), c)
                exact = _kernel_entry(k, sign, out=k)
                g = _g_values(c, a, b, sp, sm, out=c)
                if sign > 0:  # (eps/4) (1 + 2^s+ eps^(s- - 1) G)
                    np.add(1.0, np.multiply(2.0**sp * eps ** (sm - 1.0), g, out=g), out=g)
                else:  # (eps/4) (1 - 2^s- eps^(s+ - 1) G)
                    np.subtract(1.0, np.multiply(2.0**sm * eps ** (sp - 1.0), g, out=g), out=g)
                formula = np.multiply(eps / 4.0, g, out=g)
                if not negative.key < -1e-12:
                    negative.add(exact, nodes, a=a, b=b)
                rel = np.abs(np.subtract(formula, exact, out=formula), out=formula)
                np.divide(rel, np.maximum(exact, eps / 40.0, out=exact), out=rel)
                scan.add(rel, nodes, a=a, b=b)
        worst.take(scan, scan.key / eps)
        per_eps[f"{eps:g}"] = scan.key
    details = {"max_rel_dev_per_eps": per_eps, "s_plus": float(sp), "s_minus": float(sm)}
    if negative.key < -1e-12:
        return ConstraintReport("expansion", CheckStatus.FAIL, negative.key, tol, worst.used,
                                negative.witness, {**details, "reason": "negative entry"})
    return worst.report("expansion", tol, worst.key < tol, details)


# ---------------------------------------------------------------------------
# Statistics reproduction


def check_qm_reproduction(model: HiddenVariableModel, n_settings: int, source, *,
                          mc_samples: int = 1_000_000) -> ConstraintReport:
    """Lambda-averaged tables must equal (1 - sigma*tau*a.b)/4."""
    return _integral_check(_QM_REPRODUCTION, model, n_settings, source, mc_samples)


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

    The exponent fit, which two checks share, runs first. The rest runs as
    one ``_map_ordered`` pass on up to ``config.threads`` worker processes,
    the caller one of them: its tasks are the six per-lambda checks,
    longest first, then the blocks of both integral checks' jobs
    (``models._mc_blocks``), qm-reproduction's first, so the checks overlap
    the blocks. Over a quadrature each job is one block, and the caller runs
    the pass alone, as ``models._mc_means`` does.
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
    n, report = _node_source(model, cfg.mc_samples)
    integrals = (_QM_REPRODUCTION, _ZERO_AVERAGE)
    jobs = [_integral_job(_QM_REPRODUCTION, model, cfg.qm_settings, root.split(9)),
            _integral_job(_ZERO_AVERAGE, model, cfg.n_settings if n is None else cfg.mc_settings,
                          root.split(4))]
    count, block, fold = _mc_blocks(model, jobs, n)

    def task(t: int):
        return checks[t]() if t < len(checks) else block(t - len(checks))

    threads = 1 if n is None else cfg.threads
    with closing(_map_ordered(task, range(len(checks) + count), threads)) as results:
        per_lambda = list(itertools.islice(results, len(checks)))
        integral = [report(check, model, job, stats)
                    for check, job, stats in zip(integrals, jobs, fold(results))]
    scan, *others = per_lambda
    by_id = {r.constraint_id: r for r in [*integral, *scan, *others]}
    reports = [by_id[cid] for cid in CONSTRAINT_ORDER]
    return SuiteResult(model_spec=dict(model.spec), seed=int(seed), reports=reports)
