"""Hidden-variable models for the spin-singlet pair.

A model assigns to each hidden variable lambda and each pair of unit
measurement axes (a, b) a 2x2 probability table over the joint outcomes
(sigma, tau) in {+1, -1}^2, with index 0 <-> +1 and index 1 <-> -1.
Averaging the table over the lambda measure must return the singlet
statistics P(sigma, tau | a, b) = (1 - sigma*tau*a.b)/4.

Three rule styles are supported:

* canonical: P_lambda = (1 - sigma*tau*(a.b - C(lambda, a, b)))/4 for some
  correction function C with zero lambda-average. The lambda-level marginals
  are 1/2 identically, so all the lambda dependence sits in the correlation.
* kernel: P_lambda = (1 - sigma*tau*k(lambda, a, b))/4 for a per-lambda
  kernel k given directly (the sign-based model, k in {-1, +1}), together
  with a validity mask for the measure-zero set where the rule is undefined.
  A canonical model is the kernel k = a.b - C.
* direct: an arbitrary per-lambda table rule with a validity mask, for
  tables whose marginals need not be trivial.

Only ``HiddenVariableModel`` knows a rule style: ``_values_masked`` gives
the rule's per-lambda values (k, or a direct rule's tables) and ``_maps``
takes them, or their lambda-mean, to the entry columns ((W -+ k)/4 for k)
and to the correlator (-k, or the table contraction). ``tables_masked``,
``correlations_masked``, ``implied_c``, the outcome draw, qm-reproduction
and ``scan`` are built on the two, so a kernel model builds no tables.
``LambdaSpace.nodes`` gives the quadrature, or else a 1/n-weighted sample;
``_mc_blocks``, the one lambda-mean engine, takes the quadrature as one block.

The measure over lambda never depends on the settings, and per-lambda
marginals for canonical models never depend on the remote axis; the
violation of outcome independence is the only nonlocal ingredient.
"""

from __future__ import annotations

import itertools
import json
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from .geometry import (
    _SEED_MAX,
    _SPLIT_MAX,
    GeometryError,
    RandomStream,
    _clamp_unit,
    _fill_uniform_sphere,
    _map_ordered,
    as_generator,
    dot,
    require_unit,
    sample_uniform_sphere,
    sphere_quadrature,
)

__all__ = [
    "OUTCOMES",
    "ModelSpecError",
    "MeasureZeroError",
    "NegativeProbabilityError",
    "LambdaPoint",
    "LambdaBatch",
    "LambdaSpace",
    "CFunction",
    "HiddenVariableModel",
    "qm_singlet_prob",
    "qm_table",
    "setting_dot",
    "canonical_prob",
    "canonical_table",
    "family1_c",
    "family2_c",
    "wrongtrial_c",
    "family1_model",
    "family2_model",
    "wrongtrial_model",
    "cerf_model",
    "frobenius_bound",
    "RECIPE_REGISTRY",
    "RecipeFunction",
    "build_recipe_model",
    "model_from_spec",
    "load_model",
    "builtin_model",
    "sample_valid_tables",
]

OUTCOMES = (1, -1)

# sigma*tau for table index (i, j), which turns tables into correlators
_SIGMA_TAU = np.array([[1.0, -1.0], [-1.0, 1.0]])

# Tolerance below which a sign argument in the sign rule counts as zero.
SIGN_EPS = 1e-12

# Redraw rounds before sample_valid_tables gives up on a rule undefined almost everywhere.
_MAX_REDRAW_ROUNDS = 100

# Tables need be defined only for almost every lambda. Above this share of a
# pair's rows undefined (undefined / drawn on MC, 1 - W on a quadrature) no
# integral check passes, and run_experiment's draws raise MeasureZeroError.
# cerf's undefined band (measure ~1e-12) stays below one row at the default
# 1e6 draws, and 1e-6 sits four decades below the 1e-2 stderr tolerance.
_UNDEFINED_TOL = 1e-6

_FAMILIES = ("family1", "family2", "wrongtrial", "cerf", "recipe")
_MEASURES = ("two_point", "uniform")

# Quadrature size caps, checked before anything is built. leggauss(n) (the
# uniform measure's nodes, the sphere's polar rule) solves an n x n
# eigenproblem: 8 MB and 0.2 s at 1024. A validate run holds ~110 B per
# quadrature node at its peak, so ~230 MB at the node cap.
_MAX_GAUSS_NODES = 1024
_MAX_AZIMUTH = 2048
_MAX_QUAD_NODES = 1 << 21


class ModelSpecError(ValueError):
    """Malformed or inconsistent model specification."""


class MeasureZeroError(ValueError):
    """A rule was evaluated on its measure-zero undefined set."""


class NegativeProbabilityError(ValueError):
    """A table entry fell below -1e-12; carries the offending witness."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}


# ---------------------------------------------------------------------------
# Hidden-variable space


@dataclass(frozen=True)
class LambdaPoint:
    """A single hidden-variable value: scalar components plus unit vectors."""

    scalars: tuple[float, ...] = ()
    vectors: tuple[np.ndarray, ...] = ()

    def batch(self) -> "LambdaBatch":
        sc = np.asarray(self.scalars, dtype=float).reshape(1, -1)
        if self.vectors:
            vc = np.stack([np.asarray(v, dtype=float) for v in self.vectors])[None]
        else:
            vc = np.zeros((1, 0, 3))
        return LambdaBatch(sc, vc)

    def to_jsonable(self) -> dict:
        return {
            "scalars": [float(s) for s in self.scalars],
            "vectors": [[float(x) for x in v] for v in self.vectors],
        }


@dataclass
class LambdaBatch:
    """Vectorized hidden variables: scalars (n, ns) and vectors (n, nv, 3)."""

    scalars: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.scalars = np.atleast_2d(np.asarray(self.scalars, dtype=float))
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 3 or self.vectors.shape[-1] != 3:
            raise ValueError(f"vectors must have shape (n, nv, 3), got {self.vectors.shape}")
        if self.scalars.shape[0] != self.vectors.shape[0]:
            raise ValueError("scalar and vector blocks disagree on batch length")

    def __len__(self) -> int:
        return self.scalars.shape[0]

    def point(self, i: int) -> LambdaPoint:
        return LambdaPoint(
            tuple(float(s) for s in self.scalars[i]),
            tuple(self.vectors[i, k].copy() for k in range(self.vectors.shape[1])),
        )

    def take(self, idx) -> "LambdaBatch":
        return LambdaBatch(self.scalars[idx], self.vectors[idx])

    @staticmethod
    def concat(parts: list["LambdaBatch"]) -> "LambdaBatch":
        return LambdaBatch(
            np.concatenate([p.scalars for p in parts], axis=0),
            np.concatenate([p.vectors for p in parts], axis=0),
        )


@dataclass(frozen=True)
class LambdaSpace:
    """A hidden-variable measure: its sampler plus an optional quadrature.

    The sampler signature is (generator, n) -> LambdaBatch and deliberately
    has no access to measurement settings (uncorrelated choice is enforced
    structurally). ``quadrature`` is (nodes_batch, weights) with weights
    summing to 1; None for measures without a practical product rule. The
    space carries nothing else: a builder writes its model's spec from the
    values it resolved.
    """

    sampler: Callable[[np.random.Generator, int], LambdaBatch]
    quadrature: tuple[LambdaBatch, np.ndarray] | None = None

    def sample(self, source, n: int) -> LambdaBatch:
        gen = as_generator(source)
        batch = self.sampler(gen, int(n))
        if len(batch) != int(n):
            raise RuntimeError("sampler returned wrong batch length")
        return batch

    def nodes(self, source, n: int) -> tuple[LambdaBatch, np.ndarray]:
        """Quadrature nodes and weights when present, else n draws weighted 1/n."""
        if self.quadrature is not None:
            return self.quadrature
        batch = self.sample(source, n)
        return batch, np.full(len(batch), 1.0 / max(len(batch), 1))


def _masked_rows(ok: np.ndarray, *arrays) -> tuple:
    """``x[ok]`` for each array, or the arrays themselves when every row is valid.

    The second case copies nothing; its values and their order are those of
    the first, so sums over them keep their bits.
    """
    if ok.all():
        return arrays
    return tuple(x[ok] for x in arrays)


# ---------------------------------------------------------------------------
# Probability rules


def qm_singlet_prob(sigma: int, tau: int, a, b) -> float:
    """Singlet joint probability (1 - sigma*tau*a.b)/4."""
    if sigma not in OUTCOMES or tau not in OUTCOMES:
        raise ValueError(f"outcomes must be +-1, got sigma={sigma}, tau={tau}")
    return (1.0 - sigma * tau * dot(a, b)) / 4.0


def qm_table(a, b) -> np.ndarray:
    """Full 2x2 singlet table at axes (a, b)."""
    x = dot(a, b)
    return (1.0 - _SIGMA_TAU * x) / 4.0


def setting_dot(a, b) -> float:
    """Clamped a.b with an exact snap to +-1 for float-level jitter.

    Self-dots of renormalized unit vectors land within a few ulp of 1;
    envelopes with singular derivatives at the endpoints (the sqrt
    counterexample) would amplify that jitter to ~1e-8, so values within
    1e-14 of an endpoint are treated as the endpoint itself. Every probe
    offset used by the checks is 1e-9 or larger, far outside the snap.
    """
    x = _clamp_unit(float(np.dot(a, b)))
    if abs(x) > 1.0 - 1e-14:
        return 1.0 if x > 0 else -1.0
    return x


def canonical_prob(sigma: int, tau: int, x: float, c: float) -> float:
    """Lambda-conditioned entry (1 - sigma*tau*(x - c))/4 at a.b = x."""
    if sigma not in OUTCOMES or tau not in OUTCOMES:
        raise ValueError(f"outcomes must be +-1, got sigma={sigma}, tau={tau}")
    return (1.0 - sigma * tau * (x - c)) / 4.0


def _kernel_entry(k, sigma_tau: float, weight=1.0, out=None):
    """The entry (W - sigma*tau*k)/4 of the tables (1 - sigma*tau*k)/4, for a
    lambda-mean of k over valid mass W; ``out`` (which may be k) takes the result."""
    return np.divide((np.subtract if sigma_tau > 0 else np.add)(weight, k, out=out), 4.0,
                     out=out)


def _kernel_entries(k, weight=1.0) -> tuple:
    """Entry columns (p00, p01, p10, p11) of the tables (1 - sigma*tau*k)/4. At W = 0
    their absolute values are the entries' stderr given k's."""
    diag, off = _kernel_entry(k, 1.0, weight), _kernel_entry(k, -1.0, weight)
    return diag, off, off, diag


def _tables_from_kernel(k: np.ndarray) -> np.ndarray:
    """Tables (1 - sigma*tau*k)/4 for a batch of kernels k (n,)."""
    k = np.asarray(k, dtype=float)
    return np.stack(_kernel_entries(k), axis=-1).reshape(k.shape + (2, 2))


class _RuleMaps(NamedTuple):
    """Pure maps of a rule style's per-lambda values v (``_values_masked``)."""

    entries: Callable  # (v or its lambda-mean, valid mass W) -> columns (p00, p01, p10, p11)
    correlator: Callable  # v -> per-row sum_{sigma,tau} sigma*tau*P


_KERNEL_MAPS = _RuleMaps(_kernel_entries, np.negative)
_TABLE_MAPS = _RuleMaps(lambda t, weight=1.0: t.reshape(-1, 4).T,  # a mean table holds its W
                        lambda t: np.einsum("nij,ij->n", t, _SIGMA_TAU))


def canonical_table(x: float, c) -> np.ndarray:
    """Canonical table(s) at a.b = x for correction value(s) c."""
    return _tables_from_kernel(np.asarray(x, dtype=float) - np.asarray(c, dtype=float))


@dataclass(frozen=True)
class CFunction:
    """Correction function C(lambda, a, b) with declared endpoint exponents.

    ``fn`` maps (LambdaBatch, a, b) to an array of per-lambda values.
    ``s_plus``/``s_minus`` are the declared orders of the zeros at
    a.b = -1 and a.b = +1 (None when not known in closed form).
    """

    fn: Callable[[LambdaBatch, np.ndarray, np.ndarray], np.ndarray]
    s_plus: float | None = None
    s_minus: float | None = None

    def __call__(self, batch: LambdaBatch, a, b) -> np.ndarray:
        return np.asarray(self.fn(batch, np.asarray(a, float), np.asarray(b, float)), dtype=float)


@dataclass
class HiddenVariableModel:
    """A named hidden-variable model: lambda measure plus conditional rule.

    Exactly one of ``c_function`` (canonical form), ``kernel_rule``
    (kernel form) or ``table_rule`` (direct form) is set. ``kernel_rule``
    maps (batch, a, b) to (k (n,), ok (n,) bool) and ``table_rule`` to
    (tables (n,2,2), ok (n,) bool); rows with ok False hit the rule's
    measure-zero undefined set.
    """

    name: str
    lambda_space: LambdaSpace
    c_function: CFunction | None = None
    table_rule: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None
    spec: dict = field(default_factory=dict)
    kernel_rule: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self) -> None:
        rules = (self.c_function, self.kernel_rule, self.table_rule)
        if sum(r is not None for r in rules) != 1:
            raise ValueError("exactly one of c_function, kernel_rule or table_rule is required")

    @property
    def is_canonical(self) -> bool:
        return self.c_function is not None

    @property
    def has_kernel(self) -> bool:
        """True when tables are (1 - sigma*tau*k)/4 for a per-lambda kernel k."""
        return self.table_rule is None

    @property
    def declared_exponents(self) -> tuple[float | None, float | None]:
        if self.c_function is None:
            return (None, None)
        return (self.c_function.s_plus, self.c_function.s_minus)

    def _as_batch(self, lam) -> tuple[LambdaBatch, bool]:
        if isinstance(lam, LambdaPoint):
            return lam.batch(), True
        return lam, False

    def c_values(self, lam, a, b) -> np.ndarray | float:
        """Per-lambda correction C(lambda, a, b); canonical models only."""
        if self.c_function is None:
            raise ValueError(f"model '{self.name}' has no canonical C function")
        batch, single = self._as_batch(lam)
        vals = self.c_function(batch, a, b)
        return float(vals[0]) if single else vals

    def kernel_masked(self, lam, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Per-lambda kernel k, tables (1 - sigma*tau*k)/4, plus validity mask."""
        batch, _ = self._as_batch(lam)
        a = require_unit(a, name="a")
        b = require_unit(b, name="b")
        if self.kernel_rule is not None:
            return self.kernel_rule(batch, a, b)
        if self.c_function is None:
            raise ValueError(f"model '{self.name}' has a table rule, not a kernel")
        x = setting_dot(a, b)
        return x - self.c_function(batch, a, b), np.ones(len(batch), dtype=bool)

    def _values_masked(self, lam, a, b) -> tuple[np.ndarray, np.ndarray]:
        """The rule's per-lambda values with mask: k (n,), or a direct rule's tables."""
        if self.has_kernel:
            return self.kernel_masked(lam, a, b)
        batch, _ = self._as_batch(lam)
        return self.table_rule(batch, require_unit(a, name="a"), require_unit(b, name="b"))

    @property
    def _maps(self) -> _RuleMaps:
        return _KERNEL_MAPS if self.has_kernel else _TABLE_MAPS

    def tables_masked(self, lam, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Per-lambda tables plus validity mask (no admissibility checks)."""
        v, ok = self._values_masked(lam, a, b)
        return (_tables_from_kernel(v) if self.has_kernel else v), ok

    def tables(self, lam, a, b, *, check: bool = False) -> np.ndarray:
        """Per-lambda tables; raises on undefined rows.

        With ``check=True`` also raises NegativeProbabilityError when an
        entry is below -1e-12, carrying the offending (lambda, a, b,
        sigma, tau) witness. This is the detection path for inadmissible
        constructions such as the sqrt-envelope counterexample.
        """
        batch, single = self._as_batch(lam)
        tables, ok = self.tables_masked(batch, a, b)
        if not np.all(ok):
            bad = int(np.count_nonzero(~ok))
            raise MeasureZeroError(
                f"model '{self.name}': rule undefined on {bad} of {len(batch)} lambda rows"
            )
        if check:
            flat = tables.reshape(len(batch), 4)
            worst = int(np.argmin(flat))
            if flat.flat[worst] < -1e-12:
                i, entry = divmod(worst, 4)
                witness = {
                    "lambda": batch.point(i).to_jsonable(),
                    "a": [float(v) for v in a],
                    "b": [float(v) for v in b],
                    "sigma": OUTCOMES[entry // 2],
                    "tau": OUTCOMES[entry % 2],
                    "value": float(flat.flat[worst]),
                }
                raise NegativeProbabilityError(
                    f"model '{self.name}': table entry {flat.flat[worst]:.3e} < -1e-12 "
                    f"at sigma={witness['sigma']}, tau={witness['tau']}",
                    witness,
                )
        return tables[0] if single else tables

    def correlations_masked(self, lam, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Per-lambda correlator sum_{sigma,tau} sigma*tau*P, with mask."""
        v, ok = self._values_masked(lam, a, b)
        return self._maps.correlator(v), ok

    def implied_c(self, lam, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Correction C with mask: C itself for canonical models, else correlator + a.b.

        For a kernel model that is a.b - k; for a direct rule with trivial
        per-lambda marginals it is the correction in the table decomposition.
        """
        batch, _ = self._as_batch(lam)
        if self.c_function is not None:
            return self.c_function(batch, a, b), np.ones(len(batch), dtype=bool)
        corr, ok = self.correlations_masked(batch, a, b)
        corr += dot(a, b)  # a fresh array: -k or the table contraction
        return corr, ok


# ---------------------------------------------------------------------------
# Model families


def family1_c(g, x):
    """C = (1 - (a.b)^2) * g(lambda); exponents s+ = s- = 1, G = g."""
    g = np.asarray(g, dtype=float)
    return (1.0 - x * x) * g


def family2_c(g, u, a, b):
    """C = -(a.b) * ((a.u)^2 - (b.u)^2)^2 * g(lambda) with unit vector u.

    The squared bracket vanishes linearly in (1 -+ a.b) as b approaches
    +-a, so s+ = s- = 1 here as well; |G| <= |a.b|/2 <= 1/2 when
    |g| <= 1/2 since max_u ((a.u)^2 - (b.u)^2)^2 = 1 - (a.b)^2.
    """
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    x = setting_dot(a, b)
    au = u @ a
    bu = u @ b
    q = au * au - bu * bu
    return -x * q * q * g


def wrongtrial_c(g, x):
    """Counterexample envelope C = sqrt(1 - (a.b)^2) * g(lambda).

    The square-root zero (order 1/2 at both endpoints) is too weak: near
    |a.b| = 1 the correction overwhelms 1 - |a.b| and drives table entries
    negative, which is exactly what the positivity scan must detect.
    """
    g = np.asarray(g, dtype=float)
    return np.sqrt(np.maximum(0.0, 1.0 - x * x)) * g


def _cerf_kernel(U: np.ndarray, V: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Sign-model correlator kernel K(u, v, a, b) in {-1, +1}, with mask.

    On every valid row K = sgn(w.a) sgn(w.b), where w is whichever of u and
    v has the larger |.b|: the selection rule of Cerf, Gisin, Massar and
    Popescu, PRL 94, 220403 (2005). A tie |u.b| = |v.b| puts (u -+ v).b at
    0, inside the masked band, so it never reaches a valid row.

    The rule reads only signs, so (u +- v).b needs no normalization: for
    unit u, v we have |u +- v| <= 2, hence |(u +- v).b| > 2.5*SIGN_EPS
    already implies both |u +- v| > SIGN_EPS and a normalized argument
    above SIGN_EPS. Only rows inside that band rerun the normalized test,
    so k and ok match the normalized rule on every row.
    """
    ua = U @ a
    va = V @ a
    ub = U @ b
    vb = V @ b
    pb = ub + vb
    mb = ub - vb
    ok = (np.abs(ua) > SIGN_EPS) & (np.abs(va) > SIGN_EPS)
    band = (np.abs(pb) <= 2.5 * SIGN_EPS) | (np.abs(mb) <= 2.5 * SIGN_EPS)
    if band.any():
        rows = np.flatnonzero(band)
        pb[rows], mb[rows], ok_band = _normalized_sign_args(U[rows], V[rows], b)
        ok[rows] &= ok_band
    # K = sgn(u.a) sgn((u+v).b) h with h = -1 exactly when sgn(u.a) != sgn(v.a)
    # and sgn((u+v).b) != sgn((u-v).b), else h = +1
    ua_pos = ua > 0.0
    pb_pos = pb > 0.0
    flip = (ua_pos != pb_pos) ^ ((ua_pos != (va > 0.0)) & (pb_pos != (mb > 0.0)))
    return _signs(flip), ok


def _signs(negative: np.ndarray) -> np.ndarray:
    """-1.0 where ``negative`` holds, else +1.0.

    ``np.where(negative, -1.0, 1.0)`` bit for bit, as the arithmetic
    1 - 2*negative in one buffer: a branch per row on an unpredictable mask
    costs about four times as much.
    """
    out = negative.astype(float)
    out *= -2.0
    out += 1.0
    return out


def _normalized_sign_args(U: np.ndarray, V: np.ndarray, b: np.ndarray):
    """(u+v).b/|u+v| and (u-v).b/|u-v| with the mask of the normalized rule."""
    nplus = U + V
    nminus = U - V
    nplus_norm = np.linalg.norm(nplus, axis=-1)
    nminus_norm = np.linalg.norm(nminus, axis=-1)
    ok = (nplus_norm > SIGN_EPS) & (nminus_norm > SIGN_EPS)
    # normalize defensively; rows failing ok are masked anyway
    np_b = np.where(ok, (nplus @ b) / np.where(ok, nplus_norm, 1.0), 0.0)
    nm_b = np.where(ok, (nminus @ b) / np.where(ok, nminus_norm, 1.0), 0.0)
    ok &= (np.abs(np_b) > SIGN_EPS) & (np.abs(nm_b) > SIGN_EPS)
    return np_b, nm_b, ok


def _cerf_kernel_rule(batch: LambdaBatch, a: np.ndarray, b: np.ndarray):
    return _cerf_kernel(batch.vectors[:, 0, :], batch.vectors[:, 1, :], a, b)


# ---------------------------------------------------------------------------
# Lambda measures


def _scalar_two_point_space(gamma: float, weights=(0.5, 0.5)) -> LambdaSpace:
    w = np.asarray(weights, dtype=float)
    if w.shape != (2,) or not np.all(w > 0.0) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise ModelSpecError("two_point weights must be two positive numbers summing to 1")
    gamma = float(gamma)

    def sampler(gen: np.random.Generator, n: int) -> LambdaBatch:
        g = _signs(gen.random(n) >= w[0])  # +1 with probability w[0]
        g *= gamma
        return LambdaBatch(g[:, None], np.zeros((n, 0, 3)))

    nodes = LambdaBatch(np.array([[gamma], [-gamma]]), np.zeros((2, 0, 3)))
    return LambdaSpace(sampler, (nodes, w.copy()))


def _scalar_uniform_space(gamma: float, n_nodes: int = 16) -> LambdaSpace:
    gamma = float(gamma)
    if n_nodes < 2:
        raise ModelSpecError("uniform measure needs at least 2 quadrature nodes")
    if n_nodes > _MAX_GAUSS_NODES:
        raise ModelSpecError(f"n_nodes must be <= {_MAX_GAUSS_NODES}, got {n_nodes}")

    def sampler(gen: np.random.Generator, n: int) -> LambdaBatch:
        return LambdaBatch(gen.uniform(-gamma, gamma, size=n)[:, None], np.zeros((n, 0, 3)))

    x, w = np.polynomial.legendre.leggauss(int(n_nodes))
    nodes = LambdaBatch((gamma * x)[:, None], np.zeros((len(x), 0, 3)))
    return LambdaSpace(sampler, (nodes, w / 2.0))


def _unread(family: str, measure: str | None, keys) -> ModelSpecError:
    """The error for spec keys (builder keywords) that a model never reads."""
    on = f" on the {measure} measure" if measure else ""
    return ModelSpecError(f"a {family} model{on} does not read spec keys {sorted(keys)}")


def _scalar_space(family: str, measure: str, gamma: float, *, weights=None, n_nodes=None,
                  default_nodes: int = 16) -> tuple[LambdaSpace, dict]:
    """The scalar measure and its spec parameters, ``{"weights": [w+, w-]}`` or
    ``{"n_nodes": n}``; a keyword it does not read (``n_nodes`` on two points,
    ``weights`` on the uniform measure) is an error naming ``family``."""
    if measure == "two_point":
        if n_nodes is not None:
            raise _unread(family, measure, ["n_nodes"])
        space = _scalar_two_point_space(gamma, weights if weights is not None else (0.5, 0.5))
        return space, {"weights": [float(w) for w in space.quadrature[1]]}
    if measure == "uniform":
        if weights is not None:
            raise _unread(family, measure, ["weights"])
        n_nodes = default_nodes if n_nodes is None else n_nodes
        return _scalar_uniform_space(gamma, n_nodes), {"n_nodes": int(n_nodes)}
    raise ModelSpecError(f"unknown scalar_measure '{measure}' (known: {', '.join(_MEASURES)})")


def _with_unit_vector(base: LambdaSpace, params: dict, n_polar: int,
                      n_azimuth: int) -> tuple[LambdaSpace, dict]:
    """Product measure: base scalars times one uniform unit vector, and the base's
    spec ``params`` with ``n_polar`` and ``n_azimuth`` added.

    The vector's quadrature is ``sphere_quadrature(n_polar, n_azimuth)``,
    built only once the sizes are within their caps.
    """
    for key, value, cap in (("n_polar", n_polar, _MAX_GAUSS_NODES),
                            ("n_azimuth", n_azimuth, _MAX_AZIMUTH)):
        if value > cap:
            raise ModelSpecError(f"{key} must be <= {cap}, got {value}")
    if base.quadrature is not None:
        n = len(base.quadrature[0]) * n_polar * n_azimuth
        if n > _MAX_QUAD_NODES:
            raise ModelSpecError(f"the quadrature would have {n} nodes (scalar nodes x n_polar "
                                 f"x n_azimuth); it must have <= {_MAX_QUAD_NODES}")
    grid = sphere_quadrature(n_polar, n_azimuth)

    def sampler(gen: np.random.Generator, n: int) -> LambdaBatch:
        b = base.sampler(gen, n)
        nv = b.vectors.shape[1]
        vectors = np.empty((n, nv + 1, 3))
        vectors[:, :nv] = b.vectors
        _fill_uniform_sphere(gen, vectors[:, nv])
        return LambdaBatch(b.scalars, vectors)

    quad = None
    if base.quadrature is not None:
        bnodes, bw = base.quadrature
        nb, ng = len(bnodes), len(grid)
        scalars = np.repeat(bnodes.scalars, ng, axis=0)
        vectors = np.concatenate(
            [
                np.repeat(bnodes.vectors, ng, axis=0),
                np.tile(grid.nodes, (nb, 1))[:, None, :],
            ],
            axis=1,
        )
        weights = np.outer(bw, grid.weights).ravel()
        quad = (LambdaBatch(scalars, vectors), weights)

    return LambdaSpace(sampler, quad), {**params, "n_polar": grid.n_polar,
                                         "n_azimuth": grid.n_azimuth}


def _cerf_space() -> LambdaSpace:
    def sampler(gen: np.random.Generator, n: int) -> LambdaBatch:
        vectors = np.empty((n, 2, 3))
        _fill_uniform_sphere(gen, vectors[:, 0])  # u, then v: the draw order
        _fill_uniform_sphere(gen, vectors[:, 1])
        return LambdaBatch(np.zeros((n, 0)), vectors)

    return LambdaSpace(sampler)


# ---------------------------------------------------------------------------
# Builders


def _canonical_model(family: str, c, s: float, gamma_max: float, gamma, measure, weights,
                     n_nodes, seed, sphere=None, default_nodes: int = 16) -> HiddenVariableModel:
    """The canonical model C = c(batch, a, b) with exponents s+ = s- = ``s`` on a scalar
    measure on [-gamma, gamma], times a unit vector of ``sphere`` = (n_polar, n_azimuth)."""
    gamma = float(gamma)
    if not 0.0 < gamma <= gamma_max:
        raise ModelSpecError(f"{family} needs 0 < gamma <= {gamma_max:g}, got {gamma}")
    space, params = _scalar_space(family, measure, gamma, weights=weights, n_nodes=n_nodes,
                                  default_nodes=default_nodes)
    if sphere is not None:
        space, params = _with_unit_vector(space, params, *sphere)
    spec = {"family": family, "scalar_measure": measure, "gamma": gamma, "seed": int(seed),
            "parameters": params}
    return HiddenVariableModel(family, space, c_function=CFunction(c, s, s), spec=spec)


def family1_model(gamma: float = 0.4, measure: str = "two_point", *, weights=None,
                  n_nodes: int | None = None, seed: int = 0) -> HiddenVariableModel:
    """Polynomial-envelope model, C = (1 - (a.b)^2) * lambda, lambda in [-gamma, gamma].

    ``weights`` sizes the two-point measure and ``n_nodes`` (default 16) the
    uniform one's quadrature; either under the other measure is an error.
    """
    return _canonical_model(
        "family1", lambda batch, a, b: family1_c(batch.scalars[:, 0], setting_dot(a, b)),
        1.0, 0.5, gamma, measure, weights, n_nodes, seed)


def family2_model(gamma: float = 0.5, measure: str = "two_point", *, weights=None,
                  n_nodes: int | None = None, n_polar: int | None = None,
                  n_azimuth: int | None = None, seed: int = 0) -> HiddenVariableModel:
    """Quartic-bracket model with a unit-vector hidden variable, |g| <= 1/2.

    The scalar keywords are family1's (``n_nodes`` default 8); the vector's
    quadrature is ``n_polar`` x ``n_azimuth`` (default 64 x 128).
    """
    return _canonical_model(
        "family2", lambda batch, a, b: family2_c(batch.scalars[:, 0], batch.vectors[:, 0, :], a, b),
        1.0, 0.5, gamma, measure, weights, n_nodes, seed, default_nodes=8,
        sphere=(64 if n_polar is None else n_polar, 128 if n_azimuth is None else n_azimuth))


def wrongtrial_model(gamma: float = 0.4, measure: str = "two_point", *, weights=None,
                     n_nodes: int | None = None, seed: int = 0) -> HiddenVariableModel:
    """Inadmissible sqrt-envelope construction, kept as a detection target.

    The scalar keywords are family1's.
    """
    return _canonical_model(
        "wrongtrial", lambda batch, a, b: wrongtrial_c(batch.scalars[:, 0], setting_dot(a, b)),
        0.5, 1.0, gamma, measure, weights, n_nodes, seed)


def cerf_model(seed: int = 0) -> HiddenVariableModel:
    """Sign-kernel model on two independent uniform unit vectors (u, v)."""
    space = _cerf_space()
    spec = {"family": "cerf", "seed": int(seed), "parameters": {}}
    return HiddenVariableModel("cerf", space, kernel_rule=_cerf_kernel_rule, spec=spec)


# ---------------------------------------------------------------------------
# Constructive recipe


def frobenius_bound(s: float) -> float:
    """Positivity budget for C = (1 - (a.b)^2)^s * g: sup admissible |g|.

    Minimizes (1 - t)^(1-s) (1 + t)^(-s) over t = |a.b|; the minimizer is
    t* = 1/(2s - 1). At s = 1 the infimum 1/2 sits at t -> 1; for s = 2
    the value is 27/32.
    """
    s = float(s)
    if s < 1.0:
        raise ValueError(f"envelope exponent must be >= 1, got {s}")
    if s == 1.0:
        return 0.5
    t = 1.0 / (2.0 * s - 1.0)
    return (1.0 - t) ** (1.0 - s) * (1.0 + t) ** (-s)


# sup|g| probe of the recipe builder: random setting pairs (setting-dependent
# base functions only) and fresh lambda draws, and the fraction of the
# positivity budget a rescaled g may use.
_PROBE_SETTINGS = 64
_PROBE_LAMBDA = 4096
_RECIPE_SAFETY = 0.99


@dataclass(frozen=True)
class RecipeFunction:
    """A bounded base function f(lambda, a, b) for the constructive recipe.

    A setting-dependent f is bilinear in the settings, f = a^T F(lambda) b,
    and ``mean_matrix(nodes, weights)`` gives M = sum w F, so the
    lambda-mean of f at any pair is a^T M b. Without ``mean_matrix``, f
    ignores (a, b).
    """

    name: str
    fn: Callable[[LambdaBatch, np.ndarray, np.ndarray], np.ndarray]
    needs_vector: bool = False
    mean_matrix: Callable[[LambdaBatch, np.ndarray], np.ndarray] | None = None

    @property
    def setting_dependent(self) -> bool:
        return self.mean_matrix is not None


def _cross_uab_mean_matrix(lam: LambdaBatch, weights: np.ndarray) -> np.ndarray:
    """sum w s u u^T for f = s (u.a)(u.b), entry by entry with np.sum (no BLAS)."""
    ws = weights * lam.scalars[:, 0]
    u = lam.vectors[:, 0, :].T
    return np.array([[np.sum(ws * ui * uj) for uj in u] for ui in u])


RECIPE_REGISTRY: dict[str, RecipeFunction] = {
    "poly1": RecipeFunction("poly1", lambda lam, a, b: lam.scalars[:, 0].copy()),
    "poly3": RecipeFunction("poly3", lambda lam, a, b: lam.scalars[:, 0] ** 3),
    "square": RecipeFunction("square", lambda lam, a, b: lam.scalars[:, 0] ** 2),
    "cross_uab": RecipeFunction(
        "cross_uab",
        lambda lam, a, b: lam.scalars[:, 0] * (lam.vectors[:, 0, :] @ a) * (lam.vectors[:, 0, :] @ b),
        needs_vector=True,
        mean_matrix=_cross_uab_mean_matrix,
    ),
}

# the settings pair at which a setting-independent f is evaluated
_PROBE_PAIR = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))


def _recipe_mean(f: RecipeFunction, nodes: LambdaBatch,
                 weights: np.ndarray) -> Callable[[np.ndarray, np.ndarray], float]:
    """The lambda-mean of f as a function of the settings, computed once.

    A setting-independent f has one mean, the quadrature sum at any pair; a
    bilinear f = a^T F b has the mean a^T M b with M = sum w F, which differs
    from the per-pair sum by rounding only.
    """
    if f.mean_matrix is None:
        mean = float(np.sum(weights * f.fn(nodes, *_PROBE_PAIR)))
        return lambda a, b: mean
    m = f.mean_matrix(nodes, weights)
    return lambda a, b: float(a @ m @ b)


def _recipe_c_function(space: LambdaSpace, f: RecipeFunction, s: float, scale: float) -> CFunction:
    """C = (1 - (a.b)^2)^s * scale * (f - <f>), with <f> fixed when the model is built."""
    if space.quadrature is None:
        raise ModelSpecError("recipe models need a quadrature-backed lambda measure")
    mean_f = _recipe_mean(f, *space.quadrature)

    def fn(batch: LambdaBatch, a, b):
        x = setting_dot(a, b)
        g = scale * (f.fn(batch, a, b) - mean_f(a, b))
        return (1.0 - x * x) ** s * g

    return CFunction(fn, s_plus=s, s_minus=s)


def build_recipe_model(f_name: str, s: float, *, gamma: float = 1.0,
                       measure: str = "uniform", weights=None, n_nodes: int | None = None,
                       n_polar: int | None = None, n_azimuth: int | None = None,
                       seed: int = 0, scale: float | None = None) -> HiddenVariableModel:
    """Turn a bounded base function into an admissible canonical model.

    Recipe: center f per setting, g = f - mean_lambda f, then attach the
    envelope (1 - (a.b)^2)^s. The lambda-mean is taken from the quadrature
    once per model, when it is built or loaded (``_recipe_mean``), not per
    settings pair. If sup|g| exceeds the positivity budget
    frobenius_bound(s), rescale g by 0.99 * bound / sup. The final
    multiplier is recorded in the model spec so reloading is deterministic:
    a given ``scale`` (a spec's stored multiplier) is used as it is.

    The scalar keywords are family1's (``n_nodes`` default 16); ``n_polar`` x
    ``n_azimuth`` (default 32 x 64) size the unit vector of a base function
    that reads one, and are an error for one that does not.
    """
    if not isinstance(f_name, str) or f_name not in RECIPE_REGISTRY:
        known = ", ".join(sorted(RECIPE_REGISTRY))
        raise ModelSpecError(f"unknown recipe function {f_name!r} (known: {known})")
    s = _spec_number(s, "s", float)
    if s < 1.0:
        raise ModelSpecError(f"recipe exponent s must be >= 1 (endpoint zeros), got {s}")
    gamma = _spec_number(gamma, "gamma", float)
    if not 0.0 < gamma <= 1.0:
        raise ModelSpecError(f"recipe needs 0 < gamma <= 1 so |f| <= 1, got {gamma}")
    f = RECIPE_REGISTRY[f_name]
    space, params = _scalar_space("recipe", measure, gamma, weights=weights, n_nodes=n_nodes)
    if f.needs_vector:
        space, params = _with_unit_vector(space, params, 32 if n_polar is None else n_polar,
                                          64 if n_azimuth is None else n_azimuth)
    elif n_polar is not None or n_azimuth is not None:  # no hidden vector to size
        sphere = {"n_polar": n_polar, "n_azimuth": n_azimuth}
        raise _unread(f"{f_name} recipe", None, [k for k, v in sphere.items() if v is not None])
    if scale is None:
        scale = _probe_scale(f, s, gamma, space, seed)
    else:
        scale = _spec_number(scale, "scale", float)
        if scale <= 0.0:
            raise ModelSpecError(f"recipe scale must be positive, got {scale}")
    cfun = _recipe_c_function(space, f, s, scale)
    spec = {"family": "recipe", "scalar_measure": measure, "gamma": gamma, "seed": int(seed),
            "parameters": {**params, "f": f_name, "scale": scale}, "s": s}
    return HiddenVariableModel("recipe", space, c_function=cfun, spec=spec)


def _probe_scale(f: RecipeFunction, s: float, gamma: float, space: LambdaSpace,
                 seed: int) -> float:
    """The recipe's multiplier of g: 1, or 0.99 * frobenius_bound(s) / sup|g|."""
    # sup|g| probe: quadrature nodes, fresh samples, and corner rows where
    # the scalar sits at an endpoint while the hidden vector (if any) is
    # aligned with a probed setting axis. Quadrature nodes alone miss both
    # extremes: Gauss-Legendre nodes stop short of +-gamma and no node need
    # line up with a setting, which underestimates sup for products like
    # (u.a)(u.b) and would let the rescaled g leak past the bound.
    stream = RandomStream(seed).split(17)
    gen = stream.generator()
    qnodes, qweights = space.quadrature
    corner_dirs = sample_uniform_sphere(gen, 8)
    probe_parts = [qnodes, space.sample(gen, _PROBE_LAMBDA)]
    corner_scalars = np.array([float(gamma), -float(gamma), 0.0])
    if f.needs_vector:
        corner_vecs = np.concatenate([sample_uniform_sphere(gen, 3), corner_dirs])
        scal, vec = [np.repeat(corner_scalars, len(corner_vecs)),
                     np.tile(corner_vecs, (3, 1))]
        probe_parts.append(LambdaBatch(scal[:, None], vec[:, None, :]))
    else:
        probe_parts.append(LambdaBatch(corner_scalars[:, None], np.zeros((3, 0, 3))))
    probe = LambdaBatch.concat(probe_parts)

    if f.setting_dependent:
        axes = sample_uniform_sphere(gen, _PROBE_SETTINGS)
        axes_b = sample_uniform_sphere(gen, _PROBE_SETTINGS)
        setting_pairs = list(zip(axes, axes_b))
        for d in corner_dirs:
            setting_pairs.append((d, d))
            setting_pairs.append((d, -d))
    else:
        setting_pairs = [_PROBE_PAIR]

    # the per-pair quadrature sum, not _recipe_mean, so the stored scale keeps
    # its bits; the probe's first rows are the quadrature nodes
    sup = 0.0
    for a, b in setting_pairs:
        v = f.fn(probe, a, b)
        g = v - float(np.sum(qweights * v[:len(qnodes)]))
        sup = max(sup, float(np.max(np.abs(g))))

    bound = frobenius_bound(s)
    return 1.0 if sup <= bound else _RECIPE_SAFETY * bound / sup


# ---------------------------------------------------------------------------
# Spec I/O


_TOP_KEYS = {"family", "parameters", "scalar_measure", "gamma", "s", "seed"}
_PARAM_KEYS = {"weights", "n_nodes", "n_polar", "n_azimuth", "f", "scale"}


def _spec_number(value, key: str, kind):
    """``kind(value)`` for a spec entry; ModelSpecError naming ``key`` if malformed."""
    try:
        if isinstance(value, bool):  # JSON true is not the number 1
            raise TypeError(key)
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelSpecError(f"{key} must be a number, got {value!r}") from None
    if not np.isfinite(number):
        raise ModelSpecError(f"{key} must be finite, got {value!r}")
    if kind is int and number != value:  # 2.7 or "3" would be read as another count
        raise ModelSpecError(f"{key} must be an integer, got {value!r}")
    return number


def model_from_spec(spec: dict, *, grid_n: int | None = None) -> HiddenVariableModel:
    """Build a model from a JSON-style spec dict; raises ModelSpecError.

    Keys: family (required), scalar_measure, gamma, s (recipe only), seed,
    parameters {weights, n_nodes, n_polar, n_azimuth, f, scale}. Only the keys
    the spec holds reach the family's builder, so a missing one takes the
    builder's default, and a key the model does not read (``weights`` under
    the uniform measure, any key of cerf's but the seed) is an error.
    ``grid_n`` overrides the sphere quadrature as (n_polar, n_azimuth) =
    (N, 2N).
    """
    if not isinstance(spec, dict):
        raise ModelSpecError(f"model spec must be an object, got {type(spec).__name__}")
    unknown = set(spec) - _TOP_KEYS
    if unknown:
        raise ModelSpecError(f"unknown model spec keys: {sorted(unknown)}")
    family = spec.get("family")
    if family not in _FAMILIES:
        raise ModelSpecError(f"unknown family {family!r} (known: {', '.join(_FAMILIES)})")
    params = spec.get("parameters", {})
    if not isinstance(params, dict):
        raise ModelSpecError("parameters must be an object")
    unknown = set(params) - _PARAM_KEYS
    if unknown:
        raise ModelSpecError(f"unknown parameter keys: {sorted(unknown)}")
    seed = spec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= _SEED_MAX:
        raise ModelSpecError(f"seed must be an integer in [0, {_SEED_MAX}], got {seed!r}")

    kw: dict[str, Any] = {"seed": seed}
    if "scalar_measure" in spec:
        kw["measure"] = spec["scalar_measure"]
    if "gamma" in spec:
        kw["gamma"] = _spec_number(spec["gamma"], "gamma", float)
    weights = params.get("weights")
    if "weights" in params:
        try:
            kw["weights"] = np.asarray(weights, dtype=float)
        except (TypeError, ValueError):
            raise ModelSpecError(f"weights must be two numbers, got {weights!r}") from None
    for key in ("n_nodes", "n_polar", "n_azimuth"):
        if key in params:
            kw[key] = _spec_number(params[key], key, int)
    f = params.get("f")
    sphere = family == "family2" or (family == "recipe" and isinstance(f, str)
                                     and f in RECIPE_REGISTRY and RECIPE_REGISTRY[f].needs_vector)
    if grid_n is not None and sphere:  # the override sizes a sphere where there is one
        kw.update(n_polar=int(grid_n), n_azimuth=2 * int(grid_n))

    if family == "cerf":
        model = cerf_model(seed=seed)
    elif family == "recipe":  # a stored scale is reused, not probed again
        model = build_recipe_model(f, spec.get("s"), scale=params.get("scale"), **kw)
    else:
        if family != "family2":  # no hidden vector, so no sphere to size
            kw = {k: v for k, v in kw.items() if k not in ("n_polar", "n_azimuth")}
        model = {"family1": family1_model, "family2": family2_model,
                 "wrongtrial": wrongtrial_model}[family](**kw)
    unread = (set(spec) - set(model.spec)) | (set(params) - set(model.spec["parameters"]))
    if unread:
        raise _unread(family, model.spec.get("scalar_measure"), unread)
    return model


def load_model(path, *, grid_n: int | None = None) -> HiddenVariableModel:
    """Read a JSON model spec from disk and build the model."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ModelSpecError(f"{path}: not valid JSON ({exc})") from exc
    return model_from_spec(spec, grid_n=grid_n)


def builtin_model(name: str, *, seed: int = 0) -> HiddenVariableModel:
    """Default-parameter instance of a named family."""
    return model_from_spec({"family": name, "seed": seed})


# ---------------------------------------------------------------------------
# Sampling support


def sample_valid_tables(model: HiddenVariableModel, source, n: int,
                        a, b) -> tuple[LambdaBatch, np.ndarray]:
    """(batch, tables) of n lambda values with defined tables at (a, b).

    Bad rows are redrawn: almost surely a no-op for continuous measures, but
    it keeps hand-built degenerate settings from poisoning a sample.
    """
    return _sample_valid(model, model.tables_masked, source, n, a, b)


def _sample_valid(model: HiddenVariableModel, evaluate, source, n: int,
                  a, b) -> tuple[LambdaBatch, np.ndarray]:
    """(batch, values) of n lambda rows where ``evaluate`` is defined at (a, b).

    ``evaluate`` is a masked evaluator such as ``tables_masked`` or
    ``kernel_masked``; evaluators with the same mask draw the same rows. A
    round draws the rows still lacking and keeps the valid ones; rows still
    lacking after ``_MAX_REDRAW_ROUNDS`` rounds raise MeasureZeroError.
    """
    gen, batches, values, need = as_generator(source), [], [], int(n)
    for _ in range(_MAX_REDRAW_ROUNDS):
        cand = model.lambda_space.sample(gen, need)
        v, ok = evaluate(cand, a, b)
        scalars, vectors, v = _masked_rows(ok, cand.scalars, cand.vectors, v)
        batches.append(LambdaBatch(scalars, vectors))
        values.append(v)
        need -= len(v)
        if need <= 0:
            if len(batches) == 1:
                return batches[0], v
            return LambdaBatch.concat(batches), np.concatenate(values)
    raise MeasureZeroError(f"model '{model.name}': sampling stalled, rule undefined on "
                           "almost all draws")


class _Moments(NamedTuple):
    """Sum, sum of squares, count, first value, spread and undefined count of a pair's draws."""

    total: Any = 0.0  # scalars, or arrays with one entry per table cell
    total_sq: Any = 0.0
    n: int = 0
    first: Any = None
    spread: Any = False  # True where some draw differs from the first
    undefined: int = 0

    @staticmethod
    def of(gen: np.random.Generator, vals: np.ndarray) -> "_Moments":
        """The moments of kept values: a job's reduce when the values are the estimate
        (``gen``, the block's generator, is not drawn from)."""
        first = np.array(vals[0])  # a copy: a view would hold the whole block
        return _Moments(vals.sum(axis=0), (vals * vals).sum(axis=0), len(vals), first,
                        (vals != first).any(axis=0))

    def merge(self, later: "_Moments") -> "_Moments":
        undefined = self.undefined + later.undefined
        if later.first is None:
            return self._replace(undefined=undefined)
        first = later.first if self.first is None else self.first
        spread = self.spread | later.spread | (later.first != first)
        return _Moments(self.total + later.total, self.total_sq + later.total_sq,
                        self.n + later.n, first, spread, undefined)

    def estimate(self):
        """(n, W = 1.0, mean, stderr, undefined), variance divisor n - 1; no spread: draw, 0."""
        n = self.n
        mean = self.total / n if n else np.nan
        if n < 2:  # one draw carries no estimate of its own spread
            return n, 1.0, mean, np.nan, self.undefined
        var = np.maximum(0.0, (self.total_sq - n * mean * mean) / (n - 1))
        return n, 1.0, np.where(self.spread, mean, self.first), np.where(
            self.spread, np.sqrt(var / n), 0.0), self.undefined


def _node_sums(w: np.ndarray, v: np.ndarray, ok: np.ndarray) -> tuple:
    """(nodes, valid mass W, S = sum of w * v over the valid nodes, None, undefined nodes)."""
    w_ok, v_ok = _masked_rows(ok, w, v)  # S is np.sum(w * v) for k or C
    return len(v), np.sum(w_ok), np.sum((v_ok.T * w_ok).T, axis=0), None, len(v) - len(v_ok)


# Rows per Monte Carlo block, the unit of streams and of worker tasks: each
# float64 temporary of a block is 128 KB, so its working set stays in cache.
# The block index takes one 20-bit stream-split field, which caps the draws.
_MC_BLOCK = 16384
_MAX_DRAWS = _SPLIT_MAX * _MC_BLOCK


def _mc_blocks(model: HiddenVariableModel, jobs, n: int | None):
    """The one lambda-mean engine, as block tasks and their in-order fold: means for
    independent jobs over the node source that ``n`` names.

    A job is (stream, pairs, evaluate, reduce): the masked evaluator
    ``evaluate`` at each pair. A block holds its rows once and evaluates
    them at each pair in turn (common random numbers); rows where the rule
    is undefined are left out of the pair's result and counted. With
    ``n=None`` the source is the model's quadrature, one block of all its
    nodes (``_node_sums``). Else it is n draws per pair, in ``_MC_BLOCK``-row
    blocks and a ragged last one; block i comes from ``stream.split(i)``
    (counter-based streams: Salmon et al., SC'11), so its bytes follow from
    its key alone, and ``reduce(gen, values)`` turns a pair's kept values
    into its block moments, ``_Moments.of`` or one that draws from the
    block's generator right after the pair's evaluation.

    Returns (count, run, fold). ``run(t)`` runs task t < count, block
    t % blocks of job t // blocks, and gives its per-pair results;
    ``fold(results)`` takes every task's result, in task order, from the
    iterator ``results`` and returns, per job, one tuple (rows, W, S,
    stderr, undefined) per pair: (kept, 1.0, mean, stderr, undefined) by
    draws, ``_node_sums`` over the quadrature. Each job folds its blocks in
    order, so whichever process runs a task changes no byte.
    """
    if n is not None and not all(isinstance(stream, RandomStream) for stream, *_ in jobs):
        raise TypeError("Monte Carlo blocks are keyed by RandomStream job streams")
    full, rest = (1, 0) if n is None else divmod(n, _MC_BLOCK)
    n_blocks = full + (rest > 0)

    def run(task: int) -> list:
        j, i = divmod(task, n_blocks)
        stream, pairs, evaluate, reduce = jobs[j]
        if n is None:
            nodes, weights = model.lambda_space.quadrature
            return [_node_sums(weights, *evaluate(nodes, a, b)) for a, b in pairs]
        gen = stream.split(i).generator()
        batch = model.lambda_space.sample(gen, _MC_BLOCK if i < full else rest)
        per_pair = []
        for a, b in pairs:
            v, ok = evaluate(batch, a, b)
            (kept,) = _masked_rows(ok, v)
            m = reduce(gen, kept) if len(kept) else _Moments()
            per_pair.append(m._replace(undefined=len(v) - len(kept)) if len(kept) < len(v) else m)
        return per_pair

    def fold(results) -> list:
        out = []
        for _, pairs, *_ in jobs:
            if n is None:  # one block, whose sums are the result
                out.append(next(results))
                continue
            totals = [_Moments()] * len(pairs)
            for moments in itertools.islice(results, n_blocks):
                totals = [t.merge(m) for t, m in zip(totals, moments)]
            out.append([t.estimate() for t in totals])
        return out

    return len(jobs) * n_blocks, run, fold


def _mc_means(model: HiddenVariableModel, jobs, n: int | None, *, threads: int = 1):
    """``_mc_blocks``' results: its tasks in one ``_map_ordered`` pass on up to
    ``threads`` worker processes, the caller one of them, folded as they come. A
    quadrature runs in the caller alone: its blocks take milliseconds, and a fork
    restarts OpenBLAS's thread pool, which doubled the time of the numpy work after it."""
    count, run, fold = _mc_blocks(model, jobs, n)
    with closing(_map_ordered(run, range(count), 1 if n is None else threads)) as results:
        return fold(results)
