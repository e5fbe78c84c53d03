"""Correlation experiments: finite-shot sampling, analytic averages, CHSH.

The Monte Carlo estimates of an experiment are one pass of the MC engine
(``models._mc_means``) with one job per settings pair: 16384-shot blocks,
block i of pair p drawn once from the stream (seed, p, i). Every block of
every pair is one task of a single pass on worker processes, the calling
process one of them (``geometry._map_ordered``), and each pair merges its
blocks in index order, so estimates are bitwise identical for any worker
count. Each row where the rule is defined
gets one outcome draw from the block's stream right after the block's lambda
draw, and the +-1 products sum to an exact integer. Undefined rows are left
out and counted; above ``models._UNDEFINED_TOL`` of a pair's draws they
raise MeasureZeroError.

Kernel models, whose tables are (1 - sigma*tau*k)/4, draw outcomes from
the per-lambda kernel k alone: no (n, 2, 2) tables are built and the draw
uses four running-sum compares per shot. It consumes the same random
numbers with the same arithmetic as the table draw, so the output bytes
are those of the table path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import _SPLIT_MAX, RandomStream, require_unit, unit
from .models import (_MAX_DRAWS, _MC_BLOCK, _UNDEFINED_TOL, HiddenVariableModel, LambdaPoint,
                     MeasureZeroError, _mc_means, _Moments, _quad_means, _signs)

__all__ = [
    "OPTIMAL_CHSH_SETTINGS",
    "ExperimentConfig",
    "CorrelationEstimate",
    "ChshResult",
    "estimate_correlation",
    "run_experiment",
    "chsh",
    "hv_chsh_values",
    "find_chsh_witness",
    "CSV_HEADER",
    "write_correlations_csv",
    "write_chsh_csv",
]

# The pair index takes one 20-bit stream-split field, as the block index does
_MAX_PAIRS = _SPLIT_MAX

# Settings maximizing the quantum CHSH value S = 2*sqrt(2) for the singlet
# (E(a, b) = -a.b): pairs ordered (a0,b0), (a0,b1), (a1,b0), (a1,b1), with
# the CHSH sign pattern + + + -.
_A0 = np.array([0.0, 0.0, 1.0])
_A1 = np.array([1.0, 0.0, 0.0])
_B0 = unit([-1.0, 0.0, -1.0])
_B1 = unit([1.0, 0.0, -1.0])
OPTIMAL_CHSH_SETTINGS = np.array([[_A0, _B0], [_A0, _B1], [_A1, _B0], [_A1, _B1]])
CHSH_SIGNS = (1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for correlation estimation."""

    shots: int = 100_000
    mode: str = "sampling"
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.shots > _MAX_DRAWS:
            raise ValueError(f"shots must be <= {_MAX_DRAWS} ({_SPLIT_MAX} blocks of "
                             f"{_MC_BLOCK}, the stream split limit), got {self.shots}")
        if self.mode not in ("sampling", "analytic"):
            raise ValueError(f"mode must be 'sampling' or 'analytic', got {self.mode!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass
class CorrelationEstimate:
    a: np.ndarray
    b: np.ndarray
    e_est: float
    stderr: float
    e_qm: float
    n_shots: int
    mode: str
    seed: int


@dataclass
class ChshResult:
    estimates: list[CorrelationEstimate]
    s_est: float
    stderr: float
    s_qm: float
    seed: int

    @property
    def total_shots(self) -> int:
        return sum(e.n_shots for e in self.estimates)


def _sample_products(cols, gen: np.random.Generator) -> np.ndarray:
    """Vectorized outcome draws; returns the products sigma*tau in {-1, +1}.

    ``cols`` holds the table columns (p00, p01, p10, p11), each (n,). One
    uniform u per row gives idx = clip(#{j : u >= cum_j}, 0, 3) over the
    running sums cum_j, and sigma*tau = +1 iff idx is 0 or 3. The sums are
    added in the order np.cumsum uses, so the draw is bit-identical to a
    cumsum over (n, 2, 2) tables, even for inadmissible tables whose
    negative entries make cum non-monotone.
    """
    p00, p01, p10, p11 = cols
    u = gen.random(len(p00))
    count = (u >= p00).astype(np.int8)
    cum = p00 + p01
    count += u >= cum
    cum += p10
    count += u >= cum
    cum += p11
    count += u >= cum
    return _signs((count == 1) | (count == 2))


def estimate_correlation(model: HiddenVariableModel, a, b,
                         config: ExperimentConfig | None = None,
                         pair_index: int = 0) -> CorrelationEstimate:
    """Estimate E(a, b) = sum sigma*tau P(sigma, tau | a, b) for one pair.

    mode 'analytic' integrates the lambda-conditioned correlator over the
    model's quadrature (stderr 0); models without a quadrature fall back to
    a lambda-level Monte Carlo average of the conditional correlator with
    ``shots`` draws. mode 'sampling' simulates the experiment shot by shot:
    draw lambda, draw (sigma, tau) from the conditional table, average the
    products. Kernel models draw from k alone. A Monte Carlo estimate from
    fewer than two draws reports stderr NaN. This is the one-pair case of
    ``run_experiment``, on the streams of pair ``pair_index``.
    """
    [estimate] = _estimates(model, [(a, b)], config or ExperimentConfig(), [pair_index])
    return estimate


def run_experiment(model: HiddenVariableModel, settings,
                   config: ExperimentConfig | None = None) -> list[CorrelationEstimate]:
    """Estimate correlations for a list of (a, b) pairs, one stream each, in one pass."""
    cfg = config or ExperimentConfig()
    pairs = np.asarray(settings, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1:] != (2, 3):
        raise ValueError(f"settings must have shape (n, 2, 3), got {pairs.shape}")
    if len(pairs) > _MAX_PAIRS:
        raise ValueError(f"at most {_MAX_PAIRS} settings pairs (the stream split limit), "
                         f"got {len(pairs)}")
    return _estimates(model, pairs, cfg, range(len(pairs)))


def _estimates(model: HiddenVariableModel, pairs, cfg: ExperimentConfig,
               indices) -> list[CorrelationEstimate]:
    """The estimates of ``run_experiment`` for ``pairs``, pair p on the streams of ``indices[p]``.

    A Monte Carlo run is one ``_mc_means`` pass with one job per pair; the
    first pair undefined above ``_UNDEFINED_TOL`` raises MeasureZeroError.
    """
    pairs = [(require_unit(a, name="a"), require_unit(b, name="b")) for a, b in pairs]
    e_qm = [-float(np.clip(np.dot(a, b), -1.0, 1.0)) for a, b in pairs]

    if cfg.mode == "analytic" and model.lambda_space.quadrature is not None:
        n = len(model.lambda_space.quadrature[1])
        means = _quad_means(model, model.correlations_masked, pairs)
        return [CorrelationEstimate(a, b, float(e), 0.0, q, n, "analytic", cfg.seed)
                for (a, b), q, (_, e) in zip(pairs, e_qm, means)]

    # kernel models draw outcomes from k and never build the tables (1 - sigma*tau*k)/4
    evaluate = (model.correlations_masked if cfg.mode == "analytic" else
                model.kernel_masked if model.has_kernel else model.tables_masked)

    def outcomes(gen: np.random.Generator, vals: np.ndarray) -> _Moments:
        """The moments of one outcome draw per row, from the block's generator."""
        if model.has_kernel:
            diag, off = (1.0 - vals) / 4.0, (1.0 + vals) / 4.0
            cols = diag, off, off, diag
        else:
            cols = vals.reshape(-1, 4).T
        total = float(_sample_products(cols, gen).sum())
        # +-1 products: an exact integer sum, a sum of squares n, and all
        # products equal exactly when |total| = n
        n = len(vals)
        return _Moments(total, float(n), n, total / n, abs(total) != n)

    root = RandomStream(cfg.seed)
    reduce = [] if cfg.mode == "analytic" else [outcomes]  # analytic: the values' own moments
    jobs = [(root.split(2, i), [pair], evaluate, *reduce) for i, pair in zip(indices, pairs)]
    out = []
    for i, (a, b), q, [(n, e, stderr, undefined)] in zip(
            indices, pairs, e_qm, _mc_means(model, jobs, cfg.shots, threads=cfg.threads)):
        if undefined > _UNDEFINED_TOL * (n + undefined):
            raise MeasureZeroError(f"model '{model.name}': rule undefined on {undefined} of "
                                   f"{n + undefined} draws at settings pair {i}")
        out.append(CorrelationEstimate(a, b, float(e), float(stderr), q, n, cfg.mode, cfg.seed))
    return out


def chsh(model: HiddenVariableModel, config: ExperimentConfig | None = None,
         settings=None) -> ChshResult:
    """CHSH combination S = |E00 + E01 + E10 - E11| at the given settings.

    Defaults to the quantum-optimal axes, where S_qm = 2*sqrt(2).
    """
    cfg = config or ExperimentConfig()
    pairs = OPTIMAL_CHSH_SETTINGS if settings is None else np.asarray(settings, dtype=float)
    if pairs.shape != (4, 2, 3):
        raise ValueError(f"CHSH needs exactly 4 settings pairs, got shape {pairs.shape}")
    ests = run_experiment(model, pairs, cfg)
    s_est = abs(sum(sgn * e.e_est for sgn, e in zip(CHSH_SIGNS, ests)))
    stderr = float(np.sqrt(sum(e.stderr**2 for e in ests)))
    s_qm = abs(sum(sgn * e.e_qm for sgn, e in zip(CHSH_SIGNS, ests)))
    return ChshResult(ests, float(s_est), stderr, float(s_qm), cfg.seed)


def hv_chsh_values(model: HiddenVariableModel, lam, settings=None) -> np.ndarray:
    """Per-lambda CHSH values |sum signs * E(lambda, a_i, b_i)|.

    At the hidden-variable level the CHSH combination is not bounded by the
    quantum 2*sqrt(2): individual lambda may carry stronger-than-quantum
    correlations that average out.
    """
    pairs = OPTIMAL_CHSH_SETTINGS if settings is None else np.asarray(settings, dtype=float)
    if pairs.shape != (4, 2, 3):
        raise ValueError(f"CHSH needs exactly 4 settings pairs, got shape {pairs.shape}")
    total = None
    for sgn, (a, b) in zip(CHSH_SIGNS, pairs):
        vals, ok = model.correlations_masked(lam, a, b)
        vals = np.where(ok, vals, np.nan)
        total = sgn * vals if total is None else total + sgn * vals
    return np.abs(total)


def find_chsh_witness(model: HiddenVariableModel, settings=None, n_lambda: int = 4096,
                      source=None) -> tuple[float, LambdaPoint]:
    """Largest per-lambda CHSH value over quadrature nodes or a sample."""
    batch, _ = model.lambda_space.nodes(
        source if source is not None else RandomStream(0).split(15), n_lambda)
    vals = hv_chsh_values(model, batch, settings)
    j = int(np.nanargmax(vals))
    return float(vals[j]), batch.point(j)


# ---------------------------------------------------------------------------
# CSV output


CSV_HEADER = ["ax", "ay", "az", "bx", "by", "bz", "E_est", "stderr", "E_qm",
              "n_shots", "mode", "seed"]


def _f17(x: float) -> str:
    return f"{float(x):.17g}"


def _estimate_row(e: CorrelationEstimate) -> list[str]:
    return [
        *(_f17(v) for v in e.a), *(_f17(v) for v in e.b),
        _f17(e.e_est), _f17(e.stderr), _f17(e.e_qm),
        str(int(e.n_shots)), e.mode, str(int(e.seed)),
    ]


def _write_rows(target, rows: list[list[str]]) -> None:
    def dump(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)

    if hasattr(target, "write"):
        dump(target)
    else:
        with open(target, "w", encoding="utf-8", newline="") as fh:
            dump(fh)


def write_correlations_csv(target, estimates: list[CorrelationEstimate]) -> None:
    """Write one row per settings pair; floats carry 17 significant digits."""
    _write_rows(target, [_estimate_row(e) for e in estimates])


def write_chsh_csv(target, result: ChshResult) -> None:
    """Four pair rows plus a summary row (mode 'chsh', axes nan, E_est = S)."""
    rows = [_estimate_row(e) for e in result.estimates]
    rows.append([
        "nan"] * 6 + [
        _f17(result.s_est), _f17(result.stderr), _f17(result.s_qm),
        str(result.total_shots), "chsh", str(int(result.seed)),
    ])
    _write_rows(target, rows)

