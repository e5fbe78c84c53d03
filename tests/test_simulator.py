import csv
import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hvsinglet import geometry, models, simulator
from hvsinglet.geometry import RandomStream, sample_uniform_sphere, unit, with_dot
from hvsinglet.models import (
    _MAX_DRAWS,
    HiddenVariableModel,
    LambdaPoint,
    LambdaSpace,
    MeasureZeroError,
    _mc_means,
    _Moments,
    _scalar_uniform_space,
    _sample_valid,
    _tables_from_kernel,
    builtin_model,
    family1_model,
    sample_valid_tables,
    wrongtrial_model,
)
from hvsinglet.simulator import (
    _MAX_PAIRS,
    CHSH_SIGNS,
    CSV_HEADER,
    OPTIMAL_CHSH_SETTINGS,
    ExperimentConfig,
    chsh,
    estimate_correlation,
    find_chsh_witness,
    hv_chsh_values,
    run_experiment,
    _sample_products,
    write_chsh_csv,
    write_correlations_csv,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
SQRT8 = 2.0 * np.sqrt(2.0)


def test_optimal_settings_reach_tsirelson():
    s = 0.0
    for sgn, (a, b) in zip(CHSH_SIGNS, OPTIMAL_CHSH_SETTINGS):
        assert abs(np.linalg.norm(a) - 1) < 1e-15 and abs(np.linalg.norm(b) - 1) < 1e-15
        s += sgn * -float(a @ b)
    assert abs(abs(s) - SQRT8) < 1e-15


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(shots=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="exact")
    with pytest.raises(ValueError):
        ExperimentConfig(threads=0)


def test_analytic_correlation_matches_qm_for_quadrature_models():
    for name in ("family1", "family2"):
        m = builtin_model(name)
        e = estimate_correlation(m, Z, unit([0.3, 0.2, 0.7]), ExperimentConfig(mode="analytic"))
        assert e.stderr == 0.0
        assert e.e_est == pytest.approx(e.e_qm, abs=1e-12)


def test_analytic_correlation_sums_only_valid_nodes():
    # junk kernel values where the rule is undefined must not reach the sum
    space = _scalar_uniform_space(1.0, 16)
    nodes, w = space.quadrature

    def kernel_rule(batch, a, b):
        lam = batch.scalars[:, 0]
        ok = lam > b[0] - 1.2
        return np.where(ok, float(np.dot(a, b)) - 0.1 * lam, 50.0), ok

    m = HiddenVariableModel("holey-analytic", space, kernel_rule=kernel_rule)
    partial = []
    for b in (X, unit([0.3, 0.2, 0.7]), unit([-0.2, 0.5, 0.1])):
        corr, ok = m.correlations_masked(nodes, Z, b)
        e = estimate_correlation(m, Z, b, ExperimentConfig(mode="analytic"))
        assert e.e_est == float(np.sum(w[ok] * corr[ok]))
        partial.append(not ok.all())
    assert any(partial) and not all(partial)


def test_sampling_correlation_within_five_sigma():
    m = builtin_model("family1")
    b = unit([0.6, 0.0, 0.8])
    e = estimate_correlation(m, Z, b, ExperimentConfig(shots=100_000, seed=5))
    assert e.n_shots == 100_000
    assert e.stderr == pytest.approx(np.sqrt((1 - e.e_est**2) / e.n_shots), rel=1e-3)
    assert abs(e.e_est - e.e_qm) < 5 * e.stderr


def test_sampling_is_deterministic_and_thread_invariant():
    m = builtin_model("family1")
    b = unit([0.25, -0.33, 0.91])
    args = dict(shots=150_000, seed=11)
    e1 = estimate_correlation(m, Z, b, ExperimentConfig(**args))
    e2 = estimate_correlation(m, Z, b, ExperimentConfig(**args))
    e4 = estimate_correlation(m, Z, b, ExperimentConfig(**args, threads=4))
    assert (e1.e_est, e1.stderr) == (e2.e_est, e2.stderr) == (e4.e_est, e4.stderr)
    e_other = estimate_correlation(m, Z, b, ExperimentConfig(shots=150_000, seed=12))
    assert e_other.e_est != e1.e_est


def test_block_pool_is_bounded_by_blocks_and_cpus(forks):
    m = builtin_model("family1")
    b = unit([0.25, -0.33, 0.91])
    args = dict(shots=5 * 16384 + 7, seed=11)
    serial = estimate_correlation(m, Z, b, ExperimentConfig(**args))
    many = estimate_correlation(m, Z, b, ExperimentConfig(**args, threads=2000))
    assert (many.e_est, many.stderr) == (serial.e_est, serial.stderr)
    assert len(forks) == 3  # six blocks, four usable CPUs: three forked workers and the caller


def test_pairs_use_independent_streams():
    m = builtin_model("family1")
    cfg = ExperimentConfig(shots=4096, seed=3)
    settings = np.array([[Z, X], [Z, X]])
    ests = run_experiment(m, settings, cfg)
    assert ests[0].e_est != ests[1].e_est  # same pair, different pair_index


def test_analytic_fallback_without_quadrature():
    m = builtin_model("cerf")
    e = estimate_correlation(m, Z, unit([0.3, 0.1, 0.9]), ExperimentConfig(
        shots=100_000, mode="analytic", seed=2))
    assert e.mode == "analytic"
    assert e.stderr > 0.0  # Monte Carlo fallback reports its noise
    assert abs(e.e_est - e.e_qm) < 5 * e.stderr


def test_chsh_analytic_hits_quantum_value():
    r = chsh(builtin_model("family2"), ExperimentConfig(mode="analytic"))
    assert r.s_qm == pytest.approx(SQRT8, abs=1e-12)
    assert r.s_est == pytest.approx(SQRT8, abs=1e-10)
    assert r.stderr == 0.0


def test_chsh_sampling_agrees_with_quantum():
    r = chsh(builtin_model("cerf"), ExperimentConfig(shots=100_000, seed=1))
    assert r.total_shots == 400_000
    assert abs(r.s_est - SQRT8) < 5 * r.stderr


def test_chsh_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        chsh(builtin_model("family1"), settings=np.zeros((3, 2, 3)))
    with pytest.raises(ValueError):
        run_experiment(builtin_model("family1"), np.zeros((4, 3)))


def test_hv_chsh_values_two_point_structure():
    # at the optimal axes every pair has (a.b)^2 = 1/2, so S(lambda) = |2 sqrt 2 + g|
    m = family1_model(0.45)
    nodes, _ = m.lambda_space.quadrature
    vals = hv_chsh_values(m, nodes)
    assert_allclose(sorted(vals), [SQRT8 - 0.45, SQRT8 + 0.45], atol=1e-12)


def test_find_chsh_witness_beats_quantum_bound():
    m = family1_model(0.45)
    s, lam = find_chsh_witness(m)
    assert s == pytest.approx(SQRT8 + 0.45, abs=1e-12)
    assert lam.scalars == (0.45,)
    assert s > SQRT8  # stronger-than-quantum correlations at fixed lambda


def test_find_chsh_witness_sampled_model():
    s, lam = find_chsh_witness(builtin_model("cerf"), n_lambda=2000)
    assert s <= 4.0 + 1e-12  # deterministic per-lambda tables: algebraic max
    assert s >= SQRT8  # the sign model's lambda values reach the algebraic corners
    assert len(lam.vectors) == 2


def test_correlations_csv_format():
    m = builtin_model("family1")
    ests = run_experiment(m, OPTIMAL_CHSH_SETTINGS, ExperimentConfig(mode="analytic", seed=4))
    buf = io.StringIO()
    write_correlations_csv(buf, ests)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == CSV_HEADER
    assert len(rows) == 5
    first = dict(zip(CSV_HEADER, rows[1]))
    assert first["mode"] == "analytic" and first["seed"] == "4"
    # 17 significant digits round-trip exactly
    assert float(first["E_qm"]) == ests[0].e_qm
    assert float(first["E_est"]) == ests[0].e_est
    assert first["az"] == "1"


def test_chsh_csv_summary_row(tmp_path):
    r = chsh(builtin_model("family1"), ExperimentConfig(shots=8192, seed=6))
    path = tmp_path / "chsh.csv"
    write_chsh_csv(path, r)
    rows = list(csv.reader(path.open()))
    assert len(rows) == 6
    summary = dict(zip(CSV_HEADER, rows[5]))
    assert summary["mode"] == "chsh"
    assert summary["ax"] == "nan"
    assert float(summary["E_est"]) == r.s_est
    assert int(summary["n_shots"]) == 4 * 8192


def test_csv_deterministic_across_threads(tmp_path):
    m = builtin_model("cerf")
    texts = []
    for threads in (1, 3):
        r = chsh(m, ExperimentConfig(shots=70_000, seed=8, threads=threads))
        buf = io.StringIO()
        write_chsh_csv(buf, r)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# Outcome draws: the column draw against the cumsum/broadcast rule it replaced


def _cumsum_products(tables, gen):
    """The table draw as first written: the oracle for ``_sample_products``."""
    cum = np.cumsum(tables.reshape(len(tables), 4), axis=1)
    u = gen.random(len(tables))
    idx = np.clip((u[:, None] >= cum).sum(axis=1), 0, 3)
    return np.where((idx == 0) | (idx == 3), 1.0, -1.0)


def _columns(tables):
    return tables.reshape(len(tables), 4).T


def _assert_same_draws(tables, cols, seed):
    new = _sample_products(cols, RandomStream(seed).generator())
    old = _cumsum_products(tables, RandomStream(seed).generator())
    assert np.array_equal(new, old)
    return new


class _FixedUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


def test_column_draw_matches_cumsum_on_random_tables():
    gen = RandomStream(40).generator()
    t = gen.random((50_000, 4))
    t /= t.sum(axis=1, keepdims=True)
    prods = _assert_same_draws(t.reshape(-1, 2, 2), _columns(t.reshape(-1, 2, 2)), 41)
    assert set(np.unique(prods)) == {-1.0, 1.0}


def test_column_draw_matches_cumsum_on_kernel_tables():
    gen = RandomStream(42).generator()
    for k in (np.where(gen.random(50_000) < 0.5, -1.0, 1.0), gen.uniform(-1.0, 1.0, 50_000)):
        diag = (1.0 - k) / 4.0
        off = (1.0 + k) / 4.0
        _assert_same_draws(_tables_from_kernel(k), (diag, off, off, diag), 43)


def test_column_draw_matches_cumsum_on_negative_entries():
    # wrongtrial near |a.b| = 1: entries below 0 and above 1/2, non-monotone cum
    m = wrongtrial_model(0.4)
    gen = RandomStream(44).generator()
    for x in (1.0 - 1e-4, -(1.0 - 1e-6), 1.0 - 1e-9):
        b = with_dot(Z, X, x)
        t, ok = m.tables_masked(m.lambda_space.sample(gen, 20_000), Z, b)
        assert ok.all() and t.min() < 0.0
        _assert_same_draws(t, _columns(t), 45)


@pytest.mark.parametrize("table, product", [
    ([[0.0, 1.0], [0.0, 0.0]], -1.0),  # every u lands in (+1, -1)
    ([[0.0, 0.0], [1.0, 0.0]], -1.0),  # every u lands in (-1, +1)
    ([[1.0, 0.0], [0.0, 0.0]], 1.0),
    ([[0.0, 0.0], [0.0, 1.0]], 1.0),
])
def test_column_draw_matches_cumsum_when_every_product_is_equal(table, product):
    t = np.tile(np.array(table), (16384, 1, 1))
    prods = _assert_same_draws(t, _columns(t), 46)
    assert prods.tobytes() == np.full(16384, product).tobytes()


def test_column_draw_matches_cumsum_at_ties():
    # u landing exactly on a running sum, and on sums of a non-monotone table
    # the last table has (0.01 + 0.01) + 0.04 != (0.01 + 0.04) + 0.01: the sum order shows
    t = np.array([[[0.25, 0.25], [0.25, 0.25]], [[-0.1, 0.6], [0.6, -0.1]],
                  [[0.0, 0.5], [0.5, 0.0]], [[0.6, -0.1], [-0.1, 0.6]],
                  [[0.01, 0.01], [0.04, 0.94]]])
    cum = np.cumsum(t.reshape(-1, 4), axis=1)
    rows = np.repeat(np.arange(len(t)), 7)
    u = np.concatenate([np.r_[0.0, c, np.nextafter(c[1:3], 0.0)] for c in cum])
    new = _sample_products(_columns(t[rows]), _FixedUniforms(u))
    old = _cumsum_products(t[rows], _FixedUniforms(u))
    assert np.array_equal(new, old)


# ---------------------------------------------------------------------------
# The kernel path of estimate_correlation against the table path


def _as_table_rule(model):
    return HiddenVariableModel(model.name + "-tables", model.lambda_space,
                               table_rule=lambda batch, a, b: model.tables_masked(batch, a, b))


@pytest.mark.parametrize("name, mode", [("cerf", "sampling"), ("cerf", "analytic"),
                                        ("family1", "sampling")])
@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_estimate_equals_table_estimate(name, mode, threads):
    m = builtin_model(name)
    assert m.has_kernel
    b = unit([0.25, -0.33, 0.91])
    cfg = ExperimentConfig(shots=150_001, mode=mode, seed=13, threads=threads)  # partial block
    kern = estimate_correlation(m, Z, b, cfg, pair_index=3)
    tab = estimate_correlation(_as_table_rule(m), Z, b, cfg, pair_index=3)
    assert (kern.e_est, kern.stderr, kern.n_shots) == (tab.e_est, tab.stderr, tab.n_shots)


def test_kernel_draw_columns_are_the_table_entries(monkeypatch):
    seen = []

    def spy(cols, gen):
        seen.append(np.stack(cols, axis=1))
        return _sample_products(cols, gen)

    monkeypatch.setattr(simulator, "_sample_products", spy)
    m = builtin_model("family2")
    b = unit([0.25, -0.33, 0.91])
    estimate_correlation(m, Z, b, ExperimentConfig(shots=5000, seed=15), pair_index=2)
    gen = RandomStream(15).split(2, 2).split(0).generator()
    _, tables = sample_valid_tables(m, gen, 5000, Z, b)
    assert len(seen) == 1 and np.array_equal(seen[0], tables.reshape(-1, 4))


def _holed_cerf():
    """cerf whose first sampler call puts u orthogonal to Z in one row: undefined at a = Z."""
    cerf = builtin_model("cerf")
    calls = []

    def sampler(gen, n):
        batch = cerf.lambda_space.sampler(gen, n)
        if not calls:
            batch.vectors[0, 0] = X
        calls.append(n)
        return batch

    return HiddenVariableModel("holed", LambdaSpace(cerf.lambda_space.shape, sampler),
                               kernel_rule=cerf.kernel_rule)


def test_kernel_estimate_equals_table_estimate_with_a_dropped_row():
    # 64 blocks: one undefined row of 2^20 is below the undefined bound
    cfg = ExperimentConfig(shots=1 << 20, seed=14)
    b = unit([0.3, 0.1, 0.95])
    kern = estimate_correlation(_holed_cerf(), Z, b, cfg)
    tab = estimate_correlation(_as_table_rule(_holed_cerf()), Z, b, cfg)
    assert kern.n_shots == (1 << 20) - 1
    assert (kern.e_est, kern.stderr, kern.n_shots) == (tab.e_est, tab.stderr, tab.n_shots)


def test_outcomes_are_drawn_right_after_the_block():
    # each block draws its lambda rows once, then one outcome per defined row
    # from the block's stream
    b = unit([0.3, 0.1, 0.95])
    m = _holed_cerf()
    total, n = 0.0, 0
    for i in range(64):
        gen = RandomStream(14).split(2, 0).split(i).generator()
        k, ok = m.kernel_masked(m.lambda_space.sample(gen, 16384), Z, b)
        k = k[ok]
        diag, off = (1.0 - k) / 4.0, (1.0 + k) / 4.0
        total += float(_sample_products((diag, off, off, diag), gen).sum())
        n += len(k)
    assert n == (1 << 20) - 1
    e = total / n
    got = estimate_correlation(_holed_cerf(), Z, b, ExperimentConfig(shots=1 << 20, seed=14))
    assert (got.n_shots, got.e_est) == (n, e)
    assert got.stderr == float(np.sqrt(max(0.0, (n - n * e * e) / (n - 1)) / n))


# ---------------------------------------------------------------------------
# Estimates against a per-block oracle


def _full_block_estimate(model, a, b, cfg, pair_index):
    """(e_est, stderr, n_shots) from 16384-shot blocks, each drawn and summed whole."""
    pair_stream = RandomStream(cfg.seed).split(2, pair_index)
    full, rest = divmod(cfg.shots, 16384)
    parts = []
    for i, n in enumerate([16384] * full + ([rest] if rest else [])):
        gen = pair_stream.split(i).generator()
        if cfg.mode == "analytic":
            vals = _sample_valid(model, model.correlations_masked, gen, n, a, b)[1]
        elif model.has_kernel:
            _, k = _sample_valid(model, model.kernel_masked, gen, n, a, b)
            diag, off = (1.0 - k) / 4.0, (1.0 + k) / 4.0
            vals = _sample_products((diag, off, off, diag), gen)
        else:
            _, tables = sample_valid_tables(model, gen, n, a, b)
            vals = _sample_products(tables.reshape(n, 4).T, gen)
        parts.append((float(vals.sum()), float((vals * vals).sum()), len(vals)))
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    n = sum(p[2] for p in parts)
    e = total / n
    var = max(0.0, (total_sq - n * e * e) / (n - 1))
    return e, float(np.sqrt(var / n)), n


@pytest.mark.parametrize("name", ["cerf", "family2", "wrongtrial", "cerf-tables"])
@pytest.mark.parametrize("mode", ["sampling", "analytic"])
@pytest.mark.parametrize("threads", [1, 2])
def test_chunked_estimate_is_the_full_block_rule(name, mode, threads):
    m = (_as_table_rule(builtin_model("cerf")) if name == "cerf-tables"
         else builtin_model(name))
    if mode == "analytic":  # no quadrature: the lambda-level Monte Carlo fallback
        m = dataclasses.replace(m, lambda_space=LambdaSpace(m.lambda_space.shape,
                                                            m.lambda_space.sampler))
    b = unit([0.25, -0.33, 0.91])
    # seven full blocks and a ragged one
    cfg = ExperimentConfig(shots=7 * 16384 + 4465, mode=mode, seed=16, threads=threads)
    got = estimate_correlation(m, Z, b, cfg, pair_index=1)
    assert (got.e_est, got.stderr, got.n_shots) == _full_block_estimate(m, Z, b, cfg, 1)


def test_one_block_memory_is_bounded():
    m = builtin_model("cerf")
    b = unit([0.25, -0.33, 0.91])
    cfg = ExperimentConfig(shots=65536, seed=17)
    estimate_correlation(m, Z, b, cfg)  # warm-up: lazy imports and caches stay out
    tracemalloc.start()
    try:
        estimate_correlation(m, Z, b, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # four 16384-shot blocks, one at a time: a (16384, 2, 3) cerf lambda block
    # is 0.8 MB; 65536-shot blocks peaked at 4.9 MB
    assert peak <= 2_200_000, peak


# ---------------------------------------------------------------------------
# One engine pass for every pair of an experiment


def _fields(e):
    return (e.a.tobytes(), e.b.tobytes(), e.e_est, e.stderr, e.e_qm, e.n_shots, e.mode, e.seed)


@pytest.mark.parametrize("name", ["cerf", "family2", "cerf-tables"])
@pytest.mark.parametrize("mode", ["sampling", "analytic"])
def test_one_pass_equals_the_pairs_one_at_a_time(monkeypatch, name, mode):
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 4)
    m = (_as_table_rule(builtin_model("cerf")) if name == "cerf-tables"
         else builtin_model(name))
    if mode == "analytic":  # no quadrature: the lambda-level Monte Carlo fallback
        m = dataclasses.replace(m, lambda_space=LambdaSpace(m.lambda_space.shape,
                                                            m.lambda_space.sampler))
    gen = RandomStream(18).generator()
    settings = np.stack([sample_uniform_sphere(gen, 3), sample_uniform_sphere(gen, 3)], axis=1)
    shots = 2 * 16384 + 4465  # two full blocks and a ragged one
    alone = [estimate_correlation(m, a, b, ExperimentConfig(shots=shots, mode=mode, seed=18),
                                  pair_index=i) for i, (a, b) in enumerate(settings)]
    for e, (a, b), i in zip(alone, settings, range(3)):  # against the per-block oracle
        assert (e.e_est, e.stderr, e.n_shots) == _full_block_estimate(
            m, a, b, ExperimentConfig(shots=shots, mode=mode, seed=18), i)
    for threads in (1, 2, 4):
        together = run_experiment(m, settings,
                                  ExperimentConfig(shots=shots, mode=mode, seed=18,
                                                   threads=threads))
        assert [_fields(e) for e in together] == [_fields(e) for e in alone]


def _undefined_at_x_model(calls):
    """Kernel k = 0 on two-point scalars, undefined everywhere when a = X."""
    def rule(batch, a, b):
        calls.append(a[0] == 1.0)
        return np.zeros(len(batch)), np.full(len(batch), a[0] != 1.0)

    return HiddenVariableModel("undefined-at-x", family1_model().lambda_space, kernel_rule=rule)


@pytest.mark.parametrize("threads", [1, 2])
def test_an_undefined_pair_raises_and_counts_its_rows(monkeypatch, call_log, threads):
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
    m = _undefined_at_x_model(call_log)  # the forked worker's evaluations are logged too
    settings = np.array([[Z, X], [X, Z], [Z, X], [X, Z]])
    with pytest.raises(MeasureZeroError, match="undefined on 32768 of 32768 draws at "
                                               "settings pair 1"):
        run_experiment(m, settings, ExperimentConfig(shots=2 * 16384, seed=19, threads=threads))
    # the engine's view: every pair evaluates each of its two blocks once;
    # pairs 1 and 3 keep no row and count all, pairs 0 and 2 run as they would alone
    jobs = [(RandomStream(19).split(2, i), [(a, b)], m.kernel_masked, _Moments.of)
            for i, (a, b) in enumerate(settings)]
    call_log.path.write_text("")
    out = _mc_means(m, jobs, 2 * 16384, threads=threads)
    assert sorted(call_log.entries()) == ["False"] * 4 + ["True"] * 4
    for p in (0, 2):
        [(kept, _, _, _, undefined)] = out[p]
        assert kept == 2 * 16384 and undefined == 0
        assert out[p] == _mc_means(m, jobs[p:p + 1], 2 * 16384)[0]
    for p in (1, 3):
        [(kept, _, _, _, undefined)] = out[p]
        assert kept == 0 and undefined == 2 * 16384
    assert estimate_correlation(m, Z, X, ExperimentConfig(shots=100, seed=19)).n_shots == 100


@pytest.mark.parametrize("threads", [1, 2])
def test_one_pass_holds_only_the_blocks_in_flight(monkeypatch, threads):
    # 12 pairs of 200 one-row blocks: holding every block's moments until the
    # end would take ~0.9 MB; the pass folds each pair's blocks as they come
    monkeypatch.setattr(models, "_MC_BLOCK", 1)
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
    m = builtin_model("family1")
    jobs = [(RandomStream(20).split(2, i), [(Z, X)], m.kernel_masked, _Moments.of)
            for i in range(12)]
    _mc_means(m, jobs[:1], 20, threads=threads)  # warm-up
    tracemalloc.start()
    try:
        out = _mc_means(m, jobs, 200, threads=threads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [n for [(n, *_)] in out] == [200] * 12
    assert peak <= 150_000, peak


# ---------------------------------------------------------------------------
# Edge sizes


@pytest.mark.parametrize("mode", ["sampling", "analytic"])
def test_one_draw_estimate_has_no_stderr(mode):
    e = estimate_correlation(builtin_model("cerf"), Z, X,
                             ExperimentConfig(shots=1, mode=mode, seed=3))
    assert e.n_shots == 1 and abs(e.e_est) == 1.0
    assert np.isnan(e.stderr)
    r = chsh(builtin_model("cerf"), ExperimentConfig(shots=1, mode=mode, seed=3))
    assert np.isnan(r.stderr)
    two = estimate_correlation(builtin_model("cerf"), Z, X,
                               ExperimentConfig(shots=2, mode=mode, seed=3))
    assert np.isfinite(two.stderr)
    # quadrature needs no draws: its stderr stays 0 at shots=1
    quad = estimate_correlation(builtin_model("family1"), Z, X,
                                ExperimentConfig(shots=1, mode="analytic"))
    assert quad.stderr == 0.0


def test_stream_split_limits_are_checked_up_front(monkeypatch):
    assert ExperimentConfig(shots=_MAX_DRAWS).shots == _MAX_DRAWS
    with pytest.raises(ValueError, match=str(_MAX_DRAWS)):
        ExperimentConfig(shots=_MAX_DRAWS + 1)
    assert _MAX_PAIRS == (1 << 20) - 1
    monkeypatch.setattr(simulator, "_MAX_PAIRS", 2)
    m = builtin_model("family1")
    with pytest.raises(ValueError, match="at most 2 settings pairs"):
        run_experiment(m, np.array([[Z, X]] * 3), ExperimentConfig(shots=16))
    assert len(run_experiment(m, np.array([[Z, X]] * 2), ExperimentConfig(shots=16))) == 2
