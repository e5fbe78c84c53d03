import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hvsinglet import models
from hvsinglet.geometry import RandomStream, dot, sample_uniform_sphere, unit, with_dot
from hvsinglet.models import (
    RECIPE_REGISTRY,
    SIGN_EPS,
    HiddenVariableModel,
    LambdaBatch,
    LambdaPoint,
    LambdaSpace,
    MeasureZeroError,
    ModelSpecError,
    NegativeProbabilityError,
    build_recipe_model,
    builtin_model,
    canonical_prob,
    canonical_table,
    cerf_model,
    family1_model,
    family2_model,
    frobenius_bound,
    load_model,
    model_from_spec,
    qm_singlet_prob,
    qm_table,
    sample_valid_tables,
    setting_dot,
    wrongtrial_model,
    _cerf_kernel,
    _mc_means,
    _Moments,
    _recipe_mean,
    _sample_valid,
    _scalar_space,
    _scalar_two_point_space,
    _signs,
    _tables_from_kernel,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])

vec3 = st.tuples(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
).filter(lambda t: t[0] * t[0] + t[1] * t[1] + t[2] * t[2] > 1e-4)


# ---------------------------------------------------------------------------
# Reference statistics


def test_qm_singlet_prob_basics():
    assert qm_singlet_prob(1, 1, Z, Z) == 0.0
    assert qm_singlet_prob(1, -1, Z, Z) == 0.5
    assert qm_singlet_prob(1, 1, Z, X) == 0.25
    with pytest.raises(ValueError):
        qm_singlet_prob(0, 1, Z, X)


def test_qm_table_structure():
    b = unit([0.6, 0.0, 0.8])
    t = qm_table(Z, b)
    assert t.shape == (2, 2)
    assert abs(t.sum() - 1.0) < 1e-15
    # anticorrelation bias: equal outcomes suppressed for a.b > 0
    assert t[0, 0] == t[1, 1] < t[0, 1] == t[1, 0]


def test_canonical_prob_and_table_agree():
    x, c = 0.3, 0.12
    t = canonical_table(x, c)
    for i, s in enumerate((1, -1)):
        for j, u in enumerate((1, -1)):
            assert abs(t[i, j] - canonical_prob(s, u, x, c)) < 1e-16


# ---------------------------------------------------------------------------
# Family 1: polynomial envelope


def test_family1_c_value():
    m = family1_model(0.4)
    assert m.c_values(LambdaPoint((0.4,)), Z, X) == pytest.approx(0.4, abs=1e-15)
    # C vanishes exactly at coincident and opposite axes
    assert m.c_values(LambdaPoint((0.4,)), Z, Z) == 0.0
    assert m.c_values(LambdaPoint((0.4,)), Z, -Z) == 0.0


def test_family1_perfect_anticorrelation_tables():
    m = family1_model(0.47)
    nodes, _ = m.lambda_space.quadrature
    t, ok = m.tables_masked(nodes, Z, Z)
    assert ok.all()
    # per lambda, not just on average: equal outcomes impossible at b = a
    assert np.all(t[:, 0, 0] == 0.0) and np.all(t[:, 1, 1] == 0.0)
    assert np.all(t[:, 0, 1] == 0.5) and np.all(t[:, 1, 0] == 0.5)
    t, _ = m.tables_masked(nodes, Z, -Z)
    assert np.all(t[:, 0, 0] == 0.5) and np.all(t[:, 0, 1] == 0.0)


def test_family1_quadrature_reproduces_qm():
    m = family1_model()
    nodes, w = m.lambda_space.quadrature
    rng = RandomStream(2).generator()
    for _ in range(10):
        a = sample_uniform_sphere(rng)
        b = sample_uniform_sphere(rng)
        t, _ = m.tables_masked(nodes, a, b)
        assert_allclose(np.einsum("n,nij->ij", w, t), qm_table(a, b), atol=1e-14)


def test_family1_correlator_is_c_minus_dot():
    m = family1_model(0.4)
    lam = LambdaPoint((0.4,))
    corr, ok = m.correlations_masked(lam, Z, X)
    assert ok.tolist() == [True] and corr[0] == pytest.approx(0.4, abs=1e-15)
    b = with_dot(Z, X, 0.25)
    c = m.c_values(lam, Z, b)
    assert m.correlations_masked(lam, Z, b)[0][0] == pytest.approx(c - 0.25, abs=1e-15)


def test_family1_gamma_validation():
    with pytest.raises(ModelSpecError):
        family1_model(0.6)
    with pytest.raises(ModelSpecError):
        family1_model(0.0)
    family1_model(0.5)  # boundary value is admissible


@given(vec3, vec3, st.floats(-0.5, 0.5, allow_nan=False))
@settings(max_examples=80)
def test_family1_entries_admissible_and_marginals_trivial(u, v, g):
    a, b = unit(u), unit(v)
    m = family1_model(0.5)
    t, _ = m.tables_masked(LambdaPoint((g,)).batch(), a, b)
    assert t.min() >= -1e-15 and t.max() <= 0.5 + 1e-15
    assert_allclose(t.sum(axis=2), 0.5, atol=1e-15)
    assert_allclose(t.sum(axis=1), 0.5, atol=1e-15)


# ---------------------------------------------------------------------------
# Family 2: quartic bracket with a unit-vector hidden variable


def test_family2_c_value_frozen():
    # g = 1/2, u = x, a = z, b = (x+z)/sqrt(2):
    # C = -(1/sqrt2) * (0 - 1/2)^2 * 1/2 = -1/(8 sqrt 2)
    m = family2_model()
    lam = LambdaPoint((0.5,), (X,))
    b = unit([1.0, 0.0, 1.0])
    assert m.c_values(lam, Z, b) == pytest.approx(-0.08838834764831845, rel=1e-12)


def test_family2_c_vanishes_on_symmetric_u():
    m = family2_model()
    u = unit([1.0, 0.0, 1.0])  # (a.u)^2 = (b.u)^2 by symmetry
    assert m.c_values(LambdaPoint((0.5,), (u,)), Z, X) == pytest.approx(0.0, abs=1e-15)


def test_family2_quadrature_reproduces_qm():
    m = family2_model(n_polar=32, n_azimuth=64)
    nodes, w = m.lambda_space.quadrature
    rng = RandomStream(3).generator()
    for _ in range(5):
        a = sample_uniform_sphere(rng)
        b = sample_uniform_sphere(rng)
        t, _ = m.tables_masked(nodes, a, b)
        assert_allclose(np.einsum("n,nij->ij", w, t), qm_table(a, b), atol=1e-12)


def test_family2_entries_admissible_on_scan():
    m = family2_model()
    rng = RandomStream(4).generator()
    batch = m.lambda_space.sample(rng, 2000)
    worst = 1.0
    for _ in range(20):
        a = sample_uniform_sphere(rng)
        b = with_dot(a, sample_uniform_sphere(rng), rng.uniform(-1, 1))
        t, _ = m.tables_masked(batch, a, b)
        worst = min(worst, float(t.min()))
        assert t.max() <= 0.5 + 1e-15
    assert worst >= -1e-15


# ---------------------------------------------------------------------------
# The sqrt-envelope counterexample


def test_wrongtrial_goes_negative_near_endpoint():
    m = wrongtrial_model(0.4)
    b = with_dot(Z, X, 1.0 - 1e-4)
    t, _ = m.tables_masked(m.lambda_space.quadrature[0], Z, b)
    assert t.min() < -1e-4  # entry ~ (eps - gamma*sqrt(2 eps))/4 < 0
    sibling = t.max()
    assert sibling > 0.5 + 1e-4  # the paired entry breaks the half bound


def test_wrongtrial_fine_at_generic_angles():
    m = wrongtrial_model(0.4)
    t, _ = m.tables_masked(m.lambda_space.quadrature[0], Z, X)
    assert t.min() >= 0.0 and t.max() <= 0.5


def test_tables_check_raises_with_witness():
    m = wrongtrial_model(0.4)
    b = with_dot(Z, X, 1.0 - 1e-4)
    with pytest.raises(NegativeProbabilityError) as exc:
        m.tables(m.lambda_space.quadrature[0], Z, b, check=True)
    w = exc.value.witness
    assert w["value"] < -1e-12
    assert w["sigma"] in (1, -1) and w["tau"] in (1, -1)
    assert len(w["a"]) == 3 and len(w["lambda"]["scalars"]) == 1


# ---------------------------------------------------------------------------
# Sign model (kernel rule)


def test_cerf_prob_entries_and_normalization():
    u = unit([0.3, 0.4, 0.7])
    v = unit([-0.5, 0.2, 0.6])
    a = unit([0.1, -0.9, 0.3])
    b = unit([0.7, 0.2, -0.5])
    t = cerf_model().tables(LambdaPoint((), (u, v)), a, b)
    assert sorted(t.ravel().tolist()) == [0.0, 0.0, 0.5, 0.5]
    assert abs(t.sum() - 1.0) < 1e-15
    assert_allclose(t.sum(axis=1), 0.5, atol=1e-15)
    assert_allclose(t.sum(axis=0), 0.5, atol=1e-15)


def test_cerf_prob_measure_zero_raises():
    # u orthogonal to a makes sgn(u.a) undefined
    m = cerf_model()
    with pytest.raises(MeasureZeroError):
        m.tables(LambdaPoint((), (Z, unit([0.3, 0.4, 0.5]))), X, unit([0.2, 0.5, 0.8]))
    # v = -u makes n+ vanish
    with pytest.raises(MeasureZeroError):
        m.tables(LambdaPoint((), (Z, -Z)), unit([0.3, 0.4, 0.5]), X)


def test_cerf_perfect_anticorrelation_per_lambda():
    m = cerf_model()
    gen = RandomStream(6).generator()
    batch = m.lambda_space.sample(gen, 5000)
    a = unit([0.2, -0.3, 0.93])
    t, ok = m.tables_masked(batch, a, a)
    assert np.all(t[ok][:, 0, 0] == 0.0) and np.all(t[ok][:, 1, 1] == 0.0)
    t, ok = m.tables_masked(batch, a, -a)
    assert np.all(t[ok][:, 0, 1] == 0.0) and np.all(t[ok][:, 1, 0] == 0.0)
    # implied correction vanishes identically at coincident axes
    c, ok = m.implied_c(batch, a, a)
    assert np.all(c[ok] == 0.0)


def test_cerf_reproduces_qm_mc():
    m = cerf_model()
    gen = RandomStream(7).generator()
    a = unit([0.3, -0.5, 0.81])
    b = unit([-0.2, 0.9, 0.4])
    _, t = sample_valid_tables(m, gen, 400_000, a, b)
    stderr = t.std(axis=0, ddof=1) / np.sqrt(len(t))
    dev = np.abs(t.mean(axis=0) - qm_table(a, b))
    assert np.all(dev < 5.0 * stderr)


def test_sample_valid_tables_redraws_degenerate_rows():
    m = cerf_model()
    gen = RandomStream(8).generator()
    # a = z: any u with u_z = 0 is undefined; inject one by hand
    batch = m.lambda_space.sample(gen, 4)
    batch.vectors[1, 0] = X  # u orthogonal to a
    _, ok = m.tables_masked(batch, Z, unit([0.3, 0.1, 0.95]))
    assert ok.tolist() == [True, False, True, True]
    # the public sampler never returns such rows
    got, t = sample_valid_tables(m, gen, 1000, Z, unit([0.3, 0.1, 0.95]))
    assert len(got) == 1000 and t.shape == (1000, 2, 2)


def test_kernel_redraws_match_table_redraws():
    # a sampler that turns ~10% of the u draws orthogonal to Z forces redraw rounds
    cerf = cerf_model()

    def sampler(gen, n):
        batch = cerf.lambda_space.sampler(gen, n)
        batch.vectors[batch.vectors[:, 0, 0] > 0.8, 0] = X
        return batch

    space = LambdaSpace(sampler)
    m = HiddenVariableModel("holey", space, kernel_rule=cerf.kernel_rule)
    b = unit([0.3, 0.1, 0.95])
    got_t, t = sample_valid_tables(m, RandomStream(9).generator(), 1000, Z, b)
    got_k, k = _sample_valid(m, m.kernel_masked, RandomStream(9).generator(), 1000, Z, b)
    assert len(got_k) == 1000 and k.shape == (1000,)
    assert np.array_equal(got_k.vectors, got_t.vectors)
    assert np.array_equal(_tables_from_kernel(k), t)


def _one_call_sample_valid(model, evaluate, gen, n, a, b):
    """The redraw loop with one ``evaluate`` per round: the oracle for ``_sample_valid``."""
    batches, values, need = [], [], n
    while need > 0:
        cand = model.lambda_space.sample(gen, need)
        v, ok = evaluate(cand, a, b)
        batches.append(cand.take(ok))
        values.append(v[ok])
        need -= int(np.count_nonzero(ok))
    return LambdaBatch.concat(batches), np.concatenate(values, axis=0)


def _holey_cerf():
    cerf = cerf_model()

    def sampler(gen, n):  # ~10% of the u draws orthogonal to Z force redraw rounds
        batch = cerf.lambda_space.sampler(gen, n)
        batch.vectors[batch.vectors[:, 0, 0] > 0.8, 0] = X
        return batch

    return HiddenVariableModel("holey", LambdaSpace(sampler),
                               kernel_rule=cerf.kernel_rule)


@pytest.mark.parametrize("evaluator", ["kernel_masked", "tables_masked", "correlations_masked"])
@pytest.mark.parametrize("name", ["cerf", "family2", "wrongtrial", "recipe", "holey"])
def test_chunked_sample_valid_is_one_evaluate_call(name, evaluator):
    m = {"recipe": lambda: build_recipe_model("cross_uab", 1.0),
         "holey": _holey_cerf}.get(name, lambda: builtin_model(name))()
    n = 3 * 16384 + 4465
    b = unit([0.3, 0.1, 0.95])
    got, v = _sample_valid(m, getattr(m, evaluator), RandomStream(31).generator(), n, Z, b)
    want, w = _one_call_sample_valid(m, getattr(m, evaluator), RandomStream(31).generator(),
                                     n, Z, b)
    assert len(got) == n and v.shape == w.shape and v.dtype == w.dtype
    assert got.scalars.tobytes() == want.scalars.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert v.tobytes() == w.tobytes()


def _normalized_cerf_kernel(U, V, a, b):
    """The sign kernel with explicitly normalized u +- v: the reference rule."""
    su_arg = U @ a
    sv_arg = V @ a
    nplus = U + V
    nminus = U - V
    nplus_norm = np.linalg.norm(nplus, axis=-1)
    nminus_norm = np.linalg.norm(nminus, axis=-1)
    ok = (nplus_norm > SIGN_EPS) & (nminus_norm > SIGN_EPS)
    np_b = np.where(ok, (nplus @ b) / np.where(ok, nplus_norm, 1.0), 0.0)
    nm_b = np.where(ok, (nminus @ b) / np.where(ok, nminus_norm, 1.0), 0.0)
    ok &= (np.abs(su_arg) > SIGN_EPS) & (np.abs(sv_arg) > SIGN_EPS)
    ok &= (np.abs(np_b) > SIGN_EPS) & (np.abs(nm_b) > SIGN_EPS)
    su = np.sign(su_arg)
    sp = np.sign(np_b)
    x = su * np.sign(sv_arg)
    y = sp * np.sign(nm_b)
    h = (1.0 + x + y - x * y) / 2.0
    return su * sp * h, ok


def _assert_kernel_matches_oracle(U, V, a, b):
    k, ok = _cerf_kernel(U, V, a, b)
    k_ref, ok_ref = _normalized_cerf_kernel(U, V, a, b)
    assert np.array_equal(ok, ok_ref)
    assert np.array_equal(k[ok], k_ref[ok])
    return ok


def test_cerf_kernel_matches_normalized_rule_on_random_rows():
    gen = RandomStream(31).generator()
    U = sample_uniform_sphere(gen, 65536)
    V = sample_uniform_sphere(gen, 65536)
    for _ in range(4):
        a, b = sample_uniform_sphere(gen), sample_uniform_sphere(gen)
        _assert_kernel_matches_oracle(U, V, a, b)


def test_cerf_kernel_matches_normalized_rule_on_adversarial_rows():
    gen = RandomStream(32).generator()
    a, b = sample_uniform_sphere(gen), sample_uniform_sphere(gen)
    U = sample_uniform_sphere(gen, 400)
    V = sample_uniform_sphere(gen, 400)
    V[:50] = -U[:50]                                   # u + v = 0
    V[50:100] = U[50:100]                              # u - v = 0
    perp = U[100:150] - np.outer(U[100:150] @ a, a)    # u orthogonal to a
    U[100:150] = perp / np.linalg.norm(perp, axis=1)[:, None]
    # (u + v).b, then (u - v).b, within a few SIGN_EPS of zero: inside the
    # 2.5*SIGN_EPS band that reruns the normalized test, and just outside it
    for i in range(150, 400):
        sign = 1.0 if i < 275 else -1.0
        vb = sign * (gen.uniform(-4e-12, 4e-12) - U[i] @ b)
        t = sample_uniform_sphere(gen)
        t -= (t @ b) * b
        V[i] = vb * b + np.sqrt(1.0 - vb * vb) * t / np.linalg.norm(t)
    ok = _assert_kernel_matches_oracle(U, V, a, b)
    assert not ok[:150].any()
    assert ok[150:].any() and not ok[150:].all()


def test_cerf_kernel_is_the_larger_projection_rule():
    # Cerf, Gisin, Massar & Popescu (2005): with w whichever of u, v has the
    # larger |.b|, k = sgn(w.a) sgn(w.b) on every valid row. A tie
    # |u.b| = |v.b| puts (u -+ v).b at 0, inside the masked band.
    m = cerf_model()
    gen = RandomStream(71).generator()
    valid = 0
    for _ in range(40):
        a, b = sample_uniform_sphere(gen), sample_uniform_sphere(gen)
        batch = m.lambda_space.sample(gen, 16384)
        U, V = batch.vectors[:, 0], batch.vectors[:, 1]
        k, ok = _cerf_kernel(U, V, a, b)
        W = np.where((np.abs(U @ b) > np.abs(V @ b))[:, None], U, V)
        assert np.array_equal(k[ok], (np.sign(W @ a) * np.sign(W @ b))[ok])
        valid += int(ok.sum())
    assert valid == 40 * 16384


_MASKS = {"random": lambda gen, n: gen.random(n) < 0.5,
          "all-true": lambda gen, n: np.ones(n, dtype=bool),
          "all-false": lambda gen, n: np.zeros(n, dtype=bool)}


@pytest.mark.parametrize("kind", sorted(_MASKS))
def test_signs_match_where_form(kind):
    mask = _MASKS[kind](RandomStream(34).generator(), 16384)
    got = _signs(mask)
    assert got.dtype == np.float64 and got.tobytes() == np.where(mask, -1.0, 1.0).tobytes()


def test_cerf_kernel_signs_match_where_form():
    # u.a, v.a > 0 with (u + v).b > 0 flips no row, and with (u + v).b < 0 every row;
    # random rows are checked against the normalized rule above
    gen = RandomStream(35).generator()
    U = sample_uniform_sphere(gen, 4096)
    V = sample_uniform_sphere(gen, 4096)
    U[:, 2] = np.abs(U[:, 2])
    V[:, 2] = np.abs(V[:, 2])
    for b, flip in ((Z, False), (-Z, True)):
        k, ok = _cerf_kernel(U, V, Z, b)
        assert ok.sum() > 4000
        assert k.tobytes() == np.where(np.full(len(U), flip), -1.0, 1.0).tobytes()


@pytest.mark.parametrize("gamma", [0.4, 0.0, -0.3])
@pytest.mark.parametrize("weights", [(0.5, 0.5), (1.0, 1e-12), (1e-12, 1.0)],
                         ids=["random", "all-plus", "all-minus"])
def test_two_point_sampler_matches_where_form(gamma, weights):
    space = _scalar_two_point_space(gamma, weights)
    got = space.sample(RandomStream(36).generator(), 16384).scalars[:, 0]
    pick = RandomStream(36).generator().random(16384) < weights[0]
    assert got.tobytes() == np.where(pick, gamma, -gamma).tobytes()
    if weights != (0.5, 0.5):
        assert pick.all() or not pick.any()


def test_cerf_model_has_kernel_rule():
    m = cerf_model()
    assert m.has_kernel and m.table_rule is None and not m.is_canonical
    gen = RandomStream(33).generator()
    batch = m.lambda_space.sample(gen, 1000)
    a, b = unit([0.3, -0.5, 0.81]), unit([-0.2, 0.9, 0.4])
    k, ok = m.kernel_masked(batch, a, b)
    t, ok_t = m.tables_masked(batch, a, b)
    assert np.array_equal(ok, ok_t)
    assert_allclose(t, (1.0 - np.array([[1.0, -1.0], [-1.0, 1.0]]) * k[:, None, None]) / 4.0,
                    rtol=0, atol=0)
    corr, _ = m.correlations_masked(batch, a, b)
    assert np.array_equal(corr[ok], -k[ok])


DISPATCH_MODELS = {
    "family1": lambda: builtin_model("family1"),
    "family2": lambda: family2_model(n_polar=8, n_azimuth=16),
    "wrongtrial": lambda: builtin_model("wrongtrial"),
    "cerf": lambda: builtin_model("cerf"),
    "recipe-square-s2": lambda: build_recipe_model("square", 2.0),
    "recipe-cross_uab-s1": lambda: build_recipe_model("cross_uab", 1.0, n_polar=8, n_azimuth=16),
}


@pytest.mark.parametrize("name", DISPATCH_MODELS)
def test_rule_style_dispatch(name):
    # the model alone maps its rule style to C, the correlator and lambda nodes
    m = DISPATCH_MODELS[name]()
    gen = RandomStream(35).generator()
    nodes, w = m.lambda_space.nodes(RandomStream(36), 3000)
    if m.lambda_space.quadrature is not None:
        assert nodes is m.lambda_space.quadrature[0] and w is m.lambda_space.quadrature[1]
    else:
        drawn = m.lambda_space.sample(RandomStream(36), 3000)
        assert np.array_equal(nodes.vectors, drawn.vectors)
        assert np.array_equal(nodes.scalars, drawn.scalars)
        assert np.array_equal(w, np.full(3000, 1.0 / 3000))
    for _ in range(4):
        a, b = sample_uniform_sphere(gen), sample_uniform_sphere(gen)
        c, ok = m.implied_c(nodes, a, b)
        if m.is_canonical:
            assert ok.all() and np.array_equal(c, m.c_values(nodes, a, b))
        else:
            k, ok_k = m.kernel_masked(nodes, a, b)
            assert np.array_equal(ok, ok_k) and np.array_equal(c, dot(a, b) - k)
        corr, ok_corr = m.correlations_masked(nodes, a, b)
        tables, ok_t = m.tables_masked(nodes, a, b)
        assert np.array_equal(ok_corr, ok_t)
        sigma_tau = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert_allclose(corr, np.einsum("nij,ij->n", tables, sigma_tau), rtol=0, atol=4.4e-16)


def test_model_needs_exactly_one_rule():
    m = cerf_model()
    with pytest.raises(ValueError, match="exactly one"):
        HiddenVariableModel("none", m.lambda_space)
    with pytest.raises(ValueError, match="exactly one"):
        HiddenVariableModel("two", m.lambda_space, kernel_rule=m.kernel_rule,
                            table_rule=lambda batch, a, b: m.tables_masked(batch, a, b))


# ---------------------------------------------------------------------------
# Lambda plumbing


def test_lambda_batch_point_take_concat():
    b = LambdaBatch(np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 0, 3)))
    assert len(b) == 3
    assert b.point(1).scalars == (2.0,)
    assert len(b.take([0, 2])) == 2
    assert len(LambdaBatch.concat([b, b.take([1])])) == 4
    with pytest.raises(ValueError):
        LambdaBatch(np.zeros((2, 1)), np.zeros((3, 0, 3)))


def test_lambda_point_batch_roundtrip():
    p = LambdaPoint((0.2,), (unit([1.0, 2.0, 2.0]),))
    b = p.batch()
    assert len(b) == 1
    q = b.point(0)
    assert q.scalars == p.scalars
    assert_allclose(q.vectors[0], p.vectors[0])


def test_sampler_determinism_per_family():
    for name in ("family1", "family2", "wrongtrial", "cerf"):
        m = builtin_model(name)
        s = RandomStream(11).split(2)
        b1 = m.lambda_space.sample(s, 64)
        b2 = m.lambda_space.sample(s, 64)
        assert np.array_equal(b1.scalars, b2.scalars)
        assert np.array_equal(b1.vectors, b2.vectors)


def test_vector_samplers_match_stacked_sphere_draws():
    # samplers fill one (n, nv, 3) block in place; a stack/concatenate of
    # sample_uniform_sphere draws from the same stream is the reference
    n = 1000
    cerf = cerf_model().lambda_space.sample(RandomStream(21).generator(), n)
    gen = RandomStream(21).generator()
    u = sample_uniform_sphere(gen, n)
    v = sample_uniform_sphere(gen, n)
    assert np.array_equal(cerf.vectors, np.stack([u, v], axis=1))
    assert cerf.scalars.shape == (n, 0)

    for measure in ("two_point", "uniform"):
        fam2 = family2_model(measure=measure).lambda_space.sample(
            RandomStream(22).generator(), n)
        gen = RandomStream(22).generator()
        base = _scalar_space("family2", measure, 0.5, default_nodes=8)[0].sampler(gen, n)
        u = sample_uniform_sphere(gen, n)
        assert np.array_equal(fam2.scalars, base.scalars)
        assert np.array_equal(fam2.vectors,
                              np.concatenate([base.vectors, u[:, None, :]], axis=1))


def test_two_point_weights_drive_the_measure():
    m = family1_model(0.4, weights=(0.75, 0.25))
    nodes, w = m.lambda_space.quadrature
    assert_allclose(w, [0.75, 0.25])
    gen = RandomStream(12).generator()
    draws = m.lambda_space.sample(gen, 40_000).scalars[:, 0]
    frac = np.mean(draws > 0)
    assert abs(frac - 0.75) < 0.01


# ---------------------------------------------------------------------------
# Constructive recipe


def test_frobenius_bound_values():
    assert frobenius_bound(1.0) == 0.5
    assert frobenius_bound(2.0) == pytest.approx(27.0 / 32.0, rel=1e-15)
    assert frobenius_bound(1.5) == pytest.approx(0.7698003589195010, rel=1e-12)
    assert frobenius_bound(2.0) > frobenius_bound(1.0)
    with pytest.raises(ValueError):
        frobenius_bound(0.5)


def test_recipe_poly1_scale_matches_budget():
    m = build_recipe_model("poly1", 1.0)
    # f = lambda on U[-1,1]: centered sup is 1, budget 1/2, so 0.99 * 0.5
    assert m.spec["parameters"]["scale"] == pytest.approx(0.495, abs=1e-3)
    assert m.declared_exponents == (1.0, 1.0)


def test_recipe_square_needs_no_rescale():
    m = build_recipe_model("square", 2.0)
    # sup |lambda^2 - 1/3| = 2/3 < 27/32, so the raw g already fits
    assert m.spec["parameters"]["scale"] == 1.0


def test_recipe_zero_average_and_qm_on_quadrature():
    rng = RandomStream(13).generator()
    for name, s in (("poly1", 1.0), ("poly3", 1.0), ("square", 2.0), ("cross_uab", 1.0)):
        kw = {"n_polar": 16, "n_azimuth": 32} if RECIPE_REGISTRY[name].needs_vector else {}
        m = build_recipe_model(name, s, **kw)
        nodes, w = m.lambda_space.quadrature
        for _ in range(4):
            a = sample_uniform_sphere(rng)
            b = sample_uniform_sphere(rng)
            assert abs(np.sum(w * m.c_values(nodes, a, b))) < 1e-12
            t, _ = m.tables_masked(nodes, a, b)
            assert_allclose(np.einsum("n,nij->ij", w, t), qm_table(a, b), atol=1e-12)
            assert t.min() >= -1e-15 and t.max() <= 0.5 + 1e-15


def test_recipe_positivity_near_endpoints():
    m = build_recipe_model("poly1", 1.0)
    nodes, _ = m.lambda_space.quadrature
    for eps in (1e-2, 1e-5, 1e-8):
        for sign in (1.0, -1.0):
            b = with_dot(Z, X, sign * (1.0 - eps))
            t, _ = m.tables_masked(nodes, Z, b)
            assert t.min() >= -1e-15 and t.max() <= 0.5 + 1e-15


def test_recipe_rejects_bad_inputs():
    with pytest.raises(ModelSpecError):
        build_recipe_model("nope", 1.0)
    with pytest.raises(ModelSpecError):
        build_recipe_model("poly1", 0.5)
    with pytest.raises(ModelSpecError):
        build_recipe_model("poly1", 1.0, gamma=1.5)


def test_recipe_mean_cache_is_thread_safe():
    # more distinct settings than the cache holds, so the threads keep clearing it
    m = build_recipe_model("cross_uab", 1.0, seed=5, n_polar=8, n_azimuth=16)
    nodes, _ = m.lambda_space.quadrature
    gen = RandomStream(34).generator()
    settings = list(zip(sample_uniform_sphere(gen, 150), sample_uniform_sphere(gen, 150)))
    serial = [m.c_values(nodes, a, b) for a, b in settings]

    def sweep(order):
        return [(i, m.c_values(nodes, *settings[i])) for _ in range(4) for i in order]

    idx = list(range(len(settings)))
    orders = [idx, idx[::-1], idx[50:] + idx[:50], idx[100:] + idx[:100]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            runs = [f.result(timeout=120) for f in [pool.submit(sweep, o) for o in orders]]
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        assert len(run) == 4 * len(settings)
        for i, vals in run:
            assert np.array_equal(vals, serial[i])


def test_recipe_mean_is_the_quadrature_sum():
    # the mean fixed at build time against the per-pair sum it replaces, on a
    # symmetric and an asymmetric measure (where <lambda> and <f> are not 0)
    gen = RandomStream(71).generator()
    axes = sample_uniform_sphere(gen, 12)
    pairs = list(zip(axes[:6], axes[6:])) + [(a, a) for a in axes[:3]] + [(a, -a) for a in axes[3:6]]
    for name, f in RECIPE_REGISTRY.items():
        for kw in ({"measure": "uniform", "gamma": 0.8},
                   {"measure": "two_point", "weights": (0.3, 0.7)}):
            grid = {"n_polar": 8, "n_azimuth": 16} if f.needs_vector else {}
            m = build_recipe_model(name, 1.5, **grid, **kw)
            nodes, w = m.lambda_space.quadrature
            mean = _recipe_mean(f, nodes, w)
            scale = m.spec["parameters"]["scale"]
            for a, b in pairs:
                fvals = f.fn(nodes, a, b)
                direct = float(np.sum(w * fvals))
                x = setting_dot(a, b)
                per_pair_c = (1.0 - x * x) ** 1.5 * (scale * (fvals - direct))
                if f.setting_dependent:
                    assert abs(mean(a, b) - direct) <= 1e-15, (name, kw)
                    assert_allclose(m.c_values(nodes, a, b), per_pair_c, rtol=0, atol=1e-15)
                else:  # one float, the same sum: bit for bit
                    assert mean(a, b) == direct, (name, kw)
                    assert np.array_equal(m.c_values(nodes, a, b), per_pair_c)


def test_recipe_and_weights_reject_non_finite_numbers():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelSpecError, match="s must|exponent"):
            build_recipe_model("square", bad)
        with pytest.raises(ModelSpecError, match="gamma"):
            build_recipe_model("square", 2.0, gamma=bad)
        with pytest.raises(ModelSpecError, match="weights"):
            build_recipe_model("poly1", 1.0, measure="two_point", weights=(bad, 0.5))
        with pytest.raises(ModelSpecError, match="weights"):
            model_from_spec({"family": "family1", "parameters": {"weights": [0.5, bad]}})


def test_recipe_probe_rows_give_the_quadrature_values():
    # the builder's sup probe takes each pair's quadrature mean from the probe's
    # first rows, which must be f over the nodes bit for bit (the stored scale
    # keeps its bits)
    gen = RandomStream(72).generator()
    pairs = list(zip(sample_uniform_sphere(gen, 8), sample_uniform_sphere(gen, 8)))
    for name, f in RECIPE_REGISTRY.items():
        for measure in ("uniform", "two_point"):
            space = build_recipe_model(name, 1.0, measure=measure).lambda_space
            nodes, w = space.quadrature
            probe = LambdaBatch.concat([nodes, space.sample(gen, 4096)])
            for a, b in pairs:
                assert np.array_equal(f.fn(probe, a, b)[:len(nodes)], f.fn(nodes, a, b))


def test_recipe_build_is_deterministic():
    a = build_recipe_model("cross_uab", 1.0, seed=5, n_polar=8, n_azimuth=16)
    b = build_recipe_model("cross_uab", 1.0, seed=5, n_polar=8, n_azimuth=16)
    assert a.spec == b.spec


# ---------------------------------------------------------------------------
# Spec I/O


def test_model_from_spec_roundtrip(tmp_path):
    spec = {"family": "family1", "scalar_measure": "two_point", "gamma": 0.4, "seed": 3}
    m = model_from_spec(spec)
    assert m.name == "family1"
    assert m.spec["gamma"] == 0.4 and m.spec["seed"] == 3
    p = tmp_path / "m.json"
    p.write_text(json.dumps(m.spec))
    m2 = load_model(p)
    assert m2.spec == m.spec


def test_model_from_spec_rejects_garbage():
    with pytest.raises(ModelSpecError, match="family"):
        model_from_spec({"family": "familyX"})
    with pytest.raises(ModelSpecError, match="unknown model spec keys"):
        model_from_spec({"family": "family1", "gama": 0.4})
    with pytest.raises(ModelSpecError, match="unknown parameter keys"):
        model_from_spec({"family": "family1", "parameters": {"bogus": 1}})
    with pytest.raises(ModelSpecError, match="seed"):
        model_from_spec({"family": "family1", "seed": "zero"})
    with pytest.raises(ModelSpecError, match="gamma"):
        model_from_spec({"family": "family1", "gamma": "wide"})
    with pytest.raises(ModelSpecError):
        model_from_spec({"family": "family1", "gamma": 0.7})
    with pytest.raises(ModelSpecError):
        model_from_spec([1, 2])


def test_model_from_spec_recipe_uses_stored_scale():
    built = build_recipe_model("poly1", 1.0, seed=2)
    again = model_from_spec(built.spec)
    nodes, _ = again.lambda_space.quadrature
    assert_allclose(
        again.c_values(nodes, Z, X), built.c_values(nodes, Z, X), rtol=0, atol=0
    )


def test_model_from_spec_grid_override():
    m = model_from_spec({"family": "family2"}, grid_n=8)
    nodes, _ = m.lambda_space.quadrature
    assert len(nodes) == 2 * 8 * 16  # two scalar atoms times the 8x16 sphere grid


_BUILDERS = {"family1": family1_model, "family2": family2_model,
             "wrongtrial": wrongtrial_model,
             "recipe": lambda **kw: build_recipe_model("cross_uab", 1.0, **kw)}


@pytest.mark.parametrize("family, measure, params", [
    *((family, measure, {}) for family in _BUILDERS for measure in (None, "two_point", "uniform")),
    ("family2", None, {"n_polar": 8}),
])
def test_spec_without_optional_keys_takes_the_builder_defaults(family, measure, params):
    kw = {"measure": measure} if measure else {}
    built = _BUILDERS[family](**kw, **params)
    spec = {"family": family, "parameters": dict(params)}
    if measure:
        spec["scalar_measure"] = measure
    if family == "recipe":  # f and s have no defaults; scale is probed as the builder does
        spec["s"], spec["parameters"]["f"] = 1.0, "cross_uab"
    loaded = model_from_spec(spec)
    assert loaded.spec == built.spec
    (bn, bw), (ln, lw) = built.lambda_space.quadrature, loaded.lambda_space.quadrature
    assert ln.scalars.tobytes() == bn.scalars.tobytes()
    assert ln.vectors.tobytes() == bn.vectors.tobytes()
    assert lw.tobytes() == bw.tobytes()


def test_every_builder_spec_loads_back():
    models = [builtin_model(name) for name in ("family1", "family2", "wrongtrial", "cerf")]
    for measure in ("two_point", "uniform"):
        models += [family1_model(measure=measure), wrongtrial_model(measure=measure),
                   family2_model(measure=measure, n_polar=8, n_azimuth=16)]
        models += [build_recipe_model(name, 1.5, measure=measure,
                                      **({"n_polar": 8, "n_azimuth": 16} if f.needs_vector
                                         else {}))
                   for name, f in RECIPE_REGISTRY.items()]
    for m in models:
        spec = json.loads(json.dumps(m.spec))
        assert model_from_spec(spec).spec == spec, spec


@pytest.mark.parametrize("builder", [family1_model, wrongtrial_model, family2_model])
def test_scalar_builders_reject_keywords_the_measure_never_reads(builder):
    # a value equal to the default is rejected too: the default is None
    with pytest.raises(ModelSpecError, match=r"uniform measure does not read spec keys \['weights'\]"):
        builder(measure="uniform", weights=[0.1, 0.9])
    with pytest.raises(ModelSpecError, match=r"two_point measure does not read spec keys \['n_nodes'\]"):
        builder(n_nodes=16)
    assert builder(measure="uniform", n_nodes=4).spec["parameters"]["n_nodes"] == 4
    assert builder(weights=[0.25, 0.75]).spec["parameters"]["weights"] == [0.25, 0.75]


def test_family2_reads_its_sphere_on_either_measure():
    for measure in ("two_point", "uniform"):
        m = family2_model(measure=measure, n_polar=4, n_azimuth=6)
        assert (m.spec["parameters"]["n_polar"], m.spec["parameters"]["n_azimuth"]) == (4, 6)
    assert family2_model().spec == family2_model(n_polar=64, n_azimuth=128).spec


def test_recipe_builder_rejects_keywords_it_never_reads():
    # poly1 has no hidden vector: a sphere size is unread, and no cap applies
    with pytest.raises(ModelSpecError, match=r"does not read spec keys \['n_polar'\]"):
        build_recipe_model("poly1", 1.0, n_polar=10**6)
    with pytest.raises(ModelSpecError, match=r"does not read spec keys \['n_azimuth', 'n_polar'\]"):
        build_recipe_model("square", 2.0, n_polar=32, n_azimuth=64)
    with pytest.raises(ModelSpecError, match=r"n_polar must be <= 1024"):
        build_recipe_model("cross_uab", 1.0, n_polar=10**6)
    with pytest.raises(ModelSpecError, match=r"does not read spec keys \['weights'\]"):
        build_recipe_model("poly1", 1.0, weights=[0.5, 0.5])
    with pytest.raises(ModelSpecError, match=r"does not read spec keys \['n_nodes'\]"):
        build_recipe_model("poly1", 1.0, measure="two_point", n_nodes=16)
    assert build_recipe_model("cross_uab", 1.0).spec == build_recipe_model(
        "cross_uab", 1.0, n_polar=32, n_azimuth=64).spec


def test_builtin_model_names():
    for name in ("family1", "family2", "wrongtrial", "cerf"):
        assert builtin_model(name).name == name


# ---------------------------------------------------------------------------
# Monte Carlo moments


def test_mc_estimates_under_many_workers_keep_the_serial_bytes(monkeypatch):
    # k = +1 on a rare lambda set: most 64-row blocks show no spread and a
    # few do, and the workers each see a different share of the blocks; the
    # merged spread, and so the estimates, must not depend on the share
    from hvsinglet import geometry

    def rule(batch, a, b):
        k = np.where(batch.vectors[:, 0, 2] > 0.99, 1.0, -1.0)
        return k, np.ones(len(batch), dtype=bool)

    model = HiddenVariableModel("rare-spread", cerf_model().lambda_space, kernel_rule=rule)
    pairs = [(Z, X), (X, Z)]

    def run(threads):
        job = (RandomStream(62), pairs, model.kernel_masked, _Moments.of)
        [stats] = _mc_means(model, [job], 200 * 64, threads=threads)
        return [np.array(s, dtype=float) for s in stats]

    monkeypatch.setattr(models, "_MC_BLOCK", 64)
    serial = run(1)
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 8)
    for workers in (2, 3, 8):
        for got, want in zip(run(workers), serial):
            assert np.array_equal(got, want)
