import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hvsinglet.geometry import (
    UNIT_ATOL,
    GeometryError,
    RandomStream,
    as_generator,
    dot,
    require_unit,
    sample_uniform_sphere,
    sphere_quadrature,
    unit,
    with_dot,
)
from hvsinglet.models import setting_dot

vec3 = st.tuples(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
).filter(lambda t: t[0] * t[0] + t[1] * t[1] + t[2] * t[2] > 1e-4)


def test_unit_normalizes():
    v = unit([0.0, 0.0, 2.5])
    assert_allclose(v, [0.0, 0.0, 1.0])


def test_unit_rejects_zero_and_bad_shape():
    with pytest.raises(GeometryError):
        unit([0.0, 0.0, 0.0])
    with pytest.raises(GeometryError):
        unit([1.0, 0.0])


def test_dot_requires_unit_inputs():
    with pytest.raises(GeometryError):
        dot([2.0, 0.0, 0.0], [1.0, 0.0, 0.0])


@given(vec3, vec3)
def test_dot_clamped_to_interval(u, v):
    a, b = unit(u), unit(v)
    assert -1.0 <= dot(a, b) <= 1.0


def test_sample_sphere_shapes_and_norms():
    rng = RandomStream(7).generator()
    one = sample_uniform_sphere(rng)
    assert one.shape == (3,)
    many = sample_uniform_sphere(rng, 5000)
    assert many.shape == (5000, 3)
    assert_allclose(np.linalg.norm(many, axis=1), 1.0, atol=1e-12)


def test_sample_sphere_moments():
    # E[u] = 0 and E[(e.u)^2] = 1/3 for the uniform measure.
    rng = RandomStream(11).generator()
    u = sample_uniform_sphere(rng, 200_000)
    assert np.all(np.abs(u.mean(axis=0)) < 5e-3)
    assert_allclose((u**2).mean(axis=0), 1.0 / 3.0, atol=5e-3)


def test_random_stream_reproducible():
    s = RandomStream(123, 5)
    x = s.generator().standard_normal(16)
    y = s.generator().standard_normal(16)
    assert np.array_equal(x, y)


def test_random_stream_split_is_nested_packing():
    s = RandomStream(9)
    assert s.split(3).split(4) == s.split(3, 4)
    assert s.split(0) != s.split(0, 0)
    ids = {s.split(i, j).stream for i in range(8) for j in range(8)}
    assert len(ids) == 64


def test_random_stream_split_rejects_out_of_range():
    s = RandomStream(0)
    with pytest.raises(GeometryError):
        s.split(-1)
    with pytest.raises(GeometryError):
        s.split(1 << 20)


def test_distinct_streams_decorrelated():
    s = RandomStream(42)
    a = s.split(1).generator().random(4096)
    b = s.split(2).generator().random(4096)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


def test_as_generator_accepts_both():
    s = RandomStream(1)
    g = s.generator()
    assert as_generator(s).random() == s.generator().random()
    assert as_generator(g) is g
    with pytest.raises(TypeError):
        as_generator(3)


def test_sphere_quadrature_weights_and_nodes():
    grid = sphere_quadrature(32, 64)
    assert len(grid) == 32 * 64
    assert abs(grid.weights.sum() - 1.0) < 1e-12
    assert_allclose(np.linalg.norm(grid.nodes, axis=1), 1.0, atol=1e-12)


def test_sphere_quadrature_polynomial_moments():
    grid = sphere_quadrature(16, 32)
    z = grid.nodes[:, 2]
    assert abs(np.sum(grid.weights * z)) < 1e-14
    assert abs(np.sum(grid.weights * z**2) - 1.0 / 3.0) < 1e-13
    assert abs(np.sum(grid.weights * z**4) - 1.0 / 5.0) < 1e-13
    # mixed moment E[x^2 y^2] = 1/15
    xy = grid.nodes[:, 0] ** 2 * grid.nodes[:, 1] ** 2
    assert abs(np.sum(grid.weights * xy) - 1.0 / 15.0) < 1e-13


def test_sphere_quadrature_quartic_form_identity():
    # E[(u^T M u)^2] = ((tr M)^2 + 2 tr(M^2)) / 15 for symmetric M.
    rng = RandomStream(3).generator()
    grid = sphere_quadrature(16, 32)
    m = rng.standard_normal((3, 3))
    m = 0.5 * (m + m.T)
    q = np.einsum("ni,ij,nj->n", grid.nodes, m, grid.nodes)
    expected = (np.trace(m) ** 2 + 2.0 * np.trace(m @ m)) / 15.0
    assert abs(np.sum(grid.weights * q**2) - expected) < 1e-12


@given(vec3, vec3, st.floats(-1.0, 1.0, allow_nan=False))
@settings(max_examples=60)
def test_with_dot_hits_target(u, v, target):
    a = unit(u)
    d = unit(v)
    if abs(np.dot(a, d)) > 1.0 - 1e-6:
        return
    b = with_dot(a, d, target)
    assert abs(np.linalg.norm(b) - 1.0) < 1e-12
    assert abs(float(np.dot(a, b)) - target) < 1e-12


def test_with_dot_endpoint_exact():
    a = unit([0.3, -0.4, 0.87])
    b = with_dot(a, [0.0, 1.0, 0.0], 1.0 - 1e-9)
    assert abs(float(np.dot(a, b)) - (1.0 - 1e-9)) < 1e-15


# ---------------------------------------------------------------------------
# The 3-vector helpers against the numpy formulas they replace (the oracles)


def _old_require_unit(v, *, name="vector"):
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 3:
        raise GeometryError(f"{name}: expected 3 components, got shape {v.shape}")
    n = np.linalg.norm(v, axis=-1)
    if not np.all(np.abs(n - 1.0) <= UNIT_ATOL):
        worst = float(np.max(np.abs(n - 1.0)))
        raise GeometryError(f"{name} is not unit length (|norm-1| = {worst:.3e})")
    return v


def _old_unit(v):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise GeometryError("cannot normalize a (near-)zero vector")
    return v / n


def _old_dot(a, b):
    a = _old_require_unit(a, name="a")
    b = _old_require_unit(b, name="b")
    return float(np.clip(np.dot(a, b), -1.0, 1.0))


def _old_setting_dot(a, b):
    x = float(np.clip(np.dot(a, b), -1.0, 1.0))
    if abs(x) > 1.0 - 1e-14:
        return 1.0 if x > 0 else -1.0
    return x


def _old_with_dot(a, direction, target):
    a = _old_require_unit(a, name="a")
    t = float(target)
    if not (-1.0 <= t <= 1.0):
        raise GeometryError(f"target dot {t} outside [-1, 1]")
    d = np.asarray(direction, dtype=float)
    perp = d - np.dot(d, a) * a
    norm = float(np.linalg.norm(perp))
    if norm < 1e-9:
        raise GeometryError("direction is (anti)parallel to a, no tilt plane")
    b = t * a + np.sqrt(max(0.0, 1.0 - t * t)) * (perp / norm)
    return b / np.linalg.norm(b)


def _outcome(fn, *args):
    """Result bits (sign of zero and NaN included), or the error raised."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return type(out).__name__, np.asarray(out, dtype=float).tobytes()


def _helper_inputs():
    gen = RandomStream(61).generator()
    units = sample_uniform_sphere(gen, 400)
    # lengths straddling the UNIT_ATOL gate, a few ulp from each side of it
    scale = 1.0 + np.concatenate([gen.uniform(-2e-9, 2e-9, 200),
                                  UNIT_ATOL * (1.0 + gen.uniform(-1e-6, 1e-6, 100)),
                                  -UNIT_ATOL * (1.0 + gen.uniform(-1e-6, 1e-6, 100))])
    vectors = list(units) + list(units * scale[:, None])
    odd = [np.array([np.nan, 0.0, 1.0]), np.array([0.0, np.inf, 0.0]), np.zeros(3),
           np.array([1e-13, 0.0, 0.0]), np.array([1e200, 0.0, 0.0]), np.array([0.0, -0.0, -1.0]),
           [0.0, 0.0, 1.0]]
    return gen, units, vectors + odd


def test_vector_helpers_match_numpy_formulas():
    gen, units, vectors = _helper_inputs()
    for v in vectors:
        assert _outcome(require_unit, v) == _outcome(_old_require_unit, v)
        assert _outcome(unit, v) == _outcome(_old_unit, v)
    for shape in [(2,), (4,), (5, 3), (2, 4), (0, 3)]:
        v = unit([1.0, 2.0, 2.0]) * np.ones(shape[:-1] + (1,)) if shape[-1] == 3 else np.ones(shape)
        assert _outcome(require_unit, v) == _outcome(_old_require_unit, v)
        assert _outcome(unit, v) == _outcome(_old_unit, v)
    pairs = [(vectors[i], vectors[-1 - i]) for i in range(len(vectors))]
    for a in units[:100]:
        t = sample_uniform_sphere(gen)
        for x in (1.0, -1.0, 1.0 - 1e-15, -1.0 + 1e-15, 1.0 - 1e-9, 0.0):
            pairs.append((a, _old_with_dot(a, t, x)))
        pairs += [(a, a), (a, -a), (a, np.array([np.nan, 0.0, 0.0]))]
    for a, b in pairs:
        assert _outcome(dot, a, b) == _outcome(_old_dot, a, b)
        assert _outcome(setting_dot, a, b) == _outcome(_old_setting_dot, a, b)
    targets = [1.0, -1.0, 0.0, 1.0 - 1e-9, -1.0 + 1e-15, 1.5, np.nan, *gen.uniform(-1, 1, 5)]
    directions = [sample_uniform_sphere(gen), [0.0, 0.0, 2.0], [np.nan, 1.0, 0.0], np.zeros(3)]
    for a in list(units[:40]) + [np.array([0.0, 0.0, 1.0]), np.array([2.0, 0.0, 0.0])]:
        for d in directions + [a, -a]:
            for x in targets:
                assert _outcome(with_dot, a, d, x) == _outcome(_old_with_dot, a, d, x)

