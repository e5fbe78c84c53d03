import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hvsinglet.geometry import (
    GeometryError,
    RandomStream,
    as_generator,
    dot,
    sample_uniform_sphere,
    sphere_quadrature,
    unit,
    with_dot,
)

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
