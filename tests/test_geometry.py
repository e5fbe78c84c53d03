import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hvsinglet import geometry
from hvsinglet.geometry import (
    UNIT_ATOL,
    GeometryError,
    RandomStream,
    _fill_uniform_sphere,
    _map_ordered,
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


def test_single_sphere_point_is_the_block_rule_on_one_row():
    # the float path draws the same two numbers as the block fill, in the same
    # order, and lands on the same bits; the next draws agree too
    for seed in (0, 7, 61, 2**40 + 3):
        g_one, g_block = RandomStream(seed).generator(), RandomStream(seed).generator()
        one = np.array([sample_uniform_sphere(g_one) for _ in range(10_000)])
        block = np.array([sample_uniform_sphere(g_block, 1)[0] for _ in range(10_000)])
        assert one.tobytes() == block.tobytes(), seed
        after = sample_uniform_sphere(g_block, 1)[0]
        assert sample_uniform_sphere(g_one).tobytes() == after.tobytes()
        assert g_one.random() == g_block.random()


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


def test_random_stream_seeds_cover_uint64_and_no_more():
    top = (1 << 64) - 1
    assert RandomStream(top).seed == top
    x = RandomStream(0).generator().random(4)
    assert not np.array_equal(x, RandomStream(top).generator().random(4))
    for seed in (-1, 1 << 64, -(1 << 64)):
        with pytest.raises(GeometryError, match="seed and stream must be in"):
            RandomStream(seed)


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


# ---------------------------------------------------------------------------
# The sphere fill against its rule, candidate by candidate


def _candidate_loop_fill(rng, out) -> int:
    """Marsaglia's rule one candidate at a time, in the fill's batches; returns
    the number of batches drawn."""
    done, batches = 0, 0
    while done < len(out):
        need = len(out) - done
        first, second = rng.random((2, need + need // 3)).tolist()
        batches += 1
        for u, v in zip(first, second):
            x, y = 2.0 * u - 1.0, 2.0 * v - 1.0
            s = x * x + y * y
            if s < 1.0 and done < len(out):
                f = 2.0 * math.sqrt(1.0 - s)
                out[done] = x * f, y * f, 1.0 - 2.0 * s
                done += 1
    return batches


# seeds at which the 2- and 100-row blocks take more than one batch
_MULTI_BATCH_SEEDS = {2: 10, 100: 122}


@pytest.mark.parametrize("n", [0, 1, 2, 100, 16383, 16384, 16385, 3 * 16384 + 4465])
def test_chunked_sphere_fill_is_the_one_pass_formula(n):
    seed = _MULTI_BATCH_SEEDS.get(n, n + 5)
    new, old = np.full((n, 2, 3), 7.0), np.full((n, 2, 3), 7.0)
    g_new, g_old = RandomStream(seed).generator(), RandomStream(seed).generator()
    _fill_uniform_sphere(g_new, new[:, 1])
    batches = _candidate_loop_fill(g_old, old[:, 1])
    assert new.tobytes() == old.tobytes()
    assert np.all(new[:, 0] == 7.0)  # the other slot is left alone
    assert g_new.random(9).tobytes() == g_old.random(9).tobytes()
    assert (batches > 1) == (n in _MULTI_BATCH_SEEDS)


def test_sphere_fill_is_uniform():
    # chi-square limit 63.7: p = 1e-6 at 19 degrees of freedom
    u = sample_uniform_sphere(RandomStream(2).generator(), 200_000)
    x, y, z = u.T
    for values, lo, hi in ((z, -1.0, 1.0), (np.arctan2(y, x), -np.pi, np.pi)):
        counts = np.histogram(values, bins=20, range=(lo, hi))[0]
        expected = len(u) / 20
        assert ((counts - expected) ** 2 / expected).sum() < 63.7
    for p in (x * y, x * z, y * z):  # zero means, within 5 sigma
        assert abs(p.mean()) <= 5.0 * p.std() / math.sqrt(len(u))
    assert np.max(np.abs(np.linalg.norm(u, axis=1) - 1.0)) <= 1e-15


# ---------------------------------------------------------------------------
# The ordered thread pool


def test_pool_size_is_bounded_by_tasks_and_cpus(recording_pool):
    # 1e8 shots are 6104 blocks; --threads 2000 must not become 6104 threads,
    # and the calling thread is one of the workers
    assert list(_map_ordered(lambda i: i * i, range(6104), 2000)) == [i * i for i in range(6104)]
    assert list(_map_ordered(str, range(3), 2000)) == ["0", "1", "2"]
    assert list(_map_ordered(str, range(9), 2)) == [str(i) for i in range(9)]
    assert recording_pool == [3, 2, 1]
    assert list(_map_ordered(str, range(9), 1)) == [str(i) for i in range(9)]
    assert list(_map_ordered(str, range(1), 2000)) == ["0"]
    assert list(_map_ordered(str, [], 2000)) == []
    assert recording_pool == [3, 2, 1]  # one task or one thread runs inline


def test_pool_runs_inline_on_one_cpu(recording_pool, monkeypatch):
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 1)
    assert list(_map_ordered(str, range(50), 2000)) == [str(i) for i in range(50)]
    assert recording_pool == []


def test_pool_returns_results_in_index_order(monkeypatch):
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 4)
    before = threading.active_count()
    workers = set()

    def task(i):
        workers.add(threading.current_thread())
        time.sleep(0.001 + 0.002 * (i % 3))  # later tasks often finish first
        return i * i

    assert list(_map_ordered(task, range(60), 4)) == [i * i for i in range(60)]
    assert threading.current_thread() in workers  # the caller works too
    assert threading.active_count() == before


@pytest.mark.parametrize("on_caller", [True, False])
def test_pool_raises_a_task_exception_from_either_thread(monkeypatch, on_caller):
    # tasks 0 and 1 run at once, one on the caller and one on the helper; the
    # one on the chosen thread raises at once, the other returns 0.2 s later,
    # when the failure has stopped all claims
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    caller = threading.current_thread()
    started = [threading.Event(), threading.Event()]
    ran = []

    def task(i):
        ran.append(i)
        if i < 2:
            started[i].set()
            assert started[1 - i].wait(10)
            if (threading.current_thread() is caller) == on_caller:
                raise ValueError(i)
            time.sleep(0.2)
        return i

    with pytest.raises(ValueError) as info:
        list(_map_ordered(task, range(50), 2))
    assert info.value.args[0] in (0, 1)
    assert sorted(ran) == [0, 1]  # no task is claimed after a failure
    assert threading.active_count() == before


def test_pool_raises_the_lowest_failing_index(monkeypatch):
    # task 1 fails first, task 0 later: task 0's exception wins, as with Executor.map
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    started = [threading.Event(), threading.Event()]
    ran = []

    def task(i):
        ran.append(i)
        if i < 2:
            started[i].set()
            assert started[1 - i].wait(10)
            time.sleep(0.2 * (1 - i))
            raise ValueError(i)
        return i

    it = _map_ordered(task, range(50), 2)
    with pytest.raises(ValueError) as info:
        next(it)
    assert info.value.args == (0,)
    assert sorted(ran) == [0, 1]
    assert threading.active_count() == before


def test_pool_yields_what_precedes_a_failure_and_claims_no_more(recording_pool):
    # the stand-in helper only runs once the pool closes: the caller claims
    # 0..3, one at a time as they are taken, and stops at the failure
    ran = []

    def task(i):
        ran.append(i)
        if i == 3:
            raise KeyError(i)
        return i

    it = _map_ordered(task, range(9), 2)
    assert [next(it) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(KeyError):
        next(it)
    assert ran == [0, 1, 2, 3] and recording_pool == [1]
    ran.clear()
    with pytest.raises(KeyError):
        list(_map_ordered(task, range(9), 1))
    assert ran == [0, 1, 2, 3]


def test_pool_runs_no_further_ahead_than_its_window(monkeypatch):
    # task 0 is slow: the other worker runs ahead only up to the window, so
    # the results held for their turn stay bounded
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
    started, seen = [], []

    def task(i):
        started.append(i)
        if i == 0:
            time.sleep(0.3)
            seen.append(len(started))
        return i

    assert list(_map_ordered(task, range(200), 2)) == list(range(200))
    assert seen == [2 * geometry._AHEAD]


def test_pool_closed_early_joins_its_helpers(monkeypatch):
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 4)
    before = threading.active_count()
    ran = []

    def task(i):
        ran.append(i)
        time.sleep(0.005)
        return i

    it = _map_ordered(task, range(1000), 4)
    assert [next(it) for _ in range(5)] == list(range(5))
    it.close()
    assert threading.active_count() == before
    assert len(ran) < 100 and sorted(ran) == list(range(len(ran)))  # claimed in order


def test_usable_cpus_counts_this_process():
    assert 1 <= geometry._usable_cpus() <= (os.cpu_count() or 1)
