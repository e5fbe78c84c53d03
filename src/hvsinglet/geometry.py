"""Unit vectors on S^2, sphere sampling and quadrature, reproducible RNG streams.

Everything downstream (model evaluation, admissibility checks, sampling
experiments) goes through this module for directions and randomness, so the
determinism contract lives here: a ``RandomStream`` is a pure value
``(seed, stream)`` and every generator derived from it is counter-based
(Philox), which makes results independent of thread count and evaluation
order as long as stream ids are assigned statically. ``_map_ordered`` is the
one thread pool that work runs on, with the calling thread as one of its
workers: it yields results in submission order.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GeometryError",
    "unit",
    "require_unit",
    "dot",
    "sample_uniform_sphere",
    "with_dot",
    "SphereGrid",
    "sphere_quadrature",
    "RandomStream",
    "as_generator",
]

UNIT_ATOL = 1e-9

# Stream-id packing: each split() consumes one 20-bit field, so up to
# three nested splits fit in the 64-bit Philox key word.
_SPLIT_BITS = 20
_SPLIT_MAX = (1 << _SPLIT_BITS) - 1
_SEED_MAX = (1 << 64) - 1  # seeds and stream ids are the uint64 words of a Philox key


class GeometryError(ValueError):
    """Bad direction input: zero vector, non-unit vector, out-of-range dot."""


def unit(v) -> np.ndarray:
    """Normalize ``v`` to a unit 3-vector (float64 copy)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {v.shape}")
    n = _norm(v)
    if n < 1e-12:
        raise GeometryError("cannot normalize a (near-)zero vector")
    return v / n


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a 1-D float array, bit for bit, without its dispatch."""
    return math.sqrt(v.dot(v))


def _clamp_unit(x: float) -> float:
    """``np.clip(x, -1, 1)`` for one float: NaN stays NaN, -0.0 stays -0.0."""
    return -1.0 if x < -1.0 else 1.0 if x > 1.0 else x


def require_unit(v, *, name: str = "vector") -> np.ndarray:
    """Return ``v`` as ndarray after checking |v| = 1 within UNIT_ATOL."""
    v = np.asarray(v, dtype=float)
    if v.shape == (3,):
        # np.linalg.norm(v, axis=-1) sums the squares left to right; so does this
        x, y, z = v.tolist()
        gap = abs(math.sqrt(x * x + y * y + z * z) - 1.0)
        if not gap <= UNIT_ATOL:
            raise GeometryError(f"{name} is not unit length (|norm-1| = {gap:.3e})")
        return v
    if v.shape[-1] != 3:
        raise GeometryError(f"{name}: expected 3 components, got shape {v.shape}")
    n = np.linalg.norm(v, axis=-1)
    if not np.all(np.abs(n - 1.0) <= UNIT_ATOL):
        worst = float(np.max(np.abs(n - 1.0)))
        raise GeometryError(f"{name} is not unit length (|norm-1| = {worst:.3e})")
    return v


def dot(a, b) -> float:
    """Inner product of two unit vectors, clamped to [-1, 1].

    The clamp only ever absorbs float roundoff of order 1e-16; inputs are
    checked to be unit vectors first.
    """
    a = require_unit(a, name="a")
    b = require_unit(b, name="b")
    return _clamp_unit(float(a.dot(b)))


def sample_uniform_sphere(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform points on S^2 by Marsaglia's disk map (Ann. Math. Statist. 43, 1972).

    A candidate (x, y) is uniform on [-1, 1)^2, drawn as 2 * random() - 1
    per coordinate; it is kept when s = x^2 + y^2 < 1, and the kept
    candidate maps to (x*f, y*f, 1 - 2s) with f = 2 * sqrt(1 - s), which is
    uniform on the sphere. That is one square root per point and no
    trigonometry: numpy's float64 cos and sin run through scalar libm, and
    they take about two thirds of an inverse-CDF fill (z, then azimuth).

    Returns shape (3,) when ``n`` is None, else (n, 3). The single point is
    a one-row block computed on Python floats: it draws its candidates as
    (x, y) pairs, as a one-row block does, with the same arithmetic, so it
    lands on the same bits and leaves the stream at the same position (a
    test compares the two paths).
    """
    if n is None:
        while True:
            x = 2.0 * rng.random() - 1.0
            y = 2.0 * rng.random() - 1.0
            s = x * x + y * y
            if s < 1.0:
                f = 2.0 * math.sqrt(1.0 - s)
                return np.array([x * f, y * f, 1.0 - 2.0 * s])
    m = int(n)
    if m < 0:
        raise GeometryError("n must be nonnegative")
    out = np.empty((m, 3))
    _fill_uniform_sphere(rng, out)
    return out


def _fill_uniform_sphere(rng: np.random.Generator, out: np.ndarray) -> None:
    """Write len(out) uniform points on S^2 into the (n, 3) view ``out``.

    The rule of ``sample_uniform_sphere``; samplers use it to fill one slot
    of a preallocated (n, nv, 3) block. While ``need`` rows are missing, one
    batch draws ``random((2, need + need // 3))``: every candidate's first
    coordinate, then every second one. The first ``need`` accepted
    candidates, in index order, fill the next rows, and the rest of the
    batch is dropped. The acceptance rate is pi/4, so a 16384-row block is
    filled by its first batch but for odds of about 3e-36; small blocks may
    take a few. A block is drawn in one batch, not in capped chunks: with
    4096-row batches the fill alone ran faster, but the extra short numpy
    calls made ``--threads 2`` runs slower (they contend for the
    interpreter lock).
    """
    done, m = 0, len(out)
    while done < m:
        need = m - done
        c = rng.random((2, need + need // 3))
        c *= 2.0
        c -= 1.0
        s = c[0] * c[0]
        s += c[1] * c[1]
        keep = np.flatnonzero(s < 1.0)[:need]
        rows = out[done:done + len(keep)]
        s = s[keep]
        np.multiply(s, -2.0, out=rows[:, 2])  # -2s + 1 rounds as 1 - 2s: 2s is exact
        rows[:, 2] += 1.0
        np.subtract(1.0, s, out=s)
        np.sqrt(s, out=s)
        s *= 2.0
        np.multiply(np.take(c[0], keep), s, out=rows[:, 0])  # take: 3x faster than c[0, keep]
        np.multiply(np.take(c[1], keep), s, out=rows[:, 1])
        done += len(keep)


def with_dot(a, direction, target: float) -> np.ndarray:
    """Unit vector b with a.b equal to ``target`` exactly (up to roundoff).

    b = target*a + sqrt(1-target^2)*t where t is the unit component of
    ``direction`` orthogonal to ``a``. This pins the dot product exactly,
    which matters when probing |a.b| = 1 - eps for eps down to 1e-9.
    """
    a = require_unit(a, name="a")
    t = float(target)
    if not (-1.0 <= t <= 1.0):
        raise GeometryError(f"target dot {t} outside [-1, 1]")
    d = np.asarray(direction, dtype=float)
    # the three dots stay numpy dots, for their bits; the elementwise steps
    # of the array formula run on floats, in the same order
    k = float(d.dot(a))
    (ax, ay, az), (dx, dy, dz) = a.tolist(), d.tolist()
    px, py, pz = dx - k * ax, dy - k * ay, dz - k * az
    norm = _norm(np.array([px, py, pz]))
    if norm < 1e-9:
        raise GeometryError("direction is (anti)parallel to a, no tilt plane")
    r = math.sqrt(max(0.0, 1.0 - t * t))
    b = np.array([t * ax + r * (px / norm), t * ay + r * (py / norm), t * az + r * (pz / norm)])
    return b / _norm(b)


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature on S^2: Gauss-Legendre in cos(theta), midpoint in azimuth.

    ``nodes`` has shape (n_polar*n_azimuth, 3) and ``weights`` sums to 1
    (surface measure normalized), exact for spherical polynomials up to
    degree min(2*n_polar - 1, n_azimuth - 1).
    """

    n_polar: int
    n_azimuth: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.nodes.shape[0]


def sphere_quadrature(n_polar: int = 64, n_azimuth: int = 128) -> SphereGrid:
    """Build a SphereGrid; see the class docstring for the rule."""
    if n_polar < 1 or n_azimuth < 1:
        raise GeometryError("quadrature sizes must be >= 1")
    z, wz = np.polynomial.legendre.leggauss(int(n_polar))
    phi = (np.arange(int(n_azimuth)) + 0.5) * (2.0 * np.pi / n_azimuth)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    x = np.outer(r, np.cos(phi))
    y = np.outer(r, np.sin(phi))
    zz = np.broadcast_to(z[:, None], x.shape)
    nodes = np.stack([x.ravel(), y.ravel(), zz.ravel()], axis=-1)
    weights = np.repeat(wz / 2.0, n_azimuth) / n_azimuth
    return SphereGrid(int(n_polar), int(n_azimuth), nodes, weights)


@dataclass(frozen=True)
class RandomStream:
    """A named, splittable source of reproducible randomness.

    ``generator()`` always returns a fresh Philox generator keyed by
    (seed, stream), so two calls yield identical sequences; hold on to the
    generator when consuming a stream incrementally. ``split(i, j, ...)``
    derives a child stream by packing each index into a 20-bit field, which
    gives collision-free ids for up to three nested levels. A seed outside
    [0, 2^64) raises GeometryError: reduced, it would share another's stream.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) <= _SEED_MAX or not 0 <= int(self.stream) <= _SEED_MAX:
            raise GeometryError(f"seed and stream must be in [0, {_SEED_MAX}], got seed "
                                f"{self.seed}, stream {self.stream}")
        object.__setattr__(self, "seed", int(self.seed))

    def split(self, *indices: int) -> "RandomStream":
        s = int(self.stream)
        for ix in indices:
            ix = int(ix)
            if not 0 <= ix < _SPLIT_MAX:
                raise GeometryError(f"split index {ix} outside [0, {_SPLIT_MAX})")
            if s >= 1 << (64 - _SPLIT_BITS):
                raise GeometryError("stream id space exhausted (too many nested splits)")
            s = (s << _SPLIT_BITS) | (ix + 1)
        return RandomStream(self.seed, s)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_generator(source) -> np.random.Generator:
    """Accept a RandomStream or a Generator and hand back a Generator."""
    if isinstance(source, RandomStream):
        return source.generator()
    if isinstance(source, np.random.Generator):
        return source
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(source)!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Tasks per worker that _map_ordered lets run ahead of the oldest result not
# yet taken: it bounds the results held, and it leaves room for a long task.
_AHEAD = 8


def _map_ordered(fn, args, threads: int):
    """Yield ``fn(x)`` for each x of the sequence ``args``, in order, on up to ``threads`` workers.

    The calling thread is one of the workers. It starts ``min(threads,
    len(args), usable CPUs) - 1`` helper threads, and every worker claims tasks
    in index order from one shared counter, so no task starts before one of
    lower index. While the next result is not in, the caller runs the next
    unclaimed task rather than wait. A task is claimed only within ``_AHEAD``
    tasks per worker of the next result to yield, so the results held back
    for their turn stay bounded however long one task runs. Results come back
    in index order, so the thread count cannot change them. A task that
    raises stops all claims, and its exception is raised at its turn, after
    the results before it, so the lowest failing index wins, as with
    ``Executor.map``. The helpers are joined before the generator returns,
    raises or is closed.
    """
    n = len(args)
    helpers = min(threads, n, _usable_cpus()) - 1
    if helpers < 1:
        for x in args:
            yield fn(x)
        return
    window = _AHEAD * (helpers + 1)
    cond = threading.Condition()
    done: dict = {}  # index -> (raised, result or exception), until its turn
    claimed, turn, stop = 0, 0, False  # tasks claimed; the next index to yield

    def claim(wait: bool) -> int | None:
        """The next task; None once all are claimed or one failed, or (``wait``
        False) while the window is full."""
        nonlocal claimed
        with cond:
            while not stop and claimed < n:
                if claimed < turn + window:
                    claimed += 1
                    return claimed - 1
                if not wait:
                    return None
                cond.wait()
            return None

    def run(i: int) -> None:
        nonlocal stop
        try:
            out = False, fn(args[i])
        except BaseException as exc:  # re-raised in the caller at index i
            out = True, exc
        with cond:
            done[i] = out
            stop = stop or out[0]
            cond.notify_all()

    def helper() -> None:
        while (i := claim(wait=True)) is not None:
            run(i)

    with ThreadPoolExecutor(max_workers=helpers) as pool:
        try:
            for _ in range(helpers):
                pool.submit(helper)
            for k in range(n):
                with cond:
                    turn = k
                    cond.notify_all()
                while k not in done:
                    i = claim(wait=False)
                    if i is not None:
                        run(i)
                        continue
                    with cond:  # k is claimed, so a helper is running it
                        cond.wait_for(lambda: k in done)
                raised, value = done.pop(k)
                if raised:
                    raise value
                yield value
        finally:
            with cond:
                stop = True
                cond.notify_all()
