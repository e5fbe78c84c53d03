"""Unit vectors on S^2, sphere sampling and quadrature, reproducible RNG streams.

Everything downstream (model evaluation, admissibility checks, sampling
experiments) goes through this module for directions and randomness, so the
determinism contract lives here: a ``RandomStream`` is a pure value
``(seed, stream)`` and every generator derived from it is counter-based
(Philox), which makes results independent of thread count and evaluation
order as long as stream ids are assigned statically.
"""

from __future__ import annotations

import math
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
    """Uniform points on S^2 via inverse CDF: z ~ U[-1,1], azimuth ~ U[0,2pi).

    Returns shape (3,) when ``n`` is None, else (n, 3).
    """
    m = 1 if n is None else int(n)
    if m < 0:
        raise GeometryError("n must be nonnegative")
    out = np.empty((m, 3))
    _fill_uniform_sphere(rng, out)
    return out[0] if n is None else out


def _fill_uniform_sphere(rng: np.random.Generator, out: np.ndarray) -> None:
    """Write len(out) uniform points on S^2 into the (n, 3) view ``out``.

    The rule and draw order of ``sample_uniform_sphere`` (z, then azimuth);
    samplers use it to fill one slot of a preallocated (n, nv, 3) block.
    """
    m = len(out)
    z = rng.uniform(-1.0, 1.0, size=m)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=m)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    out[:, 2] = z
    np.multiply(r, np.cos(phi), out=out[:, 0])
    np.multiply(r, np.sin(phi), out=out[:, 1])


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
    perp = d - np.dot(d, a) * a
    norm = _norm(perp)
    if norm < 1e-9:
        raise GeometryError("direction is (anti)parallel to a, no tilt plane")
    b = t * a + math.sqrt(max(0.0, 1.0 - t * t)) * (perp / norm)
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
    gives collision-free ids for up to three nested levels.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) % (1 << 64))
        if not 0 <= int(self.stream) < (1 << 64):
            raise GeometryError("stream id out of uint64 range")

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
