"""Unit vectors on S^2, sphere sampling and quadrature, reproducible RNG streams.

Everything downstream (model evaluation, admissibility checks, sampling
experiments) goes through this module for directions and randomness, so the
determinism contract lives here: a ``RandomStream`` is a pure value
``(seed, stream)`` and every generator derived from it is counter-based
(Philox), which makes results independent of worker count and evaluation
order as long as stream ids are assigned statically. ``_map_ordered`` is the
one parallel pass that work runs on: worker processes, forked per pass, of
which the caller is one. It yields results in submission order.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import sys
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
    calls made ``--threads 2`` runs slower when the workers were threads
    (they contended for the interpreter lock); not re-measured on worker
    processes.
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


def _owner(i: int, workers: int) -> int:
    """The worker of task i: tasks are dealt in snake order (0, 1, .., w-1, w-1, .., 1, 0, 0,
    1, ..), so a task list sorted longest first splits evenly."""
    r = i % workers
    return r if i // workers % 2 == 0 else workers - 1 - r


@contextlib.contextmanager
def _sigint_held():
    """SIGINT held pending on this thread, so a fork or a reap is not cut in two."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _map_ordered(fn, args, threads: int):
    """Yield ``fn(x)`` for each x of the sequence ``args``, in order, on up to ``threads`` workers.

    The workers are ``min(threads, len(args), usable CPUs)`` processes, and
    the calling process is one of them: it forks the others, each with a
    pipe back. Task i belongs to worker ``_owner(i, workers)``, a fixed share.
    A forked worker runs its share in index order and sends each result as a
    length-prefixed pickle; the caller runs its own tasks at their turn and
    reads the others' results from their pipes, so results come back in
    index order and the worker count cannot change them. A worker blocks
    while its pipe is full, which bounds how far it runs ahead and the
    results held. A task that raises ends its worker's share, and its
    exception is raised at its turn, after the results before it; one that
    does not survive pickling comes back as a RuntimeError naming the task,
    the type and the message. Processes, not threads: the kernel's short
    numpy calls hold the interpreter lock, so two threads gained little
    there. A fork copies only the calling thread, and the package starts no
    other. Forked workers keep SIGINT pending, write nothing to stdout or
    stderr and leave by ``os._exit``; every one is killed and reaped before
    the generator returns, raises or is closed. Without ``os.fork`` the
    tasks run inline.
    """
    n = len(args)
    workers = min(threads, n, _usable_cpus()) if hasattr(os, "fork") else 1
    if workers < 2:
        for x in args:
            yield fn(x)
        return
    pids, pipes = [], []
    try:
        for w in range(1, workers):
            r, out = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                with _sigint_held():
                    pid = os.fork()
                    if pid == 0:  # never returns; SIGINT stays held in the worker
                        _work(fn, args, (i for i in range(n) if _owner(i, workers) == w),
                              out, pipes)
                    pids.append(pid)
            finally:
                os.close(out)
        for i, x in enumerate(args):
            w = _owner(i, workers)
            yield fn(x) if w == 0 else _receive(pipes[w - 1], i)
    finally:
        with _sigint_held():
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for pipe in pipes:
                pipe.close()


def _work(fn, args, share, out: int, inherited) -> None:
    """A forked worker: run ``share`` in order, send each result down ``out``, then exit.

    It closes the caller's read ends it inherited, so its writes fail once
    the caller is gone. It drops ``sys.stdout`` and ``sys.stderr``, which may
    be any file, and points file descriptors 1 and 2 at the null device.
    """
    try:
        for pipe in inherited:
            pipe.close()
        sys.stdout = sys.stderr = None  # print() and warnings then write nothing
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        with open(out, "wb") as sink:
            for i in share:
                raised = False
                try:
                    msg = pickle.dumps((False, fn(args[i])), pickle.HIGHEST_PROTOCOL)
                except BaseException as exc:  # raised in the caller at index i
                    raised, msg = True, _failure(i, exc)
                sink.write(len(msg).to_bytes(8, "little"))
                sink.write(msg)
                sink.flush()
                if raised:
                    break
    finally:
        os._exit(0)


def _failure(i: int, exc: BaseException) -> bytes:
    """``(True, exc)`` pickled; if exc does not come back from its pickle, a RuntimeError
    that names task i, the type and the message."""
    try:
        msg = pickle.dumps((True, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(msg)
        return msg
    except Exception:
        return pickle.dumps((True, RuntimeError(f"task {i} raised {type(exc).__name__}: {exc}")))


def _receive(pipe, i: int):
    """Task i's result, read from its worker's pipe; a task's exception is raised here."""
    head = pipe.read(8)
    body = pipe.read(int.from_bytes(head, "little")) if len(head) == 8 else b""
    if not body:
        raise RuntimeError(f"the worker process of task {i} ended before sending its result")
    raised, value = pickle.loads(body)
    if raised:
        raise value
    return value
