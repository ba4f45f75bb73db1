"""Lie-group integration, invariant distances, and contraction tubes.

The integrator advances states by exponentials of algebra increments, so
trajectories stay on the group by construction.  A tube holds its
certificate, its center trajectory with the radius schedule K e^{ct} r0,
and the extremes of a Monte Carlo ball's distances to the center, from
which it reads its own containment verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .contraction import ContractionCertificate
from .fields import HorizontalField, eval_coeff
from .spaces import Space

# Time steps per block of ``integrate``; each block is one chunk handed to
# a consumer.  64 steps of the demo's 101 states fill a 0.47 MB buffer,
# reused for every block.
_STEP_CHUNK = 64
# Time steps per span of a state-independent field's increments: 16 blocks,
# so the 5,000-step demo builds them in 5 passes, not 79, and a span's
# (1024, 3, 3) stage arrays stay under 0.1 MB each.
_SPAN_STEPS = 16 * _STEP_CHUNK
_CONTAINMENT_TOL = 1e-4  # largest sample distance beyond the radius that still passes


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integral curve(s); states shape (T+1, ..., d, d).

    ``states`` is None when ``integrate`` passed them to a consumer, and
    the center of a :class:`ReachTube` holds only row 0 of its stack.
    """

    times: np.ndarray
    states: Optional[np.ndarray]
    step_size: float

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def integrate(F: HorizontalField, space: Space, g0, horizon: float, dt: float,
              consume: Optional[Callable[[int, np.ndarray], None]] = None) -> Trajectory:
    """Integrate dg = g . xi(g, t) from t = 0 with the 4th-order RKMK4 scheme.

    ``g0`` may be a single (d, d) element or a stacked batch (..., d, d);
    the batch is advanced in lockstep over round(horizon / dt) steps.  The
    scheme is a Munthe-Kaas style method: classical four-stage weights in
    the algebra with second-order commutator corrections before each
    exponential re-projection.

    The steps run in blocks of ``_STEP_CHUNK``.  A field declared
    ``state_independent`` has an increment Omega_k that depends on the step
    k alone, and every row takes it, g_i(t) = g_i(0) Phi(t).  So the
    increments of a span of ``_SPAN_STEPS`` steps are built in one stacked
    pass: one coefficient call per stage, on the span's stage times with a
    broadcast of row 0 of the start stack, and one exponential over the
    span.  Each step is then one product of the stack's rows with its
    increment, and every row comes out bit for bit as with per-row stages.
    The declaration is checked at each block's first time on that row and
    the current stack: rows whose coefficients differ raise ValueError.
    Any other field runs its stages on the whole stack, one step at a time.

    Each block is also a chunk for ``consume``, called as
    ``consume(lo, states[lo:lo + _STEP_CHUNK])`` in time order with one
    reused buffer that it must copy from; the returned ``states`` is then
    None.  Without it every state is stored in ``states`` (T+1, ..., d, d).
    """
    n_steps = _step_count(horizon, dt)

    def corrected(sigma, a):
        # right-trivialized dexpinv truncated to two commutator terms
        c1 = sigma @ a - a @ sigma
        return a + 0.5 * c1 + (1.0 / 12.0) * (sigma @ c1 - c1 @ sigma)

    # the algebra increment of one step, or of a span of steps, at time(s) t;
    # ``stage(s, tau)`` is the field's algebra element at time(s) tau, at the
    # step's start state moved by exp(s), or not moved when s is None; both
    # work on a single step (scalar tau) and on a span of steps (tau (n,)).
    def rkmk4(stage, t):
        k1 = stage(None, t)
        s2 = 0.5 * dt * k1
        k2 = corrected(s2, stage(s2, t + 0.5 * dt))
        s3 = 0.5 * dt * k2
        k3 = corrected(s3, stage(s3, t + 0.5 * dt))
        s4 = dt * k3
        k4 = corrected(s4, stage(s4, t + dt))
        return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    g = np.asarray(g0, dtype=float)
    space.check_group(g)
    times = dt * np.arange(n_steps + 1)
    m, d = space.dim_m, space.embed_dim
    one_row = F.state_independent and g.size > 0
    g_row = g.reshape(-1, d, d)[:1]  # the one state a state-independent field sees

    def row_stage(s, tau):  # the field ignores the state, so s is not applied
        return space.algebra_from_coords(
            eval_coeff(F, np.broadcast_to(g_row[0], tau.shape + (d, d)), tau, dim_m=m))

    def stack_stage(gk):  # the stages of one step from the stack gk
        return lambda s, tau: space.algebra_from_coords(eval_coeff(
            F, gk if s is None else gk @ space.algebra_exp(s), tau, dim_m=m))

    states = None
    if consume is None:
        states = np.empty((n_steps + 1,) + g.shape)

        def consume(lo, chunk):
            states[lo:lo + len(chunk)] = chunk

    # a block's start state, then the state after each of its steps
    buf = np.empty((_STEP_CHUNK + 1,) + g.shape)
    buf[0] = g
    if one_row:  # each state's rows as one (rows * d, d) view, made once
        rows = list(buf.reshape(len(buf), -1, d))
    for lo in range(0, n_steps, _STEP_CHUNK):
        block = times[lo:min(lo + _STEP_CHUNK, n_steps)]
        if one_row:
            c = eval_coeff(F, np.concatenate([g_row, buf[0].reshape(-1, d, d)]), block[0],
                           dim_m=m)
            if (c != c[0]).any():
                raise ValueError(f"field {F.name} is declared state-independent, but its "
                                 f"coefficients at t={block[0]:g} differ between states")
            if lo % _SPAN_STEPS == 0:
                E = space.algebra_exp(rkmk4(row_stage, times[lo:min(lo + _SPAN_STEPS, n_steps)]))
            Eb = E[lo % _SPAN_STEPS:]  # the block's increments
        for j, t in enumerate(block):
            if one_row:  # one (rows * d, d) x (d, d) product
                np.dot(rows[j], Eb[j], out=rows[j + 1])
            else:
                buf[j + 1] = buf[j] @ space.algebra_exp(rkmk4(stack_stage(buf[j]), t))
        if len(block) == _STEP_CHUNK:
            consume(lo, buf[:-1])
            buf[0] = buf[-1]
    lo = n_steps - n_steps % _STEP_CHUNK
    consume(lo, buf[:n_steps - lo + 1])
    return Trajectory(times=times, states=states, step_size=dt)


def _step_count(horizon: float, dt: float) -> int:
    """round(horizon / dt), for a positive, finite step, a non-negative, finite
    horizon and a finite ratio of the two."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if not 0.0 <= horizon < np.inf:
        raise ValueError(f"horizon must be non-negative and finite, got {horizon}")
    ratio = float(horizon) / float(dt)  # Python floats: inf on overflow, no warning
    if not ratio < np.inf:
        raise ValueError(f"horizon / step size must be finite, got {horizon} / {dt}")
    return int(round(ratio))


def _require_distance(space: Space) -> None:
    """Raise NotImplementedError unless the m-basis is orthonormal for the
    trace form that the kind's closed-form distance measures."""
    scale = space.ops.distance_scale
    B = space.dec.m_basis.reshape(space.dim_m, -1)
    if np.max(np.abs(scale * (B @ B.T) - np.eye(space.dim_m))) > 1e-10:
        raise NotImplementedError(
            f"no distance is shipped for the metric of {space.name}: the closed form "
            f"needs an m-basis orthonormal for {scale:g}*tr(X^T Y)")


def distance(space: Space, p, q) -> np.ndarray:
    """Riemannian distance between states, broadcasting over stacks (..., d, d).

    Closed forms: the rotation angle on SO(3) (pi at the cut locus), the
    great-circle angle of the embedded points g . o on the sphere (1-D
    inputs are taken as points), the wrapped angle on the circle, and the
    norm of the translation parts on flat space.  Metrics other than the
    half trace on rotations and the trace on translations raise
    NotImplementedError.
    """
    _require_distance(space)
    return space.ops.distance(space, np.asarray(p, dtype=float), np.asarray(q, dtype=float))


@dataclass(frozen=True)
class ReachTube:
    """The whole reach answer: the certificate, the center trajectory, the
    radius schedule K e^{ct} r0 with c the certificate's rate, the extremes
    of the Monte Carlo ball's distances to the center, and the seed the
    ball was drawn with.  The extremes are the ``envelope``, the smallest
    and the largest sample distance at each time, (T+1,) each, and the
    ``sample_range``, each sample's distance at t = 0 and its smallest and
    largest over time, (n_samples,) each.  The containment verdict is read
    from them and the radius."""

    center: Trajectory
    certificate: ContractionCertificate
    K: float
    r0: float
    envelope: tuple[np.ndarray, np.ndarray] = field(repr=False)
    sample_range: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    seed: int = 0

    c = property(lambda self: self.certificate.rate_c)
    space_id = property(lambda self: self.certificate.space_id)
    field_id = property(lambda self: self.certificate.field_id)
    n_samples = property(lambda self: len(self.sample_range[0]))
    max_margin = property(lambda self: self._extremes[0])  # max over (t, n) of d - radius(t)
    max_drift = property(lambda self: self._extremes[1])  # max over (t, n) of |d(t) - d(0)|
    passed = property(lambda self: self.max_margin <= _CONTAINMENT_TOL)

    @cached_property
    def _extremes(self) -> tuple[float, float]:
        # one reduction however often the verdict is read
        return _tube_extremes(self.radius(self.center.times), self.envelope[1],
                              *self.sample_range)

    def radius(self, t) -> np.ndarray:
        return self.K * np.exp(self.c * np.asarray(t, dtype=float)) * self.r0

    def to_dict(self) -> dict:
        """The ``tube``, ``certificate`` and ``containment`` sections of reach.json."""
        traj = self.center
        return {
            "tube": {"space": self.space_id, "field": self.field_id, "K": self.K, "c": self.c,
                     "r0": self.r0, "horizon": traj.horizon, "dt": traj.step_size,
                     "integrator": "rkmk4", "radius_schedule": "K*exp(c*t)*r0"},
            "certificate": self.certificate.to_dict(),
            "containment": {"n_samples": self.n_samples, "seed": self.seed,
                            "max_margin": self.max_margin, "max_drift": self.max_drift,
                            "tol": _CONTAINMENT_TOL, "verdict": "PASS" if self.passed else "FAIL"},
        }


def reach_tube(F: HorizontalField, space: Space, g0, r0: float,
               certificate: ContractionCertificate, horizon: float, dt: float,
               n_samples: int = 100, seed: int = 0) -> ReachTube:
    """Contraction tube around the center from ``g0``, with its Monte Carlo ball.

    Requires a PASS certificate (at any rate c) for this field on this
    space, a space with a shipped distance, ``n_samples >= 1``, a positive,
    finite ``r0``, a step and horizon ``integrate`` takes and a radius
    K e^{ct} r0 that stays finite up to the horizon, and raises before any
    integration otherwise.  The ball of ``n_samples`` (drawn
    with ``seed``) is integrated with the center in one stack [g0; ball],
    never stored: each chunk of steps is reduced to the center (T+1, d, d)
    and the extremes of the ball's distances to it, so the memory kept is
    O(T + n_samples) and the distances of one chunk are the only ones held.
    K = 1: the distance is that of the metric in which the certificate's
    frame is orthonormal, where mu <= c gives d(t) <= e^{ct} d(0).
    """
    if not certificate.passed:
        raise ValueError("certificate verdict is FAIL; no sound tube exists")
    if (certificate.field_id, certificate.space_id) != (F.name, space.name):
        raise ValueError(f"certificate covers {certificate.field_id} on {certificate.space_id}, "
                         f"not {F.name} on {space.name}")
    _require_distance(space)
    if n_samples < 1:
        raise ValueError(f"a tube needs at least one ball sample, got n_samples={n_samples}")
    if not 0.0 < r0 < np.inf:
        raise ValueError(f"ball radius must be positive and finite, got r0={r0}")
    n_times = _step_count(horizon, dt) + 1
    t_end = dt * (n_times - 1)  # the center's last time
    with np.errstate(over="ignore"):  # an overflow is refused below
        top = np.exp(certificate.rate_c * t_end) * r0  # the largest radius (K = 1) if c > 0
    if not np.isfinite(top):
        raise ValueError(f"the tube radius K e^(ct) r0 overflows by t={t_end:g} "
                         f"(c={certificate.rate_c:g}, r0={r0:g}): lower c, the horizon or r0")
    g0 = np.asarray(g0, dtype=float)
    ball = sample_metric_ball(space, g0, r0, n_samples, seed)
    center = np.empty((n_times,) + g0.shape)
    lowest, highest = np.empty(n_times), np.empty(n_times)
    first, least, most = np.empty((3, n_samples))

    def reduce(lo, chunk):
        hi = lo + len(chunk)
        center[lo:hi] = chunk[:, 0]
        dists = space.ops.distance(space, center[lo:hi, None], chunk[:, 1:])
        dists.min(axis=1, out=lowest[lo:hi])
        dists.max(axis=1, out=highest[lo:hi])
        if lo == 0:
            first[:], least[:], most[:] = dists[0], dists.min(axis=0), dists.max(axis=0)
        else:
            np.minimum(least, dists.min(axis=0), out=least)
            np.maximum(most, dists.max(axis=0), out=most)

    traj = integrate(F, space, np.concatenate([g0[None], ball]), horizon, dt, consume=reduce)
    return ReachTube(center=replace(traj, states=center), certificate=certificate, K=1.0,
                     r0=float(r0), envelope=(lowest, highest), sample_range=(first, least, most),
                     seed=seed)


def _tube_extremes(radii, per_time_max, d0, per_sample_min,
                   per_sample_max) -> tuple[float, float]:
    """max over (t, n) of dists[t, n] - radii[t], and of |dists[t, n] - dists[0, n]|,
    from the reductions of dists: ``per_time_max`` is dists.max(axis=1), ``d0``
    is dists[0], and ``per_sample_min`` and ``per_sample_max`` are
    dists.min(axis=0) and dists.max(axis=0).

    Rounded subtraction is monotone in each operand, so reducing over
    samples or times first gives the dense maxima bit for bit.
    """
    max_margin = (per_time_max - radii).max()
    max_drift = max((per_sample_max - d0).max(), (d0 - per_sample_min).max())
    return float(max_margin), float(max_drift)


def sample_metric_ball(space: Space, g0, r0: float, n: int, seed: int = 0) -> np.ndarray:
    """Uniform samples of the metric ball pushed through the exponential.

    The coordinates are uniform in the m-ball of radius r0: directions from
    normalised Gaussian vectors, radii r0 * U^(1/m).  Every draw comes from
    stdlib ``random.Random(seed)``, in one ``randbytes`` call read as
    little-endian 64-bit words whose top 53 bits give uniforms in [0, 1):
    the first n are the radii's U, the rest pairs (U1, U2) that Box-Muller
    turns into the n * m Gaussians, cosine halves first, sine halves after.
    """
    m = space.dim_m
    pairs = (n * m + 1) // 2
    words = np.frombuffer(random.Random(seed).randbytes(8 * (n + 2 * pairs)), "<u8")
    u = (words >> 11) * 2.0 ** -53
    u1, u2 = u[n:n + pairs], u[n + pairs:]
    rho, theta = np.sqrt(-2.0 * np.log(1.0 - u1)), 2.0 * np.pi * u2  # 1 - U1 in (0, 1]
    dirs = np.concatenate([rho * np.cos(theta), rho * np.sin(theta)])[:n * m].reshape(n, m)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    coords = dirs * (r0 * u[:n] ** (1.0 / m))[:, None]
    return np.asarray(g0, dtype=float) @ space.algebra_exp(space.algebra_from_coords(coords))


def trajectory_to_csv(space: Space, traj: Trajectory, path) -> None:
    """Write (t, state coordinates) rows; sphere states export as 3-vectors.

    A trajectory without states, as ``integrate(..., consume=...)`` returns
    it, raises ValueError.
    """
    if traj.states is None:
        raise ValueError("trajectory holds no states: integrate passed them to its "
                         "consume callback, so there are no rows to write")
    flat = space.ops.project(space, traj.states).reshape(len(traj.times), -1)
    with open(path, "w") as fh:
        d = flat.shape[-1]
        fh.write("t," + ",".join(f"s{i}" for i in range(d)) + "\n")
        for lo in range(0, len(flat), _STEP_CHUNK):  # Python lists of one block at a time
            hi = lo + _STEP_CHUNK
            rows = zip(traj.times[lo:hi].tolist(), flat[lo:hi].tolist())
            fh.write("".join(",".join(map(repr, [t] + row)) + "\n" for t, row in rows))

