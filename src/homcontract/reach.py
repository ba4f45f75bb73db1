"""Lie-group integration, invariant distances, and contraction tubes.

Integrators advance states by exponentials of algebra increments, so
trajectories stay on the group by construction.  Tubes pair a center
trajectory with the exponential radius schedule K e^{ct} r0 and are
checked empirically by Monte Carlo containment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .contraction import ContractionCertificate
from .fields import HorizontalField, eval_coeff
from .smallmat import so3_angle  # noqa: F401  (the SO(3) distance kernel, public here too)
from .spaces import Space

# Time steps per chunk that ``integrate`` hands to a consumer: 64 steps of
# the demo's 101 states fill a 0.47 MB buffer, reused for every chunk.  A
# state-independent field's increments are also built 64 steps at a time.
_STEP_CHUNK = 64
_CONTAINMENT_TOL = 1e-4  # largest sample distance beyond the radius that still passes


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integral curve(s); states shape (T+1, ..., d, d).

    ``states`` is None when ``integrate`` passed them to a consumer, and
    the center of a :class:`ReachTube` holds only row 0 of its stack.
    """

    times: np.ndarray
    states: Optional[np.ndarray]
    integrator_id: str
    step_size: float

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _commutator(a, b):
    return a @ b - b @ a


def integrate(F: HorizontalField, space: Space, g0, horizon: float, dt: float,
              method: str = "rkmk4",
              consume: Optional[Callable[[int, np.ndarray], None]] = None) -> Trajectory:
    """Integrate dg = g . xi(g, t) from t = 0 with Lie-Euler or a 4th-order scheme.

    ``g0`` may be a single (d, d) element or a stacked batch (..., d, d);
    the batch is advanced in lockstep.  The 4th-order scheme is a
    Munthe-Kaas style method: classical four-stage weights in the algebra
    with second-order commutator corrections before each exponential
    re-projection.

    For a field declared ``state_independent`` the increment Omega_k of
    step k depends on k alone, and every row of the stack takes it,
    g_i(t) = g_i(0) Phi(t).  So the increments of each block of
    ``_STEP_CHUNK`` steps are built in one stacked pass: the coefficients
    of every stage time, each evaluated on row 0 of the start stack, then
    the stage algebra elements, the commutator corrections and one
    exponential over the block.  The stack then takes g = g exp(Omega_k)
    step by step; every row comes out bit for bit as with per-row stages.
    The declaration is checked once, at t = 0 on the whole stack: rows
    whose coefficients differ from row 0's raise ValueError.

    Without ``consume`` every state is stored in the returned
    ``states`` (T+1, ..., d, d).  With it, nothing is stored: it is
    called as ``consume(lo, states[lo:lo + _STEP_CHUNK])`` in time
    order, with one reused buffer that it must copy from, and the
    returned ``states`` is None.
    """
    if dt <= 0.0:
        raise ValueError("step size must be positive")

    def corrected(sigma, a):
        # right-trivialized dexpinv truncated to two commutator terms
        c1 = _commutator(sigma, a)
        return a + 0.5 * c1 + (1.0 / 12.0) * _commutator(sigma, c1)

    # ``stage(s, tau)`` is the field's algebra element at time(s) tau, at the
    # step's start state moved by exp(s), or not moved when s is None; both
    # work on a single step (scalar tau) and on a block of steps (tau (n,)).
    def rkmk4(stage, t):
        k1 = stage(None, t)
        s2 = 0.5 * dt * k1
        k2 = corrected(s2, stage(s2, t + 0.5 * dt))
        s3 = 0.5 * dt * k2
        k3 = corrected(s3, stage(s3, t + 0.5 * dt))
        s4 = dt * k3
        k4 = corrected(s4, stage(s4, t + dt))
        return (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # the algebra increment of one step, or of a block of steps, at time(s) t
    increment = {"lieeuler": lambda stage, t: dt * stage(None, t), "rkmk4": rkmk4}.get(method)
    if increment is None:
        raise ValueError(f"unknown integrator {method!r}")
    g = np.asarray(g0, dtype=float).copy()
    space.check_group(g)
    n_steps = int(round(horizon / dt))
    times = dt * np.arange(n_steps + 1)
    # the whole trajectory, or a chunk buffer that is flushed when full
    buf = np.empty((n_steps + 1 if consume is None else min(_STEP_CHUNK, n_steps + 1),)
                   + g.shape)

    def put(k, gk):
        j = k % len(buf)
        buf[j] = gk
        if consume is not None and (j == len(buf) - 1 or k == n_steps):
            consume(k - j, buf[:j + 1])

    m, d = space.dim_m, space.embed_dim
    one_row = F.state_independent and g.size > 0
    if one_row:
        c0 = eval_coeff(F, g, times[0], dim_m=m).reshape(-1, m)
        if (c0 != c0[0]).any():
            raise ValueError(f"field {F.name} is declared state-independent, but its "
                             "coefficients differ between the stacked states at t=0")
        g_row = g.reshape(-1, d, d)[0]  # the one state the coefficients see

        def stage(s, tau):  # the field ignores the state, so s is not applied
            return space.algebra_from_coords(
                np.stack([eval_coeff(F, g_row, ti, dim_m=m) for ti in tau]))
    else:
        def stage(s, tau):  # reads the current g of the loop below
            return space.algebra_from_coords(eval_coeff(
                F, g if s is None else g @ space.algebra_exp(s), tau, dim_m=m))

    def step_exps():  # exp(Omega_k) for k = 0, 1, ..., n_steps - 1
        if one_row:
            for lo in range(0, n_steps, _STEP_CHUNK):
                block = times[lo:min(lo + _STEP_CHUNK, n_steps)]
                yield from space.algebra_exp(increment(stage, block))
        else:  # resumed after each update of g, which the stages read
            for k in range(n_steps):
                yield space.algebra_exp(increment(stage, times[k]))

    put(0, g)
    for k, E in enumerate(step_exps(), 1):
        g = g @ E
        put(k, g)
    return Trajectory(times=times, states=buf if consume is None else None,
                      integrator_id=method, step_size=dt)


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
    """Center trajectory plus exponential radius schedule K e^{ct} r0.

    A tube built with ball samples also holds their distances to the
    center, shape (T+1, n_samples), and the seed the ball was drawn with.
    """

    center: Trajectory
    K: float
    c: float
    r0: float
    space_id: str
    field_id: str
    distances: np.ndarray = field(default=None, repr=False)
    seed: int = 0

    def radius(self, t) -> np.ndarray:
        return self.K * np.exp(self.c * np.asarray(t, dtype=float)) * self.r0

    def to_dict(self) -> dict:
        return {
            "space": self.space_id,
            "field": self.field_id,
            "K": self.K,
            "c": self.c,
            "r0": self.r0,
            "horizon": self.center.horizon,
            "dt": self.center.step_size,
            "integrator": self.center.integrator_id,
            "radius_schedule": "K*exp(c*t)*r0",
        }


def reach_tube(F: HorizontalField, space: Space, g0, r0: float,
               certificate: ContractionCertificate, horizon: float, dt: float,
               K: float = 1.0, method: str = "rkmk4", n_samples: int = 0,
               seed: int = 0) -> ReachTube:
    """Contraction tube around the integrated center trajectory.

    Requires a PASS certificate, at any rate c (its label names the sign);
    a failed certificate gives no sound tube and is an error.  The
    ``n_samples`` metric-ball samples (drawn with ``seed``) are integrated
    in lockstep with the center, and the tube keeps their distances to it.
    """
    if not certificate.passed:
        raise ValueError("certificate verdict is FAIL; no sound tube exists")
    g0 = np.asarray(g0, dtype=float)
    if n_samples:
        _require_distance(space)
    center, distances = _lockstep(F, space, g0, r0, n_samples, seed, horizon, dt, method)
    return ReachTube(
        center=center,
        K=float(K),
        c=float(certificate.rate_c),
        r0=float(r0),
        space_id=space.name,
        field_id=F.name,
        distances=distances if n_samples else None,
        seed=seed,
    )


def _lockstep(F, space: Space, g0, r0, n, seed, horizon, dt, method):
    """Integrate [g0; ball of ``n`` samples, radius ``r0``, drawn with ``seed``]
    in lockstep, reducing each chunk of steps as it arrives, to the center
    (T+1, d, d) and the ball's distances to it (T+1, n).  The stack is never
    stored.  Callers run ``_require_distance``."""
    ball = sample_metric_ball(space, g0, r0, n, seed)
    n_times = int(round(horizon / dt)) + 1
    center = np.empty((n_times,) + g0.shape)
    dists = np.empty((n_times, n))

    def reduce(lo, chunk):
        hi = lo + len(chunk)
        center[lo:hi] = chunk[:, 0]
        dists[lo:hi] = space.ops.distance(space, center[lo:hi, None], chunk[:, 1:])

    traj = integrate(F, space, np.concatenate([g0[None], ball]), horizon, dt,
                     method=method, consume=reduce)
    return replace(traj, states=center), dists


def _tube_extremes(dists, radii) -> tuple[float, float]:
    """max over (t, n) of dists[t, n] - radii[t], and of |dists[t, n] - dists[0, n]|.

    Rounded subtraction is monotone in each operand, so reducing over
    samples or times first gives the dense maxima bit for bit in O(T + n)
    extra memory.
    """
    max_margin = (dists.max(axis=1) - radii).max()
    d0 = dists[0]
    max_drift = max((dists.max(axis=0) - d0).max(), (d0 - dists.min(axis=0)).max())
    return float(max_margin), float(max_drift)


@dataclass(frozen=True)
class ContainmentReport:
    """Monte Carlo check that sampled trajectories stay inside the tube."""

    n_samples: int
    seed: int
    max_margin: float  # max over samples/times of d(sample, center) - radius
    max_drift: float   # max over samples/times of |d(t) - d(0)|
    tol: float
    distances: np.ndarray = field(default=None, repr=False)  # (T+1, n_samples)

    @property
    def passed(self) -> bool:
        return self.max_margin <= self.tol

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "max_margin": self.max_margin,
            "max_drift": self.max_drift,
            "tol": self.tol,
            "verdict": "PASS" if self.passed else "FAIL",
        }


def sample_metric_ball(space: Space, g0, r0: float, n: int, seed: int = 0) -> np.ndarray:
    """Uniform samples of the metric ball pushed through the exponential."""
    rng = np.random.default_rng(seed)
    m = space.dim_m
    dirs = rng.standard_normal((n, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = r0 * rng.random(n) ** (1.0 / m)
    coords = dirs * radii[:, None]
    return np.asarray(g0, dtype=float) @ space.algebra_exp(space.algebra_from_coords(coords))


def monte_carlo_containment(tube: ReachTube, F: HorizontalField, space: Space,
                            n_samples: int = 100, seed: int = 0) -> ContainmentReport:
    """Check that ball samples integrated with the center's scheme stay in the tube.

    Uses the tube's own sample distances when it was built with the same
    ``n_samples`` and ``seed``; otherwise integrates a fresh lockstep stack,
    the tube's start state plus a new ball.
    """
    _require_distance(space)
    dists = tube.distances
    if dists is None or dists.shape[1] != n_samples or tube.seed != seed:
        c = tube.center
        _, dists = _lockstep(F, space, c.states[0], tube.r0, n_samples, seed,
                             c.horizon, c.step_size, c.integrator_id)
    max_margin, max_drift = _tube_extremes(dists, tube.radius(tube.center.times))
    return ContainmentReport(
        n_samples=n_samples,
        seed=seed,
        max_margin=max_margin,
        max_drift=max_drift,
        tol=_CONTAINMENT_TOL,
        distances=dists,
    )


def trajectory_to_csv(space: Space, traj: Trajectory, path) -> None:
    """Write (t, state coordinates) rows; sphere states export as 3-vectors."""
    flat = space.ops.project(space, traj.states).reshape(len(traj.times), -1)
    with open(path, "w") as fh:
        d = flat.shape[-1]
        fh.write("t," + ",".join(f"s{i}" for i in range(d)) + "\n")
        for t, row in zip(traj.times.tolist(), flat.tolist()):
            fh.write(",".join(map(repr, [t] + row)) + "\n")


def group_constraint_drift(space: Space, traj: Trajectory) -> float:
    """Worst violation of the group constraint along the trajectory."""
    return float(np.max(space.ops.residual(traj.states)))
