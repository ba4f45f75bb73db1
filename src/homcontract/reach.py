"""Lie-group integration, invariant distances, and contraction tubes.

Integrators advance states by exponentials of algebra increments, so
trajectories stay on the group by construction.  Tubes pair a center
trajectory with the exponential radius schedule K e^{ct} r0 and are
checked empirically by Monte Carlo containment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contraction import ContractionCertificate
from .fields import HorizontalField, eval_coeff
from .smallmat import so3_angle  # noqa: F401  (the SO(3) distance kernel, public here too)
from .spaces import Space

# Time steps per distance call in the containment check: a chunk of 64 steps
# of 100 samples keeps the temporaries near 0.5 MB.
_DISTANCE_CHUNK = 64


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integral curve(s); states shape (T+1, ..., d, d)."""

    times: np.ndarray
    states: np.ndarray
    integrator_id: str
    step_size: float

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _commutator(a, b):
    return a @ b - b @ a


def integrate(F: HorizontalField, space: Space, g0, horizon: float, dt: float,
              method: str = "rkmk4", t0: float = 0.0) -> Trajectory:
    """Integrate dg = g . xi(g, t) with Lie-Euler or a 4th-order scheme.

    ``g0`` may be a single (d, d) element or a stacked batch (..., d, d);
    the batch is advanced in lockstep.  The 4th-order scheme is a
    Munthe-Kaas style method: classical four-stage weights in the algebra
    with second-order commutator corrections before each exponential
    re-projection.
    """
    if dt <= 0.0:
        raise ValueError("step size must be positive")
    g = np.asarray(g0, dtype=float).copy()
    space.check_group(g)
    n_steps = int(round(horizon / dt))
    times = t0 + dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1,) + g.shape)
    states[0] = g

    def xi(gg, t):
        return space.algebra_from_coords(eval_coeff(F, gg, t, dim_m=space.dim_m))

    if method == "lieeuler":
        for k in range(n_steps):
            g = g @ space.algebra_exp(dt * xi(g, times[k]))
            states[k + 1] = g
    elif method == "rkmk4":
        def corrected(sigma, a):
            # right-trivialized dexpinv truncated to two commutator terms
            c1 = _commutator(sigma, a)
            return a + 0.5 * c1 + (1.0 / 12.0) * _commutator(sigma, c1)

        for k in range(n_steps):
            t = times[k]
            k1 = xi(g, t)
            s2 = 0.5 * dt * k1
            k2 = corrected(s2, xi(g @ space.algebra_exp(s2), t + 0.5 * dt))
            s3 = 0.5 * dt * k2
            k3 = corrected(s3, xi(g @ space.algebra_exp(s3), t + 0.5 * dt))
            s4 = dt * k3
            k4 = corrected(s4, xi(g @ space.algebra_exp(s4), t + dt))
            g = g @ space.algebra_exp((dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            states[k + 1] = g
    else:
        raise ValueError(f"unknown integrator {method!r}")
    return Trajectory(times=times, states=states, integrator_id=method, step_size=dt)


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
    """Center trajectory plus exponential radius schedule K e^{ct} r0."""

    center: Trajectory
    K: float
    c: float
    r0: float
    space_id: str
    field_id: str

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
               K: float = 1.0, method: str = "rkmk4") -> ReachTube:
    """Contraction tube around the integrated center trajectory.

    Requires a PASS certificate (c <= 0 allowed and labeled nonexpansive);
    a failed certificate gives no sound tube and is an error.
    """
    if not certificate.passed:
        raise ValueError("certificate verdict is FAIL; no sound tube exists")
    center = integrate(F, space, g0, horizon, dt, method=method)
    return ReachTube(
        center=center,
        K=float(K),
        c=float(certificate.rate_c),
        r0=float(r0),
        space_id=space.name,
        field_id=F.name,
    )


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
                            n_samples: int = 100, seed: int = 0,
                            tol: float = 1e-4) -> ContainmentReport:
    """Integrate ball samples with the center's scheme and check containment."""
    _require_distance(space)
    g0 = tube.center.states[0]
    samples0 = sample_metric_ball(space, g0, tube.r0, n_samples, seed=seed)
    traj = integrate(
        F, space, samples0, tube.center.horizon, tube.center.step_size,
        method=tube.center.integrator_id,
    )
    center, states = tube.center.states, traj.states
    dists = np.empty((len(center), n_samples))
    for lo in range(0, len(center), _DISTANCE_CHUNK):
        hi = lo + _DISTANCE_CHUNK
        dists[lo:hi] = distance(space, center[lo:hi, None], states[lo:hi])
    margins = dists - tube.radius(tube.center.times)[:, None]
    drift = np.abs(dists - dists[0][None, :])
    return ContainmentReport(
        n_samples=n_samples,
        seed=seed,
        max_margin=float(margins.max()),
        max_drift=float(drift.max()),
        tol=tol,
        distances=dists,
    )


def trajectory_to_csv(space: Space, traj: Trajectory, path) -> None:
    """Write (t, state coordinates) rows; sphere states export as 3-vectors."""
    flat = space.ops.project(space, traj.states).reshape(len(traj.times), -1)
    with open(path, "w") as fh:
        d = flat.shape[-1]
        fh.write("t," + ",".join(f"s{i}" for i in range(d)) + "\n")
        for t, row in zip(traj.times, flat):
            fh.write(",".join(repr(float(x)) for x in np.atleast_1d(t).tolist() + row.tolist()) + "\n")


def group_constraint_drift(space: Space, traj: Trajectory) -> float:
    """Worst violation of the group constraint along the trajectory."""
    return float(np.max(space.ops.residual(traj.states)))
