"""Lie-group integration, invariant distances, and contraction tubes.

Integrators advance states by exponentials of algebra increments, so
trajectories stay on the group by construction.  Tubes pair a center
trajectory with the exponential radius schedule K e^{ct} r0 and are
checked empirically by Monte Carlo containment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .contraction import ContractionCertificate
from .fields import HorizontalField, eval_coeff
from .smallmat import logm_rotation, vee3
from .spaces import Space


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


def _translation(space: Space, g):
    n = space.embed_dim - 1
    return np.asarray(g, dtype=float)[..., :n, n]


def so3_angle(Ra, Rb) -> np.ndarray:
    """Rotation angle between stacked rotations.

    atan2 of sin (from the skew part) and cos (from the trace) of the
    relative rotation, accurate at small angles and near pi alike.
    """
    rel = np.swapaxes(np.asarray(Ra, dtype=float), -1, -2) @ np.asarray(Rb, dtype=float)
    sin = 0.5 * np.linalg.norm(vee3(rel - np.swapaxes(rel, -1, -2)), axis=-1)
    cos = 0.5 * (np.trace(rel, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(sin, cos)


def _sphere_angle(p, q) -> np.ndarray:
    """Great-circle angle between (stacked) embedded points.

    atan2 of |p x q| and p . q keeps full relative precision at small
    angles, where arccos of the dot product alone reads 1e-8 rad as 0.
    """
    return np.arctan2(np.linalg.norm(np.cross(p, q), axis=-1), np.sum(p * q, axis=-1))


def distance(space: Space, p, q) -> float:
    """Riemannian distance for the shipped metrics.

    SO(3) uses the bi-invariant rotation angle (cut-locus inputs are fine
    and return pi); the sphere uses the great-circle angle of the embedded
    points (rotations are pushed through the base point); flat space uses
    the Euclidean norm of the translation parts.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if space.kind == "so3":
        if space.gram is not None:
            raise NotImplementedError("distance is only shipped for the bi-invariant metric")
        log = logm_rotation(p.T @ q)
        return log.angle
    if space.kind == "sphere":
        if p.ndim == 2:
            p = p @ space.base_point
        if q.ndim == 2:
            q = q @ space.base_point
        return float(_sphere_angle(p, q))
    if space.kind == "euclidean":
        return float(np.linalg.norm(_translation(space, p) - _translation(space, q)))
    if space.kind == "circle":
        rel = p.T @ q
        ang = abs(float(np.arctan2(rel[1, 0], rel[0, 0])))
        return ang
    raise NotImplementedError(f"no distance for space kind {space.kind!r}")


def _distance_batch(space: Space, center, samples) -> np.ndarray:
    """Distances from one state to a stacked batch, without per-pair logs."""
    if space.kind == "so3":
        return so3_angle(center, samples)
    if space.kind == "sphere":
        p = center @ space.base_point
        ps = samples @ space.base_point
        return _sphere_angle(ps, p)
    if space.kind == "euclidean":
        diff = _translation(space, samples) - _translation(space, center)
        return np.linalg.norm(diff, axis=-1)
    return np.array([distance(space, center, s) for s in samples])


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
    g0 = tube.center.states[0]
    samples0 = sample_metric_ball(space, g0, tube.r0, n_samples, seed=seed)
    traj = integrate(
        F, space, samples0, tube.center.horizon, tube.center.step_size,
        method=tube.center.integrator_id,
    )
    T = len(tube.center.times)
    dists = np.empty((T, n_samples))
    for k in range(T):
        dists[k] = _distance_batch(space, tube.center.states[k], traj.states[k])
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
    """Write (t, flattened state) rows; sphere states export as 3-vectors."""
    states = traj.states
    if space.kind == "sphere":
        flat = states @ space.base_point
    else:
        flat = states.reshape(states.shape[0], -1)
    with open(path, "w") as fh:
        d = flat.shape[-1]
        fh.write("t," + ",".join(f"s{i}" for i in range(d)) + "\n")
        for t, row in zip(traj.times, flat):
            fh.write(",".join(repr(float(x)) for x in np.atleast_1d(t).tolist() + row.tolist()) + "\n")


def group_constraint_drift(space: Space, traj: Trajectory) -> float:
    """Worst violation of the group constraint along the trajectory."""
    g = traj.states
    if space.kind == "euclidean":
        n = space.embed_dim - 1
        return float(np.max(np.abs(g[..., n, :] - np.eye(space.embed_dim)[n])))
    gtg = np.swapaxes(g, -1, -2) @ g - np.eye(space.embed_dim)
    return float(np.max(np.abs(gtg)))
