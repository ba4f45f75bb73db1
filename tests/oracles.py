"""Reference code that only the tests call.

The basis-independence check recomputes the matrix measure with the field
and the space rebuilt in random orthonormal bases of m, where it must not
change; the rest are small helpers the tests compare the library against.
Not a test module: pytest collects ``test_*.py`` only, and puts this
directory on ``sys.path``, so tests read it as ``import oracles``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from homcontract.contraction import matrix_measure
from homcontract.fields import HorizontalField, linearize
from homcontract.reach import Trajectory, integrate, sample_metric_ball
from homcontract.spaces import Space

_BASIS_SEED = 0  # basis_independence_check draws its random bases from this seed
_BASIS_TOL = 1e-7  # ... and passes when the measures spread by at most this


def hat3(w) -> np.ndarray:
    """3-vector to skew matrix, hat3(w) @ v == cross(w, v)."""
    w = np.asarray(w, dtype=float)
    O = np.zeros(w.shape[:-1] + (3, 3))
    O[..., 0, 1], O[..., 0, 2] = -w[..., 2], w[..., 1]
    O[..., 1, 0], O[..., 1, 2] = w[..., 2], -w[..., 0]
    O[..., 2, 0], O[..., 2, 1] = -w[..., 1], w[..., 0]
    return O


def bracket(X, Y) -> np.ndarray:
    """Matrix commutator XY - YX."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise ValueError(f"bracket of mismatched shapes {X.shape} and {Y.shape}")
    return X @ Y - Y @ X


def rotate_basis(space: Space, Q) -> Space:
    """Space with the m-basis rotated by an orthogonal coordinate change.

    New basis vectors are B'_i = sum_j Q[j, i] B_j; the connection tensor
    is derived again in the rotated basis.
    """
    Q = np.asarray(Q, dtype=float)
    m = space.dim_m
    if Q.shape != (m, m) or np.max(np.abs(Q.T @ Q - np.eye(m))) > 1e-10:
        raise ValueError("basis change must be orthogonal")
    dec = dataclasses.replace(space.dec, m_basis=np.einsum("ji,jab->iab", Q, space.dec.m_basis))
    return dataclasses.replace(space, name=space.name + "@rot", dec=dec)


def rotate_field(F: HorizontalField, Q) -> HorizontalField:
    """Coefficients of the same field in a Q-rotated orthonormal m-basis.

    A ``gradient`` rotates with them: grad'_j = sum_i grad_i Q_ij.
    """
    Q = np.asarray(Q, dtype=float)

    def coeff(g, t):
        return np.asarray(F.coeff(g, t), dtype=float) @ Q

    def gradient(g, t):
        c, grad = F.gradient(g, t)
        return (np.asarray(c, dtype=float) @ Q,
                np.einsum("...iab,ij->...jab", np.asarray(grad, dtype=float), Q))

    return HorizontalField(
        name=F.name + "@rot",
        space_name=F.space_name,
        coeff=coeff,
        state_independent=F.state_independent,
        gradient=None if F.gradient is None else gradient,
    )


@dataclass(frozen=True)
class BasisIndependenceReport:
    """The measures at one state in its own and in random bases; their spread passes <= tol."""

    measures: np.ndarray

    tol = _BASIS_TOL
    max_deviation = property(lambda self: float(self.measures.max() - self.measures.min()))
    passed = property(lambda self: self.max_deviation <= self.tol)


def basis_independence_check(F: HorizontalField, space: Space, g,
                             trials: int = 10) -> BasisIndependenceReport:
    """Recompute the measure in random orthonormal bases of m.

    The measure is basis independent; the reported deviation is dominated
    by finite differencing.
    """
    rng = np.random.default_rng(_BASIS_SEED)
    m = space.dim_m
    mus = [matrix_measure(linearize(F, space, g))]
    for _ in range(trials):
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        mus.append(matrix_measure(linearize(rotate_field(F, Q), rotate_basis(space, Q), g)))
    return BasisIndependenceReport(np.asarray(mus))


def group_constraint_drift(space: Space, traj: Trajectory) -> float:
    """Worst violation of the group constraint along the trajectory."""
    return float(np.max(space.ops.residual(traj.states)))


def dense_tube_distances(F: HorizontalField, space: Space, g0, r0: float, n_samples: int,
                         seed: int, horizon: float, dt: float) -> np.ndarray:
    """The (T+1, n_samples) distances of a tube's ball to its center, kept
    whole: the ball drawn and integrated with the center in one stack, as
    ``reach_tube`` does, each chunk's distances stored by this consumer."""
    g0 = np.asarray(g0, dtype=float)
    ball = sample_metric_ball(space, g0, r0, n_samples, seed)
    chunks = []
    integrate(F, space, np.concatenate([g0[None], ball]), horizon, dt,
              consume=lambda lo, chunk: chunks.append(
                  space.ops.distance(space, chunk[:, :1].copy(), chunk[:, 1:])))
    return np.concatenate(chunks)
