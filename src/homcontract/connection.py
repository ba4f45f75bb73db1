"""Invariant Levi-Civita connection data in an orthonormal m-basis.

The connection is encoded by a constant bilinear map alpha on m,
alpha(A_j, A_k) = alpha[i, j, k] A_i, split as half the projected bracket
plus a metric correction term U.  Everything here is derived from the
bracket table ``dec.bracket_m``, which the decomposition builds once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liealg import ReductiveDecomposition

_TOL = 1e-10  # largest entry counted as zero by the flags and the tensor identities


def _U(bm: np.ndarray) -> np.ndarray:
    # <[A_i, A_j]_m, A_k> = bm[i, j, k];  <A_j, [A_i, A_k]_m> = bm[i, k, j]
    return 0.5 * (bm + np.einsum("ikj->ijk", bm))


def compute_U(dec: ReductiveDecomposition) -> np.ndarray:
    """Metric correction term of the invariant Levi-Civita connection.

    U[i, j, k] is the i-th coordinate of U(A_j, A_k); symmetric in (j, k).
    Nomizu's sign: <U(X, Y), Z> = (<[Z, X]_m, Y> + <X, [Z, Y]_m>) / 2.
    """
    return _U(dec.bracket_m)


def compute_alpha(dec: ReductiveDecomposition) -> np.ndarray:
    """Full connection tensor: half projected bracket plus U."""
    bm = dec.bracket_m
    return 0.5 * np.einsum("jki->ijk", bm) + _U(bm)


@dataclass(frozen=True)
class SpaceClassification:
    """Largest U entry and m-bracket leak; each flag holds where its number is <= _TOL."""

    max_u_norm: float
    max_mm_leak: float

    is_symmetric = property(lambda self: self.max_mm_leak <= _TOL)
    is_naturally_reductive = property(lambda self: self.max_u_norm <= _TOL)

    def to_dict(self) -> dict:
        return {
            "symmetric": self.is_symmetric,
            "naturally_reductive": self.is_naturally_reductive,
            "max_u_norm": self.max_u_norm,
            "max_mm_leak": self.max_mm_leak,
        }


def classify(dec: ReductiveDecomposition) -> SpaceClassification:
    """The magnitudes that flag the space symmetric / naturally reductive / generic.

    Symmetric: every bracket of m-basis pairs falls back into h.  Naturally
    reductive: the U term vanishes.  The flags are read from the reported
    magnitudes, so borderline cases can be judged by the caller.
    """
    bm = dec.bracket_m
    return SpaceClassification(max_u_norm=float(np.abs(_U(bm)).max(initial=0.0)),
                               max_mm_leak=float(np.linalg.norm(bm, axis=-1).max(initial=0.0)))


def check_alpha_invariants(dec: ReductiveDecomposition, alpha: np.ndarray) -> None:
    """Raise if the torsion or metric-compatibility identities fail.

    alpha[i, j, k] - alpha[i, k, j] must reproduce the projected bracket,
    and alpha(A_j, .) must be skew for the metric: alpha[i, j, k] +
    alpha[k, j, i] = 0, so <alpha(X, Y), Z> + <Y, alpha(X, Z)> = 0.  Both
    residuals are rounding errors of the bracket table's entries, which grow
    with the metric's scale, so each is compared with _TOL times the largest.
    """
    bm = dec.bracket_m
    tol = _TOL * np.abs(bm).max(initial=0.0)
    if np.abs(alpha - np.einsum("ikj->ijk", alpha) - np.einsum("jki->ijk", bm)).max() > tol:
        raise ValueError("connection tensor violates the torsion identity")
    if np.abs(alpha + np.einsum("kji->ijk", alpha)).max(initial=0.0) > tol:
        raise ValueError("connection tensor violates metric compatibility")
