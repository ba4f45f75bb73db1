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
    # <[A_j, A_i]_m, A_k> = bm[j, i, k];  <A_j, [A_k, A_i]_m> = bm[k, i, j]
    return 0.5 * (np.einsum("jik->ijk", bm) + np.einsum("kij->ijk", bm))


def compute_U(dec: ReductiveDecomposition) -> np.ndarray:
    """Metric correction term of the invariant Levi-Civita connection.

    U[i, j, k] is the i-th coordinate of U(A_j, A_k); symmetric in (j, k).
    """
    return _U(dec.bracket_m)


def compute_alpha(dec: ReductiveDecomposition) -> np.ndarray:
    """Full connection tensor: half projected bracket plus U."""
    bm = dec.bracket_m
    return 0.5 * np.einsum("jki->ijk", bm) + _U(bm)


@dataclass(frozen=True)
class SpaceClassification:
    is_symmetric: bool
    is_naturally_reductive: bool
    max_u_norm: float
    max_mm_leak: float

    def to_dict(self) -> dict:
        return {
            "symmetric": self.is_symmetric,
            "naturally_reductive": self.is_naturally_reductive,
            "max_u_norm": self.max_u_norm,
            "max_mm_leak": self.max_mm_leak,
        }


def classify(dec: ReductiveDecomposition) -> SpaceClassification:
    """Flag the space as symmetric / naturally reductive / generic.

    Symmetric: every bracket of m-basis pairs falls back into h.
    Naturally reductive: the U term vanishes.  Violating magnitudes are
    reported so borderline cases can be judged by the caller.
    """
    bm = dec.bracket_m
    mm_leak = float(np.linalg.norm(bm, axis=-1).max(initial=0.0))
    u_norm = float(np.abs(_U(bm)).max(initial=0.0))
    return SpaceClassification(
        is_symmetric=mm_leak <= _TOL,
        is_naturally_reductive=u_norm <= _TOL,
        max_u_norm=u_norm,
        max_mm_leak=mm_leak,
    )


def check_alpha_invariants(dec: ReductiveDecomposition, alpha: np.ndarray) -> None:
    """Raise if the torsion or self-orthogonality identities fail.

    alpha[i, j, k] - alpha[i, k, j] must reproduce the projected bracket,
    and alpha(A_j, A_k) must be orthogonal to A_j for every j, k.
    """
    torsion = alpha - np.einsum("ikj->ijk", alpha) - np.einsum("jki->ijk", dec.bracket_m)
    if np.max(np.abs(torsion)) > _TOL:
        raise ValueError("connection tensor violates the torsion identity")
    self_pair = np.einsum("jjk->jk", alpha)  # self_pair[j, k] = alpha[j, j, k]
    if np.abs(self_pair).max(initial=0.0) > _TOL:
        raise ValueError("connection tensor violates self-orthogonality")
