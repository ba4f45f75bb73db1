"""Dense small-matrix kernels shared by the rest of the library.

Everything operates on plain numpy arrays of modest size (n <= ~6):
symmetric eigen-extremes, matrix exponentials with a closed-form fast
path for 3x3 skew inputs, rotation logarithms, and Gram-weighted inner
products.  All functions are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class SymmetricEigenResult(NamedTuple):
    """Largest eigenvalue of a symmetrized matrix plus a unit witness."""

    lambda_max: float
    witness: np.ndarray


class RotationLog(NamedTuple):
    """Skew logarithm of a rotation; angle is in [0, pi]."""

    skew: np.ndarray
    angle: float
    at_cut_locus: bool


def require_square(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def sym_eig_max(M) -> SymmetricEigenResult:
    """Largest eigenvalue of S = (M + M^T)/2 with a unit eigenvector.

    Deterministic for a fixed input: the witness sign is normalized so its
    largest-magnitude component is positive.
    """
    M = require_square(M)
    S = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(S)
    v = V[:, -1]
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    return SymmetricEigenResult(float(w[-1]), v)


def hat3(w) -> np.ndarray:
    """3-vector to skew matrix, hat3(w) @ v == cross(w, v)."""
    w = np.asarray(w, dtype=float)
    O = np.zeros(w.shape[:-1] + (3, 3))
    O[..., 0, 1], O[..., 0, 2] = -w[..., 2], w[..., 1]
    O[..., 1, 0], O[..., 1, 2] = w[..., 2], -w[..., 0]
    O[..., 2, 0], O[..., 2, 1] = -w[..., 1], w[..., 0]
    return O


def vee3(A) -> np.ndarray:
    """Inverse of hat3 (assumes the input is skew)."""
    A = np.asarray(A, dtype=float)
    return np.stack([A[..., 2, 1], A[..., 0, 2], A[..., 1, 0]], axis=-1)


_I3 = np.eye(3)


def so3_exp(A) -> np.ndarray:
    """Closed-form (Rodrigues) exponential of (possibly stacked) 3x3 skew matrices.

    For A = hat(w), A^2 = w w^T - |w|^2 I, so theta^2 = |w|^2 = -tr(A^2)/2
    comes from the A @ A the formula needs anyway (clamped at 0 for inputs
    that are skew only to rounding).  Below theta = 1e-8 the coefficients
    switch to their Taylor series.
    """
    A = np.asarray(A, dtype=float)
    A2 = A @ A
    th2 = np.maximum(-0.5 * A2.trace(axis1=-2, axis2=-1), 0.0)[..., None, None]
    th = np.sqrt(th2)
    small = th < 1e-8
    any_small = small.any()  # rare; without it the Taylor selects are skipped
    if any_small:
        th = np.where(small, 1.0, th)  # placeholder angle, no 0/0 below
    a = np.sin(th) / th
    b = (1.0 - np.cos(th)) / th ** 2
    if any_small:
        a = np.where(small, 1.0 - th2 / 6.0, a)
        b = np.where(small, 0.5 - th2 / 24.0, b)
    return _I3 + a * A + b * A2


def expm(A) -> np.ndarray:
    """Matrix exponential; exact Rodrigues formula for 3x3 skew inputs."""
    A = require_square(A)
    if A.shape == (3, 3) and np.max(np.abs(A + A.T)) < 1e-12:
        return so3_exp(A)
    import scipy.linalg  # imported here: most runs never leave the closed form

    return scipy.linalg.expm(A)


def logm_rotation(R, tol: float = 1e-9) -> RotationLog:
    """Skew logarithm of a 3x3 rotation matrix.

    The returned angle lies in [0, pi].  Within 1e-7 of pi the result is
    flagged as cut-locus and the axis sign is fixed by making the
    largest-magnitude axis component positive.
    """
    R = require_square(R, "rotation")
    if R.shape != (3, 3):
        raise ValueError(f"expected a 3x3 rotation, got shape {R.shape}")
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol or abs(np.linalg.det(R) - 1.0) > tol:
        raise ValueError("input is not a rotation matrix within tolerance")

    c = (np.trace(R) - 1.0) / 2.0  # cos(angle)
    w = vee3(0.5 * (R - R.T))  # sin(angle) * axis
    s = np.linalg.norm(w)
    # atan2 keeps full relative precision at both ends, where arccos of the
    # trace alone loses digits (a 1e-8 rotation would read as 0)
    angle = float(np.arctan2(s, c))
    at_cut = abs(angle - np.pi) <= 1e-7

    if angle < 1e-8:
        return RotationLog(0.5 * (R - R.T), float(angle), False)
    if np.pi - angle < 1e-4:
        # R + R^T - 2cos(angle) I = 2(1 - cos(angle)) axis axis^T
        S = R + R.T - 2.0 * c * np.eye(3)
        k = int(np.argmax(np.diag(S)))
        axis = S[:, k] / np.linalg.norm(S[:, k])
        if s > 1e-7:
            if np.dot(axis, w) < 0:
                axis = -axis
        else:
            j = int(np.argmax(np.abs(axis)))
            if axis[j] < 0:
                axis = -axis
        return RotationLog(float(angle) * hat3(axis), float(angle), at_cut)
    return RotationLog((angle / (2.0 * np.sin(angle))) * (R - R.T), float(angle), False)


def gram_inner(u, v, gram) -> float:
    """Inner product u^T G v for a symmetric positive definite Gram matrix."""
    gram = require_square(gram, "gram")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (gram.shape[0],) or v.shape != (gram.shape[0],):
        raise ValueError("vector dimensions do not match the Gram matrix")
    if np.max(np.abs(gram - gram.T)) > 1e-10:
        raise ValueError("Gram matrix is not symmetric")
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is not positive definite") from exc
    return float(u @ gram @ v)
