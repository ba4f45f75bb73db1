"""Dense small-matrix kernels shared by the rest of the library.

Everything operates on plain numpy arrays of 3x3 matrices, stacked or
not: the skew hat map and its inverse, the closed-form exponential of
skew matrices, and rotation angles.  All functions are pure.
"""

from __future__ import annotations

import numpy as np


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


def so3_angle(Ra, Rb) -> np.ndarray:
    """Rotation angle between (broadcasting) stacked rotations.

    atan2 of sin (from the skew part) and cos (from the trace) of the
    relative rotation, accurate at small angles and near pi alike.
    """
    rel = np.swapaxes(np.asarray(Ra, dtype=float), -1, -2) @ np.asarray(Rb, dtype=float)
    sin = 0.5 * np.linalg.norm(vee3(rel - np.swapaxes(rel, -1, -2)), axis=-1)
    cos = 0.5 * (np.trace(rel, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(sin, cos)
