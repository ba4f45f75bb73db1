"""Dense small-matrix kernels shared by the rest of the library.

Everything operates on plain numpy arrays of 3x3 matrices, stacked or
not: the closed-form exponential of skew matrices and rotation
angles.  All functions are pure.
"""

from __future__ import annotations

import numpy as np


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
    relative rotation, accurate at small angles and near pi alike.  Only
    the three skew differences and the diagonal of the relative rotation
    are read.

    A single rotation per leading index against a stack of at least two,
    Ra (..., 1, 3, 3) and Rb (..., n, 3, 3) as a reach tube reads them,
    takes one (n, 9) x (9, 9) GEMM per leading index in place of n 3x3
    products: row-major, Ra^T Rb is Rb's flat rows times kron(Ra, I3).  The
    products with kron's zeros are exact zeros and BLAS sums each entry in
    the 3x3 product's order, so the angles are the same bits.  numpy takes
    gemv for n = 1, which may round differently, so that shape and every
    other keep the stacked product.
    """
    Ra, Rb = np.asarray(Ra, dtype=float), np.asarray(Rb, dtype=float)
    if Ra.ndim > 2 and Rb.ndim > 2 and Ra.shape[-3] == 1 < Rb.shape[-3]:
        K = np.einsum("...ki,lj->...klij", Ra[..., 0, :, :], _I3).reshape(Ra.shape[:-3] + (9, 9))
        rel = Rb.reshape(Rb.shape[:-2] + (9,)) @ K
        rel = rel.reshape(rel.shape[:-1] + (3, 3))
    else:
        rel = np.swapaxes(Ra, -1, -2) @ Rb
    a = rel[..., 2, 1] - rel[..., 1, 2]
    b = rel[..., 0, 2] - rel[..., 2, 0]
    c = rel[..., 1, 0] - rel[..., 0, 1]
    sin = 0.5 * np.sqrt(a * a + b * b + c * c)
    cos = 0.5 * (rel[..., 0, 0] + rel[..., 1, 1] + rel[..., 2, 2] - 1.0)
    return np.arctan2(sin, cos)
