"""Matrix Lie algebra machinery and reductive decompositions g = h (+) m.

All algebra elements are square numpy matrices in an explicit embedding.
A :class:`ReductiveDecomposition` carries bases for h and m, where the
m-basis is orthonormal with respect to the chosen invariant metric, so
metric inner products on span(m) reduce to dot products of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SPAN_TOL = 1e-8  # largest residual entry, relative to the element's largest, inside the span
_AD_TOL = 1e-8  # largest Ad_h leak out of m, or metric distortion, counted as invariant


def bracket(X, Y) -> np.ndarray:
    """Matrix commutator XY - YX."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise ValueError(f"bracket of mismatched shapes {X.shape} and {Y.shape}")
    return X @ Y - Y @ X


def adjoint(g, X) -> np.ndarray:
    """Adjoint action g X g^{-1}, broadcasting over stacks (..., d, d)."""
    g = np.asarray(g, dtype=float)
    X = np.asarray(X, dtype=float)
    if g.shape[-2:] != X.shape[-2:]:
        raise ValueError(f"adjoint of mismatched shapes {g.shape} and {X.shape}")
    gT = np.swapaxes(g, -1, -2)
    return np.swapaxes(np.linalg.solve(gT, np.swapaxes(g @ X, -1, -2)), -1, -2)


@dataclass(frozen=True)
class ReductiveDecomposition:
    """Bases for the splitting g = h (+) m.

    ``m_basis`` is orthonormal with respect to the metric inner product on
    m, so coordinates in it double as metric coordinates.
    """

    h_basis: np.ndarray  # (n_h, d, d)
    m_basis: np.ndarray  # (n_m, d, d)

    @property
    def dim_m(self) -> int:
        return self.m_basis.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.m_basis.shape[-1]

    @cached_property
    def dual(self) -> np.ndarray:
        """(d*d, n_h + n_m) dual D of the flattened (h, m) bases B: solve(B B^T, B)^T,
        refined once so that B D = I holds to rounding, not to cond(B B^T) rounding."""
        B = np.concatenate([self.h_basis, self.m_basis]).reshape(-1, self.embed_dim ** 2)
        D = np.linalg.solve(B @ B.T, B).T
        return D + D @ (np.eye(len(B)) - B @ D)

    @cached_property
    def bracket_m(self) -> np.ndarray:
        """bm[j, k, :] = m-coordinates of the m-component of [A_j, A_k]."""
        B = self.m_basis
        return self.coords_m(B[:, None] @ B[None] - B[None] @ B[:, None]) + 0.0  # no -0.0

    def split_coords(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (..., n_h) and (..., n_m) of X (..., d, d) in the (h, m) basis,
        one (1, d*d) @ dual product per element, independent of the rest of the stack;
        raises if an element leaves the span by more than ``_SPAN_TOL`` times its size."""
        rhs = np.asarray(X, dtype=float).reshape(-1, self.embed_dim ** 2)
        c = (rhs[:, None] @ self.dual)[:, 0]
        B = np.concatenate([self.h_basis, self.m_basis]).reshape(c.shape[1], -1)
        if np.any(np.abs(c @ B - rhs) > _SPAN_TOL * np.abs(rhs).max(axis=1, keepdims=True)):
            raise ValueError("element does not lie in the algebra spanned by the bases")
        c = c.reshape(np.shape(X)[:-2] + (len(B),))
        return c[..., :len(self.h_basis)], c[..., len(self.h_basis):]

    def coords_m(self, X) -> np.ndarray:
        """Coordinates of the m-component of X (..., d, d) in the orthonormal m-basis."""
        return self.split_coords(X)[1]

    def from_coords(self, c) -> np.ndarray:
        """Algebra element with the given m-coordinates, shape (..., m) -> (..., d, d)."""
        c = np.asarray(c, dtype=float)
        basis = self.m_basis.reshape(len(self.m_basis), -1)
        return (c @ basis).reshape(c.shape[:-1] + self.m_basis.shape[1:])


def orthonormalize_basis(raw, gram=None, trace_scale: float = 0.5) -> np.ndarray:
    """Gram-Schmidt a raw basis against the metric inner product.

    ``gram`` gives the metric in the raw-basis coordinates; if None the
    trace form is used.  The first output vector stays parallel to
    ``raw[0]`` (sequential Gram-Schmidt via Cholesky).
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 3:
        raise ValueError("expected a stacked (k, d, d) basis")
    k = raw.shape[0]
    if gram is None:
        flat = raw.reshape(k, -1)
        G = trace_scale * (flat @ flat.T)
    else:
        G = np.asarray(gram, dtype=float)
        if G.shape != (k, k):
            raise ValueError("Gram matrix size does not match the basis")
    if np.linalg.matrix_rank(G) < k:
        raise ValueError("raw basis is rank deficient under the given inner product")
    W = np.linalg.inv(np.linalg.cholesky(G)).T  # columns: coordinates of the orthonormal vectors
    return np.einsum("ji,jab->iab", W, raw)


@dataclass(frozen=True)
class AdInvarianceReport:
    """The largest h-leak of Ad_h(m) and metric gap; both pass <= tol."""

    max_leak: float
    max_metric_gap: float

    tol = _AD_TOL
    passed = property(lambda self: self.max_leak <= self.tol and self.max_metric_gap <= self.tol)


def check_ad_invariance(dec: ReductiveDecomposition, h_samples, in_h=None) -> AdInvarianceReport:
    """Verify that Ad_h keeps m inside m and preserves its metric.

    ``in_h`` is an optional membership predicate, applied once to the whole
    (n, d, d) stack; a stack failing it is an error.  Reports the largest
    h-component entry of Ad_h(A_j), and the largest entry of C C^T - I, where
    row j of C holds the m-coordinates of Ad_h(A_j) (the m-basis is
    orthonormal, so an isometry gives C C^T = I).
    """
    H = np.asarray(h_samples, dtype=float)
    if in_h is not None and not in_h(H):
        raise ValueError("sample is not a member of the isotropy subgroup")
    ch, C = dec.split_coords(adjoint(H[:, None], dec.m_basis))  # [sample, j, coordinate]
    leak = np.abs(np.einsum("sji,iab->sjab", ch, dec.h_basis)).max(initial=0.0)
    gap = np.abs(C @ np.swapaxes(C, -1, -2) - np.eye(dec.dim_m)).max(initial=0.0)
    return AdInvarianceReport(max_leak=float(leak), max_metric_gap=float(gap))
