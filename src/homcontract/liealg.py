"""Matrix Lie algebra machinery and reductive decompositions g = h (+) m.

All algebra elements are square numpy matrices in an explicit embedding.
A :class:`ReductiveDecomposition` carries bases for h and m, where the
m-basis is orthonormal with respect to the chosen invariant metric, so
metric inner products on span(m) reduce to dot products of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SPAN_TOL = 1e-8  # largest residual entry of an element in the span of the bases
_AD_TOL = 1e-8  # largest Ad_h leak out of m, or metric distortion, counted as invariant


def bracket(X, Y) -> np.ndarray:
    """Matrix commutator XY - YX."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise ValueError(f"bracket of mismatched shapes {X.shape} and {Y.shape}")
    return X @ Y - Y @ X


def adjoint(g, X) -> np.ndarray:
    """Adjoint action g X g^{-1} in the embedding representation."""
    g = np.asarray(g, dtype=float)
    X = np.asarray(X, dtype=float)
    if g.shape != X.shape:
        raise ValueError(f"adjoint of mismatched shapes {g.shape} and {X.shape}")
    return np.linalg.solve(g.T, (g @ X).T).T


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

    def split_coords(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of X in the combined (h, m) basis.

        Raises if X does not lie in the span within ``_SPAN_TOL``.
        """
        X = np.asarray(X, dtype=float)
        full = np.concatenate([self.h_basis, self.m_basis], axis=0)
        B = full.reshape(full.shape[0], -1)
        c, _, _, _ = np.linalg.lstsq(B.T, X.ravel(), rcond=None)
        if np.max(np.abs(c @ B - X.ravel())) > _SPAN_TOL:
            raise ValueError("element does not lie in the algebra spanned by the bases")
        n_h = self.h_basis.shape[0]
        return c[:n_h], c[n_h:]

    def coords_m(self, X) -> np.ndarray:
        """Coordinates of the m-component of X in the orthonormal m-basis."""
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
    if np.linalg.matrix_rank(G, tol=1e-10) < k:
        raise ValueError("raw basis is rank deficient under the given inner product")
    L = np.linalg.cholesky(G)
    W = np.linalg.inv(L).T  # columns: coordinates of the orthonormal vectors
    return np.einsum("ji,jab->iab", W, raw)


@dataclass(frozen=True)
class AdInvarianceReport:
    max_leak: float
    tol: float
    max_metric_gap: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_leak <= self.tol and self.max_metric_gap <= self.tol


def check_ad_invariance(dec: ReductiveDecomposition, h_samples, in_h=None) -> AdInvarianceReport:
    """Verify that Ad_h keeps m inside m and preserves its metric.

    ``in_h`` is an optional membership predicate; a sample failing it is an
    error.  Reports the largest h-component entry of Ad_h(A) over the
    m-basis, and the largest entry of C^T C - I, where column j of C holds
    the m-coordinates of Ad_h(A_j) (the m-basis is orthonormal, so an
    isometry gives C^T C = I).
    """
    leak = gap = 0.0
    m = dec.dim_m
    for h in h_samples:
        h = np.asarray(h, dtype=float)
        if in_h is not None and not in_h(h):
            raise ValueError("sample is not a member of the isotropy subgroup")
        C = np.empty((m, m))
        for j, A in enumerate(dec.m_basis):
            ch, C[:, j] = dec.split_coords(adjoint(h, A))
            P = np.einsum("i,iab->ab", ch, dec.h_basis)  # zeros when h = 0
            leak = max(leak, float(np.max(np.abs(P))))
        gap = max(gap, float(np.max(np.abs(C.T @ C - np.eye(m)))))
    return AdInvarianceReport(max_leak=leak, tol=_AD_TOL, max_metric_gap=gap)
