"""Built-in reductive Riemannian homogeneous spaces.

Shipped instances: flat Euclidean space (translations embedded as
(n+1)x(n+1) matrices), the circle SO(2), the unit sphere as SO(3)/SO(2),
and SO(3) with either the bi-invariant metric or a user-supplied
left-invariant Gram matrix on the standard skew basis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import connection, smallmat
from .connection import SpaceClassification
from .liealg import ReductiveDecomposition, check_ad_invariance, orthonormalize_basis

# Standard skew basis of so(3): generators of rotations about x, y, z.
SO3_BASIS = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
        [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)

# Deterministic SO(2) sample angles; irrational multiples of pi are included
# on purpose so accidental symmetries cannot mask an invariance failure.
_H_ANGLES = tuple(
    float(a)
    for a in np.concatenate(
        [
            [0.0, 0.3, 1.7, 3.0, np.sqrt(2.0), np.pi / np.e],
            (np.arange(1, 11) * np.pi * (np.sqrt(5.0) - 1.0)) % (2.0 * np.pi),
        ]
    )
)


@dataclass(frozen=True)
class Space:
    """A reductive Riemannian homogeneous space with cached connection data."""

    name: str
    kind: str  # "euclidean" | "circle" | "sphere" | "so3"
    embed_dim: int
    dec: ReductiveDecomposition
    alpha: np.ndarray  # (m, m, m), alpha[i, j, k]
    classification: SpaceClassification
    base_point: Optional[np.ndarray] = None
    gram: Optional[np.ndarray] = None  # metric Gram in the raw basis, None = trace form
    h_sampler: Optional[Callable[[], list[np.ndarray]]] = field(default=None, repr=False)

    @property
    def dim_m(self) -> int:
        return self.dec.dim_m

    def identity(self) -> np.ndarray:
        return np.eye(self.embed_dim)

    def check_group(self, g, tol: float = 1e-8) -> None:
        """Raise if g, or any element of a stack (..., d, d), violates the
        group's defining constraint; the message names the first offender."""
        g = np.asarray(g, dtype=float)
        if g.shape[-2:] != (self.embed_dim, self.embed_dim):
            raise ValueError(f"group element has wrong shape {g.shape}")
        if self.kind == "euclidean":
            n = self.embed_dim - 1
            block = np.abs(g[..., :n, :n] - np.eye(n)).max(axis=(-2, -1))
            last = np.abs(g[..., n, :] - np.eye(self.embed_dim)[n]).max(axis=-1)
            err = np.maximum(block, last)
        else:
            gtg = np.swapaxes(g, -1, -2) @ g - np.eye(self.embed_dim)
            err = np.maximum(np.abs(gtg).max(axis=(-2, -1)), np.abs(np.linalg.det(g) - 1.0))
        bad = ~(err <= tol)  # NaN entries count as violations
        if np.any(bad):
            idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
            where = f" at stack index {idx}" if idx else ""
            raise ValueError(
                f"element violates the group constraint (error {err[idx]:.2e}){where}")

    def algebra_from_coords(self, c) -> np.ndarray:
        return self.dec.from_coords(c)

    def algebra_exp(self, A) -> np.ndarray:
        """Exponential of (possibly stacked) algebra elements, closed form."""
        A = np.asarray(A, dtype=float)
        if self.kind in ("so3", "sphere"):
            return smallmat.so3_exp(A)
        if self.kind == "circle":
            th = A[..., 1, 0]
            c, s = np.cos(th), np.sin(th)
            R = np.zeros(A.shape)
            R[..., 0, 0], R[..., 0, 1] = c, -s
            R[..., 1, 0], R[..., 1, 1] = s, c
            return R
        if self.kind == "euclidean":
            return np.broadcast_to(np.eye(self.embed_dim), A.shape) + A
        if A.ndim == 2:
            return smallmat.expm(A)
        return np.stack([smallmat.expm(a) for a in A.reshape(-1, *A.shape[-2:])]).reshape(A.shape)

    def frame_flow(self, g, j: int, t: float) -> np.ndarray:
        """g . exp(t A_j) along the j-th left-invariant frame direction."""
        return np.asarray(g, dtype=float) @ self.algebra_exp(t * self.dec.m_basis[j])

    def h_samples(self) -> list[np.ndarray]:
        if self.h_sampler is None:
            return [self.identity()]
        return self.h_sampler()

    def in_h(self, h, tol: float = 1e-8) -> bool:
        """Membership test for the isotropy subgroup."""
        h = np.asarray(h, dtype=float)
        try:
            self.check_group(h, tol=tol)
        except ValueError:
            return False
        if self.base_point is not None:
            return bool(np.max(np.abs(h @ self.base_point - self.base_point)) <= tol)
        return self.dec.h_basis.shape[0] == 0 and bool(
            np.max(np.abs(h - self.identity())) <= tol
        )

    def to_json(self) -> str:
        data = {
            "name": self.name,
            "kind": self.kind,
            "n": self.dim_m,
            "embed_dim": self.embed_dim,
            "h_basis": self.dec.h_basis.tolist(),
            "m_basis": self.dec.m_basis.tolist(),
            "gram_scale": self.dec.trace_scale,
            "alpha": self.alpha.tolist(),
            "flags": self.classification.to_dict(),
            "base_point": None if self.base_point is None else self.base_point.tolist(),
            "gram": None if self.gram is None else self.gram.tolist(),
        }
        return json.dumps(data, sort_keys=True)


def from_json(text: str) -> Space:
    """Rebuild a space descriptor from its JSON form.

    The isotropy sampler is reattached for the built-in names; unknown
    descriptors fall back to exponentials of the h-basis.
    """
    data = json.loads(text)
    dec = ReductiveDecomposition(
        h_basis=np.asarray(data["h_basis"], dtype=float).reshape(-1, data["embed_dim"], data["embed_dim"]),
        m_basis=np.asarray(data["m_basis"], dtype=float),
        trace_scale=float(data["gram_scale"]),
    )
    flags = data["flags"]
    classification = SpaceClassification(
        is_symmetric=flags["symmetric"],
        is_naturally_reductive=flags["naturally_reductive"],
        max_u_norm=flags["max_u_norm"],
        max_mm_leak=flags["max_mm_leak"],
    )
    base = None if data["base_point"] is None else np.asarray(data["base_point"], dtype=float)
    gram = None if data.get("gram") is None else np.asarray(data["gram"], dtype=float)
    sampler = None
    if data["name"] == "sphere2":
        sampler = _sphere_h_sampler
    space = Space(
        name=data["name"],
        kind=data["kind"],
        embed_dim=int(data["embed_dim"]),
        dec=dec,
        alpha=np.asarray(data["alpha"], dtype=float),
        classification=classification,
        base_point=base,
        gram=gram,
        h_sampler=sampler,
    )
    return space


def _finish(name, kind, embed_dim, dec, base_point=None, gram=None, h_sampler=None) -> Space:
    alpha = connection.compute_alpha(dec)
    connection.check_alpha_invariants(dec, alpha)
    return Space(
        name=name,
        kind=kind,
        embed_dim=embed_dim,
        dec=dec,
        alpha=alpha,
        classification=connection.classify(dec),
        base_point=base_point,
        gram=gram,
        h_sampler=h_sampler,
    )


def make_euclidean(n: int) -> Space:
    """Flat R^n as translations in (n+1)x(n+1) matrices; H is trivial."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    d = n + 1
    raw = np.zeros((n, d, d))
    for i in range(n):
        raw[i, i, n] = 1.0
    dec = ReductiveDecomposition(
        h_basis=np.zeros((0, d, d)),
        m_basis=orthonormalize_basis(raw, trace_scale=1.0),
        trace_scale=1.0,
    )
    return _finish(f"euclidean:{n}", "euclidean", d, dec)


def make_circle() -> Space:
    """SO(2) acting on itself; one-dimensional m, trivial connection."""
    raw = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    dec = ReductiveDecomposition(
        h_basis=np.zeros((0, 2, 2)),
        m_basis=orthonormalize_basis(raw, trace_scale=0.5),
        trace_scale=0.5,
    )
    return _finish("circle", "circle", 2, dec, base_point=np.array([1.0, 0.0]))


def _sphere_h_sampler() -> list[np.ndarray]:
    return [smallmat.so3_exp(a * SO3_BASIS[2]) for a in _H_ANGLES]


def make_sphere2() -> Space:
    """Unit sphere as SO(3)/SO(2), round metric from the half-trace form."""
    dec = ReductiveDecomposition(
        h_basis=SO3_BASIS[2:3].copy(),
        m_basis=orthonormalize_basis(SO3_BASIS[:2], trace_scale=0.5),
        trace_scale=0.5,
    )
    return _finish(
        "sphere2",
        "sphere",
        3,
        dec,
        base_point=np.array([0.0, 0.0, 1.0]),
        h_sampler=_sphere_h_sampler,
    )


def make_so3_biinvariant() -> Space:
    """SO(3) with the bi-invariant metric; H trivial, m = so(3)."""
    dec = ReductiveDecomposition(
        h_basis=np.zeros((0, 3, 3)),
        m_basis=orthonormalize_basis(SO3_BASIS, trace_scale=0.5),
        trace_scale=0.5,
    )
    return _finish("so3", "so3", 3, dec)


def make_so3_left_invariant(gram) -> Space:
    """SO(3) with a left-invariant metric given by a Gram matrix.

    ``gram`` is the metric in the standard skew-basis coordinates; a
    1-D input is taken as a diagonal.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.ndim == 1:
        gram = np.diag(gram)
    dec = ReductiveDecomposition(
        h_basis=np.zeros((0, 3, 3)),
        m_basis=orthonormalize_basis(SO3_BASIS, gram=gram),
        trace_scale=0.5,
    )
    label = ",".join(repr(float(x)) for x in gram[np.triu_indices(3)])
    return _finish(f"so3-left[{label}]", "so3", 3, dec, gram=gram)


def rotate_basis(space: Space, Q) -> Space:
    """Space with the m-basis rotated by an orthogonal coordinate change.

    New basis vectors are B'_i = sum_j Q[j, i] B_j; the connection tensor
    is recomputed in the rotated basis.
    """
    Q = np.asarray(Q, dtype=float)
    m = space.dim_m
    if Q.shape != (m, m) or np.max(np.abs(Q.T @ Q - np.eye(m))) > 1e-10:
        raise ValueError("basis change must be orthogonal")
    dec = ReductiveDecomposition(
        h_basis=space.dec.h_basis,
        m_basis=np.einsum("ji,jab->iab", Q, space.dec.m_basis),
        trace_scale=space.dec.trace_scale,
    )
    return Space(
        name=space.name + "@rot",
        kind=space.kind,
        embed_dim=space.embed_dim,
        dec=dec,
        alpha=connection.compute_alpha(dec),
        classification=space.classification,
        base_point=space.base_point,
        gram=space.gram,
        h_sampler=space.h_sampler,
    )


def tangent_action(space: Space, g, i: int) -> np.ndarray:
    """Embedded tangent vector of the i-th frame direction at g . o."""
    if space.base_point is None:
        raise ValueError(f"space {space.name} has no embedded base point")
    return np.asarray(g, dtype=float) @ space.dec.m_basis[i] @ space.base_point


def verify_space(space: Space) -> connection.SpaceClassification:
    """Re-run the invariance checks on a descriptor; raises on failure."""
    report = check_ad_invariance(space.dec, space.h_samples(), in_h=space.in_h)
    if not report.passed:
        raise ValueError(f"Ad-invariance violated with leak {report.max_leak:.2e}")
    connection.check_alpha_invariants(space.dec, space.alpha)
    return space.classification
