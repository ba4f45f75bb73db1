"""Built-in reductive Riemannian homogeneous spaces.

Shipped instances: flat Euclidean space (translations embedded as
(n+1)x(n+1) matrices), the circle SO(2), the unit sphere as SO(3)/SO(2),
and SO(3) with either the bi-invariant metric or a user-supplied
left-invariant Gram matrix on the standard skew basis.

A space is defined by its name, its kind, its reductive decomposition and
its base point.  The connection tensor, the classification flags and the
isotropy samples are derived from the bases; every operation that depends
on the kind is looked up in :data:`KIND_OPS`.
"""

from __future__ import annotations

import dataclasses
import json
from functools import cached_property
from typing import Callable, NamedTuple, Optional

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
_H_ANGLES = np.concatenate(
    [
        [0.0, 0.3, 1.7, 3.0, np.sqrt(2.0), np.pi / np.e],
        (np.arange(1, 11) * np.pi * (np.sqrt(5.0) - 1.0)) % (2.0 * np.pi),
    ]
)
_GROUP_TOL = 1e-8  # largest group-constraint (or base-point) residual counted as exact
# Elements per block of a stacked group check or region exponential, so
# their (block, d, d) temporaries, not (N, d, d) ones, come on top of the
# stack they read and the one they write.
_STACK_BLOCK = 256


def _det(g) -> np.ndarray:
    """Determinant per stacked element.  A 3x3 one is the cofactor expansion
    along the first row, nine elementwise products over the stack, within a
    few units in the last place of the product of its row norms; every
    other size takes ``np.linalg.det``."""
    if g.shape[-1] != 3:
        return np.linalg.det(g)
    (a, b, c), (d, e, f), (p, q, r) = np.moveaxis(g, (-2, -1), (0, 1))
    return a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)


def _rotation_residual(g) -> np.ndarray:
    """max(|g^T g - I|, |det g - 1|) per stacked element, det from :func:`_det`:
    cofactors for so3 and sphere2 (d = 3), LU for the circle (d = 2)."""
    gtg = np.swapaxes(g, -1, -2) @ g - np.eye(g.shape[-1])
    return np.maximum(np.abs(gtg).max(axis=(-2, -1)), np.abs(_det(g) - 1.0))


def _translation_residual(g) -> np.ndarray:
    """Distance of each stacked element from a pure translation [[I, x], [0, 1]]."""
    n = g.shape[-1] - 1
    block = np.abs(g[..., :n, :n] - np.eye(n)).max(axis=(-2, -1))
    last = np.abs(g[..., n, :] - np.eye(n + 1)[n]).max(axis=-1)
    return np.maximum(block, last)


def _circle_exp(A) -> np.ndarray:
    c, s = np.cos(A[..., 1, 0]), np.sin(A[..., 1, 0])
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def _circle_distance(space, p, q) -> np.ndarray:
    rel = np.swapaxes(p, -1, -2) @ q
    return np.abs(np.arctan2(rel[..., 1, 0], rel[..., 0, 0]))


def _points(space, x) -> np.ndarray:
    """Embedded points g . o of states (..., d, d); a 1-D input already is one."""
    return x if x.ndim == 1 else x @ space.base_point


def _sphere_distance(space, p, q) -> np.ndarray:
    """Great-circle angle as atan2(|p x q|, p . q): arccos of the dot product
    alone reads a 1e-8 rad separation as 0."""
    p, q = _points(space, p), _points(space, q)
    return np.arctan2(np.linalg.norm(np.cross(p, q), axis=-1), np.sum(p * q, axis=-1))


def _translation_distance(space, p, q) -> np.ndarray:
    n = p.shape[-1] - 1
    return np.linalg.norm(p[..., :n, n] - q[..., :n, n], axis=-1)


def _rotation_period(A) -> Optional[float]:
    """2 pi / theta of a skew A, theta^2 = -tr(A^2)/2 as in so3_exp; None at theta 0."""
    th = float(np.sqrt(max(-0.5 * np.trace(A @ A), 0.0)))
    return 2.0 * np.pi / th if th > 0.0 else None


class KindOps(NamedTuple):
    """The closed-form operations of one kind of space, all on stacks.

    ``exp`` maps algebra elements (..., d, d) into the group and
    ``residual`` gives each element's violation of the group constraint.
    ``distance(space, p, q)`` broadcasts over stacked states and is the
    Riemannian distance of the metric ``distance_scale * tr(X^T Y)`` on m.
    ``project(space, states)`` gives the coordinates a CSV row holds.
    ``period(A)`` is the smallest T > 0 with exp(T A) = I, or None.
    ``dim_h`` is the dimension of the isotropy algebra the operations assume.
    """

    exp: Callable
    residual: Callable
    distance: Callable
    project: Callable
    period: Callable
    distance_scale: float
    dim_h: int


# The lambdas look up smallmat's kernels per call, so a module attribute
# rebound at run time (bench/tracer.py wraps them) is seen by every call.
KIND_OPS = {
    "so3": KindOps(lambda A: smallmat.so3_exp(A), _rotation_residual,
                   lambda space, p, q: smallmat.so3_angle(p, q), lambda space, g: g,
                   _rotation_period, 0.5, 0),
    "sphere": KindOps(lambda A: smallmat.so3_exp(A), _rotation_residual,
                      _sphere_distance, _points, _rotation_period, 0.5, 1),
    "circle": KindOps(_circle_exp, _rotation_residual, _circle_distance,
                      lambda space, g: g, _rotation_period, 0.5, 0),
    "euclidean": KindOps(lambda A: np.eye(A.shape[-1]) + A, _translation_residual,
                         _translation_distance, lambda space, g: g, lambda A: None, 1.0, 0),
}


@dataclasses.dataclass(frozen=True)
class Space:
    """A reductive Riemannian homogeneous space; connection data derived on access."""

    name: str
    kind: str  # a key of KIND_OPS
    dec: ReductiveDecomposition
    base_point: Optional[np.ndarray] = None

    @property
    def ops(self) -> KindOps:
        return KIND_OPS[self.kind]

    @property
    def dim_m(self) -> int:
        return self.dec.dim_m

    @property
    def embed_dim(self) -> int:
        return self.dec.embed_dim

    @cached_property
    def alpha(self) -> np.ndarray:
        """Connection tensor (m, m, m), alpha[i, j, k]."""
        return connection.compute_alpha(self.dec)

    @cached_property
    def classification(self) -> SpaceClassification:
        return connection.classify(self.dec)

    def identity(self) -> np.ndarray:
        return np.eye(self.embed_dim)

    def check_group(self, g) -> None:
        """Raise if g, or any element of a stack (..., d, d), violates the
        group's defining constraint; the message names the first offender.
        An element with a non-finite entry violates it on every kind."""
        g = np.asarray(g, dtype=float)
        d = self.embed_dim
        if g.shape[-2:] != (d, d):
            raise ValueError(f"group element has wrong shape {g.shape}")
        err = self.group_errors(g.reshape(-1, d, d)).reshape(g.shape[:-2])
        bad = ~(err <= _GROUP_TOL)
        if np.any(bad):
            idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
            where = f" at stack index {idx}" if idx else ""
            raise ValueError(
                f"element violates the group constraint (error {err[idx]:.2e}){where}")

    def group_errors(self, flat: np.ndarray) -> np.ndarray:
        """The group-constraint residual of each element of the stack (N, d, d),
        NaN where an element has a non-finite entry, found a block of
        ``_STACK_BLOCK`` elements at a time, so the memory beyond the N
        residuals is fixed."""
        err = np.full(len(flat), np.nan)
        for lo in range(0, len(flat), _STACK_BLOCK):
            block = flat[lo:lo + _STACK_BLOCK]
            finite = np.isfinite(block).all(axis=(-2, -1))
            err[lo:lo + _STACK_BLOCK][finite] = self.ops.residual(block[finite])
        return err

    def algebra_from_coords(self, c) -> np.ndarray:
        return self.dec.from_coords(c)

    def algebra_exp(self, A) -> np.ndarray:
        """Exponential of (possibly stacked) algebra elements, closed form."""
        return self.ops.exp(np.asarray(A, dtype=float))

    def h_samples(self) -> np.ndarray:
        """Isotropy samples: exp(a B) for each h-basis element B and each
        angle a of _H_ANGLES, or the identity alone when h = 0."""
        h_basis = self.dec.h_basis
        if len(h_basis) == 0:
            return self.identity()[None]
        A = np.multiply.outer(_H_ANGLES, h_basis)
        return self.algebra_exp(A.reshape((-1,) + h_basis.shape[1:]))

    def in_h(self, h) -> bool:
        """Membership test for the isotropy subgroup; a stack passes if every element does."""
        h = np.asarray(h, dtype=float)
        try:
            self.check_group(h)
        except ValueError:
            return False
        if self.base_point is not None:
            return bool(np.max(np.abs(h @ self.base_point - self.base_point)) <= _GROUP_TOL)
        return self.dec.h_basis.shape[0] == 0 and bool(
            np.max(np.abs(h - self.identity())) <= _GROUP_TOL
        )

    def to_json(self) -> str:
        data = {
            "name": self.name,
            "kind": self.kind,
            "h_basis": self.dec.h_basis.tolist(),
            "m_basis": self.dec.m_basis.tolist(),
            "base_point": None if self.base_point is None else self.base_point.tolist(),
        }
        return json.dumps(data, sort_keys=True)


_DESCRIPTOR_KEYS = frozenset(("name", "kind", "h_basis", "m_basis", "base_point"))


def from_json(text: str) -> Space:
    """Rebuild a space from its descriptor JSON and verify it.

    The descriptor holds only the defining keys of :meth:`Space.to_json`;
    everything else is derived.  Raises ValueError on any other or missing
    key, an unknown kind, inconsistent shapes or dependent bases, or a
    failed :func:`verify_space`.
    """
    data = json.loads(text)
    keys = set(data) if isinstance(data, dict) else set()
    if keys != _DESCRIPTOR_KEYS:
        raise ValueError(f"descriptor keys must be exactly {sorted(_DESCRIPTOR_KEYS)}, "
                         f"got {sorted(keys)}")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in KIND_OPS:
        raise ValueError(f"unknown space kind {kind!r} (expected one of {sorted(KIND_OPS)})")
    m_basis = np.asarray(data["m_basis"], dtype=float)
    if m_basis.ndim != 3 or len(m_basis) == 0 or m_basis.shape[1] != m_basis.shape[2]:
        raise ValueError(f"m_basis must be a nonempty (m, d, d) stack, got shape {m_basis.shape}")
    d = m_basis.shape[-1]
    h_basis = np.asarray(data["h_basis"], dtype=float).reshape(-1, d, d)
    base = data["base_point"]
    base = None if base is None else np.asarray(base, dtype=float).reshape(d)
    rank = np.linalg.matrix_rank(np.concatenate([h_basis, m_basis]).reshape(-1, d * d))
    if len(h_basis) != KIND_OPS[kind].dim_h or rank < len(h_basis) + len(m_basis):
        raise ValueError(
            f"a {kind!r} space needs {KIND_OPS[kind].dim_h} h-basis elements and independent "
            f"bases; got {len(h_basis)} h and {len(m_basis)} m elements of rank {rank}")
    space = Space(
        name=str(data["name"]),
        kind=kind,
        dec=ReductiveDecomposition(h_basis=h_basis, m_basis=m_basis),
        base_point=base,
    )
    verify_space(space)
    return space


def _build(name: str, kind: str, raw_m, raw_h=(), gram=None, base_point=None) -> Space:
    """A ``kind`` space: ``raw_m`` orthonormalized for the Gram matrix ``gram``,
    or else for the kind's trace form, and a copy of ``raw_h`` as the h-basis."""
    m_basis = orthonormalize_basis(raw_m, gram=gram, trace_scale=KIND_OPS[kind].distance_scale)
    h_basis = np.array(raw_h, dtype=float).reshape((-1,) + m_basis.shape[1:])
    return Space(name, kind, ReductiveDecomposition(h_basis, m_basis), base_point)


def make_euclidean(n: int) -> Space:
    """Flat R^n as translations in (n+1)x(n+1) matrices; H is trivial."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    raw = np.zeros((n, n + 1, n + 1))
    raw[np.arange(n), np.arange(n), n] = 1.0
    return _build(f"euclidean:{n}", "euclidean", raw)


def make_circle() -> Space:
    """SO(2) acting on itself; one-dimensional m, trivial connection."""
    return _build("circle", "circle", [[[0.0, -1.0], [1.0, 0.0]]],
                  base_point=np.array([1.0, 0.0]))


def make_sphere2() -> Space:
    """Unit sphere as SO(3)/SO(2), round metric from the half-trace form."""
    return _build("sphere2", "sphere", SO3_BASIS[:2], raw_h=SO3_BASIS[2:3],
                  base_point=np.array([0.0, 0.0, 1.0]))


def make_so3_biinvariant() -> Space:
    """SO(3) with the bi-invariant metric; H trivial, m = so(3)."""
    return _build("so3", "so3", SO3_BASIS)


def make_so3_left_invariant(gram) -> Space:
    """SO(3) with a left-invariant metric given by a Gram matrix.

    ``gram`` is the metric in the standard skew-basis coordinates; a
    1-D input is taken as a diagonal.  A non-finite entry, a matrix not
    exactly symmetric, or one with an eigenvalue below the smallest normal
    float (<= 0 included) or a smallest/largest eigenvalue ratio below 1e-10
    raises ValueError naming the matrix; at the ratio bound the m-coordinates
    of an element are accurate to about 1e-11 relative.  The space's name
    lists its upper triangle.
    """
    gram = np.asarray(gram, dtype=float)
    if not np.all(np.isfinite(gram)):
        raise ValueError(f"Gram matrix entries must be finite, got {gram.tolist()}")
    if gram.ndim == 1:
        gram = np.diag(gram)
    if not np.array_equal(gram, gram.T):
        raise ValueError(f"Gram matrix must be symmetric, got {gram.tolist()}")
    eig = np.linalg.eigvalsh(gram)
    if eig.size and not eig[0] >= max(np.finfo(float).tiny, 1e-10 * eig[-1]):
        raise ValueError("Gram matrix must be positive definite with smallest/largest "
                         f"eigenvalue ratio >= 1e-10, got {gram.tolist()}")
    label = ",".join(repr(float(x)) for x in gram[np.triu_indices_from(gram)])
    return _build(f"so3-left[{label}]", "so3", SO3_BASIS, gram=gram)


def verify_space(space: Space) -> connection.SpaceClassification:
    """Check that a space's bases define it; raises ValueError on failure.

    The kind's exponential must map the m-basis into the group; for every
    isotropy sample h, Ad_h must keep m inside m and preserve the metric;
    and the connection tensor must satisfy its identities.
    """
    space.check_group(space.algebra_exp(space.dec.m_basis))
    report = check_ad_invariance(space.dec, space.h_samples(), in_h=space.in_h)
    if not report.passed:
        raise ValueError(
            f"isotropy check failed: Ad_h leaks {report.max_leak:.2e} out of m and "
            f"distorts the metric by {report.max_metric_gap:.2e}")
    connection.check_alpha_invariants(space.dec, space.alpha)
    return space.classification
