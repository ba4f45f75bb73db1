"""Vector fields as horizontal-lift coefficient maps on the group.

A field is specified by a coefficient function g -> R^m giving the
components in the left-invariant frame of the m-basis.  Frame-direction
derivatives are taken by central differences along g exp(t A_j), with an
optional Richardson step, and assemble into the m x m linearization used
by the matrix-measure machinery.  Group elements may be stacked
(..., d, d); a whole stack is linearized with one coefficient call.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import _GROUP_TOL, Space

_COSET_TOL = 1e-6  # largest linearization gap across coset representatives passed


@dataclass(frozen=True)
class HorizontalField:
    """Vector field given by lift coefficients in the left-invariant frame.

    ``coeff`` maps (g, t) to an R^m coefficient vector and must accept
    stacked group elements of shape (..., d, d), returning (..., m).
    ``state_independent`` declares that the coefficients depend on t only,
    so the flow commutes with left translation; ``reach.integrate`` then
    evaluates the coefficients on one state and builds the increments of
    each 64-step block in one stacked pass, shared by every row.  It
    verifies the declaration at each block's first time and raises
    ValueError where the stack's coefficients differ.
    """

    name: str
    space_name: str
    coeff: Callable[[np.ndarray, float], np.ndarray]
    state_independent: bool = False


def eval_coeff(F: HorizontalField, g, t: float = 0.0, dim_m=None) -> np.ndarray:
    """Coefficients of F at g of shape (..., d, d), returned as (..., m).

    With ``dim_m`` given, any other shape raises.  A non-finite coefficient
    raises, naming the first offending stack index; the finite case costs
    one ``isfinite`` pass, and the index is searched for only on failure.
    """
    g = np.asarray(g, dtype=float)
    c = np.asarray(F.coeff(g, t), dtype=float)
    if dim_m is not None and c.shape != g.shape[:-2] + (dim_m,):
        raise ValueError(f"field {F.name}: coefficient shape {c.shape}, "
                         f"expected {g.shape[:-2] + (dim_m,)}")
    if not np.isfinite(c).all():
        bad = ~np.all(np.isfinite(np.atleast_1d(c)), axis=-1)
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f" at stack index {idx} of {bad.shape}" if idx else ""
        raise ValueError(
            f"field {F.name}: non-finite coefficients at t={t}{where}, g=\n{g[idx]}")
    return c


def _frame_derivatives(F: HorizontalField, space: Space, g, t: float, step: float,
                       richardson: bool) -> tuple[np.ndarray, np.ndarray]:
    """Frame derivatives (..., m, m) and coefficients (..., m) at g (..., d, d).

    Column j of the first result is the central difference of the
    coefficients along g exp(s A_j); Richardson halves the step once and
    extrapolates.  All 2m (or 4m) shifted elements and g itself go to the
    field in one stacked call.
    """
    g = np.asarray(g, dtype=float)
    m, d = space.dim_m, space.embed_dim
    batch = g.shape[:-2]
    hs = np.array([step, step / 2.0] if richardson else [step])
    signed = np.stack([hs, -hs], axis=-1)  # (n_h, 2)
    E = space.algebra_exp(signed[..., None, None, None] * space.dec.m_basis)
    moved = g[..., None, None, None, :, :] @ E  # (..., n_h, 2, m, d, d)
    stack = np.concatenate(
        [moved.reshape(batch + (-1, d, d)), g[..., None, :, :]], axis=-3)
    c = eval_coeff(F, stack, t, dim_m=m)
    shifted = c[..., :-1, :].reshape(batch + (len(hs), 2, m, m))  # [..., h, sign, j, i]
    D = (shifted[..., 0, :, :] - shifted[..., 1, :, :]) / (2.0 * hs[:, None, None])
    D = (4.0 * D[..., 1, :, :] - D[..., 0, :, :]) / 3.0 if richardson else D[..., 0, :, :]
    return np.swapaxes(D, -1, -2), c[..., -1, :]


def linearize(F: HorizontalField, space: Space, g, t: float = 0.0,
              step: float = 1e-5, richardson: bool = False) -> np.ndarray:
    """The m x m frame linearization at g.

    ``g`` may be a stack (..., d, d); the result is then (..., m, m), one
    matrix per element, from a single stacked coefficient evaluation.
    Column j is the frame derivative of the coefficients plus the
    connection correction sum_k coeff_k alpha[:, j, k].
    """
    P, c = _frame_derivatives(F, space, g, t, step, richardson)
    return P + np.einsum("ijk,...k->...ij", space.alpha, c)


@dataclass(frozen=True)
class CosetReport:
    max_gap: float
    tol: float
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return self.max_gap <= self.tol


def coset_consistency_check(F: HorizontalField, space: Space, g, h_samples=None) -> CosetReport:
    """Compare the linearization across coset representatives g and g h.

    For a genuine horizontal lift the matrices agree; the gap reported is
    the max-entry deviation over the sampled isotropy elements.
    """
    if h_samples is None:
        h_samples = space.h_samples()
    g = np.asarray(g, dtype=float)
    d = space.embed_dim
    hs = np.reshape(np.asarray(h_samples, dtype=float), (-1, d, d))
    P = linearize(F, space, np.concatenate([g[None], g @ hs]))
    gap = float(np.abs(P[1:] - P[0]).max(initial=0.0))
    return CosetReport(max_gap=gap, tol=_COSET_TOL, pairs_checked=len(hs))


def rotate_field(F: HorizontalField, Q) -> HorizontalField:
    """Coefficients of the same field in a Q-rotated orthonormal m-basis."""
    Q = np.asarray(Q, dtype=float)

    def coeff(g, t):
        return np.asarray(F.coeff(g, t), dtype=float) @ Q

    return HorizontalField(
        name=F.name + "@rot",
        space_name=F.space_name,
        coeff=coeff,
        state_independent=F.state_independent,
    )


# ---------------------------------------------------------------------------
# Built-in demo fields


def sphere_height_gradient(space: Space) -> HorizontalField:
    """Gradient ascent of the height function p -> o . p on the sphere."""
    o = space.base_point
    tangents = space.dec.m_basis @ o  # (m, 3)

    def coeff(R, t):
        p = R @ o
        grad = o - (p @ o)[..., None] * p
        frames = np.einsum("...ab,ib->...ia", R, tangents)
        return np.einsum("...ia,...a->...i", frames, grad)

    return HorizontalField("sphere-grad-height", space.name, coeff)


def sphere_nonequivariant(space: Space) -> HorizontalField:
    """Deliberately non-horizontal coefficients; fails the coset check."""

    def coeff(R, t):
        # x-coordinate of the moving point: a fine function on the sphere,
        # but constant coefficients in a frame that rotates under the
        # isotropy, so the linearization disagrees across coset reps.
        c = np.zeros(R.shape[:-2] + (space.dim_m,))
        c[..., 0] = R[..., 0, 2]
        return c

    return HorizontalField("sphere-noneq", space.name, coeff)


def constant_field(space: Space, u) -> HorizontalField:
    """Constant frame coefficients (state-independent input)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (space.dim_m,):
        raise ValueError("input dimension does not match the space")

    def coeff(g, t):
        out = np.empty(g.shape[:-2] + u.shape)
        out[...] = u
        return out

    label = ",".join(repr(float(x)) for x in u)
    return HorizontalField(f"constant[{label}]", space.name, coeff, state_independent=True)


def so3_demo_schedule(space: Space) -> HorizontalField:
    """Time-varying open-loop input used by the attitude reachability demo."""

    def coeff(g, t):
        u = np.array([(5.0 - t) / 5.0, 1.0 - (t / 5.0) ** 2, np.sin(np.pi * t / 2.0)])
        out = np.empty(g.shape[:-2] + (3,))
        out[...] = u
        return out

    return HorizontalField("so3-demo-schedule", space.name, coeff, state_independent=True)


def euclidean_linear(space: Space, M) -> HorizontalField:
    """Linear field x -> M x on flat space, read off the translation part."""
    M = np.asarray(M, dtype=float)
    n = space.embed_dim - 1
    if M.shape != (n, n):
        raise ValueError("matrix size does not match the space dimension")

    def coeff(g, t):
        return g[..., :n, n] @ M.T

    return HorizontalField("euclidean-linear", space.name, coeff)


def circle_sine(space: Space) -> HorizontalField:
    """Coefficient sin(theta) on the circle; smooth and periodic."""

    def coeff(R, t):
        return R[..., 1:2, 0]

    return HorizontalField("circle-sin", space.name, coeff)


# Queries per batched neighbour fit; bounds the (chunk, k, k) fit arrays.
_FIT_CHUNK = 256
# A coefficient call searches the table by brute force while queries x rows
# stays at or below this; at about 16 ns per pair (2-CPU x86 host) that is
# under 0.3 s, less than importing scipy.spatial for a k-d tree.
_BRUTE_MAX_PAIRS = 2 ** 24
# Distance entries per brute-force chunk (8-byte distance and index each),
# so the search holds about 16 MB whatever the table size.
_BRUTE_CHUNK_ENTRIES = 2 ** 20


def tabulated_field(space: Space, path) -> HorizontalField:
    """Field interpolated from a CSV coefficient table.

    Header ``g00,...,g{d-1}{d-1},x1,...,xm``; each row is a flattened
    group element followed by its m coefficients.  A file without a header
    or data rows, with any line of other than d^2 + m fields, or with a row
    that has a non-finite entry or is not a group element (one stacked
    check of the space's group constraint), raises ValueError naming the
    file and the first bad line.  A query takes the intercept of a
    local-linear least-squares fit on its d^2 + 1 nearest table points, or
    the tabulated value on an exact hit.  Queries may be stacked
    (..., d, d) and are fitted in batches.  A call whose queries
    times table rows is at most ``_BRUTE_MAX_PAIRS`` (the 5,120 queries of
    a 1,024-sample certify on tables up to about 3,000 rows) finds the
    neighbours by a brute-force search, with no scipy import; a larger call
    builds one ``scipy.spatial.cKDTree`` over the table, kept for later
    calls.  Either way the neighbours are ordered by exact distance; a
    neighbour tied at the k-th distance is not chosen by lowest row.
    """
    d = space.embed_dim
    m = space.dim_m
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for line, row in enumerate(rows, 1):
        if len(row) != d * d + m:
            raise ValueError(f"table {path}, line {line}: expected {d * d + m} columns "
                             f"(d^2 + m), found {len(row)}")
    if len(rows) < 2:
        raise ValueError(f"table {path}, line {len(rows) + 1}: expected a "
                         f"{'data row' if rows else 'header'}, found the end of the file")
    data = np.asarray(rows[1:], dtype=float)
    finite = np.isfinite(data).all(axis=1)
    err = np.full(len(data), np.inf)
    err[finite] = space.ops.residual(data[finite, : d * d].reshape(-1, d, d))
    if not np.all(err <= _GROUP_TOL):
        line = int(np.argmax(err > _GROUP_TOL))
        found = f"group constraint error {err[line]:.2e}" if finite[line] else "a non-finite entry"
        raise ValueError(f"table {path}, line {line + 2}: expected a group element and "
                         f"finite coefficients, found {found}")
    points = data[:, : d * d]
    values = data[:, d * d:]
    n_rows = len(points)
    k = min(n_rows, d * d + 1)
    # brute force ranks rows by |p|^2 - 2 q.p, the squared distance less
    # the query's own |q|^2; centring keeps these terms small, so rounding
    # can reorder only near-ties
    mean = points.mean(axis=0)
    centred = points - mean
    sq_norms = np.einsum("ij,ij->i", centred, centred)
    trees = []
    # the lstsq(rcond=None) cutoff max(rows, cols) * eps, passed to pinv
    # explicitly because its default differs between numpy 1.x and 2.x
    cutoff = max(k, d * d + 1) * np.finfo(float).eps

    def brute_neighbours(q):
        d2 = sq_norms - 2.0 * (q - mean) @ centred.T
        idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
        dist = np.linalg.norm(points[idx] - q[:, None, :], axis=-1)
        order = np.argsort(dist, axis=1, kind="stable")
        return (np.take_along_axis(dist, order, axis=1),
                np.take_along_axis(idx, order, axis=1))

    def tree_neighbours(q):
        if not trees:
            from scipy.spatial import cKDTree
            trees.append(cKDTree(points))
        dist, idx = trees[0].query(q, k=k)
        return dist.reshape(len(q), k), idx.reshape(len(q), k)

    def fit(q, dist, idx):
        out = values[idx[:, 0]]
        if k == 1:
            return out
        fitted = dist[:, 0] >= 1e-12
        q, idx = q[fitted], idx[fitted]
        A = np.concatenate([np.ones((len(q), k, 1)), points[idx] - q[:, None, :]], axis=-1)
        intercept = np.linalg.pinv(A, rcond=cutoff)[:, 0, :]
        out[fitted] = np.einsum("nk,nkm->nm", intercept, values[idx])
        return out

    def coeff(g, t):
        flat = g.reshape(-1, d * d)
        out = np.empty((len(flat), m))
        if len(flat) * n_rows <= _BRUTE_MAX_PAIRS:
            neighbours = brute_neighbours
            chunk = max(1, min(_FIT_CHUNK, _BRUTE_CHUNK_ENTRIES // n_rows))
        else:
            neighbours, chunk = tree_neighbours, _FIT_CHUNK
        for lo in range(0, len(flat), chunk):
            q = flat[lo:lo + chunk]
            out[lo:lo + chunk] = fit(q, *neighbours(q))
        return out.reshape(g.shape[:-2] + (m,))

    return HorizontalField(f"tabulated[{path}]", space.name, coeff)


# Demo fields by CLI name: "BASE" or "BASE:ARGS", the text after the first
# colon going to the constructor as ``arg`` (ignored by fields without one).
BUILTIN_FIELDS = {
    "sphere-grad-height": lambda space, arg: sphere_height_gradient(space),
    "sphere-noneq": lambda space, arg: sphere_nonequivariant(space),
    "constant:u1,...,um": lambda space, arg: constant_field(
        space, [float(x) for x in arg.split(",")]),
    "so3-demo-schedule": lambda space, arg: so3_demo_schedule(space),
    "euclidean-linear:m11,m12,...": lambda space, arg: euclidean_linear(
        space, np.reshape([float(x) for x in arg.split(",")], (space.embed_dim - 1,) * 2)),
    "circle-sin": lambda space, arg: circle_sine(space),
}
_FIELD_BY_BASE = {usage.partition(":")[0]: make for usage, make in BUILTIN_FIELDS.items()}


def builtin_field(space: Space, name: str) -> HorizontalField:
    """Resolve a demo field by CLI name, e.g. ``constant:0,0,1``."""
    base, _, arg = name.partition(":")
    if base not in _FIELD_BY_BASE:
        raise KeyError(f"unknown field {name!r} (built-ins: {', '.join(BUILTIN_FIELDS)})")
    return _FIELD_BY_BASE[base](space, arg)
