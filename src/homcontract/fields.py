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
_FD_STEP = 1e-5  # default central-difference step of linearize, certify and reach


@dataclass(frozen=True)
class HorizontalField:
    """Vector field given by lift coefficients in the left-invariant frame.

    ``coeff`` maps (g, t) to an R^m coefficient vector and must accept
    stacked group elements of shape (..., d, d), returning (..., m).
    ``state_independent`` declares that the coefficients depend on t only,
    so the flow commutes with left translation.  Such a field must also
    accept an array of times: t of shape (n,) with g of shape (n, d, d)
    returns (n, m), row i the coefficients at t[i], bit for bit as a call
    with the scalar t[i].  ``reach.integrate`` then evaluates each stage of
    a 64-step block in one call, with g a broadcast view of one state, and
    builds the block's increments in one stacked pass, shared by every
    row.  It verifies the declaration at each block's first time and
    raises ValueError where the stack's coefficients differ.

    ``gradient``, when given, maps (g, t) to the pair (c, grad): c of shape
    (..., m) as ``coeff`` returns it, and grad of shape (..., m, d, d),
    entry i the derivative of coefficient i with respect to the ambient
    entries of g.  ``linearize`` then reads the frame derivatives from it
    instead of taking finite differences.
    """

    name: str
    space_name: str
    coeff: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    state_independent: bool = False
    gradient: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]] | None = None


def _checked(F: HorizontalField, g: np.ndarray, t, what: str, out, tail) -> np.ndarray:
    """``out``, F's ``what`` at the stack g, as floats of shape g.shape[:-2] + tail.

    Any other shape raises, unless ``tail`` is None (then one trailing axis
    is per-element).  A non-finite entry raises, naming the first offending
    stack index, its time and its state; the finite case costs one
    ``isfinite`` pass, and the index is searched for only on failure.
    """
    out = np.asarray(out, dtype=float)
    if tail is not None and out.shape != g.shape[:-2] + tail:
        raise ValueError(f"field {F.name}: {what} shape {out.shape}, "
                         f"expected {g.shape[:-2] + tail}")
    if not np.isfinite(out).all():
        per_element = (-1,) if tail is None else tuple(range(-len(tail), 0))
        bad = ~np.all(np.isfinite(np.atleast_1d(out)), axis=per_element)
        idx = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        where = f" at stack index {idx} of {bad.shape}" if idx else ""
        t_bad = float(np.broadcast_to(t, bad.shape)[idx])
        raise ValueError(
            f"field {F.name}: non-finite {what}s at t={t_bad}{where}, g=\n{g[idx]}")
    return out


def eval_coeff(F: HorizontalField, g, t=0.0, dim_m=None) -> np.ndarray:
    """Coefficients of F at g of shape (..., d, d), returned as (..., m).

    ``t`` is a scalar, or for a state-independent field an array of times
    matching the stack.  With ``dim_m`` given, any other shape raises.  A
    non-finite coefficient raises, naming the first offending stack index,
    its time and its state.
    """
    g = np.asarray(g, dtype=float)
    return _checked(F, g, t, "coefficient", F.coeff(g, t),
                    None if dim_m is None else (dim_m,))


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
              step: float = _FD_STEP, richardson: bool = False) -> np.ndarray:
    """The m x m frame linearization at g.

    ``g`` may be a stack (..., d, d); the result is then (..., m, m), one
    matrix per element, from a single stacked coefficient evaluation.
    Column j is the frame derivative of the coefficients along g exp(s A_j),
    A_j the m-basis of ``space``, plus the connection correction
    sum_k coeff_k alpha[:, j, k].  A field with a ``gradient`` gives the
    frame derivative as <grad_i, g A_j> from one call, whose shapes and
    finiteness are checked as ``eval_coeff`` checks coefficients; ``step``
    and ``richardson`` then do not apply.  Any other field takes central
    differences of step ``step``, and with ``richardson`` halves the step
    once and extrapolates.
    """
    if F.gradient is None:
        P, c = _frame_derivatives(F, space, g, t, step, richardson)
    else:
        g = np.asarray(g, dtype=float)
        m, d = space.dim_m, space.embed_dim
        c, grad = F.gradient(g, t)
        c = _checked(F, g, t, "coefficient", c, (m,))
        grad = _checked(F, g, t, "gradient", grad, (m, d, d))
        P = np.einsum("...iab,...jab->...ij", grad, g[..., None, :, :] @ space.dec.m_basis)
    return P + np.einsum("ijk,...k->...ij", space.alpha, c)


@dataclass(frozen=True)
class CosetReport:
    """The largest linearization gap over the isotropy pairs checked; passes <= tol."""

    max_gap: float
    pairs_checked: int

    tol = _COSET_TOL
    passed = property(lambda self: self.max_gap <= self.tol)


def coset_consistency_check(F: HorizontalField, space: Space, g, h_samples=None) -> CosetReport:
    """Compare the linearization across coset representatives g and g h.

    For a genuine horizontal lift P(g h) = C_h P(g) C_h^T, where column j of
    C_h holds the m-coordinates of h^-1 A_j h (one stacked ``coords_m`` over every
    sample and basis element); the gap reported is the max-entry deviation
    from that law over the sampled isotropy elements.
    """
    if h_samples is None:
        h_samples = space.h_samples()
    g = np.asarray(g, dtype=float)
    d = space.embed_dim
    hs = np.reshape(np.asarray(h_samples, dtype=float), (-1, d, d))
    P = linearize(F, space, np.concatenate([g[None], g @ hs]))
    moved = np.linalg.inv(hs)[:, None] @ space.dec.m_basis @ hs[:, None]
    C = np.swapaxes(space.dec.coords_m(moved), -1, -2)
    gap = float(np.abs(P[1:] - C @ P[0] @ np.swapaxes(C, -1, -2)).max(initial=0.0))
    return CosetReport(max_gap=gap, pairs_checked=len(hs))


def rotate_field(F: HorizontalField, Q) -> HorizontalField:
    """Coefficients of the same field in a Q-rotated orthonormal m-basis.

    A ``gradient`` rotates with them: grad'_j = sum_i grad_i Q_ij.
    """
    Q = np.asarray(Q, dtype=float)

    def coeff(g, t):
        return np.asarray(F.coeff(g, t), dtype=float) @ Q

    def gradient(g, t):
        c, grad = F.gradient(g, t)
        return (np.asarray(c, dtype=float) @ Q,
                np.einsum("...iab,ij->...jab", np.asarray(grad, dtype=float), Q))

    return HorizontalField(
        name=F.name + "@rot",
        space_name=F.space_name,
        coeff=coeff,
        state_independent=F.state_independent,
        gradient=None if F.gradient is None else gradient,
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
    if not np.all(np.isfinite(u)):
        raise ValueError(f"constant field entries must be finite, got {u.tolist()}")

    def coeff(g, t):
        out = np.empty(g.shape[:-2] + u.shape)
        out[...] = u
        return out

    label = ",".join(repr(float(x)) for x in u)
    return HorizontalField(f"constant[{label}]", space.name, coeff, state_independent=True)


def so3_demo_schedule(space: Space) -> HorizontalField:
    """Time-varying open-loop input used by the attitude reachability demo."""

    def coeff(g, t):  # t a scalar, or times (n,) for a stack (n, 3, 3)
        t = np.asarray(t)
        # s * s, not s ** 2: a numpy scalar squares with libm pow, 1 ulp off the
        # product at some times (t = 2.551), and an array with the product
        s = t / 5.0
        u = np.stack([(5.0 - t) / 5.0, 1.0 - s * s, np.sin(np.pi * t / 2.0)], axis=-1)
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
# A fit call searches the table by brute force while queries x rows stays
# at or below this; at about 16 ns per pair (2-CPU x86 host) that is under
# 0.3 s, less than importing scipy.spatial for a k-d tree.
_BRUTE_MAX_PAIRS = 2 ** 24
# Distance entries per brute-force chunk (8-byte distance and index each),
# so the search holds about 16 MB whatever the table size.
_BRUTE_CHUNK_ENTRIES = 2 ** 20


class _LocalFit:
    """Local-linear least-squares fit on the nearest rows of a table.

    ``points`` (N, D) are the rows' flattened group elements and ``values``
    (N, m) their coefficients.  Each query is fitted on its k = min(N, D + 1)
    nearest rows, ordered by exact distance; a row tied at the k-th
    distance is not chosen by lowest index.
    """

    def __init__(self, points: np.ndarray, values: np.ndarray):
        self.points, self.values = points, values
        self.k = min(len(points), points.shape[1] + 1)
        # brute force ranks rows by |p|^2 - 2 q.p, the squared distance less
        # the query's own |q|^2; centring keeps these terms small, so rounding
        # can reorder only near-ties
        self.mean = points.mean(axis=0)
        self.centred = points - self.mean
        self.sq_norms = np.einsum("ij,ij->i", self.centred, self.centred)
        self.tree = None
        # the lstsq(rcond=None) cutoff max(rows, cols) * eps, passed to pinv
        # explicitly because its default differs between numpy 1.x and 2.x
        self.cutoff = max(self.k, points.shape[1] + 1) * np.finfo(float).eps

    def neighbours(self, q: np.ndarray, brute: bool) -> tuple[np.ndarray, np.ndarray]:
        """Distances and row indices (n, k) of the k nearest rows to each of
        the queries q (n, D), nearest first: by brute force, or from one
        ``scipy.spatial.cKDTree`` over the table, built on first use."""
        if brute:
            d2 = self.sq_norms - 2.0 * (q - self.mean) @ self.centred.T
            idx = np.argpartition(d2, self.k - 1, axis=1)[:, :self.k]
            dist = np.linalg.norm(self.points[idx] - q[:, None, :], axis=-1)
            order = np.argsort(dist, axis=1, kind="stable")
            return (np.take_along_axis(dist, order, axis=1),
                    np.take_along_axis(idx, order, axis=1))
        if self.tree is None:
            from scipy.spatial import cKDTree
            self.tree = cKDTree(self.points)
        dist, idx = self.tree.query(q, k=self.k)
        return dist.reshape(len(q), self.k), idx.reshape(len(q), self.k)

    def __call__(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Intercept (n, m) and slope (n, D, m) of the fit at the queries q (n, D).

        One neighbour search and one ``pinv(A) @ values`` per chunk give both:
        row 0 of the solution is the intercept, the rows below it the slope.
        An exact hit keeps its tabulated row as the intercept; with k = 1 the
        slope is 0.
        """
        n_rows, D = self.points.shape
        c = np.empty((len(q), self.values.shape[1]))
        slope = np.zeros((len(q), D, self.values.shape[1]))
        brute = len(q) * n_rows <= _BRUTE_MAX_PAIRS
        chunk = max(1, min(_FIT_CHUNK, _BRUTE_CHUNK_ENTRIES // n_rows)) if brute else _FIT_CHUNK
        for lo in range(0, len(q), chunk):
            qc = q[lo:lo + chunk]
            dist, idx = self.neighbours(qc, brute)
            nearest = self.values[idx[:, 0]]
            if self.k == 1:
                c[lo:lo + chunk] = nearest
                continue
            A = np.concatenate([np.ones(idx.shape + (1,)), self.points[idx] - qc[:, None, :]],
                               axis=-1)
            sol = np.linalg.pinv(A, rcond=self.cutoff) @ self.values[idx]
            c[lo:lo + chunk] = np.where(dist[:, :1] >= 1e-12, sol[:, 0], nearest)
            slope[lo:lo + chunk] = sol[:, 1:]
        return c, slope


def tabulated_field(space: Space, path) -> HorizontalField:
    """Field interpolated from a CSV coefficient table.

    Header ``g00,...,g{d-1}{d-1},x1,...,xm``; each row is a flattened
    group element followed by its m coefficients.  A file without a header
    or data rows, with any line of other than d^2 + m fields or a cell that
    is not a number, or with a row that has a non-finite entry or is not a
    group element (one stacked check of the space's group constraint),
    raises ValueError naming the file and the first bad line.  A query is fitted local-linearly, by
    least squares, on its d^2 + 1 nearest table points.  ``coeff`` is the
    fit's intercept, or the tabulated value on an exact hit; ``gradient``
    is the same intercept with the fit's slope, so ``linearize`` takes one
    neighbour search and one fit per element and no finite differences.
    Queries may be stacked (..., d, d) and are fitted in batches.  A call
    whose queries times table rows is at most ``_BRUTE_MAX_PAIRS`` (the
    1,024 queries of a 1,024-sample certify on tables up to 16,384 rows)
    finds the neighbours by a brute-force search, with no scipy import; a
    larger call builds one ``scipy.spatial.cKDTree`` over the table, kept
    for later calls.
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
    try:
        data = np.asarray(rows[1:], dtype=float)
    except ValueError:  # numpy reads each cell with float(); find the bad one
        for line, row in enumerate(rows[1:], 2):
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"table {path}, line {line}: expected a number, "
                                     f"found {cell!r}") from None
        raise
    finite = np.isfinite(data).all(axis=1)
    err = np.full(len(data), np.inf)
    err[finite] = space.ops.residual(data[finite, : d * d].reshape(-1, d, d))
    if not np.all(err <= _GROUP_TOL):
        line = int(np.argmax(err > _GROUP_TOL))
        found = f"group constraint error {err[line]:.2e}" if finite[line] else "a non-finite entry"
        raise ValueError(f"table {path}, line {line + 2}: expected a group element and "
                         f"finite coefficients, found {found}")
    fit = _LocalFit(data[:, : d * d], data[:, d * d:])

    def coeff(g, t):
        return fit(g.reshape(-1, d * d))[0].reshape(g.shape[:-2] + (m,))

    def gradient(g, t):
        c, slope = fit(g.reshape(-1, d * d))
        return (c.reshape(g.shape[:-2] + (m,)),
                np.swapaxes(slope, -1, -2).reshape(g.shape[:-2] + (m, d, d)))

    return HorizontalField(f"tabulated[{path}]", space.name, coeff, gradient=gradient)


def _linear_matrix(space: Space, arg: str) -> np.ndarray:
    """The n x n matrix, n = d - 1, whose row-major entries ``arg`` lists."""
    x, n = [float(v) for v in arg.split(",")], space.embed_dim - 1
    if len(x) != n * n:
        raise ValueError(f"field euclidean-linear on {space.name} needs n^2 = {n * n} "
                         f"entries, found {len(x)}: {arg!r}")
    return np.reshape(x, (n, n))


# Demo fields by CLI name: "BASE" or "BASE:ARGS", the text after the first
# colon going to the constructor as ``arg`` (ignored by fields without one).
# Each row gives the space kind its field is written for, or None for any.
BUILTIN_FIELDS = {
    "sphere-grad-height": ("sphere", lambda space, arg: sphere_height_gradient(space)),
    "sphere-noneq": ("sphere", lambda space, arg: sphere_nonequivariant(space)),
    "constant:u1,...,um": (None, lambda space, arg: constant_field(
        space, [float(x) for x in arg.split(",")])),
    "so3-demo-schedule": ("so3", lambda space, arg: so3_demo_schedule(space)),
    "euclidean-linear:m11,m12,...": ("euclidean", lambda space, arg: euclidean_linear(
        space, _linear_matrix(space, arg))),
    "circle-sin": ("circle", lambda space, arg: circle_sine(space)),
}
_FIELD_BY_BASE = {usage.partition(":")[0]: row for usage, row in BUILTIN_FIELDS.items()}


def builtin_field(space: Space, name: str) -> HorizontalField:
    """Resolve a demo field by CLI name, e.g. ``constant:0,0,1``.

    A field written for another kind of space raises ValueError before it is built.
    """
    base, _, arg = name.partition(":")
    if base not in _FIELD_BY_BASE:
        raise KeyError(f"unknown field {name!r} (built-ins: {', '.join(BUILTIN_FIELDS)})")
    kind, make = _FIELD_BY_BASE[base]
    if kind not in (None, space.kind):
        raise ValueError(f"field {base} is defined on {kind} spaces, not {space.name}")
    return make(space, arg)
