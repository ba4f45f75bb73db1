"""Vector fields as horizontal-lift coefficient maps on the group.

A field is specified by a coefficient function g -> R^m giving the
components in the left-invariant frame of the m-basis.  Frame-direction
derivatives are taken by central differences along g exp(t A_j), with an
optional Richardson step, and assemble into the m x m linearization used
by the matrix-measure machinery.  Group elements may be stacked
(..., d, d); a stack is linearized in fixed blocks of elements, with one
coefficient call per block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import _GROUP_TOL, Space

_COSET_TOL = 1e-6  # largest linearization gap across coset representatives passed
_FD_STEP = 1e-5  # default central-difference step of linearize, certify and reach
# Queries per batched neighbour fit; bounds the (chunk, k, k) fit arrays.
_FIT_CHUNK = 256
# Elements per block of a stacked linearization: one fit chunk, so a
# table's fits keep their boundaries however the stack is blocked.  On the
# 3x3 spaces a block's largest temporary, the (256, 2m + 1, 3, 3) stack of
# shifted elements (126 KiB on SO(3) without Richardson), stays under
# 128 KiB, glibc's default mmap threshold: every block reuses the same heap
# memory, and the memory beyond the (..., m, m) result is fixed.
_LINEARIZE_BLOCK = _FIT_CHUNK


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


def _checked(F: HorizontalField, g: np.ndarray, t, what: str, out, tail,
             origin: tuple = (0, None)) -> np.ndarray:
    """``out``, F's ``what`` at the stack g, as floats of shape g.shape[:-2] + tail.

    Any other shape raises, unless ``tail`` is None (then one trailing axis
    is per-element).  A non-finite entry raises, naming the first offending
    stack index, its time and its state; the finite case costs one
    ``isfinite`` pass, and the index is searched for only on failure.
    With ``origin`` = (lo, batch), g holds rows lo, lo + 1, ... of a stack
    of shape batch flattened, and the index named is the one in that stack.
    """
    out = np.asarray(out, dtype=float)
    if tail is not None and out.shape != g.shape[:-2] + tail:
        raise ValueError(f"field {F.name}: {what} shape {out.shape}, "
                         f"expected {g.shape[:-2] + tail}")
    if not np.isfinite(out).all():
        per_element = (-1,) if tail is None else tuple(range(-len(tail), 0))
        bad = ~np.all(np.isfinite(np.atleast_1d(out)), axis=per_element)
        local = np.unravel_index(np.argmax(bad), bad.shape)
        idx, shape = local, bad.shape
        lo, batch = origin
        if batch is not None:
            idx = np.unravel_index(lo + local[0], batch) + local[1:]
            shape = batch + bad.shape[1:]
        idx = tuple(int(i) for i in idx)
        where = f" at stack index {idx} of {shape}" if idx else ""
        t_bad = float(np.broadcast_to(t, bad.shape)[local])
        raise ValueError(
            f"field {F.name}: non-finite {what}s at t={t_bad}{where}, g=\n{g[local]}")
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


def _differenced(F: HorizontalField, space: Space, g: np.ndarray, t: float, hs: np.ndarray,
                 shifts: np.ndarray, origin: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Frame derivatives (n, m, m) and coefficients (n, m) at g (n, d, d).

    Column j of the first result is the central difference of the
    coefficients along g exp(s A_j), for each step s in ``hs``; ``shifts``
    holds the k = 2m n_h matrices exp(+-s A_j), ordered (step, sign, j),
    side by side as one (d, k d) matrix.  Every shifted element is a row
    block of one (n d, d) x (d, k d) GEMM, the same bits as the stacked
    3x3 products.  With two steps (Richardson) the second is half the
    first, and the differences are extrapolated.  All 2m (or 4m) shifted
    elements and g itself go to the field in one stacked call, checked as
    in ``_checked`` with ``origin``.
    """
    m, d = space.dim_m, space.embed_dim
    n, k = len(g), shifts.shape[1] // d
    stack = np.empty((n, k + 1, d, d))
    stack[:, :k] = (g.reshape(-1, d) @ shifts).reshape(n, d, k, d).swapaxes(1, 2)
    stack[:, k] = g
    c = _checked(F, stack, t, "coefficient", F.coeff(stack, t), (m,), origin)
    shifted = c[:, :-1].reshape(n, len(hs), 2, m, m)  # [n, h, sign, j, i]
    D = (shifted[:, :, 0] - shifted[:, :, 1]) / (2.0 * hs[:, None, None])
    D = (4.0 * D[:, 1] - D[:, 0]) / 3.0 if len(hs) == 2 else D[:, 0]
    return np.swapaxes(D, -1, -2), c[:, -1]


def _from_gradient(F: HorizontalField, space: Space, g: np.ndarray, t: float,
                   origin: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Frame derivatives <grad_i, g A_j> (n, m, m) and coefficients (n, m) at g
    (n, d, d), from one call of F's ``gradient``, checked as in ``_checked``."""
    m, d = space.dim_m, space.embed_dim
    c, grad = F.gradient(g, t)
    c = _checked(F, g, t, "coefficient", c, (m,), origin)
    grad = _checked(F, g, t, "gradient", grad, (m, d, d), origin)
    return np.einsum("...iab,...jab->...ij", grad, g[..., None, :, :] @ space.dec.m_basis), c


def _linearized_blocks(F: HorizontalField, space: Space, g, t: float = 0.0,
                       step: float = _FD_STEP, richardson: bool = False):
    """(lo, P) for each block of ``_LINEARIZE_BLOCK`` elements of the stack g
    flattened: P the (n, m, m) linearization of elements lo, ..., lo + n - 1,
    from one stacked coefficient (or gradient) call.  A non-finite
    coefficient or gradient is named by its index in the whole stack."""
    g = np.asarray(g, dtype=float)
    batch = g.shape[:-2]
    m, d = space.dim_m, space.embed_dim
    flat = g.reshape((-1,) + g.shape[-2:])
    if F.gradient is None:
        hs = np.array([step, step / 2.0] if richardson else [step])
        E = space.algebra_exp(np.stack([hs, -hs], axis=-1)[..., None, None, None]
                              * space.dec.m_basis)
        shifts = E.reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)  # side by side
    # alpha as (m, m^2): c @ conn is sum_k c_k alpha[:, :, k], one GEMM per block
    conn = space.alpha.reshape(m * m, m).T
    for lo in range(0, len(flat), _LINEARIZE_BLOCK):
        block = flat[lo:lo + _LINEARIZE_BLOCK]
        if F.gradient is None:
            D, c = _differenced(F, space, block, t, hs, shifts, (lo, batch))
        else:
            D, c = _from_gradient(F, space, block, t, (lo, batch))
        yield lo, D + (c @ conn).reshape(D.shape)


def linearize(F: HorizontalField, space: Space, g, t: float = 0.0,
              step: float = _FD_STEP, richardson: bool = False) -> np.ndarray:
    """The m x m frame linearization at g.

    ``g`` may be a stack (..., d, d); the result is then (..., m, m), one
    matrix per element.  The stack is linearized in blocks of
    ``_LINEARIZE_BLOCK`` elements, one stacked coefficient evaluation each,
    written into the one result, so the memory beyond the result does not
    grow with the stack.  Column j is the frame derivative of the
    coefficients along g exp(s A_j), A_j the m-basis of ``space``, plus the
    connection correction sum_k coeff_k alpha[:, j, k].  A field with a
    ``gradient`` gives the frame derivative as <grad_i, g A_j> from one call
    per block, whose shapes and finiteness are checked as ``eval_coeff``
    checks coefficients; ``step`` and ``richardson`` then do not apply.
    Any other field takes central differences of step ``step``, and with
    ``richardson`` halves the step once and extrapolates.
    """
    g = np.asarray(g, dtype=float)
    m = space.dim_m
    P = np.empty((math.prod(g.shape[:-2]), m, m))
    for lo, block in _linearized_blocks(F, space, g, t, step, richardson):
        P[lo:lo + len(block)] = block
    return P.reshape(g.shape[:-2] + (m, m))


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


# ---------------------------------------------------------------------------
# Built-in demo fields


def sphere_height_gradient(space: Space) -> HorizontalField:
    """Gradient ascent of the height function p -> o . p on the sphere."""
    o = space.base_point
    tangents = space.dec.m_basis @ o  # (m, 3)
    m = len(tangents)

    def coeff(R, t):
        # R o is one GEMV and the frames R t_i one GEMM over the stack's rows.
        # On sphere2 each t_i is a signed unit vector, so those frames are
        # exact.  Copied to the (n, m, 3) layout the einsum had (its sum order
        # follows the layout), they give the coefficients the same bits.
        rows = R.reshape(-1, 3)
        p = (rows @ o).reshape(-1, 3)
        grad = o - (p @ o)[:, None] * p
        frames = np.ascontiguousarray((rows @ tangents.T).reshape(-1, 3, m).swapaxes(1, 2))
        return np.einsum("nia,na->ni", frames, grad).reshape(R.shape[:-2] + (m,))

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
    """Linear field x -> M x on flat space, x the translation part of g.

    The coefficients are the frame coordinates of M x: the frame vector g A_j
    is A_j's translation column b_j, so c = B^-1 M x with B = [b_1 ... b_n],
    and the field is the same on every m-basis (B = I on ``euclidean:n``).
    """
    M = np.asarray(M, dtype=float)
    n = space.embed_dim - 1
    if M.shape != (n, n):
        raise ValueError("matrix size does not match the space dimension")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"euclidean-linear entries must be finite, got {M.tolist()}")
    B = space.dec.m_basis[:, :n, n].T
    if B.shape != (n, n):
        raise ValueError(f"euclidean-linear needs an m-basis of {n} translations, "
                         f"{space.name} has {B.shape[1]}")
    T = np.linalg.solve(B, M).T

    def coeff(g, t):
        return g[..., :n, n] @ T

    return HorizontalField("euclidean-linear", space.name, coeff)


def circle_sine(space: Space) -> HorizontalField:
    """Coefficient sin(theta) on the circle; smooth and periodic."""

    def coeff(R, t):
        return R[..., 1:2, 0]

    return HorizontalField("circle-sin", space.name, coeff)


# A fit searches its table by brute force while the queries it has searched,
# this call's included, times the rows stay at or below this; at about 16 ns
# per pair (2-CPU x86 host) that is under 0.3 s, less than importing
# scipy.spatial for a k-d tree, which is paid once.  The count runs over
# calls, so a stack linearized in blocks chooses as one call of it would.
_BRUTE_MAX_PAIRS = 2 ** 24
# Distance entries per brute-force search block.  A block's (queries, N)
# distances and argpartition's indices of that shape take 8 bytes an entry,
# so 2**14 entries keep each at most 128 KiB, glibc's default mmap threshold:
# they come from the heap and are reused by the next block, rather than
# mapped, returned to the OS and faulted in again for every block.
_BRUTE_CHUNK_ENTRIES = 2 ** 14


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
        # the columns in which some row differs from row 0 (the others are fixed,
        # as the last row of every homogeneous matrix on euclidean:N)
        self.varies = (points != points[:1]).any(axis=0)
        self.tree = None
        self.searched = 0  # queries searched so far, over every call
        # the lstsq(rcond=None) cutoff max(rows, cols) * eps, passed to pinv
        # explicitly because its default differs between numpy 1.x and 2.x
        self.cutoff = max(self.k, points.shape[1] + 1) * np.finfo(float).eps

    def neighbours(self, q: np.ndarray, brute: bool) -> tuple[np.ndarray, np.ndarray]:
        """Distances and row indices (n, k) of the k nearest rows to each of
        the queries q (n, D), nearest first: by brute force, in blocks of
        ``_BRUTE_CHUNK_ENTRIES // N`` queries (at least one), or from one
        ``scipy.spatial.cKDTree`` over the table, built on first use."""
        if brute:
            block = max(1, _BRUTE_CHUNK_ENTRIES // len(self.points))
            centred_q = q - self.mean
            idx = np.empty((len(q), self.k), dtype=np.intp)
            for lo in range(0, len(q), block):
                d2 = centred_q[lo:lo + block] @ self.centred.T
                d2 *= -2.0  # exact, so the ranking is that of |p|^2 - 2 q.p
                d2 += self.sq_norms
                idx[lo:lo + block] = np.argpartition(d2, self.k - 1, axis=1)[:, :self.k]
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
        A column that every table row and every query of the chunk hold the
        same value in is exactly zero in A, so it is left out of the fit and
        its slope row is 0, as the minimum-norm fit with it would give.  An
        exact hit keeps its tabulated row as the intercept; with k = 1 the
        slope is 0.
        """
        n_rows, D = self.points.shape
        c = np.empty((len(q), self.values.shape[1]))
        slope = np.zeros((len(q), D, self.values.shape[1]))
        self.searched += len(q)
        brute = self.tree is None and self.searched * n_rows <= _BRUTE_MAX_PAIRS
        for lo in range(0, len(q), _FIT_CHUNK):
            hi = lo + _FIT_CHUNK
            qc = q[lo:hi]
            dist, idx = self.neighbours(qc, brute)
            nearest = self.values[idx[:, 0]]
            if self.k == 1:
                c[lo:hi] = nearest
                continue
            cols = np.flatnonzero(self.varies | (qc != self.points[0]).any(axis=0))
            A = np.concatenate([np.ones(idx.shape + (1,)),
                                self.points[idx][..., cols] - qc[:, None, cols]], axis=-1)
            sol = np.linalg.pinv(A, rcond=self.cutoff) @ self.values[idx]
            c[lo:hi] = np.where(dist[:, :1] >= 1e-12, sol[:, 0], nearest)
            slope[lo:hi, cols] = sol[:, 1:]
        return c, slope


# Bytes per read of the line count; under glibc's 128 KiB mmap threshold, so
# every chunk reuses the same heap memory.
_LINE_CHUNK = 2 ** 16
# Information separators: str.isspace() and numpy's text reader take them for
# spaces around a number, float() does not.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_lines(path) -> int | None:
    """The number of lines of the file at ``path``, ended by \\n, \\r or \\r\\n
    as ``open`` reads them, or None if it holds an information separator."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_LINE_CHUNK):
            if any(sep in chunk for sep in _SEPARATORS):
                return None
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            lines -= last == b"\r" and chunk[:1] == b"\n"  # a \r\n split between chunks
            last = chunk[-1:]
    return lines + (last not in (b"\n", b"\r"))


def _plain_number(cell: str) -> bool:
    """Whether numpy's text reader and float() both read ``cell``: float() also
    reads digit group underscores and non-ASCII digits, the reader does not."""
    try:
        float(cell)
    except ValueError:
        return False
    text = cell.strip()
    return text.isascii() and "_" not in text


def _scanned_table(path, width: int) -> np.ndarray:
    """The data rows of the CSV table at ``path``, read line by line with
    ``csv``, as an (N, width) float array; ValueError names the file and its
    first line with other than ``width`` fields, a missing header or data
    row, or else the first line with a cell that is not a plain number."""
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for line, row in enumerate(rows, 1):
        if len(row) != width:
            raise ValueError(f"table {path}, line {line}: expected {width} columns "
                             f"(d^2 + m), found {len(row)}")
    if len(rows) < 2:
        raise ValueError(f"table {path}, line {len(rows) + 1}: expected a "
                         f"{'data row' if rows else 'header'}, found the end of the file")
    for line, row in enumerate(rows[1:], 2):
        for cell in row:
            if not _plain_number(cell):
                raise ValueError(f"table {path}, line {line}: expected a number, "
                                 f"found {cell!r}")
    return np.array(rows[1:], dtype=float)


def _read_table(path, width: int) -> np.ndarray:
    """The data rows of the CSV table at ``path`` as one (N, width) float array.

    ``np.loadtxt`` reads them in one pass, with no Python object per cell.
    Its result stands when the header, the first line, has ``width`` fields
    and no quote, every data row has ``width`` cells it reads as numbers, and
    the rows it returns are all the file's lines after the header: the
    reader skips blank lines, and a count of the lines shows it skipped none.
    Otherwise, and in a file holding an information separator (which the
    reader takes for a space and float() does not), ``_scanned_table`` reads
    the file again and names its first bad line.
    """
    with open(path, newline="") as fh:
        header = fh.readline()
    if '"' not in header and header.count(",") + 1 == width:
        try:
            with warnings.catch_warnings():  # a file without data rows is refused below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                                  quotechar='"')
        except ValueError:
            pass
        else:
            if data.shape[1] == width and len(data) and _plain_lines(path) == len(data) + 1:
                return data
    return _scanned_table(path, width)


def tabulated_field(space: Space, path) -> HorizontalField:
    """Field interpolated from a CSV coefficient table.

    Header ``g00,...,g{d-1}{d-1},x1,...,xm``; each row is a flattened
    group element followed by its m coefficients.  A cell is a plain
    decimal float (``-1``, ``0.25``, ``1.5e-3``), optionally double-quoted;
    ``inf`` and ``nan`` are read and then refused as non-finite.  The rows
    load in one numpy read into one float array of N (d^2 + m) entries, with
    no Python object per cell (see ``_read_table``).  A file without a
    header or data rows, with a blank line, with any line of other than
    d^2 + m fields or a cell that is not such a number, or with a row that
    has a non-finite entry or is not a group element (a blocked check of
    the space's group constraint), raises ValueError naming the file and
    the first bad line.  A query is fitted local-linearly, by
    least squares, on its d^2 + 1 nearest table points.  ``coeff`` is the
    fit's intercept, or the tabulated value on an exact hit; ``gradient``
    is the same intercept with the fit's slope, so ``linearize`` takes one
    neighbour search and one fit per element and no finite differences.
    Queries may be stacked (..., d, d) and are fitted in batches.  While
    the queries searched so far, this call's included, times table rows
    stay at most ``_BRUTE_MAX_PAIRS`` (the 1,024 queries of a 1,024-sample
    certify on tables up to 16,384 rows), the neighbours are found by a
    brute-force search, with no scipy import; past that, one
    ``scipy.spatial.cKDTree`` is built over the table and serves this and
    every later call.
    """
    d = space.embed_dim
    m = space.dim_m
    data = _read_table(path, d * d + m)
    finite = np.isfinite(data).all(axis=1)
    err = space.group_errors(data[:, : d * d].reshape(-1, d, d))
    err[~finite] = np.inf
    if not np.all(err <= _GROUP_TOL):
        line = int(np.argmax(~(err <= _GROUP_TOL)))
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


def _read_numbers(text: str, count: int, refusal: str, finite: bool = False) -> list[float]:
    """The ``count`` comma-separated numbers of ``text``, finite ones if ``finite``.
    Otherwise ValueError: ``refusal``, how many entries read as such numbers, and the text."""
    entries, numbers = text.split(","), []
    for entry in entries:
        try:
            x = float(entry)
        except ValueError:
            continue
        if not finite or math.isfinite(x):
            numbers.append(x)
    if not len(numbers) == len(entries) == count:
        raise ValueError(f"{refusal} {len(numbers)}: {text!r}")
    return numbers


def _linear_matrix(space: Space, arg: str) -> np.ndarray:
    """The n x n matrix, n = d - 1, whose row-major entries ``arg`` lists."""
    n = space.embed_dim - 1
    x = _read_numbers(arg, n * n, f"field euclidean-linear on {space.name} needs "
                      f"n^2 = {n * n} entries, found")
    return np.reshape(x, (n, n))


# Demo fields by CLI name: "BASE" or "BASE:ARGS", the text after the first
# colon going to the constructor as ``arg`` (ignored by fields without one).
# Each row gives the space kind its field is written for, or None for any.
BUILTIN_FIELDS = {
    "sphere-grad-height": ("sphere", lambda space, arg: sphere_height_gradient(space)),
    "sphere-noneq": ("sphere", lambda space, arg: sphere_nonequivariant(space)),
    "constant:u1,...,um": (None, lambda space, arg: constant_field(space, _read_numbers(
        arg, space.dim_m, f"field constant on {space.name} needs m = {space.dim_m} entries, "
        "found"))),
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
