"""Matrix-measure contraction certificates and loop obstructions.

A region certificate is a sampled maximum of the matrix measure of the
frame linearization; it proves nothing between samples and says so.  The
loop machinery integrates f = <P u, u>, with u the unit generator, around
a periodic one-parameter subgroup orbit, where it must average to zero, so
no such loop admits a uniformly negative measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .connection import compute_U, zero_tol
from .fields import _FD_STEP, HorizontalField, _linearized_blocks, linearize
from .spaces import _STACK_BLOCK, Space

# A certificate passes at mu_max <= c + _SLACK: the slack absorbs finite-
# difference noise when the true measure sits exactly on the rate (region
# boundaries), and is recorded on the certificate.
_SLACK = 1e-9
_PERIOD_TOL = 1e-8  # find_period's exp(T A) must be the identity within this largest entry


def matrix_measure(P):
    """Logarithmic norm: largest eigenvalue of the symmetric part of P.

    A stack P of shape (..., m, m) gives an array of shape (...); a single
    matrix gives a float.  For m = 2 it is the closed form: with
    [[a, b], [b, d]] the symmetric part, (a + d)/2 + hypot((a - d)/2, b),
    taken on P/4 and doubled, both exact scalings for entries from 1e-307
    up, so no intermediate overflows unless the measure itself does.  It
    agrees with ``eigvalsh`` to a few units in the last place of the largest
    entry, is exact on multiples of the identity, and reads P, its
    transpose and its basis-swapped copy alike.  Every other m takes
    ``eigvalsh`` of the symmetric part.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim < 2 or P.shape[-1] != P.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError("matrix has non-finite entries")
    if P.shape[-1] == 2:
        Q = 0.25 * P
        a, d = Q[..., 0, 0], Q[..., 1, 1]
        mu = 2.0 * ((a + d) + np.hypot(a - d, Q[..., 0, 1] + Q[..., 1, 0]))
    else:
        mu = np.linalg.eigvalsh(0.5 * (P + np.swapaxes(P, -1, -2)))[..., -1]
    return float(mu) if mu.ndim == 0 else mu


@dataclass(frozen=True)
class ContractionCertificate:
    """Sampled certificate of mu(dX) <= c over a region.

    Holds the rate c and the (N, d, d) ``samples`` with their ``measures``;
    sampling proves nothing between samples, so they are kept to judge
    density.  ``mu_max`` (the first maximum, at ``argmax_index``, sample
    ``mu_argmax``) and the verdict, mu_max <= c + slack, are read from them.
    """

    space_id: str
    field_id: str
    region: str
    rate_c: float
    samples: np.ndarray = field(repr=False)
    measures: np.ndarray = field(repr=False)

    slack = _SLACK
    argmax_index = property(lambda self: int(np.argmax(self.measures)))  # ties: lowest index
    mu_max = property(lambda self: float(self.measures[self.argmax_index]))
    mu_argmax = property(lambda self: self.samples[self.argmax_index])
    samples_evaluated = property(lambda self: len(self.measures))
    passed = property(lambda self: self.mu_max <= self.rate_c + self.slack)
    verdict = property(lambda self: "PASS" if self.passed else "FAIL")

    label = property(lambda self: "nonexpansive" if self.rate_c == 0.0 else
                     "expanding" if self.rate_c > 0.0 else "contracting")

    def to_dict(self) -> dict:
        return {
            "space": self.space_id,
            "field": self.field_id,
            "region": self.region,
            "rate_c": self.rate_c,
            "mu_max": self.mu_max,
            "argmax_index": self.argmax_index,
            "argmax_state": np.asarray(self.mu_argmax).tolist(),
            "samples_evaluated": self.samples_evaluated,
            "verdict": self.verdict,
            "slack": self.slack,
            "certificate_type": "sampled",
            "label": self.label,
        }


def certify_region(F: HorizontalField, space: Space, samples,
                   c: float, region: str = "", step: float = _FD_STEP) -> ContractionCertificate:
    """Evaluate the matrix measure at every sample, at t = 0, against c + _SLACK.

    ``samples`` is an (N, d, d) stack (or a sequence of N elements); it is
    copied onto the certificate, unless it is a read-only float64 array that
    owns its data, as the CLI passes its regions: the certificate keeps that
    array itself.  It is checked as one stack, then linearized and measured a
    block of ``fields._LINEARIZE_BLOCK`` samples at a time, so the memory
    beyond the N samples and their N measures is fixed.
    Deterministic: ties at the maximum resolve to the lowest sample index.
    """
    frozen = (isinstance(samples, np.ndarray) and samples.dtype == np.float64
              and samples.flags.owndata and not samples.flags.writeable)
    G = samples if frozen else np.array(samples, dtype=float)
    if G.size == 0:
        raise ValueError("no samples supplied")
    space.check_group(G)
    G = G.reshape((-1,) + G.shape[-2:])
    mus = np.empty(len(G))
    for lo, P in _linearized_blocks(F, space, G, step=step):
        mus[lo:lo + len(P)] = matrix_measure(P)
    return ContractionCertificate(space.name, F.name, region, float(c), G, mus)


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _halton(count: int, dim: int) -> np.ndarray:
    """First ``count`` points of the unscrambled Halton sequence in [0, 1)^dim.

    Column j is the radical inverse of 0, 1, 2, ... in the j-th prime base,
    summed from the lowest digit up (the same points as scipy's
    ``qmc.Halton(scramble=False)``).
    """
    out = np.zeros((count, dim))
    for j, base in enumerate(_first_primes(dim)):
        idx = np.arange(count)
        scale = 1.0
        while np.any(idx > 0):
            scale /= base
            out[:, j] += scale * (idx % base)
            idx //= base
    return out


def generator_box_samples(space: Space, lows, highs, count: int) -> np.ndarray:
    """Low-discrepancy (Halton, so deterministic) samples exp-mapped from a
    box in m-coordinates at the identity; returns a (count, d, d) stack.
    A bound pair with lows[i] >= highs[i] or an infinite width raises ValueError."""
    lows = np.atleast_1d(np.asarray(lows, dtype=float))
    highs = np.atleast_1d(np.asarray(highs, dtype=float))
    m = space.dim_m
    if lows.shape != (m,) or highs.shape != (m,):
        raise ValueError("box bounds must match the m-dimension")
    with np.errstate(over="ignore", invalid="ignore"):  # a width that overflows is refused
        width = highs - lows
    if not np.all((lows < highs) & (width < np.inf)):  # False for NaN bounds too
        raise ValueError(f"a box needs lows < highs a finite width apart, got {lows} and {highs}")
    coords = lows + _halton(count, m) * width
    A = space.algebra_from_coords(coords)
    return _blocked_exp(space, count, lambda lo, hi: A[lo:hi])


def _blocked_exp(space: Space, count: int, algebra) -> np.ndarray:
    """The exponentials of ``count`` algebra elements, ``algebra(lo, hi)``
    giving elements lo to hi - 1 as (hi - lo, d, d), a block of
    ``_STACK_BLOCK`` at a time, so the memory beyond the (count, d, d)
    result is fixed unless ``algebra`` slices a stack it holds."""
    d = space.embed_dim
    out = np.empty((count, d, d))
    for lo in range(0, count, _STACK_BLOCK):
        hi = min(lo + _STACK_BLOCK, count)
        out[lo:hi] = space.algebra_exp(algebra(lo, hi))
    return out


def sphere_cap_grid(space: Space, max_angle: float, n_theta: int,
                    n_phi: int) -> np.ndarray:
    """Grid over the geodesic cap of the given angular radius about o.

    Returns an (n_theta * n_phi, d, d) stack, polar angle major, boundary
    included.  A cap is a region of the sphere; any other kind of space,
    n_theta < 2, n_phi < 3 (one great circle) or an angle outside (0, pi]
    raises ValueError.
    """
    if space.kind != "sphere":
        raise ValueError(f"a cap is a sphere region, not one of {space.name}")
    if n_theta < 2 or not 0.0 < max_angle <= np.pi:
        raise ValueError(f"a cap grid needs n_theta >= 2 and 0 < max_angle <= pi, "
                         f"got {n_theta} and {max_angle:g}")
    if n_phi < 3:
        raise ValueError(f"a cap grid needs n_phi >= 3, got {n_phi}: fewer lie on a great circle")
    thetas = np.linspace(0.0, max_angle, n_theta)[:, None, None]
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    cos, sin = np.cos(phis)[:, None, None], np.sin(phis)[:, None, None]
    B = space.dec.m_basis

    def algebra(lo, hi):  # element i has polar angle i // n_phi and azimuth i % n_phi
        t, p = np.divmod(np.arange(lo, hi), n_phi)
        return thetas[t] * (cos[p] * B[0] + sin[p] * B[1])

    return _blocked_exp(space, n_theta * n_phi, algebra)


def find_period(space: Space, A) -> Optional[float]:
    """Smallest T > 0 with exp(T A) = I, or None if the subgroup never returns.

    T is the kind's closed form, confirmed by one exponential: a space whose
    exponential does not return raises ValueError, as does a zero generator
    or one with a NaN or infinite entry.
    """
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError(f"generator must be finite, got {A.tolist()}")
    if np.max(np.abs(A)) == 0.0:
        raise ValueError("zero generator has no period")
    T = space.ops.period(A)
    I = np.eye(len(A))
    if T is not None and not np.max(np.abs(space.algebra_exp(T * A) - I)) <= _PERIOD_TOL:
        raise ValueError(f"exp(T A) is not the identity at the closed-form period T={T:.6g}")
    return T


@dataclass(frozen=True)
class LoopReport:
    """Quadrature record of f = <P u, u> around a loop: the unit generator,
    the base, the ``times`` over one period, f's ``values`` there, U(u, u),
    the claimed rate ``c`` and the space's ``connection.zero_tol``; period,
    integral, maximum, flag and whether the orbit is a geodesic (U(u, u) = 0
    within ``tol``) are read from them."""

    space_id: str
    field_id: str
    generator: np.ndarray = field(repr=False)
    base: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    u_uu: np.ndarray = field(repr=False)
    c: Optional[float]
    tol: float

    period = property(lambda self: float(self.times[-1]))
    integral = property(lambda self: float(np.trapezoid(self.values, self.times)))
    max_value = property(lambda self: float(np.max(self.values)))
    geodesic = property(lambda self: bool(np.abs(self.u_uu).max() <= self.tol))
    inconsistent = property(lambda self: self.c is not None and self.max_value <= self.c < 0.0)
    inconsistent_rate = property(lambda self: self.c if self.inconsistent else None)

    def to_dict(self) -> dict:
        return {
            "space": self.space_id,
            "field": self.field_id,
            "generator": np.asarray(self.generator).tolist(),
            "base": np.asarray(self.base).tolist(),
            "period": self.period,
            "integral": self.integral,
            "max_f": self.max_value,
            "u_uu": np.asarray(self.u_uu).tolist(),
            "geodesic": self.geodesic,
            "n_quad": int(len(self.times) - 1),
            "inconsistent_rate": self.inconsistent_rate,
            "verdict": "INCONSISTENT" if self.inconsistent else "OK",
        }


def loop_obstruction_check(F: HorizontalField, space: Space, generator,
                           base=None, n_quad: int = 1024, c: Optional[float] = None) -> LoopReport:
    """Sample f(t) = <P(g(t)) u, u> around the loop g(t) = base exp(t A).

    ``base`` (default the identity) must be a group element, ``n_quad`` at
    least 1 and the generator nonzero and finite; otherwise ValueError.
    The generator (an m-coordinate vector or algebra matrix) must produce a
    periodic one-parameter subgroup; only its direction u is used: it is
    divided by its largest entry before it is normalized, so its magnitude
    can neither overflow nor underflow the norm.  P is the frame
    linearization in the space's own basis, one stacked call over the loop;
    a quadratic form reads the same in every orthonormal frame.  With the
    Levi-Civita term, f = d/dt<coeff, u> - <U(u, u), coeff>.  Where
    U(u, u) = 0 the orbit is a geodesic and f is the derivative of a
    periodic coefficient, so its trapezoid integral over one period
    vanishes and its maximum cannot be uniformly negative.  If a claimed
    rate c < 0 nevertheless dominates max f, the report is flagged
    INCONSISTENT.  The report holds U(u, u), with or without c; given a
    rate c, an orbit with U(u, u) beyond ``connection.zero_tol`` raises
    ValueError: no rate can be judged there.
    """
    if n_quad < 1:
        raise ValueError(f"a loop needs n_quad >= 1 quadrature intervals, got {n_quad}")
    base = space.identity() if base is None else np.asarray(base, dtype=float)
    space.check_group(base)
    gen = np.asarray(generator, dtype=float)
    u = gen if gen.ndim == 1 else space.dec.coords_m(gen)
    scale = np.max(np.abs(u))
    if not 0.0 < scale < np.inf:  # False for NaN too
        raise ValueError(f"generator must be nonzero and finite, got {u.tolist()}")
    u = u / scale
    u = u / np.linalg.norm(u)
    Uuu = np.einsum("ijk,j,k->i", compute_U(space.dec), u, u) + 0.0  # no -0.0 in the report
    tol = zero_tol(space.dec)
    if c is not None and np.abs(Uuu).max() > tol:
        raise ValueError(f"the orbit of generator {u.tolist()} is not a geodesic: "
                         f"U(u, u) = {Uuu.tolist()} exceeds {tol:g}, so f need not "
                         f"average to zero and no rate c can be judged on this loop")
    A1 = space.algebra_from_coords(u)
    period = find_period(space, A1)
    if period is None:
        raise ValueError("generator does not produce a periodic subgroup")

    ts = np.linspace(0.0, period, n_quad + 1)
    G = base @ _blocked_exp(space, len(ts), lambda lo, hi: ts[lo:hi, None, None] * A1)
    fs = linearize(F, space, G) @ u @ u
    return LoopReport(space.name, F.name, A1, base, ts, fs, Uuu, c, tol)
