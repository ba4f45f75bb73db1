"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on passing runs as well.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from homcontract import contraction, fields, reach, spaces
from homcontract.spaces import SO3_BASIS

AX, AY, AZ = SO3_BASIS


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def random_rotation(rng):
    w = rng.normal(size=3)
    return expm(w[0] * AX + w[1] * AY + w[2] * AZ)


def test_criterion_1_so3_nonexpansive(so3):
    """mu of the linearization vanishes for every (R, u) on bi-invariant SO(3)."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        R = random_rotation(rng)
        u = rng.normal(size=3)
        P = fields.linearize(fields.constant_field(so3, u), so3, R)
        worst = max(worst, abs(contraction.matrix_measure(P)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-7 and elapsed < 1.0,
           f"max |mu| = {worst:.3e} over 50 random (R, u) in {elapsed:.2f} s")


def test_criterion_2_so3_tube_reproduction(so3):
    """Attitude demo: constant-radius tube, 100-sample containment."""
    t0 = time.perf_counter()
    F = fields.so3_demo_schedule(so3)
    samples = contraction.generator_box_samples(so3, [-3.2] * 3, [3.2] * 3, 64)
    cert = contraction.certify_region(F, so3, samples, c=0.0)
    tube = reach.reach_tube(F, so3, np.eye(3), 0.1, cert, horizon=5.0, dt=1e-3, n_samples=100)
    elapsed = time.perf_counter() - t0
    within = float(tube.distances.max()) <= 0.1 + 1e-4
    ok = cert.passed and within and tube.max_drift <= 1e-5 and elapsed < 30.0
    report(2, ok,
           f"max distance = {tube.distances.max():.6f} (tube 0.1), "
           f"distance drift = {tube.max_drift:.3e}, {elapsed:.1f} s")


def hessian_oracle_mu(g, s=1e-3):
    """Largest eigenvalue of the covariant Hessian of the height function.

    Pure finite differencing of p -> p_z along great-circle geodesics
    through p = g o; shares no code with the linearization pipeline.
    """
    p = np.asarray(g) @ np.array([0.0, 0.0, 1.0])
    e1 = np.asarray(g) @ np.array([0.0, -1.0, 0.0])  # frame A_X at o, pushed by g
    e2 = np.asarray(g) @ np.array([1.0, 0.0, 0.0])

    def second_diff(v):
        gp = np.cos(s) * p + np.sin(s) * v
        gm = np.cos(s) * p - np.sin(s) * v
        return (gp[2] - 2.0 * p[2] + gm[2]) / s**2

    h11 = second_diff(e1)
    h22 = second_diff(e2)
    hmix = second_diff((e1 + e2) / np.sqrt(2.0))
    h12 = hmix - 0.5 * (h11 + h22)
    H = np.array([[h11, h12], [h12, h22]])
    return float(np.linalg.eigvalsh(H)[-1])


def test_criterion_3_sphere_cap_certificate(sphere):
    """60-degree cap certificate at c = -0.5 against the Hessian oracle."""
    t0 = time.perf_counter()
    F = fields.sphere_height_gradient(sphere)
    samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 64, 64)
    cert = contraction.certify_region(F, sphere, samples, c=-0.5, region="cap60")
    oracle = max(hessian_oracle_mu(g) for g in samples)
    elapsed = time.perf_counter() - t0
    ok = (cert.passed and -0.501 <= cert.mu_max <= -0.499
          and abs(cert.mu_max - oracle) <= 1e-4 and elapsed < 10.0)
    report(3, ok,
           f"{cert.verdict} with mu_max = {cert.mu_max:.6f}, Hessian oracle "
           f"{oracle:.6f} (gap {abs(cert.mu_max - oracle):.1e}), {elapsed:.1f} s")


def test_criterion_4_loop_obstruction(sphere, circle):
    """No closed loop is uniformly contracting; circle sine hits max_f = 1."""
    F = fields.sphere_height_gradient(sphere)
    loops = [
        ([1.0, 0.0], None),                        # meridian through x
        ([0.0, 1.0], None),                        # meridian through y
        ([1.0, 0.0], expm((np.pi / 2.0) * AY)),    # equator
    ]
    worst_int = 0.0
    worst_max = np.inf
    for gen, base in loops:
        rep = contraction.loop_obstruction_check(F, sphere, gen, base=base)
        worst_int = max(worst_int, abs(rep.integral))
        worst_max = min(worst_max, rep.max_value)
    circ = contraction.loop_obstruction_check(fields.circle_sine(circle), circle, [1.0])
    ok = (worst_int <= 1e-6 and worst_max >= -1e-8
          and abs(circ.max_value - 1.0) <= 1e-8 and abs(circ.integral) <= 1e-6)
    report(4, ok,
           f"great circles: max |integral| = {worst_int:.1e}, min max_f = "
           f"{worst_max:.1e}; circle sine max_f = {circ.max_value:.10f}")


def test_criterion_5_connection_correctness(sphere, so3, so3_left, euclid2, circle):
    """Connection tensors against closed forms and a brute-force solve."""
    from test_connection import oracle_tensors

    sphere_ok = np.max(np.abs(sphere.alpha)) == 0.0
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    so3_gap = np.max(np.abs(so3.alpha - 0.5 * np.einsum("jki->ijk", eps)))
    _, alpha_oracle = oracle_tensors(np.diag([1.0, 1.0, 4.0]), so3_left.dec.m_basis)
    left_gap = np.max(np.abs(so3_left.alpha - alpha_oracle))
    invariants_ok = True
    for sp in (sphere, so3, so3_left, euclid2, circle):
        try:
            from homcontract.connection import check_alpha_invariants
            check_alpha_invariants(sp.dec, sp.alpha)
        except ValueError:
            invariants_ok = False
    ok = sphere_ok and so3_gap <= 1e-12 and left_gap <= 1e-10 and invariants_ok
    report(5, ok,
           f"sphere alpha identically 0: {sphere_ok}; SO(3) half-structure gap "
           f"{so3_gap:.1e}; diag(1,1,4) brute-force gap {left_gap:.1e}; "
           f"invariants {'pass' if invariants_ok else 'fail'}")


def test_criterion_6_coset_independence(sphere):
    """Linearization agrees across coset representatives for honest fields."""
    rng = np.random.default_rng(606)
    F = fields.sphere_height_gradient(sphere)
    good_gap = 0.0
    pairs = 0
    for _ in range(20):
        g = random_rotation(rng)
        h = expm(rng.uniform(-np.pi, np.pi) * AZ)
        rep = fields.coset_consistency_check(F, sphere, g, h_samples=[h])
        good_gap = max(good_gap, rep.max_gap)
        pairs += rep.pairs_checked
    bad = fields.coset_consistency_check(
        fields.sphere_nonequivariant(sphere), sphere, random_rotation(rng))
    ok = good_gap <= 1e-6 and pairs == 20 and bad.max_gap >= 1e-2
    report(6, ok,
           f"gradient field gap {good_gap:.1e} over 20 (g, h) pairs; "
           f"non-equivariant field gap {bad.max_gap:.3f}")


def test_criterion_7_basis_independence(sphere, so3, euclid2, circle):
    """mu is invariant under orthonormal change of the m-basis."""
    cases = [
        (sphere, fields.sphere_height_gradient(sphere), expm(0.4 * AX)),
        (sphere, fields.sphere_nonequivariant(sphere), expm(0.7 * AY)),
        (so3, fields.constant_field(so3, [0.3, -1.0, 0.7]), expm(0.2 * AZ)),
        (so3, fields.so3_demo_schedule(so3), random_rotation(np.random.default_rng(7))),
        (euclid2, fields.euclidean_linear(euclid2, [[-1.0, 0.4], [0.0, -2.0]]), np.eye(3)),
        (circle, fields.circle_sine(circle), np.eye(2)),
    ]
    worst = 0.0
    for sp, F, g in cases:
        rep = contraction.basis_independence_check(F, sp, g, trials=10)
        worst = max(worst, rep.max_deviation)
    ok = worst <= 1e-7
    report(7, ok, f"max mu deviation over 10 random bases, all demo fields: {worst:.2e}")


def test_criterion_8_euclidean_equivalence(euclid2):
    """Invariant verdict equals the classical mu2-of-Jacobian verdict."""
    rng = np.random.default_rng(808)
    samples = contraction.generator_box_samples(euclid2, [-1.0, -1.0], [1.0, 1.0], 5)
    agree = 0
    for _ in range(100):
        M = rng.normal(size=(2, 2))
        c = rng.normal()
        classical = float(np.linalg.eigvalsh((M + M.T) / 2.0)[-1]) <= c
        cert = contraction.certify_region(
            fields.euclidean_linear(euclid2, M), euclid2, samples, c=c)
        agree += int(cert.passed == classical)
    report(8, agree == 100, f"verdict agreement {agree}/100 random (matrix, rate) draws")


def test_criterion_9_integrator_quality(so3):
    """RKMK4 order by step halving plus orthogonality drift over the demo run."""
    F = fields.so3_demo_schedule(so3)
    ref = reach.integrate(F, so3, np.eye(3), 1.0, 1e-4).states[-1]
    errs = [np.max(np.abs(reach.integrate(F, so3, np.eye(3), 1.0, dt).states[-1] - ref))
            for dt in (0.04, 0.02, 0.01)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    order = min(orders)
    traj = reach.integrate(F, so3, np.eye(3), 5.0, 1e-3)
    drift = reach.group_constraint_drift(so3, traj)
    ok = order >= 3.8 and drift <= 1e-8
    report(9, ok,
           f"observed order {order:.2f} (halving 0.04 -> 0.01), "
           f"orthogonality drift {drift:.1e} over horizon 5")
