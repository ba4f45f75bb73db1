import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from homcontract import contraction, fields
from homcontract.spaces import (SO3_BASIS, make_circle, make_euclidean, make_so3_biinvariant,
                                make_so3_left_invariant, make_sphere2)

AX, AY, AZ = SO3_BASIS


def _extend_to_orthonormal(c1: np.ndarray) -> np.ndarray:
    """Orthogonal matrix whose first column is the unit vector c1."""
    m = c1.shape[0]
    # QR of [c1 | I] always has full column span, whatever direction c1 points
    M = np.concatenate([c1[:, None], np.eye(m)], axis=1)
    Q, R = np.linalg.qr(M)
    if Q[:, 0] @ c1 < 0.0:
        Q = -Q
    return Q


def mu2_oracle(P):
    """log-norm for the 2-norm via the symmetric-part eigenproblem."""
    P = np.asarray(P, dtype=float)
    return float(np.linalg.eigvalsh((P + P.T) / 2.0)[-1])


class TestMatrixMeasure:
    def test_diagonal(self):
        assert contraction.matrix_measure(np.diag([-3.0, -1.0, 2.0])) == pytest.approx(2.0)

    def test_skew_is_zero(self):
        assert abs(contraction.matrix_measure(3.0 * AZ)) < 1e-14

    def test_matches_oracle_random(self, rng):
        for _ in range(100):
            P = rng.normal(size=(4, 4))
            assert contraction.matrix_measure(P) == pytest.approx(mu2_oracle(P), abs=1e-12)

    def test_subadditive(self, rng):
        for _ in range(25):
            P, Q = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
            lhs = contraction.matrix_measure(P + Q)
            rhs = contraction.matrix_measure(P) + contraction.matrix_measure(Q)
            assert lhs <= rhs + 1e-12

    def test_orthogonal_invariance(self, rng):
        P = rng.normal(size=(3, 3))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert contraction.matrix_measure(Q.T @ P @ Q) == pytest.approx(
            contraction.matrix_measure(P), abs=1e-12)


class TestCertifyRegion:
    def test_sphere_cap_contracting(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 16, 16)
        cert = contraction.certify_region(F, sphere, samples, c=-0.5, region="cap60")
        assert cert.passed
        assert cert.label == "contracting"
        assert -0.501 < cert.mu_max < -0.499

    def test_sphere_cap_fails_tighter_rate(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 8, 8)
        cert = contraction.certify_region(F, sphere, samples, c=-0.6, region="cap60")
        assert not cert.passed

    def test_verdict_monotone_in_rate(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 6, 6)
        verdicts = [contraction.certify_region(F, sphere, samples, c=c).passed
                    for c in (-0.9, -0.5, -0.1, 0.2)]
        assert verdicts == sorted(verdicts)  # once PASS, stays PASS

    def test_so3_constant_nonexpansive(self, so3):
        F = fields.constant_field(so3, [0.3, -1.0, 0.7])
        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 40)
        cert = contraction.certify_region(F, so3, samples, c=0.0)
        assert cert.passed
        assert cert.label == "nonexpansive"
        assert abs(cert.mu_max) < 1e-7
        expanding = contraction.certify_region(F, so3, samples, c=0.5)
        assert expanding.passed and expanding.label == "expanding"

    def test_euclidean_linear_rate(self, euclid2):
        M = np.array([[-1.0, 0.3], [0.3, -2.0]])
        F = fields.euclidean_linear(euclid2, M)
        samples = contraction.generator_box_samples(euclid2, [-1.0, -1.0], [1.0, 1.0], 20)
        cert = contraction.certify_region(F, euclid2, samples, c=mu2_oracle(M) + 1e-6)
        assert cert.passed
        assert cert.mu_max == pytest.approx(mu2_oracle(M), abs=1e-6)

    def test_collect_and_argmax(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 5, 5)
        cert = contraction.certify_region(F, sphere, samples, c=0.0)
        mus = cert.measures
        assert len(mus) == len(samples) == cert.samples_evaluated
        assert cert.mu_max == pytest.approx(max(mus))
        assert mus[cert.argmax_index] == pytest.approx(cert.mu_max)

    def test_empty_samples_rejected(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        with pytest.raises(ValueError):
            contraction.certify_region(F, sphere, [], c=0.0)

    def test_to_dict_serializable(self, sphere):
        import json
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, 0.5, 3, 3)
        cert = contraction.certify_region(F, sphere, samples, c=0.0)
        text = json.dumps(cert.to_dict(), sort_keys=True)
        assert "certificate_type" in text and "sampled" in text


class TestSamplers:
    def test_box_samples_deterministic(self, so3):
        a = contraction.generator_box_samples(so3, [-1.0] * 3, [1.0] * 3, 10)
        b = contraction.generator_box_samples(so3, [-1.0] * 3, [1.0] * 3, 10)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        for g in a:
            so3.check_group(g)

    def test_cap_grid_reaches_boundary(self, sphere):
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 9, 4)
        zs = [(np.asarray(g) @ sphere.base_point)[2] for g in samples]
        assert min(zs) == pytest.approx(np.cos(np.radians(60.0)), abs=1e-12)
        assert max(zs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("make", [make_circle, make_so3_biinvariant,
                                      lambda: make_euclidean(2)])
    def test_cap_grid_refused_off_the_sphere(self, make):
        with pytest.raises(ValueError, match="sphere region"):
            contraction.sphere_cap_grid(make(), np.radians(60.0), 4, 4)

    @pytest.mark.parametrize("angle,n_theta", [(1.0, 1), (1.0, 0), (0.0, 4), (-0.5, 4),
                                               (np.pi + 1e-9, 4), (np.nan, 4)])
    def test_cap_grid_bounds(self, sphere, angle, n_theta):
        # one polar ring is the pole alone, whatever the angle
        with pytest.raises(ValueError, match="n_theta >= 2 and 0 < max_angle <= pi"):
            contraction.sphere_cap_grid(sphere, angle, n_theta, 8)

    @pytest.mark.parametrize("n_phi", [2, 1, 0])
    def test_cap_grid_off_one_great_circle(self, sphere, n_phi):
        with pytest.raises(ValueError, match=f"n_phi >= 3, got {n_phi}"):
            contraction.sphere_cap_grid(sphere, 1.0, 8, n_phi)
        assert contraction.sphere_cap_grid(sphere, 1.0, 8, 3).shape == (24, 3, 3)

    def test_cap_grid_half_sphere_and_whole(self, sphere):
        for angle, z_min in [(np.pi / 2.0, 0.0), (np.pi, -1.0)]:
            samples = contraction.sphere_cap_grid(sphere, angle, 2, 3)
            zs = (samples @ sphere.base_point)[:, 2]
            assert zs.max() == pytest.approx(1.0, abs=1e-12)
            assert zs.min() == pytest.approx(z_min, abs=1e-12)


class TestBasisIndependence:
    @pytest.mark.parametrize("field_name", ["sphere-grad-height", "sphere-noneq"])
    def test_sphere_fields(self, sphere, field_name):
        F = fields.builtin_field(sphere, field_name)
        rep = contraction.basis_independence_check(F, sphere, expm(0.4 * AX))
        assert rep.passed, rep.max_deviation

    def test_so3_left_invariant(self, so3_left):
        F = fields.constant_field(so3_left, [1.0, 0.5, -0.2])
        rep = contraction.basis_independence_check(F, so3_left, expm(0.3 * AY))
        assert rep.passed, rep.max_deviation
        assert len(rep.measures) == 11


class TestFindPeriod:
    def test_unit_generator(self, so3):
        T = contraction.find_period(so3, AZ)
        assert T == pytest.approx(2.0 * np.pi, abs=1e-8)

    def test_speed_two_generator(self, so3):
        T = contraction.find_period(so3, 2.0 * AX)
        assert T == pytest.approx(np.pi, abs=1e-8)

    def test_sphere_generator(self, sphere):
        A = sphere.algebra_from_coords([0.6, 0.8])
        assert contraction.find_period(sphere, A) == pytest.approx(2.0 * np.pi, abs=1e-8)

    def test_euclidean_has_none(self, euclid2):
        A = euclid2.algebra_from_coords([1.0, 0.0])
        assert contraction.find_period(euclid2, A) is None

    def test_scan_memory_bounded_in_dimension(self):
        # flat space has no closed-form period, so find_period answers None
        # at once: no exponential of the 21x21 generator is ever taken
        flat = make_euclidean(20)
        A = flat.algebra_from_coords(np.linspace(1.0, 2.0, 20))
        tracemalloc.start()
        try:
            period = contraction.find_period(flat, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert period is None
        assert peak < 4e6


class TestClosedFormPeriod:
    SPACES = {"circle": make_circle(), "sphere2": make_sphere2(),
              "so3": make_so3_biinvariant(), "so3-left:1,1,4": make_so3_left_invariant([1, 1, 4])}

    @given(st.sampled_from(sorted(SPACES)), st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_first_return_to_identity(self, name, coords):
        space = self.SPACES[name]
        c = np.asarray(coords[:space.dim_m])
        assume(np.linalg.norm(c) > 1e-3)
        A = space.algebra_from_coords(c)
        T = contraction.find_period(space, A)
        I = np.eye(space.embed_dim)
        assert np.max(np.abs(space.algebra_exp(T * A) - I)) <= 1e-9
        for k in range(1, 8):
            assert np.max(np.abs(space.algebra_exp(k * T / 8 * A) - I)) > 1e-3


class TestLoopObstruction:
    def test_circle_sine(self, circle):
        rep = contraction.loop_obstruction_check(fields.circle_sine(circle), circle, [1.0])
        assert abs(rep.integral) < 1e-6
        assert rep.max_value == pytest.approx(1.0, abs=1e-8)
        assert rep.period == pytest.approx(2.0 * np.pi, abs=1e-8)

    def test_sphere_meridian(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        rep = contraction.loop_obstruction_check(F, sphere, [1.0, 0.0])
        assert abs(rep.integral) < 1e-6
        assert rep.max_value >= -1e-8

    def test_matrix_generator_accepted(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        rep = contraction.loop_obstruction_check(F, sphere, AX)
        assert abs(rep.integral) < 1e-6

    def test_inconsistent_flag(self, circle):
        # a discontinuous sawtooth coefficient (not a smooth field) yields
        # f = -0.5 around the whole loop; claiming c = -0.1 must be flagged
        def saw(R, t):
            theta = np.arctan2(R[..., 1, 0], R[..., 0, 0])
            return (-0.5 * ((theta - 1.0) % (2.0 * np.pi)))[..., None]

        F = fields.HorizontalField("sawtooth", circle.name, saw)
        rep = contraction.loop_obstruction_check(F, circle, [1.0], c=-0.1)
        assert rep.max_value == pytest.approx(-0.5, abs=1e-6)
        assert rep.inconsistent
        assert rep.inconsistent_rate == pytest.approx(-0.1)

    def test_consistent_rate_not_flagged(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        rep = contraction.loop_obstruction_check(F, sphere, [1.0, 0.0], c=-0.1)
        assert not rep.inconsistent

    def test_zero_generator_rejected(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        with pytest.raises(ValueError, match="zero"):
            contraction.loop_obstruction_check(F, sphere, [0.0, 0.0])

    def test_aperiodic_generator_rejected(self, euclid2):
        F = fields.constant_field(euclid2, [1.0, 0.0])
        with pytest.raises(ValueError, match="periodic"):
            contraction.loop_obstruction_check(F, euclid2, [1.0, 0.0])

    def test_rate_refused_off_a_geodesic_orbit(self, so3_left):
        # along (1,1,1) on so3-left:1,1,4, U(u, u) = (0.5, -0.5, 0): f = -0.5
        # everywhere, and a rate c = -0.4 would read INCONSISTENT
        F = fields.constant_field(so3_left, [1.0, 0.0, 0.0])
        rep = contraction.loop_obstruction_check(F, so3_left, [1.0, 1.0, 1.0])
        assert rep.max_value == pytest.approx(-0.5, abs=1e-9)
        assert rep.integral == pytest.approx(-0.5 * rep.period, rel=1e-9)
        with pytest.raises(ValueError, match=r"not a geodesic: U\(u, u\) = \[0\.5"):
            contraction.loop_obstruction_check(F, so3_left, [1.0, 1.0, 1.0], c=-0.4)
        # along an eigenvector of the Gram matrix the orbit is a geodesic
        rep = contraction.loop_obstruction_check(F, so3_left, [0.0, 0.0, 1.0], c=-0.4)
        assert not rep.inconsistent and abs(rep.integral) < 1e-9


class TestDerivedAnswers:
    """A result holds what it was computed from; every other reading follows it."""

    def test_certificate_reads_its_samples_and_measures(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, 1.0, 4, 4)
        cert = contraction.certify_region(F, sphere, samples, c=0.0)
        assert np.array_equal(cert.samples, samples)
        assert cert.samples_evaluated == 16
        assert cert.mu_max == cert.measures.max()
        assert np.array_equal(cert.mu_argmax, samples[np.argmax(cert.measures)])
        samples[:] = 0.0  # the certificate keeps its own copy
        assert np.array_equal(cert.mu_argmax, contraction.sphere_cap_grid(
            sphere, 1.0, 4, 4)[cert.argmax_index])

    def test_certificate_verdict_follows_its_rate(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        cert = contraction.certify_region(F, sphere, contraction.sphere_cap_grid(sphere, 1.0, 4, 4),
                                          c=0.0)
        assert cert.passed and cert.verdict == "PASS"
        tighter = dataclasses.replace(cert, rate_c=cert.mu_max - 1.0)
        assert tighter.passed is False
        assert tighter.verdict == tighter.to_dict()["verdict"] == "FAIL"
        assert tighter.label == "contracting"

    def test_loop_report_flag_follows_its_rate(self, circle):
        # the sawtooth of TestLoopObstruction, f = -0.5 all round the loop
        def saw(R, t):
            theta = np.arctan2(R[..., 1, 0], R[..., 0, 0])
            return (-0.5 * ((theta - 1.0) % (2.0 * np.pi)))[..., None]

        F = fields.HorizontalField("sawtooth", circle.name, saw)
        rep = contraction.loop_obstruction_check(F, circle, [1.0])
        assert rep.max_value < 0.0 and not rep.inconsistent
        assert rep.period == rep.times[-1] == 2.0 * np.pi
        flagged = dataclasses.replace(rep, c=rep.max_value)
        assert flagged.inconsistent and flagged.inconsistent_rate == rep.max_value
        assert flagged.to_dict()["verdict"] == "INCONSISTENT"

    @pytest.mark.parametrize("scale", [1e300, 1e-200])
    def test_loop_generator_magnitude_is_ignored(self, sphere, so3, scale):
        F = fields.sphere_height_gradient(sphere)
        # scaling by 0.5 is exact, so the scaled direction is exactly (1, 0.5)
        ref = contraction.loop_obstruction_check(F, sphere, [1.0, 0.5], n_quad=64)
        rep = contraction.loop_obstruction_check(F, sphere, [scale, 0.5 * scale], n_quad=64)
        assert rep.to_dict() == ref.to_dict()
        G = fields.constant_field(so3, [0.0, 0.0, 1.0])
        assert (contraction.loop_obstruction_check(G, so3, [scale, 0.0, 0.0]).to_dict()
                == contraction.loop_obstruction_check(G, so3, [1.0, 0.0, 0.0]).to_dict())


class TestLoopGeodesic:
    """The report holds U(u, u), with or without a rate, and says from it
    whether the orbit is a geodesic; the verdict does not depend on it."""

    def test_off_geodesic_orbit_reported_without_a_rate(self, so3_left):
        F = fields.constant_field(so3_left, [1.0, 0.0, 0.0])
        rep = contraction.loop_obstruction_check(F, so3_left, [1.0, 1.0, 1.0], n_quad=16)
        assert rep.u_uu == pytest.approx([0.5, -0.5, 0.0], abs=1e-12)
        assert rep.geodesic is False
        out = rep.to_dict()
        assert out["geodesic"] is False and out["u_uu"] == rep.u_uu.tolist()
        assert out["verdict"] == "OK"

    def test_geodesic_orbits_have_exactly_zero_U(self, so3, so3_left):
        for space, gen in ((so3, [1.0, 2.0, 3.0]), (so3_left, [0.0, 0.0, 1.0])):
            F = fields.constant_field(space, [1.0, 0.0, 0.0])
            rep = contraction.loop_obstruction_check(F, space, gen, n_quad=16)
            assert rep.geodesic is True
            assert rep.to_dict()["u_uu"] == [0.0, 0.0, 0.0]

    def test_flag_follows_the_stored_term(self, circle):
        rep = contraction.loop_obstruction_check(fields.circle_sine(circle), circle, [1.0])
        assert rep.geodesic and rep.to_dict()["u_uu"] == [0.0]
        bent = dataclasses.replace(rep, u_uu=np.array([2.0 * contraction._TOL]))
        assert bent.geodesic is False and bent.to_dict()["geodesic"] is False
        assert bent.to_dict()["verdict"] == rep.to_dict()["verdict"]


class TestStackedPath:
    def test_cap_collect_is_minus_cos_theta_major(self, sphere):
        # mu of the height gradient at polar angle theta is -cos(theta)
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 5, 7)
        assert samples.shape == (35, 3, 3)
        mus = contraction.certify_region(F, sphere, samples, c=0.0).measures
        thetas = np.linspace(0.0, np.radians(60.0), 5)
        expected = np.repeat(-np.cos(thetas), 7)
        assert np.max(np.abs(np.asarray(mus) - expected)) < 1e-8

    def test_constant_euclidean_ties_go_to_first_sample(self, euclid2):
        F = fields.constant_field(euclid2, [0.3, -0.7])
        samples = contraction.generator_box_samples(euclid2, [-1.0, -1.0], [1.0, 1.0], 16)
        assert samples.shape == (16, 3, 3)
        cert = contraction.certify_region(F, euclid2, samples, c=0.0)
        mus = cert.measures
        assert len(set(mus)) == 1
        assert cert.argmax_index == 0
        assert np.array_equal(cert.mu_argmax, samples[0])

    def test_stacked_linearize_matches_single(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, 1.0, 3, 4).reshape(3, 4, 3, 3)
        P = fields.linearize(F, sphere, samples, richardson=True)
        assert P.shape == (3, 4, 2, 2)
        for i in np.ndindex(3, 4):
            single = fields.linearize(F, sphere, samples[i], richardson=True)
            assert np.max(np.abs(P[i] - single)) < 1e-12
        mus = contraction.matrix_measure(P)
        assert mus.shape == (3, 4)
        assert mus[1, 2] == pytest.approx(contraction.matrix_measure(P[1, 2]), abs=1e-15)

    def test_loop_values_match_single_linearizations(self, sphere):
        from homcontract.spaces import rotate_basis

        F = fields.sphere_height_gradient(sphere)
        rep = contraction.loop_obstruction_check(F, sphere, [1.0, 0.0], n_quad=8)
        Q = _extend_to_orthonormal(np.array([1.0, 0.0]))
        A1 = sphere.algebra_from_coords([1.0, 0.0])
        for t, f in zip(rep.times, rep.values):
            P = fields.linearize(fields.rotate_field(F, Q), rotate_basis(sphere, Q),
                                 sphere.algebra_exp(t * A1))
            assert f == pytest.approx(P[0, 0], abs=1e-12)

    @pytest.mark.parametrize("make,field,gen", [
        (make_sphere2, fields.sphere_height_gradient, [0.6, 0.8]),
        (lambda: make_so3_left_invariant([1.0, 1.0, 4.0]),
         lambda sp: fields.HorizontalField("rows", sp.name,
                                           lambda g, t: g[..., 0, :] + g[..., 2, :] ** 2),
         [1.0, 1.0, 1.0]),
    ])
    def test_loop_values_match_the_rotated_frame(self, make, field, gen):
        # f = <P u, u> in the space's own frame is the first diagonal entry of
        # the linearization in a rotated frame whose first vector is u
        from homcontract.spaces import rotate_basis

        space = make()
        F = field(space)
        rep = contraction.loop_obstruction_check(F, space, gen, n_quad=16)
        u = np.asarray(gen) / np.linalg.norm(gen)
        Q = _extend_to_orthonormal(u)
        P = fields.linearize(fields.rotate_field(F, Q), rotate_basis(space, Q),
                             space.algebra_exp(rep.times[:, None, None] * rep.generator))
        assert np.abs(P[:, 0, 0]).max() > 1e-3  # a loop on which f is not all zero
        assert np.max(np.abs(rep.values - P[:, 0, 0])) < 1e-9


class TestHalton:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_matches_scipy_unscrambled(self, dim):
        from scipy.stats import qmc

        ref = qmc.Halton(d=dim, scramble=False).random(1024)
        assert np.array_equal(contraction._halton(1024, dim), ref)
