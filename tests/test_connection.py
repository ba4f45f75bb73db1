import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcontract import connection, contraction, fields, spaces
from homcontract.spaces import SO3_BASIS

AX, AY, AZ = SO3_BASIS


def _levi_civita():
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return eps


def oracle_tensors(gram, m_basis):
    """Connection tensors of a left-invariant metric on SO(3), from the Koszul formula.

    ``gram`` is the metric in the raw basis E_a = SO3_BASIS, whose brackets
    [E_a, E_b] = eps_abc E_c follow from the epsilon symbol.  For
    left-invariant fields the Koszul formula reads
    2 <nabla_a E_b, E_d> = <[E_a, E_b], E_d> - <[E_b, E_d], E_a> + <[E_d, E_a], E_b>,
    solved for nabla_a E_b with the inverse Gram matrix.  The result is
    written in the orthonormal ``m_basis`` B_i = sum_a W[a, i] E_a (W read
    off by the trace form, for which the E_a are orthonormal), so that
    alpha[i, j, k] = <nabla_{B_j} B_k, B_i>; U is its symmetric part in
    (j, k).  Independent of the library's bracket table, projection and U.
    """
    G = np.asarray(gram, dtype=float)
    eps = _levi_civita()
    C = np.einsum("abc,cd->abd", eps, G)  # C[a, b, d] = <[E_a, E_b], E_d>
    koszul = 0.5 * (C - np.einsum("bda->abd", C) + np.einsum("dab->abd", C))
    gamma = koszul @ np.linalg.inv(G)  # nabla_{E_a} E_b = gamma[a, b, c] E_c
    W = 0.5 * np.einsum("axy,ixy->ai", SO3_BASIS, m_basis)
    assert np.allclose(W.T @ G @ W, np.eye(3), atol=1e-12)  # the basis is orthonormal
    alpha = np.einsum("aj,bk,abc,cd,di->ijk", W, W, gamma, G, W)
    return 0.5 * (alpha + np.einsum("ikj->ijk", alpha)), alpha


class TestComputeU:
    def test_sphere_vanishes(self, sphere):
        assert np.allclose(connection.compute_U(sphere.dec), 0.0, atol=1e-14)

    def test_biinvariant_so3_vanishes(self, so3):
        assert np.allclose(connection.compute_U(so3.dec), 0.0, atol=1e-14)

    def test_left_invariant_matches_oracle(self, so3_left):
        U_oracle, _ = oracle_tensors(np.diag([1.0, 1.0, 4.0]), so3_left.dec.m_basis)
        U = connection.compute_U(so3_left.dec)
        assert np.max(np.abs(U - U_oracle)) < 1e-12
        assert np.max(np.abs(U)) > 0.1  # genuinely non-naturally-reductive

    def test_symmetry_in_last_two_indices(self, so3_left):
        U = connection.compute_U(so3_left.dec)
        assert np.max(np.abs(U - np.einsum("ikj->ijk", U))) < 1e-14


class TestComputeAlpha:
    def test_sphere_zero_tensor(self, sphere):
        assert np.allclose(sphere.alpha, 0.0, atol=1e-14)

    def test_euclidean_zero_tensor(self, euclid2):
        assert np.allclose(euclid2.alpha, 0.0, atol=1e-14)

    def test_biinvariant_is_half_structure_constants(self, so3):
        # alpha(A_X, A_Y) = [A_X, A_Y] / 2 = A_Z / 2
        assert np.allclose(so3.alpha[:, 0, 1], [0.0, 0.0, 0.5], atol=1e-12)
        eps = _levi_civita()
        assert np.max(np.abs(so3.alpha - 0.5 * np.einsum("jki->ijk", eps))) < 1e-12

    def test_left_invariant_matches_oracle(self, so3_left):
        _, alpha_oracle = oracle_tensors(np.diag([1.0, 1.0, 4.0]), so3_left.dec.m_basis)
        assert np.max(np.abs(so3_left.alpha - alpha_oracle)) < 1e-10

    @pytest.mark.parametrize("name", ["sphere", "so3", "so3_left", "euclid2", "circle"])
    def test_invariants_hold_on_all_spaces(self, name, request):
        space = request.getfixturevalue(name)
        connection.check_alpha_invariants(space.dec, space.alpha)

    @pytest.mark.parametrize("name", ["sphere", "so3", "so3_left", "euclid2", "circle"])
    def test_no_negative_zero(self, name, request):
        # classify.json prints alpha; a zero entry must print as 0.0, never -0.0
        alpha = request.getfixturevalue(name).alpha
        assert not np.signbit(alpha[alpha == 0.0]).any()

    def test_torsion_identity_detects_corruption(self, so3):
        bad = so3.alpha.copy()
        bad[0, 1, 2] += 1e-3
        with pytest.raises(ValueError):
            connection.check_alpha_invariants(so3.dec, bad)

    def test_self_orthogonality_detects_corruption(self, so3):
        bad = so3.alpha.copy()
        bad[0, 0, 1] += 1e-3
        bad[0, 1, 0] += 1e-3  # keep torsion intact, break self-orthogonality
        with pytest.raises(ValueError):
            connection.check_alpha_invariants(so3.dec, bad)

    def test_general_gram_matches_oracle(self):
        gram = [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 3.0]]
        space = spaces.make_so3_left_invariant(gram)
        U_oracle, alpha_oracle = oracle_tensors(gram, space.dec.m_basis)
        assert np.max(np.abs(space.alpha - alpha_oracle)) < 1e-12
        assert np.max(np.abs(connection.compute_U(space.dec) - U_oracle)) < 1e-12
        connection.check_alpha_invariants(space.dec, space.alpha)

    def test_flipped_correction_term_refused(self, so3_left):
        # alpha with U negated keeps the torsion identity, but not metric compatibility
        flipped = so3_left.alpha - 2.0 * connection.compute_U(so3_left.dec)
        with pytest.raises(ValueError, match="metric compatibility"):
            connection.check_alpha_invariants(so3_left.dec, flipped)


class TestLeftInvariantClosedForm:
    @settings(max_examples=50, deadline=None)
    @given(st.tuples(*[st.floats(0.1, 10.0)] * 3))
    def test_constant_field_measure(self, diag):
        # a constant field along B_1 on so3-left:g1,g2,g3 stretches at
        # |g2 - g3| / (2 sqrt(g1 g2 g3)), everywhere
        g1, g2, g3 = diag
        space = spaces.make_so3_left_invariant(list(diag))
        samples = contraction.generator_box_samples(space, [-1.0] * 3, [1.0] * 3, 4)
        cert = contraction.certify_region(fields.constant_field(space, [1.0, 0.0, 0.0]), space,
                                          samples, c=0.0)
        closed = abs(g2 - g3) / (2.0 * np.sqrt(g1 * g2 * g3))
        assert cert.mu_max == pytest.approx(closed, rel=1e-9, abs=1e-12)


class TestClassify:
    def test_sphere_symmetric(self, sphere):
        cls = sphere.classification
        assert cls.is_symmetric and cls.is_naturally_reductive

    def test_biinvariant_naturally_reductive_not_symmetric(self, so3):
        cls = so3.classification
        assert cls.is_naturally_reductive and not cls.is_symmetric

    def test_left_invariant_generic(self, so3_left):
        cls = so3_left.classification
        assert not cls.is_naturally_reductive and not cls.is_symmetric
        assert cls.max_u_norm > 1e-2

    def test_flags_read_from_the_numbers(self):
        cls = connection.SpaceClassification(max_u_norm=1.0, max_mm_leak=0.0)
        assert cls.is_symmetric is True and cls.is_naturally_reductive is False
        assert cls.to_dict() == {"symmetric": True, "naturally_reductive": False,
                                 "max_u_norm": 1.0, "max_mm_leak": 0.0}

    def test_euclidean_symmetric(self, euclid2):
        assert euclid2.classification.is_symmetric

    def test_symmetric_implies_naturally_reductive(self, sphere, so3, so3_left, euclid2, circle):
        for sp in (sphere, so3, so3_left, euclid2, circle):
            if sp.classification.is_symmetric:
                assert sp.classification.is_naturally_reductive

    def test_symmetric_spaces_have_zero_alpha(self, sphere, euclid2, circle):
        for sp in (sphere, euclid2, circle):
            assert sp.classification.is_symmetric
            assert np.allclose(sp.alpha, 0.0, atol=1e-14)


class TestExactTable:
    """The dual of a basis whose flat Gram matrix B B^T is diagonal with
    power-of-two entries is exact, so the bracket table and U are too."""

    @pytest.mark.parametrize("make", [spaces.make_so3_biinvariant, spaces.make_sphere2,
                                      spaces.make_circle, lambda: spaces.make_euclidean(3)])
    def test_bracket_table_is_integer_valued(self, make):
        bm = make().dec.bracket_m
        assert np.array_equal(bm, np.round(bm))

    @pytest.mark.parametrize("make", [spaces.make_so3_biinvariant, spaces.make_sphere2])
    def test_U_is_exactly_zero(self, make):
        assert not np.any(connection.compute_U(make().dec))

    def test_left_invariant_alpha_entries_exact(self, so3_left):
        assert set(np.unique(so3_left.alpha)) == {-1.0, -0.5, 0.0, 0.5, 1.0}

    @pytest.mark.parametrize("scale", [1e-20, 1e20])
    def test_identities_checked_relative_to_the_table(self, scale):
        # the table of so3-left:s,s,4s is that of so3-left:1,1,4 times 1/sqrt(s); a
        # corruption of one part in 1e6 of its largest entry is refused at every scale
        space = spaces.make_so3_left_invariant([scale, scale, 4.0 * scale])
        connection.check_alpha_invariants(space.dec, space.alpha)
        bad = space.alpha.copy()
        bad[0, 1, 2] += 1e-6 * np.abs(space.alpha).max()
        with pytest.raises(ValueError, match="torsion"):
            connection.check_alpha_invariants(space.dec, bad)


class TestScaleFreeFlags:
    """A metric scaled by s has U and the m-leak scaled by 1/sqrt(s), and the
    same flags: they compare with _TOL times the bracket table's largest entry."""

    @pytest.mark.parametrize("diag,scale", [((1.0, 1.0, 4.0), 1e20), ((1.0, 1.0, 1e-8), 1e308),
                                            ((1.0, 1.0, 4.0), 1e-20), ((2.0, 2.0, 2.0), 1e20)])
    def test_scaled_metric_has_the_unscaled_flags(self, diag, scale):
        unscaled = spaces.make_so3_left_invariant(diag).classification
        cls = spaces.make_so3_left_invariant([scale * x for x in diag]).classification
        assert cls.is_symmetric is unscaled.is_symmetric is False
        assert cls.is_naturally_reductive is unscaled.is_naturally_reductive

    def test_zero_tol_follows_the_table(self, so3, euclid2):
        assert connection.zero_tol(so3.dec) == connection._TOL  # brackets of so3 are +-1
        assert connection.zero_tol(euclid2.dec) == 0.0
        assert so3.classification.tol == connection.zero_tol(so3.dec)

    def test_scaled_off_geodesic_orbit_refused(self):
        space = spaces.make_so3_left_invariant([1e20, 1e20, 4e20])
        F = fields.constant_field(space, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="not a geodesic"):
            contraction.loop_obstruction_check(F, space, [1.0, 1.0, 1.0], n_quad=16, c=-1e-11)
        rep = contraction.loop_obstruction_check(F, space, [1.0, 1.0, 1.0], n_quad=16)
        assert rep.geodesic is False
        assert contraction.loop_obstruction_check(F, space, [0.0, 0.0, 1.0], n_quad=16).geodesic

    def test_leak_norm_of_a_tiny_metric_does_not_overflow(self):
        # a rotated Gram near the smallest accepted scale: table entries near 1e154
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        gram = q @ np.diag([2.8e-301, 4.4e-301, 1.5e-292]) @ q.T
        space = spaces.make_so3_left_invariant(0.5 * (gram + gram.T))
        with np.errstate(all="raise"):
            cls = connection.classify(space.dec)
        bm = space.dec.bracket_m
        assert np.abs(bm).max() > 1e150
        assert np.isfinite(cls.max_mm_leak) and cls.max_mm_leak >= np.abs(bm).max()

    def test_leak_norm_same_bits_as_unscaled(self, so3, so3_left, sphere):
        for space in (so3, so3_left, sphere):
            bm = space.dec.bracket_m
            want = float(np.linalg.norm(bm, axis=-1).max(initial=0.0))
            assert space.classification.max_mm_leak == want
