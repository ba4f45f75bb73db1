import numpy as np
import pytest

from homcontract import connection
from homcontract.spaces import SO3_BASIS

AX, AY, AZ = SO3_BASIS


def _levi_civita():
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    return eps


def oracle_tensors(diag):
    """Hand-rolled connection tensors for a diagonal metric on so(3).

    Works in the orthonormalized basis B_i = A_i / sqrt(d_i), whose bracket
    coordinates follow directly from the epsilon symbol; the correction
    term is then solved from its defining inner-product identities with the
    (identity) Gram matrix.  Independent of the library's bracket and
    projection code paths.
    """
    d = np.asarray(diag, dtype=float)
    eps = _levi_civita()
    bm = np.zeros((3, 3, 3))  # bm[j, k, i]: i-coordinate of [B_j, B_k]
    for j in range(3):
        for k in range(3):
            for i in range(3):
                bm[j, k, i] = eps[j, k, i] * np.sqrt(d[i] / (d[j] * d[k]))
    U = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                U[i, j, k] = 0.5 * (bm[j, i, k] + bm[k, i, j])
    alpha = 0.5 * np.einsum("jki->ijk", bm) + U
    return U, alpha


class TestComputeU:
    def test_sphere_vanishes(self, sphere):
        assert np.allclose(connection.compute_U(sphere.dec), 0.0, atol=1e-14)

    def test_biinvariant_so3_vanishes(self, so3):
        assert np.allclose(connection.compute_U(so3.dec), 0.0, atol=1e-14)

    def test_left_invariant_matches_oracle(self, so3_left):
        U_oracle, _ = oracle_tensors([1.0, 1.0, 4.0])
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
        _, alpha_oracle = oracle_tensors([1.0, 1.0, 4.0])
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
