import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcontract import smallmat
from homcontract.spaces import SO3_BASIS

AX, AY, AZ = SO3_BASIS


def series_expm(A, terms=30):
    """Brute-force truncated exponential series, the independent oracle."""
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    return out


class TestSymEigMax:
    def test_diagonal(self):
        res = smallmat.sym_eig_max(np.diag([-2.0, -1.0]))
        assert res.lambda_max == pytest.approx(-1.0)

    def test_skew_symmetrizes_to_zero(self):
        assert smallmat.sym_eig_max([[0.0, -3.0], [3.0, 0.0]]).lambda_max == pytest.approx(0.0)

    def test_nonnormal(self):
        # symmetric part [[-1, 1], [1, -1]] has eigenvalues 0 and -2
        M = np.array([[-1.0, 2.0], [0.0, -1.0]])
        oracle = np.linalg.eigvalsh(0.5 * (M + M.T))[-1]
        res = smallmat.sym_eig_max(M)
        assert res.lambda_max == pytest.approx(oracle, abs=1e-12)
        assert res.lambda_max == pytest.approx(0.0, abs=1e-12)

    def test_witness_properties(self, rng):
        M = rng.normal(size=(5, 5))
        res = smallmat.sym_eig_max(M)
        S = 0.5 * (M + M.T)
        assert np.linalg.norm(res.witness) == pytest.approx(1.0, abs=1e-12)
        assert res.witness @ S @ res.witness == pytest.approx(res.lambda_max, abs=1e-9)

    def test_symmetrization_idempotent(self, rng):
        M = rng.normal(size=(4, 4))
        S = 0.5 * (M + M.T)
        assert smallmat.sym_eig_max(M).lambda_max == smallmat.sym_eig_max(S).lambda_max

    def test_rayleigh_bound(self, rng):
        M = rng.normal(size=(4, 4))
        lam = smallmat.sym_eig_max(M).lambda_max
        S = 0.5 * (M + M.T)
        for _ in range(100):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            assert lam >= v @ S @ v - 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            smallmat.sym_eig_max(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            smallmat.sym_eig_max([[np.nan, 0.0], [0.0, 1.0]])


class TestExpm:
    def test_zero(self):
        assert np.array_equal(smallmat.expm(np.zeros((3, 3))), np.eye(3))

    def test_half_turn_about_z(self):
        expected = np.diag([-1.0, -1.0, 1.0])
        got = smallmat.expm(np.pi * AZ)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(series_expm(np.pi * AZ), expected, atol=1e-10)

    def test_quarter_turn_about_x(self):
        R = smallmat.expm((np.pi / 2.0) * AX)
        assert np.allclose(R @ [0.0, 0.0, 1.0], [0.0, -1.0, 0.0], atol=1e-12)
        assert np.allclose(R, series_expm((np.pi / 2.0) * AX), atol=1e-12)

    def test_general_matrix_against_series(self, rng):
        A = 0.3 * rng.normal(size=(4, 4))
        assert np.allclose(smallmat.expm(A), series_expm(A, terms=40), atol=1e-12)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_inverse_pairing(self, w):
        A = smallmat.hat3(np.asarray(w))
        assert np.allclose(smallmat.expm(A) @ smallmat.expm(-A), np.eye(3), atol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            smallmat.expm(np.ones((2, 3)))


class TestSo3ExpStack:
    # angles across the Taylor switch at 1e-8, and next to the half turn
    ANGLES = [0.0, 1e-12, 1e-8 * (1.0 - 1e-6), 1e-8 * (1.0 + 1e-6), 1e-4, 1.0, np.pi - 1e-9]

    def _stack(self):
        axes = np.random.default_rng(11).normal(size=(len(self.ANGLES), 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        return smallmat.hat3(np.asarray(self.ANGLES)[:, None] * axes)

    def test_stack_equals_single_elements(self):
        A = self._stack()
        R = smallmat.so3_exp(A)
        for k in range(len(A)):
            assert np.array_equal(R[k], smallmat.so3_exp(A[k]))

    def test_matches_series_and_is_a_rotation(self):
        A = self._stack()
        R = smallmat.so3_exp(A)
        for k in range(len(A)):
            assert np.max(np.abs(R[k] - series_expm(A[k], terms=40))) <= 1e-14
            assert np.max(np.abs(R[k].T @ R[k] - np.eye(3))) <= 1e-14
            assert abs(np.linalg.det(R[k]) - 1.0) <= 1e-14

    @given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           st.sampled_from([1.0, 1e-5, 1e-9, 1e-13]))
    @settings(max_examples=100, deadline=None)
    def test_rotation_property(self, w, scale):
        w = scale * np.asarray(w)
        R = smallmat.so3_exp(smallmat.hat3(w))
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-14
        assert abs(np.linalg.det(R) - 1.0) <= 1e-14
        assert np.max(np.abs(R @ w - w)) <= 1e-14  # the axis is fixed
        # the series' own terms reach about 7 at |w| = 2 sqrt(3), so it rounds near 1e-15
        assert np.max(np.abs(R - series_expm(smallmat.hat3(w), terms=40))) <= 1e-12


class TestLogmRotation:
    def test_identity(self):
        log = smallmat.logm_rotation(np.eye(3))
        assert np.allclose(log.skew, 0.0)
        assert log.angle == 0.0

    def test_round_trip_quarter_turn(self):
        A = (np.pi / 2.0) * AZ
        log = smallmat.logm_rotation(smallmat.expm(A))
        assert np.allclose(log.skew, A, atol=1e-12)

    def test_round_trip_mixed_axis(self):
        A = 0.1 * (AX + AY) / np.sqrt(2.0)
        log = smallmat.logm_rotation(smallmat.expm(A))
        assert np.allclose(log.skew, A, atol=1e-10)

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda w: 1e-4 < np.linalg.norm(w)
        ),
        st.floats(0.05, np.pi - 1e-3),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, w, angle):
        axis = np.asarray(w) / np.linalg.norm(w)
        A = angle * smallmat.hat3(axis)
        log = smallmat.logm_rotation(smallmat.expm(A))
        assert np.allclose(log.skew, A, atol=1e-9)

    def test_near_pi_branch(self):
        A = (np.pi - 1e-5) * AX
        log = smallmat.logm_rotation(smallmat.expm(A))
        assert np.allclose(log.skew, A, atol=1e-9)
        assert not log.at_cut_locus

    def test_cut_locus_flag_and_sign_convention(self):
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        R = smallmat.expm(np.pi * smallmat.hat3(axis))
        log = smallmat.logm_rotation(R)
        assert log.at_cut_locus
        assert log.angle == pytest.approx(np.pi, abs=1e-7)
        w = smallmat.vee3(log.skew)
        # largest-magnitude axis component is made positive
        assert w[np.argmax(np.abs(w))] > 0
        assert np.allclose(smallmat.expm(log.skew), R, atol=1e-7)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            smallmat.logm_rotation(1.1 * np.eye(3))
        with pytest.raises(ValueError):
            smallmat.logm_rotation(np.diag([1.0, 1.0, -1.0]))


class TestGramInner:
    def test_identity_gram(self):
        e1, e2 = np.eye(2)
        assert smallmat.gram_inner(e1, e1, np.eye(2)) == 1.0
        assert smallmat.gram_inner(e1, e2, np.eye(2)) == 0.0

    def test_weighted(self):
        v = np.array([1.0, 1.0])
        assert smallmat.gram_inner(v, v, np.diag([2.0, 3.0])) == 5.0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            smallmat.gram_inner([1.0, 0.0], [0.0, 1.0], np.diag([1.0, -1.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            smallmat.gram_inner([1.0, 0.0, 0.0], [0.0, 1.0], np.eye(2))


class TestSmallAngleLog:
    def test_tiny_rotation_keeps_its_angle(self):
        A = 1e-8 * AZ
        log = smallmat.logm_rotation(smallmat.expm(A))
        assert log.angle == pytest.approx(1e-8, rel=1e-9)
        assert np.max(np.abs(log.skew - A)) < 1e-20
