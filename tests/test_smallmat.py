import numpy as np
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


class TestExpm:
    # 3x3 skew inputs: ``so3_exp`` is the exponential every kind uses for them
    def test_zero(self):
        assert np.array_equal(smallmat.so3_exp(np.zeros((3, 3))), np.eye(3))

    def test_half_turn_about_z(self):
        expected = np.diag([-1.0, -1.0, 1.0])
        got = smallmat.so3_exp(np.pi * AZ)
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(series_expm(np.pi * AZ), expected, atol=1e-10)

    def test_quarter_turn_about_x(self):
        R = smallmat.so3_exp((np.pi / 2.0) * AX)
        assert np.allclose(R @ [0.0, 0.0, 1.0], [0.0, -1.0, 0.0], atol=1e-12)
        assert np.allclose(R, series_expm((np.pi / 2.0) * AX), atol=1e-12)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_inverse_pairing(self, w):
        A = smallmat.hat3(np.asarray(w))
        assert np.allclose(smallmat.so3_exp(A) @ smallmat.so3_exp(-A), np.eye(3), atol=1e-10)


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


class TestSmallAngleLog:
    def test_tiny_rotation_keeps_its_angle(self):
        # so3_angle reads the angle of the rotation log from atan2(sin, cos),
        # so tiny angles keep full relative precision, stacked or not
        angles = np.array([1e-8, 1e-6, 1e-4])
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        R = smallmat.so3_exp(angles[:, None, None] * smallmat.hat3(axis))
        out = smallmat.so3_angle(np.eye(3), R)
        assert out.shape == (3,)
        assert np.allclose(out, angles, rtol=1e-9, atol=0.0)
