import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homcontract import smallmat
from homcontract.spaces import SO3_BASIS

import oracles

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
        A = oracles.hat3(np.asarray(w))
        assert np.allclose(smallmat.so3_exp(A) @ smallmat.so3_exp(-A), np.eye(3), atol=1e-10)


class TestSo3ExpStack:
    # angles across the Taylor switch at 1e-8, and next to the half turn
    ANGLES = [0.0, 1e-12, 1e-8 * (1.0 - 1e-6), 1e-8 * (1.0 + 1e-6), 1e-4, 1.0, np.pi - 1e-9]

    def _stack(self):
        axes = np.random.default_rng(11).normal(size=(len(self.ANGLES), 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        return oracles.hat3(np.asarray(self.ANGLES)[:, None] * axes)

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
        R = smallmat.so3_exp(oracles.hat3(w))
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-14
        assert abs(np.linalg.det(R) - 1.0) <= 1e-14
        assert np.max(np.abs(R @ w - w)) <= 1e-14  # the axis is fixed
        # the series' own terms reach about 7 at |w| = 2 sqrt(3), so it rounds near 1e-15
        assert np.max(np.abs(R - series_expm(oracles.hat3(w), terms=40))) <= 1e-12


class TestSmallAngleLog:
    def test_tiny_rotation_keeps_its_angle(self):
        # so3_angle reads the angle of the rotation log from atan2(sin, cos),
        # so tiny angles keep full relative precision, stacked or not
        angles = np.array([1e-8, 1e-6, 1e-4])
        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        R = smallmat.so3_exp(angles[:, None, None] * oracles.hat3(axis))
        out = smallmat.so3_angle(np.eye(3), R)
        assert out.shape == (3,)
        assert np.allclose(out, angles, rtol=1e-9, atol=0.0)


def _old_so3_angle(Ra, Rb):
    """The kernel as first written: the full skew part through vee, np.trace."""
    rel = np.swapaxes(np.asarray(Ra, dtype=float), -1, -2) @ np.asarray(Rb, dtype=float)
    skew = rel - np.swapaxes(rel, -1, -2)
    vee = np.stack([skew[..., 2, 1], skew[..., 0, 2], skew[..., 1, 0]], axis=-1)
    sin = 0.5 * np.linalg.norm(vee, axis=-1)
    cos = 0.5 * (np.trace(rel, axis1=-2, axis2=-1) - 1.0)
    return np.arctan2(sin, cos)


# relative angles near 0, near pi, and anywhere between
_REL_ANGLE = st.one_of(st.floats(0.0, 1e-7), st.floats(np.pi - 1e-6, np.pi),
                       st.floats(0.0, np.pi))
_AXIS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.dot(v, v) > 1e-4)


class TestSo3AngleKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.data())
    def test_equals_the_vee_trace_formula(self, T, n, data):
        # centers (T, 1, 3, 3) against samples (T, n, 3, 3), as a reach tube reads them
        def rotations(count, angle):
            axes = np.array(data.draw(st.lists(_AXIS, min_size=count, max_size=count)))
            angles = np.array(data.draw(st.lists(angle, min_size=count, max_size=count)))
            w = angles[:, None] * axes / np.linalg.norm(axes, axis=1, keepdims=True)
            return smallmat.so3_exp(oracles.hat3(w))

        centers = rotations(T, st.floats(0.0, np.pi)).reshape(T, 1, 3, 3)
        samples = centers @ rotations(T * n, _REL_ANGLE).reshape(T, n, 3, 3)
        got = smallmat.so3_angle(centers, samples)
        assert got.shape == (T, n)
        assert np.array_equal(got, _old_so3_angle(centers, samples))
        assert np.array_equal(smallmat.so3_angle(samples, centers),
                              _old_so3_angle(samples, centers))


class TestSo3AngleTubeShapes:
    """The shapes a reach tube's block has: 64 centers (64, 1, 3, 3) against
    100 samples each (64, 100, 3, 3), which take one GEMM per time step."""

    @staticmethod
    def _block(T, n, seed=5):
        rng = np.random.default_rng(seed)
        centers = smallmat.so3_exp(oracles.hat3(rng.uniform(-2.0, 2.0, (T, 1, 3))))
        rel = smallmat.so3_exp(oracles.hat3(rng.uniform(-0.3, 0.3, (T, n, 3))))
        return centers, centers @ rel

    def test_tube_block_bit_identical(self):
        centers, samples = self._block(64, 100)
        got = smallmat.so3_angle(centers, samples)
        assert got.shape == (64, 100)
        assert np.array_equal(got, _old_so3_angle(centers, samples))
        assert np.array_equal(smallmat.so3_angle(samples, centers),
                              _old_so3_angle(samples, centers))

    def test_block_view_of_a_stack_bit_identical(self):
        # the tube passes a strided view: row 0 of each state is the center
        centers, samples = self._block(64, 100)
        stack = np.concatenate([centers, samples], axis=1)
        got = smallmat.so3_angle(stack[:, :1], stack[:, 1:])
        assert np.array_equal(got, _old_so3_angle(centers, samples))

    def test_single_sample_block_bit_identical(self):
        centers, samples = self._block(64, 1)
        assert np.array_equal(smallmat.so3_angle(centers, samples),
                              _old_so3_angle(centers, samples))
        assert np.array_equal(smallmat.so3_angle(samples, centers),
                              _old_so3_angle(samples, centers))

    def test_broadcast_leading_axes(self):
        # one center for every time step, and a stack without leading axes
        centers, samples = self._block(8, 3)
        for Ra, Rb in ((centers[:1], samples), (centers[0], samples[0])):
            got = smallmat.so3_angle(Ra, Rb)
            assert got.shape == np.broadcast_shapes(Ra.shape, Rb.shape)[:-2]
            assert np.array_equal(got, _old_so3_angle(Ra, Rb))
