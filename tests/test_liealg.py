import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homcontract import liealg, smallmat, spaces
from homcontract.liealg import adjoint, bracket, check_ad_invariance, orthonormalize_basis
from homcontract.spaces import SO3_BASIS

AX, AY, AZ = SO3_BASIS


def test_bracket_antisymmetry():
    assert np.allclose(bracket(AX, AX), 0.0)


def test_bracket_structure_constants():
    # commutators of the standard skew basis cycle: [AX, AY] = AZ etc.
    assert np.allclose(bracket(AX, AY), AZ, atol=1e-15)
    assert np.allclose(bracket(AY, AX), -AZ, atol=1e-15)
    assert np.allclose(bracket(AY, AZ), AX, atol=1e-15)


def test_bracket_shape_mismatch():
    with pytest.raises(ValueError):
        bracket(AX, np.zeros((2, 2)))


def test_adjoint_identity():
    assert np.allclose(adjoint(np.eye(3), AX), AX)


def test_adjoint_fixes_own_axis():
    g = smallmat.so3_exp(0.77 * AZ)
    assert np.allclose(adjoint(g, AZ), AZ, atol=1e-12)


def test_adjoint_rotates_generators():
    g = smallmat.so3_exp((np.pi / 2.0) * AZ)
    assert np.allclose(adjoint(g, AX), AY, atol=1e-12)


def test_adjoint_homomorphism(rng):
    g1 = smallmat.so3_exp(smallmat.hat3(rng.normal(size=3)))
    g2 = smallmat.so3_exp(smallmat.hat3(rng.normal(size=3)))
    X = smallmat.hat3(rng.normal(size=3))
    assert np.allclose(adjoint(g1 @ g2, X), adjoint(g1, adjoint(g2, X)), atol=1e-10)


def test_adjoint_derivative_is_bracket(rng):
    # d/dt Ad_{exp(tX)} Y at t=0 equals [X, Y]
    X = smallmat.hat3(rng.normal(size=3))
    Y = smallmat.hat3(rng.normal(size=3))
    h = 1e-6
    fd = (adjoint(smallmat.so3_exp(h * X), Y) - adjoint(smallmat.so3_exp(-h * X), Y)) / (2 * h)
    assert np.allclose(fd, bracket(X, Y), atol=1e-6)


def test_jacobi_identity(rng):
    for _ in range(20):
        X, Y, Z = (smallmat.hat3(rng.normal(size=3)) for _ in range(3))
        acc = bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X)) + bracket(Z, bracket(X, Y))
        assert np.max(np.abs(acc)) < 1e-10


class TestProjections:
    """The m- and h-components of an algebra element, in coordinates from split_coords."""

    @staticmethod
    def _parts(dec, X):
        ch, cm = dec.split_coords(X)
        return np.einsum("i,ijk->jk", ch, dec.h_basis), dec.from_coords(cm)

    def test_h_basis_vector_projects_to_zero(self, sphere):
        assert np.allclose(sphere.dec.coords_m(AZ), 0.0, atol=1e-12)

    def test_componentwise(self, sphere):
        h_part, m_part = self._parts(sphere.dec, AX + 2.0 * AZ)
        assert np.allclose(m_part, AX, atol=1e-12)
        assert np.allclose(h_part, 2.0 * AZ, atol=1e-12)

    def test_symmetric_space_bracket_falls_into_h(self, sphere):
        # [m, m] subset h is the symmetric-space property
        assert np.allclose(sphere.dec.coords_m(bracket(AX, AY)), 0.0, atol=1e-12)

    def test_split_reconstructs(self, sphere, rng):
        X = smallmat.hat3(rng.normal(size=3))
        h_part, m_part = self._parts(sphere.dec, X)
        assert np.allclose(h_part + m_part, X, atol=1e-10)

    def test_idempotent(self, sphere, rng):
        X = smallmat.hat3(rng.normal(size=3))
        _, P = self._parts(sphere.dec, X)
        h_part, m_part = self._parts(sphere.dec, P)
        assert np.allclose(m_part, P, atol=1e-12)
        assert np.allclose(h_part, 0.0, atol=1e-12)

    def test_rejects_outside_algebra(self, sphere):
        with pytest.raises(ValueError):
            sphere.dec.split_coords(np.eye(3))


class TestOrthonormalize:
    def test_already_orthonormal_unchanged(self):
        out = orthonormalize_basis(np.stack([AX, AY]), trace_scale=0.5)
        assert np.allclose(out, np.stack([AX, AY]), atol=1e-12)

    def test_normalizes(self):
        out = orthonormalize_basis(np.stack([2.0 * AX]), trace_scale=0.5)
        assert np.allclose(out, np.stack([AX]), atol=1e-12)

    def test_one_gram_schmidt_step(self):
        out = orthonormalize_basis(np.stack([AX, AX + AY]), trace_scale=0.5)
        assert np.allclose(out, np.stack([AX, AY]), atol=1e-12)

    def test_first_vector_stays_parallel(self, rng):
        raw = np.stack([AX + 0.5 * AY, AY, AZ])
        out = orthonormalize_basis(raw, trace_scale=0.5)
        cross = out[0] / np.linalg.norm(out[0]) - raw[0] / np.linalg.norm(raw[0])
        assert np.max(np.abs(cross)) < 1e-12

    def test_gram_is_identity(self, rng):
        raw = np.stack([AX + 0.3 * AZ, AY - AX, AZ])
        out = orthonormalize_basis(raw, trace_scale=0.5)
        flat = out.reshape(3, -1)
        assert np.allclose(0.5 * flat @ flat.T, np.eye(3), atol=1e-12)

    def test_rank_deficient_raises(self):
        with pytest.raises(ValueError):
            orthonormalize_basis(np.stack([AX, AX]), trace_scale=0.5)


class TestAdInvariance:
    def test_sphere_rotations_about_pole_pass(self, sphere):
        samples = [smallmat.so3_exp(a * AZ) for a in (0.3, 1.7, 3.0)]
        report = check_ad_invariance(sphere.dec, samples, in_h=sphere.in_h)
        assert report.passed

    def test_trivial_subgroup_vacuous(self, so3):
        report = check_ad_invariance(so3.dec, [np.eye(3)])
        assert report.passed and report.max_leak == 0.0

    def test_corrupted_decomposition_fails(self):
        # claim m = span(AX, AZ) against H = rotations about z: Ad leaks into AY
        dec = liealg.ReductiveDecomposition(
            h_basis=np.stack([AY]),
            m_basis=orthonormalize_basis(np.stack([AX, AZ]), trace_scale=0.5),
        )
        samples = [smallmat.so3_exp(a * AZ) for a in (0.3, 1.7)]
        report = check_ad_invariance(dec, samples)
        assert not report.passed

    def test_non_member_sample_raises(self, sphere):
        with pytest.raises(ValueError):
            check_ad_invariance(sphere.dec, [smallmat.so3_exp(0.5 * AX)], in_h=sphere.in_h)

    def test_one_non_member_in_a_stack_raises(self, sphere):
        members = sphere.h_samples()
        assert check_ad_invariance(sphere.dec, members, in_h=sphere.in_h).passed
        stack = np.concatenate([members[:7], smallmat.so3_exp(0.5 * AX)[None], members[7:]])
        with pytest.raises(ValueError, match="not a member"):
            check_ad_invariance(sphere.dec, stack, in_h=sphere.in_h)

    def test_one_pass_over_the_stack(self, sphere, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        split = liealg.ReductiveDecomposition.split_coords
        monkeypatch.setattr(liealg, "adjoint", counted("adjoint", liealg.adjoint))
        monkeypatch.setattr(liealg.ReductiveDecomposition, "split_coords",
                            counted("split_coords", split))
        report = check_ad_invariance(sphere.dec, sphere.h_samples(),
                                     in_h=counted("in_h", sphere.in_h))
        assert report.passed
        assert sorted(calls) == ["adjoint", "in_h", "split_coords"]


STACK_SPACES = {"sphere2": spaces.make_sphere2(),
                "so3-left:1,1,4": spaces.make_so3_left_invariant([1.0, 1.0, 4.0])}
_rotation_vectors = st.integers(1, 6).flatmap(lambda n: st.tuples(
    *[arrays(np.float64, (n, 3), elements=st.floats(-4.0, 4.0)) for _ in range(2)]))


@pytest.mark.parametrize("name", sorted(STACK_SPACES))
@settings(max_examples=40, deadline=None)
@given(case=_rotation_vectors)
def test_stacked_equals_per_element(name, case):
    """split_coords of a stack and adjoint broadcast over stacks give, element
    for element, exactly what one call per element gives."""
    dec = STACK_SPACES[name].dec
    X = smallmat.hat3(case[0])
    G = smallmat.so3_exp(smallmat.hat3(case[1]))
    ch, cm = dec.split_coords(X)
    for i, x in enumerate(X):
        one_h, one_m = dec.split_coords(x)
        assert np.array_equal(ch[i], one_h) and np.array_equal(cm[i], one_m)
    Y = adjoint(G[:, None], X[None])
    assert Y.shape == (len(G), len(X), 3, 3)
    for i, g in enumerate(G):
        for j, x in enumerate(X):
            assert np.array_equal(Y[i, j], adjoint(g, x))


@pytest.mark.parametrize("name", sorted(STACK_SPACES))
def test_tiny_element_solved_alone_in_a_stack(name):
    """An element whose entries are all below lstsq's rescaling threshold
    (~1e-292) gets the same coordinates beside an element of size 1 as alone."""
    dec = STACK_SPACES[name].dec
    X = smallmat.hat3(np.array([[1.0, 1.3e-303, 1.3e-303], [1.3e-303] * 3]))
    stacked = np.concatenate(dec.split_coords(X), axis=-1)
    alone = np.concatenate(dec.split_coords(X[1]), axis=-1)
    assert np.array_equal(stacked[1], alone)
    assert stacked[1] == pytest.approx(np.concatenate(dec.split_coords(X[1] * 1e300)) * 1e-300,
                                       rel=1e-6)


@st.composite
def spd_grams(draw):
    """A random 3x3 SPD Gram matrix whose eigenvalue ratio the Gram check accepts:
    generic eigenvectors from a drawn seed, the smallest/largest ratio 10^-r with
    r drawn up to 9.9, and a random overall scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    r = draw(st.floats(0.0, 9.9))
    logs = np.array([0.0, -r, -r * rng.random()]) + draw(st.floats(-30.0, 30.0))
    G = (Q * 10.0 ** logs) @ Q.T
    return 0.5 * (G + G.T)


# a coordinate below 1e-200 in size is drawn as 0: its element's entries could be subnormal
_coords = st.floats(-1e3, 1e3).map(lambda v: v if abs(v) > 1e-200 else 0.0)


@settings(max_examples=200, deadline=None)
@given(gram=spd_grams(), c=st.integers(1, 5).flatmap(
    lambda n: arrays(np.float64, (n, 3), elements=_coords)))
def test_coordinates_on_a_random_gram(gram, c):
    """On any accepted Gram matrix the m-coordinates of the element built from c
    return c to 1e-10 relative, and a stack gets, bit for bit, what one call
    per element gets."""
    dec = spaces.make_so3_left_invariant(gram).dec
    X = dec.from_coords(c)
    assert np.abs(dec.coords_m(X) - c).max() <= 1e-10 * np.abs(c).max()
    ch, cm = dec.split_coords(X)
    for i, x in enumerate(X):
        one_h, one_m = dec.split_coords(x)
        assert np.array_equal(ch[i], one_h) and np.array_equal(cm[i], one_m)


@pytest.mark.parametrize("size", [1e-12, 1.0, 1e12])
def test_span_test_relative_to_the_element(size):
    """An element of any size in the algebra splits, and one off it by a part
    in a thousand of its size is refused, on a Gram matrix with an inexact dual."""
    dec = spaces.make_so3_left_invariant([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2],
                                          [0.1, 0.2, 3.0]]).dec
    X = size * smallmat.hat3(np.array([0.3, -1.7, 2.9]))
    assert np.allclose(dec.from_coords(dec.coords_m(X)), X, rtol=0.0, atol=1e-14 * size)
    with pytest.raises(ValueError, match="does not lie in the algebra"):
        dec.split_coords(X + 1e-3 * size * np.eye(3))
