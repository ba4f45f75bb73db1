import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from homcontract import smallmat, spaces
from homcontract.spaces import SO3_BASIS

import oracles

AX, AY, AZ = SO3_BASIS


class TestConstructors:
    def test_euclidean_shapes(self, euclid2):
        assert euclid2.dim_m == 2
        assert euclid2.dec.h_basis.shape == (0, 3, 3)
        assert euclid2.classification.is_symmetric

    def test_sphere_decomposition(self, sphere):
        assert sphere.dim_m == 2
        assert np.allclose(sphere.dec.h_basis[0], AZ)
        assert np.allclose(sphere.base_point, [0.0, 0.0, 1.0])

    def test_so3_trivial_isotropy(self, so3):
        assert so3.dec.h_basis.shape[0] == 0
        assert so3.dim_m == 3

    def test_left_invariant_basis_orthonormal(self, so3_left):
        # metric diag(1,1,4) rescales the third generator
        B = so3_left.dec.m_basis
        assert np.allclose(B[0], AX) and np.allclose(B[1], AY)
        assert np.allclose(B[2], AZ / 2.0)

    def test_left_invariant_full_gram(self):
        G = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
        sp = spaces.make_so3_left_invariant(G)
        # orthonormality of the produced basis with respect to G
        B = sp.dec.m_basis
        coords = np.array([[np.trace(-b @ a) / 2.0 for a in SO3_BASIS] for b in B])
        got = coords @ G @ coords.T
        assert np.max(np.abs(got - np.eye(3))) < 1e-12

    def test_bad_gram_rejected(self):
        with pytest.raises(ValueError):
            spaces.make_so3_left_invariant([1.0, -2.0, 1.0])


class TestGroupOps:
    def test_check_group_accepts_members(self, sphere, euclid2, circle):
        sphere.check_group(expm(0.3 * AX))
        g = np.eye(3)
        g[:2, 2] = [4.0, -1.0]
        euclid2.check_group(g)
        circle.check_group(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_check_group_rejects_nonmembers(self, sphere, euclid2):
        with pytest.raises(ValueError):
            sphere.check_group(np.diag([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            euclid2.check_group(np.diag([2.0, 1.0, 1.0]))

    def test_algebra_exp_matches_expm(self, so3, euclid2, circle, rng):
        for sp in (so3, euclid2, circle):
            c = rng.normal(size=sp.dim_m)
            A = sp.algebra_from_coords(c)
            assert np.max(np.abs(sp.algebra_exp(A) - expm(A))) < 1e-12

    def test_algebra_exp_batched(self, so3, rng):
        As = np.tensordot(rng.normal(size=(5, 3)), np.array(SO3_BASIS), axes=(1, 0))
        out = so3.algebra_exp(As)
        assert out.shape == (5, 3, 3)
        for k in range(5):
            assert np.max(np.abs(out[k] - expm(As[k]))) < 1e-12

    def test_orbit_stays_on_sphere(self, sphere, rng):
        c = rng.normal(size=2)
        A = sphere.algebra_from_coords(c)
        for t in np.linspace(0.0, 7.0, 15):
            p = sphere.algebra_exp(t * A) @ sphere.base_point
            assert abs(np.linalg.norm(p) - 1.0) < 1e-12

    def test_in_h(self, sphere):
        assert sphere.in_h(expm(1.3 * AZ))
        assert not sphere.in_h(expm(0.2 * AX))


class TestSerialization:
    @pytest.mark.parametrize("name", ["sphere", "so3", "so3_left", "euclid2", "circle"])
    def test_json_round_trip(self, name, request):
        sp = request.getfixturevalue(name)
        sp2 = spaces.from_json(sp.to_json())
        assert sp2.name == sp.name and sp2.kind == sp.kind
        assert np.array_equal(sp2.dec.m_basis, sp.dec.m_basis)
        assert np.array_equal(sp2.alpha, sp.alpha)
        # serialization is deterministic
        assert sp2.to_json() == sp.to_json()


class TestRotateBasis:
    def test_rotated_space_still_valid(self, so3_left, rng):
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sp = oracles.rotate_basis(so3_left, Q)
        spaces.verify_space(sp)
        # orthonormality under the metric gram is preserved
        G = np.diag([1.0, 1.0, 4.0])
        coords = np.array([[np.trace(-b @ a) / 2.0 for a in SO3_BASIS]
                           for b in sp.dec.m_basis])
        assert np.max(np.abs(coords @ G @ coords.T - np.eye(3))) < 1e-12

    def test_non_orthogonal_rejected(self, so3):
        with pytest.raises(ValueError):
            oracles.rotate_basis(so3, np.diag([2.0, 1.0, 1.0]))


class TestVerifySpace:
    @pytest.mark.parametrize("name", ["sphere", "so3", "so3_left", "euclid2", "circle"])
    def test_all_builtin_spaces_verify(self, name, request):
        sp = request.getfixturevalue(name)
        cls = spaces.verify_space(sp)
        assert cls.to_dict() == sp.classification.to_dict()


class TestStackedCheckGroup:
    def test_names_first_violating_sample(self, sphere):
        G = sphere.algebra_exp(np.linspace(0.0, 1.0, 50)[:, None, None] * AX)
        sphere.check_group(G)
        G[23] *= 1.01
        G[40] *= 1.01
        with pytest.raises(ValueError, match=r"at stack index \(23,\)"):
            sphere.check_group(G)

    def test_names_its_index_across_blocks(self, sphere):
        # flattened element 550 is in the third block of 256
        G = sphere.algebra_exp(np.linspace(0.0, 1.0, 600)[:, None, None] * AX)
        G = G.reshape(3, 200, 3, 3)
        sphere.check_group(G)
        G[2, 150] *= 1.01
        with pytest.raises(ValueError, match=r"at stack index \(2, 150\)"):
            sphere.check_group(G)

    def test_nan_element_rejected(self, euclid2):
        G = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
        G[2, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"\(2,\)"):
            euclid2.check_group(G)


class TestCofactorDeterminant:
    """A 3x3 group check takes its determinant by cofactors, not LU."""

    def test_agrees_with_lapack(self):
        rng = np.random.default_rng(30)
        eps = np.finfo(float).eps
        G = rng.normal(size=(2000, 3, 3))
        hadamard = np.prod(np.linalg.norm(G, axis=-1), axis=-1)  # bounds |det G|
        assert np.all(np.abs(spaces._det(G) - np.linalg.det(G)) <= 16.0 * eps * hadamard)
        G2 = rng.normal(size=(50, 2, 2))  # other sizes keep LU
        assert np.array_equal(spaces._det(G2), np.linalg.det(G2))

    def test_exact_to_rounding_at_any_scale(self):
        # np.linalg.det returns sign * exp(log|det|), which loses up to 1e-13
        # relative where |det| is near 1e-300; the cofactors lose no more than
        # a few units in the last place of the rational determinant
        from fractions import Fraction

        rng = np.random.default_rng(32)
        eps = np.finfo(float).eps
        for scale in (1e-100, 1.0, 1e100):
            for g in scale * rng.normal(size=(20, 3, 3)):
                (a, b, c), (d, e, f), (p, q, r) = [[Fraction(float(x)) for x in row] for row in g]
                exact = a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)
                hadamard = np.prod(np.linalg.norm(g, axis=-1))
                assert abs(float(spaces._det(g)) - float(exact)) <= 4.0 * eps * hadamard

    def test_same_verdicts_near_the_tolerance(self, so3):
        # rotations perturbed by 1e-9 to 1e-7: some pass the 1e-8 check, some fail,
        # and each gets the verdict of the LU determinant
        rng = np.random.default_rng(31)
        R = so3.algebra_exp(so3.algebra_from_coords(rng.uniform(-3.0, 3.0, (4000, 3))))
        G = R + 10.0 ** rng.uniform(-9.0, -7.0, (4000, 1, 1)) * rng.uniform(-1.0, 1.0,
                                                                             (4000, 3, 3))
        gtg = np.abs(np.swapaxes(G, -1, -2) @ G - np.eye(3)).max(axis=(-2, -1))
        lu = np.maximum(gtg, np.abs(np.linalg.det(G) - 1.0))
        err = so3.group_errors(G)
        assert np.abs(err - lu).max() <= 1e-15
        assert 0.1 < np.mean(lu <= spaces._GROUP_TOL) < 0.9
        assert np.array_equal(err <= spaces._GROUP_TOL, lu <= spaces._GROUP_TOL)


BUILTINS = {
    "sphere": spaces.make_sphere2,
    "so3": spaces.make_so3_biinvariant,
    "so3_left": lambda: spaces.make_so3_left_invariant([1.0, 1.0, 4.0]),
    "euclid2": lambda: spaces.make_euclidean(2),
    "circle": spaces.make_circle,
}


def _descriptor(space, **changes) -> str:
    data = json.loads(space.to_json())
    data.update(changes)
    return json.dumps(data)


class TestDescriptor:
    @given(st.sampled_from(sorted(BUILTINS)), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rotated_round_trip(self, name, seed):
        sp = BUILTINS[name]()
        Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(sp.dim_m, sp.dim_m)))
        rot = oracles.rotate_basis(sp, Q)
        back = spaces.from_json(rot.to_json())
        assert back.to_json() == rot.to_json()
        assert np.array_equal(back.alpha, rot.alpha)
        assert back.classification == rot.classification
        spaces.verify_space(rot)

    @given(st.sampled_from(sorted(BUILTINS)), st.floats(-2.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_stored_alpha_rejected(self, name, delta):
        sp = BUILTINS[name]()
        alpha = sp.alpha.copy()
        alpha[..., 0] += delta
        with pytest.raises(ValueError, match="alpha"):
            spaces.from_json(_descriptor(sp, alpha=alpha.tolist()))

    @given(st.sampled_from([0, 1]), st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 3.0)))
    @settings(max_examples=20, deadline=None)
    def test_scaled_sphere_vector_rejected(self, j, scale):
        # one scaled m-vector makes the metric vary under rotations about the pole
        sp = spaces.make_sphere2()
        m_basis = sp.dec.m_basis.copy()
        m_basis[j] *= scale
        with pytest.raises(ValueError, match="distorts the metric"):
            spaces.from_json(_descriptor(sp, m_basis=m_basis.tolist()))

    @given(st.text(max_size=12).filter(lambda k: k not in spaces.KIND_OPS))
    @settings(max_examples=20, deadline=None)
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="unknown space kind"):
            spaces.from_json(_descriptor(spaces.make_so3_biinvariant(), kind=kind))

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_kind_must_match_bases(self, name):
        sp = BUILTINS[name]()
        for kind in sorted(set(spaces.KIND_OPS) - {sp.kind}):
            with pytest.raises(ValueError):
                spaces.from_json(_descriptor(sp, kind=kind))

    def test_dependent_bases_rejected(self):
        sp = spaces.make_sphere2()
        with pytest.raises(ValueError, match="independent"):
            spaces.from_json(_descriptor(sp, h_basis=sp.dec.m_basis[:1].tolist()))

    @given(st.text(max_size=12))
    @settings(max_examples=10, deadline=None)
    def test_renamed_sphere_keeps_isotropy_samples(self, name):
        sp = spaces.from_json(_descriptor(spaces.make_sphere2(), name=name))
        samples = sp.h_samples()
        assert len(samples) == 16
        for a, h in zip(spaces._H_ANGLES, samples):
            assert np.array_equal(h, smallmat.so3_exp(a * AZ))
