"""Each input check of the library refuses its bad input where it enters.

Every case names the check's own message, so a case fails if its check is
removed and the input goes on to fail somewhere else, or not at all.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from homcontract import contraction, fields, liealg, reach, spaces

SPHERE = spaces.make_sphere2()
SO3 = spaces.make_so3_biinvariant()
EUCLID2 = spaces.make_euclidean(2)


def _translation(i: int, value: float) -> np.ndarray:
    """An element of euclidean:2 whose translation entry i is ``value``."""
    g = np.eye(3)
    g[i, 2] = value
    return g


def _descriptor_with_m_basis(m_basis) -> str:
    data = json.loads(SPHERE.to_json())
    data["m_basis"] = m_basis
    return json.dumps(data)


RAISES = {
    "matrix_measure-non-square": (lambda: contraction.matrix_measure(np.ones((2, 3))),
                                  "matrix must be square"),
    "matrix_measure-vector": (lambda: contraction.matrix_measure(np.ones(3)),
                              "matrix must be square"),
    "matrix_measure-non-finite": (lambda: contraction.matrix_measure([[0.0, np.nan], [0.0, 1.0]]),
                                  "non-finite entries"),
    "generator_box_samples-bounds": (
        lambda: contraction.generator_box_samples(SO3, [-1.0] * 2, [1.0] * 3, 4),
        "box bounds must match the m-dimension"),
    "generator_box_samples-point": (
        lambda: contraction.generator_box_samples(SO3, [-1.0, 0.5, -1.0], [1.0, 0.5, 1.0], 4),
        "a box needs lows < highs"),
    "generator_box_samples-width": (
        lambda: contraction.generator_box_samples(EUCLID2, [-1e308] * 2, [1e308] * 2, 4),
        "a box needs lows < highs a finite width apart"),
    "find_period-zero": (lambda: contraction.find_period(SO3, np.zeros((3, 3))),
                         "zero generator has no period"),
    "constant_field-size": (lambda: fields.constant_field(SO3, [1.0, 0.0]),
                            "input dimension does not match"),
    "euclidean_linear-size": (lambda: fields.euclidean_linear(EUCLID2, np.eye(3)),
                              "matrix size does not match"),
    "euclidean_linear-non-finite": (
        lambda: fields.euclidean_linear(EUCLID2, [[1.0, np.inf], [0.0, 1.0]]),
        r"euclidean-linear entries must be finite, got \[\[1.0, inf\], \[0.0, 1.0\]\]"),
    "euclidean_linear-basis": (
        lambda: fields.euclidean_linear(dataclasses.replace(EUCLID2, dec=(
            liealg.ReductiveDecomposition(EUCLID2.dec.h_basis, EUCLID2.dec.m_basis[:1]))),
            np.eye(2)),
        "euclidean-linear needs an m-basis of 2 translations, euclidean:2 has 1"),
    "adjoint-shapes": (lambda: liealg.adjoint(np.eye(3), np.zeros((2, 2))),
                       "adjoint of mismatched shapes"),
    "orthonormalize-non-stack": (lambda: liealg.orthonormalize_basis(spaces.SO3_BASIS[0]),
                                 "expected a stacked"),
    "orthonormalize-gram-size": (
        lambda: liealg.orthonormalize_basis(spaces.SO3_BASIS, gram=np.eye(2)),
        "Gram matrix size does not match"),
    "from_json-m_basis-2d": (lambda: spaces.from_json(_descriptor_with_m_basis([[1.0, 0.0]])),
                             r"m_basis must be a nonempty \(m, d, d\) stack"),
    "from_json-m_basis-not-square": (
        lambda: spaces.from_json(_descriptor_with_m_basis(np.zeros((2, 3, 2)).tolist())),
        r"m_basis must be a nonempty \(m, d, d\) stack"),
    "make_euclidean-0": (lambda: spaces.make_euclidean(0), "dimension must be at least 1"),
    "check_group-nan-translation": (lambda: EUCLID2.check_group(_translation(0, np.nan)),
                                    "violates the group constraint"),
    "integrate-inf-translation": (
        lambda: reach.integrate(fields.constant_field(EUCLID2, [1.0, 0.0]), EUCLID2,
                                _translation(1, np.inf), 0.1, 0.01),
        "violates the group constraint"),
    "loop_obstruction_check-base": (
        lambda: contraction.loop_obstruction_check(fields.sphere_height_gradient(SPHERE), SPHERE,
                                                   [1.0, 0.0], base=2.0 * np.eye(3)),
        "violates the group constraint"),
    "make_so3_left_invariant-asymmetric": (
        lambda: spaces.make_so3_left_invariant([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]]),
        "Gram matrix must be symmetric"),
    "make_so3_left_invariant-nan": (
        lambda: spaces.make_so3_left_invariant([1.0, 1.0, np.nan]),
        "Gram matrix entries must be finite"),
    "make_so3_left_invariant-inf": (
        lambda: spaces.make_so3_left_invariant([1.0, np.inf, 1.0]),
        "Gram matrix entries must be finite"),
    "make_so3_left_invariant-nan-pair": (
        lambda: spaces.make_so3_left_invariant([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]]),
        "Gram matrix entries must be finite"),
    "builtin_field-euclidean-linear-count": (
        lambda: fields.builtin_field(EUCLID2, "euclidean-linear:1,0,0"),
        r"field euclidean-linear on euclidean:2 needs n\^2 = 4 entries, found 3"),
    "loop_obstruction_check-nan-generator": (
        lambda: contraction.loop_obstruction_check(fields.constant_field(SO3, [0.0, 0.0, 1.0]),
                                                   SO3, [np.nan, 0.0, 0.0]),
        r"generator must be nonzero and finite, got \[nan, 0.0, 0.0\]"),
    "loop_obstruction_check-inf-generator": (
        lambda: contraction.loop_obstruction_check(fields.constant_field(SO3, [0.0, 0.0, 1.0]),
                                                   SO3, [np.inf, 1.0, 0.0]),
        r"generator must be nonzero and finite, got \[inf, 1.0, 0.0\]"),
    "loop_obstruction_check-n_quad": (
        lambda: contraction.loop_obstruction_check(fields.circle_sine(spaces.make_circle()),
                                                   spaces.make_circle(), [1.0], n_quad=0),
        "a loop needs n_quad >= 1 quadrature intervals, got 0"),
}


@pytest.mark.parametrize("call,match", RAISES.values(), ids=RAISES.keys())
def test_bad_input_raises_its_own_message(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("kw,match", [
    ({"n_samples": 0}, "at least one ball sample, got n_samples=0"),
    ({"r0": 0.0}, "ball radius must be positive and finite, got r0=0.0"),
    ({"r0": -1.0}, "ball radius must be positive and finite, got r0=-1.0"),
    ({"r0": np.nan}, "ball radius must be positive and finite, got r0=nan"),
], ids=["n_samples-0", "r0-0", "r0-negative", "r0-nan"])
def test_reach_tube_refuses_a_bad_ball(kw, match):
    F = fields.so3_demo_schedule(SO3)
    cert = contraction.certify_region(F, SO3, [np.eye(3)], c=0.0)

    def forbidden(g, t):
        raise AssertionError("coefficient call before the input check")

    args = {"r0": 0.1, "n_samples": 10, **kw}
    with pytest.raises(ValueError, match=match):
        reach.reach_tube(dataclasses.replace(F, coeff=forbidden), SO3, np.eye(3),
                         certificate=cert, horizon=1.0, dt=0.01, **args)


@pytest.mark.parametrize("horizon,dt,match", [
    (np.inf, 0.01, "horizon must be non-negative and finite, got inf"),
    (np.nan, 0.01, "horizon must be non-negative and finite, got nan"),
    (-1.0, 0.01, "horizon must be non-negative and finite, got -1.0"),
    (1.0, 0.0, "step size must be positive and finite, got 0.0"),
    (1.0, np.nan, "step size must be positive and finite, got nan"),
], ids=["horizon-inf", "horizon-nan", "horizon-negative", "dt-0", "dt-nan"])
def test_reach_tube_refuses_a_bad_step(horizon, dt, match):
    F = fields.so3_demo_schedule(SO3)
    cert = contraction.certify_region(F, SO3, [np.eye(3)], c=0.0)

    def forbidden(g, t):
        raise AssertionError("coefficient call before the input check")

    with pytest.raises(ValueError, match=match):
        reach.reach_tube(dataclasses.replace(F, coeff=forbidden), SO3, np.eye(3), 0.1, cert,
                         horizon, dt, n_samples=10)


def test_reach_tube_refuses_a_certificate_whose_rate_its_measures_miss():
    # the verdict is read from the measures, so a copy at a tighter rate fails
    F = fields.so3_demo_schedule(SO3)
    cert = contraction.certify_region(F, SO3, [np.eye(3)], c=0.0)
    tighter = dataclasses.replace(cert, rate_c=cert.mu_max - 1.0)
    assert cert.passed and tighter.passed is False and tighter.verdict == "FAIL"

    def forbidden(g, t):
        raise AssertionError("coefficient call before the input check")

    with pytest.raises(ValueError, match="certificate verdict is FAIL"):
        reach.reach_tube(dataclasses.replace(F, coeff=forbidden), SO3, np.eye(3), 0.1, tighter,
                         1.0, 0.01, n_samples=10)


def test_find_period_refuses_a_wrong_closed_form(monkeypatch):
    ops = spaces.KIND_OPS["so3"]
    monkeypatch.setitem(spaces.KIND_OPS, "so3", ops._replace(period=lambda A: 1.0))
    with pytest.raises(ValueError, match="exp\\(T A\\) is not the identity"):
        contraction.find_period(SO3, spaces.SO3_BASIS[2])


def test_in_h_is_false_off_the_group():
    # fixes the base point, but is no rotation
    h = np.diag([2.0, 2.0, 1.0])
    assert np.array_equal(h @ SPHERE.base_point, SPHERE.base_point)
    assert SPHERE.in_h(h) is False
    assert SPHERE.in_h(SPHERE.algebra_exp(0.4 * spaces.SO3_BASIS[2])) is True


def test_one_row_table_returns_its_row(tmp_path):
    row = np.eye(3)
    row[:2, 2] = [0.2, -0.3]
    header = [f"g{i}{j}" for i in range(3) for j in range(3)] + ["x1", "x2"]
    path = tmp_path / "one.csv"
    np.savetxt(path, [list(row.ravel()) + [1.5, -2.5]], delimiter=",",
               header=",".join(header), comments="")
    F = fields.tabulated_field(EUCLID2, path)
    G = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    G[:, :2, 2] = [[0.2, -0.3], [0.0, 0.0], [1.0, 1.0], [-5.0, 2.0]]
    assert np.array_equal(fields.eval_coeff(F, G), np.tile([1.5, -2.5], (4, 1)))


def test_symmetric_gram_is_named_and_used():
    gram = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 1.0]])
    space = spaces.make_so3_left_invariant(gram)
    assert space.name == "so3-left[1.0,0.5,0.0,2.0,0.0,1.0]"
    B = space.dec.m_basis.reshape(3, -1)
    coords = np.linalg.lstsq(spaces.SO3_BASIS.reshape(3, -1).T, B.T, rcond=None)[0]
    # the m-basis is orthonormal for the Gram matrix, off-diagonal entries included
    assert np.allclose(coords.T @ gram @ coords, np.eye(3), atol=1e-12)


def test_gram_with_a_negative_eigenvalue_is_refused():
    # positive diagonal and symmetric, but the eigenvalues are 3, 1 and -1
    gram = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ValueError, match=re.escape(f"Gram matrix must be positive definite "
                                                   f"with smallest/largest eigenvalue ratio "
                                                   f">= 1e-10, got {gram}")):
        spaces.make_so3_left_invariant(gram)


def test_constant_field_refuses_non_finite_entries():
    with pytest.raises(ValueError, match=re.escape("constant field entries must be finite, "
                                                   "got [0.0, inf]")):
        fields.constant_field(EUCLID2, [0.0, np.inf])
