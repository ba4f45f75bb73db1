import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from homcontract import contraction, fields, spaces
from homcontract.spaces import SO3_BASIS

import oracles

AX, AY, AZ = SO3_BASIS


class TestEvalCoeff:
    def test_constant_broadcasts(self, so3, rng):
        F = fields.constant_field(so3, [1.0, 2.0, 3.0])
        batch = np.broadcast_to(np.eye(3), (4, 3, 3))
        out = fields.eval_coeff(F, batch)
        assert out.shape == (4, 3)
        assert np.allclose(out, [1.0, 2.0, 3.0])

    def test_nonfinite_rejected(self, sphere):
        def bad(g, t):
            c = np.zeros(g.shape[:-2] + (2,))
            c[..., 0] = np.nan
            return c

        F = fields.HorizontalField("bad", sphere.name, bad)
        with pytest.raises(ValueError, match="finite"):
            fields.eval_coeff(F, np.eye(3))

    def test_wrong_width_rejected(self, sphere):
        F = fields.HorizontalField("bad", sphere.name, lambda g, t: np.zeros(g.shape[:-2] + (5,)))
        with pytest.raises(ValueError, match="shape"):
            fields.linearize(F, sphere, np.eye(3))


class TestArrayOfTimes:
    """A state-independent field takes times (n,) with a stack (n, d, d), row i
    bit for bit the call at the scalar time t[i]."""

    # every RKMK4 stage time of the reach demo (dt = 1e-3 to t = 5), and times
    # well outside it
    TIMES = np.concatenate([5e-4 * np.arange(10001),
                            np.random.default_rng(4).uniform(-50.0, 50.0, 500)])

    @pytest.mark.parametrize("make", [
        fields.so3_demo_schedule,
        lambda so3: fields.constant_field(so3, [0.3, -1.0, 0.7]),
        lambda so3: oracles.rotate_field(fields.so3_demo_schedule(so3), expm(0.7 * AX)),
    ], ids=["so3-demo-schedule", "constant", "rotated-demo"])
    def test_equals_stacked_scalar_calls(self, so3, make):
        F = make(so3)
        assert F.state_independent
        g0 = expm(0.4 * AX + 0.2 * AZ)
        batched = F.coeff(np.broadcast_to(g0, self.TIMES.shape + (3, 3)), self.TIMES)
        assert batched.shape == (len(self.TIMES), 3)
        assert np.array_equal(batched, np.stack([F.coeff(g0, t) for t in self.TIMES]))
        assert np.array_equal(batched, np.stack([F.coeff(g0, float(t)) for t in self.TIMES]))
        # eval_coeff passes the times through, checking the (n, m) shape
        assert np.array_equal(
            fields.eval_coeff(F, np.broadcast_to(g0, (5, 3, 3)), self.TIMES[:5], dim_m=3),
            batched[:5])


class TestLieDerivative:
    """The frame (Lie) derivatives of the coefficients, as linearize computes them."""

    def test_matches_analytic_on_so3(self, so3):
        # c = (g_22, 0, 0): column j is the frame derivative (g B_j)_22 e_0
        # plus the connection term g_22 alpha[:, j, 0]
        def coeff(g, t):
            c = np.zeros(g.shape[:-2] + (3,))
            c[..., 0] = g[..., 2, 2]
            return c

        F = fields.HorizontalField("entry", so3.name, coeff)
        g = expm(0.4 * AX + 0.2 * AY)
        P = fields.linearize(F, so3, g)
        for j, B in enumerate(SO3_BASIS):
            expected = g[2, 2] * so3.alpha[:, j, 0]
            expected[0] += (g @ B)[2, 2]
            assert np.max(np.abs(P[:, j] - expected)) < 1e-9

    def test_richardson_tightens(self, so3, monkeypatch):
        # c_0 = exp(g_01): along frame 2 the derivative is (g A_z)_01 exp(g_01)
        def coeff(g, t):
            c = np.zeros(g.shape[:-2] + (3,))
            c[..., 0] = np.exp(g[..., 0, 1])
            return c

        F = fields.HorizontalField("exp-entry", so3.name, coeff)
        g = expm(0.9 * AZ)
        exact = np.exp(g[0, 1]) * so3.alpha[:, 2, 0]
        exact[0] += (g @ AZ)[0, 1] * np.exp(g[0, 1])
        # a coarse step, so that truncation and not rounding sets the error
        monkeypatch.setattr(fields, "_FD_STEP", 1e-3)
        plain = fields.linearize(F, so3, g)[:, 2]
        rich = oracles.richardson_linearize(F, so3, g, 1e-3)[:, 2]
        assert np.max(np.abs(rich - exact)) < 1e-3 * np.max(np.abs(plain - exact))


class TestLinearize:
    def test_constant_euclidean_is_zero(self, euclid2):
        F = fields.constant_field(euclid2, [0.3, -0.7])
        P = fields.linearize(F, euclid2, np.eye(3))
        assert np.allclose(P, 0.0, atol=1e-9)

    def test_euclidean_linear_recovers_matrix(self, euclid2, rng):
        M = rng.normal(size=(2, 2))
        F = fields.euclidean_linear(euclid2, M)
        g = np.eye(3)
        g[:2, 2] = [0.5, -1.2]
        P = fields.linearize(F, euclid2, g)
        assert np.max(np.abs(P - M)) < 1e-7

    def test_sphere_gradient_at_identity(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        P = fields.linearize(F, sphere, np.eye(3))
        assert np.max(np.abs(P + np.eye(2))) < 1e-7

    def test_nonequivariant_analytic_oracle(self, sphere):
        # c = (g_02, 0) with vanishing connection tensor gives
        # P = [[-g_01, g_00], [0, 0]] in closed form.
        F = fields.sphere_nonequivariant(sphere)
        g = expm((np.pi / 4.0) * AZ)
        P = fields.linearize(F, sphere, g)
        s = np.sin(np.pi / 4.0)
        expected = np.array([[s, s], [0.0, 0.0]])
        assert np.max(np.abs(P - expected)) < 1e-7

    def test_linear_in_field(self, so3, rng):
        u, v = rng.normal(size=3), rng.normal(size=3)
        g = expm(0.3 * AX - 0.5 * AZ)
        Pu = fields.linearize(fields.constant_field(so3, u), so3, g)
        Pv = fields.linearize(fields.constant_field(so3, v), so3, g)
        Puv = fields.linearize(fields.constant_field(so3, u + 2.0 * v), so3, g)
        assert np.max(np.abs(Puv - (Pu + 2.0 * Pv))) < 1e-8

    def test_constant_so3_is_skew(self, so3, rng):
        # bi-invariant metric: connection term of a constant field is skew
        u = rng.normal(size=3)
        P = fields.linearize(fields.constant_field(so3, u), so3, expm(0.2 * AY))
        assert np.max(np.abs(P + P.T)) < 1e-8


class TestCosetConsistency:
    def test_gradient_field_passes(self, sphere, rng):
        F = fields.sphere_height_gradient(sphere)
        for _ in range(5):
            w = rng.normal(size=3)
            g = expm(w[0] * AX + w[1] * AY + w[2] * AZ)
            rep = fields.coset_consistency_check(F, sphere, g)
            assert rep.passed, rep.max_gap

    def test_equivariant_field_with_a_rotating_linearization_passes(self, sphere):
        # -grad(p_x^2 + p_z^3) is a field on the sphere, so its lift is
        # equivariant, but P(g h) = C_h P(g) C_h^T differs from P(g)
        o = sphere.base_point
        tangents = sphere.dec.m_basis @ o

        def coeff(R, t):
            p = R @ o
            grad = np.stack([2.0 * p[..., 0], 0.0 * p[..., 1], 3.0 * p[..., 2] ** 2], axis=-1)
            v = np.einsum("...a,...a->...", grad, p)[..., None] * p - grad
            return np.einsum("...ab,ib,...a->...i", R, tangents, v)

        F = fields.HorizontalField("minus-grad-px2-pz3", sphere.name, coeff)
        B = sphere.dec.m_basis
        rep = fields.coset_consistency_check(F, sphere, sphere.algebra_exp(0.4 * B[0] - 0.7 * B[1]))
        assert rep.passed, rep.max_gap
        assert rep.pairs_checked == len(sphere.h_samples())

    def test_constant_so3_passes(self, so3):
        F = fields.constant_field(so3, [0.2, -0.4, 1.0])
        rep = fields.coset_consistency_check(F, so3, expm(0.8 * AY))
        assert rep.passed  # trivial isotropy

    def test_nonequivariant_fails_with_large_gap(self, sphere, rng):
        F = fields.sphere_nonequivariant(sphere)
        for _ in range(5):
            w = rng.normal(size=3)
            g = expm(w[0] * AX + w[1] * AY + w[2] * AZ)
            rep = fields.coset_consistency_check(F, sphere, g)
            assert not rep.passed
            assert rep.max_gap >= 1e-2

    def test_report_counts_samples(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        hs = sphere.h_samples()[:3]
        rep = fields.coset_consistency_check(F, sphere, np.eye(3), h_samples=hs)
        assert rep.pairs_checked == 3


class TestDemoFields:
    def test_schedule_values(self, so3):
        F = fields.so3_demo_schedule(so3)
        assert np.allclose(fields.eval_coeff(F, np.eye(3), t=0.0), [1.0, 1.0, 0.0])
        assert np.allclose(fields.eval_coeff(F, np.eye(3), t=5.0), [0.0, 0.0, np.sin(2.5 * np.pi)])
        assert np.allclose(fields.eval_coeff(F, np.eye(3), t=1.0), [0.8, 0.96, 1.0])

    def test_circle_sine(self, circle):
        g = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        assert np.allclose(fields.eval_coeff(fields.circle_sine(circle), g), [np.sin(0.7)])

    def test_builtin_resolver(self, sphere, so3):
        assert fields.builtin_field(sphere, "sphere-grad-height").space_name == sphere.name
        F = fields.builtin_field(so3, "constant:1,0,-2")
        assert np.allclose(fields.eval_coeff(F, np.eye(3)), [1.0, 0.0, -2.0])
        with pytest.raises(KeyError):
            fields.builtin_field(sphere, "no-such-field")


class TestTabulatedField:
    HEADER = "g00,g01,g02,g10,g11,g12,g20,g21,g22,x1,x2\n"

    def test_reproduces_linear_table(self, euclid2, tmp_path):
        # tabulate u(x) = M x on a grid and expect the interpolant to match
        M = np.array([[-1.0, 0.5], [0.0, -2.0]])
        xs = np.linspace(-1.0, 1.0, 21)
        rows = []
        for x in xs:
            for y in xs:
                g = np.eye(3)
                g[:2, 2] = [x, y]
                u = M @ [x, y]
                rows.append(list(g.ravel()) + list(u))
        header = [f"g{i}{j}" for i in range(3) for j in range(3)] + ["x1", "x2"]
        path = tmp_path / "table.csv"
        np.savetxt(path, rows, delimiter=",", header=",".join(header), comments="")
        F = fields.tabulated_field(euclid2, path)
        g = np.eye(3)
        g[:2, 2] = [0.33, -0.41]
        got = fields.eval_coeff(F, g)
        assert np.max(np.abs(got - M @ g[:2, 2])) < 1e-6

    def test_bad_header_rejected(self, euclid2, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            fields.tabulated_field(euclid2, path)

    @pytest.mark.parametrize("text,match", [
        ("", "line 1: expected a header"),
        ("g00,g01,g02,g10,g11,g12,g20,g21,g22,x1,x2\n", "line 2: expected a data row"),
        ("g00,g01,g02,g10,g11,g12,g20,g21,g22,x1,x2\n1,0,0.5,0,1,0.5,0,0,1,-0.5,0.5\n"
         "1,0,0,0,1,0,0,0,1,0\n", "line 3: expected 11 columns .*found 10"),
        (HEADER + "1,0,0.5,0,1,0.5,0,0,1,-0.5,0.5\n5,0,0,0,1,0,0,0,1,0,0\n",
         r"line 3: expected a group element .*found group constraint error 4\.00e\+00"),
        (HEADER + "1,0,0.5,0,1,0.5,0,0,1,-0.5,0.5\n1,0,nan,0,1,0,0,0,1,0,0\n",
         "line 3: expected a group element and finite coefficients, found a non-finite entry"),
        (HEADER + "1,0,0.5,0,1,0.5,0,0,1,-0.5,inf\n",
         "line 2: expected a group element and finite coefficients, found a non-finite entry"),
    ], ids=["empty", "header-only", "short-row", "not-an-element", "nan-point", "inf-coefficient"])
    def test_malformed_table_names_its_line(self, euclid2, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"table {re.escape(str(path))}, {match}"):
            fields.tabulated_field(euclid2, path)

    @pytest.mark.parametrize("cell", ["abc", "", "0x1"])
    def test_cell_not_a_number_names_its_line(self, euclid2, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "1,0,0.5,0,1,0.5,0,0,1,-0.5,0.5\n"
                        f"1,0,0,0,1,0,0,0,1,{cell},0\n")
        with pytest.raises(ValueError, match=f"table {re.escape(str(path))}, line 3: "
                                             f"expected a number, found '{cell}'$"):
            fields.tabulated_field(euclid2, path)


# a finite float as a table writes it: repr, %.17g, %.3e, or an integer
_CELLS = st.one_of(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format])).map(
        lambda pair: pair[1](pair[0])),
    st.integers(-10 ** 30, 10 ** 30).map(str))
# pieces of cells and lines, the numbers and the characters on which a line
# by line read and numpy's reader could part
_PIECES = ["1", "-0", ".5", "2e3", "inf", "nan", "1_0", " ", "\t", '"', ",", "\n", "\r",
           "\r\n", "\x1c", "\xa0", "１", "x", ""]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _outcome(read, path, width):
    """What ``read(path, width)`` gives: its array's bits or its refusal."""
    try:
        return "bits", _bits(read(path, width)).tolist()
    except ValueError as exc:
        return "refused", str(exc)


class TestTableReader:
    """A table loads in one numpy read, bit for bit as float() reads each
    cell, and refuses what the line-by-line scan refuses."""

    HEADER = TestTabulatedField.HEADER
    ROW = "1,0,0.5,0,1,0.5,0,0,1,-0.5,0.5"

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(_CELLS, min_size=4, max_size=4), min_size=1, max_size=6))
    def test_cells_load_bit_for_bit(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(fields, "_scanned_table", None)  # the fast read alone
        path = tmp_path / "cells.csv"
        path.write_text("a,b,c,d\n" + "".join(",".join(row) + "\n" for row in rows))
        want = [[float(cell) for cell in row] for row in rows]
        assert np.array_equal(_bits(fields._read_table(path, 4)), _bits(want))

    def test_signed_zero_subnormal_and_quoted_cells(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fields, "_scanned_table", None)
        cells = ["-0.0", "5e-324", "-2.2250738585072014e-308", '"1.5"']
        path = tmp_path / "cells.csv"
        path.write_text("a,b,c,d\n" + ",".join(cells) + "\n")
        want = [-0.0, 5e-324, -2.2250738585072014e-308, 1.5]
        assert np.array_equal(_bits(fields._read_table(path, 4)), _bits([want]))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
           newline=st.sampled_from(["\n", "\r", "\r\n"]))
    def test_fast_read_agrees_with_the_scan(self, tmp_path, body, newline):
        path = tmp_path / "table.csv"
        path.write_bytes(f"a,b{newline}1,2{newline}{body}".encode())
        assert _outcome(fields._read_table, path, 2) == _outcome(fields._scanned_table, path, 2)

    @pytest.mark.parametrize("text,match", [
        (HEADER + ROW + "\n\n" + ROW + "\n", "line 3: expected 11 columns .*found 0$"),
        (HEADER + ROW + "\n" + ROW + "\n\n", "line 4: expected 11 columns .*found 0$"),
        (HEADER.replace("\n", "\r") + ROW + "\r\r" + ROW, "line 3: expected 11 columns .*found 0$"),
        (HEADER + "\n" + ROW + "\n", "line 2: expected 11 columns .*found 0$"),
        (HEADER + ROW + "\n  \n", "line 3: expected 11 columns .*found 1$"),
        (HEADER + ROW + "\n" + ROW.replace("-0.5", "1_000") + "\n",
         "line 3: expected a number, found '1_000'$"),
        (HEADER + ROW + "\n" + ROW.replace("-0.5", "１") + "\n",
         "line 3: expected a number, found '１'$"),
        (HEADER + ROW + "\n" + ROW.replace("-0.5", "\x1f1") + "\n",
         r"line 3: expected a number, found '\\x1f1'$"),
        (HEADER + ROW + "\n" + ROW.replace("-0.5", '"1,5"') + "\n",
         "line 3: expected a number, found '1,5'$"),
    ], ids=["blank-inside", "blank-at-end", "blank-cr", "blank-first-row", "spaces-line",
            "underscore", "fullwidth-digit", "separator", "quoted-comma"])
    def test_refusals_name_their_line(self, euclid2, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=f"table {re.escape(str(path))}, {match}"):
            fields.tabulated_field(euclid2, path)

    def test_quoted_header_reads_as_csv(self, euclid2, tmp_path):
        # a header with a quote is read by the scan, as csv splits it: here
        # into 10 fields, where a split at every comma finds 11
        path = tmp_path / "quoted.csv"
        path.write_text('"g00,g01",g02,g10,g11,g12,g20,g21,g22,x1,x2\n' + self.ROW + "\n")
        with pytest.raises(ValueError, match="line 1: expected 11 columns .*found 10$"):
            fields.tabulated_field(euclid2, path)
        path.write_text('"g00","g01",g02,g10,g11,g12,g20,g21,g22,x1,"x2"\n' + self.ROW + "\n")
        assert np.array_equal(fields.eval_coeff(fields.tabulated_field(euclid2, path),
                                                _translations(np.array([0.5, 0.5]))), [-0.5, 0.5])

    def test_load_memory_grows_with_the_table_alone(self, euclid2, tmp_path, traced_peak):
        # a read that made a Python str per cell grew by about 14x the extra
        # rows' floats; the numpy read with the blocked group check by 2.1x
        tables = []
        for side in (71, 141):  # 5,041 and 19,881 rows
            axis = np.linspace(-1.0, 1.0, side)
            xy = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            tables.append(_write_table(tmp_path / f"t{side}.csv", _translations(xy), -xy))
        small, big = (traced_peak(lambda p=p: fields.tabulated_field(euclid2, p))
                      for p in tables)
        extra_rows = 141 ** 2 - 71 ** 2
        assert big - small <= 3 * extra_rows * (9 + 2) * 8


class TestStackedErrors:
    def _nan_at_x(self, euclid2, x_bad):
        def coeff(g, t):
            c = np.zeros(g.shape[:-2] + (2,))
            c[np.abs(g[..., 0, 2] - x_bad) < 1e-3] = np.nan
            return c

        return fields.HorizontalField("nan-at-sample", euclid2.name, coeff)

    def _stack(self, n):
        G = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
        G[:, 0, 2] = np.arange(n) / 10.0
        return G

    def test_eval_coeff_names_first_bad_sample(self, euclid2):
        F = self._nan_at_x(euclid2, 1.7)
        with pytest.raises(ValueError, match=r"finite.*index \(17,\) of \(50,\)") as exc:
            fields.eval_coeff(F, self._stack(50))
        assert len(str(exc.value)) < 300  # one element is printed, not the stack

    def test_linearize_names_first_bad_sample(self, euclid2):
        from homcontract import contraction

        F = self._nan_at_x(euclid2, 1.7)
        with pytest.raises(ValueError, match=r"finite.*index \(17, 0\)"):
            contraction.certify_region(F, euclid2, self._stack(50), c=0.0)

    def test_certify_names_the_index_in_a_later_block(self, euclid2):
        F = self._nan_at_x(euclid2, 51.7)  # element 517, in the third block
        with pytest.raises(ValueError, match=r"finite.*index \(517, 0\) of \(600, 5\)"):
            contraction.certify_region(F, euclid2, self._stack(600), c=0.0)

    def test_linearize_names_the_index_in_a_2d_stack(self, euclid2):
        F = self._nan_at_x(euclid2, 51.7)  # flattened element 517, in the third block
        with pytest.raises(ValueError, match=r"finite.*index \(1, 217, 0\) of \(2, 300, 5\)"):
            fields.linearize(F, euclid2, self._stack(600).reshape(2, 300, 3, 3))


class TestLinearizeBlocks:
    """A stack is linearized in blocks; the block size changes no bit."""

    def test_block_size_changes_no_bit(self, sphere, euclid2, tmp_path, monkeypatch):
        table = TestTableLinearization()._curved(euclid2, tmp_path)
        rng = np.random.default_rng(28)
        S = sphere.algebra_exp(sphere.algebra_from_coords(rng.uniform(-1.0, 1.0, (600, 2))))
        T = _translations(rng.uniform(-1.0, 1.0, (600, 2)))
        F = fields.sphere_height_gradient(sphere)
        cases = [lambda: fields.linearize(F, sphere, S),
                 lambda: fields.linearize(dataclasses.replace(F, jacobian=None), sphere,
                                          S.reshape(20, 30, 3, 3)),
                 lambda: fields.linearize(table, euclid2, T)]
        default = fields._LINEARIZE_BLOCK
        monkeypatch.setattr(fields, "_LINEARIZE_BLOCK", 10 ** 6)  # the stack in one block
        whole = [case() for case in cases]
        for block in (1, 7, default):
            monkeypatch.setattr(fields, "_LINEARIZE_BLOCK", block)
            for case, want in zip(cases, whole):
                assert np.array_equal(case(), want)


SHIPPED = {
    "sphere2": spaces.make_sphere2,
    "so3": spaces.make_so3_biinvariant,
    "so3-left:1,1,4": lambda: spaces.make_so3_left_invariant([1.0, 1.0, 4.0]),
    "circle": spaces.make_circle,
    "euclidean:2": lambda: spaces.make_euclidean(2),
    "euclidean:3": lambda: spaces.make_euclidean(3),
}


def _stacked_linearization(F, space, g, step):
    """The shifted stack and the linearization as one broadcast 3x3 product
    per shifted element and an einsum for the connection term make them."""
    m, d = space.dim_m, space.embed_dim
    E = space.algebra_exp(np.array([step, -step])[:, None, None, None] * space.dec.m_basis)
    moved = g[:, None, None] @ E
    stack = np.concatenate([moved.reshape(len(g), -1, d, d), g[:, None]], axis=1)
    c = F.coeff(stack, 0.0)
    shifted = c[:, :-1].reshape(len(g), 2, m, m)
    D = (shifted[:, 0] - shifted[:, 1]) / (2.0 * step)
    return stack, np.swapaxes(D, -1, -2) + np.einsum("ijk,...k->...ij", space.alpha, c[:, -1])


class TestShiftAndConnectionGemm:
    """A block's shifted elements are the stacked products g exp(+-h A_j),
    and its connection term one GEMM with the einsum's bits."""

    @pytest.mark.parametrize("two_d", [False, True])
    @pytest.mark.parametrize("name", list(SHIPPED))
    def test_same_bits_as_stacked_products(self, name, two_d):
        # two_d: the same elements linearized as a (20, 15, d, d) stack
        space = SHIPPED[name]()
        m, d = space.dim_m, space.embed_dim
        rng = np.random.default_rng(30)
        # 300 elements: a whole block of 256 and a partial one
        g = space.algebra_exp(space.algebra_from_coords(rng.uniform(-2.0, 2.0, (300, m))))
        seen = []

        def coeff(G, t):
            seen.append(G.copy())
            return G[..., 0, :m] + 2.0 * G[..., 1, :m] * G[..., -1, :m]

        F = fields.HorizontalField("probe", space.name, coeff)
        P = fields.linearize(F, space, g.reshape(20, 15, d, d) if two_d else g).reshape(-1, m, m)
        blocks = np.concatenate(seen)
        stack, want = _stacked_linearization(F, space, g, fields._FD_STEP)
        assert np.array_equal(blocks, stack)
        assert np.array_equal(P, want)
        single = fields.linearize(F, space, g[5])
        assert np.array_equal(single, want[5])

    @pytest.mark.parametrize("name", list(SHIPPED))
    def test_connection_term_of_a_constant_field(self, name):
        # central differences of a constant are exactly 0, so P is the term alone
        space = SHIPPED[name]()
        rng = np.random.default_rng(31)
        u = rng.normal(size=space.dim_m)
        g = space.algebra_exp(space.algebra_from_coords(rng.uniform(-1.0, 1.0,
                                                                    (40, space.dim_m))))
        P = fields.linearize(fields.constant_field(space, u), space, g)
        assert np.array_equal(P, np.broadcast_to(np.einsum("ijk,k->ij", space.alpha, u), P.shape))

    def test_sphere_height_coeff_is_the_jacobians_c(self, sphere):
        # a sphere reach integrates the coefficients its certificate measured,
        # signed zeros included, on the cap grid, its shifted stack and
        # signed permutation matrices holding -0.0
        perms = np.array([np.diag(s)[list(p)] for p in itertools.permutations(range(3))
                          for s in itertools.product([1.0, -1.0], repeat=3)])
        cap = contraction.sphere_cap_grid(sphere, np.radians(90.0), 16, 16)
        stack, _ = _stacked_linearization(fields.constant_field(sphere, [0.0, 0.0]), sphere,
                                          cap, fields._FD_STEP)
        F = fields.sphere_height_gradient(sphere)
        for R in (cap, stack, perms, np.where(perms == 0.0, -0.0, perms), np.eye(3)):
            want, got = F.jacobian(R, 0.0)[0], F.coeff(R, 0.0)
            assert got.shape == want.shape == R.shape[:-2] + (2,)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        # c_i is the height gradient o - (p . o) p along the frame R t_i, to rounding
        o = sphere.base_point
        p = cap @ o
        frames = cap @ (sphere.dec.m_basis @ o).T  # [n, a, i]: column i is R t_i
        grad = np.einsum("nai,na->ni", frames, o - (p @ o)[:, None] * p)
        assert np.max(np.abs(F.coeff(cap, 0.0) - grad)) < 1e-15


class TestTabulatedStack:
    M = np.array([[-1.0, 0.5], [0.0, -2.0]])

    def _table(self, tmp_path):
        xs = np.linspace(-1.0, 1.0, 21)
        rows = []
        for x in xs:
            for y in xs:
                g = np.eye(3)
                g[:2, 2] = [x, y]
                rows.append(list(g.ravel()) + list(self.M @ [x, y]))
        header = [f"g{i}{j}" for i in range(3) for j in range(3)] + ["x1", "x2"]
        path = tmp_path / "table.csv"
        np.savetxt(path, rows, delimiter=",", header=",".join(header), comments="")
        return path

    def test_stack_matches_closed_form_and_single_queries(self, euclid2, tmp_path):
        F = fields.tabulated_field(euclid2, self._table(tmp_path))
        rng = np.random.default_rng(5)
        G = np.broadcast_to(np.eye(3), (5, 7, 3, 3)).copy()
        G[..., :2, 2] = rng.uniform(-0.9, 0.9, size=(5, 7, 2))
        hit = np.linspace(-1.0, 1.0, 21)[[13, 4]]  # a table point: the exact-hit shortcut
        G[2, 3, :2, 2] = hit
        got = fields.eval_coeff(F, G)
        assert got.shape == (5, 7, 2)
        assert np.max(np.abs(got - G[..., :2, 2] @ self.M.T)) < 1e-6
        assert np.array_equal(got[2, 3], self.M @ hit)
        for i in np.ndindex(5, 7):
            assert np.max(np.abs(got[i] - fields.eval_coeff(F, G[i]))) < 1e-12

    def test_stack_across_fit_chunks(self, euclid2, tmp_path):
        F = fields.tabulated_field(euclid2, self._table(tmp_path))
        G = np.broadcast_to(np.eye(3), (600, 3, 3)).copy()
        G[:, :2, 2] = np.random.default_rng(6).uniform(-0.9, 0.9, size=(600, 2))
        got = fields.eval_coeff(F, G)
        assert np.max(np.abs(got - G[:, :2, 2] @ self.M.T)) < 1e-6
        for i in (0, 255, 256, 599):
            assert np.max(np.abs(got[i] - fields.eval_coeff(F, G[i]))) < 1e-12


class TestTabulatedNeighbours:
    # brute force in blocks of a whole fit chunk; the k-d tree; brute force
    # in blocks of 2 queries; default brute force
    @pytest.mark.parametrize("max_pairs, chunk_entries", [
        (fields._BRUTE_MAX_PAIRS, 2 ** 20), (0, 2 ** 20), (fields._BRUTE_MAX_PAIRS, 1000),
        (fields._BRUTE_MAX_PAIRS, fields._BRUTE_CHUNK_ENTRIES)])
    def test_nonlinear_table_matches_sorted_reference(self, euclid2, tmp_path, monkeypatch,
                                                      max_pairs, chunk_entries):
        # on a curved field the intercept depends on which k rows are chosen
        # and in what order, so compare with a full sort and lstsq per query
        monkeypatch.setattr(fields, "_BRUTE_MAX_PAIRS", max_pairs)
        monkeypatch.setattr(fields, "_BRUTE_CHUNK_ENTRIES", chunk_entries)
        rng = np.random.default_rng(8)
        xy = rng.uniform(-1.2, 1.2, size=(400, 2))
        vals = np.stack([np.sin(2.0 * xy[:, 0]) * xy[:, 1], np.cos(xy[:, 1]) - xy[:, 0] ** 2],
                        axis=1)
        G = np.broadcast_to(np.eye(3), (400, 3, 3)).copy()
        G[:, :2, 2] = xy
        header = [f"g{i}{j}" for i in range(3) for j in range(3)] + ["x1", "x2"]
        path = tmp_path / "curved.csv"
        np.savetxt(path, np.concatenate([G.reshape(400, 9), vals], axis=1), delimiter=",",
                   header=",".join(header), comments="")
        F = fields.tabulated_field(euclid2, path)
        Q = np.broadcast_to(np.eye(3), (300, 3, 3)).copy()
        Q[:, :2, 2] = rng.uniform(-1.0, 1.0, size=(300, 2))
        Q[7] = G[123]  # an exact hit returns the tabulated row
        got = fields.eval_coeff(F, Q)
        points = G.reshape(400, 9)
        for i, q in enumerate(Q.reshape(300, 9)):
            idx = np.argsort(np.linalg.norm(points - q, axis=1), kind="stable")[:10]
            A = np.concatenate([np.ones((10, 1)), points[idx] - q], axis=1)
            want = vals[idx[0]] if i == 7 else np.linalg.lstsq(A, vals[idx], rcond=None)[0][0]
            assert np.max(np.abs(got[i] - want)) < 1e-12


class TestSearchBudget:
    """The brute-force budget counts the queries of every call to one table."""

    def test_blocks_switch_to_the_tree_as_one_call_would(self, euclid2, tmp_path, monkeypatch):
        F, _ = TestTableLinearization()._linear(euclid2, tmp_path)  # 441 rows
        monkeypatch.setattr(fields, "_BRUTE_MAX_PAIRS", 441 * 300)
        modes, neighbours = [], fields._LocalFit.neighbours

        def recorded(self, q, brute):
            modes.append((len(q), brute))
            return neighbours(self, q, brute)

        monkeypatch.setattr(fields._LocalFit, "neighbours", recorded)
        S = contraction.generator_box_samples(euclid2, [-1.0, -1.0], [1.0, 1.0], 600)
        P = fields.linearize(F, euclid2, S)
        # 256 queries fit the budget of 300; 512 do not, so the tree serves
        # the second block and every later call
        assert modes == [(256, True), (256, False), (88, False)]
        fields.linearize(F, euclid2, S[:1])
        assert modes[-1] == (1, False)
        assert np.max(np.abs(P - TestTableLinearization.M)) < 1e-12


class TestSearchBlocks:
    """The brute-force search's block size changes no neighbour and no fit."""

    @staticmethod
    def _jittered_table():
        # a 41 x 41 grid over [-1.2, 1.2]^2, each point moved by up to a
        # quarter spacing and the rows shuffled, with a curved field on it
        rng = np.random.default_rng(26)
        axis = np.linspace(-1.2, 1.2, 41)
        xy = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        xy = rng.permutation(xy + rng.uniform(-0.25, 0.25, xy.shape) * (axis[1] - axis[0]))
        vals = np.stack([np.sin(2.0 * xy[:, 0]) * xy[:, 1], np.cos(xy[:, 1]) - xy[:, 0] ** 2],
                        axis=1)
        return fields._LocalFit(_translations(xy).reshape(-1, 9), vals)

    def test_bit_identical_across_block_sizes(self, monkeypatch):
        fit = self._jittered_table()
        n_rows = len(fit.points)
        q = _translations(np.random.default_rng(27).uniform(-1.0, 1.0, (600, 2))).reshape(-1, 9)
        results = []
        # blocks of 1 query, of 7, and of a whole fit chunk
        for entries in (n_rows, 7 * n_rows + 5, fields._FIT_CHUNK * n_rows):
            monkeypatch.setattr(fields, "_BRUTE_CHUNK_ENTRIES", entries)
            results.append(fit.neighbours(q[:fields._FIT_CHUNK], brute=True) + fit(q))
        for got in results[1:]:
            for a, b in zip(results[0], got):
                assert np.array_equal(a, b)


class TestFitColumns:
    """A fit leaves out the columns that no table row and no query of its
    chunk changes; what it returns is the fit on every column."""

    @staticmethod
    def _reference(fit, q):
        # full-width least squares on the k nearest rows, ordered as the fit orders them
        _, idx = fit.neighbours(q[None], brute=True)
        A = np.concatenate([np.ones((fit.k, 1)), fit.points[idx[0]] - q], axis=1)
        return np.linalg.lstsq(A, fit.values[idx[0]], rcond=None)[0]

    def test_matches_full_width_lstsq(self, euclid2):
        rng = np.random.default_rng(12)
        xy = rng.uniform(-1.2, 1.2, size=(300, 2))
        vals = np.stack([np.sin(2.0 * xy[:, 0]) * xy[:, 1], np.cos(xy[:, 1]) - xy[:, 0] ** 2],
                        axis=1)
        fit = fields._LocalFit(_translations(xy).reshape(300, 9), vals)
        Q = _translations(rng.uniform(-1.0, 1.0, size=(40, 2)))
        Q[5, 2, 0] = 1e-9  # off the fixed last row, within the group check's 1e-8
        euclid2.check_group(Q)
        q = Q.reshape(40, 9)
        c, slope = fit(q)
        assert np.array_equal(fit.varies, [False] * 2 + [True] + [False] * 2 + [True]
                              + [False] * 3)
        for i in range(40):
            want = self._reference(fit, q[i])
            assert np.max(np.abs(c[i] - want[0])) < 1e-12
            assert np.max(np.abs(slope[i] - want[1:])) < 1e-12
        # the query's own column is kept for its chunk; no other fixed column is
        assert slope[5, 6].any()
        assert not slope[:, ~fit.varies & (np.arange(9) != 6)].any()

    def test_chunk_without_the_off_query_drops_its_column(self, monkeypatch):
        monkeypatch.setattr(fields, "_FIT_CHUNK", 4)
        xy = np.random.default_rng(13).uniform(-1.0, 1.0, size=(50, 2))
        fit = fields._LocalFit(_translations(xy).reshape(50, 9), xy @ [[1.0, 2.0], [0.5, -1.0]])
        q = _translations(xy[:8] + 0.01).reshape(8, 9)
        q[1, 6] = 1e-9
        _, slope = fit(q)
        assert slope[:4, 6].any() and not slope[4:, 6].any()


def _write_table(path, G, vals):
    """A coefficient table of the stacked elements G (n, d, d) and values (n, m)."""
    n, d, _ = G.shape
    header = [f"g{i}{j}" for i in range(d) for j in range(d)] + [
        f"x{i + 1}" for i in range(vals.shape[1])]
    np.savetxt(path, np.concatenate([G.reshape(n, d * d), vals], axis=1), delimiter=",",
               header=",".join(header), comments="")
    return path


def _translations(xy):
    G = np.broadcast_to(np.eye(3), xy.shape[:-1] + (3, 3)).copy()
    G[..., :2, 2] = xy
    return G


class TestTableLinearization:
    """A table linearizes from the slope of its own local fit."""

    M = np.array([[-1.0, 0.5], [0.0, -2.0]])  # not symmetric

    def _linear(self, euclid2, tmp_path):
        xs = np.linspace(-1.0, 1.0, 21)
        G = _translations(np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2))
        return fields.tabulated_field(
            euclid2, _write_table(tmp_path / "linear.csv", G, G[:, :2, 2] @ self.M.T)), G

    def _curved(self, euclid2, tmp_path):
        # the 400-row seed-8 table of TestTabulatedNeighbours
        xy = np.random.default_rng(8).uniform(-1.2, 1.2, size=(400, 2))
        vals = np.stack([np.sin(2.0 * xy[:, 0]) * xy[:, 1], np.cos(xy[:, 1]) - xy[:, 0] ** 2],
                        axis=1)
        return fields.tabulated_field(
            euclid2, _write_table(tmp_path / "curved.csv", _translations(xy), vals))

    def test_linear_table_gives_its_matrix(self, euclid2, tmp_path, monkeypatch):
        from homcontract import contraction

        F, G = self._linear(euclid2, tmp_path)
        evals, queries = [], []
        eval_coeff, neighbours = fields.eval_coeff, fields._LocalFit.neighbours

        def counted_eval(*args, **kwargs):
            evals.append(args)
            return eval_coeff(*args, **kwargs)

        def counted_search(self, q, brute):
            queries.append(len(q))
            return neighbours(self, q, brute)

        monkeypatch.setattr(fields, "eval_coeff", counted_eval)
        monkeypatch.setattr(fields._LocalFit, "neighbours", counted_search)
        S = contraction.generator_box_samples(euclid2, [-1.0, -1.0], [1.0, 1.0], 1024)
        P = fields.linearize(F, euclid2, S)
        assert P.shape == (1024, 2, 2)
        assert np.max(np.abs(P - self.M)) < 1e-12
        assert evals == [] and sum(queries) == 1024  # one search per sample, not 2m + 1
        hit = G[137]  # an exact table point keeps its row and takes the fit's slope
        assert np.max(np.abs(fields.linearize(F, euclid2, hit) - self.M)) < 1e-12
        c, _ = F.jacobian(hit, 0.0)
        assert np.array_equal(c, self.M @ hit[:2, 2])

    def test_curved_table_matches_analytic_jacobian(self, euclid2, tmp_path):
        # central differences across a switch of neighbour set were off by
        # 484 here, and mu_max read 15.68
        from homcontract import contraction

        F = self._curved(euclid2, tmp_path)
        S = contraction.generator_box_samples(euclid2, [-1.0, -1.0], [1.0, 1.0], 1024)
        x, y = S[:, 0, 2], S[:, 1, 2]
        J = np.stack([np.stack([2.0 * np.cos(2.0 * x) * y, np.sin(2.0 * x)], axis=-1),
                      np.stack([-2.0 * x, -np.sin(y)], axis=-1)], axis=-2)
        assert np.max(np.abs(fields.linearize(F, euclid2, S) - J)) < 0.5
        mu_true = contraction.matrix_measure(J).max()
        assert abs(mu_true - 1.961) < 1e-3
        cert = contraction.certify_region(F, euclid2, S, c=2.0)
        assert abs(cert.mu_max - mu_true) < 0.1

    def test_rotated_table_rotates_its_linearization(self, euclid2, so3, tmp_path):
        from homcontract import contraction
        from oracles import rotate_basis

        so3_rows = contraction.generator_box_samples(so3, [-1.0] * 3, [1.0] * 3, 300)
        so3_vals = np.stack([so3_rows[:, 0, 1], so3_rows[:, 1, 2] ** 2,
                             np.sin(so3_rows[:, 2, 0])], axis=1)
        tables = [(euclid2, self._curved(euclid2, tmp_path)),
                  (so3, fields.tabulated_field(
                      so3, _write_table(tmp_path / "so3.csv", so3_rows, so3_vals)))]
        for space, F in tables:
            m = space.dim_m
            Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((m, m)))
            S = contraction.generator_box_samples(space, [-0.8] * m, [0.8] * m, 64)
            rotated = oracles.rotate_field(F, Q)
            assert rotated.jacobian is not None
            P = fields.linearize(F, space, S)
            P_rot = fields.linearize(rotated, rotate_basis(space, Q), S)
            assert np.max(np.abs(P_rot - Q.T @ P @ Q)) < 1e-12

    def test_one_row_table_has_zero_slope(self, euclid2, tmp_path):
        F = fields.tabulated_field(euclid2, _write_table(
            tmp_path / "one.csv", _translations(np.array([[0.2, 0.3]])), np.array([[1.0, -1.0]])))
        c, D = F.jacobian(_translations(np.array([[0.5, -0.5], [0.0, 0.0]])), 0.0)
        assert np.array_equal(c, [[1.0, -1.0], [1.0, -1.0]])
        assert D.shape == (2, 2, 2) and not D.any()


class TestGradientField:
    """A field that supplies its ``jacobian`` (here from the gradient of one
    entry of g) is linearized from it."""

    @staticmethod
    def _entry(so3, bad=None, jac_shape=None):
        # c = (g_22, 0, 0): its gradient is the unit matrix at (2, 2), so
        # D_0j = <unit, g A_j> = (g A_j)_22; with ``bad``, D_10 is NaN at the
        # elements whose g_22 is ``bad``
        def coeff(g, t):
            c = np.zeros(g.shape[:-2] + (3,))
            c[..., 0] = g[..., 2, 2]
            return c

        def jacobian(g, t):
            D = np.zeros(g.shape[:-2] + (3, 3))
            D[..., 0, :] = g[..., 2, :] @ SO3_BASIS[:, :, 2].T
            if bad is not None:
                D[g[..., 2, 2] == bad, 1, 0] = np.nan
            return coeff(g, t), D.reshape(jac_shape or D.shape)

        return fields.HorizontalField("entry", so3.name, coeff, jacobian=jacobian)

    def test_matches_central_differences(self, so3):
        G = np.stack([expm(0.4 * AX + 0.2 * AY), expm(-1.1 * AZ), np.eye(3)])
        F = self._entry(so3)
        fd = fields.linearize(dataclasses.replace(F, jacobian=None), so3, G)
        assert np.max(np.abs(fields.linearize(F, so3, G) - fd)) < 1e-9

    def test_nonfinite_gradient_names_its_index(self, so3):
        G = np.broadcast_to(np.eye(3), (4, 5, 3, 3)).copy()
        G[2, 3] = G[3, 1] = np.diag([-1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match=r"entry: non-finite Jacobians at t=0\.0 at stack "
                                             r"index \(2, 3\) of \(4, 5\)"):
            fields.linearize(self._entry(so3, bad=-1.0), so3, G)

    def test_wrong_gradient_shape_rejected(self, so3):
        with pytest.raises(ValueError, match=r"Jacobian shape \(4, 9\), expected \(4, 3, 3\)"):
            fields.linearize(self._entry(so3, jac_shape=(4, 9)), so3,
                             np.broadcast_to(np.eye(3), (4, 3, 3)))


def _descriptor(space, m_basis):
    """``space`` read back from a descriptor with the m-basis ``m_basis``."""
    data = json.loads(space.to_json())
    data["m_basis"] = np.asarray(m_basis).tolist()
    return spaces.from_json(json.dumps(data))


def _rotation(w, flip):
    """An orthogonal 3x3 matrix: the rotation exp(hat(w)), its first column
    negated when ``flip``."""
    return spaces.make_so3_biinvariant().algebra_exp(oracles.hat3(w)) * [1 - 2 * flip, 1, 1]


# Every space the CLI accepts, by kind: the shipped ones and descriptors
# with a rotated, or on flat space a weighted, m-basis.
ACCEPTED = {
    **SHIPPED,
    "sphere2-rotated": lambda: _descriptor(spaces.make_sphere2(), np.einsum(
        "ji,jab->iab", _rotation([0.0, 0.0, 0.7], True)[:2, :2], SO3_BASIS[:2])),
    "so3-rotated": lambda: _descriptor(spaces.make_so3_biinvariant(), np.einsum(
        "ji,jab->iab", _rotation([0.3, -0.5, 0.9], False), SO3_BASIS)),
    "euclidean:2-weighted": lambda: _descriptor(spaces.make_euclidean(2), [
        [[0, 0, 0.25], [0, 0, 0], [0, 0, 0]], [[0, 0, 0.6], [0, 0, 0.8], [0, 0, 0]]]),
}
_ARGS = {"constant": "0.7,-0.4,1.1", "euclidean-linear": "-1,0.3,0.2,-2,0.5,0.1,0.4,-0.6,1.5"}


def _builtin(space, usage):
    """The built-in field of CLI usage ``usage`` on ``space``."""
    base = usage.partition(":")[0]
    count = space.dim_m if base == "constant" else (space.embed_dim - 1) ** 2
    arg = ",".join(_ARGS.get(base, "").split(",")[:count])
    return fields.builtin_field(space, f"{base}:{arg}")


class TestClosedFormJacobians:
    """Every built-in field gives its frame derivatives in closed form."""

    CASES = [(spec, usage) for spec, make in ACCEPTED.items()
             for usage, (kind, _) in fields.BUILTIN_FIELDS.items()
             if kind in (None, make().kind)]

    @pytest.mark.parametrize("spec,usage", CASES)
    def test_matches_richardson_differences(self, spec, usage):
        # Richardson at step 1e-3 is accurate to about 1e-12 on these fields
        # (truncation h^4 and rounding eps / h); the bound leaves 100x.
        # The oracle reads only F's coefficients.
        space = ACCEPTED[spec]()
        F = _builtin(space, usage)
        assert F.jacobian is not None
        m = space.dim_m
        rng = np.random.default_rng(31)
        G = space.algebra_exp(space.algebra_from_coords(rng.uniform(-2.0, 2.0, (300, m))))
        P = fields.linearize(F, space, G)
        fd = oracles.richardson_linearize(F, space, G, 1e-3)
        assert np.max(np.abs(P - fd)) < 1e-10
        c, D = F.jacobian(G, 0.0)
        assert c.shape == (300, m) and D.shape == (300, m, m)
        assert np.array_equal(c, F.coeff(G, 0.0))

    @pytest.mark.parametrize("spec,usage", CASES)
    def test_no_builtin_is_differenced(self, spec, usage, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"{usage} on {spec} took finite differences")

        monkeypatch.setattr(fields, "_differenced", refuse)
        space = ACCEPTED[spec]()
        G = space.algebra_exp(space.algebra_from_coords(np.full((3, space.dim_m), 0.4)))
        contraction.certify_region(_builtin(space, usage), space, G, c=100.0)

    def test_sphere_cap_measure_is_minus_cos_theta(self, sphere):
        # the 60 degree cap's boundary reads -cos(pi/3) to rounding, where
        # central differences at the default step read -0.49999999998319
        cap = contraction.sphere_cap_grid(sphere, np.radians(60.0), 64, 64)
        cert = contraction.certify_region(fields.sphere_height_gradient(sphere), sphere, cap,
                                          c=-0.4)
        assert abs(cert.mu_max + 0.5) <= 1e-15
        thetas = np.repeat(np.linspace(0.0, np.radians(60.0), 64), 64)
        assert np.max(np.abs(cert.measures + np.cos(thetas))) < 1e-15

    @given(angle=st.floats(0.0, 2.0 * np.pi), flip=st.booleans(),
           w=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           coords=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_measure_is_the_same_in_a_rotated_basis(self, angle, flip, w, coords):
        # a field given by geometry, built on a descriptor with the m-basis
        # B'_i = sum_j Q_ji B_j, has the measure it has on the shipped space:
        # the height gradient, the linear field x -> M x, and a constant
        # field whose coefficients are rotated with the frame (u' = u Q)
        Q2 = _rotation([0.0, 0.0, angle], flip)[:2, :2]
        Q3 = _rotation(w, flip)
        cases = [(spaces.make_sphere2(), Q2, lambda sp, Q: fields.sphere_height_gradient(sp)),
                 (spaces.make_euclidean(2), Q2, lambda sp, Q: fields.euclidean_linear(
                     sp, [[-1.0, 4.0], [0.5, -2.0]])),
                 (spaces.make_so3_left_invariant([1.0, 2.0, 4.0]), Q3,
                  lambda sp, Q: fields.constant_field(sp, np.array([0.7, -0.4, 1.1]) @ Q))]
        for space, Q, make in cases:
            rotated = _descriptor(space, np.einsum("ji,jab->iab", Q, space.dec.m_basis))
            g = space.algebra_exp(space.algebra_from_coords(coords[:space.dim_m]))
            mu = contraction.matrix_measure(fields.linearize(make(space, np.eye(len(Q))),
                                                             space, g))
            mu_rot = contraction.matrix_measure(fields.linearize(make(rotated, Q), rotated, g))
            assert mu_rot == pytest.approx(mu, abs=1e-12)
