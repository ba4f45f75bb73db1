import dataclasses
import re

import numpy as np
import pytest
from scipy.linalg import expm

from homcontract import fields
from homcontract.spaces import SO3_BASIS

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
        lambda so3: fields.rotate_field(fields.so3_demo_schedule(so3), expm(0.7 * AX)),
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

    def test_richardson_tightens(self, so3):
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
        plain = fields.linearize(F, so3, g, step=1e-3)[:, 2]
        rich = fields.linearize(F, so3, g, step=1e-3, richardson=True)[:, 2]
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
    # default brute force; the k-d tree; brute force in chunks of 2 queries
    @pytest.mark.parametrize("max_pairs, chunk_entries", [
        (fields._BRUTE_MAX_PAIRS, fields._BRUTE_CHUNK_ENTRIES), (0, fields._BRUTE_CHUNK_ENTRIES),
        (fields._BRUTE_MAX_PAIRS, 1000)])
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
        c, _ = F.gradient(hit, 0.0)
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
        from homcontract.spaces import rotate_basis

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
            rotated = fields.rotate_field(F, Q)
            assert rotated.gradient is not None
            P = fields.linearize(F, space, S)
            P_rot = fields.linearize(rotated, rotate_basis(space, Q), S)
            assert np.max(np.abs(P_rot - Q.T @ P @ Q)) < 1e-12

    def test_one_row_table_has_zero_slope(self, euclid2, tmp_path):
        F = fields.tabulated_field(euclid2, _write_table(
            tmp_path / "one.csv", _translations(np.array([[0.2, 0.3]])), np.array([[1.0, -1.0]])))
        c, grad = F.gradient(_translations(np.array([[0.5, -0.5], [0.0, 0.0]])), 0.0)
        assert np.array_equal(c, [[1.0, -1.0], [1.0, -1.0]])
        assert grad.shape == (2, 2, 3, 3) and not grad.any()


class TestGradientField:
    """A field that supplies ``gradient`` is linearized from it."""

    @staticmethod
    def _entry(so3, bad=None, grad_shape=None):
        # c = (g_22, 0, 0), so grad_0 is the unit matrix at (2, 2)
        def coeff(g, t):
            c = np.zeros(g.shape[:-2] + (3,))
            c[..., 0] = g[..., 2, 2]
            return c

        def gradient(g, t):
            grad = np.zeros(g.shape[:-2] + (3, 3, 3))
            grad[..., 0, 2, 2] = 1.0
            if bad is not None:
                grad[bad + (1, 0, 0)] = np.nan
            return coeff(g, t), grad.reshape(grad_shape or grad.shape)

        return fields.HorizontalField("entry", so3.name, coeff, gradient=gradient)

    def test_matches_central_differences(self, so3):
        G = np.stack([expm(0.4 * AX + 0.2 * AY), expm(-1.1 * AZ), np.eye(3)])
        F = self._entry(so3)
        fd = fields.linearize(dataclasses.replace(F, gradient=None), so3, G)
        assert np.max(np.abs(fields.linearize(F, so3, G) - fd)) < 1e-9

    def test_nonfinite_gradient_names_its_index(self, so3):
        G = np.broadcast_to(np.eye(3), (4, 5, 3, 3))
        with pytest.raises(ValueError, match=r"entry: non-finite gradients at t=0\.0 at stack "
                                             r"index \(2, 3\) of \(4, 5\)"):
            fields.linearize(self._entry(so3, bad=(2, 3)), so3, G)

    def test_wrong_gradient_shape_rejected(self, so3):
        with pytest.raises(ValueError, match=r"gradient shape \(4, 27\), expected \(4, 3, 3, 3\)"):
            fields.linearize(self._entry(so3, grad_shape=(4, 27)), so3,
                             np.broadcast_to(np.eye(3), (4, 3, 3)))
