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
