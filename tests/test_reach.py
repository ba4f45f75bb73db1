import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from homcontract import cli, contraction, fields, reach, smallmat
from homcontract.spaces import SO3_BASIS

AX, AY, AZ = SO3_BASIS
# every shipped distance, by CLI spec
DISTANCE_SPACES = {spec: cli._resolve_space(spec) for spec in
                   ("so3", "sphere2", "circle", "euclidean:2")}


def _elements(space, x) -> np.ndarray:
    """Group elements exp(A), A with coordinates x (..., n_h + n_m) in the h- and m-bases."""
    basis = np.concatenate([space.dec.h_basis, space.dec.m_basis])
    return space.algebra_exp(np.einsum("...i,ijk->...jk", x, basis))


class TestIntegrate:
    def test_constant_input_closed_form(self, so3):
        u = np.array([0.4, -0.9, 0.3])
        F = fields.constant_field(so3, u)
        traj = reach.integrate(F, so3, np.eye(3), horizon=np.pi / 2.0, dt=0.01)
        A = so3.algebra_from_coords(u)
        exact = expm(traj.times[-1] * A)
        assert np.max(np.abs(traj.states[-1] - exact)) < 1e-9

    def test_zero_field_stays_put(self, sphere):
        F = fields.constant_field(sphere, [0.0, 0.0])
        g0 = expm(0.7 * AX)
        traj = reach.integrate(F, sphere, g0, horizon=1.0, dt=0.05)
        assert np.max(np.abs(traj.states - g0)) < 1e-14

    def test_rkmk4_order(self, so3):
        F = fields.so3_demo_schedule(so3)
        ref = reach.integrate(F, so3, np.eye(3), 1.0, 1e-4).states[-1]
        errs = [np.max(np.abs(reach.integrate(F, so3, np.eye(3), 1.0, dt).states[-1] - ref))
                for dt in (0.04, 0.02)]
        order = np.log2(errs[0] / errs[1])
        assert order > 3.8

    def test_halved_step_agreement(self, so3):
        F = fields.so3_demo_schedule(so3)
        a = reach.integrate(F, so3, np.eye(3), 2.0, 1e-2).states[-1]
        b = reach.integrate(F, so3, np.eye(3), 2.0, 5e-3).states[-1]
        assert np.max(np.abs(a - b)) < 1e-7

    def test_batched_matches_loop(self, so3, rng):
        F = fields.so3_demo_schedule(so3)
        g0s = np.array([expm(w[0] * AX + w[1] * AY + w[2] * AZ)
                        for w in rng.normal(size=(4, 3))])
        batched = reach.integrate(F, so3, g0s, 0.5, 0.01)
        for k in range(4):
            single = reach.integrate(F, so3, g0s[k], 0.5, 0.01)
            assert np.max(np.abs(batched.states[:, k] - single.states)) < 1e-12

    def test_group_drift_small(self, so3):
        F = fields.so3_demo_schedule(so3)
        traj = reach.integrate(F, so3, np.eye(3), 5.0, 1e-3)
        assert reach.group_constraint_drift(so3, traj) <= 1e-8

    @pytest.mark.parametrize("horizon,dt", [
        (1.0, 0.0), (1.0, np.nan), (1.0, np.inf),
        (-1.0, 0.01), (-0.01, 0.01), (np.inf, 0.01), (np.nan, 0.01),
    ], ids=["dt-zero", "dt-nan", "dt-inf", "horizon-minus-1", "horizon-minus-dt", "horizon-inf",
            "horizon-nan"])
    def test_bad_step_rejected(self, so3, horizon, dt):
        def forbidden(g, t):
            raise AssertionError("a coefficient call before the step check")

        F = fields.HorizontalField("forbidden", so3.name, forbidden, state_independent=True)
        with pytest.raises(ValueError, match="step size|horizon"):
            reach.integrate(F, so3, np.eye(3), horizon, dt=dt)

    def test_step_ratio_overflow_rejected(self, so3):
        # each operand is finite, their ratio is not
        def forbidden(g, t):
            raise AssertionError("a coefficient call before the step check")

        F = fields.HorizontalField("forbidden", so3.name, forbidden, state_independent=True)
        with pytest.raises(ValueError, match="horizon / step size must be finite, got "
                                             "1e[+]300 / 1e-300"):
            reach.integrate(F, so3, np.eye(3), 1e300, 1e-300)
        cert = contraction.certify_region(fields.so3_demo_schedule(so3), so3, [np.eye(3)], c=0.0)
        with pytest.raises(ValueError, match="horizon / step size must be finite"):
            reach.reach_tube(replace(fields.so3_demo_schedule(so3), coeff=forbidden), so3,
                             np.eye(3), 0.1, cert, 1e300, 1e-300, n_samples=5)

    def test_coefficient_shape_checked(self, so3):
        # one coefficient too many, and an unstacked (m,) for a stack of states
        too_many = fields.HorizontalField(
            "m+1", so3.name, lambda g, t: np.zeros(g.shape[:-2] + (4,)))
        unstacked = fields.HorizontalField(
            "unstacked", so3.name, lambda g, t: np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="coefficient shape"):
            reach.integrate(too_many, so3, np.eye(3), 0.1, 0.01)
        g0s = np.stack([np.eye(3), expm(0.3 * AX)])
        with pytest.raises(ValueError, match="coefficient shape"):
            reach.integrate(unstacked, so3, g0s, 0.1, 0.01)


class TestDistance:
    def test_so3_angle_examples(self, so3):
        assert reach.distance(so3, np.eye(3), expm(0.7 * AZ)) == pytest.approx(0.7, abs=1e-12)
        assert reach.distance(so3, np.eye(3), expm(np.pi * AX)) == pytest.approx(np.pi, abs=1e-10)

    def test_so3_symmetry_and_left_invariance(self, so3, rng):
        w1, w2, w3 = rng.normal(size=(3, 3))
        p = expm(so3.algebra_from_coords(w1))
        q = expm(so3.algebra_from_coords(w2))
        g = expm(so3.algebra_from_coords(w3))
        d = reach.distance(so3, p, q)
        assert reach.distance(so3, q, p) == pytest.approx(d, abs=1e-12)
        assert reach.distance(so3, g @ p, g @ q) == pytest.approx(d, abs=1e-10)

    def test_sphere_great_circle(self, sphere):
        assert reach.distance(sphere, np.eye(3), expm(0.4 * AX)) == pytest.approx(0.4, abs=1e-12)
        # antipodal points sit at distance pi
        assert reach.distance(sphere, np.eye(3), expm(np.pi * AY)) == pytest.approx(np.pi, abs=1e-7)

    def test_sphere_accepts_embedded_points(self, sphere):
        assert reach.distance(sphere, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]) == pytest.approx(np.pi / 2.0)

    def test_euclidean(self, euclid2):
        p, q = np.eye(3), np.eye(3)
        p[:2, 2] = [1.0, 2.0]
        q[:2, 2] = [4.0, 6.0]
        assert reach.distance(euclid2, p, q) == pytest.approx(5.0, abs=1e-12)

    def test_circle_wraps(self, circle):
        th = 3.0
        g = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert reach.distance(circle, np.eye(2), g) == pytest.approx(3.0, abs=1e-12)
        th = 4.0  # shorter way around
        g = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert reach.distance(circle, np.eye(2), g) == pytest.approx(2.0 * np.pi - 4.0, abs=1e-12)

    def test_left_invariant_metric_unsupported(self, so3_left):
        with pytest.raises(NotImplementedError):
            reach.distance(so3_left, np.eye(3), expm(0.1 * AX))

    @pytest.mark.parametrize("spec", DISTANCE_SPACES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_symmetric_zero_at_a_state_and_left_invariant(self, spec, data):
        space = DISTANCE_SPACES[spec]
        coords = st.floats(-4.0, 4.0)
        n_g = len(space.dec.h_basis) + space.dim_m
        n = data.draw(st.integers(1, 8), label="stacked states")
        p, q = _elements(space, data.draw(arrays(np.float64, (2, n, n_g), elements=coords)))
        g = _elements(space, data.draw(arrays(np.float64, n_g, elements=coords)))
        d = reach.distance(space, p, q)
        tol = 1e-10 * (1.0 + d)
        assert np.all(np.abs(reach.distance(space, q, p) - d) <= tol)
        assert np.all(reach.distance(space, p, p) <= 1e-10)
        assert np.all(np.abs(reach.distance(space, g @ p, g @ q) - d) <= tol)


class TestReachTube:
    def _nonexpansive_tube(self, so3, r0=0.1, horizon=1.0, dt=0.01, **kw):
        F = fields.so3_demo_schedule(so3)
        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 30)
        cert = contraction.certify_region(F, so3, samples, c=0.0)
        return F, reach.reach_tube(F, so3, np.eye(3), r0, cert, horizon, dt, **kw)

    def test_radius_schedule(self, so3):
        _, tube = self._nonexpansive_tube(so3)
        assert tube.radius(0.0) == pytest.approx(0.1)
        assert tube.radius(1.0) == pytest.approx(0.1)  # c = 0: constant radius
        t = np.array([0.0, 0.5, 1.0])
        assert tube.radius(t).shape == (3,)

    def test_contracting_radius_decays(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 12, 12)
        cert = contraction.certify_region(F, sphere, samples, c=-0.5)
        tube = reach.reach_tube(F, sphere, np.eye(3), 0.2, cert, 2.0, 0.01)
        assert tube.radius(2.0) == pytest.approx(0.2 * np.exp(-1.0), rel=1e-12)

    def test_expansion_constant_scales(self, so3):
        _, tube = self._nonexpansive_tube(so3)
        import dataclasses
        wide = dataclasses.replace(tube, K=2.0)
        assert wide.radius(0.3) == pytest.approx(2.0 * tube.radius(0.3))

    def test_failed_certificate_rejected(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 6, 6)
        cert = contraction.certify_region(F, sphere, samples, c=-0.9)
        assert not cert.passed
        with pytest.raises(ValueError, match="FAIL"):
            reach.reach_tube(F, sphere, np.eye(3), 0.1, cert, 1.0, 0.01)

    @staticmethod
    def _refused(monkeypatch, F, space, cert):
        """A PASS certificate for another field or space: refused, nothing integrated."""
        assert cert.passed
        calls = []
        real = reach.integrate

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(reach, "integrate", counted)
        with pytest.raises(ValueError, match="certificate covers"):
            reach.reach_tube(F, space, np.eye(3), 0.1, cert, 1.0, 0.01, n_samples=10)
        assert calls == []

    def test_certificate_for_another_field_refused(self, sphere, monkeypatch):
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 8, 8)
        good = fields.builtin_field(sphere, "sphere-grad-height")
        noneq = fields.builtin_field(sphere, "sphere-noneq")
        assert not contraction.certify_region(noneq, sphere, samples, c=-0.5).passed
        cert = contraction.certify_region(good, sphere, samples, c=-0.5)
        self._refused(monkeypatch, noneq, sphere, cert)

    def test_certificate_for_another_space_refused(self, so3, monkeypatch):
        left = cli._resolve_space("so3-left:1,1,1")  # the same metric, another space
        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 16)
        cert = contraction.certify_region(fields.so3_demo_schedule(so3), so3, samples, c=0.0)
        self._refused(monkeypatch, fields.so3_demo_schedule(left), left, cert)


class TestMonteCarloContainment:
    def test_ball_samples_within_radius(self, so3):
        g0 = expm(0.3 * AY)
        samples = reach.sample_metric_ball(so3, g0, 0.2, 200, seed=5)
        dists = [reach.distance(so3, g0, s) for s in samples]
        assert max(dists) <= 0.2 + 1e-12
        assert max(dists) > 0.15  # ball is actually filled out

    def test_so3_nonexpansive_containment(self, so3):
        F, tube = TestReachTube()._nonexpansive_tube(so3, r0=0.1, horizon=1.0, dt=1e-3,
                                                     n_samples=30)
        assert tube.passed
        assert tube.max_drift <= 1e-5  # bi-invariant flow is isometric

    def test_sphere_contracting_containment(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 10, 10)
        cert = contraction.certify_region(F, sphere, samples, c=-0.5)
        g0 = expm(0.3 * AX)  # inside the cap with room for the ball
        tube = reach.reach_tube(F, sphere, g0, 0.15, cert, 2.0, 1e-3, n_samples=40)
        assert tube.passed, tube.max_margin

    def test_report_shapes(self, so3):
        F, tube = TestReachTube()._nonexpansive_tube(so3, horizon=0.2, dt=0.01, n_samples=7)
        assert tube.distances.shape == (len(tube.center.times), 7)
        assert tube.n_samples == 7


class TestCsv:
    def test_trajectory_round_trip_columns(self, so3, tmp_path):
        F = fields.constant_field(so3, [0.2, 0.0, -0.1])
        traj = reach.integrate(F, so3, np.eye(3), 0.3, 0.1)
        path = tmp_path / "traj.csv"
        reach.trajectory_to_csv(so3, traj, path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert len(data) == len(traj.times)
        assert data["t"][-1] == pytest.approx(traj.times[-1])
        flat = np.array([traj.states[k].ravel() for k in range(len(traj.times))])
        got = np.array([[data[f"s{i}"][k] for i in range(9)]
                        for k in range(len(traj.times))])
        assert np.max(np.abs(got - flat)) < 1e-12


class TestSmallDistances:
    def test_so3_angle_of_tiny_rotation(self, so3):
        R = expm(1e-8 * (AX + 2.0 * AY) / np.sqrt(5.0))
        assert smallmat.so3_angle(np.eye(3), R) == pytest.approx(1e-8, rel=1e-9)
        assert reach.distance(so3, np.eye(3), R) == pytest.approx(1e-8, rel=1e-9)

    def test_sphere_distance_of_tiny_angle(self, sphere):
        R = expm(1e-8 * (AX - 3.0 * AY) / np.sqrt(10.0))
        assert reach.distance(sphere, np.eye(3), R) == pytest.approx(1e-8, rel=1e-9)
        got = reach.distance(sphere, np.eye(3), np.stack([R, R.T, np.eye(3)]))
        assert got == pytest.approx([1e-8, 1e-8, 0.0], rel=1e-9)

    def test_reach_with_micro_radius(self, so3):
        # the demo flow is isometric, so distances to the center must hold
        # the sampled ball radii to full relative precision for all time
        r0 = 1e-6
        F = fields.so3_demo_schedule(so3)
        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 30)
        cert = contraction.certify_region(F, so3, samples, c=0.0)
        tube = reach.reach_tube(F, so3, np.eye(3), r0, cert, 1.0, 0.01, n_samples=20, seed=3)
        assert tube.passed
        assert tube.max_drift <= 1e-6 * r0
        rng = np.random.default_rng(3)  # the ball radii drawn by sample_metric_ball
        rng.standard_normal((20, 3))
        radii = r0 * rng.random(20) ** (1.0 / 3.0)
        assert np.max(np.abs(tube.distances[0] - radii)) <= 1e-9 * r0


class TestLockstepTube:
    """A tube integrates its ball samples with its center in one stack, and
    each row comes out as it would from integrating it alone."""

    @staticmethod
    def _alone(F, space, g0, r0, n, seed, horizon, dt):
        """The center and the ball's distances to it, each integrated on its own."""
        center = reach.integrate(F, space, g0, horizon, dt).states
        ball = reach.sample_metric_ball(space, g0, r0, n, seed)
        balls = reach.integrate(F, space, ball, horizon, dt).states
        return center, reach.distance(space, center[:, None], balls)

    def test_so3_center_and_report_exact(self, so3):
        F = fields.so3_demo_schedule(so3)
        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 30)
        cert = contraction.certify_region(F, so3, samples, c=0.0)
        tube = reach.reach_tube(F, so3, np.eye(3), 0.1, cert, 1.0, 0.01, n_samples=100, seed=7)
        center, dists = self._alone(F, so3, np.eye(3), 0.1, 100, 7, 1.0, 0.01)
        assert np.array_equal(tube.center.states, center)
        assert np.array_equal(tube.center.times, 0.01 * np.arange(101))
        assert tube.center.states.flags.c_contiguous
        assert np.array_equal(tube.distances, dists)
        assert (tube.n_samples, tube.seed) == (100, 7)
        assert tube.max_margin == (dists - tube.radius(tube.center.times)[:, None]).max()
        assert tube.max_drift == np.abs(dists - dists[0]).max()

    def test_sphere_lockstep_matches(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 10, 10)
        cert = contraction.certify_region(F, sphere, samples, c=-0.5)
        g0 = expm(0.3 * AX)
        tube = reach.reach_tube(F, sphere, g0, 0.15, cert, 2.0, 0.01, n_samples=40, seed=2)
        center, dists = self._alone(F, sphere, g0, 0.15, 40, 2, 2.0, 0.01)
        assert np.max(np.abs(tube.center.states - center)) <= 1e-12
        assert np.max(np.abs(tube.distances - dists)) <= 1e-12
        radii = tube.radius(tube.center.times)[:, None]
        assert tube.max_margin == pytest.approx((dists - radii).max(), abs=1e-12)
        assert tube.max_drift == pytest.approx(np.abs(dists - dists[0]).max(), abs=1e-12)

    def test_one_integration_per_tube(self, so3, monkeypatch):
        F = fields.so3_demo_schedule(so3)
        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 30)
        cert = contraction.certify_region(F, so3, samples, c=0.0)
        calls = []
        real = reach.integrate

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(reach, "integrate", counted)
        tube = reach.reach_tube(F, so3, np.eye(3), 0.1, cert, 1.0, 0.01, n_samples=10, seed=7)
        assert len(calls) == 1
        tube.to_dict()  # the containment verdict and its maxima
        assert len(calls) == 1


class TestStreamedIntegrate:
    """With a consumer, integrate hands over each chunk of steps and stores none."""

    @pytest.mark.parametrize("method", ["rkmk4"])  # the one scheme, still named in the ids
    @pytest.mark.parametrize("horizon", [1.0, 0.3])  # T+1 = 101 and 31 states
    def test_chunks_equal_stored_states(self, so3, method, horizon):
        F = fields.so3_demo_schedule(so3)
        g0s = reach.sample_metric_ball(so3, np.eye(3), 0.2, 5, seed=1)
        stored = reach.integrate(F, so3, g0s, horizon, 0.01)
        seen = []
        streamed = reach.integrate(F, so3, g0s, horizon, 0.01,
                                   consume=lambda lo, chunk: seen.append((lo, chunk.copy())))
        assert streamed.states is None
        assert np.array_equal(streamed.times, stored.times)
        assert [lo for lo, _ in seen] == list(range(0, len(stored.times), reach._STEP_CHUNK))
        assert np.array_equal(np.concatenate([chunk for _, chunk in seen]), stored.states)


class TestStreamedTube:
    """A tube keeps the center and the distances, and reduces them in O(T)."""

    def test_memory_flat_in_step_count(self, so3):
        F = fields.so3_demo_schedule(so3)
        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 30)
        cert = contraction.certify_region(F, so3, samples, c=0.0)
        peaks = []
        # the first call allocates about 0.75 MB of one-time caches; keep them out
        for horizon in (0.1, 1.0, 2.0):
            tracemalloc.start()
            try:
                tube = reach.reach_tube(F, so3, np.eye(3), 0.1, cert, horizon, 1e-3,
                                        n_samples=100, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert tube.distances.shape == (2001, 100)
        # 1,000 more steps add (100 distances + a 3x3 center) of float64 each;
        # a stored (T+1, 101, 3, 3) stack alone would add 7.3 MB
        kept = 1000 * (100 + 9) * 8
        assert peaks[2] - peaks[1] <= 1.5 * kept

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        arrays(np.float64, st.integers(1, 40).map(lambda t: (t, n)),
               elements=st.floats(-1e300, 1e300)),  # no overflow in a difference
        st.floats(-50.0, 50.0))))
    def test_tube_extremes_equal_dense(self, case):
        dists, rate = case
        radii = 0.1 * np.exp(rate * np.linspace(0.0, 1.0, len(dists)))
        margin, drift = reach._tube_extremes(dists, radii, dists.max(axis=1))
        assert margin == (dists - radii[:, None]).max()
        assert drift == np.abs(dists - dists[0][None, :]).max()


class TestStateIndependentStages:
    """A field whose coefficients ignore g runs its stages on row 0 of the stack."""

    @staticmethod
    def _field(space):
        if space.kind == "so3":
            return fields.so3_demo_schedule(space)
        return fields.constant_field(space, [0.3, -0.2])

    @pytest.mark.parametrize("method", ["rkmk4"])  # the one scheme, still named in the ids
    @pytest.mark.parametrize("space_name", ["so3", "sphere"])
    def test_stack_equals_each_row_alone(self, request, space_name, method):
        space = request.getfixturevalue(space_name)
        F = self._field(space)
        assert F.state_independent
        g0s = reach.sample_metric_ball(space, expm(0.4 * AX), 0.3, 6, seed=5)
        stack = reach.integrate(F, space, g0s, 0.5, 0.01).states
        for i, g0 in enumerate(g0s):
            alone = reach.integrate(F, space, g0, 0.5, 0.01).states
            assert np.array_equal(stack[:, i], alone)
        # the full-stack stages of an undeclared copy give the same bits
        full = replace(F, state_independent=False)
        assert np.array_equal(reach.integrate(full, space, g0s, 0.5, 0.01).states, stack)

    def test_wrong_declaration_raises_before_a_step(self, so3):
        calls = []

        def reads_g(g, t):
            calls.append(g.shape)
            return g[..., 0, :]

        F = fields.HorizontalField("reads-g", so3.name, reads_g, state_independent=True)
        g0s = reach.sample_metric_ball(so3, np.eye(3), 0.3, 4, seed=1)
        seen = []
        with pytest.raises(ValueError, match="declared state-independent"):
            reach.integrate(F, so3, g0s, 1.0, 0.01, consume=lambda lo, c: seen.append(lo))
        # one call on [start row 0; stack] at t = 0
        assert calls == [(5, 3, 3)] and seen == []

    def test_wrong_declaration_raises_at_a_later_block(self, so3):
        # from one state the first check sees equal rows; the next block's does not
        F = fields.HorizontalField("reads-g", so3.name, lambda g, t: g[..., 0, :] + [0, 1, 0],
                                   state_independent=True)
        seen = []
        with pytest.raises(ValueError, match="declared state-independent.*t=0.64 "):
            reach.integrate(F, so3, np.eye(3), 1.0, 0.01, consume=lambda lo, c: seen.append(lo))
        assert seen == [0]

    def test_rotate_field_keeps_the_flag(self, so3, sphere):
        Q = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert fields.rotate_field(fields.so3_demo_schedule(so3), Q).state_independent
        assert fields.rotate_field(fields.constant_field(so3, [1.0, 0.0, 0.0]),
                                   Q).state_independent
        assert not fields.rotate_field(fields.sphere_height_gradient(sphere),
                                       Q[:2, :2]).state_independent

    @pytest.mark.parametrize("method,stages", [("rkmk4", 4)])
    def test_demo_stages_get_one_state(self, so3, method, stages):
        F = fields.so3_demo_schedule(so3)
        shapes, strides = [], []

        def recorded(g, t):
            shapes.append(np.shape(g))
            strides.append(g.strides[0])
            return F.coeff(g, t)

        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 16)
        cert = contraction.certify_region(F, so3, samples, c=0.0)
        tube = reach.reach_tube(replace(F, coeff=recorded), so3, np.eye(3), 0.1, cert,
                                0.05, 0.01, n_samples=100, seed=7)
        assert tube.distances.shape == (6, 100)
        # the block's check of the declaration sees start row 0 and the stack once;
        # every stage one call on the block's 5 times, with one state broadcast
        assert shapes == [(102, 3, 3)] + [(5, 3, 3)] * stages
        assert strides[1:] == [0] * stages


class TestOneCallPerStage:
    """A state-independent field gets one coefficient call per stage per block."""

    @pytest.mark.parametrize("method,calls", [("rkmk4", 25)])
    def test_calls_per_block(self, so3, method, calls):
        F = fields.so3_demo_schedule(so3)
        seen = []

        def counted(g, t):
            seen.append(np.shape(t))
            return F.coeff(g, t)

        # 300 steps: 5 blocks, each (1 declaration check + the stages)
        reach.integrate(replace(F, coeff=counted), so3, np.eye(3), 3.0, 0.01,
                        consume=lambda lo, chunk: None)
        assert len(seen) == calls
        stages = calls // 5 - 1
        # each block: the check at its first time, then its stage times at once
        assert seen == sum(([()] + [(n,)] * stages for n in (64, 64, 64, 64, 44)), [])

    def test_non_finite_names_its_time(self, so3):
        dt = 0.01
        # the second half-step stage time of step 70, in the second block
        t_bad = dt * 70 + 0.5 * dt
        F = fields.so3_demo_schedule(so3)

        def nan_once(g, t):
            c = F.coeff(g, t)
            c[np.asarray(t) == t_bad] = np.nan
            return c

        G = replace(F, name="nan-once", coeff=nan_once)
        g0s = reach.sample_metric_ball(so3, np.eye(3), 0.3, 4, seed=2)
        with pytest.raises(ValueError) as info:
            reach.integrate(G, so3, g0s, 1.0, dt, consume=lambda lo, chunk: None)
        msg = str(info.value)
        assert f"non-finite coefficients at t={t_bad} at stack index (6,) of (36,)" in msg
        # the one state the stage saw, row 0 of the start stack
        assert msg.endswith(f"g=\n{g0s[0]}")


class TestStackedIncrements:
    """A state-independent field's increments are built one 64-step block at a time."""

    @staticmethod
    def _run(F, space, g0s, n_steps, streamed):
        if not streamed:
            return reach.integrate(F, space, g0s, 0.01 * n_steps, 0.01).states
        seen = []
        traj = reach.integrate(F, space, g0s, 0.01 * n_steps, 0.01,
                               consume=lambda lo, chunk: seen.append((lo, chunk.copy())))
        assert traj.states is None
        assert [lo for lo, _ in seen] == list(range(0, n_steps + 1, reach._STEP_CHUNK))
        return np.concatenate([chunk for _, chunk in seen])

    @pytest.mark.parametrize("streamed", [False, True])
    @pytest.mark.parametrize("n_steps", [63, 64, 65, 129])  # around the block edges
    @pytest.mark.parametrize("method", ["rkmk4"])  # the one scheme, still named in the ids
    @pytest.mark.parametrize("space_name", ["so3", "sphere"])
    def test_blocks_equal_per_row_stages(self, request, space_name, method, n_steps, streamed):
        space = request.getfixturevalue(space_name)
        F = TestStateIndependentStages._field(space)
        g0s = reach.sample_metric_ball(space, expm(0.4 * AX), 0.3, 5, seed=11)
        stacked = self._run(F, space, g0s, n_steps, streamed)
        full = self._run(replace(F, state_independent=False), space, g0s, n_steps, streamed)
        assert stacked.shape == (n_steps + 1, 5, 3, 3)
        assert np.array_equal(stacked, full)

    @pytest.mark.parametrize("method", ["rkmk4"])  # the one scheme, still named in the ids
    def test_one_exponential_per_block(self, so3, monkeypatch, method):
        F = fields.so3_demo_schedule(so3)
        g0s = reach.sample_metric_ball(so3, np.eye(3), 0.2, 10, seed=3)
        sizes = []
        so3_exp = smallmat.so3_exp

        def counted(A):
            sizes.append(int(np.prod(np.shape(A)[:-2])))
            return so3_exp(A)

        monkeypatch.setattr(smallmat, "so3_exp", counted)
        reach.integrate(F, so3, g0s, 3.0, 0.01,
                        consume=lambda lo, chunk: None)  # 300 steps: 5 blocks
        assert sizes == [64, 64, 64, 64, 44]
