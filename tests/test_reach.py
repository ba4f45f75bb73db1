import numpy as np
import pytest
from scipy.linalg import expm

from homcontract import contraction, fields, reach
from homcontract.spaces import SO3_BASIS

AX, AY, AZ = SO3_BASIS


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

    def test_lie_euler_first_order(self, so3):
        F = fields.so3_demo_schedule(so3)
        ref = reach.integrate(F, so3, np.eye(3), 1.0, 1e-4).states[-1]
        errs = [np.max(np.abs(reach.integrate(F, so3, np.eye(3), 1.0, dt,
                                              method="lieeuler").states[-1] - ref))
                for dt in (0.02, 0.01)]
        order = np.log2(errs[0] / errs[1])
        assert 0.8 < order < 1.3

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

    def test_bad_step_rejected(self, so3):
        F = fields.constant_field(so3, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            reach.integrate(F, so3, np.eye(3), 1.0, dt=0.0)

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


class TestReachTube:
    def _nonexpansive_tube(self, so3, r0=0.1, horizon=1.0, dt=0.01):
        F = fields.so3_demo_schedule(so3)
        samples = contraction.generator_box_samples(so3, [-2.0] * 3, [2.0] * 3, 30)
        cert = contraction.certify_region(F, so3, samples, c=0.0)
        return F, reach.reach_tube(F, so3, np.eye(3), r0, cert, horizon, dt)

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


class TestMonteCarloContainment:
    def test_ball_samples_within_radius(self, so3):
        g0 = expm(0.3 * AY)
        samples = reach.sample_metric_ball(so3, g0, 0.2, 200, seed=5)
        dists = [reach.distance(so3, g0, s) for s in samples]
        assert max(dists) <= 0.2 + 1e-12
        assert max(dists) > 0.15  # ball is actually filled out

    def test_so3_nonexpansive_containment(self, so3):
        F, tube = TestReachTube()._nonexpansive_tube(so3, r0=0.1, horizon=1.0, dt=1e-3)
        rep = reach.monte_carlo_containment(tube, F, so3, n_samples=30)
        assert rep.passed
        assert rep.max_drift <= 1e-5  # bi-invariant flow is isometric

    def test_sphere_contracting_containment(self, sphere):
        F = fields.sphere_height_gradient(sphere)
        samples = contraction.sphere_cap_grid(sphere, np.radians(60.0), 10, 10)
        cert = contraction.certify_region(F, sphere, samples, c=-0.5)
        g0 = expm(0.3 * AX)  # inside the cap with room for the ball
        tube = reach.reach_tube(F, sphere, g0, 0.15, cert, 2.0, 1e-3)
        rep = reach.monte_carlo_containment(tube, F, sphere, n_samples=40)
        assert rep.passed, rep.max_margin

    def test_report_shapes(self, so3):
        F, tube = TestReachTube()._nonexpansive_tube(so3, horizon=0.2, dt=0.01)
        rep = reach.monte_carlo_containment(tube, F, so3, n_samples=7)
        assert rep.distances.shape == (len(tube.center.times), 7)
        assert rep.n_samples == 7


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
        assert reach.so3_angle(np.eye(3), R) == pytest.approx(1e-8, rel=1e-9)
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
        tube = reach.reach_tube(F, so3, np.eye(3), r0, cert, 1.0, 0.01)
        rep = reach.monte_carlo_containment(tube, F, so3, n_samples=20, seed=3)
        assert rep.passed
        assert rep.max_drift <= 1e-6 * r0
        rng = np.random.default_rng(3)  # the ball radii drawn by sample_metric_ball
        rng.standard_normal((20, 3))
        radii = r0 * rng.random(20) ** (1.0 / 3.0)
        assert np.max(np.abs(rep.distances[0] - radii)) <= 1e-9 * r0
