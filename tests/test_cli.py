import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import homcontract
from homcontract import cli, contraction, fields, reach, spaces, svgplot


def run(tmp_path, *argv):
    return cli.main(["--out", str(tmp_path), *argv])


class TestClassify:
    def test_sphere(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "--space", "sphere2") == 0
        out = capsys.readouterr().out
        assert "symmetric=True" in out
        payload = json.loads((tmp_path / "classify.json").read_text())
        assert payload["classification"]["symmetric"] is True
        assert payload["dim_m"] == 2

    def test_left_invariant_spec(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "--space", "so3-left:1,1,4") == 0
        assert "naturally_reductive=False" in capsys.readouterr().out

    def test_unknown_space_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "--space", "torus9") == 1

    def test_bracket_table_built_once(self, tmp_path, capsys, monkeypatch):
        from homcontract.liealg import ReductiveDecomposition
        table = ReductiveDecomposition.__dict__["bracket_m"]
        calls = []
        real = table.func

        def counted(dec):
            calls.append(1)
            return real(dec)

        monkeypatch.setattr(table, "func", counted)
        assert run(tmp_path, "classify", "--space", "sphere2") == 0
        assert len(calls) == 1


class TestCertify:
    def test_cap_pass(self, tmp_path, capsys):
        code = run(tmp_path, "certify", "--space", "sphere2",
                   "--field", "sphere-grad-height",
                   "--region", "cap:60:16:16", "--c", "-0.5")
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert payload["verdict"] == "PASS"
        assert -0.501 < payload["mu_max"] < -0.499
        assert (tmp_path / "certify.svg").read_text().startswith("<svg")

    def test_cap_fail_exit_2(self, tmp_path, capsys):
        code = run(tmp_path, "certify", "--space", "sphere2",
                   "--field", "sphere-grad-height",
                   "--region", "cap:60:8:8", "--c", "-0.7")
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_left_invariant_constant_field_fails(self, tmp_path, capsys):
        # the closed form |g2 - g3| / (2 sqrt(g1 g2 g3)) = 0.75 at (1, 1, 4)
        code = run(tmp_path, "certify", "--space", "so3-left:1,1,4", "--field", "constant:1,0,0",
                   "--region", "box:-1:1:64", "--c", "0")
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert payload["mu_max"] == pytest.approx(0.75, abs=1e-6)

    def test_box_region_on_so3(self, tmp_path, capsys):
        code = run(tmp_path, "certify", "--space", "so3",
                   "--field", "constant:0.3,-1,0.7",
                   "--region", "box:-2:2:32", "--c", "0")
        assert code == 0
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert abs(payload["mu_max"]) < 1e-7

    def test_deterministic_output(self, tmp_path, capsys):
        args = ("certify", "--space", "sphere2", "--field", "sphere-grad-height",
                "--region", "cap:40:6:6", "--c", "0")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(d1, *args) == 0 and run(d2, *args) == 0
        assert (d1 / "certificate.json").read_bytes() == (d2 / "certificate.json").read_bytes()
        assert (d1 / "certify.svg").read_bytes() == (d2 / "certify.svg").read_bytes()

    def test_bad_region_is_usage_error(self, tmp_path, capsys):
        code = run(tmp_path, "certify", "--space", "sphere2",
                   "--field", "sphere-grad-height",
                   "--region", "disk:1:2", "--c", "0")
        assert code == 1

    def test_unknown_field_is_usage_error(self, tmp_path, capsys):
        code = run(tmp_path, "certify", "--space", "sphere2",
                   "--field", "mystery", "--region", "cap:30:4:4", "--c", "0")
        assert code == 1


class TestCapOnlyOnTheSphere:
    """A cap is a sphere region: other kinds refuse it where the region enters."""

    @pytest.mark.parametrize("space,field", [("circle", "circle-sin"),
                                             ("so3", "constant:1,0,0"),
                                             ("euclidean:2", "constant:1,0")])
    @pytest.mark.parametrize("command", ["certify", "reach"])
    def test_cap_refused(self, tmp_path, capsys, command, space, field):
        code = run(tmp_path, command, "--space", space, "--field", field,
                   "--region", "cap:60:4:4", "--c", "0")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: region 'cap:60:4:4': a cap needs a sphere space, not {space} "
            "(use box:LO:HI:N)\n")
        assert not list(tmp_path.iterdir())


class TestCapBounds:
    """A cap grid needs two polar rings (one ring is the pole alone) and an
    angle in (0, 180] degrees; anything else is refused before the field."""

    @pytest.mark.parametrize("region", ["cap:60:1:64", "cap:0:8:8", "cap:-10:8:8",
                                        "cap:181:8:8"])
    @pytest.mark.parametrize("command", ["certify", "reach"])
    def test_refused_before_the_field(self, tmp_path, capsys, monkeypatch, command, region):
        def forbidden(*a, **k):
            raise AssertionError("work before the region check")

        monkeypatch.setattr(fields, "builtin_field", forbidden)
        monkeypatch.setattr(contraction, "certify_region", forbidden)
        code = run(tmp_path, command, "--space", "sphere2", "--field", "sphere-grad-height",
                   "--region", region, "--c", "-0.9")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: region {region!r}: a cap needs NT >= 2 and 0 < DEG <= 180\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("region", ["cap:60:16:1", "cap:60:16:2"])
    @pytest.mark.parametrize("command", ["certify", "reach"])
    def test_one_great_circle_refused(self, tmp_path, capsys, monkeypatch, command, region):
        # NP <= 2 puts every sample on one great circle through the pole: at
        # c = 0.5 the non-equivariant field passed there and fails on the cap
        monkeypatch.setattr(fields, "builtin_field", None)  # resolving the field would raise
        code = run(tmp_path, command, "--space", "sphere2", "--field", "sphere-noneq",
                   "--region", region, "--c", "0.5")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: region {region!r}: a cap needs NP >= 3 (NP <= 2 is one great circle)\n")
        assert not list(tmp_path.iterdir())

    def test_whole_sphere_accepted(self, tmp_path, capsys):
        code = run(tmp_path, "certify", "--space", "sphere2", "--field", "sphere-grad-height",
                   "--region", "cap:180:2:4", "--c", "10")
        assert code == 0
        assert json.loads((tmp_path / "certificate.json").read_text())["samples_evaluated"] == 8


class TestSharedCertifyStep:
    """``reach`` certifies its region exactly as ``certify`` does."""

    @pytest.mark.parametrize("space,field,region", [
        ("sphere2", "sphere-grad-height", "cap:60:8:8"),
        ("so3", "so3-demo-schedule", "box:-2:2:16"),
    ])
    def test_reach_embeds_the_certify_certificate(self, tmp_path, capsys, space, field, region):
        common = ("--space", space, "--field", field, "--region", region, "--c", "0")
        assert run(tmp_path / "certify", "certify", *common) == 0
        assert run(tmp_path / "reach", "reach", *common,
                   "--horizon", "0.1", "--dt", "0.01", "--samples", "5") == 0
        certificate = json.loads((tmp_path / "certify" / "certificate.json").read_text())
        del certificate["config"]
        payload = json.loads((tmp_path / "reach" / "reach.json").read_text())
        assert payload["certificate"] == certificate

    @pytest.mark.parametrize("command", ["certify", "reach"])
    def test_region_error_before_field_error(self, tmp_path, capsys, command):
        code = run(tmp_path, command, "--space", "so3", "--field", "mystery",
                   "--region", "disk:1:2", "--c", "0")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unknown region 'disk:1:2' (use cap:DEG:NT:NP or box:LO:HI:N)\n")
        assert not list(tmp_path.iterdir())


class TestLoopCheck:
    def test_circle_sine(self, tmp_path, capsys):
        code = run(tmp_path, "loop-check", "--space", "circle",
                   "--field", "circle-sin", "--generator", "1")
        assert code == 0
        payload = json.loads((tmp_path / "loop_report.json").read_text())
        assert abs(payload["integral"]) < 1e-6
        assert payload["max_f"] == pytest.approx(1.0, abs=1e-8)
        assert (tmp_path / "loop_f.svg").exists()

    def test_sphere_meridian_with_base(self, tmp_path, capsys):
        code = run(tmp_path, "loop-check", "--space", "sphere2",
                   "--field", "sphere-grad-height", "--generator", "1,0",
                   "--base-coords", "0,1.5707963267948966")
        assert code == 0
        out = capsys.readouterr().out
        assert "period=6.28" in out

    def test_aperiodic_generator_errors(self, tmp_path, capsys):
        code = run(tmp_path, "loop-check", "--space", "euclidean:2",
                   "--field", "constant:1,0", "--generator", "1,0")
        assert code == 1

    def test_period_beyond_twenty(self, tmp_path, capsys):
        # the z-axis has metric weight 16, so the unit generator turns at 1/4 rad/s
        code = run(tmp_path, "loop-check", "--space", "so3-left:1,1,16",
                   "--field", "constant:0,0,1", "--generator", "0,0,1")
        assert code == 0
        payload = json.loads((tmp_path / "loop_report.json").read_text())
        assert payload["period"] == pytest.approx(8.0 * np.pi, abs=1e-12)

    def test_rate_off_a_geodesic_orbit_is_refused(self, tmp_path, capsys):
        code = run(tmp_path, "loop-check", "--space", "so3-left:1,1,4", "--field",
                   "constant:1,0,0", "--generator", "1,1,1", "--c", "-0.4")
        assert code == 1
        assert "is not a geodesic" in capsys.readouterr().err
        assert not (tmp_path / "loop_report.json").exists()


class TestReach:
    def test_so3_demo_short(self, tmp_path, capsys):
        code = run(tmp_path, "reach", "--space", "so3",
                   "--field", "so3-demo-schedule",
                   "--region", "box:-2:2:16", "--c", "0",
                   "--r0", "0.1", "--horizon", "0.5", "--dt", "0.005",
                   "--samples", "10")
        assert code == 0
        payload = json.loads((tmp_path / "reach.json").read_text())
        assert payload["containment"]["verdict"] == "PASS"
        assert payload["tube"]["r0"] == 0.1
        assert (tmp_path / "center_trajectory.csv").exists()
        assert (tmp_path / "reach.svg").read_text().startswith("<svg")

    def test_figure_shows_the_verdict(self, tmp_path, capsys):
        # 101 points, fewer than 4 per pixel column: every point is drawn
        code = run(tmp_path, "reach", "--space", "so3", "--field", "so3-demo-schedule",
                   "--region", "box:-2:2:16", "--c", "0", "--r0", "0.1",
                   "--horizon", "0.5", "--dt", "0.005", "--samples", "10", "--seed", "3")
        assert code == 0
        svg = (tmp_path / "reach.svg").read_text()
        lines = re.findall(r'points="([^"]*)"', svg)
        labels = re.findall(r'font-size="11" fill="[^"]*">([^<]*)</text>', svg)
        assert len(lines) == 3
        assert labels == ["radius", "largest sample distance", "smallest sample distance"]

        so3 = spaces.make_so3_biinvariant()
        F = fields.so3_demo_schedule(so3)
        cert = contraction.certify_region(
            F, so3, contraction.generator_box_samples(so3, [-2] * 3, [2] * 3, 16), c=0.0)
        tube = reach.reach_tube(F, so3, np.eye(3), 0.1, cert, 0.5, 0.005, n_samples=10, seed=3)
        t = tube.center.times
        ys = [tube.radius(t), tube.distances.max(axis=1), tube.distances.min(axis=1)]
        lo, hi = min(y.min() for y in ys), max(y.max() for y in ys)
        for pts, y in zip(lines, ys):
            py = svgplot._scale(y, lo, hi, svgplot._H - svgplot._MB, svgplot._MT)
            assert [p.split(",")[1] for p in pts.split(" ")] == [f"{v:.2f}" for v in py]

    def test_reach_refuses_failed_certificate(self, tmp_path, capsys):
        code = run(tmp_path, "reach", "--space", "sphere2",
                   "--field", "sphere-grad-height",
                   "--region", "cap:60:6:6", "--c", "-0.9",
                   "--horizon", "0.2", "--dt", "0.01", "--samples", "5")
        assert code == 2
        assert "FAIL" in capsys.readouterr().err

    def test_one_scheme_and_no_method_option(self, tmp_path, capsys):
        argv = ["reach", "--space", "so3", "--field", "so3-demo-schedule", "--region",
                "box:-2:2:16", "--horizon", "0.05", "--dt", "0.01", "--samples", "3"]
        assert run(tmp_path, *argv, "--method", "rkmk4") == 1
        assert "unrecognized arguments: --method rkmk4" in capsys.readouterr().err
        assert run(tmp_path, *argv) == 0
        payload = json.loads((tmp_path / "reach.json").read_text())
        assert payload["tube"]["integrator"] == "rkmk4" and "method" not in payload["config"]


class TestStateIndependentPathExact:
    """The demo reach writes the same bytes through the state-independent path
    (one coefficient call per stage per block) as through the per-step stages."""

    def test_outputs_byte_identical(self, tmp_path, capsys, monkeypatch):
        argv = ("reach", "--space", "so3", "--field", "so3-demo-schedule",
                "--horizon", "0.2", "--dt", "1e-3", "--samples", "20")
        assert run(tmp_path / "declared", *argv) == 0
        resolve = cli._resolve_field

        def undeclared(space, spec):
            return dataclasses.replace(resolve(space, spec), state_independent=False)

        monkeypatch.setattr(cli, "_resolve_field", undeclared)
        assert run(tmp_path / "undeclared", *argv) == 0
        for name in ("reach.json", "center_trajectory.csv", "reach.svg"):
            declared = (tmp_path / "declared" / name).read_bytes()
            assert declared == (tmp_path / "undeclared" / name).read_bytes(), name


def _descriptor(tmp_path, space, **changes) -> str:
    """Path of a descriptor of ``space`` with some keys replaced or added."""
    data = json.loads(space.to_json())
    data.update(changes)
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestRejectedSpaces:
    def _assert_error(self, code, capsys, needle):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and needle in err

    def test_stored_alpha(self, tmp_path, capsys):
        so3 = spaces.make_so3_biinvariant()
        alpha = so3.alpha.copy()
        alpha[np.arange(3), np.arange(3), 0] -= 1.0  # would certify mu_max = -1
        code = run(tmp_path, "certify", "--space", _descriptor(tmp_path, so3, alpha=alpha.tolist()),
                   "--field", "constant:1,0,0", "--region", "box:-3:3:64", "--c", "-0.5")
        self._assert_error(code, capsys, "alpha")

    def test_scaled_sphere_basis(self, tmp_path, capsys):
        sphere = spaces.make_sphere2()
        m_basis = sphere.dec.m_basis.copy()
        m_basis[1] *= 0.5
        code = run(tmp_path, "classify", "--space",
                   _descriptor(tmp_path, sphere, m_basis=m_basis.tolist()))
        self._assert_error(code, capsys, "metric")

    def test_unknown_kind(self, tmp_path, capsys):
        path = _descriptor(tmp_path, spaces.make_so3_biinvariant(), kind="torus")
        code = run(tmp_path, "certify", "--space", path, "--field", "constant:1,0,0",
                   "--region", "box:-3:3:64", "--c", "-0.5")
        self._assert_error(code, capsys, "torus")

    def test_reach_without_shipped_distance(self, tmp_path, capsys):
        code = run(tmp_path, "reach", "--space", "so3-left:1,1,4",
                   "--field", "so3-demo-schedule", "--region", "box:-2:2:16", "--c", "0",
                   "--horizon", "0.1", "--dt", "0.01", "--samples", "5")
        self._assert_error(code, capsys, "no distance")

    def test_reach_without_distance_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the distance check")

        monkeypatch.setattr(contraction, "certify_region", forbidden)
        monkeypatch.setattr(reach, "integrate", forbidden)
        code = run(tmp_path, "reach", "--space", "so3-left:1,1,4",
                   "--field", "so3-demo-schedule", "--region", "box:-2:2:16", "--c", "0",
                   "--horizon", "0.1", "--dt", "0.01", "--samples", "5")
        self._assert_error(code, capsys, "no distance")

    def test_gram_scale_key(self, tmp_path, capsys):
        # the key was dropped: nothing read it, so any value loaded alike
        path = _descriptor(tmp_path, spaces.make_sphere2(), gram_scale=7.0)
        self._assert_error(run(tmp_path, "classify", "--space", path), capsys,
                           "keys must be exactly ['base_point', 'h_basis', 'kind', "
                           "'m_basis', 'name']")


class TestBadNumbers:
    REACH = ("reach", "--space", "so3", "--field", "so3-demo-schedule",
             "--region", "box:-2:2:16", "--horizon", "0.1", "--dt", "0.01", "--samples", "5")
    LOOP = ("loop-check", "--space", "circle", "--field", "circle-sin", "--generator", "1")
    CERTIFY = ("certify", "--space", "sphere2", "--field", "sphere-noneq", "--region", "cap:60:4:4")

    @pytest.mark.parametrize("argv,needle", [
        (REACH + ("--samples", "0"), "argument --samples: must be positive, got '0'"),
        (REACH + ("--horizon", "-1"), "argument --horizon: must be positive, got '-1'"),
        (REACH + ("--dt", "0"), "argument --dt: must be positive, got '0'"),
        (LOOP + ("--n-quad", "0"), "argument --n-quad: must be positive, got '0'"),
        (REACH + ("--samples", "five"), "argument --samples: invalid int value: 'five'"),
        (REACH + ("--r0", "nan"), "argument --r0: must be finite, got 'nan'"),
        (REACH + ("--horizon", "inf"), "argument --horizon: must be finite, got 'inf'"),
        (REACH + ("--c", "inf"), "argument --c: must be finite, got 'inf'"),
        (LOOP + ("--c", "nan"), "argument --c: must be finite, got 'nan'"),
        (CERTIFY + ("--c", "inf"), "argument --c: must be finite, got 'inf'"),
        (CERTIFY + ("--c", "0", "--fd-step", "0"), "argument --fd-step: must be positive, got '0'"),
    ])
    def test_rejected_by_the_parser(self, tmp_path, capsys, argv, needle):
        assert run(tmp_path, *argv) == 1
        assert needle in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("region", ["cap:60:8", "box:-1:1", "cap:60:8:8:8", "box:a:1:4",
                                        "box:-inf:1:4", "box:-1:inf:4", "cap:nan:8:8"])
    def test_unparsed_region(self, tmp_path, capsys, region):
        code = run(tmp_path, "certify", "--space", "sphere2", "--field", "sphere-grad-height",
                   "--region", region, "--c", "0")
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: unknown region {region!r} (use cap:DEG:NT:NP or box:LO:HI:N)\n"

    @pytest.mark.parametrize("region", ["cap:60:-2:8", "cap:60:0:8", "box:-1:1:0"])
    def test_region_count_below_one(self, tmp_path, capsys, region):
        code = run(tmp_path, "certify", "--space", "sphere2", "--field", "sphere-grad-height",
                   "--region", region, "--c", "0")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: unknown region {region!r} (use cap:DEG:NT:NP or box:LO:HI:N)\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("region", ["box:0:0:64", "box:1:-1:8"])
    def test_box_needs_lo_below_hi(self, tmp_path, capsys, monkeypatch, region):
        # box:0:0:64 is the identity sampled 64 times: it passed at c = -0.9,
        # where box:-0.5:0.5:64 fails
        monkeypatch.setattr(fields, "builtin_field", None)  # resolving the field would raise
        code = run(tmp_path, "certify", "--space", "sphere2", "--field", "sphere-grad-height",
                   "--region", region, "--c", "-0.9")
        assert code == 1
        assert capsys.readouterr().err == f"error: region {region!r}: a box needs LO < HI\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--r0"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_tube_scale_not_positive(self, tmp_path, capsys, option, value):
        assert run(tmp_path, *self.REACH, option, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: homcontract reach")
        assert f"argument {option}: must be positive, got '{value}'" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("horizon", ["0.001", "0.015"])
    def test_horizon_not_whole_steps(self, tmp_path, capsys, monkeypatch, horizon):
        def forbidden(*a, **k):
            raise AssertionError("work before the horizon check")

        monkeypatch.setattr(contraction, "certify_region", forbidden)
        monkeypatch.setattr(reach, "integrate", forbidden)
        assert run(tmp_path, *self.REACH, "--horizon", horizon) == 1
        assert capsys.readouterr().err == (
            f"error: --horizon {horizon} is not a multiple of --dt 0.01\n")
        assert not list(tmp_path.iterdir())

    def test_step_count_overflow(self, tmp_path, capsys, monkeypatch):
        # each operand is finite, but 1e300 / 1e-300 overflows to inf
        def forbidden(*a, **k):
            raise AssertionError("work before the step check")

        monkeypatch.setattr(fields, "builtin_field", forbidden)
        monkeypatch.setattr(reach, "integrate", forbidden)
        assert run(tmp_path, *self.REACH, "--horizon", "1e300", "--dt", "1e-300") == 1
        assert capsys.readouterr().err == (
            "error: horizon / step size must be finite, got 1e+300 / 1e-300\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 65.5 TiB for an array with shape (1000000000001, 3, 3) and "
         "data type float64", "error: out of memory: Unable to allocate 65.5 TiB for an array "
         "with shape (1000000000001, 3, 3) and data type float64\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy-message", "bare"])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, message, line):
        # stands in for the (T+1, d, d) buffers of a huge step count, which
        # this test must not allocate
        def exhausted(*a, **k):
            raise MemoryError(*([message] if message else []))

        monkeypatch.setattr(reach, "reach_tube", exhausted)
        assert run(tmp_path, *self.REACH) == 1
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("argv,needle", [
        (("--space", "so3", "--field", "constant:1,0,0", "--generator", "1,0"),
         "--generator needs 3 finite coordinates, got 2: '1,0'"),
        (("--space", "sphere2", "--field", "sphere-grad-height", "--generator", "1,0",
          "--base-coords", "1"), "--base-coords needs 2 finite coordinates, got 1: '1'"),
        (("--space", "sphere2", "--field", "sphere-grad-height", "--generator", "1,0",
          "--base-coords", "nan,0"), "--base-coords needs 2 finite coordinates, got 2: 'nan,0'"),
        (("--space", "circle", "--field", "circle-sin", "--generator", "inf"),
         "--generator needs 1 finite coordinates, got 1: 'inf'"),
    ])
    def test_loop_coordinates_rejected(self, tmp_path, capsys, argv, needle):
        assert run(tmp_path, "loop-check", *argv) == 1
        assert capsys.readouterr().err == f"error: {needle}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,needle", [
        (("classify", "--space", "so3-left:1,1,nan"),
         "Gram matrix entries must be finite, got [1.0, 1.0, nan]"),
        (("classify", "--space", "so3-left:1,1,inf"),
         "Gram matrix entries must be finite, got [1.0, 1.0, inf]"),
        (("certify", "--space", "euclidean:2", "--field", "euclidean-linear:1,0,0",
          "--region", "box:-1:1:4", "--c", "0"),
         "field euclidean-linear on euclidean:2 needs n^2 = 4 entries, found 3: '1,0,0'"),
    ], ids=["gram-nan", "gram-inf", "euclidean-linear-count"])
    def test_spec_refused_where_it_is_parsed(self, tmp_path, capsys, argv, needle):
        assert run(tmp_path, *argv) == 1
        assert capsys.readouterr().err == f"error: {needle}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("generator", ["1e300,0,0", "1e-200,0,0"])
    def test_loop_generator_magnitude_is_ignored(self, tmp_path, capsys, generator):
        def body(gen):
            out = tmp_path / gen
            argv = ("loop-check", "--space", "so3", "--field", "constant:0,0,1", "--generator", gen)
            assert run(out, *argv) == 0
            payload = json.loads((out / "loop_report.json").read_text())
            del payload["config"]
            return payload, capsys.readouterr()

        assert body(generator) == body("1,0,0")

    def test_key_error_message_unquoted(self, tmp_path, capsys):
        assert run(tmp_path, *self.LOOP[:3], "--field", "nofield", "--generator", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown field 'nofield' (built-ins: ")
        assert '"' not in err


# The kind of each built-in space spec with its dim m, and the kind each
# built-in field is written for (None: any kind).
SPACE_KINDS = {"sphere2": ("sphere", 2), "so3": ("so3", 3), "so3-left:1,1,4": ("so3", 3),
               "circle": ("circle", 1), "euclidean:2": ("euclidean", 2)}
FIELD_KINDS = {"sphere-grad-height": "sphere", "sphere-noneq": "sphere", "constant": None,
               "so3-demo-schedule": "so3", "euclidean-linear": "euclidean",
               "circle-sin": "circle"}


class TestSpecRefusals:
    @pytest.mark.parametrize("space", SPACE_KINDS)
    @pytest.mark.parametrize("field", FIELD_KINDS)
    def test_field_runs_only_on_its_kind(self, tmp_path, capsys, field, space):
        kind, m = SPACE_KINDS[space]
        arg = {"constant": ":" + ",".join(["0.5"] * m),
               "euclidean-linear": ":-1,0,0,-1"}.get(field, "")
        code = run(tmp_path, "certify", "--space", space, "--field", field + arg,
                   "--region", "box:-1:1:4", "--c", "100")
        err = capsys.readouterr().err
        if FIELD_KINDS[field] in (None, kind):
            assert (code, err) == (0, "")
        else:
            name = cli._resolve_space(space).name
            assert code == 1
            assert err == (f"error: field {field} is defined on {FIELD_KINDS[field]} spaces, "
                           f"not {name}\n")

    @pytest.mark.parametrize("entry,shown", [("-1", "-1.0"), ("1e300", "1e+300"),
                                             ("1e-300", "1e-300")])
    def test_gram_refused_by_its_eigenvalues(self, tmp_path, capsys, entry, shown):
        assert run(tmp_path, "classify", "--space", f"so3-left:1,1,{entry}") == 1
        assert capsys.readouterr().err == (
            "error: Gram matrix must be positive definite with smallest/largest eigenvalue "
            f"ratio >= 1e-10, got [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, {shown}]]\n")
        assert not list(tmp_path.iterdir())

    def test_constant_entries_refused_where_parsed(self, tmp_path, capsys):
        assert run(tmp_path, "certify", "--space", "so3", "--field", "constant:1,0,nan",
                   "--region", "box:-1:1:4", "--c", "0") == 1
        assert capsys.readouterr().err == (
            "error: constant field entries must be finite, got [1.0, 0.0, nan]\n")
        assert not list(tmp_path.iterdir())


class TestNameHints:
    def test_every_listed_space_resolves(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "--space", "torus9") == 1
        listed = capsys.readouterr().err.split("(try ")[1].split(", or a descriptor")[0]
        args = {"N": "3", "g1,g2,g3": "1,2,3"}  # an example for each placeholder
        names = listed.split(", ")
        assert names == list(cli.SPACES)
        for usage in names:
            name, sep, placeholder = usage.partition(":")
            assert run(tmp_path, "classify", "--space", name + sep + args.get(placeholder, "")) == 0

    def test_every_listed_field_resolves(self, tmp_path, capsys):
        with pytest.raises(KeyError) as exc:
            fields.builtin_field(spaces.make_so3_biinvariant(), "mystery")
        listed = str(exc.value).split("(built-ins: ")[1].rstrip(")\"'")
        examples = {  # a space and an argument for each listed name
            "sphere-grad-height": ("sphere2", ""), "sphere-noneq": ("sphere2", ""),
            "constant": ("so3", "1,0,0"), "so3-demo-schedule": ("so3", ""),
            "euclidean-linear": ("euclidean:2", "-1,0,0,-1"), "circle-sin": ("circle", ""),
        }
        names = listed.split(", ")
        assert names == list(fields.BUILTIN_FIELDS)
        for usage in names:
            name, sep, _ = usage.partition(":")
            space, arg = examples[name]
            code = run(tmp_path, "certify", "--space", space, "--field", name + sep + arg,
                       "--region", "box:-0.1:0.1:2", "--c", "100")
            assert code == 0, usage


class TestVerifiedOnce:
    @pytest.fixture
    def verified(self, monkeypatch):
        names = []
        real = spaces.verify_space

        def counted(space):
            names.append(space.name)
            return real(space)

        monkeypatch.setattr(spaces, "verify_space", counted)
        return names

    def test_descriptor_classify(self, tmp_path, verified):
        path = _descriptor(tmp_path, spaces.make_sphere2())
        assert run(tmp_path, "classify", "--space", path) == 0
        assert len(verified) == 1

    def test_builtin_certify(self, tmp_path, verified):
        code = run(tmp_path, "certify", "--space", "so3-left:1,1,4", "--field", "constant:1,0,0",
                   "--region", "box:-1:1:8", "--c", "10")
        assert code == 0
        assert len(verified) == 1


class TestTabulatedFieldCli:
    def test_certify_from_csv(self, tmp_path, capsys):
        M = np.array([[-1.0, 0.0], [0.0, -1.0]])
        xs = np.linspace(-1.5, 1.5, 31)
        rows = []
        for x in xs:
            for y in xs:
                g = np.eye(3)
                g[:2, 2] = [x, y]
                rows.append(list(g.ravel()) + list(M @ [x, y]))
        header = [f"g{i}{j}" for i in range(3) for j in range(3)] + ["x1", "x2"]
        table = tmp_path / "field.csv"
        np.savetxt(table, rows, delimiter=",", header=",".join(header), comments="")
        code = run(tmp_path, "certify", "--space", "euclidean:2",
                   "--field", str(table), "--region", "box:-1:1:16", "--c", "-0.9")
        assert code == 0
        payload = json.loads((tmp_path / "certificate.json").read_text())
        assert payload["mu_max"] == pytest.approx(-1.0, abs=1e-4)

    @pytest.mark.parametrize("case", ["empty", "header-only", "rows-lack-x2"])
    def test_malformed_table_is_usage_error(self, tmp_path, capsys, case):
        # u(x) = (-x1, x2) FAILs at c = 0.5; with x2 dropped from every row the
        # (rows, 1) values would broadcast into both coefficients and PASS
        xs = np.linspace(-1.2, 1.2, 41)
        rows = [f"1.0,0.0,{x!r},0.0,1.0,{y!r},0.0,0.0,1.0,{-x!r}" for x in xs for y in xs]
        text = {"empty": "", "header-only": "g00,g01,g02,g10,g11,g12,g20,g21,g22,x1,x2\n",
                "rows-lack-x2": "g00,g01,g02,g10,g11,g12,g20,g21,g22,x1,x2\n"
                                + "\n".join(rows) + "\n"}[case]
        table = tmp_path / "field.csv"
        table.write_text(text)
        code = run(tmp_path, "certify", "--space", "euclidean:2", "--field", str(table),
                   "--region", "box:-1:1:64", "--c", "0.5")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: table {table}, line ") and err.count("\n") == 1
        assert not (tmp_path / "certificate.json").exists()


class TestImports:
    def test_table_certify_and_reach_load_no_scipy(self, tmp_path):
        # the closed-form paths and the numpy table lookup need no scipy module
        xs = np.linspace(-1.5, 1.5, 7)
        rows = []
        for x in xs:
            for y in xs:
                g = np.eye(3)
                g[:2, 2] = [x, y]
                rows.append(list(g.ravel()) + [-x, -y])
        header = [f"g{i}{j}" for i in range(3) for j in range(3)] + ["x1", "x2"]
        table = tmp_path / "field.csv"
        np.savetxt(table, rows, delimiter=",", header=",".join(header), comments="")
        script = (
            "import sys\n"
            "from homcontract import cli\n"
            f"out = {str(tmp_path)!r}\n"
            "assert cli.main(['--out', out, 'certify', '--space', 'euclidean:2', '--field',"
            f" {str(table)!r}, '--region', 'box:-1:1:16', '--c', '-0.9']) == 0\n"
            "assert cli.main(['--out', out, 'reach', '--space', 'so3', '--field',"
            " 'so3-demo-schedule', '--region', 'box:-2:2:16', '--horizon', '0.05',"
            " '--dt', '0.005', '--samples', '5']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(homcontract.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"


class TestConfigEmbedding:
    def test_json_carries_run_config(self, tmp_path):
        run(tmp_path, "certify", "--space", "sphere2", "--field", "sphere-grad-height",
            "--region", "cap:30:4:4", "--c", "0", "--seed", "7")
        payload = json.loads((tmp_path / "certificate.json").read_text())
        cfg = payload["config"]
        assert cfg["space"] == "sphere2" and cfg["seed"] == 7
        assert cfg["region"] == "cap:30:4:4"


class TestExactConnection:
    """Bi-invariant so3's bracket table is exact, so U and a constant field's
    measure are exactly zero."""

    def test_constant_field_on_so3_measures_zero(self, tmp_path, capsys):
        assert run(tmp_path, "certify", "--space", "so3", "--field", "constant:1,0.5,0",
                   "--region", "box:-1:1:64", "--c", "0") == 0
        assert "PASS: mu_max=0 over 64 samples" in capsys.readouterr().out

    def test_so3_classify_prints_zero_U(self, tmp_path, capsys):
        assert run(tmp_path, "classify", "--space", "so3") == 0
        assert "max_U=0.000e+00" in capsys.readouterr().out


class TestGramScale:
    """A Gram matrix that the Gram check accepts builds, whatever its scale;
    the rank and span tests are relative to their input."""

    @pytest.mark.parametrize("spec,uniform", [("1e-11,1e-11,1e-11", True),
                                              ("1,1,1e-10", False),
                                              ("1e-8,1e-8,1e-8", True),
                                              ("1e8,1e8,1e8", True)])
    def test_accepted_gram_builds(self, tmp_path, capsys, spec, uniform):
        assert run(tmp_path, "classify", "--space", f"so3-left:{spec}") == 0
        flags = json.loads((tmp_path / "classify.json").read_text())["classification"]
        if uniform:
            # a scaled bi-invariant metric
            assert flags["naturally_reductive"] is True and flags["max_u_norm"] == 0.0

    def test_subnormal_eigenvalue_refused_by_the_gram_check(self, tmp_path, capsys):
        # the ratio 1e-9 passes, but an m-basis entry of 1/sqrt(1e-309) squares to inf
        assert run(tmp_path, "classify", "--space", "so3-left:1e-300,1e-300,1e-309") == 1
        assert capsys.readouterr().err.startswith("error: Gram matrix must be positive definite")
        assert not list(tmp_path.iterdir())


class TestLoopReportGeodesic:
    def test_off_geodesic_orbit_flagged_in_the_report(self, tmp_path, capsys):
        assert run(tmp_path, "loop-check", "--space", "so3-left:1,1,4", "--field",
                   "constant:1,0,0", "--generator", "1,1,1") == 0
        payload = json.loads((tmp_path / "loop_report.json").read_text())
        assert payload["verdict"] == "OK" and payload["geodesic"] is False
        assert payload["u_uu"] == pytest.approx([0.5, -0.5, 0.0], abs=1e-12)
