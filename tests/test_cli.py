import json
import os
import subprocess
import sys

import numpy as np
import pytest

import homcontract
from homcontract import cli


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

    def test_reach_refuses_failed_certificate(self, tmp_path, capsys):
        code = run(tmp_path, "reach", "--space", "sphere2",
                   "--field", "sphere-grad-height",
                   "--region", "cap:60:6:6", "--c", "-0.9",
                   "--horizon", "0.2", "--dt", "0.01", "--samples", "5")
        assert code == 2
        assert "FAIL" in capsys.readouterr().err


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
