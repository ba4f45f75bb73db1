"""Self-tests of the benchmark: ``python3 -m pytest -q bench/test_bench.py``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calib
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class FakeClock:
    """Each call advances time by the next given step and returns it."""

    def __init__(self, steps):
        self.steps = iter(steps)
        self.now = 0.0

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_self_time_of_nested_calls():
    # outer starts at 1, inner spans [3, 7] and [8, 9] (inner2 nested in the
    # first at [4, 6]), outer ends at 10
    t = tracer.Tracer(clock=FakeClock([1, 2, 1, 2, 1, 1, 1, 1]))
    inner2 = t.wrap("m.inner2", lambda: None)

    def inner_body(nested):
        if nested:
            inner2()

    inner = t.wrap("m.inner", inner_body)

    def outer_body():
        inner(True)
        inner(False)

    t.wrap("m.outer", outer_body)()
    agg = tracer.aggregate(t)["by_name"]
    assert agg["m.outer"] == {"calls": 1, "incl_s": 9.0, "self_s": 9.0 - 4.0 - 1.0, "elems": 0}
    assert agg["m.inner"]["calls"] == 2
    assert agg["m.inner"]["incl_s"] == 5.0
    assert agg["m.inner"]["self_s"] == 5.0 - 2.0
    assert agg["m.inner2"]["self_s"] == 2.0
    assert sum(r["self_s"] for r in agg.values()) == tracer.aggregate(t)["root_s"] == 9.0


def test_wrapper_keeps_return_values_and_exceptions():
    t = tracer.Tracer()
    sentinel = object()

    class Boom(Exception):
        pass

    err = Boom("x")

    def raises(*args, **kwargs):
        raise err

    def returns(a, b=2):
        """doc"""
        return sentinel, a, b

    wrapped = t.wrap("m.returns", returns)
    assert wrapped(1, b=3) == (sentinel, 1, 3)
    assert wrapped(1)[0] is sentinel
    assert wrapped.__doc__ == "doc" and wrapped.__name__ == "returns"
    with pytest.raises(Boom) as info:
        t.wrap("m.raises", raises)()
    assert info.value is err
    assert not t._stack  # the span closed although the call raised
    assert len(t) == 3 and all(e >= s for s, e in zip(t.start, t.end))


def test_spans_survive_dump_and_load(tmp_path):
    t = tracer.Tracer()
    f = t.wrap("m.f", lambda n: n, count=lambda a, k, out: out)
    t.wrap("m.g", lambda: f(7) + f(5))()
    t.dump(tmp_path / "s")
    back = tracer.load(tmp_path / "s")
    assert back.names == t.names
    for key in ("name", "parent", "start", "end", "elems"):
        assert getattr(back, key) == getattr(t, key)
    assert tracer.aggregate(back)["by_name"]["m.f"]["elems"] == 12


def test_table_generator_is_deterministic_per_seed(tmp_path):
    paths = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        paths[name] = tmp_path / f"{name}.csv"
        assert workloads.write_linear_table(paths[name], seed) == 41 * 41
    assert paths["a"].read_bytes() == paths["b"].read_bytes()
    assert paths["a"].read_bytes() != paths["c"].read_bytes()
    lines = paths["a"].read_text().splitlines()
    assert lines[0] == "g00,g01,g02,g10,g11,g12,g20,g21,g22,x1,x2"
    for line in lines[1:]:
        v = [float(x) for x in line.split(",")]
        assert v[:2] + v[3:5] + v[6:9] == [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
        assert (v[9], v[10]) == (-v[2], -v[5])  # u(x) = -x


def test_reference_checks_reject_wrong_answers(tmp_path):
    check = workloads.cap_certify(0, tmp_path)[0].check
    cert = {"verdict": "PASS", "samples_evaluated": 4096, "mu_max": -0.5}
    (tmp_path / "certificate.json").write_text(json.dumps(cert))
    assert check(tmp_path, 0) == 0.0
    with pytest.raises(workloads.Mismatch):
        check(tmp_path, 2)
    for bad in ({"mu_max": -0.4}, {"samples_evaluated": 4095}, {"verdict": "FAIL"}):
        (tmp_path / "certificate.json").write_text(json.dumps({**cert, **bad}))
        with pytest.raises(workloads.Mismatch):
            check(tmp_path, 0)


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile([1.0] * 5) is None
    assert run.high_percentile(list(range(20))) == {"p": 50, "value": 9}
    assert run.high_percentile(list(range(100))) == {"p": 90, "value": 89}


def test_traced_child_covers_every_binding(tmp_path):
    """A traced CLI call: aliases are wrapped and self times add up."""
    out = tmp_path / "out"
    argv = ["loop-check", "--space", "circle", "--field", "circle-sin", "--generator", "1"]
    inv = run.invoke(argv, out, tmp_path / "spans")
    assert inv["exit_code"] == 0
    agg = tracer.aggregate(tracer.load(tmp_path / "spans"))
    by = agg["by_name"]
    assert by["cli.main"]["calls"] == 1
    # loop_obstruction_check reaches linearize through contraction's own
    # binding, find_period reaches expm through smallmat's module attribute
    assert by["fields.linearize"]["calls"] == 1025
    assert by["smallmat.expm"]["calls"] > 0
    assert by["fields.eval_coeff"]["elems"] == by["fields.eval_coeff"]["calls"]
    # against the time the child measured, not the spans' own total
    gap = inv["run_s"] - sum(r["self_s"] for r in by.values())
    assert 0 <= gap <= run.WRAPPER_TOL_S


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = run.read_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    empty = run.merge([])
    layers = run.layer_metrics(spec["per_layer"], empty, {"out_bytes": 0, "run_s": 0.0}, 0.0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    plain = run.summary([{"run_s": 1.0, "setup_s": 1.0, "rss_mb": 1.0, "scale": 1.0}])
    assert all(m["name"] in plain for m in spec["end_to_end"])


def test_summary_scales_times_to_the_reference_speed():
    # a group measured while the host ran the kernel at half the reference
    # speed counts half its wall time; memory is not scaled
    groups = [{"run_s": 4.0, "setup_s": 2.0, "rss_mb": 100.0, "scale": 0.5},
              {"run_s": 2.0, "setup_s": 1.0, "rss_mb": 100.0, "scale": 1.0},
              {"run_s": 2.2, "setup_s": 1.0, "rss_mb": 100.0, "scale": 1.0}]
    s = run.summary(groups)
    assert s["run_s_all"] == [2.0, 2.0, 2.2] and s["run_s"] == 2.0
    assert s["setup_s"] == 1.0 and s["peak_rss_mb"] == 100.0
    assert s["wall_run_s"] == 2.2 and s["kernel_s"] == calib.KERNEL_REF_S
