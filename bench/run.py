"""Benchmark of the homcontract CLI: end-to-end times, and per-layer times from a trace.

One run::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs the workload's group of CLI invocations (``workloads.py``) again and
again for S seconds (at least ``MIN_GROUPS`` times), one invocation at a
time, each in a fresh interpreter (``child.py``) with BLAS/OpenMP threads
pinned to 1.  There is no warm-up: users pay interpreter start and imports
on every call, and the median absorbs the first call's bytecode compile.
Right before each invocation the host's speed is measured with a fixed
kernel (``calib.py``), and each group's times are scaled by
``KERNEL_REF_S`` over the mean kernel time of its invocations: seconds at
the reference host speed, so that the host's slow phases largely cancel.
Every invocation's exit code and output are checked against a closed-form
reference.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (samples, references, environment).

* ``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json:
  ``run_s`` (median over groups of the scaled wall time of
  ``cli.main(argv)`` in the child, summed over the group's invocations),
  ``setup_s`` (the same of child wall time minus that: interpreter start,
  imports, teardown) and ``peak_rss_mb`` (median over groups of the largest
  child peak RSS).  The unscaled medians are on the detail line.
* ``--trace 1`` alternates an untraced group and a traced group
  (``tracer.py``), checks that both write byte-identical result files,
  and reports the ``per_layer`` metrics of BENCHMARK.json from the traced
  group whose run time is the median.  That group's self times must add
  up to the ``run_s`` its children measured around the traced ``cli.main``.

Two more modes run every workload and print readable summaries::

    python3 bench/run.py --report [--seconds S] [--seed N] [--save FILE]
    python3 bench/run.py --steadiness [--seconds S] [--workload NAME ...]

``--report`` runs every workload untraced and traced and prints every
metric by name with its unit.  ``--steadiness`` makes two sets of
``STEADINESS_RUNS`` runs per workload, each run a fresh ``run.py`` process
with its own seed, and checks each end-to-end metric's quartile spread
over both sets, and whether the two sets' medians agree, against the
metric's bound; one traced run per set (same seed) checks that every count
repeats exactly.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import calib
import tracer
from workloads import WORKLOADS, Command, Mismatch

median = statistics.median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
THREAD_VARS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
MIN_GROUPS = 3          # measured groups per run, whatever --seconds says,
MIN_TRACE_CYCLES = 2    # and untraced + traced pairs per traced run,
NO_GROUP_AFTER_S = 90   # but no group starts this late into a run
INVOKE_TIMEOUT_S = 60   # a child running longer is killed and counted as failed
STEADINESS_RUNS = 5     # runs per set in --steadiness
# The summed self times of a traced invocation must match the run_s the child
# measured around the traced cli.main; the gap is the root wrapper's entry and
# exit (10-20 us measured), with room for one descheduling on a shared host.
WRAPPER_TOL_S = 1e-3    # per invocation
# per-layer statistics that are counts, or ratios of counts: they must repeat exactly
COUNT_STATS = ("calls", "steps", "points", "bytes", "elems_per_call",
               "coeff_evals_per_linearize", "out_bytes")

# Per-layer metric prefixes that sum several traced functions.
LAYER_SPANS = {
    "contraction.sample_region": ("contraction.sphere_cap_grid",
                                  "contraction.generator_box_samples"),
    "svgplot.write": ("svgplot.line_plot", "svgplot.heatmap"),
}


def high_percentile(xs):
    """Highest of p50..p99 with at least 10 samples above it, else None."""
    xs = sorted(xs)
    for p in (99, 95, 90, 75, 50):
        q = xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]
        if sum(x > q for x in xs) >= 10:
            return {"p": p, "value": q}
    return None


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "threads": THREAD_VARS,
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def read_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Invocations


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(argv: list[str], out: Path, spans: Path | None) -> dict:
    """Run one CLI invocation in a fresh interpreter and time it.

    Raises :class:`Mismatch` if the child does not finish cleanly.
    """
    result = out.with_name(out.name + ".result.json")
    log = out.with_name(out.name + ".log")
    cmd = [sys.executable, str(CHILD), str(result), str(spans) if spans else "-",
           "--", "--out", str(out), *argv]
    env = {**os.environ, **THREAD_VARS}
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(INVOKE_TIMEOUT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text(errors="replace")[-2000:]
        raise Mismatch(f"child exited with {proc.returncode}: {' '.join(argv)}\n{tail}")
    res = json.loads(result.read_text())
    return {"wall_s": wall, "run_s": res["run_s"], "setup_s": wall - res["run_s"],
            "rss_mb": usage.ru_maxrss / 1024.0, "exit_code": res["exit_code"]}


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, commands: list[Command], work: Path):
        self.commands = commands
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ref_err = 0.0
        self._n = 0

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(msg)

    def group(self, traced: bool = False) -> dict | None:
        """Run the workload's invocations once; None if any failed."""
        self._n += 1
        tag = f"{'t' if traced else 'u'}{self._n}"
        outs, spans, invs, kernels, ok = [], [], [], [], True
        for i, cmd in enumerate(self.commands):
            out = self.work / f"{tag}-{i}"
            span = self.work / f"{tag}-{i}.spans" if traced else None
            kernels.append(calib.kernel_s())
            self.attempted += 1
            try:
                inv = invoke(cmd.argv, out, span)
                self.ref_err = max(self.ref_err, cmd.check(out, inv["exit_code"]))
            except Mismatch as exc:
                self.fail(f"{' '.join(cmd.argv)}: {exc}")
                ok = False
                continue
            outs.append(out)
            spans.append(span)
            invs.append(inv)
        if not ok:
            return None
        return {"run_s": sum(v["run_s"] for v in invs),
                "setup_s": sum(v["setup_s"] for v in invs),
                "rss_mb": max(v["rss_mb"] for v in invs),
                "scale": calib.KERNEL_REF_S / statistics.fmean(kernels),
                "outs": outs, "spans": spans}

    def discard(self, group: dict | None) -> None:
        if group is None:
            return
        for out in group["outs"]:
            shutil.rmtree(out, ignore_errors=True)


def out_bytes(group: dict) -> int:
    return sum(f.stat().st_size for out in group["outs"] for f in out.iterdir())


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def summary(groups: list[dict]) -> dict:
    """Medians over groups; ``run_s`` and ``setup_s`` scaled to the reference speed."""
    runs = [g["run_s"] * g["scale"] for g in groups]
    setups = [g["setup_s"] * g["scale"] for g in groups]
    return {"samples": len(groups), "run_s": median(runs), "run_s_high": high_percentile(runs),
            "setup_s": median(setups), "peak_rss_mb": median([g["rss_mb"] for g in groups]),
            "wall_run_s": median([g["run_s"] for g in groups]),
            "wall_setup_s": median([g["setup_s"] for g in groups]),
            "kernel_s": median([calib.KERNEL_REF_S / g["scale"] for g in groups]),
            "run_s_all": runs, "setup_s_all": setups}


# ---------------------------------------------------------------------------
# Per-layer metrics


def merge(aggs: list[dict]) -> dict:
    """Sum per-name span aggregates of several invocations."""
    by: dict[str, dict] = {}
    for a in aggs:
        for name, rec in a["by_name"].items():
            tot = by.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "elems": 0})
            for k in tot:
                tot[k] += rec[k]
    return {"by_name": by, "root_s": sum(a["root_s"] for a in aggs),
            "coeff_evals_in_linearize": sum(a["coeff_evals_in_linearize"] for a in aggs)}


def layer_value(name: str, agg: dict, extra: dict) -> float:
    """Value of one per-layer metric from merged span aggregates."""
    if name in extra:
        return extra[name]
    prefix, stat = name.rsplit(".", 1)
    recs = [agg["by_name"].get(s, {}) for s in LAYER_SPANS.get(prefix, (prefix,))]
    calls = sum(r.get("calls", 0) for r in recs)
    incl = sum(r.get("incl_s", 0.0) for r in recs)
    elems = sum(r.get("elems", 0) for r in recs)
    if stat == "calls":
        return calls
    if stat == "self_s":
        return sum(r.get("self_s", 0.0) for r in recs)
    if stat in ("steps", "points", "bytes"):
        return elems
    if stat == "us_per_call":
        return 1e6 * incl / calls if calls else 0.0
    if stat == "us_per_step":
        return 1e6 * incl / elems if elems else 0.0
    if stat == "elems_per_call":
        return elems / calls if calls else 0.0
    raise KeyError(f"no rule for per-layer metric {name!r}")


def layer_metrics(spec_layers: list[dict], agg: dict, group: dict, overhead: float) -> dict:
    covered = set()
    for m in spec_layers:
        prefix, stat = m["name"].rsplit(".", 1)
        if stat == "self_s":
            covered.update(LAYER_SPANS.get(prefix, (prefix,)))
    other = sum(r["self_s"] for n, r in agg["by_name"].items() if n not in covered)
    lin_calls = agg["by_name"].get("fields.linearize", {}).get("calls", 0)
    extra = {
        "fields.coeff_evals_per_linearize":
            agg["coeff_evals_in_linearize"] / lin_calls if lin_calls else 0.0,
        "cli.out_bytes": group["out_bytes"],
        "trace.overhead_share": overhead,
        "trace.run_s": group["run_s"],
        "trace.other_self_s": other,
    }
    return {m["name"]: layer_value(m["name"], agg, extra) for m in spec_layers}


# ---------------------------------------------------------------------------
# One run


def check_checkout() -> None:
    if not (ROOT / "src" / "homcontract" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'homcontract'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result line and the details."""
    spec = read_spec()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[name](seed, work), work)
        t0 = time.perf_counter()
        untraced, traced, n, last = [], [], 0, 0.0
        # start another group only if one as long as the last still fits
        while (time.perf_counter() - t0 + last <= seconds
               or (n < (MIN_TRACE_CYCLES if trace else MIN_GROUPS)
                   and time.perf_counter() - t0 < NO_GROUP_AFTER_S)):
            n += 1
            t_group = time.perf_counter()
            g = run.group()
            if g is not None:
                untraced.append(g)
            if not trace:
                run.discard(g)
                last = time.perf_counter() - t_group
                continue
            t = run.group(traced=True)
            if t is not None and g is not None:
                for a, b in zip(g["outs"], t["outs"]):
                    if not same_outputs(a, b):
                        run.fail(f"traced output differs from untraced: {b.name}")
                t["agg"] = merge([tracer.aggregate(tracer.load(p)) for p in t["spans"]])
                t["out_bytes"] = out_bytes(t)
                for p in t["spans"]:
                    p.unlink()
                traced.append(t)
            run.discard(g)
            run.discard(t)
            last = time.perf_counter() - t_group
        if not untraced or (trace and not traced):
            raise RuntimeError(f"no invocation succeeded: {run.errors}")
        detail = {"workload": name, "mode": "traced" if trace else "untraced",
                  "seconds": seconds, **summary(untraced)}
        if trace:
            metrics, units = traced_metrics(spec, run, untraced, traced, detail)
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {k: detail[k] for k in units}
        detail.update(ref_err=run.ref_err, failed_share=run.failed / run.attempted,
                      errors=run.errors, environment=environment(seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return {"detail": detail, "result": result}


def traced_metrics(spec, run: Run, untraced, traced, detail):
    traced.sort(key=lambda t: t["run_s"])
    pick = traced[(len(traced) - 1) // 2]
    overhead = (median([t["run_s"] * t["scale"] for t in traced])
                / median([g["run_s"] * g["scale"] for g in untraced]) - 1)
    metrics = layer_metrics(spec["per_layer"], pick["agg"], pick, overhead)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    self_sum = sum(r["self_s"] for r in pick["agg"]["by_name"].values())
    if abs(pick["run_s"] - self_sum) > WRAPPER_TOL_S * len(pick["outs"]):
        run.fail(f"self times add up to {self_sum!r}, traced run_s is {pick['run_s']!r}")
    counts = {json.dumps({n: (r["calls"], r["elems"]) for n, r in t["agg"]["by_name"].items()},
                         sort_keys=True) for t in traced}
    if len(counts) != 1:
        run.fail("span counts differ between traced invocations of the same inputs")
    detail["traced_run_s_all"] = [t["run_s"] for t in traced]
    detail["traced_incl_s"] = {n: r["incl_s"] for n, r in sorted(pick["agg"]["by_name"].items())
                               if r["calls"]}
    return metrics, units


# ---------------------------------------------------------------------------
# Modes for people


def run_subprocess(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh run.py process, exactly as from the command line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def steadiness(names: list[str], seconds: float, first_seed: int) -> bool:
    spec = read_spec()
    ok = True
    for name in names:
        sets = []
        for k in range(2):
            seeds = [first_seed + k * STEADINESS_RUNS + i for i in range(STEADINESS_RUNS)]
            res = [run_subprocess(name, s, seconds, False)["result"] for s in seeds]
            lay = run_subprocess(name, first_seed, seconds, True)["result"]
            sets.append((res, lay))
            print(f"{name} set {k + 1}: seeds {seeds[0]}..{seeds[-1]}, "
                  f"correct={all(r['correct'] for r in res + [lay])}", flush=True)
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in s[0]] for s in sets]
            m1, m2 = median(vals[0]), median(vals[1])
            agree = abs(m2 - m1) / m1 <= m["bound"]
            sp = spread(vals[0] + vals[1])
            steady = sp <= m["bound"]
            ok &= agree and steady
            print(f"  {m['name']:12s} medians {m1:.4g} / {m2:.4g} {m['unit']}: "
                  f"{'agree' if agree else 'DIFFER'} within {m['bound']}; quartile spread "
                  f"{sp:.3f} of median over {len(vals[0]) * 2} runs"
                  f"{'' if steady else ' WIDER THAN BOUND'}", flush=True)
        stats = [{k: v["value"] for k, v in s[1]["metrics"].items()
                  if k.rsplit(".", 1)[-1] in COUNT_STATS} for s in sets]
        same = stats[0] == stats[1]
        ok &= same and all(r["correct"] for s in sets for r in s[0] + [s[1]])
        print(f"  counts ({len(stats[0])}) {'repeat exactly' if same else 'DIFFER'}", flush=True)
    return ok


def report(seconds: float, seed: int, save: str | None) -> bool:
    spec = read_spec()
    out = {"environment": environment(seed), "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        plain = run_subprocess(name, seed, seconds, False)
        traced = run_subprocess(name, seed, seconds, True)
        d = plain["detail"]
        ok &= plain["result"]["correct"] and traced["result"]["correct"]
        print(f"\n{name}  (seed {seed}, {d['samples']} groups, "
              f"{plain['result']['attempted']} invocations, correct="
              f"{plain['result']['correct'] and traced['result']['correct']})")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:34s} {d[m['name']]:12.6g} {m['unit']}")
        high = d["run_s_high"]
        print(f"  {'run_s high percentile':34s} "
              f"{'none: fewer than 10 samples beyond p50' if high is None else high}")
        for k in ("wall_run_s", "wall_setup_s", "kernel_s"):
            print(f"  {k + ' (unscaled)':34s} {d[k]:12.6g} s")
        print(f"  {'ref_err':34s} {d['ref_err']:12.6g} abs")
        print(f"  {'failed_share':34s} {d['failed_share']:12.6g} ratio")
        for k, v in traced["result"]["metrics"].items():
            print(f"  {k:34s} {v['value']:12.6g} {v['unit']}")
        out["workloads"][name] = {"untraced": plain, "traced": traced}
    if save:
        Path(save).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--save", default=None, help="write the --report results as JSON")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    check_checkout()
    seconds = args.seconds if args.seconds is not None else read_spec()["run_seconds"]
    if args.report:
        return 0 if report(seconds, args.seed, args.save) else 3
    if args.steadiness:
        names = args.workload or list(WORKLOADS)
        return 0 if steadiness(names, seconds, args.seed) else 3
    if not args.workload or len(args.workload) != 1:
        p.error("give exactly one --workload")
    out = run_workload(args.workload[0], args.seed, seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
