"""The benchmark's workloads: CLI commands, generated inputs and references.

Each workload maps the benchmark seed and a work directory to a group of
``homcontract`` CLI invocations, each run in a fresh interpreter.  Inputs
come from the seed only, and every invocation's exit code and result JSON
are checked against a closed form, so a fast wrong answer counts as a
failure and not as a gain.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Tolerances on the closed-form references.  Central differences with the
# CLI's default step 1e-5 are accurate to about 1e-10 on these fields.
MU_TOL = 1e-6
LOOP_TOL = 1e-6
DRIFT_TOL = 1e-9


class Mismatch(Exception):
    """An invocation's exit code or output disagrees with its reference."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its argv (without ``--out``) and its output check.

    ``check(out_dir, exit_code)`` raises :class:`Mismatch` or returns the
    largest deviation of the checked outputs from their reference.
    """

    argv: list[str]
    check: Callable[[Path, int], float]


def _load(out: Path, name: str) -> dict:
    try:
        return json.loads((out / name).read_text())
    except (OSError, ValueError) as exc:
        raise Mismatch(f"unreadable {name}: {exc}") from exc


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _exit(code: int, want: int = 0) -> None:
    _expect(code == want, f"exit code {code}, expected {want}")


def _certify_check(mu_ref: float, samples: int):
    def check(out: Path, code: int) -> float:
        _exit(code)
        cert = _load(out, "certificate.json")
        _expect(cert["verdict"] == "PASS", f"verdict {cert['verdict']}")
        _expect(cert["samples_evaluated"] == samples,
                f"{cert['samples_evaluated']} samples, expected {samples}")
        err = abs(cert["mu_max"] - mu_ref)
        _expect(err <= MU_TOL, f"mu_max {cert['mu_max']!r}, reference {mu_ref!r}")
        return err
    return check


def cap_certify(seed: int, work: Path) -> list[Command]:
    # The cap grid is fixed by the region string; the seed is recorded only.
    # Gradient ascent of the height on the sphere has mu = -cos(polar angle),
    # so the 60 degree cap peaks at its rim: mu_max = -cos 60 = -0.5.
    argv = ["certify", "--space", "sphere2", "--field", "sphere-grad-height",
            "--region", "cap:60:64:64", "--c", "-0.5", "--seed", str(seed)]
    return [Command(argv, _certify_check(-0.5, 64 * 64))]


def attitude_reach(seed: int, work: Path) -> list[Command]:
    # The input does not depend on the state, so every state is right-
    # multiplied by the same flow and bi-invariant distances never change.
    def check(out: Path, code: int) -> float:
        _exit(code)
        rep = _load(out, "reach.json")
        _expect(rep["certificate"]["verdict"] == "PASS", "certificate not PASS")
        cont = rep["containment"]
        _expect(cont["verdict"] == "PASS", f"containment {cont['verdict']}")
        _expect(cont["n_samples"] == 100, f"{cont['n_samples']} samples, expected 100")
        _expect(cont["max_drift"] <= DRIFT_TOL, f"max_drift {cont['max_drift']!r}")
        with open(out / "center_trajectory.csv", "rb") as fh:
            rows = sum(1 for _ in fh)
        _expect(rows == 5002, f"{rows} trajectory rows, expected 5002")
        return cont["max_drift"]

    argv = ["reach", "--space", "so3", "--field", "so3-demo-schedule", "--r0", "0.1",
            "--horizon", "5", "--dt", "1e-3", "--samples", "100", "--seed", str(seed)]
    return [Command(argv, check)]


def _classify_check(symmetric: bool, naturally_reductive: bool):
    def check(out: Path, code: int) -> float:
        _exit(code)
        cls = _load(out, "classify.json")["classification"]
        _expect(cls["symmetric"] is symmetric, f"symmetric={cls['symmetric']}")
        _expect(cls["naturally_reductive"] is naturally_reductive,
                f"naturally_reductive={cls['naturally_reductive']}")
        # a symmetric space has no m-component in any bracket and no U term
        return max(cls["max_u_norm"], cls["max_mm_leak"]) if symmetric else 0.0
    return check


def _loop_check(out: Path, code: int) -> float:
    # the unit generator of a rotation returns after 2 pi, and f is the
    # derivative of a periodic coefficient, so its integral vanishes
    _exit(code)
    rep = _load(out, "loop_report.json")
    _expect(rep["verdict"] == "OK", f"verdict {rep['verdict']}")
    err = max(abs(rep["period"] - 2.0 * math.pi), abs(rep["integral"]))
    _expect(err <= LOOP_TOL, f"period {rep['period']!r}, integral {rep['integral']!r}")
    return err


def loop_classify(seed: int, work: Path) -> list[Command]:
    # The README commands take no seed and no generated input.
    return [
        Command(["classify", "--space", "sphere2"], _classify_check(True, True)),
        Command(["classify", "--space", "so3-left:1,1,4"], _classify_check(False, False)),
        Command(["loop-check", "--space", "circle", "--field", "circle-sin",
                 "--generator", "1"], _loop_check),
        Command(["loop-check", "--space", "sphere2", "--field", "sphere-grad-height",
                 "--generator", "1,0", "--base-coords", "0,1.5707963267948966"],
                _loop_check),
    ]


TABLE_N = 41       # grid points per axis
TABLE_HALF = 1.2   # the grid covers [-1.2, 1.2]^2, beyond the region [-1, 1]^2


def write_linear_table(path: Path, seed: int) -> int:
    """Write the field u(x) = -x on a jittered, shuffled 41 x 41 grid.

    Points move by up to a quarter spacing and rows are shuffled, both from
    the seed.  The local-linear correction is exact for a linear field
    wherever the points lie, so the reference stays mu_max = -1.  Returns
    the number of rows.
    """
    rng = random.Random(seed)
    step = 2.0 * TABLE_HALF / (TABLE_N - 1)
    rows = []
    for i in range(TABLE_N):
        for j in range(TABLE_N):
            x = -TABLE_HALF + i * step + rng.uniform(-0.25, 0.25) * step
            y = -TABLE_HALF + j * step + rng.uniform(-0.25, 0.25) * step
            g = [1.0, 0.0, x, 0.0, 1.0, y, 0.0, 0.0, 1.0]
            rows.append(",".join(repr(v) for v in g + [-x, -y]))
    rng.shuffle(rows)
    header = ",".join([f"g{a}{b}" for a in range(3) for b in range(3)] + ["x1", "x2"])
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return len(rows)


def table_certify(seed: int, work: Path) -> list[Command]:
    table = work / "table.csv"
    write_linear_table(table, seed)
    argv = ["certify", "--space", "euclidean:2", "--field", str(table),
            "--region", "box:-1:1:1024", "--c", "-0.9", "--seed", str(seed)]
    return [Command(argv, _certify_check(-1.0, 1024))]


def certify(seed: int, work: Path) -> list[Command]:
    """The sphere-cap and the table certify: the frame linearization."""
    return cap_certify(seed, work) + table_certify(seed, work)


def reach_loop(seed: int, work: Path) -> list[Command]:
    """The SO(3) reach demo and the README classify/loop-check commands."""
    return attitude_reach(seed, work) + loop_classify(seed, work)


# Each workload runs several of the commands above one after the other, so
# that one run of a few workloads covers every layer; why each workload was
# chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "certify": certify,
    "reach-loop": reach_loop,
}
