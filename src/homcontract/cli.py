"""Command-line front end.

Subcommands: ``classify`` (space flags and connection summary),
``certify`` (sampled contraction certificate), ``loop-check`` (periodic
loop obstruction), and ``reach`` (contraction tube with Monte Carlo
containment).  Outputs are JSON/CSV plus static SVG plots; runs are
deterministic under a fixed seed and every JSON carries its full
configuration for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import contraction, fields, reach, spaces, svgplot


# Built-in spaces by CLI spec: a bare name, or a name, a colon and the
# argument the constructor parses (shown here as a placeholder).
SPACES = {
    "sphere2": lambda arg: spaces.make_sphere2(),
    "so3": lambda arg: spaces.make_so3_biinvariant(),
    "circle": lambda arg: spaces.make_circle(),
    "euclidean:N": lambda arg: spaces.make_euclidean(_euclidean_dim(arg)),
    "so3-left:g1,g2,g3": lambda arg: spaces.make_so3_left_invariant(_gram_diagonal(arg)),
}
# keyed by a spec's text up to and including its first colon
_SPACE_BY_HEAD = {"".join(usage.partition(":")[:2]): make for usage, make in SPACES.items()}


def _gram_diagonal(arg: str) -> list[float]:
    """The three numbers g1,g2,g3 of ``so3-left:ARG``, counted before the Gram check."""
    try:
        gram = [float(x) for x in arg.split(",")]
    except ValueError:
        gram = None
    if gram is None or len(gram) != 3:
        raise ValueError(f"space 'so3-left:{arg}' needs 3 entries g1,g2,g3, "
                         "the numbers on its Gram matrix's diagonal")
    return gram


def _euclidean_dim(arg: str) -> int:
    """The dimension N of ``euclidean:ARG``: a whole number of at least 1."""
    if not arg.isdecimal() or int(arg) < 1:
        raise ValueError(f"space 'euclidean:{arg}' needs a whole number N >= 1, its dimension")
    return int(arg)


def _resolve_space(spec: str) -> spaces.Space:
    """The space named by ``spec``, verified once (``from_json`` verifies its own).

    A built-in name takes precedence over a descriptor file of that name.
    """
    head, sep, arg = spec.partition(":")
    make = _SPACE_BY_HEAD.get(head + sep)
    if make is None:
        if Path(spec).exists():
            return spaces.from_json(Path(spec).read_text())
        raise ValueError(f"unknown space {spec!r} (try {', '.join(SPACES)}, "
                         "or a descriptor JSON path)")
    space = make(arg)
    spaces.verify_space(space)
    return space


def _resolve_field(space: spaces.Space, spec: str) -> fields.HorizontalField:
    path = Path(spec)
    if path.suffix == ".csv" and path.exists():
        return fields.tabulated_field(space, path)
    return fields.builtin_field(space, spec)


def _write_result(args, name: str, result: dict) -> Path:
    """Write ``result`` with the run's configuration as the sorted-key JSON file
    ``name`` in the output directory, made if missing; return the directory.
    The configuration leaves out ``out``, so identical runs write identical bytes."""
    out = Path(args.out or os.environ.get("HOMCONTRACT_OUT", "out"))
    out.mkdir(parents=True, exist_ok=True)
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    payload = json.dumps({"config": config, **result}, sort_keys=True, indent=2)
    (out / name).write_text(payload + "\n")
    return out


def cmd_classify(args) -> int:
    space = _resolve_space(args.space)
    _write_result(args, "classify.json", {
        "space": space.name,
        "dim_m": space.dim_m,
        "classification": space.classification.to_dict(),
        "alpha_max_abs": float(np.abs(space.alpha).max(initial=0.0)),
        "alpha": space.alpha.tolist(),
    })
    cls = space.classification
    print(
        f"{space.name}: symmetric={cls.is_symmetric} "
        f"naturally_reductive={cls.is_naturally_reductive} "
        f"max_U={cls.max_u_norm:.3e} max_mm_leak={cls.max_mm_leak:.3e}"
    )
    return 0


def _certify(space, args):
    """Certify ``args.field`` on ``space`` over ``args.region`` at rate ``args.c``.

    The region, ``cap:DEG:NT:NP`` (sphere only, NT >= 2, NP >= 3, 0 < DEG <= 180) or
    ``box:LO:HI:N`` (LO < HI, a finite width apart) with finite numbers and counts of
    at least 1, is checked and sampled, with finite samples, before the field is
    resolved.  Returns the field, the certificate and the cap's (NT, NP) grid (None for a box).
    """
    region = args.region
    kind, *parts = region.split(":")
    if kind == "cap" and space.kind != "sphere":
        raise ValueError(f"region {region!r}: a cap needs a sphere space, not {space.name} "
                         "(use box:LO:HI:N)")
    count, number = _number(int, positive=True), _number(float)
    types = {"cap": (number, count, count), "box": (number, number, count)}.get(kind)
    try:
        a, b, n = [t(p) for t, p in zip(types, parts, strict=True)]
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"unknown region {region!r} (use cap:DEG:NT:NP or box:LO:HI:N)") from None
    grid = (b, n) if kind == "cap" else None
    if grid and not (b >= 2 and 0 < a <= 180):
        raise ValueError(f"region {region!r}: a cap needs NT >= 2 and 0 < DEG <= 180")
    if grid and n < 3:
        raise ValueError(f"region {region!r}: a cap needs NP >= 3 (NP <= 2 is one great circle)")
    if not grid and a >= b:
        raise ValueError(f"region {region!r}: a box needs LO < HI")
    if not grid and b - a == np.inf:
        raise ValueError(f"region {region!r}: a box needs a finite width HI - LO")
    m = space.dim_m
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        samples = (contraction.sphere_cap_grid(space, np.deg2rad(a), b, n) if grid else
                   contraction.generator_box_samples(space, [a] * m, [b] * m, n))
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"region {region!r}: its samples overflow {space.name}'s exponential")
    samples.flags.writeable = False  # certify_region keeps it rather than a copy
    F = _resolve_field(space, args.field)
    return F, contraction.certify_region(F, space, samples, args.c, region=region), grid


def cmd_certify(args) -> int:
    space = _resolve_space(args.space)
    _, cert, grid = _certify(space, args)
    out = _write_result(args, "certificate.json", cert.to_dict())
    if grid:
        svgplot.heatmap(
            out / "certify.svg",
            cert.measures.reshape(grid),
            title=f"matrix measure over {args.region}",
            xlabel="azimuth index",
            ylabel="polar index",
        )
    else:
        svgplot.line_plot(
            out / "certify.svg",
            np.arange(cert.samples_evaluated),
            [("mu", np.sort(cert.measures))],
            title="sorted sample measures",
            xlabel="sample rank",
            ylabel="mu",
        )
    print(
        f"{cert.verdict}: mu_max={cert.mu_max:.6g} over {cert.samples_evaluated} "
        f"samples at rate c={cert.rate_c:g} ({cert.label})"
    )
    return 0 if cert.passed else 2


def _m_coords(space, option: str, text: str) -> list[float]:
    """The comma-separated m-coordinates given to ``option``: dim_m finite numbers."""
    return fields._read_numbers(text, space.dim_m, f"{option} needs {space.dim_m} finite "
                                "coordinates, got", finite=True)


def cmd_loop_check(args) -> int:
    space = _resolve_space(args.space)
    F = _resolve_field(space, args.field)
    gen = _m_coords(space, "--generator", args.generator)
    base = space.identity()
    if args.base_coords:
        coords = _m_coords(space, "--base-coords", args.base_coords)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            base = space.algebra_exp(space.algebra_from_coords(coords))
        if not np.all(np.isfinite(base)):
            raise ValueError(f"--base-coords {args.base_coords!r}: its element overflows "
                             f"{space.name}'s exponential")
    report = contraction.loop_obstruction_check(F, space, gen, base, args.n_quad, args.c)
    out = _write_result(args, "loop_report.json", report.to_dict())
    svgplot.line_plot(
        out / "loop_f.svg",
        report.times,
        [("f(t)", report.values)],
        title=f"frame-aligned linearization around the loop (T={report.period:.4f})",
    )
    print(
        f"period={report.period:.6f} integral={report.integral:.3e} "
        f"max_f={report.max_value:.6g}"
        + (" INCONSISTENT" if report.inconsistent else "")
    )
    return 2 if report.inconsistent else 0


def cmd_reach(args) -> int:
    steps = reach._step_count(args.horizon, args.dt)
    if steps < 1 or abs(steps * args.dt - args.horizon) > 1e-9 * args.horizon:
        raise ValueError(f"--horizon {args.horizon:g} is not a multiple of --dt {args.dt:g}")
    space = _resolve_space(args.space)
    reach._require_distance(space)
    F, cert, _ = _certify(space, args)
    if not cert.passed:
        print(f"certificate FAIL (mu_max={cert.mu_max:.6g} > c={args.c:g})", file=sys.stderr)
        return 2
    tube = reach.reach_tube(F, space, space.identity(), args.r0, cert, args.horizon, args.dt,
                            n_samples=args.samples, seed=args.seed)
    out = _write_result(args, "reach.json", tube.to_dict())
    reach.trajectory_to_csv(space, tube.center, out / "center_trajectory.csv")
    t = tube.center.times
    lowest, highest = tube.envelope
    svgplot.line_plot(
        out / "reach.svg",
        t,
        [("radius", tube.radius(t)), ("largest sample distance", highest),
         ("smallest sample distance", lowest)],
        title="tube radius and the Monte Carlo sample distance envelope",
        xlabel="t",
        ylabel="distance",
    )
    print(
        f"containment {('PASS' if tube.passed else 'FAIL')}: "
        f"max_margin={tube.max_margin:.3e} max_drift={tube.max_drift:.3e} "
        f"({tube.n_samples} samples)"
    )
    return 0 if tube.passed else 2


def _number(kind, positive=False):
    """An argparse type: ``kind`` of the text, rejected if infinite or NaN,
    and with ``positive`` also unless > 0."""
    def parse(text):
        value = kind(text)
        if not -np.inf < value < np.inf:  # False for NaN; exact for ints of any size
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if positive and not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homcontract",
        description="contraction certificates and reachable tubes on homogeneous spaces",
    )
    real, positive = _number(float), _number(float, positive=True)
    count = _number(int, positive=True)
    p.add_argument("--out", default=None, help="output directory (or $HOMCONTRACT_OUT)")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="classify a space and print its connection flags")
    pc.add_argument("--space", required=True)
    pc.set_defaults(func=cmd_classify)

    pr = sub.add_parser("certify", help="sampled contraction certificate over a region")
    pr.add_argument("--space", required=True)
    pr.add_argument("--field", required=True)
    pr.add_argument("--region", required=True, help="cap:DEG:NT:NP or box:LO:HI:N")
    pr.add_argument("--c", type=real, required=True)
    pr.add_argument("--seed", type=int, default=0)
    pr.set_defaults(func=cmd_certify)

    pl = sub.add_parser("loop-check", help="loop obstruction along a periodic subgroup")
    pl.add_argument("--space", required=True)
    pl.add_argument("--field", required=True)
    pl.add_argument("--generator", required=True, help="m-coordinates, e.g. 1,0")
    pl.add_argument("--base-coords", default=None, help="base point as exp of m-coords")
    pl.add_argument("--n-quad", type=count, default=1024)
    pl.add_argument("--c", type=real, default=None)
    pl.set_defaults(func=cmd_loop_check)

    pv = sub.add_parser("reach", help="contraction tube with Monte Carlo containment")
    pv.add_argument("--space", required=True)
    pv.add_argument("--field", required=True)
    pv.add_argument("--region", default="box:-3.2:3.2:64")
    pv.add_argument("--c", type=real, default=0.0)
    pv.add_argument("--r0", type=positive, default=0.1)
    pv.add_argument("--horizon", type=positive, default=5.0)
    pv.add_argument("--dt", type=positive, default=1e-3)
    pv.add_argument("--samples", type=count, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_reach)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, NotImplementedError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the size and shape it could not allocate
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
