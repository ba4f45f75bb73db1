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


def _resolve_space(spec: str) -> spaces.Space:
    if spec == "sphere2":
        return spaces.make_sphere2()
    if spec == "so3":
        return spaces.make_so3_biinvariant()
    if spec == "circle":
        return spaces.make_circle()
    if spec.startswith("euclidean:"):
        return spaces.make_euclidean(int(spec.split(":", 1)[1]))
    if spec.startswith("so3-left:"):
        vals = [float(x) for x in spec.split(":", 1)[1].split(",")]
        return spaces.make_so3_left_invariant(vals)
    path = Path(spec)
    if path.exists():
        return spaces.from_json(path.read_text())
    raise ValueError(
        f"unknown space {spec!r} (try sphere2, so3, circle, euclidean:N, "
        "so3-left:g1,g2,g3, or a descriptor JSON path)"
    )


def _resolve_field(space: spaces.Space, spec: str) -> fields.HorizontalField:
    path = Path(spec)
    if path.suffix == ".csv" and path.exists():
        return fields.tabulated_field(space, path)
    return fields.builtin_field(space, spec)


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("HOMCONTRACT_OUT", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _run_config(args) -> dict:
    # the output directory is excluded so identical runs are byte-identical
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")}


def cmd_classify(args) -> int:
    space = _resolve_space(args.space)
    spaces.verify_space(space)
    out = _out_dir(args)
    payload = {
        "config": _run_config(args),
        "space": space.name,
        "dim_m": space.dim_m,
        "classification": space.classification.to_dict(),
        "alpha_max_abs": float(np.max(np.abs(space.alpha))) if space.alpha.size else 0.0,
        "alpha": space.alpha.tolist(),
    }
    _write_json(out / "classify.json", payload)
    cls = space.classification
    print(
        f"{space.name}: symmetric={cls.is_symmetric} "
        f"naturally_reductive={cls.is_naturally_reductive} "
        f"max_U={cls.max_u_norm:.3e} max_mm_leak={cls.max_mm_leak:.3e}"
    )
    return 0


def _region_samples(space, region: str, seed: int):
    kind, _, rest = region.partition(":")
    if kind == "cap":
        ang_deg, n_theta, n_phi = rest.split(":")
        return contraction.sphere_cap_grid(
            space, np.deg2rad(float(ang_deg)), int(n_theta), int(n_phi)
        )
    if kind == "box":
        lo, hi, count = rest.split(":")
        m = space.dim_m
        return contraction.generator_box_samples(
            space, [float(lo)] * m, [float(hi)] * m, int(count), seed=seed
        )
    raise ValueError(f"unknown region {region!r} (use cap:DEG:NT:NP or box:LO:HI:N)")


def cmd_certify(args) -> int:
    space = _resolve_space(args.space)
    F = _resolve_field(space, args.field)
    samples = _region_samples(space, args.region, args.seed)
    mus: list[float] = []
    cert = contraction.certify_region(
        F, space, samples, args.c, region=args.region, step=args.fd_step, collect=mus
    )
    out = _out_dir(args)
    payload = {"config": _run_config(args), **cert.to_dict()}
    _write_json(out / "certificate.json", payload)
    mus_arr = np.asarray(mus)
    if args.region.startswith("cap:"):
        _, _, nt, npnt = args.region.split(":")
        svgplot.heatmap(
            out / "certify.svg",
            mus_arr.reshape(int(nt), int(npnt)),
            title=f"matrix measure over {args.region}",
            xlabel="azimuth index",
            ylabel="polar index",
        )
    else:
        svgplot.line_plot(
            out / "certify.svg",
            np.arange(len(mus_arr)),
            [("mu", np.sort(mus_arr))],
            title="sorted sample measures",
            xlabel="sample rank",
            ylabel="mu",
        )
    print(
        f"{cert.verdict}: mu_max={cert.mu_max:.6g} over {cert.samples_evaluated} "
        f"samples at rate c={cert.rate_c:g} ({cert.label})"
    )
    return 0 if cert.passed else 2


def cmd_loop_check(args) -> int:
    space = _resolve_space(args.space)
    F = _resolve_field(space, args.field)
    gen = [float(x) for x in args.generator.split(",")]
    base = space.identity()
    if args.base_coords:
        coords = [float(x) for x in args.base_coords.split(",")]
        base = space.algebra_exp(space.algebra_from_coords(coords))
    report = contraction.loop_obstruction_check(
        F, space, gen, base=base, n_quad=args.n_quad, c=args.c
    )
    out = _out_dir(args)
    payload = {"config": _run_config(args), **report.to_dict()}
    _write_json(out / "loop_report.json", payload)
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
    space = _resolve_space(args.space)
    F = _resolve_field(space, args.field)
    samples = _region_samples(space, args.region, args.seed)
    cert = contraction.certify_region(F, space, samples, args.c, region=args.region)
    if not cert.passed:
        print(f"certificate FAIL (mu_max={cert.mu_max:.6g} > c={args.c:g})", file=sys.stderr)
        return 2
    tube = reach.reach_tube(
        F, space, space.identity(), args.r0, cert, args.horizon, args.dt,
        K=args.K, method=args.method,
    )
    report = reach.monte_carlo_containment(
        tube, F, space, n_samples=args.samples, seed=args.seed
    )
    out = _out_dir(args)
    payload = {
        "config": _run_config(args),
        "tube": tube.to_dict(),
        "certificate": cert.to_dict(),
        "containment": report.to_dict(),
    }
    _write_json(out / "reach.json", payload)
    reach.trajectory_to_csv(space, tube.center, out / "center_trajectory.csv")
    radii = tube.radius(tube.center.times)
    svgplot.line_plot(
        out / "reach.svg",
        tube.center.times,
        [("radius", radii), ("sample distances", report.distances)],
        title="tube radius and Monte Carlo sample distances",
        xlabel="t",
        ylabel="distance",
    )
    print(
        f"containment {('PASS' if report.passed else 'FAIL')}: "
        f"max_margin={report.max_margin:.3e} max_drift={report.max_drift:.3e} "
        f"({report.n_samples} samples)"
    )
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homcontract",
        description="contraction certificates and reachable tubes on homogeneous spaces",
    )
    p.add_argument("--out", default=None, help="output directory (or $HOMCONTRACT_OUT)")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", help="classify a space and print its connection flags")
    pc.add_argument("--space", required=True)
    pc.set_defaults(func=cmd_classify)

    pr = sub.add_parser("certify", help="sampled contraction certificate over a region")
    pr.add_argument("--space", required=True)
    pr.add_argument("--field", required=True)
    pr.add_argument("--region", required=True, help="cap:DEG:NT:NP or box:LO:HI:N")
    pr.add_argument("--c", type=float, required=True)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--fd-step", type=float, default=1e-5)
    pr.set_defaults(func=cmd_certify)

    pl = sub.add_parser("loop-check", help="loop obstruction along a periodic subgroup")
    pl.add_argument("--space", required=True)
    pl.add_argument("--field", required=True)
    pl.add_argument("--generator", required=True, help="m-coordinates, e.g. 1,0")
    pl.add_argument("--base-coords", default=None, help="base point as exp of m-coords")
    pl.add_argument("--n-quad", type=int, default=1024)
    pl.add_argument("--c", type=float, default=None)
    pl.set_defaults(func=cmd_loop_check)

    pv = sub.add_parser("reach", help="contraction tube with Monte Carlo containment")
    pv.add_argument("--space", required=True)
    pv.add_argument("--field", required=True)
    pv.add_argument("--region", default="box:-3.2:3.2:64")
    pv.add_argument("--c", type=float, default=0.0)
    pv.add_argument("--r0", type=float, default=0.1)
    pv.add_argument("--horizon", type=float, default=5.0)
    pv.add_argument("--dt", type=float, default=1e-3)
    pv.add_argument("--samples", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--K", type=float, default=1.0)
    pv.add_argument("--method", default="rkmk4", choices=["rkmk4", "lieeuler"])
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
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
