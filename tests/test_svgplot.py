import re

import numpy as np
import pytest

from homcontract import svgplot


def old_points(px, py):
    """The per-point join the polyline formatting must reproduce."""
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))


class TestPolylinePoints:
    def test_matches_per_point_join(self):
        rng = np.random.default_rng(3)
        px = rng.uniform(-5.0, 700.0, 500)
        py = rng.uniform(-5.0, 400.0, 500)
        # values that round to -0.00, and exact halves at the third decimal
        px[:6] = [-0.001, -0.004999, -0.0, 0.125, 0.375, 2.5]
        py[:6] = [-0.0049, 0.005, 1.005, 2.675, -0.125, 0.0]
        assert svgplot._points(px, py) == old_points(px, py)
        assert svgplot._points(px[:1], py[:1]) == old_points(px[:1], py[:1])
        assert svgplot._points(px[:0], py[:0]) == ""

    def test_line_plot_polylines(self, tmp_path):
        rng = np.random.default_rng(4)
        x = np.linspace(0.0, 5.0, 301)
        series = [("radius", 0.1 * np.exp(-x))] + [("", y) for y in rng.normal(size=(4, 301))]
        path = tmp_path / "plot.svg"
        svgplot.line_plot(path, x, series)
        got = re.findall(r'points="([^"]*)"', path.read_text())
        ys = np.concatenate([y for _, y in series])
        lo, hi = ys.min(), ys.max()
        px = svgplot._scale(x, x.min(), x.max(), svgplot._ML, svgplot._W - svgplot._MR)
        want = [old_points(px, svgplot._scale(y, lo, hi, svgplot._H - svgplot._MB,
                                              svgplot._MT)) for _, y in series]
        assert got == want

    def test_dense_lines_keep_column_extremes(self, tmp_path):
        # 5,001 points over 560 pixel columns: each line keeps the first, last,
        # lowest and highest point of every column, formatted as in the full join
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 5.0, 5001)
        series = [("radius", np.full(5001, 0.1))] + [
            ("", y) for y in np.cumsum(rng.normal(size=(3, 5001)), axis=1)]
        path = tmp_path / "dense.svg"
        svgplot.line_plot(path, x, series)
        got = re.findall(r'points="([^"]*)"', path.read_text())
        ys = np.concatenate([y for _, y in series])
        lo, hi = ys.min(), ys.max()
        px = svgplot._scale(x, x.min(), x.max(), svgplot._ML, svgplot._W - svgplot._MR)
        column = np.minimum(np.floor(px - svgplot._ML), 559)
        assert len(got) == len(series)
        for pts, (_, y) in zip(got, series):
            py = svgplot._scale(y, lo, hi, svgplot._H - svgplot._MB, svgplot._MT)
            full = old_points(px, py).split(" ")
            want = []
            for k in np.unique(column):
                ids = np.flatnonzero(column == k)
                keep = sorted({ids[0], ids[-1], ids[np.argmin(py[ids])], ids[np.argmax(py[ids])]})
                assert len(keep) <= 4
                want += [full[i] for i in keep]
            assert pts.split(" ") == want


class TestSeriesShape:
    """Each series is one line of len(x) points."""

    def test_length_mismatch_raises(self, tmp_path):
        x = np.arange(10.0)
        for series in ([("a", np.ones(5))], [("a", np.ones(10)), ("b", np.ones(11))]):
            with pytest.raises(ValueError, match="does not match"):
                svgplot.line_plot(tmp_path / "bad.svg", x, series)

    def test_stacked_lines_refused(self, tmp_path):
        # one series is one line: a 2-D stack, along either axis, is refused
        x = np.arange(10.0)
        for y in (np.ones((10, 3)), np.ones((3, 10)), np.ones((1, 10))):
            with pytest.raises(ValueError, match="does not match"):
                svgplot.line_plot(tmp_path / "bad.svg", x, [("a", y)])


def old_frame(title, xlabel, ylabel, xlo, xhi, ylo, yhi):
    """The per-tick frame the batched ticks must reproduce."""
    W, H, ML, MR, MT, MB = (svgplot._W, svgplot._H, svgplot._ML, svgplot._MR,
                            svgplot._MT, svgplot._MB)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{W / 2}" y="{H - 8}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {H / 2})">{ylabel}</text>',
        f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" height="{H - MT - MB}" '
        f'fill="none" stroke="black"/>',
    ]
    for i in range(5):
        fx = xlo + (xhi - xlo) * i / 4
        fy = ylo + (yhi - ylo) * i / 4
        px = svgplot._scale(fx, xlo, xhi, ML, W - MR)
        py = svgplot._scale(fy, ylo, yhi, H - MB, MT)
        parts.append(
            f'<text x="{px:.1f}" y="{H - MB + 15}" text-anchor="middle" '
            f'font-size="10">{fx:.3g}</text>'
        )
        parts.append(
            f'<text x="{ML - 5}" y="{py:.1f}" text-anchor="end" '
            f'font-size="10">{fy:.3g}</text>'
        )
    return parts


def old_heatmap(Z, title="", xlabel="", ylabel=""):
    """The per-cell heatmap text the batched heatmap must reproduce."""
    W, H, ML, MR, MT, MB = (svgplot._W, svgplot._H, svgplot._ML, svgplot._MR,
                            svgplot._MT, svgplot._MB)
    Z = np.asarray(Z, dtype=float)
    lo, hi = float(Z.min()), float(Z.max())
    span = hi - lo if hi > lo else 1.0
    ny, nx = Z.shape
    cw = (W - ML - MR) / nx
    ch = (H - MT - MB) / ny
    parts = old_frame(title, xlabel, ylabel, 0, nx, 0, ny)
    for i in range(ny):
        for j in range(nx):
            f = (Z[i, j] - lo) / span
            r, b = int(255 * f), int(255 * (1 - f))
            parts.append(
                f'<rect x="{ML + j * cw:.2f}" y="{H - MB - (i + 1) * ch:.2f}" '
                f'width="{cw:.2f}" height="{ch:.2f}" fill="rgb({r},60,{b})"/>'
            )
    parts.append(
        f'<text x="{W - MR}" y="{MT - 8}" text-anchor="end" font-size="10">'
        f"range [{lo:.4g}, {hi:.4g}]</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


class TestBatchedElements:
    """The heatmap's cells and the frame's ticks, each formatted in one pass,
    match the per-cell and per-tick text byte for byte."""

    @pytest.mark.parametrize("grid", ["random64", "one", "constant", "minus-cos", "wide",
                                      "ramp"])
    def test_heatmap_matches_per_cell_text(self, tmp_path, grid):
        rng = np.random.default_rng(7)
        theta = np.linspace(0.0, np.pi / 3, 64)[:, None] + np.zeros(64)
        Z = {"random64": rng.normal(size=(64, 64)), "one": np.array([[0.25]]),
             "constant": np.full((3, 4), -0.7), "minus-cos": -np.cos(theta),
             "wide": rng.uniform(-1e6, 1e-3, size=(5, 17)),
             # f = k / 255: the colour channels truncate values next to an integer
             "ramp": np.arange(256.0).reshape(16, 16)}[grid]
        path = tmp_path / "heat.svg"
        svgplot.heatmap(path, Z, title="mu", xlabel="azimuth index", ylabel="polar index")
        want = old_heatmap(Z, title="mu", xlabel="azimuth index", ylabel="polar index")
        assert path.read_text().split("\n") == want.split("\n")

    def test_ticks_match_per_tick_text(self):
        rng = np.random.default_rng(8)
        ranges = [(0, 64, 0, 64), (0, 1, 0, 1), (0, 17, 0, 3),  # heatmap's integer ranges
                  (0.0, 5.0, -1.0, 1.0), (2.5, 2.5, -3.0, -3.0),  # equal ends: span 1
                  (-1e-9, 3e-9, 1e12, 1e12 + 7.0), (0.0, 4999.0, -0.0, 1e-300)]
        for _ in range(500):
            lo = rng.normal(scale=10.0 ** rng.integers(-8, 9, size=2))
            hi = lo + np.abs(rng.normal(size=2)) * 10.0 ** rng.integers(-6, 7, size=2)
            ranges.append((lo[0], hi[0], lo[1], hi[1]))
        for r in ranges:
            args = ("t", "x", "y", *r)
            got = "\n".join(svgplot._frame(*args)).split("\n")
            assert got == old_frame(*args), r


class TestAlwaysThinned:
    def test_three_points_per_column_thinned(self, tmp_path):
        # 1,500 points over 560 columns: some columns hold three points of a
        # rising line, whose middle one is neither first, last, lowest nor highest
        x = np.linspace(0.0, 1.0, 1500)
        svgplot.line_plot(tmp_path / "rise.svg", x, [("", x)])
        (got,) = re.findall(r'points="([^"]*)"', (tmp_path / "rise.svg").read_text())
        px = svgplot._scale(x, 0.0, 1.0, svgplot._ML, svgplot._W - svgplot._MR)
        py = svgplot._scale(x, 0.0, 1.0, svgplot._H - svgplot._MB, svgplot._MT)
        keep = svgplot._m4_keep(px, py)
        assert len(keep) < len(x)
        assert got == svgplot._points(px[keep], py[keep])
