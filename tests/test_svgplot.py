import re

import numpy as np

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
        series = [("radius", 0.1 * np.exp(-x)), ("samples", rng.normal(size=(301, 4)))]
        path = tmp_path / "plot.svg"
        svgplot.line_plot(path, x, series)
        got = re.findall(r'points="([^"]*)"', path.read_text())
        ys = np.concatenate([series[0][1], series[1][1].ravel()])
        lo, hi = ys.min(), ys.max()
        px = svgplot._scale(x, x.min(), x.max(), svgplot._ML, svgplot._W - svgplot._MR)
        cols = [series[0][1]] + list(series[1][1].T)
        want = [old_points(px, svgplot._scale(c, lo, hi, svgplot._H - svgplot._MB,
                                              svgplot._MT)) for c in cols]
        assert got == want

    def test_dense_lines_keep_column_extremes(self, tmp_path):
        # 5,001 points over 560 pixel columns: each line keeps the first, last,
        # lowest and highest point of every column, formatted as in the full join
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 5.0, 5001)
        series = [("radius", np.full(5001, 0.1)),
                  ("samples", np.cumsum(rng.normal(size=(5001, 3)), axis=0))]
        path = tmp_path / "dense.svg"
        svgplot.line_plot(path, x, series)
        got = re.findall(r'points="([^"]*)"', path.read_text())
        ys = np.concatenate([series[0][1], series[1][1].ravel()])
        lo, hi = ys.min(), ys.max()
        px = svgplot._scale(x, x.min(), x.max(), svgplot._ML, svgplot._W - svgplot._MR)
        column = np.minimum(np.floor(px - svgplot._ML), 559)
        cols = [series[0][1]] + list(series[1][1].T)
        assert len(got) == len(cols)
        for pts, c in zip(got, cols):
            py = svgplot._scale(c, lo, hi, svgplot._H - svgplot._MB, svgplot._MT)
            full = old_points(px, py).split(" ")
            want = []
            for k in np.unique(column):
                ids = np.flatnonzero(column == k)
                keep = sorted({ids[0], ids[-1], ids[np.argmin(py[ids])], ids[np.argmax(py[ids])]})
                assert len(keep) <= 4
                want += [full[i] for i in keep]
            assert pts.split(" ") == want
