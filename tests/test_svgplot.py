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
