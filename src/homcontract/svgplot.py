"""Minimal static SVG plotting (polylines and grid heatmaps).

Figures are offline artifacts, so this deliberately avoids any plotting
dependency: axes, ticks, and polylines are emitted as raw SVG.
"""

from __future__ import annotations

import numpy as np

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 30, 45
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
_PLOT_W = _W - _ML - _MR  # pixel columns of the plot area
# Heatmap cells formatted per block: a block's format string, its text and
# its tuple of 4,096 strings each stay under 128 KiB, glibc's default mmap
# threshold, so every block reuses the same heap memory.
_HEAT_CELLS = 1024
# The text of a colour channel 0..255, as "%d" formats it.
_CHANNELS = np.array([str(i) for i in range(256)], dtype=object)


def _require_plottable(what: str, values: np.ndarray) -> None:
    """Refuse an empty array or one with a NaN or infinite entry, naming it:
    either would reach the SVG as a "nan" coordinate or a failed reduction."""
    if values.size == 0:
        raise ValueError(f"{what} is empty: nothing to plot")
    bad = ~np.isfinite(values)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{what} has a non-finite value {float(values[idx])!r} at index "
                         f"{idx[0] if len(idx) == 1 else idx}")


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(vals, dtype=float) - lo) / span * (out_hi - out_lo)


def _frame(title, xlabel, ylabel, xlo, xhi, ylo, yhi) -> list[str]:
    """The figure's opening lines: canvas, labels, plot box and five ticks per axis."""
    q = np.arange(5)
    fx, fy = xlo + (xhi - xlo) * q / 4, ylo + (yhi - ylo) * q / 4
    ticks = np.stack([_scale(fx, xlo, xhi, _ML, _W - _MR), fx,
                      _scale(fy, ylo, yhi, _H - _MB, _MT), fy], axis=1)
    tick = (f'<text x="%.1f" y="{_H - _MB + 15}" text-anchor="middle" font-size="10">%.3g</text>\n'
            f'<text x="{_ML - 5}" y="%.1f" text-anchor="end" font-size="10">%.3g</text>')
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 8}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="14" y="{_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {_H / 2})">{ylabel}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black"/>',
        "\n".join([tick] * len(q)) % tuple(ticks.ravel().tolist()),
    ]


def _points(px, py) -> str:
    """SVG polyline points "x1,y1 x2,y2 ...", each coordinate to 2 decimals."""
    n = min(len(px), len(py))
    xy = np.empty(2 * n)
    xy[0::2], xy[1::2] = px[:n], py[:n]
    return ("%.2f,%.2f " * n % tuple(xy.tolist()))[:-1]


def _m4_keep(px, py) -> np.ndarray:
    """The indices of the first, last, lowest and highest point of each run
    of consecutive points that fall in one pixel column, ascending.  This is
    M4 aggregation (Jugel et al., VLDB 2014): the polyline drawn through
    them is the same at pixel resolution."""
    col = np.clip(px - _ML, 0, _PLOT_W - 1).astype(int)
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    last = np.r_[starts[1:], len(px)] - 1
    # each run's indices, padded with its last index: arg-extremes take the
    # first occurrence, so padding never displaces a real point
    idx = np.minimum(starts[:, None] + np.arange(int((last - starts).max()) + 1), last[:, None])
    rows = np.arange(len(starts))
    seg = py[idx]  # (runs, width)
    cand = np.stack([starts, idx[rows, seg.argmin(axis=1)], idx[rows, seg.argmax(axis=1)],
                     last], axis=1)
    cand.sort(axis=1)
    new = np.ones(cand.shape, dtype=bool)
    new[:, 1:] = cand[:, 1:] != cand[:, :-1]
    return cand[new]


def line_plot(path, x, series, title="", xlabel="t", ylabel="value") -> None:
    """Write a polyline plot; ``series`` is a list of (label, y-array), each
    y-array one line of len(x) points, thinned by :func:`_m4_keep`.  No
    series, a series of another shape, and an empty or non-finite series
    or x raise ValueError naming it.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    if not ys:
        raise ValueError("no series to plot")
    for i, ((label, _), y) in enumerate(zip(series, ys)):
        if y.shape != x.shape:
            raise ValueError(f"series of shape {y.shape} does not match {len(x)} x values")
        _require_plottable(f"series {label!r}" if label else f"series {i}", y)
    _require_plottable("x", x)
    ylo = min(float(y.min()) for y in ys)
    yhi = max(float(y.max()) for y in ys)
    if yhi - ylo < 1e-12:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    xlo, xhi = float(x.min()), float(x.max())
    px = _scale(x, xlo, xhi, _ML, _W - _MR)
    with open(path, "w") as fh:
        fh.write("\n".join(_frame(title, xlabel, ylabel, xlo, xhi, ylo, yhi)))
        for i, ((label, _), y) in enumerate(zip(series, ys)):
            color = _COLORS[i % len(_COLORS)]
            py = _scale(y, ylo, yhi, _H - _MB, _MT)
            keep = _m4_keep(px, py)
            fh.write(f'\n<polyline points="{_points(px[keep], py[keep])}" '
                     f'fill="none" stroke="{color}" stroke-width="1"/>')
            if label:
                fh.write(f'\n<text x="{_W - _MR - 5}" y="{_MT + 14 + 13 * i}" '
                         f'text-anchor="end" font-size="11" fill="{color}">{label}</text>')
        fh.write("\n</svg>")


def heatmap(path, Z, title="", xlabel="", ylabel="") -> None:
    """Write a grid heatmap of the 2-D array Z (blue = low, red = high).

    The nx x and ny y coordinates are formatted once each (``%.2f``), and
    the colour channels truncated to integers and read from ``_CHANNELS``.
    The cells are written a block of rows at a time, ``_HEAT_CELLS`` cells
    or one row if that is more: the block's x, y, red and blue strings are
    stacked into one (cells, 4) array and copied into the text in one pass.
    A Z that is not 2-D, is empty or has a non-finite cell raises
    ValueError naming the heatmap by its title.
    """
    Z = np.asarray(Z, dtype=float)
    what = f"heatmap {title!r}" if title else "heatmap"
    if Z.ndim != 2:
        raise ValueError(f"{what} needs a 2-D array, got shape {Z.shape}")
    _require_plottable(what, Z)
    lo, hi = float(Z.min()), float(Z.max())
    span = hi - lo if hi > lo else 1.0
    ny, nx = Z.shape
    cw = (_W - _ML - _MR) / nx
    ch = (_H - _MT - _MB) / ny
    xs = np.array(["%.2f" % x for x in (_ML + np.arange(nx) * cw).tolist()], dtype=object)
    ys = np.array(["%.2f" % y for y in (_H - _MB - (np.arange(ny) + 1) * ch).tolist()],
                  dtype=object)[:, None]
    rows = max(1, _HEAT_CELLS // nx)
    rect = (f'\n<rect x="%s" y="%s" width="{cw:.2f}" height="{ch:.2f}" '
            'fill="rgb(%s,60,%s)"/>')
    with open(path, "w") as fh:
        fh.write("\n".join(_frame(title, xlabel, ylabel, 0, nx, 0, ny)))
        for r in range(0, ny, rows):
            f = (Z[r:r + rows] - lo) / span  # in [0, 1], so each channel in [0, 255]
            # astype(int) truncates as %d and int() do
            cells = np.stack(np.broadcast_arrays(xs, ys[r:r + rows],
                                                 _CHANNELS[(255 * f).astype(int)],
                                                 _CHANNELS[(255 * (1 - f)).astype(int)]),
                             axis=-1)
            fh.write(rect * f.size % tuple(cells.ravel().tolist()))
        fh.write(f'\n<text x="{_W - _MR}" y="{_MT - 8}" text-anchor="end" font-size="10">'
                 f"range [{lo:.4g}, {hi:.4g}]</text>")
        fh.write("\n</svg>")
