"""Feasible-region plots for two-variable slices.

Writes a binary portable pixmap (gray where every q(u,1,B) >= 0, white
elsewhere) and an SVG overlay with the zero-level curves stroked.  Pixel
signs come from the same packed-order evaluation used by eval_quadratic, so
the raster agrees with direct evaluation at every pixel center, bit for bit.
Output files are written atomically and are deterministic functions of
(constraints, box, resolution).
"""
from __future__ import annotations

import os
import tempfile

import numpy as np

from .model import ConstraintSet, quadform_packed

GRAY = (200, 200, 200)
WHITE = (255, 255, 255)
_SVG_REGION_ROWS = 160
_SVG_WIDTH = 640


def pixel_centers(box, resolution: int):
    (x0, x1), (y0, y1) = box
    xs = x0 + (np.arange(resolution) + 0.5) * (x1 - x0) / resolution
    ys = y0 + (np.arange(resolution) + 0.5) * (y1 - y0) / resolution
    return xs, ys


def member_field(m, xs, ys) -> np.ndarray:
    """q(u, 1, m) on the grid; shape (len(xs), len(ys))."""
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel(), np.ones(gx.size)], axis=1)
    return quadform_packed(m, pts).reshape(len(xs), len(ys))


def feasibility_mask(s: ConstraintSet, box, resolution: int) -> np.ndarray:
    """mask[i, j] is True when every member is nonnegative at pixel center
    (xs[i], ys[j]); an empty constraint list leaves the whole box feasible."""
    if s.n != 3:
        raise ValueError("plots need n - 1 = 2")
    xs, ys = pixel_centers(box, resolution)
    mask = np.ones((resolution, resolution), dtype=bool)
    for m in s.members:
        mask &= member_field(m, xs, ys) >= 0.0
    return mask


def area_fraction(mask: np.ndarray) -> float:
    return float(mask.mean())


def atomic_write(path: str, data: bytes):
    """Write data to path through a temporary file in the same directory, so
    that readers see the old file or the whole new one."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_ppm(mask: np.ndarray, path: str):
    """Binary P6; row 0 of the image is the top of the box (max y)."""
    res_x, res_y = mask.shape
    img = np.empty((res_y, res_x, 3), dtype=np.uint8)
    gray = np.array(GRAY, dtype=np.uint8)
    white = np.array(WHITE, dtype=np.uint8)
    # transpose: image rows sweep y from top to bottom, columns sweep x
    m = mask.T[::-1, :]
    img[m] = gray
    img[~m] = white
    header = ("P6\n%d %d\n255\n" % (res_x, res_y)).encode("ascii")
    atomic_write(path, header + img.tobytes())


def _marching_segments(field: np.ndarray, xs, ys):
    """Zero-level segments of field (indexed [ix, iy]) by marching squares."""
    segs = []
    nx, ny = field.shape

    def interp(p0, p1, v0, v1):
        t = v0 / (v0 - v1) if v0 != v1 else 0.5
        return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))

    for i in range(nx - 1):
        for j in range(ny - 1):
            v = (field[i, j], field[i + 1, j], field[i + 1, j + 1], field[i, j + 1])
            corners = ((xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]))
            idx = sum(1 << k for k in range(4) if v[k] > 0.0)
            if idx in (0, 15):
                continue
            pts = []
            edges = ((0, 1), (1, 2), (2, 3), (3, 0))
            for a, b in edges:
                if (v[a] > 0.0) != (v[b] > 0.0):
                    pts.append(interp(corners[a], corners[b], v[a], v[b]))
            for k in range(0, len(pts) - 1, 2):
                segs.append((pts[k], pts[k + 1]))
    return segs


def write_svg(s: ConstraintSet, mask: np.ndarray, box, path: str):
    """SVG 1.1 overlay, _SVG_WIDTH pixels wide: the gray region as row
    run-length rectangles at a coarse resolution plus the members' zero
    curves stroked."""
    width = _SVG_WIDTH
    (x0, x1), (y0, y1) = box
    height = int(round(width * (y1 - y0) / (x1 - x0)))

    def to_px(x, y):
        px = (x - x0) / (x1 - x0) * width
        py = (y1 - y) / (y1 - y0) * height
        return px, py

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               'width="%d" height="%d" viewBox="0 0 %d %d">' % (width, height, width, height))
    out.append('<rect x="0" y="0" width="%d" height="%d" fill="white"/>' % (width, height))

    res = mask.shape[0]
    step = max(1, res // _SVG_REGION_ROWS)
    coarse = mask[::step, ::step]
    cx, cy = coarse.shape
    cell_w = width / cx
    cell_h = height / cy
    for j in range(cy):
        row = coarse[:, cy - 1 - j]  # top row of the image is max y
        i = 0
        while i < cx:
            if row[i]:
                start = i
                while i < cx and row[i]:
                    i += 1
                out.append('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                           'fill="rgb(200,200,200)"/>' %
                           (start * cell_w, j * cell_h, (i - start) * cell_w, cell_h))
            else:
                i += 1

    xs, ys = pixel_centers(box, res)
    for m in s.members:
        field = member_field(m, xs, ys)
        for (a, b) in _marching_segments(field, xs, ys):
            pa = to_px(*a)
            pb = to_px(*b)
            out.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                       'stroke="black" stroke-width="1"/>' % (pa[0], pa[1], pb[0], pb[1]))
    out.append('</svg>')
    atomic_write(path, "\n".join(out).encode("utf-8"))


def emit_plot(s: ConstraintSet, box, resolution: int, path_base: str) -> dict:
    """Write <base>.ppm and <base>.svg; returns paths and the gray fraction."""
    mask = feasibility_mask(s, box, resolution)
    ppm_path = path_base + ".ppm"
    svg_path = path_base + ".svg"
    write_ppm(mask, ppm_path)
    write_svg(s, mask, box, svg_path)
    return {"ppm": ppm_path, "svg": svg_path, "area_fraction": area_fraction(mask),
            "resolution": resolution, "box": box}
