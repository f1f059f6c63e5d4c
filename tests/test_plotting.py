import math

import numpy as np
import pytest

from exactsdp.model import constraint_set, eval_quadratic
from exactsdp.plotting import (area_fraction, emit_plot, feasibility_mask,
                               pixel_centers, write_ppm)
from exactsdp.symmat import SymMat
from exactsdp.gallery import fig1_member, fig2_members

BOX = ((-2.5, 2.5), (-2.5, 2.5))


def read_ppm(path: str):
    """The (height, width, 3) pixel array of a binary P6 file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise ValueError("not a binary ppm")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if data[pos:pos + 1] == b"#":
            while data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while data[pos] not in b" \t\r\n":
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1
    w, h, maxval = fields
    return np.frombuffer(data[pos:pos + 3 * w * h], dtype=np.uint8).reshape(h, w, 3)


def test_unit_disk_region(tmp_path):
    # q(u,z) = -u1^2 - u2^2 + z^2: the gray region is the closed unit disk
    s = constraint_set(3, [fig1_member(6)])
    mask = feasibility_mask(s, BOX, 400)
    assert abs(area_fraction(mask) - math.pi / 25.0) <= 0.005
    xs, ys = pixel_centers(BOX, 400)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    inside = gx ** 2 + gy ** 2 <= 1.0
    assert np.array_equal(mask, inside)


def test_empty_constraint_list_is_all_gray():
    s = constraint_set(3, [])
    mask = feasibility_mask(s, BOX, 64)
    assert mask.all()


def test_raster_sign_matches_direct_evaluation():
    s = constraint_set(3, fig2_members())
    res = 160
    mask = feasibility_mask(s, BOX, res)
    xs, ys = pixel_centers(BOX, res)
    for i in range(res):
        for j in range(res):
            direct = all(eval_quadratic([xs[i], ys[j]], 1.0, m) >= 0.0
                         for m in s.members)
            assert direct == bool(mask[i, j])


def test_requires_two_variables():
    with pytest.raises(ValueError):
        feasibility_mask(constraint_set(2, [SymMat.zeros(2)]), ((0, 1),), 10)


def test_ppm_roundtrip_and_colors(tmp_path):
    s = constraint_set(3, [fig1_member(6)])
    mask = feasibility_mask(s, BOX, 120)
    path = str(tmp_path / "disk.ppm")
    write_ppm(mask, path)
    img = read_ppm(path)
    assert img.shape == (120, 120, 3)
    # center pixel is inside the disk -> gray
    assert img[60, 60].tolist() == [200, 200, 200]
    assert img[0, 0].tolist() == [255, 255, 255]
    # full mask reconstruction: gray iff feasible
    recon = (img[:, :, 0] == 200)[::-1, :].T
    assert np.array_equal(recon, mask)


def test_emit_plot_deterministic(tmp_path):
    s = constraint_set(3, fig2_members())
    base1 = str(tmp_path / "a")
    base2 = str(tmp_path / "b")
    info1 = emit_plot(s, BOX, 160, base1)
    info2 = emit_plot(s, BOX, 160, base2)
    assert open(info1["ppm"], "rb").read() == open(info2["ppm"], "rb").read()
    assert open(info1["svg"], "rb").read() == open(info2["svg"], "rb").read()
    svg = open(info1["svg"]).read()
    assert svg.startswith('<?xml') and '<svg' in svg and '<line' in svg


def test_fig2_gray_fraction_matches_analytic():
    # annulus between radii 1 and 2 minus eight disjoint radius-1/2 disks
    s = constraint_set(3, fig2_members())
    mask = feasibility_mask(s, BOX, 1000)
    analytic = math.pi / 25.0
    assert abs(area_fraction(mask) - analytic) <= 0.01 * analytic
