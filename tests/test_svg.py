"""SVG emitters are regression-tested on path data, never on pixels."""

import math

from rankone import build_portrait, load_fixture, omega_samples
from rankone.subdynamics import default_directions
from rankone.svg import branch_curves, line_diagram, portrait_svg, sphere_contours


def test_line_diagram_draws_one_line_per_hyperplane():
    rows = [
        ("variety", (math.log(2), math.log(3)), False),
        ("noetherian", (1.0, 0.0), False),
        ("noetherian", (0.0, 1.0), True),
    ]
    svg = line_diagram(rows)
    assert svg.startswith("<svg")
    assert svg.count("<line") >= 3
    assert 'stroke-dasharray="6,4"' in svg  # undecided rendered dashed
    assert "-0.0000" not in svg             # negative zero normalized away


def test_branch_curves_polylines():
    rows = []
    for k in range(32):
        theta = 2 * math.pi * k / 32
        rows.append((theta, "{}", 1.0 + math.cos(theta) ** 2))
        rows.append((theta, "{0}", 2.0))
    svg = branch_curves(rows)
    assert svg.count("<polyline") == 2
    assert "</svg>" in svg


def test_sphere_contours_great_circles():
    svg = sphere_contours([
        ("variety", (math.log(2), math.log(3), math.log(5)), False),
        ("noetherian", (1.0, 0.0, 0.0), False),
    ])
    assert svg.count("<polyline") >= 2


def test_portrait_svg_structural_d2():
    portrait = build_portrait(load_fixture("times2times3"))
    svg = portrait_svg(portrait)
    assert svg.startswith("<svg")
    assert svg.count("<line") >= 3


def test_portrait_svg_with_curves_is_deterministic():
    sys_ = load_fixture("times2times3")
    directions = default_directions(sys_, 24)
    a = portrait_svg(build_portrait(sys_), omega_samples(sys_, directions))
    b = portrait_svg(build_portrait(sys_), omega_samples(sys_, directions))
    assert a == b
    assert a.count("<polyline") == 2  # one curve per branch


def test_portrait_svg_d3():
    portrait = build_portrait(load_fixture("times2times3times5"))
    svg = portrait_svg(portrait)
    assert svg.count("<polyline") >= 4  # four great circles
