"""Hand-emitted SVG 1.1 diagrams for direction portraits.

Three plot shapes, all driven by plain floats so they stay regression
testable on path data:

  * line_diagram: the non-expansive lines through the origin (d = 2);
  * branch_curves: branch values over the circle angle (d = 2);
  * sphere_contours: hyperplane great circles in the (theta, phi) plane,
    drawn as sampled contours (d = 3).

Coordinates are printed with four decimals, which keeps output byte-stable
across platforms and is far below visual resolution.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

_COLORS = {
    "variety": "#1f77b4",
    "noetherian": "#d62728",
    "crossing-only": "#7f7f7f",
}

_BRANCH_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#ff9896",
    "#98df8a", "#c5b0d5", "#ffbb78", "#c49c94",
)


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _header(width: int, height: int, title: str) -> List[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<title>{title}</title>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]


def _line(x1, y1, x2, y2, stroke, width="1.5", dash: Optional[str] = None) -> str:
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"{d}/>'
    )


def _text(x, y, s, size=11, anchor="start", fill="#333333") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{s}</text>'
    )


def _polyline(points: Sequence[Tuple[float, float]], stroke, width="1.2",
              dash: Optional[str] = None) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}"{d}/>'
    )


def line_diagram(hyperplanes: Sequence[Tuple[str, Tuple[float, float], bool]]) -> str:
    """Lines through the origin perpendicular to each normal (d = 2).

    hyperplanes rows are (label, (nx, ny), undecided); undecided lines are
    drawn dashed.
    """
    size = 420
    half = size / 2.0
    radius = half * 0.86
    parts = _header(size, size, "non-expansive lines")
    parts.append(_line(half, 0, half, size, "#dddddd", "1"))
    parts.append(_line(0, half, size, half, "#dddddd", "1"))
    seen: Dict[str, str] = {}
    for label, normal, undecided in hyperplanes:
        nx, ny = normal
        scale = math.hypot(nx, ny)
        if scale == 0:
            continue
        # direction of the line is the normal rotated a quarter turn
        dx, dy = -ny / scale, nx / scale
        color = _COLORS.get(label, "#000000")
        seen.setdefault(label, color)
        parts.append(
            _line(
                half + radius * dx, half - radius * dy,
                half - radius * dx, half + radius * dy,
                color, "1.8", dash="6,4" if undecided else None,
            )
        )
    y = 16
    for label, color in sorted(seen.items()):
        parts.append(_line(8, y - 4, 28, y - 4, color, "3"))
        parts.append(_text(33, y, label))
        y += 15
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def branch_curves(rows: Sequence[Tuple[float, str, float]]) -> str:
    """One curve per branch key over theta in [0, 2 pi) (d = 2).

    rows are (theta, branch_key, value); branches keep first-seen order and
    curves break nothing (theta is already sorted per branch by the caller).
    """
    width, height = 640, 360
    margin = 42
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    by_branch: Dict[str, List[Tuple[float, float]]] = {}
    order: List[str] = []
    vmax = 0.0
    for theta, key, value in rows:
        if key not in by_branch:
            by_branch[key] = []
            order.append(key)
        by_branch[key].append((theta, value))
        vmax = max(vmax, value)
    vmax = vmax * 1.05 if vmax > 0 else 1.0

    def to_xy(theta: float, value: float) -> Tuple[float, float]:
        x = margin + plot_w * theta / (2 * math.pi)
        y = height - margin - plot_h * value / vmax
        return x, y

    parts = _header(width, height, "branch values over the circle")
    parts.append(_line(margin, height - margin, width - margin, height - margin, "#333333", "1"))
    parts.append(_line(margin, margin, margin, height - margin, "#333333", "1"))
    for k in range(5):
        frac = k / 4.0
        y = height - margin - plot_h * frac
        parts.append(_line(margin - 4, y, margin, y, "#333333", "1"))
        parts.append(_text(margin - 7, y + 4, f"{vmax * frac:.2f}", anchor="end"))
    for k, label in ((0, "0"), (1, "pi/2"), (2, "pi"), (3, "3pi/2"), (4, "2pi")):
        x = margin + plot_w * k / 4.0
        parts.append(_line(x, height - margin, x, height - margin + 4, "#333333", "1"))
        parts.append(_text(x, height - margin + 16, label, anchor="middle"))
    for i, key in enumerate(order):
        color = _BRANCH_PALETTE[i % len(_BRANCH_PALETTE)]
        pts = [to_xy(t, v) for t, v in by_branch[key]]
        parts.append(_polyline(pts, color))
        parts.append(_text(width - margin + 4, margin + 13 * i + 10, key, size=9, fill=color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _orthonormal_basis(n: Tuple[float, float, float]):
    nx, ny, nz = n
    scale = math.sqrt(nx * nx + ny * ny + nz * nz)
    nx, ny, nz = nx / scale, ny / scale, nz / scale
    # any vector not parallel to n seeds the cross products
    if abs(nx) <= abs(ny) and abs(nx) <= abs(nz):
        seed = (1.0, 0.0, 0.0)
    elif abs(ny) <= abs(nz):
        seed = (0.0, 1.0, 0.0)
    else:
        seed = (0.0, 0.0, 1.0)
    u = (
        ny * seed[2] - nz * seed[1],
        nz * seed[0] - nx * seed[2],
        nx * seed[1] - ny * seed[0],
    )
    ul = math.sqrt(sum(c * c for c in u))
    u = tuple(c / ul for c in u)
    v = (
        ny * u[2] - nz * u[1],
        nz * u[0] - nx * u[2],
        nx * u[1] - ny * u[0],
    )
    return u, v


def sphere_contours(circles: Sequence[Tuple[str, Tuple[float, float, float], bool]]) -> str:
    """Great circles {v : n . v = 0} in the (theta, phi) plane (d = 3).

    circles rows are (label, normal, undecided).  Each circle is sampled
    parametrically at 720 points and split where theta wraps around.
    """
    samples = 720
    width, height = 640, 360
    margin = 42
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def to_xy(theta: float, phi: float) -> Tuple[float, float]:
        return (
            margin + plot_w * theta / (2 * math.pi),
            margin + plot_h * phi / math.pi,
        )

    parts = _header(width, height, "non-expansive great circles")
    parts.append(_line(margin, height - margin, width - margin, height - margin, "#333333", "1"))
    parts.append(_line(margin, margin, margin, height - margin, "#333333", "1"))
    parts.append(_text(width / 2, height - margin + 16, "theta", anchor="middle"))
    parts.append(_text(margin - 28, height / 2, "phi"))
    seen: Dict[str, str] = {}
    for label, normal, undecided in circles:
        u, v = _orthonormal_basis(normal)
        color = _COLORS.get(label, "#000000")
        seen.setdefault(label, color)
        run: List[Tuple[float, float]] = []
        prev_theta = None
        for k in range(samples + 1):
            t = 2 * math.pi * k / samples
            p = tuple(math.cos(t) * u[i] + math.sin(t) * v[i] for i in range(3))
            theta = math.atan2(p[1], p[0]) % (2 * math.pi)
            phi = math.acos(max(-1.0, min(1.0, p[2])))
            if prev_theta is not None and abs(theta - prev_theta) > math.pi:
                if len(run) > 1:
                    parts.append(_polyline(run, color, dash="5,4" if undecided else None))
                run = []
            run.append(to_xy(theta, phi))
            prev_theta = theta
        if len(run) > 1:
            parts.append(_polyline(run, color, dash="5,4" if undecided else None))
    y = 16
    for label, color in sorted(seen.items()):
        parts.append(_line(8, y - 4, 28, y - 4, color, "3"))
        parts.append(_text(33, y, label))
        y += 15
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def check_dimension(d: int) -> None:
    """Raise ValueError unless portrait_svg can draw a Z^d-action."""
    if d not in (2, 3):
        raise ValueError("SVG output is available for d = 2 and d = 3 only")


def portrait_svg(portrait, rows: Sequence = ()) -> str:
    """Pick the figure style matching the dimension of the portrait; d = 2
    draws omega_samples rows as branch curves, d = 3 draws no rows."""
    d = portrait.system.d
    check_dimension(d)
    prec = portrait.precision
    planes = [
        (h.label, h.normal_floats(prec), h.undecided) for h in portrait.hyperplanes
    ]
    if d == 2:
        if rows:
            curve_rows = []
            for direction, subset, lo, hi in rows:
                theta = math.atan2(direction[1], direction[0]) % (2 * math.pi)
                key = "{" + ",".join(str(i) for i in subset) + "}"
                curve_rows.append((theta, key, (lo + hi) / 2))
            curve_rows.sort(key=lambda r: (r[1], r[0]))
            return branch_curves(curve_rows)
        return line_diagram(planes)
    return sphere_contours(planes)
