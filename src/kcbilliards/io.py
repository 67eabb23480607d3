"""File output: CSV trajectories, bounce tables, JSON summaries, SVG plots.

Every CSV goes through one writer, write_rows, which formats each row
with "%.17g" per value (the same digits as format(x, ".17g")), so doubles
round-trip exactly and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ConfigError
from .model import BounceRecord, Wall
from .model import PLANAR_CENTERED_CIRCLE, PLANAR_LINE

PLANAR_HEADER = "t,xi,eta,xi_dot,eta_dot,E_pl,L,A_eta,D,E_sph"
SPHERICAL_HEADER = "t,qx,qy,qz,vx,vy,vz,E_sph"

PLANAR_BOUNCE_HEADER = (
    "i,t_hit,xi,eta,xi_dot_in,eta_dot_in,xi_dot_out,eta_dot_out,"
    "E_pl_in,L_in,A_xi_in,A_eta_in,D_in,E_sph_in,"
    "E_pl_out,L_out,A_xi_out,A_eta_out,D_out,E_sph_out,tangent"
)
SPHERICAL_BOUNCE_HEADER = (
    "i,t_hit,qx,qy,qz,vx_in,vy_in,vz_in,vx_out,vy_out,vz_out,"
    "E_sph_in,E_sph_out,E_pl_in,E_pl_out,D_in,D_out,tangent"
)


def write_rows(path: str, header: str, rows: Iterable[Sequence[float]]):
    """Write a CSV in one call: the header, then one line per row with each
    value as %.17g (ints too), one value per header column."""
    line = ",".join(["%.17g"] * (header.count(",") + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n" + "".join([line % tuple(row) for row in rows]))


def write_planar_trajectory(path: str, rows: Sequence[Sequence[float]]):
    """Rows of (t, xi, eta, xi_dot, eta_dot, E_pl, L, A_eta, D, E_sph)."""
    write_rows(path, PLANAR_HEADER, rows)


def write_spherical_trajectory(path: str, rows: Sequence[Sequence[float]]):
    """Rows of (t, qx, qy, qz, vx, vy, vz, E_sph)."""
    write_rows(path, SPHERICAL_HEADER, rows)


def write_bounces(path: str, records: Sequence[BounceRecord], domain: str):
    """Bounce table in the schema of the run's domain, "planar" or
    "spherical" (a run without bounces still gets its own header)."""
    planar = domain == "planar"
    rows = []
    for i, rec in enumerate(records):
        si, so, ii, io_ = rec.state_in, rec.state_out, rec.integrals_in, rec.integrals_out
        if planar:
            rows.append((i, rec.t_hit, si.xi, si.eta, si.xi_dot, si.eta_dot, so.xi_dot,
                         so.eta_dot, ii.E_pl, ii.L, ii.A_xi, ii.A_eta, ii.D, ii.E_sph,
                         io_.E_pl, io_.L, io_.A_xi, io_.A_eta, io_.D, io_.E_sph,
                         int(rec.tangent)))
        else:
            rows.append((i, rec.t_hit, *si.q, *si.v, *so.v, ii.E_sph, io_.E_sph,
                         ii.E_pl, io_.E_pl, ii.D, io_.D, int(rec.tangent)))
    write_rows(path, PLANAR_BOUNCE_HEADER if planar else SPHERICAL_BOUNCE_HEADER, rows)


def write_summary(path: str, summary: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path: str) -> Tuple[List[str], List[List[float]]]:
    """Read a numeric CSV written by this package. ConfigError: unreadable
    file, non-numeric token, or a row whose length differs from the header's."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with fh:
        header = fh.readline().strip().split(",")
        rows = []
        for n, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            toks = line.split(",")
            try:
                if len(toks) != len(header):
                    raise ValueError(f"{len(toks)} values under {len(header)} names")
                rows.append([float(tok) for tok in toks])
            except ValueError as exc:
                raise ConfigError(f"{path} line {n}: {exc}") from exc
    return header, rows


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_W, _H, _PAD = 800.0, 600.0, 40.0


def _view(points: Sequence[Tuple[float, float]], extra: Sequence[Tuple[float, float]]):
    xs = [p[0] for p in points] + [p[0] for p in extra] or [0.0]
    ys = [p[1] for p in points] + [p[1] for p in extra] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 1.0, y1 + 1.0
    sx = (_W - 2 * _PAD) / (x1 - x0)
    sy = (_H - 2 * _PAD) / (y1 - y0)
    s = min(sx, sy)

    def to_px(p):
        return (
            _PAD + (p[0] - x0) * s,
            _H - _PAD - (p[1] - y0) * s,
        )

    return to_px, (x0, x1, y0, y1)


def _fmt_px(v: float) -> str:
    return format(v, ".3f")


def svg_plot(
    path: str,
    points: Sequence[Tuple[float, float]],
    bounce_points: Sequence[Tuple[float, float]] = (),
    wall: Optional[Wall] = None,
    title: str = "trajectory",
):
    """Deterministic SVG: orbit polyline, wall, force-center marker at the
    origin, bounce dots."""
    wall_pts: List[Tuple[float, float]] = []
    if wall is not None and wall.kind == PLANAR_CENTERED_CIRCLE:
        wall_pts = [
            (
                wall.level * math.cos(2 * math.pi * k / 256),
                wall.level * math.sin(2 * math.pi * k / 256),
            )
            for k in range(257)
        ]
    extra = wall_pts + [(0.0, 0.0)]
    if wall is not None and wall.kind == PLANAR_LINE:
        extra.append((0.0, wall.level))
    to_px, (x0, x1, y0, y1) = _view(points or [(0.0, 0.0)], extra)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" '
        f'height="{int(_H)}" viewBox="0 0 {int(_W)} {int(_H)}">',
        f"<title>{title}</title>",
        f'<rect width="{int(_W)}" height="{int(_H)}" fill="white"/>',
    ]
    # axes through the origin when visible
    if x0 < 0.0 < x1:
        a, b = to_px((0.0, y0)), to_px((0.0, y1))
        parts.append(
            f'<line x1="{_fmt_px(a[0])}" y1="{_fmt_px(a[1])}" '
            f'x2="{_fmt_px(b[0])}" y2="{_fmt_px(b[1])}" stroke="#cccccc"/>'
        )
    if y0 < 0.0 < y1:
        a, b = to_px((x0, 0.0)), to_px((x1, 0.0))
        parts.append(
            f'<line x1="{_fmt_px(a[0])}" y1="{_fmt_px(a[1])}" '
            f'x2="{_fmt_px(b[0])}" y2="{_fmt_px(b[1])}" stroke="#cccccc"/>'
        )
    if wall is not None:
        if wall.kind == PLANAR_LINE:
            a, b = to_px((x0, wall.level)), to_px((x1, wall.level))
            parts.append(
                f'<line x1="{_fmt_px(a[0])}" y1="{_fmt_px(a[1])}" '
                f'x2="{_fmt_px(b[0])}" y2="{_fmt_px(b[1])}" '
                'stroke="#202020" stroke-width="2"/>'
            )
        elif wall_pts:
            d = " ".join(
                f"{_fmt_px(to_px(p)[0])},{_fmt_px(to_px(p)[1])}" for p in wall_pts
            )
            parts.append(
                f'<polyline points="{d}" fill="none" stroke="#202020" '
                'stroke-width="2"/>'
            )
    c = to_px((0.0, 0.0))
    parts.append(
        f'<circle cx="{_fmt_px(c[0])}" cy="{_fmt_px(c[1])}" r="5" fill="#d62728"/>'
    )
    if points:
        d = " ".join(f"{_fmt_px(to_px(p)[0])},{_fmt_px(to_px(p)[1])}" for p in points)
        parts.append(
            f'<polyline points="{d}" fill="none" stroke="#1f77b4" '
            'stroke-width="1.5"/>'
        )
    for p in bounce_points:
        c = to_px(p)
        parts.append(
            f'<circle cx="{_fmt_px(c[0])}" cy="{_fmt_px(c[1])}" r="3" '
            'fill="#2ca02c"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
