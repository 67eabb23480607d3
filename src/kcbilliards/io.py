"""File layouts: CSV trajectories, bounce tables, projections, JSON
summaries and SVG plots.

io owns every file layout: the name and place of every CSV column, the
columns ``project`` and ``plot`` read, and the SVG markup, one helper per
element. The CLI passes times, state arrays, integrals and records, never a
header or a column position; the JSON summary is written as given, with
sorted keys.

Every CSV goes through one writer, write_rows, which formats each row
with "%.17g" per value (the same digits as format(x, ".17g")), so doubles
round-trip exactly and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .model import BounceRecord, IntegralSet, Wall
from .model import PLANAR_CENTERED_CIRCLE, PLANAR_LINE

# the time and state columns that open every trajectory of a domain
PLANAR_STATE = ("t", "xi", "eta", "xi_dot", "eta_dot")
SPHERICAL_STATE = ("t", "qx", "qy", "qz", "vx", "vy", "vz")
_STATE = {"planar": PLANAR_STATE, "spherical": SPHERICAL_STATE}
PLANAR_HEADER = ",".join(PLANAR_STATE + ("E_pl", "L", "A_eta", "D", "E_sph"))
SPHERICAL_HEADER = ",".join(SPHERICAL_STATE + ("E_sph",))

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


def write_planar_trajectory(path: str, ts, ys, ints: IntegralSet):
    """Sample times, their (n, 4) states and the states' integral columns."""
    write_rows(path, PLANAR_HEADER, np.column_stack(
        (ts, ys, ints.E_pl, ints.L, ints.A_eta, ints.D, ints.E_sph)).tolist())


def write_spherical_trajectory(path: str, ts, ys, e_sph):
    """Sample times, their (n, 6) states (q, v) and the states' E_sph."""
    write_rows(path, SPHERICAL_HEADER, np.column_stack((ts, ys, e_sph)).tolist())


def write_projection(path: str, domain: str, rows):
    """``project``'s output: rows of (t, state array, d tau / d t) under the
    time and state columns of the image's domain, then dtau_dt."""
    write_rows(path, ",".join(_STATE[domain] + ("dtau_dt",)), [(t, *y, d) for t, y, d in rows])


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


def read_csv(path: str, lead: Sequence[str] = ()) -> Tuple[List[str], List[List[float]]]:
    """Read a numeric CSV written by this package. ConfigError: unreadable
    file, a header that does not begin with the columns ``lead``, a
    non-numeric token, a row whose length differs from the header's, or a
    non-finite value under ``lead`` (the error names the file's line)."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with fh:
        header = fh.readline().strip().split(",")
        if header[:len(lead)] != list(lead):
            raise ConfigError(f"{path}: the header does not begin with {','.join(lead)}")
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
                if not all(map(math.isfinite, rows[-1][:len(lead)])):
                    raise ValueError(f"a non-finite value under {','.join(lead)}")
            except ValueError as exc:
                raise ConfigError(f"{path} line {n}: {exc}") from exc
    return header, rows


def read_states(path: str, domain: str):
    """(t, state values) per row of a CSV whose header begins with the
    domain's time and state columns (ConfigError otherwise, or for a
    non-finite value among them)."""
    lead = _STATE[domain]
    _, rows = read_csv(path, lead)
    return [(row[0], row[1:len(lead)]) for row in rows]


def read_points(path: str):
    """The (x, y) points ``plot`` draws from a CSV: (orbit, dots). A
    trajectory, whose header begins with t and its position columns, gives
    its (xi, eta) or (qx, qy) as the orbit; a bounce table gives its hit
    points, the two columns after i and t_hit, as dots."""
    header, rows = read_csv(path)
    if header[:3] == list(PLANAR_STATE[:3]) or header[:4] == list(SPHERICAL_STATE[:4]):
        return [(r[1], r[2]) for r in rows], []
    if header[0] == "i":
        return [], [(r[2], r[3]) for r in rows]
    raise ConfigError(f"{path}: not a trajectory or bounce table")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_W, _H, _PAD = 800, 600, 40
_WALL = 'stroke="#202020" stroke-width="2"'


def _view(points: Sequence[Tuple[float, float]]):
    """The bounds of the points (widened to 2 where flat) and the map of a
    point to its pixel coordinates, each as text with 3 decimals."""
    xs, ys = zip(*points)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 1.0, y1 + 1.0
    s = min((_W - 2 * _PAD) / (x1 - x0), (_H - 2 * _PAD) / (y1 - y0))

    def px(p):
        return format(_PAD + (p[0] - x0) * s, ".3f"), format(_H - _PAD - (p[1] - y0) * s, ".3f")

    return px, (x0, x1, y0, y1)


def _line(a, b, style: str) -> str:
    return f'<line x1="{a[0]}" y1="{a[1]}" x2="{b[0]}" y2="{b[1]}" {style}/>'


def _polyline(pixels, style: str) -> str:
    d = " ".join(f"{x},{y}" for x, y in pixels)
    return f'<polyline points="{d}" fill="none" {style}/>'


def _circle(c, style: str) -> str:
    return f'<circle cx="{c[0]}" cy="{c[1]}" {style}/>'


def svg_plot(
    path: str,
    points: Sequence[Tuple[float, float]],
    bounce_points: Sequence[Tuple[float, float]] = (),
    wall: Optional[Wall] = None,
    title: str = "trajectory",
):
    """Deterministic SVG: the axes through the origin where visible, a
    planar wall (no other wall kind is drawn), the force-center marker at
    the origin, the orbit polyline and the bounce dots. The view holds the
    points, the bounce dots, the origin and the wall."""
    kind = wall.kind if wall is not None else None
    circle = [(wall.level * math.cos(2 * math.pi * k / 256),
               wall.level * math.sin(2 * math.pi * k / 256))
              for k in range(257)] if kind == PLANAR_CENTERED_CIRCLE else []
    line = [(0.0, wall.level)] if kind == PLANAR_LINE else []
    px, (x0, x1, y0, y1) = _view([*points, *bounce_points, *circle, (0.0, 0.0), *line])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f"<title>{title}</title>",
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if x0 < 0.0 < x1:
        parts.append(_line(px((0.0, y0)), px((0.0, y1)), 'stroke="#cccccc"'))
    if y0 < 0.0 < y1:
        parts.append(_line(px((x0, 0.0)), px((x1, 0.0)), 'stroke="#cccccc"'))
    if line:
        parts.append(_line(px((x0, wall.level)), px((x1, wall.level)), _WALL))
    if circle:
        parts.append(_polyline(map(px, circle), _WALL))
    parts.append(_circle(px((0.0, 0.0)), 'r="5" fill="#d62728"'))
    if points:
        parts.append(_polyline(map(px, points), 'stroke="#1f77b4" stroke-width="1.5"'))
    parts += [_circle(px(p), 'r="3" fill="#2ca02c"') for p in bounce_points]
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
