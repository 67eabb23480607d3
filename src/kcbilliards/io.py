"""File layouts: CSV trajectories, bounce tables, projections, JSON
summaries and SVG plots.

io owns every file layout: the name and place of every CSV column, the
columns ``project`` and ``plot`` read, and the SVG markup, one helper per
element. The CLI passes times, state arrays, integrals and records, never a
header or a column position; the JSON summary is written as given, with
sorted keys.

Every CSV goes through one writer, write_rows, which writes each value
as "%.17g" % x (the same digits as format(x, ".17g")), so doubles
round-trip exactly and identical inputs produce byte-identical files. It
takes one of two paths by the table's size alone: a table of fewer than
_TABLE_MIN values (the tables of a run of a few bounces) is formatted
value by value with "%", a larger one (a flow's trajectory, a long run's
bounce table) by the numpy kernel _format_table, which prints the same
bytes and sends each row with a value outside 1e-6 <= |x| < 1e17 (other
than +-0) to "%".
"""

from __future__ import annotations

import json
import math
from html import escape
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .model import BounceRecord, IntegralSet, Wall

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


# A table of at least this many values goes through _format_table. Below
# it "%" costs less than the kernel's fixed cost of about 0.1 ms (tables of
# 10 columns, on 2 cores: 6 rows 29 us with "%" against 119 us, 40 rows
# 191 us against 172 us, 1001 rows 5.0 ms against 2.3 ms).
_TABLE_MIN = 400

# 10^k at index k + 1 for k = 0..22, each an exact double, and its Dekker
# split; the 0 at either end fails the range check of a k that log10 put
# one outside 0..22
_POW10 = np.array([0.0] + [float(10**k) for k in range(23)] + [0.0])
# byte positions within a value's digits and point, as a column
_PLACE = np.arange(18, dtype=np.int8)[:, None]
_ZEROS = np.frombuffer(b"0.000", np.uint8)[:, None]
_EXP = np.frombuffer(b"e-0", np.uint8)[:, None]


def _split(a):
    """Dekker's split of doubles into halves of 26 bits: a = hi + lo, and
    each product of two halves is exact."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(x: np.ndarray):
    """(N, e, exact) per value: the 17-digit integer N and the decimal
    exponent e of |x| = N 10^(e - 16), rounded as "%.17g" rounds, where
    exact is true. That takes x = +-0 (N = 0, e = 0) or 1e-6 <= |x| < 1e17,
    where k = 16 - e lies in 0..22 and 10^k is an exact double: Dekker's
    product gives |x| 10^k = prod + err exactly, and as prod >= 1e16 is an
    even integer, int(prod) + rint(err) rounds half to even. A k that
    log10 got wrong leaves the exact product outside [1e16, 1e17)."""
    ax = np.abs(x)
    ok = (ax >= 1e-6) & (ax < 1e17)
    e = np.floor(np.log10(np.where(ok, ax, 1.0))).astype(np.int8)
    k = 17 - e
    v = np.where(ok, ax, 0.0)
    prod = v * _POW10[k]
    v_hi, v_lo = _split(v)
    err = ((v_hi * _POW10_HI[k] - prod) + v_hi * _POW10_LO[k] + v_lo * _POW10_HI[k]
           ) + v_lo * _POW10_LO[k]
    # prod < 1e17 is at most 1e17 - 16, so no rounding reaches 10^17
    exact = ((prod > 1e16) | ((prod == 1e16) & (err >= 0.0))) & (prod < 1e17)
    return prod.astype(np.int64) + np.rint(err).astype(np.int64), e, exact | (ax == 0.0)


def _format_table(table: np.ndarray) -> bytes:
    """The bytes of "%.17g" % x over a 2-D float table, values joined by ","
    and each row ended by a newline. A row with a value that _digits does
    not know exactly (tiny, subnormal, huge, inf, NaN) goes through "%".

    Each value fills a slot of 29 bytes: the sign, "0.000", the digits with
    the point placed, "e-0X" and the separator. A byte that "%.17g" does
    not print, such as a trailing fractional zero or a bare point, is set
    to 0, and one pass over the slots deletes those. The slots are built as
    the rows of a (29, values) array, so that each numpy pass runs along
    all values at once."""
    n, w = table.shape
    x = table.ravel()
    digits, e, exact = _digits(x)

    # the 17 digits as ASCII, the last 16 from two int32 halves of 8
    d = np.empty((17, len(x)), np.uint8)
    lead, rest = np.divmod(digits, 10**16)
    d[0] = lead + ord("0")
    halves = np.empty((2, len(x)), np.int32)
    halves[0] = rest // 10**8
    halves[1] = rest - halves[0].astype(np.int64) * 10**8
    for j in range(8, 0, -1):
        up = halves // 10
        d[j::8] = halves - up * 10 + ord("0")
        halves = up

    # the point sits after digit e (fixed, e >= 0), after digit 0 (e < -4,
    # exponent form) or nowhere among the digits (e = -1..-4, "0.000" form)
    expo = e < -4
    small = (e < 0) & ~expo
    point = np.where(expo, np.int8(1), np.where(small, np.int8(18), e + np.int8(1)))
    # the place of the last byte printed: the last nonzero digit, but no
    # digit before the point, and one place on when the point lies before
    last = np.max((d[1:] != ord("0")) * _PLACE[1:17], axis=0)
    last = np.maximum(last, e)
    last += last >= point

    slots = np.empty((29, len(x)), np.uint8)
    slots[0] = np.signbit(x) * np.uint8(ord("-"))
    slots[1:6] = (_PLACE[:5] < np.where(small, np.int8(1) - e, np.int8(0))) * _ZEROS
    body = slots[6:24]
    body[0] = d[0]
    body[1:17] = d[1:] + (_PLACE[1:17] > point) * (d[:-1] - d[1:])
    body[17] = d[16]
    body += (_PLACE == point) * (np.uint8(ord(".")) - body)
    body *= _PLACE <= last
    slots[24:27] = expo * _EXP
    slots[27] = expo * (ord("0") - e).astype(np.uint8)
    slots[28] = ord(",")
    slots[28, w - 1::w] = ord("\n")
    slow = np.flatnonzero(~exact.reshape(n, w).all(axis=1))
    slots.reshape(29, n, w)[:, slow] = 0
    text = slots.T.tobytes().translate(None, b"\0")
    if not slow.size:
        return text
    ends = np.cumsum(np.count_nonzero(slots.reshape(29, n, w), axis=(0, 2)))
    pieces, start = [], 0
    for i in slow:
        pieces += [text[start:ends[i]], _percent(table[i:i + 1].tolist(), w)]
        start = ends[i]
    return b"".join(pieces + [text[start:]])


def _percent(rows, width: int) -> bytes:
    """The rows as "%" formats them, each value as "%.17g"."""
    line = ",".join(["%.17g"] * width) + "\n"
    return "".join([line % tuple(row) for row in rows]).encode()


def write_rows(path: str, header: str, rows: Sequence[Sequence[float]]):
    """Write a CSV in one call: the header, then one line per row with each
    value as "%.17g" % x (ints too), one value per header column (else a
    ValueError, and nothing written). A table of at least _TABLE_MIN values
    is formatted in numpy by _format_table, a smaller one by "%"; both
    write the same bytes."""
    width = header.count(",") + 1
    shape = rows.shape if isinstance(rows, np.ndarray) else (
        len(rows), next((len(row) for row in rows if len(row) != width), width))
    if shape[1:] != (width,):
        raise ValueError(f"a table of shape {shape} under {width} columns")
    if len(rows) * width < _TABLE_MIN:
        # "%" formats a Python float faster than a numpy scalar
        text = _percent(rows.tolist() if isinstance(rows, np.ndarray) else rows, width)
    else:
        text = _format_table(np.asarray(rows, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(text)


def write_planar_trajectory(path: str, ts, ys, ints: IntegralSet):
    """Sample times, their (n, 4) states and the states' integral columns."""
    write_rows(path, PLANAR_HEADER, np.column_stack(
        (ts, ys, ints.E_pl, ints.L, ints.A_eta, ints.D, ints.E_sph)))


def write_spherical_trajectory(path: str, ts, ys, e_sph):
    """Sample times, their (n, 6) states (q, v) and the states' E_sph."""
    write_rows(path, SPHERICAL_HEADER, np.column_stack((ts, ys, e_sph)))


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
    planar wall from its wall function (alpha = 0: the line eta = level;
    alpha = 1: the circle r = level; no spherical wall is drawn), the
    force-center marker at the origin, the orbit polyline and the bounce
    dots. The view holds the points, the bounce dots, the origin and the
    wall. The title is escaped as XML text."""
    planar = wall is not None and wall.is_planar
    circle = [(wall.level * math.cos(2 * math.pi * k / 256),
               wall.level * math.sin(2 * math.pi * k / 256))
              for k in range(257)] if planar and wall.alpha else []
    line = [(0.0, wall.level)] if planar and not wall.alpha else []
    px, (x0, x1, y0, y1) = _view([*points, *bounce_points, *circle, (0.0, 0.0), *line])
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f"<title>{escape(title, quote=False)}</title>",
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
