"""Host speed reference: a fixed computation that does not use the package.

The shared benchmark host's speed drifts by up to 2x for minutes at a
time. Task times are therefore scaled by ``REFERENCE_S`` over the time of
this computation measured next to them, and set-up times likewise by the
time of a reference interpreter start, so that they read as on the host at
full speed. The computation is scipy's DOP853 over one Kepler orbit with a
Python right-hand side: the same kind of work as the package's numeric
engine and its Python-level exact map.
"""

from __future__ import annotations

import math
import time

from scipy.integrate import solve_ivp

# Time of one reference computation on the host at full speed (a 2-core
# x86-64 VM, Python 3.11, scipy 1.17).
REFERENCE_S = 0.0015

# Set-up does not track that computation: starting an interpreter and
# importing compiled modules slows less than Python code does. Its reference
# is a fresh interpreter that imports the third-party modules the package
# imports today, and SETUP_REFERENCE_S is its time on the host at full speed.
SETUP_REFERENCE_CODE = "import numpy, scipy.integrate, scipy.optimize\nprint('ready', flush=True)\n"
SETUP_REFERENCE_S = 0.55


def _kepler_rhs(t, y):
    c = -1.0 / math.hypot(y[0], y[1]) ** 3
    return (y[2], y[3], c * y[0], c * y[1])


def reference_s() -> float:
    """Fastest of three runs of the reference computation, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        solve_ivp(_kepler_rhs, (0.0, 6.0), [1.0, 0.0, 0.0, 1.1], method="DOP853",
                  rtol=1e-10, atol=1e-10)
        best = min(best, time.perf_counter() - t0)
    return best


def at_full_speed(seconds: float, ref_s: float) -> float:
    """A wall time scaled to the host at full speed."""
    return seconds * REFERENCE_S / ref_s
