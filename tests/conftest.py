import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fail_solve_ivp(monkeypatch):
    """fail_solve_ivp(module, n): the n-th solve_ivp call made through the
    module returns scipy's own solution with success = False, as when the
    solver gives up. Returns the list of the solutions handed out."""

    def patch(module, n):
        solve, sols = module.solve_ivp, []

        def failing_solve_ivp(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sols.append(sol)
            if len(sols) == n:
                sol.success = False
            return sol

        monkeypatch.setattr(module, "solve_ivp", failing_solve_ivp)
        return sols

    return patch
