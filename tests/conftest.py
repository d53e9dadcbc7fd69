import os

import numpy as np
import pytest

from stpg import fem, solver

# child processes (``python -m stpg.cli``) import the package from this
# checkout as the test process does, with or without an installed stpg
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))


class ConstantCoeffs:
    """Deterministic coefficient stub with fixed a and c0."""

    def __init__(self, a=1.0, c0=1.0):
        self._a = a
        self._c0 = c0

    def a(self, omega):
        return self._a

    def c0(self, omega):
        return self._c0


def forbid_dense_solves(monkeypatch, forbidden):
    """Make the dense pathwise oracle and numpy's dense solve and inverse
    call forbidden: a run that goes through shows that it factors no dense
    matrix."""
    monkeypatch.setattr(solver, "solve_pathwise", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)


# diffusion values over the whole positive float range, from the least
# subnormal to the float maximum, where the closed-form profiles underflow,
# overflow and turn nan; and forcing amplitudes of zero and both signs at
# the ends of the float range, one for each of them
FLOAT_RANGE_A = np.concatenate((
    [5e-324, np.finfo(float).tiny, 1e-300, 1e-10, 1.0, 1e10, 1e155, 1e300,
     np.finfo(float).max],
    10.0 ** np.random.default_rng(5).uniform(-323.0, 308.0, 39)))
FLOAT_RANGE_C0 = np.resize([0.0, 1e-300, -1e-300, 1e300, -1e300], len(FLOAT_RANGE_A))


def make_disc(dim=1, n_cells=8, degree=1, n_steps=8, final_time=1.0):
    mesh = fem.build_mesh(dim, n_cells, degree)
    pair = fem.assemble(mesh)
    grid = solver.TimeGrid.uniform(final_time, n_steps)
    return solver.Discretization(pair=pair, grid=grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

