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


def make_disc(dim=1, n_cells=8, degree=1, n_steps=8, final_time=1.0):
    mesh = fem.build_mesh(dim, n_cells, degree)
    pair = fem.assemble(mesh)
    grid = solver.TimeGrid.uniform(final_time, n_steps)
    return solver.Discretization(pair=pair, grid=grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def reference_sweep(disc, a, c0):
    """Modal coefficients of one path from the recurrence on whole (N, n_dof)
    arrays: every step factor formed up front, then one step loop.

    solver.sweep must return these bit for bit for each of its paths. The
    modal load comes from the pair's transform, which tests/test_fem.py
    checks against the dense eigenbasis.
    """
    pair = disc.pair
    half = 0.5 * a * disc.grid.widths[:, None] * pair.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.outer(c0 * disc.grid.weights, pair.to_modes(pair.mode_vector))
        z /= 1.0 + half
        gain = (1.0 - half[:-1]) / (1.0 + half[1:])
        for row, prev, g in zip(z[1:], z, gain):
            row += g * prev
    return z
