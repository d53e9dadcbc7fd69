"""Workload definitions of the stpg benchmark.

A workload is a fixed list of ``stpg`` CLI calls in the paper's
configurations. Every call is deterministic: the CLI's own ``--seed`` is
left at its default, and the benchmark seed only sets the order in which
a workload's calls run. Each call also carries the number of space-time
unknowns (``n_dof * n_steps``, summed over every pathwise solve or
constant evaluation) that it works through, counted here from the
configuration alone so that the throughput metric does not depend on the
code under test.
"""

import random
from dataclasses import dataclass

MOMENTS_LADDER = (8, 16, 32, 64, 128, 256)
CONVERGENCE_J = range(2, 6)


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``argv`` excludes ``--out``."""

    name: str
    kind: str
    argv: tuple
    unknowns: int


def n_dof(dim: int, degree: int, n_cells: int) -> int:
    """Spatial unknowns: interior hats (degree 1) or clamped splines minus
    the two boundary ones (degree 2, 1-D only)."""
    per_axis = n_cells - 1 if degree == 1 else n_cells
    return per_axis ** dim


def _moments(case: str, cells: int, steps: int, ladder, extra=()) -> Call:
    argv = ("moments", "--case", case, "--dim", "2", "--cells", str(cells),
            "--steps", str(steps),
            "--n-quad-ladder", ",".join(str(n) for n in ladder), *extra)
    return Call(name=f"moments-{case}-{cells}x{steps}", kind="moments",
                argv=argv,
                unknowns=n_dof(2, 1, cells) * steps * sum(ladder))


def _convergence(degree: int, n_quad: int) -> Call:
    argv = ("convergence", "--case", "lognormal", "--dim", "1",
            "--degree", str(degree), "--j-min", str(CONVERGENCE_J[0]),
            "--j-max", str(CONVERGENCE_J[-1]),
            "--n-quad-ladder", str(n_quad), "--jobs", "1")
    unknowns = sum(n_dof(1, degree, 2 ** j) * 4 ** j * n_quad
                   for j in CONVERGENCE_J)
    return Call(name=f"convergence-lognormal-deg{degree}", kind="convergence",
                argv=argv, unknowns=unknowns)


def _infsup(cells, steps, n_quad: int) -> Call:
    argv = ("infsup", "--case", "a", "--dim", "1",
            "--cells", ",".join(str(c) for c in cells),
            "--steps", ",".join(str(s) for s in steps),
            "--n-quad-ladder", str(n_quad))
    unknowns = n_quad * sum(n_dof(1, 1, c) * s for c in cells for s in steps)
    return Call(name="infsup-a", kind="infsup", argv=argv, unknowns=unknowns)


def _solve(cells: int, steps: int) -> Call:
    argv = ("solve", "--case", "constant", "--dim", "2", "--cells", str(cells),
            "--steps", str(steps))
    return Call(name=f"solve-constant-{cells}x{steps}", kind="solve", argv=argv,
                unknowns=n_dof(2, 1, cells) * steps)


WORKLOADS = {
    "moments-acceptance": tuple(
        _moments(case, 8, 32, MOMENTS_LADDER, ("--p", "1,2", "--jobs", "2"))
        for case in "abcd"),
    "convergence-lognormal": (_convergence(1, 64), _convergence(2, 64)),
    # the same sweeps with a quarter of the paths, so a pass takes seconds
    "convergence-lognormal-q16": (_convergence(1, 16), _convergence(2, 16)),
    "dense-2d": (_moments("a", 16, 64, (8, 16, 32, 64), ("--jobs", "1")),
                 _solve(32, 128)),
    "infsup-dense": (_infsup((8, 16, 32), (16, 32), 4),),
}

# Reference work timed before every call, of the kind the workload does:
# (steps of a small-vector time-stepping loop, dense 400x400 SVDs).
REFERENCE_WORK = {
    "moments-acceptance": (100_000, 1),
    "convergence-lognormal": (100_000, 1),
    "convergence-lognormal-q16": (100_000, 1),
    "dense-2d": (20_000, 5),
    "infsup-dense": (0, 6),
}

# Acceptance criterion 6: ladder classification per case and moment order.
EXPECTED_CLASSIFICATIONS = {
    "a": {"1": "converging", "2": "converging"},
    "b": {"1": "converging", "2": "diverging"},
    "c": {"1": "diverging", "2": "diverging"},
    "d": {"1": "converging", "2": "diverging"},
}

# Acceptance criterion 7: window of the fitted mean-error rate per degree.
RATE_WINDOWS = {"1": (0.9, 1.1), "2": (1.8, 2.2)}

# The paper's exactness claim for the weighted stability constants.
SIGMA_TOLERANCE = 1e-8


def calls(workload: str, seed: int) -> list:
    """The workload's calls in the order the seed selects."""
    ordered = list(WORKLOADS[workload])
    random.Random(seed).shuffle(ordered)
    return ordered


def option(call: Call, flag: str) -> str:
    """Value of a CLI option of the call."""
    return call.argv[call.argv.index(flag) + 1]


def threads(call: Call) -> int:
    """Threads the call runs paths on (``--jobs``, 1 when absent)."""
    return int(option(call, "--jobs")) if "--jobs" in call.argv else 1
