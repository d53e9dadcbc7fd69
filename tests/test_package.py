"""scipy stays inside the oracles, the package itself loads no module, and
the CLI reaches every function of the production modules but those an
allowlist names, each with its reason."""

import ast
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import stpg
from stpg import cli, constants, fem, g17, solver, stochastic
from test_cli_checks import checks


def test_only_the_oracle_module_names_scipy():
    # the test oracles gather in stpg.oracle, the one module that may load
    # scipy; every other module runs on numpy alone
    naming = sorted(path.name for path in Path(stpg.__file__).parent.glob("*.py")
                    if "scipy" in path.read_text().lower())
    assert naming == ["oracle.py"]


def test_importing_the_package_loads_no_module():
    # the modules are the API: the package names none of them itself
    code = "import sys, stpg; print(sorted(m for m in sys.modules if m.startswith('stpg.')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"


# The runs of ci/cli_checks.py's RUNS that take over 10 ms in process; the
# light ones reach every function these do.
_HEAVY = {
    "solve --dim 2 --cells 32 --steps 128", "solve --dim 1 --degree 2 --cells 64 --steps 100",
    "solve --dim 2 --cells 66 --steps 12", "convergence --dim 2 --j-min 7 --j-max 7",
    "infsup --case lognormal --n-quad-ladder 1000", "infsup --cells 4 --steps 1,10000000",
    "moments --dim 1 --cells 20000", "solve --dim 1 --cells 20000 --steps 4",
}
# the light runs, every failure, a moments run of --p written in place to a
# device, and one usage error, which argparse reports
_ARGV = ([[*run.split(), "--out", checks.csv_name(run)] for run in checks.RUNS
          if run not in _HEAVY]
         + [[*run.split(), "--out", "none.csv"] for runs in checks.FAILURES.values()
            for run in runs]
         + [["moments", "--p", "1,2", "--out", os.devnull],
            ["solve", "--p", "2", "--out", "none.csv"]])
# The functions of the production modules that no run of _ARGV reaches, each
# with its reason to stay (ROADMAP items):
# - spans-pinned: perfbench/spans.py traces it, or a traced function calls
#   it, until item 7 retargets the spans;
# - probe-only: only the attribute probes of perfbench/spans.py read it;
# - item 4: the run record is to read it;
# - item 10: test-only, to move into stpg.oracle.
_UNREACHED = {
    "cli.InfsupRows.__len__": "probe-only",
    "cli.SolveRows.__len__": "probe-only",
    "constants.discrete_infsup": "spans-pinned",
    "fem.SpatialPair.eigenvalues": "item 4",
    "fem.SpatialPair.mass": "item 10",
    "fem.SpatialPair.stiffness": "item 10",
    "fem.SpatialPair.modes": "item 10",
    "fem.SpatialPair.mode_vector": "spans-pinned",
    "fem.SpatialPair.n_dof": "probe-only",
    "solver.TimeGrid.final_time": "item 10",
    "solver.TimeGrid.weights": "spans-pinned",
    "solver.Discretization.n_dof": "probe-only",
    "solver.Discretization.trial_size": "item 10",
    "solver.Discretization.test_size": "item 10",
    "solver._hat_integrals": "spans-pinned",
    "solver.time_weights": "spans-pinned",
    "solver.solve_pathwise": "spans-pinned",
    "solver._temporal_factors": "spans-pinned",
    "solver.mode_blocks": "item 4",
    "solver.assemble_full_system": "spans-pinned",
    "solver.build_grams": "spans-pinned",
    "solver.trial_energy_norm": "spans-pinned",
    "stochastic.predict_max_moment": "item 4",
    "stochastic.predict_pbar": "item 4",
    "stochastic.moment_exponents": "item 4",
    "stochastic.singular_example_moments": "item 4",
}


_PRODUCTION = (cli, constants, fem, g17, solver, stochastic)


def _defined() -> dict:
    """The module-qualified name of every function and method of the
    production modules, keyed by (file, first line) as its code object
    names them."""
    defined = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    defined[module.__file__, first] = name
            visit(child, module, name)

    for module in _PRODUCTION:
        visit(ast.parse(Path(module.__file__).read_text()), module,
              module.__name__.rsplit(".", 1)[1])
    return defined


def test_cli_runs_reach_every_production_function_but_the_allowlisted(tmp_path, monkeypatch):
    # what no CLI run reaches belongs in stpg.oracle, unless _UNREACHED says
    # why it stays
    monkeypatch.chdir(tmp_path)
    # the process's caches are emptied first, so that the runs reach what
    # fills them whichever tests ran before
    for module in _PRODUCTION:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        for argv in _ARGV:
            with contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):
                cli.main(argv)
    finally:
        sys.setprofile(None)
    defined = _defined()
    reached = {defined[key] for key in ((c.co_filename, c.co_firstlineno) for c in codes)
               if key in defined}
    unreached = set(defined.values()) - reached
    assert sorted(unreached - _UNREACHED.keys()) == []
    # and the allowlist names no function that is gone or reached
    assert sorted(_UNREACHED.keys() - unreached) == []
