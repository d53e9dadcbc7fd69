"""Command-line checks of an installed stpg, in the standard library alone.

    python3 ci/cli_checks.py stpg
    python3 ci/cli_checks.py python3 -m stpg.cli

The arguments are the command that runs stpg. Run it in an empty
directory: the reports are written there. It checks that every run of
RUNS exits 0 and reruns byte for byte, that every value those runs wrote
is canonical text, that the band identity gives the exact 1, that an open
descriptor is written in place, that each failure exits with its code,
one stderr line and no CSV, that the package loads none of its
modules on import, and that no subcommand loads scipy.
tests/test_cli_checks.py runs the same checks, the runs in process
through stpg.cli.main.
"""

import glob
import os
import subprocess
import sys

# the rank-one solve writer at both degrees: the dense-2d solve and
# splines; above 4,096 dofs, one whole interval per block (4,225 and 4,900
# dofs); heads that widen at 10, 100 and 1000; infsup on a mirrored rule,
# whose nodes share their values of a in pairs, and on one without
# repeats, and a grid of 64,512 trial unknowns; the one-mode convergence
# errors at degree 2 and in 2-D; 2-D runs of 159,201 dofs and a level of
# 16,129 dofs and 16,384 steps, which only the memory check limits; the
# write-bound infsup of 4,000 rows; moments at 10^7 steps, which builds no
# grid; infsup on the benchmark's grids, at degree 2, and at 10^7 steps,
# whose k_max takes no grid either; and 1-D hat runs of 19,999 dofs, whose
# pair is closed forms of 19,999 values (moments and solve exited 3 there
# and infsup held 6.4 GB when the pair was n x n)
RUNS = (
    "moments", "convergence --j-max 3", "infsup", "solve",
    "convergence --degree 2 --j-max 4", "convergence --dim 2 --j-max 3",
    "solve --dim 2 --cells 32 --steps 128",
    "solve --dim 1 --degree 2 --cells 64 --steps 100",
    "solve --dim 2 --cells 66 --steps 12", "solve --steps 1000",
    "solve --dim 2 --cells 71 --steps 3",
    "infsup --case b --n-quad-ladder 16",
    "infsup --case lognormal --n-quad-ladder 6",
    "infsup --cells 64 --steps 1024",
    "moments --dim 2 --cells 400 --steps 4",
    "infsup --dim 2 --cells 400 --steps 4",
    "convergence --dim 2 --j-min 7 --j-max 7",
    "infsup --case lognormal --n-quad-ladder 1000",
    "moments --steps 10000000",
    "infsup --case a --cells 8,16,32 --steps 16,32 --n-quad-ladder 4",
    "infsup --degree 2 --cells 4,9 --steps 3,7",
    "infsup --cells 4 --steps 1,10000000",
    "moments --dim 1 --cells 20000",
    "solve --dim 1 --cells 20000 --steps 4",
    "infsup --cells 20000 --steps 4",
)
# the run whose weighted constants are the band identity's exact 1
BAND_RUN = "infsup --cells 64 --steps 1024"
# runs that fail, by exit code, each with one stderr line and no CSV: a grid
# of no interval exits 1; a solve whose one parameter node has a reason in
# stpg.solver.path_table exits 2 with that reason (a not finite, a <= 0, c0
# not finite); a rule whose nodes do not fit, or a solve of 10^11 steps,
# exits 3
FAILURES = {
    1: ("infsup --steps 0", "solve --steps 0"),
    2: ("solve --case a --omega 0", "solve --case lognormal --omega -1",
        "solve --case d --omega 0.4"),
    3: ("convergence --n-quad-ladder 1000000000", "infsup --n-quad-ladder 1000000000",
        "solve --steps 100000000000"),
}
# the stderr line of each reason run
REASON_LINES = {
    "solve --case a --omega 0": "stpg: numerical failure: diffusion value is not finite: inf",
    "solve --case lognormal --omega -1":
        "stpg: numerical failure: diffusion value must be positive: -1.0",
    "solve --case d --omega 0.4": "stpg: numerical failure: forcing amplitude is not finite: inf",
}
# seconds a failing run may take before it is killed
TIMEOUT = 60


def csv_name(run: str) -> str:
    """The report name of a run: its text without spaces and dashes."""
    return run.replace(" ", "").replace("-", "") + ".csv"


def check_reruns(call):
    """Every run of RUNS exits 0, writes a non-empty CSV and rewrites it
    byte for byte. call(args) runs stpg on a list of arguments and returns
    (exit code, stderr text)."""
    for run in RUNS:
        name = csv_name(run)
        for out in (name, name[:-4] + ".again.csv"):
            assert call([*run.split(), "--out", out])[0] == 0, run
        with open(name, "rb") as fh, open(name[:-4] + ".again.csv", "rb") as again:
            first = fh.read()
            assert first and first == again.read(), run


def check_band():
    """The sigma columns of BAND_RUN's report are all the text 1."""
    with open(csv_name(BAND_RUN)) as fh:
        next(fh)
        for line in fh:
            assert line.split(",")[5:7] == ["1", "1"], line


def check_canonical():
    """Every field of the reports of RUNS is canonical text by its column's
    spec in stpg.cli: a float the text '%.17g' gives it, an integer the text
    str gives it."""
    from stpg import cli

    headers = (cli.MOMENTS_HEADER, cli.CONVERGENCE_HEADER, cli.INFSUP_HEADER,
               cli.SOLVE_HEADER)
    specs = {",".join(header): tuple(header.values()) for header in headers}
    canonical = {"s": str, "d": lambda f: str(int(f)),
                 ".17g": lambda f: format(float(f), ".17g")}
    names = sorted(set(glob.glob("*.csv")) - set(glob.glob("*.again.csv")))
    assert names == sorted(map(csv_name, RUNS)), names
    for name in names:
        with open(name) as fh:
            kinds = specs[next(fh).rstrip("\n")]
            lines = [line for line in fh.read().splitlines() if not line.startswith("# ")]
        assert all(line.count(",") == len(kinds) - 1 for line in lines), name
        fields = ",".join(lines).split(",")
        # each distinct text of a column once
        for column, kind in enumerate(kinds):
            for field in set(fields[column::len(kinds)]):
                assert canonical[kind](field) == field, (name, field)


def check_failures(call):
    """Each run of FAILURES exits with its code, prints one stderr line (a
    reason run its REASON_LINES line) and leaves no CSV."""
    for code, runs in FAILURES.items():
        for run in runs:
            status, err = call([*run.split(), "--out", "none.csv"])
            assert status == code, (run, status, err)
            assert len(err.splitlines()) == 1, (run, err)
            if run in REASON_LINES:
                assert err == REASON_LINES[run] + "\n", (run, err)
            assert not os.path.exists("none.csv"), run


def check_fresh_processes(command, python=sys.executable):
    """What needs a process of its own: a report to /dev/stdout is the
    solve report's bytes, written in place, importing stpg loads none of
    its modules, and a call of each subcommand through stpg.cli.main, each
    written to the null device, loads no scipy module: scipy serves the
    tests' oracles alone."""
    written = subprocess.run([*command, "solve", "--out", "/dev/stdout"],
                             capture_output=True, check=True).stdout
    with open(csv_name("solve"), "rb") as fh:
        assert written == fh.read()
    subprocess.run([python, "-c", "import stpg, sys; "
                    "assert not [m for m in sys.modules if m.startswith('stpg.')]"],
                   check=True)
    subprocess.run([python, "-c", "import os, sys; from stpg.cli import main; "
                    "assert not any(main([run, '--out', os.devnull]) for run in sys.argv[1:]); "
                    "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']",
                    "moments", "convergence", "infsup", "solve"], check=True)


def main(command):
    def call(args):
        result = subprocess.run([*command, *args], capture_output=True, text=True,
                                timeout=TIMEOUT)
        return result.returncode, result.stderr

    check_reruns(call)
    check_band()
    check_canonical()
    check_fresh_processes(command)
    check_failures(call)
    print(f"{len(RUNS)} runs rerun byte for byte; "
          f"{sum(map(len, FAILURES.values()))} failures exit as documented")


if __name__ == "__main__":
    main(sys.argv[1:] or ["stpg"])
