import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import lzma
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from conftest import ConstantCoeffs, forbid_dense_solves
from stpg import cli, fem, oracle, solver, stochastic
from stpg import constants as consts

ROOT = Path(__file__).resolve().parents[1]


def _fmt(value) -> str:
    """One value as the CSV prints it, by its type: the writer's
    independent oracle."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _solve_rows(times, y, v):
    """The (interval, t, dof, value) rows of a solve's right endpoint times,
    profile y and mode v, one at a time: the value at interval i and dof d
    is y_i * v_d."""
    v = v.tolist()
    for i, (t, y_i) in enumerate(zip(times.tolist(), y.tolist()), 1):
        for dof, value in enumerate(v):
            yield i, t, dof, y_i * value


def _disc(config, n_cells, n_steps):
    """The CLI's spatial pair of a configuration on its uniform grid."""
    return solver.Discretization(cli._discretization(config, n_cells, n_steps),
                                 solver.TimeGrid.uniform(1.0, n_steps))


def _run(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "stpg.cli", *args],
                          capture_output=True, text=True, **kwargs)


def test_usage_error_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    result = _run(["moments", "--case", "nope", "--out", str(out)])
    assert result.returncode == cli.EXIT_USAGE
    result = _run(["moments"])  # missing --out
    assert result.returncode == cli.EXIT_USAGE
    result = _run(["frobnicate", "--out", str(out)])
    assert result.returncode == cli.EXIT_USAGE


def test_numerical_failure_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    result = _run(["solve", "--case", "b", "--omega", "0", "--out", str(out)])
    assert result.returncode == cli.EXIT_NUMERICAL
    assert "stpg" in result.stderr


def test_resource_cap_exit_code(tmp_path):
    # the memory check is the one limit on a run's size: the profile of
    # 10^11 steps alone needs 800 GB
    out = tmp_path / "x.csv"
    result = _run(["solve", "--steps", "100000000000", "--out", str(out)])
    assert result.returncode == cli.EXIT_RESOURCE
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("stpg: resource cap:")
    assert list(tmp_path.iterdir()) == []


def test_refused_convergence_level_writes_no_csv(tmp_path, capsys, monkeypatch):
    # a level that does not fit fails the run as any other size does: with
    # 1 MiB of memory the rule and the levels j = 2 to 4 fit, the 8 paths
    # of j = 5 (1,024 steps, 118 values per step) do not, and no table is
    # written
    _patch_available_memory(monkeypatch, 256)
    levels = []
    discretization = cli._discretization

    def recording(config, n_cells, *args):
        levels.append(n_cells)
        return discretization(config, n_cells, *args)

    monkeypatch.setattr(cli, "_discretization", recording)
    code, err = _main(["convergence", "--j-min", "2", "--j-max", "7",
                       "--out", str(tmp_path / "conv.csv")], capsys)
    assert code == cli.EXIT_RESOURCE and levels == [4, 8, 16, 32]
    (line,) = err
    assert re.fullmatch(r"stpg: resource cap: a convergence block of 8 paths x 1024 steps "
                        r"needs \d+ bytes, \d+ of them for the spatial pair, more than the "
                        r"1048576 bytes of available memory", line)
    assert list(tmp_path.iterdir()) == []


def test_solve_zero_case_writes_zero_file(tmp_path):
    out = tmp_path / "solve.csv"
    result = _run(["solve", "--case", "zero", "--cells", "4", "--steps", "4",
                   "--out", str(out)])
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.SOLVE_HEADER)
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(values) == 4 * 3
    assert all(v == 0.0 for v in values)


def test_solve_matches_oracle_at_final_time(tmp_path):
    out = tmp_path / "solve.csv"
    result = _run(["solve", "--case", "constant", "--cells", "16", "--steps", "64",
                   "--out", str(out)])
    assert result.returncode == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    final = np.array([float(r[3]) for r in rows if r[0] == "64"])
    from stpg.oracle import ModeSolution
    mode = ModeSolution.for_dim(1.0, 1.0, 1)
    nodes = np.arange(1, 16) / 16.0
    exact = mode.time_profile(1.0) * np.sin(np.pi * nodes)
    # nodal values sit within discretization error of the exact profile
    assert np.max(np.abs(final - exact)) < 5e-3


def _exact_profile(pair, n_steps, a, c0):
    """The profile of uniform_energy's step recurrence in exact arithmetic,
    y_j = g y_(j-1) + c0 tw_j beta_1 / (1 + x) from y_(-1) = 0, with
    x = a lam_1 / (2 N) and g = (1 - x) / (1 + x): the float inputs a, c0,
    lam_1, beta_1 and the time weights tw_j are taken as exact values."""
    lam, beta = map(Fraction, pair.excited_mode)
    x = Fraction(a) * lam / (2 * n_steps)
    g = (1 - x) / (1 + x)
    y, profile = Fraction(0), []
    for tw in solver.time_weights(solver.TimeGrid.uniform(1.0, n_steps)).tolist():
        y = g * y + Fraction(c0) * Fraction(tw) * beta / (1 + x)
        profile.append(y)
    return profile


@pytest.mark.parametrize("argv", [
    ["--omega", "1e308", "--steps", "2"],
    ["--omega", "1.7976931348623157e308", "--dim", "2", "--steps", "8"],
    ["--omega", "1.7976931348623157e308", "--dim", "1", "--steps", "1"],
    ["--omega", "1.7976931348623157e308", "--dim", "1", "--steps", "3"],
], ids=" ".join)
def test_solve_near_the_float_maximum_matches_exact_arithmetic(tmp_path, capsys, argv):
    # a = omega, so x = k a lam_1 / 2 overflows, while every exact value is
    # subnormal, where no relative bound holds: each is within 8 units of
    # the least subnormal (4 measured)
    out = tmp_path / "x.csv"
    argv = ["solve", "--case", "lognormal", *argv]
    assert _main([*argv, "--out", str(out)], capsys) == (cli.EXIT_OK, [])
    config = cli.config_from_args(cli.build_parser().parse_args([*argv, "--out", str(out)]))
    pair = fem.assemble(fem.build_mesh(config.dim, config.n_cells[0], config.degree))
    profile = _exact_profile(pair, config.n_steps[0], config.omega, 1.0)
    v = [Fraction(value) for value in pair.excited_vector.tolist()]
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == len(profile) * len(v)
    exact = [profile[int(i) - 1] * v[int(d)] for i, _, d, _ in rows]
    assert 0 < max(map(abs, exact)) < Fraction(np.finfo(float).tiny)
    for (*_, value), want in zip(rows, exact):
        assert abs(Fraction(float(value)) - want) <= 8 * Fraction(5e-324)


def test_uniform_energy_matches_exact_arithmetic_where_its_terms_overflow():
    # c0^2 overflows at c0 = 1e300, and x = k a lam_1 / 2 at the float
    # maximum; the exact energies k lam_1 sum_j y_j^2 of the profiles in
    # rational arithmetic, 6e-19 to 4e298 at c0 = 1e300, are met within
    # 1e-14 relative (6.4e-15 measured), and those below the least normal
    # float within 4 units of the least subnormal (1.8 measured)
    pair = fem.assemble(fem.build_mesh(1, 8, 1))
    lam = Fraction(pair.excited_mode[0])
    for n_steps in (1, 2, 4, 64):
        for a in (1e150, 1e160, 1e200, 1e300, 1.7976931348623157e308):
            c0 = np.array([1.0, 1e300])
            with np.errstate(over="ignore", invalid="ignore"):
                energy = solver.uniform_energy(pair, n_steps, np.full(2, a), c0)
            # the profile is linear in c0
            unit = lam * sum(y * y for y in _exact_profile(pair, n_steps, a, 1.0)) / n_steps
            for got, amplitude in zip(energy.tolist(), c0.tolist()):
                exact = Fraction(amplitude) ** 2 * unit
                gap = abs(Fraction(got) - exact) if math.isfinite(got) else math.inf
                if exact >= Fraction(np.finfo(float).tiny):
                    assert gap <= Fraction(1e-14) * exact, (n_steps, a, amplitude, got)
                else:
                    assert gap <= 4 * Fraction(5e-324), (n_steps, a, amplitude, got)


def test_moments_csv_format(tmp_path):
    out = tmp_path / "m.csv"
    result = _run(["moments", "--case", "a", "--cells", "4", "--steps", "8",
                   "--n-quad-ladder", "8,16,32,64", "--jobs", "2",
                   "--out", str(out)])
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "case,N,p,estimate,flagged"
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 1 + 2 * 4  # header + two p values times four rungs
    trailer = [line for line in lines if line.startswith("#")]
    assert len(trailer) == 2
    assert all("classification" in line for line in trailer)
    # 17 significant digits, no locale separators
    first = data[1].split(",")
    assert first[0] == "a"
    assert "," not in first[3]
    assert len(first[3].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_infsup_csv(tmp_path):
    out = tmp_path / "i.csv"
    result = _run(["infsup", "--case", "a", "--cells", "4", "--steps", "4,8",
                   "--n-quad-ladder", "4", "--out", str(out)])
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.INFSUP_HEADER)
    assert len(lines) == 1 + 2 * 4
    for line in lines[1:]:
        cells = line.split(",")
        sigma_min, sigma_max = float(cells[5]), float(cells[6])
        assert abs(sigma_min - 1.0) < 1e-8
        assert abs(sigma_max - 1.0) < 1e-8


def test_infsup_weighted_constants_are_one_past_the_dense_cap():
    # criterion 1 at a trial size of 63 * 128 = 8,064, whose dense
    # space-time matrix would take 520 MB: the per-mode blocks are 128 x 128
    config = cli.ExperimentConfig(subcommand="infsup", case="a", dim=1,
                                  n_cells=(64,), n_steps=(128,), quad_ladder=(2,))
    rows = cli.run_infsup(config)
    assert len(rows) == 2
    for row in rows:
        assert abs(row[5] - 1.0) < 1e-8
        assert abs(row[6] - 1.0) < 1e-8


def test_moments_rejects_short_ladder(tmp_path):
    out = tmp_path / "m.csv"
    result = _run(["moments", "--case", "a", "--n-quad-ladder", "8,16",
                   "--out", str(out)])
    assert result.returncode == cli.EXIT_USAGE


def test_api_runs_match_subprocess(tmp_path):
    config = cli.ExperimentConfig(subcommand="moments", case="a", dim=2, degree=1,
                                  n_cells=(4,), n_steps=(8,),
                                  quad_ladder=(8, 16, 32, 64))
    rows, classifications, trailer = cli.run_moments(config)
    out = tmp_path / "m.csv"
    result = _run(["moments", "--case", "a", "--cells", "4", "--steps", "8",
                   "--n-quad-ladder", "8,16,32,64", "--out", str(out)])
    assert result.returncode == 0
    text = out.read_text()
    for row in rows:
        assert _fmt(row[3]) in text
    assert set(classifications) == {1.0, 2.0}


def _main(argv, capsys):
    """In-process run; returns (exit code, stderr lines)."""
    code = cli.main(argv)
    return code, capsys.readouterr().err.splitlines()


def _raise_large(*args):
    raise AssertionError("an array of n_dof values was formed")


@pytest.mark.parametrize("argv", [
    ["moments", "--cells", "400", "--steps", "4"],
    ["convergence", "--j-min", "7", "--j-max", "7"],
    ["infsup", "--cells", "400", "--steps", "4"],
], ids=lambda argv: argv[0])
def test_2d_runs_but_solve_form_no_array_of_n_dof_values(tmp_path, capsys, monkeypatch,
                                                         argv):
    # moments, convergence and infsup read lam_1, beta_1 and lam_max from
    # the 1-D pair: neither the eigenvalue sums nor the mode's outer product
    for name in ("eigenvalues", "excited_vector", "mode_vector"):
        monkeypatch.setattr(fem.SpatialPair, name, property(_raise_large))
    out = tmp_path / "x.csv"
    assert _main([*argv, "--dim", "2", "--out", str(out)], capsys) == (cli.EXIT_OK, [])
    assert out.exists()


def test_convergence_zero_case_writes_nan_rate(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code, err = _main(["convergence", "--case", "zero", "--j-min", "2", "--j-max", "3",
                       "--n-quad-ladder", "2", "--out", str(out)], capsys)
    assert code == cli.EXIT_OK and err == []
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[5] for row in rows] == ["0", "0"]
    assert [row[6] for row in rows] == ["nan", "nan"]


def test_unwritable_out_exits_with_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code, err = _main(["solve", "--cells", "4", "--steps", "4", "--out", str(out)],
                      capsys)
    assert code == cli.EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("stpg: error: cannot write")
    assert list(tmp_path.iterdir()) == []
    # a directory in place of the file: opening it for writing fails
    code, err = _main(["solve", "--cells", "4", "--steps", "4",
                       "--out", str(tmp_path)], capsys)
    assert code == cli.EXIT_USAGE and len(err) == 1
    assert list(tmp_path.iterdir()) == []


_NO_INTERVAL = [["infsup", "--steps", "0"], ["infsup", "--steps", "4,0"],
                ["infsup", "--steps", "-10"], ["solve", "--steps", "0"],
                ["moments", "--steps", "0"]]


@pytest.mark.parametrize("argv", _NO_INTERVAL, ids=" ".join)
def test_grid_of_no_interval_exits_with_one_line(tmp_path, capsys, argv):
    # refused before the cap and the memory counts, which divide by its
    # size (infsup at -10 steps counts no value per node)
    code, err = _main([*argv, "--out", str(tmp_path / "x.csv")], capsys)
    assert (code, err) == (cli.EXIT_USAGE, ["stpg: error: need at least one time interval"])
    assert list(tmp_path.iterdir()) == []


def test_moments_builds_no_time_grid(tmp_path, capsys, monkeypatch):
    # the closed form takes the step count, so a rung of 10^7 steps holds
    # nothing per step and no grid is built
    def forbidden(*args):
        raise AssertionError("moments built a time grid")

    monkeypatch.setattr(solver.TimeGrid, "__post_init__", forbidden)
    out = tmp_path / "m.csv"
    code = _main(["moments", "--steps", str(10 ** 7), "--out", str(out)], capsys)
    assert code == (cli.EXIT_OK, []) and out.exists()


@pytest.mark.parametrize("argv", [["solve", "--steps", str(10 ** 15)],
                                  ["infsup", "--n-quad-ladder", str(10 ** 15)]])
def test_unallocatable_size_exits_with_one_line(tmp_path, capsys, argv):
    # 10**15 float64 values need 8 PB, beyond the 47-bit address space, so
    # the allocation fails at once even where memory is overcommitted
    out = tmp_path / "x.csv"
    code, err = _main(argv + ["--out", str(out)], capsys)
    assert code == cli.EXIT_RESOURCE
    assert len(err) == 1 and err[0].startswith("stpg: resource cap:")
    assert list(tmp_path.iterdir()) == []


def _patch_available_memory(monkeypatch, pages):
    # the memory reading is patched down, so no size here allocates much;
    # None where it cannot be told
    monkeypatch.setattr(cli, "_available_memory",
                        lambda: None if pages is None else 4096 * pages)


def test_available_memory_is_meminfo_else_physical(tmp_path, monkeypatch):
    # the reader behind the process's cached value
    read = cli._available_memory.__wrapped__
    meminfo = tmp_path / "meminfo"
    meminfo.write_bytes(b"MemTotal:       8222320 kB\nMemFree:  100 kB\n"
                        b"MemAvailable:    7480012 kB\nBuffers:  1 kB\n")
    monkeypatch.setattr(cli, "_MEMINFO", str(meminfo))
    assert read() == 7480012 * 1024
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2000}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
    # no MemAvailable line (kernels before 3.14), or no file: physical memory
    meminfo.write_bytes(b"MemTotal:       8222320 kB\n")
    assert read() == 4096 * 2000
    monkeypatch.setattr(cli, "_MEMINFO", str(tmp_path / "missing"))
    assert read() == 4096 * 2000

    def unknown(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(os, "sysconf", unknown)
    assert read() is None


@pytest.mark.parametrize("pages,steps,need", [
    # the hat pair's 3 values per dof, 4 values per step of the profile,
    # the report's write (7 values per dof and 24 for each of the 4,095
    # values of a block of 585 intervals), and the 16,384 bytes of a run's
    # small objects
    (10, 1000, "a 1000 x 7 solution written 4095 values at a time needs 835184 bytes, "
               "168 of them for the spatial pair"),
    # the report is written in one block of 700 values: 154,544 counted
    # bytes, which 38 pages hold
    (37, 100, "a 100 x 7 solution written 700 values at a time needs 154544 bytes, "
              "168 of them for the spatial pair"),
    (38, 100, None),
    (39, 100, None),
    (40, 100, None),
    (53, 100, None),
    (80, 100, None),
    (None, 1000, None),  # the memory cannot be told: no check
])
def test_time_steps_checked_against_physical_memory(tmp_path, capsys, monkeypatch,
                                                    pages, steps, need):
    _patch_available_memory(monkeypatch, pages)
    out = tmp_path / "x.csv"
    result, err = _main(["solve", "--steps", str(steps), "--out", str(out)], capsys)
    if need is None:
        assert result == cli.EXIT_OK and err == [] and out.exists()
    else:
        assert result == cli.EXIT_RESOURCE
        assert err == [f"stpg: resource cap: {need}, more than the {4096 * pages} "
                       "bytes of available memory"]
        assert list(tmp_path.iterdir()) == []


def test_pair_share_is_named_when_the_pair_does_not_fit(tmp_path, capsys, monkeypatch):
    # 20,000 splines: the pair's 20,000 x 20,000 matrices, six of them and
    # eigh's LAPACK memory, are 29 GB, against 8 GiB of available memory,
    # while the report's write, one block of the whole interval's 20,000
    # values beside 7 values per dof, is 5.0 MB, which the message names
    _patch_available_memory(monkeypatch, 1 << 21)
    out = tmp_path / "x.csv"
    code, err = _main(["solve", "--degree", "2", "--cells", "20000", "--steps", "1",
                       "--out", str(out)], capsys)
    assert code == cli.EXIT_RESOURCE
    pair = 8 * (6 * 20000 ** 2 + fem._eigh_values(20000) + 2 * np.getbufsize())
    (line,) = err
    match = re.fullmatch(r"stpg: resource cap: a 1 x 20000 solution written 20000 values at "
                         r"a time needs (\d+) "
                         rf"bytes, {pair} of them for the spatial pair, more than the "
                         rf"{4096 << 21} bytes of available memory", line)
    write = 8 * (cli.WRITE_TEXT + cli.WRITE_DOF) * 20000
    assert match and int(match[1]) == pair + 8 * cli.PROFILE_VALUES + write + cli.RUN_BYTES
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps,code", [(8192, cli.EXIT_RESOURCE), (4096, cli.EXIT_OK)])
def test_infsup_report_checked_against_available_memory(tmp_path, capsys, monkeypatch,
                                                        steps, code):
    # a grid of one dof and 8,192 or 4,096 steps, whose k_max takes two
    # blocks of as many widths, up to np.getbufsize() each, beside the
    # hat pair's 2 values (infsup reads its eigenvalues alone), the run's
    # small objects and the 2 nodes' 360 bytes each: 148,192 bytes at
    # 8,192 steps, 82,656 at 4,096, against 122,880 of memory
    _patch_available_memory(monkeypatch, 30)
    out = tmp_path / "x.csv"
    result, err = _main(["infsup", "--case", "lognormal", "--cells", "2", "--steps",
                         str(steps), "--n-quad-ladder", "2", "--out", str(out)], capsys)
    assert result == code
    if code == cli.EXIT_RESOURCE:
        rows = 2 * (cli.NODE_BYTES + cli.COLUMN_BYTES + cli.ROW_BYTES)
        need = 8 * (2 + 2 * steps) + rows + cli.RUN_BYTES
        assert err == [f"stpg: resource cap: an infsup report of 1 x 2 rows needs {need} "
                       "bytes, 16 of them for the spatial pair, more than the 122880 bytes "
                       "of available memory"]
        assert list(tmp_path.iterdir()) == []
    else:
        assert err == [] and out.exists()


@pytest.mark.parametrize("subcommand,pages", [
    ("convergence", 10), ("infsup", 10), ("convergence", 30), ("infsup", 30),
], ids=["convergence", "infsup", "convergence-rule-alone-fits", "infsup-rule-alone-fits"])
def test_parameter_rule_checked_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                   subcommand, pages):
    # a rule of 1,000 nodes at 81 bytes each, with what the run holds per
    # node (80 bytes; in infsup also 112 bytes of the columns that need no
    # grid and a 168-byte row for each of its 2 x 2 grids), beside a run's
    # small objects, against 10 or 30 pages of
    # memory: the run stops before the rule is built, and a convergence
    # run writes no truncated table. In 30 pages (122,880 bytes) the rule
    # alone (97,384 bytes) would fit
    _patch_available_memory(monkeypatch, pages)

    def unbuilt(*args, **kwargs):
        raise AssertionError("the rule was built before its memory was checked")

    monkeypatch.setattr(stochastic, "quadrature", unbuilt)
    out = tmp_path / "x.csv"
    code, err = _main([subcommand, "--n-quad-ladder", "1000", "--out", str(out)], capsys)
    assert code == cli.EXIT_RESOURCE
    per_node = 81 + 80 + (112 + 168 * 4 if subcommand == "infsup" else 0)
    assert err == [f"stpg: resource cap: a rule of 1000 parameter nodes needs "
                   f"{per_node * 1000 + 16384} bytes, more than the {4096 * pages} bytes "
                   "of available memory"]
    assert list(tmp_path.iterdir()) == []


def _traced_peak(work):
    """Bytes work allocates at peak, past what it holds once caches are warm."""
    work()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cells,steps,errors", [
    # a rung of 4,096 paths, whose arrays are all it holds: no grid, and
    # nothing per step at 10^7 steps either
    (64, 1000, False),
    (64, 10 ** 7, False),
    # a convergence level of 16 paths: blocks of 2 of 20,000 steps and
    # 10 of 5,000, whose profiles outweigh the grid's cached values, and
    # one block at 128 steps, where numpy's two buffers weigh a third
    (2, 20000, True),
    (64, 5000, True),
    (16, 128, True),
])
def test_sweep_memory_count_pins_the_traced_peak(monkeypatch, cells, steps, errors):
    subcommand = "convergence" if errors else "moments"
    config = cli.ExperimentConfig(subcommand=subcommand, case="lognormal", dim=1)
    model, domain = cli._setup(config.case)
    checked = []
    monkeypatch.setattr(cli, "_check_memory",
                        lambda need, what, pair: checked.append(need - pair))
    paths = 16 if errors else 4096
    pair = cli._discretization(config, cells, steps, paths=paths)
    blocks = []
    profile = solver.uniform_profile

    def recording(pair, n_steps, a, c0):
        blocks.append(len(a))
        return profile(pair, n_steps, a, c0)

    monkeypatch.setattr(solver, "uniform_profile", recording)
    if errors:
        # a new grid for each run, so that the trace sees the values the
        # error evaluation caches on it, which the count holds from the
        # first path on
        nodes, _ = stochastic.quadrature(domain, paths)

        def level():
            grid = solver.TimeGrid.uniform(1.0, steps)
            return cli._mode_errors(solver.Discretization(pair, grid),
                                    *cli._paths(model, nodes))

        peak = _traced_peak(level)
        block = min(16, cli._block_paths(steps))
        # _traced_peak runs the level twice
        assert blocks == 2 * [min(block, 16 - start) for start in range(0, 16, block)]
    else:
        # the rung's rule and the closed form on it, with no grid and no profile
        def rung():
            nodes, _ = stochastic.quadrature(domain, paths)
            return cli._moment_values(model, pair, steps, nodes)

        peak = _traced_peak(rung)
        assert blocks == []
    # the pair was built before the trace, so its share is left out (in a
    # convergence level also the 1-D matrices that rho reads)
    (counted,) = checked
    if not errors:
        # the trace holds the rung's arrays, not a run's small objects
        counted -= cli.RUN_BYTES
    assert 0.85 * counted <= peak <= 1.05 * counted


@pytest.mark.parametrize("config", [
    # 199,999 hat dofs, whose closed forms hold 3 values each at peak, 4.8
    # MB, beside a rung of 32 paths
    cli.ExperimentConfig(subcommand="moments", case="a", dim=1, n_cells=(200000,),
                         quad_ladder=(4, 8, 16, 32)),
    # 400 splines, whose 1-D matrices, n_dof x n_dof, outweigh everything
    # else of a solve of one step: 6.4 MB each
    cli.ExperimentConfig(subcommand="solve", case="constant", dim=1, degree=2,
                         n_cells=(400,), n_steps=(1,)),
], ids=["1", "2"])
def test_pair_memory_count_pins_the_traced_peak(monkeypatch, config):
    checked = []
    monkeypatch.setattr(cli, "_check_memory", lambda need, what, pair: checked.append(need))
    peak = _traced_peak(lambda: cli._report(config))
    mesh = fem.build_mesh(1, config.n_cells[0], config.degree)
    pair = 8 * fem.pair_values(mesh)
    counted = checked[-1]
    if config.subcommand == "solve":
        # the count covers the report's write, one block of n_dof values'
        # text beside the solution, which run_solve does not do
        counted -= 8 * cli.WRITE_TEXT * mesh.n_dof
    assert 0.98 * counted <= pair <= counted
    # tracemalloc does not see the LAPACK memory of the splines' eigh
    # (test_pair_memory_count_pins_the_resident_peak does)
    lapack = 0 if config.degree == 1 else 8 * fem._eigh_values(400)
    assert 0.95 * (counted - lapack) <= peak <= 1.05 * (counted - lapack)


# the peak resident memory of the child's own address space: unlike
# ru_maxrss, which a child starts from its parent's peak, VmHWM starts
# afresh at exec
_PAIR_RSS = """
from stpg import fem
def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
def read(cells):
    # what a moments or solve run reads from the pair
    pair = fem.assemble(fem.build_mesh(1, cells, {degree}))
    return pair.max_eigenvalue, pair.excited_mode, pair.excited_vector
read(8)  # LAPACK loaded
before = peak()
read({cells})
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM")
@pytest.mark.parametrize("degree,cells", [(1, 1000000), (2, 1000)], ids=["1", "2"])
def test_pair_memory_count_pins_the_resident_peak(degree, cells):
    # the peak of resident memory while a fresh interpreter reads the pair
    # is what pair_values counts: 24 MB of hat vectors at 10^6 cells, and
    # at 1,000 splines 8 MB per matrix, LAPACK's memory inside eigh
    # included
    code = _PAIR_RSS.format(degree=degree, cells=cells)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    grown = 1024 * int(out)
    counted = 8 * fem.pair_values(fem.build_mesh(1, cells, degree))
    assert 0.9 * counted <= grown <= 1.1 * counted


class _Sink:
    """A text stream that keeps only the number of characters written."""

    size = 0

    def write(self, text):
        self.size += len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("dim,cells,steps", [(1, 8, 20000), (2, 16, 2000), (1, 2, 20000)])
def test_solve_report_holds_one_interval_beside_the_solution(dim, cells, steps):
    config = cli.ExperimentConfig(subcommand="solve", case="constant", dim=dim,
                                  n_cells=(cells,), n_steps=(steps,))
    cli._write_report(_Sink(), cli.SOLVE_HEADER, cli.run_solve(config), ())
    tracemalloc.start()
    try:
        rows = cli.run_solve(config)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sink = _Sink()
        cli._write_report(sink, cli.SOLVE_HEADER, rows, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_dof = rows.v.size
    assert len(rows) == steps * n_dof and sink.size > 20 * len(rows)
    # the held profile and mode, which the count covers, and the grid's
    # nodes, which the row view reads the times from
    solution = 8 * (steps + n_dof) + 8 * (steps + 1)
    assert solution <= held <= solution + 4096
    # one block of at most WRITE_VALUES values and its text beside them,
    # whatever the step count, and WRITE_DOF values per dof: 4,096
    # intervals of one dof (cells 2), 585 of 7 and 18 of 225. Where the
    # mode repeats its values (4 distinct of 7), fewer are formatted
    block = 8 * (cli.WRITE_TEXT * cli._write_block(steps, n_dof) * n_dof
                 + cli.WRITE_DOF * n_dof)
    assert held + 0.7 * block <= peak <= held + block


@pytest.mark.parametrize("cells", [2, 8])  # 1 and 7 dofs
def test_memory_count_covers_the_time_weights(monkeypatch, cells):
    # at 20,000 steps the grid and its per-step temporaries outweigh a run
    # of few dofs: a convergence level's count covers the values it caches
    # on the grid (its closed form forms no time weights), a solve's count
    # its closed-form profile, and the time weights stay within their bound
    checked = []
    monkeypatch.setattr(cli, "_check_memory",
                        lambda need, what, pair: checked.append((need, pair)))
    config = cli.ExperimentConfig(subcommand="convergence", case="lognormal", dim=1)
    model, domain = cli._setup(config.case)
    pair = cli._discretization(config, cells, 20000, paths=1)
    nodes, _ = stochastic.quadrature(domain, 1)
    solve = cli.ExperimentConfig(subcommand="solve", case="constant", dim=1,
                                 n_cells=(cells,), n_steps=(20000,))
    # imports and caches warm: the Gauss rule of the error oracle
    cli._mode_errors(solver.Discretization(pair, solver.TimeGrid.uniform(1.0, 4)),
                     *cli._paths(model, nodes))
    grid = solver.TimeGrid.uniform(1.0, 20000)
    tracemalloc.start()
    try:
        cli.run_solve(solve)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solver.time_weights(grid)
        weights_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cli._mode_errors(solver.Discretization(pair, grid), *cli._paths(model, nodes))
        level_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (level, level_pair), (counted, _) = checked
    # the level's pair was built before the trace, so its share is left out
    assert level_peak <= level - level_pair
    assert solve_peak <= counted
    # the weights, two more values and a mask per step beside the nodes
    assert 8 * 20000 <= weights_peak <= (8 * 3 + 1) * 20000 + 4096


@pytest.mark.parametrize("argv,low", [
    pytest.param(["solve", "--cells", "16", "--steps", "2000"], 0.85, id="solve"),
    # a rung of 4,096 paths, whose arrays outweigh the run's small objects
    pytest.param(["moments", "--cells", "16", "--steps", "300", "--n-quad-ladder",
                  "512,1024,2048,4096"], 0.85, id="moments"),
    pytest.param(["convergence", "--j-min", "4", "--j-max", "4", "--n-quad-ladder", "16"],
                 0.85, id="convergence"),
    # 159,201 dofs, the hat pair 399 of them: beside it a rung of 4,096
    # paths, a solve that writes 636,804 rows (its count holds the text of
    # every value of a whole-interval block, of which 0.37 is traced), and
    # the report rows of 10,000 nodes over two grids
    pytest.param(["moments", "--cells", "400", "--steps", "4", "--n-quad-ladder",
                  "512,1024,2048,4096"], 0.85, id="moments-400-cells"),
    pytest.param(["solve", "--cells", "400", "--steps", "4"], 0.3, id="solve-400-cells"),
    pytest.param(["infsup", "--cells", "400", "--steps", "4,8", "--case", "lognormal",
                  "--n-quad-ladder", "10000"], 0.85, id="infsup-400-cells"),
    # a level of 16,129 dofs and 16,384 steps
    pytest.param(["convergence", "--j-min", "7", "--j-max", "7"], 0.85, id="convergence-j-7"),
])
def test_2d_memory_count_pins_the_traced_peak(tmp_path, capsys, monkeypatch, argv, low):
    # in 2-D the excited mode is an outer product, and a solve's writer
    # and a convergence level's profiles and errors run beside it; the
    # memory check is the one limit on each run's size
    argv = [*argv, "--dim", "2", "--out", str(tmp_path / "x.csv")]
    assert _main(argv, capsys)[0] == cli.EXIT_OK  # imports and caches warm
    checked = []
    monkeypatch.setattr(cli, "_check_memory", lambda need, what, pair: checked.append(need))
    tracemalloc.start()
    try:
        code = _main(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == (cli.EXIT_OK, [])
    # a convergence or infsup run checks its parameter rule first
    *rule, counted = checked
    assert len(rule) == (argv[0] in ("convergence", "infsup"))
    assert low * counted <= peak <= 1.05 * counted


@pytest.mark.parametrize("argv,low", [
    # 19,999 hat dofs: the first sine held while the mode's load vector
    # and the eigenvalues are formed, 3 values a dof, outweigh the rung
    pytest.param(["moments", "--cells", "20000"], 0.85, id="moments"),
    # infsup reads the eigenvalues alone, and its count holds 2 values a dof
    pytest.param(["infsup", "--cells", "20000", "--steps", "4"], 0.85, id="infsup"),
])
def test_hat_pair_count_pins_the_traced_peak(tmp_path, capsys, monkeypatch, argv, low):
    argv = [*argv, "--dim", "1", "--out", str(tmp_path / "x.csv")]
    assert _main(argv, capsys)[0] == cli.EXIT_OK  # imports and caches warm
    checked = []
    monkeypatch.setattr(cli, "_check_memory", lambda need, what, pair: checked.append(need))
    tracemalloc.start()
    try:
        code = _main(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == (cli.EXIT_OK, [])
    assert low * checked[-1] <= peak <= 1.05 * checked[-1]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("argv", [
    ["moments", "--cells", "9", "--n-quad-ladder", "4,8,16,32"],
    ["solve", "--cells", "9", "--steps", "8"],
    ["infsup", "--cells", "4,9", "--steps", "4", "--n-quad-ladder", "2"],
], ids=lambda argv: argv[0])
def test_no_hat_run_assembles_a_matrix_or_forms_the_sines(tmp_path, capsys, monkeypatch,
                                                         argv, dim):
    # every value a hat run reads has a closed form: no 1-D matrix, no
    # basis and no sine but the first
    def forbidden(*args):
        raise AssertionError("a hat run assembled a matrix or formed the sines")

    monkeypatch.setattr(fem, "_assemble_1d_linear", forbidden)
    monkeypatch.setattr(fem.SpatialPair, "_basis", property(forbidden))
    sines = []
    hat_sines = fem._hat_sines
    monkeypatch.setattr(fem, "_hat_sines",
                        lambda n_cells, modes: sines.append(modes) or hat_sines(n_cells, modes))
    out = tmp_path / "x.csv"
    assert _main([*argv, "--dim", str(dim), "--out", str(out)], capsys) == (cli.EXIT_OK, [])
    assert out.exists() and set(sines) <= {1}


def _raise_dense(*args):
    raise AssertionError("a dense 2-D matrix was formed")


@pytest.mark.parametrize("argv", [
    ["moments", "--cells", "8", "--steps", "8", "--n-quad-ladder", "4,8,16,32"],
    ["solve", "--cells", "8", "--steps", "8"],
    ["convergence", "--j-min", "2", "--j-max", "3", "--n-quad-ladder", "4"],
    ["infsup", "--cells", "4,6", "--steps", "4", "--n-quad-ladder", "2"],
], ids=lambda argv: argv[0])
def test_no_cli_path_forms_a_dense_2d_matrix(tmp_path, capsys, monkeypatch, argv):
    for name in ("mass", "stiffness", "modes"):
        monkeypatch.setattr(fem.SpatialPair, name, property(_raise_dense))
    out = tmp_path / "x.csv"
    assert _main([*argv, "--dim", "2", "--out", str(out)], capsys) == (cli.EXIT_OK, [])
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["moments", "--n-quad-ladder", "4,8,16,32"],
    ["solve"],
], ids=lambda argv: argv[0])
def test_64_cell_2d_runs_stay_far_below_one_dense_matrix(tmp_path, capsys, monkeypatch,
                                                        argv):
    # 3,969 dofs: one dense 2-D matrix is 126 MB
    out = tmp_path / "x.csv"
    argv = [*argv, "--dim", "2", "--cells", "64", "--steps", "8", "--out", str(out)]
    # the parser, imports and caches warm: a process builds them once
    assert _main(argv, capsys)[0] == cli.EXIT_OK
    checked = []
    check = cli._check_memory
    monkeypatch.setattr(cli, "_check_memory",
                        lambda need, *args: checked.append(need) or check(need, *args))
    tracemalloc.start()
    try:
        code = _main(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == (cli.EXIT_OK, [])
    # the memory check counts the peak, and both stay far below
    (counted,) = checked
    assert peak <= 1.05 * counted < 16e6


def test_infsup_memory_count_pins_the_traced_peak(monkeypatch):
    checked = []
    monkeypatch.setattr(cli, "_check_memory", lambda need, what, pair: checked.append(need))
    for case, cells, steps, n_quad in (
            # the hat pairs of 511 and 1,023 dofs, each released before the
            # next, beside 10,000 nodes' report rows over 2 x 2 grids
            ("lognormal", (512, 1024), (2, 4), 10000),
            # one dof and 10^7 steps: no grid, only the two blocks of widths
            # that k_max takes at a time
            ("a", (2,), (10 ** 7,), 2),
            # 10,000 nodes' report rows over 2 x 2 grids
            ("lognormal", (4, 8), (4, 16), 10000)):
        config = cli.ExperimentConfig(subcommand="infsup", case=case, dim=1, n_cells=cells,
                                      n_steps=steps, quad_ladder=(n_quad,))
        peak = _traced_peak(lambda: cli.run_infsup(config))
        assert 0.9 * checked[-1] <= peak <= 1.05 * checked[-1], (case, cells, steps)


@pytest.mark.parametrize("config", [
    cli.ExperimentConfig(subcommand="convergence", case="lognormal", dim=1, j_min=2,
                         j_max=2, quad_ladder=(50000,)),
    cli.ExperimentConfig(subcommand="infsup", case="a", dim=1, n_cells=(4,), n_steps=(2,),
                         quad_ladder=(50000,)),
], ids=lambda config: config.subcommand)
def test_runs_of_many_nodes_stay_within_their_counts(monkeypatch, config):
    # 50,000 parameter nodes of small grids: what a run holds per node, its
    # arrays and (infsup) its report rows, outweighs every grid's work
    checked = []
    monkeypatch.setattr(cli, "_check_memory", lambda need, what, pair: checked.append(need))
    # imports and caches warm
    cli._report(dataclasses.replace(config, quad_ladder=(4,)))
    checked.clear()
    tracemalloc.start()
    try:
        rows = cli._report(config)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == (1 if config.subcommand == "convergence" else 50000)
    # the rule's count, then one per level or grid, each with the run's nodes
    assert len(checked) == 2 and checked[1] > 50000 * cli.NODE_BYTES
    assert peak <= max(checked)


# the SVD oracle's distance from the CLI's sigma = 1 on these tests' grids:
# at most 61.5 eps measured, at 16 steps. It is the SVD's rounding, which
# grows with the steps (1,310 eps at 32), not the pair's: the band identity
# behind the 1 holds to 3 eps (test_constants)
_SIGMA_EPS = 128


def _scalar_infsup_rows(config):
    """run_infsup's rows by the scalar formulas, as one loop over grids and
    nodes: a pair and a TimeGrid per grid, constants.cfl_constant on its
    k_max, and per node weighted_cfl and theoretical_constants(a, a)."""
    model, domain = cli._setup(config.case)
    nodes, _ = stochastic.quadrature(domain, config.quad_ladder[0],
                                     avoid=model.singular_points)
    rows = []
    for n_cells in config.n_cells:
        for n_steps in config.n_steps:
            disc = _disc(config, n_cells, n_steps)
            c_s = consts.cfl_constant(disc.pair, disc.grid.k_max)
            for omega in nodes.tolist():
                a = float(model.a(omega))
                if math.isfinite(a) and a > 0:
                    rows.append((config.case, n_cells, n_steps, omega, a, 1.0, 1.0, c_s,
                                 consts.weighted_cfl(a, c_s),
                                 *consts.theoretical_constants(a, a)))
                else:
                    rows.append((config.case, n_cells, n_steps, omega, a, math.nan,
                                 math.nan, c_s, math.nan, math.nan, math.nan))
    return rows


def _per_node_infsup_rows(config, stacked):
    """_scalar_infsup_rows with the sigma columns of the SVD oracle,
    constants.discrete_infsup on each valid node's mode blocks: one call
    per node, or with stacked one call per grid on every valid node's."""
    model, domain = cli._setup(config.case)
    nodes, _ = stochastic.quadrature(domain, config.quad_ladder[0],
                                     avoid=model.singular_points)
    valid = [a for a in map(model.a, nodes) if math.isfinite(a) and a > 0]
    sigmas = []
    for n_cells in config.n_cells:
        for n_steps in config.n_steps:
            disc = _disc(config, n_cells, n_steps)
            mu = np.multiply.outer(valid, disc.pair.eigenvalues)
            if stacked:
                lows, highs = (values.reshape(mu.shape) for values in
                               consts.discrete_infsup(*solver.mode_blocks(disc.grid,
                                                                          mu.ravel())))
            else:
                lows, highs = np.transpose([consts.discrete_infsup(
                    *solver.mode_blocks(disc.grid, row)) for row in mu], (1, 0, 2))
            sigmas += zip(lows.min(axis=1).tolist(), highs.max(axis=1).tolist())
    sigmas = iter(sigmas)
    return [row if math.isnan(row[5]) else (*row[:5], *next(sigmas), *row[7:])
            for row in _scalar_infsup_rows(config)]


def _check_per_node_rows(rows, expected):
    """rows are the expected rows, every column to its last bit but the
    sigma ones: the CLI's exact 1 and the oracle's within _SIGMA_EPS, or
    both nan."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        texts, wanted = _csv_rows([row, want])
        assert texts[:5] + texts[7:] == wanted[:5] + wanted[7:]
        if math.isnan(want[5]):
            assert texts[5:7] == ("nan", "nan")
            continue
        assert row[5:7] == (1.0, 1.0)
        assert all(abs(sigma - 1.0) <= _SIGMA_EPS * np.finfo(float).eps for sigma in want[5:7])


@pytest.mark.parametrize("dim,degree,cells,steps", [
    (1, 1, (4, 8), (4, 16)), (1, 2, (5,), (8, 3)), (2, 1, (4, 6), (4, 8))])
@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "one-node-stacks"])
def test_infsup_rows_are_the_per_node_rows_bit_for_bit(monkeypatch, dim, degree, cells,
                                                       steps, stacked):
    # case a with three nodes flagged mid-ladder: a = nan, a = 0, a < 0;
    # the oracle's blocks come in one stack per grid or one per node
    model, domain = cli._setup("a")
    nodes, _ = stochastic.quadrature(domain, 8, avoid=model.singular_points)
    flagged = {nodes[1]: math.nan, nodes[3]: 0.0, nodes[4]: -2.0}
    node_model = stochastic.CoefficientModel(
        a_fn=lambda w: flagged.get(float(w), model.a(w)), c0_fn=model.c0_fn,
        singular_points=model.singular_points)
    monkeypatch.setattr(cli, "_setup", lambda case: (node_model, domain))
    config = cli.ExperimentConfig(subcommand="infsup", case="a", dim=dim, degree=degree,
                                  n_cells=cells, n_steps=steps, quad_ladder=(8,))
    rows = cli.run_infsup(config)
    _check_per_node_rows(rows, _per_node_infsup_rows(config, stacked))
    assert sum(math.isnan(row[5]) for row in rows) == 3 * len(cells) * len(steps)


def _repeats_off_the_mirror(model, nodes):
    """Values of a on a 12-node rule that repeat at nodes that do not
    mirror each other, two of them a last bit apart, and two flagged."""
    after = np.nextafter(2.0, 3.0)
    return [2.0, after, 3.0, 2.0, 5.0, after, 3.0, 0.5, 0.5, math.nan, -0.0, 2.0]


@pytest.mark.parametrize("n_quad,values", [
    # case a at a rule size that is no power of two: 1 of its 3 mirrored
    # pairs has one value, the other 2 differ in their last bits
    (6, lambda model, nodes: [model.a(w) for w in nodes]),
    (12, _repeats_off_the_mirror),
], ids=["case-a-6-nodes", "repeats-off-the-mirror"])
@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "one-value-stacks"])
def test_infsup_takes_each_distinct_value_of_a_once(monkeypatch, n_quad, values, stacked):
    # each node's row, whatever other node shares its value of a, and -0
    # flagged; the run forms no mode block, so no value of a is taken twice
    model, domain = cli._setup("a")
    nodes, _ = stochastic.quadrature(domain, n_quad, avoid=model.singular_points)
    table = dict(zip(nodes.tolist(), values(model, nodes)))
    node_model = stochastic.CoefficientModel(
        a_fn=lambda w: table[float(w)], c0_fn=model.c0_fn,
        singular_points=model.singular_points)
    monkeypatch.setattr(cli, "_setup", lambda case: (node_model, domain))
    a = np.array([table[w] for w in nodes.tolist()])
    valid = a[np.isfinite(a) & (a > 0)]
    assert len({value.tobytes() for value in valid}) == 5 < len(valid)
    config = cli.ExperimentConfig(subcommand="infsup", case="a", dim=1, n_cells=(4, 5),
                                  n_steps=(4, 8), quad_ladder=(n_quad,))
    expected = _per_node_infsup_rows(config, stacked)

    def formed(*args):
        raise AssertionError("infsup formed mode blocks")

    monkeypatch.setattr(solver, "mode_blocks", formed)
    _check_per_node_rows(cli.run_infsup(config), expected)


def _bits(rows):
    """rows with each float as its 8 bytes, so that == compares every bit
    (-0 and nan included), and each other value as itself with its type."""
    return [tuple(np.float64(v).tobytes() if type(v) is float else (type(v), v) for v in row)
            for row in rows]


# values of a beside the generated ones: subnormal, tiny, huge and the
# float maximum, where a c_S product overflows, and the flagged kinds
_EDGE_A = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0,
           math.nextafter(1.0, 2.0), 1e300, 1.7976931348623157e308,
           math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0]


# floats with every bit of their mantissa drawn, from subnormal to the
# float maximum, beside hypothesis's own, which favour short mantissas
_MANTISSAS = st.builds(math.ldexp, st.integers(1 << 52, (1 << 53) - 1), st.integers(-1126, 971))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(), _MANTISSAS, st.sampled_from(_EDGE_A)),
                min_size=1, max_size=9))
@example(_EDGE_A)
def test_infsup_columns_are_the_scalar_formulas_bit_for_bit(values):
    # a generated value of a at each node of a rule, over grids whose c_S
    # spans three sizes
    model, domain = cli._setup("a")
    nodes, _ = stochastic.quadrature(domain, len(values))
    table = dict(zip(nodes.tolist(), values))
    node_model = stochastic.CoefficientModel(a_fn=lambda w: table[float(w)],
                                             c0_fn=model.c0_fn)
    config = cli.ExperimentConfig(subcommand="infsup", case="a", dim=1, n_cells=(3, 40),
                                  n_steps=(1, 7), quad_ladder=(len(values),))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_setup", lambda case: (node_model, domain))
        assert _bits(cli.run_infsup(config)) == _bits(_scalar_infsup_rows(config))


@pytest.mark.parametrize("config", [
    # duplicate entries: each grid reported as often as it is listed
    cli.ExperimentConfig(subcommand="infsup", case="a", n_cells=(8, 8), n_steps=(16, 16),
                         quad_ladder=(8,)),
    cli.ExperimentConfig(subcommand="infsup", case="a", dim=1, degree=2, n_cells=(4, 9),
                         n_steps=(3, 7), quad_ladder=(8,)),
    cli.ExperimentConfig(subcommand="infsup", case="lognormal", n_cells=(4, 3),
                         n_steps=(1, 10 ** 6 + 7, 2), quad_ladder=(32,)),
    cli.ExperimentConfig(subcommand="infsup", case="zero", dim=1, n_cells=(1000,),
                         n_steps=(4,), quad_ladder=(4,)),
], ids=["duplicates", "degree-2", "lognormal", "zero-1000-cells"])
def test_infsup_report_is_the_scalar_report_byte_for_byte(tmp_path, config):
    out = tmp_path / "x.csv"
    cli.write_csv(str(out), cli.INFSUP_HEADER, cli.run_infsup(config))
    expected = _scalar_infsup_rows(config)
    assert out.read_bytes() == _fmt_csv(cli.INFSUP_HEADER, expected, ()).encode("ascii")


@pytest.mark.parametrize("dim,degree", [(1, 1), (2, 1), (1, 2)])
def test_infsup_builds_each_input_once(monkeypatch, dim, degree):
    # one pair per --cells entry, duplicates included, each built once the
    # previous one is released; one k_max per distinct --steps value, with
    # no time grid (test_no_hat_run_assembles_a_matrix_or_forms_the_sines
    # bans the hat eigenvectors in every run)
    def forbidden(*args, **kwargs):
        raise AssertionError("infsup built a time grid")

    monkeypatch.setattr(solver.TimeGrid, "__post_init__", forbidden)
    built, alive = [], []
    assemble = fem.assemble

    def assembling(mesh):
        assert all(ref() is None for ref in alive), "the previous pair is alive"
        built.append(mesh.n_cells)
        pair = assemble(mesh)
        alive.append(weakref.ref(pair))
        return pair

    monkeypatch.setattr(fem, "assemble", assembling)
    widths = []
    uniform_k_max = solver.uniform_k_max
    monkeypatch.setattr(solver, "uniform_k_max",
                        lambda n: widths.append(n) or uniform_k_max(n))
    config = cli.ExperimentConfig(subcommand="infsup", case="a", dim=dim, degree=degree,
                                  n_cells=(4, 6, 4), n_steps=(3, 8, 3), quad_ladder=(4,))
    rows = cli.run_infsup(config)
    assert built == [4, 6, 4] and widths == [3, 8]
    assert len(rows) == 9 * 4


@pytest.mark.parametrize("cells,steps,message", [
    # the first grid: its steps before its cells
    ("1,4", "0", "need at least one time interval"),
    ("1,4", "4,0", "n_cells must be at least 2, got 1"),
    # every grid of the first cells entry before the next entry
    ("4,1", "4,0", "need at least one time interval"),
    ("4,1", "4,8", "n_cells must be at least 2, got 1"),
    ("4,1", "8,-3", "need at least one time interval"),
])
def test_infsup_reports_the_first_bad_grid(tmp_path, capsys, cells, steps, message):
    argv = ["infsup", "--cells", cells, "--steps", steps, "--out", str(tmp_path / "x.csv")]
    assert _main(argv, capsys) == (cli.EXIT_USAGE, [f"stpg: error: {message}"])
    # the rule is checked before any grid
    code, err = _main([*argv, "--n-quad-ladder", "0"], capsys)
    assert code == cli.EXIT_USAGE and "need at least one time interval" not in err[0]
    assert list(tmp_path.iterdir()) == []


def test_infsup_memory_is_checked_before_a_later_bad_step_count(tmp_path, capsys,
                                                                monkeypatch):
    # the rule fits in 10 pages, but the first grid's hat pair of 2,047
    # dofs at 2 values each (its eigenvalues) does not, and memory is
    # checked before the next grid's step count
    _patch_available_memory(monkeypatch, 10)
    argv = ["infsup", "--cells", "2048", "--steps", "4,0", "--out", str(tmp_path / "x.csv")]
    code, err = _main(argv, capsys)
    pair = 8 * 2 * 2047
    need = pair + 8 * 2 * 4 + 8 * (cli.NODE_BYTES + cli.COLUMN_BYTES + 2 * cli.ROW_BYTES) \
        + cli.RUN_BYTES
    assert code == cli.EXIT_RESOURCE
    assert err == [f"stpg: resource cap: an infsup report of 2 x 8 rows needs {need} bytes, "
                   f"{pair} of them for the spatial pair, more than the 40960 bytes of "
                   "available memory"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["convergence", "--j-min", "2", "--j-max", "4", "--n-quad-ladder", "5"],
    ["convergence", "--degree", "2", "--j-min", "2", "--j-max", "4",
     "--n-quad-ladder", "3"],
    ["convergence", "--dim", "2", "--j-min", "2", "--j-max", "3", "--n-quad-ladder", "3"],
    ["convergence", "--case", "b", "--j-min", "2", "--j-max", "3", "--n-quad-ladder", "4"],
    ["moments", "--cells", "4", "--steps", "8", "--n-quad-ladder", "4,8,16,32"],
    ["infsup", "--cells", "4", "--steps", "4", "--n-quad-ladder", "2"],
    ["solve", "--cells", "4", "--steps", "4"],
], ids=" ".join)
def test_no_cli_run_calls_the_per_path_oracle(tmp_path, capsys, monkeypatch, argv):
    # nor the dense forward solve, nor any dense solve or inverse
    def per_path(*args, **kwargs):
        raise AssertionError("a CLI run called the per-path error oracle")

    monkeypatch.setattr(oracle, "exact_error", per_path)
    monkeypatch.setattr(oracle, "ModeSolution", per_path)
    forbid_dense_solves(monkeypatch, per_path)
    out = tmp_path / "x.csv"
    assert _main([*argv, "--out", str(out)], capsys) == (cli.EXIT_OK, [])
    assert out.exists()


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1)])
def test_infsup_runs_no_dense_factorization(monkeypatch, dim, degree):
    # the weighted constants are the band identity's exact 1: no dense
    # Cholesky factor or solve of the Grams
    def dense(*args):
        raise AssertionError("dense factorization in infsup")

    monkeypatch.setattr(np.linalg, "cholesky", dense)
    monkeypatch.setattr(np.linalg, "solve", dense)
    config = cli.ExperimentConfig(subcommand="infsup", case="a", dim=dim, degree=degree,
                                  n_cells=(4, 6), n_steps=(4, 8), quad_ladder=(2,))
    rows = cli.run_infsup(config)
    assert len(rows) == 8
    assert all(row[5:7] == (1.0, 1.0) for row in rows)


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1)])
def test_infsup_runs_no_svd(tmp_path, capsys, monkeypatch, dim, degree):
    # nor the mode blocks or the SVD oracles that read them
    def svd(*args, **kwargs):
        raise AssertionError("infsup ran an SVD oracle")

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(solver, "mode_blocks", svd)
    monkeypatch.setattr(consts, "discrete_infsup", svd)
    monkeypatch.setattr(oracle, "dense_infsup", svd)
    out = tmp_path / "x.csv"
    argv = ["infsup", "--dim", str(dim), "--degree", str(degree), "--cells", "4,5",
            "--steps", "4,8", "--n-quad-ladder", "4", "--out", str(out)]
    assert _main(argv, capsys) == (cli.EXIT_OK, [])
    assert len(out.read_text().splitlines()) == 1 + 4 * 4


def _subparsers():
    """The subcommand parsers of build_parser, by name."""
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _flags(subparser):
    """The option strings a subcommand accepts, --help aside."""
    return {flag for action in subparser._actions if action.dest != "help"
            for flag in action.option_strings}


_ACCEPTED = {name: _flags(sub) for name, sub in _subparsers().items()}
# a value each option parses, so that only the subcommand can reject it
_VALUE = {"--case": "a", "--dim": "1", "--degree": "1", "--cells": "4", "--steps": "4",
          "--j-min": "2", "--j-max": "3", "--p": "1", "--n-quad-ladder": "8",
          "--seed": "0", "--omega": "0.25", "--jobs": "1", "--out": "x.csv"}


def test_each_subcommand_has_its_own_settable_values():
    assert {name: len(flags) for name, flags in _ACCEPTED.items()} == {
        "moments": 10, "convergence": 8, "infsup": 7, "solve": 7}
    common = {"--case", "--dim", "--degree", "--out"}
    assert all(flags >= common for flags in _ACCEPTED.values())
    assert set(_VALUE) == set().union(*_ACCEPTED.values())


def _usage_error(argv, capsys, tmp_path):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("stpg")
    assert list(tmp_path.iterdir()) == []


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        argv = ["infsup", "--cells", "4", "--steps", "4", "--n-quad-ladder", "2"]
        for _ in range(2):
            out = tmp_path / "ok" / "x.csv"
            out.parent.mkdir(exist_ok=True)
            assert _main([*argv, "--out", str(out)], capsys) == (cli.EXIT_OK, [])
        assert built == [1]
        # a usage error after a good call still exits 1 with one line
        (tmp_path / "bad").mkdir()
        _usage_error(["infsup", "--omega", "1"], capsys, tmp_path / "bad")
        assert built == [1]
    finally:
        cli._parser.cache_clear()
    # build_parser still builds a fresh parser, which main never uses
    assert build() is not build()


@pytest.mark.parametrize("subcommand,flag", [
    (name, flag) for name in _ACCEPTED
    for flag in sorted(set().union(*_ACCEPTED.values()) - _ACCEPTED[name])])
def test_option_of_another_subcommand_is_a_usage_error(tmp_path, capsys, subcommand,
                                                       flag):
    _usage_error([subcommand, flag, _VALUE[flag]], capsys, tmp_path)


@pytest.mark.parametrize("subcommand", sorted(_ACCEPTED))
def test_no_subcommand_takes_a_dof_cap(tmp_path, capsys, subcommand):
    # the memory check is the one limit on a run's size
    _usage_error([subcommand, "--max-dofs", "10"], capsys, tmp_path)


@pytest.mark.parametrize("argv", [
    ["moments", "--cells", "4,8"], ["moments", "--steps", "4,8"],
    ["solve", "--cells", "4,8"], ["solve", "--steps", "4,8"],
    ["convergence", "--n-quad-ladder", "4,8"], ["infsup", "--n-quad-ladder", "4,8"],
], ids=" ".join)
def test_list_where_one_value_is_read_is_a_usage_error(tmp_path, capsys, argv):
    _usage_error(argv, capsys, tmp_path)


@pytest.mark.parametrize("argv,message", [
    (["solve", "--cells", "4,8"], "argument --cells: invalid integer value: '4,8'"),
    (["moments", "--n-quad-ladder", "8,x"],
     "argument --n-quad-ladder: invalid integer list value: '8,x'"),
    (["moments", "--p", "1,y"], "argument --p: invalid number list value: '1,y'"),
    # a list that starts with a minus is a value, not an unknown option
    (["infsup", "--steps", "-.5,4"],
     "argument --steps: invalid integer list value: '-.5,4'"),
], ids=["integer", "integer list", "number list", "minus"])
def test_type_errors_name_the_expected_value(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"stpg {argv[0]}: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["infsup", "--cells", "-1,4"], "n_cells must be at least 2, got -1"),
    (["moments", "--p", "-1,2"], "moment order p must satisfy 1 <= p < inf, got -1.0"),
], ids=["cells", "p"])
def test_comma_list_starting_with_a_minus_reaches_the_range_check(tmp_path, capsys, argv,
                                                                   message):
    out = tmp_path / "x.csv"
    code, err = _main(argv + ["--out", str(out)], capsys)
    assert code == cli.EXIT_USAGE
    assert err == [f"stpg: error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("argv,own", [
    (["moments", "--cells", "4", "--steps", "6", "--p", "1,3",
      "--n-quad-ladder", "8,16,32,64", "--seed", "5", "--jobs", "3"],
     dict(n_cells=(4,), n_steps=(6,), p_values=(1.0, 3.0), quad_ladder=(8, 16, 32, 64))),
    (["convergence", "--j-min", "3", "--j-max", "4", "--n-quad-ladder", "16",
      "--jobs", "3"],
     dict(j_min=3, j_max=4, quad_ladder=(16,))),
    (["infsup", "--cells", "4,8", "--steps", "2,6", "--n-quad-ladder", "4"],
     dict(n_cells=(4, 8), n_steps=(2, 6), quad_ladder=(4,))),
    (["solve", "--cells", "4", "--steps", "6", "--omega", "0.3"],
     dict(n_cells=(4,), n_steps=(6,), omega=0.3)),
], ids=["moments", "convergence", "infsup", "solve"])
def test_config_from_args_maps_every_option_to_its_field(argv, own):
    common = ["--case", "b", "--dim", "2", "--degree", "2", "--out", "r.csv"]
    config = cli.config_from_args(cli.build_parser().parse_args(argv + common))
    expected = dict(own, subcommand=argv[0], case="b", dim=2, degree=2, out="r.csv")
    # every option but the no-effect --seed and --jobs names a field, and
    # each is set above
    dests = {action.dest for action in _subparsers()[argv[0]]._actions}
    assert dests - {"help", "seed", "jobs"} == set(expected) - {"subcommand"}
    config_fields = dataclasses.fields(cli.ExperimentConfig)
    assert set(expected) <= {field.name for field in config_fields}
    # a field the subcommand has no option for keeps its default
    for field in config_fields:
        assert getattr(config, field.name) == expected.get(field.name, field.default)


def _readme_examples():
    """The stpg calls of the README's command-line block, one per example."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("stpg ")]


def _perfbench(name):
    """The benchmark's module of that name, read from perfbench/."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_argv():
    return [list(call.argv) + ["--out", "x.csv"]
            for calls in _perfbench("workloads").WORKLOADS.values() for call in calls]


def test_readme_examples_cover_every_subcommand():
    assert sorted(argv[0] for argv in _readme_examples()) == sorted(_ACCEPTED)


@pytest.mark.parametrize("argv", _readme_examples() + _workload_argv(),
                         ids=" ".join)
def test_documented_and_benchmarked_calls_parse(argv):
    # a parse error would exit; each call names only options it reads
    cli.config_from_args(cli.build_parser().parse_args(argv))


def test_declared_specs_match_the_benchmark_schemas_and_references(monkeypatch):
    # perfbench/outputs.py imports its sibling workloads module by name
    monkeypatch.setitem(sys.modules, "workloads", _perfbench("workloads"))
    outputs = _perfbench("outputs")
    headers = {"moments": cli.MOMENTS_HEADER, "convergence": cli.CONVERGENCE_HEADER,
               "infsup": cli.INFSUP_HEADER, "solve": cli.SOLVE_HEADER}
    kinds = {"s": "str", "d": "int", ".17g": "float"}
    assert {kind: tuple(kinds[spec] for spec in header.values())
            for kind, header in headers.items()} == outputs.SCHEMAS
    # every stored reference CSV starts with its report's header line
    suffixes = set()
    for workload, calls in outputs.workloads.WORKLOADS.items():
        for call in calls:
            path = outputs.reference_path(workload, call)
            with (lzma.open if path.suffix == ".xz" else open)(path, "rt") as fh:
                assert fh.readline() == ",".join(headers[call.kind]) + "\n", path
            suffixes.add(path.suffix)
    assert suffixes == {".csv", ".xz"}


def test_csv_write_is_atomic(tmp_path):
    out = tmp_path / "report.csv"
    header = dict(a="d", b=".17g")
    cli.write_csv(str(out), header, [(1, 0.5)])
    assert out.read_text() == "a,b\n1,0.5\n"
    assert list(tmp_path.iterdir()) == [out]
    # a row that fails to format half-way leaves the old file untouched
    with pytest.raises(TypeError):
        cli.write_csv(str(out), header, [(2, 0.25), (3, object())])
    assert out.read_text() == "a,b\n1,0.5\n"
    assert list(tmp_path.iterdir()) == [out]


def _fmt_csv(header, rows, trailer=()):
    """The report as the per-value _fmt oracle prints it."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += ["# " + line for line in trailer]
    return "".join(line + "\n" for line in lines)


def _singular_setup(case):
    # a(w) is infinite at the node -0.25 of the 2-point rule only, so that
    # rung's paths fail and its estimates come back flagged as nan
    model = stochastic.CoefficientModel(a_fn=lambda w: 1.0 / np.abs(w + 0.25),
                                        c0_fn=lambda w: 1.0 + w)
    return model, stochastic.default_domain("a")


@pytest.mark.parametrize("config,singular", [
    (cli.ExperimentConfig(subcommand="moments", case="b", dim=1, n_cells=(4,),
                          n_steps=(4,), quad_ladder=(8, 16, 32, 64)), False),
    (cli.ExperimentConfig(subcommand="moments", case="a", dim=1, n_cells=(4,),
                          n_steps=(4,), quad_ladder=(2, 4, 8, 16),
                          p_values=(1.0, 2.5)), True),
    (cli.ExperimentConfig(subcommand="convergence", case="lognormal", dim=1,
                          j_min=2, j_max=3, quad_ladder=(4,)), False),
    (cli.ExperimentConfig(subcommand="infsup", case="a", dim=1, n_cells=(3,),
                          n_steps=(2, 4), quad_ladder=(2,)), True),
    (cli.ExperimentConfig(subcommand="solve", case="constant", dim=2, n_cells=(4,),
                          n_steps=(6,)), False),
])
def test_report_bytes_match_the_fmt_oracle(tmp_path, monkeypatch, config, singular):
    if singular:
        monkeypatch.setattr(cli, "_setup", _singular_setup)
    header, rows, trailer = cli._report(config)
    if singular:
        assert any(not math.isfinite(value) for row in rows for value in row[3:5])
    out = tmp_path / "report.csv"
    cli.write_csv(str(out), header, rows, trailer)
    if isinstance(rows, cli.SolveRows):
        rows = _solve_rows(rows.times, rows.y, rows.v)
    assert out.read_bytes() == _fmt_csv(header, rows, trailer).encode("ascii")


def test_write_csv_matches_fmt_on_every_value_kind(tmp_path):
    # flags (bool, np.bool_) and integers (int, np.int64) under d, and
    # floats (float, np.float64, np.float32) under .17g
    specs = ["s", "d", "d", "d", "d"] + [".17g"] * 9
    rows = [("x", True, np.bool_(False), np.int64(-7), 3, -0.0, math.inf, -math.inf,
             math.nan, np.float64(0.1), 5e-324, 1e300, 2.0 ** 60, np.float32(0.1)),
            ("yz", False, np.bool_(True), np.int64(2 ** 62), -4, 1 / 3, -5e-324, -1e300,
             np.float64(math.nan), np.float64(-2.5), 0.0, 1e-300, 123456789.0,
             np.float32(3))]
    header = {f"c{i}": spec for i, spec in enumerate(specs)}
    out = tmp_path / "kinds.csv"
    cli.write_csv(str(out), header, rows, ["note,1"])
    assert out.read_text() == _fmt_csv(header, rows, ["note,1"])
    assert out.read_text().splitlines()[1].split(",")[1:12] == [
        "1", "0", "-7", "3", "-0", "inf", "-inf", "nan", "0.10000000000000001",
        "4.9406564584124654e-324", "1.0000000000000001e+300"]
    assert out.read_text().splitlines()[2].split(",")[3] == "4611686018427387904"


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 0.1, 1.0]


def _special_solution(steps=12, dofs=101, distinct=None):
    """(times, y, v) of random values over 600 decades, y starting with
    nan, +-inf, +-0.0, the smallest subnormals, 1e300, 0.1 and 1, and every
    7th value of v one of them; or, if given, v drawn from that many
    distinct values, each at least once."""
    rng = np.random.default_rng(12)
    y, v = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            for n in (steps, dofs))
    y[:len(_SPECIAL)] = _SPECIAL
    v[::7] = np.resize(_SPECIAL, v[::7].size)
    if distinct is not None:
        pool = np.geomspace(1e-300, 1e300, distinct) * np.resize([1.0, -1.0], distinct)
        v = np.concatenate([pool, pool[rng.integers(0, distinct, dofs - distinct)]])
        assert len(np.unique(v)) == distinct
    return np.linspace(0.0, 1.0, steps + 1)[1:] ** 3, y, v


def _solve_case(dim, degree, cells, steps, grid):
    """(times, y, v) of a constant-case solve on a uniform or graded grid:
    the M-projection on the excited mode v_1 of the dense solve's interval
    values, and v_1."""
    mesh = fem.build_mesh(dim, cells, degree)
    nodes = np.linspace(0.0, 1.0, steps + 1)
    disc = solver.Discretization(pair=fem.assemble(mesh), grid=solver.TimeGrid(
        nodes ** 2 if grid == "graded" else nodes))
    v = disc.pair.excited_vector
    values = solver.solve_pathwise(ConstantCoeffs(), disc, 0.0)
    return disc.grid.nodes[1:], values @ (disc.pair.mass @ v), v


@pytest.mark.parametrize("case", [
    _special_solution,
    lambda: _solve_case(1, 2, 100, 11, "uniform"),
    lambda: _solve_case(1, 2, 100, 11, "graded"),
    lambda: _solve_case(2, 1, 11, 12, "uniform"),
    lambda: _solve_case(2, 1, 11, 12, "graded"),
    # an interval of 4,500 values in one block, or 40 intervals per block
    lambda: _special_solution(10, 4500),
    lambda: _special_solution(450, 100),
    # one interval per block, at WRITE_VALUES dofs and one more; blocks
    # of one interval, half full; and a last block of 7 of 40 intervals
    lambda: _special_solution(10, cli.WRITE_VALUES),
    lambda: _special_solution(10, cli.WRITE_VALUES + 1),
    lambda: _special_solution(10, cli.WRITE_VALUES // 2 + 1),
    lambda: _special_solution(47, 100),
    # v with every value distinct, or all equal (-0.0, then 0.1)
    lambda: _special_solution(30, 100, 100),
    lambda: (*_special_solution(30)[:2], np.full(100, -0.0)),
    lambda: (*_special_solution(30)[:2], np.full(100, 0.1)),
    # more distinct values than WRITE_VALUES, formatted an interval at a
    # time, and fewer: 30 of 500 dofs, in groups of 136
    # intervals, lines in blocks of 8, and a last group of 4
    lambda: _special_solution(11, 4500, cli.WRITE_VALUES + 9),
    lambda: _special_solution(140, 500, 30),
    # the dense-2d solve's 136 distinct of 961: groups of 28 intervals,
    # lines in blocks of 4, and a short last group and block
    lambda: _solve_case(2, 1, 32, 130, "uniform"),
    # blocks of 40 intervals whose heads narrow from 22 bytes (t = k/3)
    # to 9 (t = 14 + k/4), so the second block gets a narrower layout, and
    # a short last block of 10 after it
    lambda: (np.concatenate([np.arange(1, 41) / 3, 14 + np.arange(1, 51) / 4]),
             *_special_solution(90)[1:]),
], ids=["special-values", "1d-degree-2", "1d-degree-2-graded", "2d", "2d-graded",
        "interval-wider-than-a-chunk", "many-intervals-per-chunk", "interval-per-block",
        "one-value-dof-span", "half-full-blocks", "short-last-block", "v-all-distinct",
        "v-all-equal", "v-all-equal-positive", "distinct-above-write-values",
        "distinct-below-write-values", "dense-2d-short-last-group",
        "head-narrows-then-short-last-block"])
def test_interval_writer_matches_the_fmt_oracle(tmp_path, case):
    times, y, v = case()
    assert len(y) >= 10 and len(v) >= 100
    # the rows as the double loop over the profile and the mode gives them
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [(i + 1, times[i], dof, y[i] * v[dof])
                for i in range(len(y)) for dof in range(len(v))]
    out = tmp_path / "solve.csv"
    cli.write_csv(str(out), cli.SOLVE_HEADER, cli.SolveRows(times, y, v))
    assert out.read_bytes() == _fmt_csv(cli.SOLVE_HEADER, rows).encode("ascii")
    if case is _special_solution:
        printed = {line.split(",")[3] for line in out.read_text().splitlines()[1:]}
        assert {"nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324",
                "1.0000000000000001e+300"} <= printed


def test_writer_formats_each_distinct_product_once(monkeypatch):
    # the dense-2d solve: 128 intervals times the 136 distinct values of
    # its 961-value mode, each product formatted once
    config = cli.ExperimentConfig(subcommand="solve", case="constant", dim=2,
                                  n_cells=(32,), n_steps=(128,))
    rows = cli.run_solve(config)
    assert len(np.unique(rows.v)) == 136
    formatted = []
    g17_columns = cli.g17.g17_columns

    def counting(values):
        formatted.append(values.size)
        return g17_columns(values)

    monkeypatch.setattr(cli.g17, "g17_columns", counting)
    cli._write_report(_Sink(), cli.SOLVE_HEADER, rows, ())
    assert sum(formatted) == 128 * 136 and max(formatted) <= cli.WRITE_VALUES


class _Blocks(_Sink):
    """A _Sink that keeps the number of lines of each write."""

    def __init__(self):
        self.lines = []

    def write(self, text):
        self.lines.append(text.count(b"\n"))
        super().write(text)


def _wide_solution(dofs, distinct):
    """(times, y, v) of 3 intervals whose heads take 25 bytes, and a v of
    dofs values over 600 decades, distinct of them distinct."""
    rng = np.random.default_rng(5)
    pool = rng.standard_normal(distinct) * 10.0 ** rng.integers(-300, 300, distinct)
    v = np.concatenate([pool, pool[rng.integers(0, distinct, dofs - distinct)]])
    return np.arange(1, 4) * 1.2345678901234567e-05, rng.standard_normal(3), v


def _dense_2d_mode(cells, steps):
    config = cli.ExperimentConfig(subcommand="solve", case="constant", dim=2,
                                  n_cells=(cells,), n_steps=(steps,))
    rows = cli.run_solve(config)
    return rows.times, rows.y, rows.v


@pytest.mark.parametrize("case,distinct", [
    # every value distinct: one interval's 5,000 products per call
    (lambda: _wide_solution(5000, 5000), 5000),
    # 4,900 dofs of 630 distinct values: 6 intervals' products per call
    (lambda: _dense_2d_mode(71, 3), 630),
    (lambda: _dense_2d_mode(71, 14), 630),
], ids=["all-distinct", "2d-71-cells-3-steps", "2d-71-cells-14-steps"])
def test_wide_intervals_are_whole_blocks_each_formatted_in_one_call(monkeypatch, case,
                                                                    distinct):
    # above WRITE_VALUES dofs a block is one whole interval, and a group's
    # distinct products go to g17_columns in one call, never split
    times, y, v = case()
    n_steps, n_dof = len(y), len(v)
    assert n_dof > cli.WRITE_VALUES and len(np.unique(v)) == distinct
    assert cli._write_block(n_steps, n_dof) == 1
    formatted = []
    g17_columns = cli.g17.g17_columns

    def counting(values):
        formatted.append(values.size)
        return g17_columns(values)

    monkeypatch.setattr(cli.g17, "g17_columns", counting)
    sink = _Blocks()
    cli._write_report(sink, cli.SOLVE_HEADER, cli.SolveRows(times, y, v), ())
    assert sink.lines == [1] + [n_dof] * n_steps
    group = max(1, cli.WRITE_VALUES // distinct)
    assert formatted == [distinct * len(y[first:first + group])
                         for first in range(0, n_steps, group)]


@pytest.mark.parametrize("case,low", [
    (lambda: _wide_solution(4097, 4097), 0.85),
    (lambda: _wide_solution(20000, 20000), 0.85),
    (lambda: _dense_2d_mode(66, 5), 0.0),
    (lambda: _dense_2d_mode(71, 5), 0.0),
], ids=["all-distinct-4097", "all-distinct-20000", "2d-4225", "2d-4900"])
def test_write_of_a_wide_interval_stays_within_its_count(case, low):
    # one interval per block: the write holds its block's text and
    # WRITE_DOF values per dof, the mode among them; with every value
    # distinct and 25-byte heads that is 225 bytes a dof traced, against
    # 248 counted, and a 2-D mode of few distinct values holds about 0.55
    # of the count
    rows = cli.SolveRows(*case())
    n_dof = rows.v.size
    cli._write_report(_Sink(), cli.SOLVE_HEADER, rows, ())
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli._write_report(_Sink(), cli.SOLVE_HEADER, rows, ())
        peak = tracemalloc.get_traced_memory()[1] - held + 8 * n_dof
    finally:
        tracemalloc.stop()
    counted = 8 * (cli.WRITE_TEXT * cli._write_block(rows.y.size, n_dof) * n_dof
                   + cli.WRITE_DOF * n_dof)
    assert low * counted <= peak <= counted


class _FailingFile:
    """A file whose writes raise MemoryError once the header and the first
    block of a solve (or row) are written."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 2:
            raise MemoryError
        return self.fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("argv", [
    # 3 dofs x 2,000 steps: blocks of 1,365 and 635 intervals
    ["solve", "--cells", "4", "--steps", "2000"],
    ["infsup", "--cells", "3", "--steps", "2", "--n-quad-ladder", "2"],
], ids=["interval-stream", "per-row"])
def test_memory_error_while_writing_exits_with_one_line(tmp_path, capsys, monkeypatch,
                                                        argv):
    out = tmp_path / "report.csv"
    out.write_text("old\n")
    writes = []

    def failing_open(*args, **kwargs):
        writes.append(_FailingFile(open(*args, **kwargs)))
        return writes[-1]

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code, err = _main(argv + ["--out", str(out)], capsys)
    assert code == cli.EXIT_RESOURCE
    assert err == ["stpg: resource cap: out of memory while writing the report"]
    assert [fh.writes for fh in writes] == [3]
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


# the rank-one rows against the dense forward solve, their oracle: the
# other modes' loads are rounding errors of the excited mode's, and the
# closed form rounds otherwise than the step loop (at most 8.5e-16 at the
# tests' sizes; 2.2e-15 on the dense-2d solve and 1.6e-13 for splines at
# 64 cells, where S is worse conditioned); relative to the largest value
SOLVE_RTOL = 1e-14


def test_solve_rows_match_the_double_loop():
    config = cli.ExperimentConfig(subcommand="solve", case="constant", dim=2,
                                  n_cells=(4,), n_steps=(6,))
    model, _ = cli._setup(config.case)
    disc = _disc(config, 4, 6)
    rows = cli.run_solve(config)
    # the double loop over the profile and the mode, bit for bit
    loop = []
    for i in range(disc.grid.n_intervals):
        for dof in range(disc.n_dof):
            loop.append((i + 1, disc.grid.nodes[i + 1], dof, rows.y[i] * rows.v[dof]))
    assert len(rows) == len(loop) and list(_solve_rows(rows.times, rows.y, rows.v)) == loop
    sol = solver.solve_pathwise(model, disc, config.omega)
    assert np.max(np.abs(np.outer(rows.y, rows.v) - sol)) <= SOLVE_RTOL * np.max(np.abs(sol))


def test_run_solve_runs_no_sweep_and_no_modal_transform(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve ran the dense step loop or a dense solve")

    forbid_dense_solves(monkeypatch, forbidden)
    for dim, degree in [(1, 1), (1, 2), (2, 1)]:
        config = cli.ExperimentConfig(subcommand="solve", case="constant", dim=dim,
                                      degree=degree, n_cells=(6,), n_steps=(9,))
        rows = cli.run_solve(config)
        assert len(rows) == 9 * fem.build_mesh(dim, 6, degree).n_dof


def _csv_rows(rows):
    """Rows as the CSV prints them, so that nan, -0 and every last bit compare."""
    return [tuple(map(_fmt, row)) for row in rows]


@pytest.mark.parametrize("argv", [
    ["--case", "constant", "--dim", "1", "--cells", "8", "--steps", "40"],
    ["--case", "a", "--dim", "1", "--degree", "2", "--cells", "5", "--steps", "70",
     "--omega", "0.3"],
    ["--case", "b", "--dim", "2", "--cells", "4", "--steps", "33", "--omega", "-0.6"],
    ["--case", "zero", "--dim", "2", "--cells", "3", "--steps", "5"],
], ids=["constant-1d", "a-degree-2", "b-2d", "zero-2d"])
def test_solve_rows_are_the_whole_array_recurrence(argv):
    config = cli.config_from_args(cli.build_parser().parse_args(
        ["solve", *argv, "--out", "unused.csv"]))
    model, _ = cli._setup(config.case)
    disc = _disc(config, config.n_cells[0], config.n_steps[0])
    values = solver.solve_pathwise(model, disc, config.omega)
    solve = cli.run_solve(config)
    rows = list(_solve_rows(solve.times, solve.y, solve.v))
    assert [row[:3] for row in rows] == [(i + 1, t, dof) for i, t in
                                         enumerate(disc.grid.nodes[1:].tolist())
                                         for dof in range(disc.n_dof)]
    got = np.reshape([row[3] for row in rows], values.shape)
    assert np.max(np.abs(got - values)) <= SOLVE_RTOL * np.max(np.abs(values))
    if config.case == "zero":
        # +0, not a -0 of the profile's trig signs
        assert {text for *_, text in _csv_rows(rows)} == {"0"}


def _rung_case(dim, degree, n_steps=37):
    mesh = fem.build_mesh(dim, 5 if degree == 2 else 4, degree)
    return solver.Discretization(pair=fem.assemble(mesh),
                                 grid=solver.TimeGrid.uniform(1.0, n_steps))


# (a, c0) per node: regular paths over six decades of a, then each way a
# path is flagged: a = 0, a < 0, a = inf, a = nan, c0 = nan, c0 = inf, and
# a tiny a whose huge c0 has squares that overflow
_NODES = [(0.7, 1.0), (1e-3, 2.0), (40.0, -0.5), (3.0, 0.0), (0.0, 1.0), (-1.0, 1.0),
          (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf),
          (1e-3, 1e308), (0.2, 1.0)]


def _node_model():
    """A model whose node i has the a and c0 of _NODES[i]."""
    return stochastic.CoefficientModel(a_fn=lambda w: _NODES[int(w)][0],
                                       c0_fn=lambda w: _NODES[int(w)][1])


# the gaps of the one-mode errors from the per-path oracle on the dense
# solve's values: the expanded formula's rounding, which its cancellation
# amplifies as the mesh is refined; on the tests' lognormal grids (j <= 4)
# at most 1.0e-13 at degree 1 and 9.1e-12 at degree 2 (at j = 5, 9.1e-13
# and 7.4e-10)
_ERROR_RTOL = {1: 1e-12, 2: 1e-10}


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1)],
                         ids=["uniform-1-1", "uniform-1-2", "uniform-2-1"])
@pytest.mark.parametrize("block_bytes", [None, 1], ids=["one-block", "one-path-blocks"])
def test_rung_values_match_the_per_path_solves(monkeypatch, dim, degree, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
    model = _node_model()
    nodes = np.arange(len(_NODES), dtype=float)
    disc = _rung_case(dim, degree)
    # the moment indicators and the errors come in closed form; the
    # squares of the c0 = 1e308 path overflow in both
    indicators = cli._moment_values(model, disc.pair, disc.grid.n_intervals, nodes)
    errors = cli._mode_errors(disc, *cli._paths(model, nodes))
    flagged = []
    for i, w in enumerate(nodes):
        try:
            # the c0 = 1e308 path's interval values are finite, but its
            # squares overflow, to inf or nan
            with np.errstate(over="ignore", invalid="ignore"):
                sol = solver.solve_pathwise(model, disc, w)
                nodal = solver.trial_energy_norm(sol, disc) / math.sqrt(model.a(w))
                mode = oracle.ModeSolution.for_dim(model.a(w), model.c0(w), dim)
                error = oracle.exact_error(mode, disc, sol)[0]
        except solver.PathwiseSolveError:
            flagged.append(i)
            continue
        # the modal indicator against the nodal energy norm
        if not (math.isfinite(nodal) and math.isfinite(error)):
            flagged.append(i)
            continue
        assert indicators[i] == pytest.approx(nodal, rel=1e-13, abs=0.0)
        assert errors[i] == pytest.approx(error, rel=_ERROR_RTOL[degree], abs=0.0)
    assert flagged == list(range(4, 11))
    assert np.isnan(indicators[flagged]).all() and np.isnan(errors[flagged]).all()


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1)])
def test_moments_runs_no_step_loop(tmp_path, capsys, monkeypatch, dim, degree):
    def step_loop(*args, **kwargs):
        raise AssertionError("moments ran the step loop or a dense solve")

    forbid_dense_solves(monkeypatch, step_loop)
    config = cli.ExperimentConfig(subcommand="moments", case="b", dim=dim, degree=degree,
                                  n_cells=(5,), n_steps=(64,), quad_ladder=(4, 8, 16, 32))
    rows, _, _ = cli.run_moments(config)
    assert len(rows) == 8 and all(math.isfinite(row[3]) and not row[4] for row in rows)
    out = tmp_path / "x.csv"
    assert _main(["moments", "--dim", str(dim), "--degree", str(degree), "--cells", "5",
                  "--steps", "64", "--out", str(out)], capsys) == (cli.EXIT_OK, [])
    assert out.exists()


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1)])
def test_convergence_runs_no_step_loop(tmp_path, capsys, monkeypatch, dim, degree):
    # each level's profiles come in closed form and its errors on the
    # excited mode alone: no step loop, no dense solve, no dense S
    def all_modes(*args, **kwargs):
        raise AssertionError("convergence ran all-mode work")

    forbid_dense_solves(monkeypatch, all_modes)
    monkeypatch.setattr(fem.SpatialPair, "stiffness", property(all_modes))
    out = tmp_path / "x.csv"
    assert _main(["convergence", "--dim", str(dim), "--degree", str(degree), "--j-max", "4",
                  "--n-quad-ladder", "4", "--out", str(out)], capsys) == (cli.EXIT_OK, [])
    rows = out.read_text().splitlines()
    assert len(rows) == 4 and all(math.isfinite(float(row.split(",")[5])) for row in rows[1:])


@pytest.mark.parametrize("argv", [
    ["convergence", "--n-quad-ladder", "8"],
    ["convergence", "--case", "a", "--j-max", "3", "--n-quad-ladder", "4"],
    ["infsup", "--n-quad-ladder", "8"],
], ids=["convergence-default-levels", "convergence-a", "infsup"])
def test_coefficient_is_evaluated_once_per_run(tmp_path, capsys, monkeypatch, argv):
    # the per-node Python loop of CoefficientModel.evaluate runs once on
    # the run's rule, however many levels (j = 2 to 5 by default) or grids
    # read it
    calls = []
    evaluate = stochastic.CoefficientModel.evaluate

    def counting(self, nodes):
        calls.append(len(nodes))
        return evaluate(self, nodes)

    monkeypatch.setattr(stochastic.CoefficientModel, "evaluate", counting)
    out = tmp_path / "x.csv"
    assert _main([*argv, "--out", str(out)], capsys) == (cli.EXIT_OK, [])
    assert len(out.read_text().splitlines()) > 2
    assert calls == [int(argv[-1])]


@pytest.mark.parametrize("argv", [
    ["--case", "lognormal", "--j-min", "2", "--j-max", "4", "--n-quad-ladder", "5"],
    ["--case", "lognormal", "--degree", "2", "--j-min", "2", "--j-max", "4",
     "--n-quad-ladder", "3"],
    ["--case", "b", "--j-min", "2", "--j-max", "3", "--n-quad-ladder", "4"],
    ["--case", "zero", "--j-min", "2", "--j-max", "3", "--n-quad-ladder", "2"],
], ids=["lognormal", "degree-2", "b", "zero"])
def test_convergence_rows_match_the_per_path_solves(argv):
    config = cli.config_from_args(cli.build_parser().parse_args(
        ["convergence", *argv, "--out", "unused.csv"]))
    model, domain = cli._setup(config.case)
    n_quad = config.quad_ladder[0]
    nodes, weights = stochastic.quadrature(domain, n_quad, avoid=model.singular_points)
    expected, prev = [], None
    for j in range(config.j_min, config.j_max + 1):
        disc = _disc(config, 2 ** j, 4 ** j)
        errors = np.array([
            oracle.exact_error(oracle.ModeSolution.for_dim(model.a(w), model.c0(w), 1),
                               disc, solver.solve_pathwise(model, disc, w))[0]
            for w in nodes])
        mean_error = float(np.sum(weights * errors))
        h, rate = disc.pair.mesh.h, math.nan
        if prev is not None and prev[1] > 0 and mean_error > 0:
            rate = math.log(prev[1] / mean_error) / math.log(prev[0] / h)
        expected.append((config.case, j, h, disc.grid.k_max, n_quad, mean_error, rate))
        prev = (h, mean_error)
    rows = cli.run_convergence(config)
    assert [row[:5] for row in rows] == [row[:5] for row in expected]
    rtol = _ERROR_RTOL[config.degree]
    for row, want in zip(rows, expected):
        assert row[5] == pytest.approx(want[5], rel=rtol, abs=0.0)
        # a log ratio of two means over log 2: off by at most about 3 rtol
        assert row[6] == pytest.approx(want[6], rel=0.0, abs=4 * rtol, nan_ok=True)


def _solve_csv(argv):
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    rows = cli.run_solve(config)
    return _fmt_csv(cli.SOLVE_HEADER, _solve_rows(rows.times, rows.y, rows.v))


def test_out_symlink_is_written_through(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    target = data / "report.csv"
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    argv = ["solve", "--cells", "4", "--steps", "4", "--out", str(link)]
    # first through a dangling link, then over a stale target
    for stale in (None, "stale\n"):
        if stale is not None:
            target.write_text(stale)
        assert cli.main(argv) == cli.EXIT_OK
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == _solve_csv(argv)
        assert list(data.iterdir()) == [target]
        assert sorted(tmp_path.iterdir()) == [data, link]


def test_out_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    argv = ["solve", "--cells", "4", "--steps", "4", "--out", str(fifo)]
    assert cli.main(argv) == cli.EXIT_OK
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [_solve_csv(argv).encode("ascii")]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


needs_proc_fd = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                   reason="no /proc/self/fd")


@needs_proc_fd
@pytest.mark.parametrize("owner", ["self", "other"])
def test_out_descriptor_link_appends_to_its_file(tmp_path, owner):
    # as `stpg solve ... --out /dev/stdout >> log.txt`, the descriptor
    # held by this process or by another one
    log = tmp_path / "log.txt"
    log.write_text("before\n")
    argv = ["solve", "--cells", "4", "--steps", "4", "--out"]
    with open(log, "a") as fh:
        if owner == "self":
            out = f"/proc/self/fd/{fh.fileno()}"
            assert cli.main(argv + [out]) == cli.EXIT_OK
        else:
            holder = subprocess.Popen([sys.executable, "-c", "input()"],
                                      stdin=subprocess.PIPE, stdout=fh)
            try:
                out = f"/proc/{holder.pid}/fd/1"
                assert cli.main(argv + [out]) == cli.EXIT_OK
            finally:
                holder.communicate(b"\n", timeout=30)
    assert log.read_text() == "before\n" + _solve_csv(argv + ["-"])
    assert list(tmp_path.iterdir()) == [log]


@needs_proc_fd
def test_out_descriptor_link_writes_at_the_shared_offset(tmp_path):
    # as `{ echo a; stpg solve ... --out /dev/stdout; echo b; } > log.txt`,
    # with links under tmp_path standing in for /dev/fd and /dev/stdout
    log = tmp_path / "log.txt"
    fd_dir = tmp_path / "fd"
    fd_dir.symlink_to("/proc/self/fd")
    stdout = tmp_path / "stdout"
    argv = ["solve", "--cells", "4", "--steps", "4", "--out"]
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        stdout.symlink_to(fd_dir / str(fd))
        os.write(fd, b"a\n")
        for out in (fd_dir / str(fd), stdout):
            assert cli.main(argv + [str(out)]) == cli.EXIT_OK
        os.write(fd, b"b\n")
    finally:
        os.close(fd)
    csv = _solve_csv(argv + ["-"])
    assert log.read_text() == "a\n" + csv + csv + "b\n"
    assert sorted(tmp_path.iterdir()) == [fd_dir, log, stdout]


def test_cli_import_leaves_out_the_integrator():
    # no scipy module at all: only the test-side gates load it, the
    # integrator of validate_mode_profile and the eigh of
    # projection_stability; no fractions, decimal or statistics either,
    # and the solve writer's tables wait for the first write
    code = ("import sys, stpg.cli; cli = stpg.cli; cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'fractions', 'decimal', 'statistics'))); "
            "print([f.cache_info().currsize for f in "
            "(cli.g17._powers, cli.g17._layout, cli.g17._quads)])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["[]", "[0, 0, 0]"]


# runs the CLI on each argument list read from stdin, in one interpreter
# where every scipy import fails; prints the exit codes and the error of
# an import of scipy.special made after the runs
_NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from stpg.cli import main
codes = [main(argv) for argv in json.load(sys.stdin)]
try:
    import scipy.special
    error = None
except ModuleNotFoundError as exc:
    error = repr(exc)
print(json.dumps([codes, error]))
"""

# small sizes of each subcommand, and the cases it accepts
_SCIPY_FREE_RUNS = {
    "moments": (["--cells", "4", "--steps", "4", "--n-quad-ladder", "4,8,16,32"], "abcd"),
    "convergence": (["--j-min", "2", "--j-max", "3", "--n-quad-ladder", "4"],
                    sorted(stochastic._CASES)),
    "infsup": (["--cells", "4", "--steps", "4,8", "--n-quad-ladder", "2"],
               sorted(stochastic._CASES)),
    "solve": (["--cells", "4", "--steps", "8"], sorted(stochastic._CASES)),
}


def test_cli_runs_never_load_scipy(tmp_path):
    # every subcommand and case, in 1-D at degrees 1 and 2 and in 2-D at
    # degree 1, exits 0 with scipy blocked and writes the bytes of a free
    # run in this process
    runs = [[name, "--case", case, "--dim", dim, "--degree", degree, *sizes]
            for name, (sizes, cases) in _SCIPY_FREE_RUNS.items() for case in cases
            for dim, degree in (("1", "1"), ("1", "2"), ("2", "1"))]
    blocked = [argv + ["--out", str(tmp_path / f"{i}.csv")] for i, argv in enumerate(runs)]
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY], input=json.dumps(blocked),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    codes, error = json.loads(result.stdout)
    assert len(runs) == 75 and codes == [cli.EXIT_OK] * len(runs)
    # the block bites
    assert error.startswith("ModuleNotFoundError") and "scipy" in error
    free = tmp_path / "free.csv"
    for i, argv in enumerate(runs):
        assert cli.main(argv + ["--out", str(free)]) == cli.EXIT_OK
        assert (tmp_path / f"{i}.csv").read_bytes() == free.read_bytes(), argv


@pytest.mark.parametrize("flag,value", [
    ("--p", "inf"), ("--p", "nan"), ("--p", "0.5"), ("--p", "1,inf"),
    ("--p", "1,1"), ("--p", "1,1.0"),
    ("--n-quad-ladder", "8,8,16,32"), ("--n-quad-ladder", "8,16,12,32"),
])
def test_moments_rejects_bad_orders_and_ladders(tmp_path, capsys, flag, value):
    out = tmp_path / "m.csv"
    argv = ["moments", "--cells", "4", "--steps", "4", "--n-quad-ladder", "8,16,32,64",
            flag, value, "--out", str(out)]
    code, err = _main(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("stpg: error:")
    assert not out.exists()


def _comma_list(elements, max_size):
    return st.lists(elements, min_size=1, max_size=max_size).map(",".join)


def _mostly(valid, invalid):
    """Values drawn mostly from valid, now and then from invalid."""
    return st.sampled_from(list(valid) * 3 + list(invalid))


# the options that take a comma list, by subcommand; the rest take one value
_LISTS = {name: {flag for action in sub._actions
                 if action.type in (cli._int_list, cli._float_list)
                 for flag in action.option_strings}
          for name, sub in _subparsers().items()}


@st.composite
def _cli_argv(draw):
    """Small argument vectors over every subcommand and the options it takes.

    Sizes stay at a few cells, steps and paths so that each example
    runs in milliseconds; invalid values are mixed in at a lower rate.
    Now and then one option of another subcommand is added, which must
    be rejected. Returns (argv, out, foreign).
    """
    name = draw(_mostly(["moments", "convergence", "infsup", "solve"], ["frobnicate"]))
    # frobnicate fails whatever follows; it draws the options of moments
    accepted, lists = _ACCEPTED.get(name, _ACCEPTED["moments"]), _LISTS.get(name, set())
    # even sizes: odd midpoint rules hit the singular point 0 of cases a-d
    increasing = st.lists(st.integers(1, 6).map(lambda n: 2 * n), min_size=4,
                          max_size=6, unique=True).map(sorted)
    ladder = st.one_of(increasing, increasing,
                       st.lists(st.integers(0, 12), min_size=1, max_size=6))
    ladder = ladder.map(lambda sizes: ",".join(map(str, sizes)))
    values = {
        "--cells": _mostly("2345", ["1", "-1"]),
        "--steps": _mostly("1246", ["0"]),
        "--n-quad-ladder": _mostly("2468", ["0", "3"]),
        "--case": _mostly("abcd", ["lognormal", "constant", "zero", "nope"]),
        "--dim": _mostly("12", ["3"]),
        "--degree": st.sampled_from("12"),
        "--j-min": _mostly("2", "13"),
        "--j-max": _mostly("3", "29"),
        "--p": _mostly(["1", "2", "3.5"], ["0.5", "inf", "nan"]),
        "--omega": _mostly(["0.25", "-0.4"], ["0", "nan", "inf"]),
        "--jobs": st.sampled_from(["0", "1", "8"]),
        "--seed": st.sampled_from(["0", "7"]),
    }
    lists = {flag: ladder if flag == "--n-quad-ladder"
             else _comma_list(values[flag], 3 if flag == "--p" else 2)
             for flag in lists}
    argv = [name]
    # sizes and the j range are always set where they are read: the
    # defaults are sized for experiments, not for a property test
    always = {"--cells", "--steps", "--n-quad-ladder", "--j-min", "--j-max"}
    for flag, value in values.items():
        if flag in accepted and (flag in always or draw(st.booleans())):
            argv += [flag, draw(lists.get(flag, value))]
    foreign = draw(st.sampled_from([False] * 7 + [True]))
    if foreign:
        flag = draw(st.sampled_from(sorted(set(_VALUE) - accepted)))
        argv += [flag, _VALUE[flag]]
    out = draw(_mostly(["out.csv"], ["missing/out.csv", None]))
    return argv, out, foreign


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cli_argv())
@example((_NO_INTERVAL[0], "out.csv", False))
@example((_NO_INTERVAL[1], "out.csv", False))
@example((_NO_INTERVAL[2], "out.csv", False))
# one step of a huge a, whose |1 - g e^(-i theta)|^2 underflows to 0
@example((["solve", "--case", "lognormal", "--omega", "1e300", "--steps", "1"], "out.csv",
          False))
def test_cli_contract_holds_for_generated_argv(case):
    argv, out, foreign = case
    with tempfile.TemporaryDirectory() as tmp:
        if out is not None:
            argv = argv + ["--out", os.path.join(tmp, out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) <= 1
        written = sorted(os.listdir(tmp))
        if foreign:
            assert code == cli.EXIT_USAGE and written == []
            assert len(err.getvalue().splitlines()) == 1
        if code == cli.EXIT_OK:
            assert written == ["out.csv"]
        else:
            # a failed run leaves no partial CSV and no temporary file
            assert written == []


# The generated check of every subcommand against an oracle that shares
# no production arithmetic: the dense forward solve (solve_pathwise) for
# solve and moments, the expanded error formula on it (oracle.exact_error)
# for convergence, and for infsup the SVD of the whole space-time system
# (oracle.dense_infsup) and a dense eigen-solve of (S, M). Each bound is
# the largest gap measured over 8,000 random configurations of these
# sizes, rounded up: max |CSV value - oracle| / max |oracle| of a solve
# and the relative gap of a moment estimate, at most 7.1e-15 and 3.2e-15;
# of a mean error, at most 1.5e-13 at degree 1 and 2.1e-11 at degree 2,
# where the expanded formula's cancellation grows as the mesh is refined
# (the rate, a log ratio of two means over log 2, is off by at most 3.0e-11);
# of c_S and c_S_omega, at most 1.4e-15; and |sigma - 1| of the SVD, at
# most 73 eps, its own rounding (_SIGMA_EPS)
_ORACLE_GAPS = {"solve": 2e-14, "moments": 2e-14, "convergence": {1: 1e-12, 2: 1e-10},
                "c_S": 1e-14, "sigma": _SIGMA_EPS * np.finfo(float).eps}


@st.composite
def _oracle_run(draw):
    """The argv of a small valid run: dim, degree and a case, then up to
    8 cells and 64 steps with --omega (solve) or with a ladder of 4 even
    rule sizes up to 16 and its moment orders (moments); levels j <= 4
    and a rule of up to 4 nodes (convergence); or up to two sizes of up
    to 6 cells and of up to 8 steps and a rule of up to 4 nodes (infsup)."""
    name = draw(st.sampled_from(["solve", "moments", "convergence", "infsup"]))
    dim, degree = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    case = draw(st.sampled_from("abcd" if name == "moments" else sorted(stochastic._CASES)))
    argv = [name, "--dim", str(dim), "--degree", str(degree), "--case", case]
    # an odd rule puts a node on the singular point 0 of cases a to d,
    # which the rule refuses
    n_quad = str(draw(st.sampled_from([2, 4]) if case in "abcd" else st.integers(1, 4)))
    if name == "convergence":
        j_min = draw(st.integers(2, 4))
        return argv + ["--j-min", str(j_min), "--j-max", str(draw(st.integers(j_min, 4))),
                       "--n-quad-ladder", n_quad]
    if name == "infsup":
        sizes = [st.lists(st.integers(low, high), min_size=1, max_size=2).map(
            lambda values: ",".join(map(str, values))) for low, high in ((2, 6), (1, 8))]
        return argv + ["--cells", draw(sizes[0]), "--steps", draw(sizes[1]),
                       "--n-quad-ladder", n_quad]
    argv += ["--cells", str(draw(st.integers(2, 8))), "--steps", str(draw(st.integers(1, 64)))]
    if name == "solve":
        # the singular points of cases a to d and the ends of their law,
        # and values of a lognormal a (which is omega), non-positive ones too
        omega = draw(st.one_of(st.sampled_from([0.0, 0.4, -0.5, 0.5, -1.0]),
                               st.floats(-0.5, 0.5), st.floats(1e-3, 1e300)))
        return argv + ["--omega", repr(omega)]
    sizes = draw(st.lists(st.integers(1, 8), min_size=4, max_size=4, unique=True))
    orders = draw(st.lists(st.sampled_from(["1", "2", "3.5"]), min_size=1, max_size=3,
                           unique=True))
    return argv + ["--n-quad-ladder", ",".join(str(2 * n) for n in sorted(sizes)),
                   "--p", ",".join(orders)]


def _oracle_values(model, disc, omega):
    """The dense solve's interval values of one path, or None where it
    raises PathwiseSolveError."""
    try:
        return solver.solve_pathwise(model, disc, omega)
    except solver.PathwiseSolveError:
        return None


def _oracle_disc(config, n_cells, n_steps):
    return solver.Discretization(
        pair=fem.assemble(fem.build_mesh(config.dim, n_cells, config.degree)),
        grid=solver.TimeGrid.uniform(1.0, n_steps))


def _oracle_rule(config, model, code, text):
    """The run's rule, or None where it places a node on a singular point,
    which the run refuses as a usage error."""
    try:
        return stochastic.quadrature(stochastic.default_domain(config.case),
                                     config.quad_ladder[0], avoid=model.singular_points)
    except ValueError:
        assert code == cli.EXIT_USAGE and text is None
        return None


def _gap(got: float, want: float, scale=None) -> float:
    """|got - want| / scale, by default relative to want: 0 where both print
    alike (the same nan, inf or 0 too), inf where only one is finite."""
    if _fmt(got) == _fmt(want):
        return 0.0
    scale = abs(want) if scale is None else scale
    return abs(got - want) / scale if scale and math.isfinite(got - want) else math.inf


def _solve_gaps(config, model, code, text, gaps):
    disc = _oracle_disc(config, config.n_cells[0], config.n_steps[0])
    values = _oracle_values(model, disc, config.omega)
    if values is None:
        assert code == cli.EXIT_NUMERICAL and text is None
        return
    assert code == cli.EXIT_OK
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    n_steps, n_dof = values.shape
    assert table[:, 0].tolist() == np.repeat(np.arange(1, n_steps + 1), n_dof).tolist()
    assert table[:, 1].tolist() == np.repeat(disc.grid.nodes[1:], n_dof).tolist()
    assert table[:, 2].tolist() == np.tile(np.arange(n_dof), n_steps).tolist()
    gap = np.abs(table[:, 3] - values.reshape(-1)).max()
    gaps["solve"] = gap and gap / np.abs(values).max()


def _moments_gaps(config, model, code, text, gaps):
    assert code == cli.EXIT_OK
    disc = _oracle_disc(config, config.n_cells[0], config.n_steps[0])
    domain = stochastic.default_domain(config.case)
    rungs = []
    for n_quad in config.quad_ladder:
        nodes, weights = stochastic.quadrature(domain, n_quad, avoid=model.singular_points)
        indicators = []
        for omega in nodes:
            values = _oracle_values(model, disc, omega)
            indicators.append(math.nan if values is None else
                              solver.trial_energy_norm(values, disc) / math.sqrt(model.a(omega)))
        rungs.append((np.array(indicators), weights))
    rows, trailer, gaps["moments"] = iter(text.splitlines()[1:]), [], 0.0
    for p in config.p_values:
        estimates = []
        for n_quad, (indicators, weights) in zip(config.quad_ladder, rungs):
            est, flagged = stochastic.lp_norm(p, indicators, weights)
            case, n, order, got, got_flag = next(rows).split(",")
            assert (case, int(n), float(order)) == (config.case, n_quad, p)
            assert int(got_flag) == flagged
            if not flagged:
                gaps["moments"] = max(gaps["moments"], _gap(float(got), est))
            estimates.append(est)
        trailer.append(f"# classification,p={_fmt(p)},"
                       f"{stochastic.classify_trend(estimates)}")
    assert list(rows) == trailer


def _convergence_gaps(config, model, code, text, gaps):
    # a level's mean is nan where any path is flagged or its error is not finite
    rule = _oracle_rule(config, model, code, text)
    if rule is None:
        return
    assert code == cli.EXIT_OK
    nodes, weights = rule
    rows = [line.split(",") for line in text.splitlines()[1:]]
    levels = range(config.j_min, config.j_max + 1)
    assert [int(row[1]) for row in rows] == list(levels)
    prev, gaps["convergence"], gaps["rate"] = None, 0.0, 0.0
    for row, j in zip(rows, levels):
        disc = _oracle_disc(config, 2 ** j, 4 ** j)
        errors = []
        for omega in nodes:
            values = _oracle_values(model, disc, omega)
            errors.append(math.nan if values is None else oracle.exact_error(
                oracle.ModeSolution.for_dim(model.a(omega), model.c0(omega), config.dim),
                disc, values)[0])
        mean = float(np.sum(weights * errors)) if np.all(np.isfinite(errors)) else math.nan
        rate = math.nan
        if prev is not None and 0 < prev < math.inf and 0 < mean < math.inf:
            rate = math.log(prev / mean) / math.log(2.0)
        prev = mean
        assert row[0] == config.case and row[2:5] == [
            _fmt(disc.pair.mesh.h), _fmt(disc.grid.k_max), str(len(nodes))]
        gaps["convergence"] = max(gaps["convergence"], _gap(float(row[5]), mean))
        gaps["rate"] = max(gaps["rate"], _gap(float(row[6]), rate, 1.0))


def _infsup_gaps(config, model, code, text, gaps):
    # a flagged node (a not finite and positive) has nan in every column
    # that needs a, which the oracle's assembly refuses
    rule = _oracle_rule(config, model, code, text)
    if rule is None:
        return
    assert code == cli.EXIT_OK
    nodes, _ = rule
    rows = iter(line.split(",") for line in text.splitlines()[1:])
    gaps["c_S"] = gaps["sigma"] = 0.0
    for n_cells in config.n_cells:
        for n_steps in config.n_steps:
            disc = _oracle_disc(config, n_cells, n_steps)
            lam = eigh(disc.pair.stiffness, disc.pair.mass, eigvals_only=True)
            c_s = disc.grid.k_max * lam[-1]
            for omega in nodes.tolist():
                a = float(model.a(omega))
                row = next(rows)
                assert row[:5] == [config.case, str(n_cells), str(n_steps), _fmt(omega),
                                   _fmt(a)]
                sigmas, c_S, weighted, bounds = row[5:7], row[7], row[8], row[9:]
                gaps["c_S"] = max(gaps["c_S"], _gap(float(c_S), c_s))
                try:
                    want = oracle.dense_infsup(solver.assemble_full_system(disc, a),
                                               solver.build_grams(disc, a, "Y_omega"),
                                               solver.build_grams(disc, a, "X_omega_hk"))
                except solver.PathwiseSolveError:
                    assert [*sigmas, weighted, *bounds] == ["nan"] * 5
                    continue
                gaps["sigma"] = max(gaps["sigma"], *(abs(float(got) - sigma)
                                                     for got, sigma in zip(sigmas, want)))
                gaps["c_S"] = max(gaps["c_S"], _gap(float(weighted), a * c_s / math.sqrt(12.0)))
                assert bounds == [_fmt(min(a, 1.0) / math.sqrt(2.0)),
                                  _fmt(math.sqrt(2.0) * max(1.0, a))]
    assert next(rows, None) is None


_ORACLE_CHECKS = {"solve": _solve_gaps, "moments": _moments_gaps,
                  "convergence": _convergence_gaps, "infsup": _infsup_gaps}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_oracle_run())
# paths the oracle flags: a = 0, c0 = inf and a < 0
@example(["solve", "--case", "b", "--omega", "0.0", "--dim", "2", "--cells", "3"])
@example(["solve", "--case", "d", "--omega", "0.4", "--degree", "2", "--steps", "5"])
@example(["solve", "--case", "lognormal", "--omega", "-1.0", "--steps", "1"])
@example(["solve", "--case", "c", "--omega", "0.3", "--degree", "2", "--cells", "8",
          "--steps", "64"])
# a = 1e200 and 1e300, where the product s v of Re Q would underflow
@example(["solve", "--case", "lognormal", "--omega", "1e200", "--cells", "8", "--steps", "7"])
@example(["solve", "--case", "lognormal", "--omega", "1e300", "--dim", "2", "--cells", "5",
          "--steps", "64"])
@example(["moments", "--case", "c", "--n-quad-ladder", "2,6,10,16", "--dim", "1",
          "--degree", "2", "--cells", "8", "--steps", "64"])
# odd rules, which place a node on the singular point 0 of cases a and b
@example(["convergence", "--case", "a", "--j-min", "2", "--j-max", "3",
          "--n-quad-ladder", "3"])
@example(["infsup", "--case", "b", "--dim", "2", "--cells", "3,5", "--steps", "2",
          "--n-quad-ladder", "3"])
# the largest levels: 2-D, and degree 2
@example(["convergence", "--case", "lognormal", "--dim", "2", "--j-min", "2", "--j-max", "4",
          "--n-quad-ladder", "4"])
@example(["convergence", "--case", "c", "--degree", "2", "--j-min", "4", "--j-max", "4",
          "--n-quad-ladder", "4"])
@example(["infsup", "--case", "lognormal", "--degree", "2", "--cells", "6", "--steps", "1,8",
          "--n-quad-ladder", "4"])
def test_generated_runs_match_the_per_path_oracle(argv):
    config = cli.config_from_args(cli.build_parser().parse_args([*argv, "--out", "x"]))
    model = stochastic.CoefficientModel(case=config.case)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.csv")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--out", out])
        text = Path(out).read_text() if os.path.exists(out) else None
    gaps = {}
    _ORACLE_CHECKS[config.subcommand](config, model, code, text, gaps)
    bounds = dict(_ORACLE_GAPS, convergence=_ORACLE_GAPS["convergence"][config.degree])
    # the rate: a log ratio of two means over log 2, off by at most about 3 rtol
    bounds["rate"] = 4 * bounds["convergence"]
    assert all(gap <= bounds[name] for name, gap in gaps.items()), gaps
