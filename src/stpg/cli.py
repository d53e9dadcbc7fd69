"""Experiment driver with CSV reports.

Subcommands reproduce the stock experiments at desk scale, each on the
paths that the reasons of solver.path_table leave (its docstring says which):

* ``moments``      quadrature ladders of L^p estimates of the pathwise
  solution norms for the named coefficient cases, with a mechanical
  convergence classification per moment order
* ``convergence``  mean energy-norm error against the exact mode
  solution on the ladder h = 2^-j, k = 2^-2j
* ``infsup``       the weighted inf-sup and continuity constants, 1 by
  the paper's identity, next to the CFL constants and the closed-form
  bounds
* ``solve``        one pathwise solve dumped as interval-indexed nodal
  values y_i v_d, a profile times the one excited mode

Every report is a CSV file whose columns are declared once, each name
with its format spec (floats ``.17g``), and whose content is
byte-identical across reruns, written as bytes. The moments and
convergence reports go a row at a time through one line format of their
specs. An infsup line is joined from text formatted once by the same
specs: each node's columns when the run makes them, each grid's head and
c_S at write time, and per line c_S_omega, the one column that needs
both, a block of whole grids (or of one grid's nodes) at a time. The
solve report, which can run to hundreds of thousands of rows, is
written a block of whole intervals at a time by whole-array numpy
operations (``stpg.g17``), each product of y_i with a distinct value of
v formatted once. Each block writes its ``i,t,`` heads and 24
NUL-padded columns of value text into one reused line buffer, whose
``dof,`` and newline columns stay, and the NULs are squeezed straight
out of it. A regular or new file is written atomically, so a failed run
leaves no partial CSV; a symlink is written through to its target. An
open descriptor (``/dev/stdout``, ``/proc/self/fd/N``) is written at its
current offset, and a FIFO or a device in place, without that guarantee.
"""

import argparse
import contextlib
import errno
import functools
import io
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import constants as consts
from . import fem, g17, oracle, solver, stochastic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_RESOURCE = 3

# each report's columns, name to format spec: its one declaration
MOMENTS_HEADER = dict(case="s", N="d", p=".17g", estimate=".17g", flagged="d")
CONVERGENCE_HEADER = dict(case="s", j="d", h=".17g", k=".17g", n_quad="d",
                          mean_error=".17g", observed_rate=".17g")
INFSUP_HEADER = dict(case="s", n_cells="d", n_steps="d", omega=".17g", a_omega=".17g",
                     sigma_min=".17g", sigma_max=".17g", c_S=".17g", c_S_omega=".17g",
                     cB_theory=".17g", CB_theory=".17g")
SOLVE_HEADER = dict(interval="d", t=".17g", dof="d", value=".17g")


def _fields(header, names) -> str:
    """The line format of header's columns names, joined by commas."""
    return ",".join(f"{{:{header[name]}}}" for name in names)


# an infsup line in the parts that are formed once: per grid its head and
# c_S, per node its text before c_S and after c_S_omega, the one column
# formed per line
_INFSUP_GRID = _fields(INFSUP_HEADER, ("case", "n_cells", "n_steps")) + ","
_INFSUP_C_S = _fields(INFSUP_HEADER, ("c_S",)) + ","
_INFSUP_LEAD = _fields(INFSUP_HEADER, ("omega", "a_omega", "sigma_min", "sigma_max")) + ","
_INFSUP_TAIL = "," + _fields(INFSUP_HEADER, ("cB_theory", "CB_theory")) + "\n"

# float64 values per time step a convergence level holds throughout: the
# grid's nodes and widths, and from its first block on the 20 values of
# TimeGrid.profile_quadrature (the Gauss rule and trig values of the error
# profile, four (5, N) arrays), which are formed in no more space than
# they keep
GRID_VALUES = 22
# float64 values per path and time step a block of a convergence level's
# paths holds at peak, beside numpy's buffers of two broadcast operands
# (np.getbufsize() values each): its profiles y, then in
# oracle.block_errors the (5, P, N) exact profile with one temporary and
# the interval integrals of T (11.3 to 11.8 traced on 128 to 20,000 steps)
ERROR_VALUES = 12
# float64 values per time step a solve holds at peak: the grid's nodes,
# its profile and two temporaries of solver.uniform_profile
PROFILE_VALUES = 4
# float64 values per path a moments rung holds at peak: its rule, a, c0,
# reason codes, valid indices and values, and the (P, 1) arrays of
# solver.uniform_energy (17.6 traced)
MOMENT_VALUES = 18
# bytes one block of a convergence level's paths holds at peak
# (ERROR_VALUES per path and step), unless one path alone needs more
_BLOCK_BYTES = 1 << 23
# bytes of the small objects a pathwise run holds beside the arrays it
# counts: Python objects and numpy's bookkeeping (7 KB in a traced
# one-dof solve of 20,000 steps)
RUN_BYTES = 1 << 14
# values one block of a report's write forms at most: in infsup the
# c_S_omega of whole grids, or of one grid's nodes; in solve those of whole
# intervals, or one interval (_write_block), and the float64 values' worth of
# bytes its writer holds at peak per value of a block: its line in the
# reused layout while the next group's text is made, with the text and
# digits' temporaries of as many distinct products, 192 bytes against at
# most 191.6 traced (1 to 961 dofs, 138 at 7). Per dof it holds WRITE_DOF
# values: the mode, the column of its distinct value and their bits and the
# dof's text (blocks of one all-distinct interval: 225 of 248 bytes a dof)
WRITE_VALUES = 1 << 12
WRITE_TEXT = 24
WRITE_DOF = 7
# bytes stochastic.quadrature holds at peak per node of the rule it
# builds, beside RUN_BYTES: 80.1 to 80.6 traced on 200,000 and 20,000
# lognormal nodes (two lists of Python floats), 32 on the interval;
# _rule counts them with what the run holds per node before it builds one
RULE_BYTES = 81
# bytes a convergence or infsup run holds per parameter node: the rule,
# the arrays of a, c0, reason codes, valid indices and errors (49.5
# traced), and a block's copies of its values (24), or in infsup the rule,
# a, c0, reason codes and the validity mask
NODE_BYTES = 80
# bytes an infsup run holds per node beside NODE_BYTES at its peak, while
# it forms the node's text (_node_text): two strs with their list slots, and
# one block's arrays and Python floats (with NODE_BYTES 233 and 244 traced
# on 40,000 and 10,000 lognormal nodes, 207 once formed). Its write holds, for one grid's lines
# of a block of at most WRITE_VALUES nodes, LINE_BYTES per line: each str
# in its list, then joined and encoded (344 traced); and CFL_BYTES per
# c_S_omega value of the block's grids (at most WRITE_VALUES values), an
# array and its list of Python floats (40 traced)
TEXT_BYTES = 160
LINE_BYTES = 360
CFL_BYTES = 40


# where the kernel reports the memory available to new work
_MEMINFO = "/proc/meminfo"


class ResourceCapError(RuntimeError):
    """A requested computation needs more than the available memory."""


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; fully determines the output."""

    subcommand: str
    case: str = "a"
    dim: int = 2
    degree: int = 1
    n_cells: tuple = (8,)
    n_steps: tuple = (32,)
    j_min: int = 2
    j_max: int = 5
    p_values: tuple = (1.0, 2.0)
    quad_ladder: tuple = (8, 16, 32, 64, 128, 256)
    omega: float = 0.25
    out: str = ""


class InfsupRows:
    """The rows of an infsup report, as a view of its run: its case, the
    (n_cells, n_steps, c_S) of each grid, a with its validity mask, and
    each node's text before and after the c_S and c_S_omega columns
    (_node_text). The row of grid g and node i is grid g's columns around
    leads[i] and tails[i], with c_S_omega formed at write time."""

    def __init__(self, case, grids, a, valid, leads, tails):
        self.case, self.grids, self.a, self.valid = case, grids, a, valid
        self.leads, self.tails = leads, tails

    def __len__(self):
        return len(self.grids) * self.a.size


class SolveRows:
    """The (interval, t, dof, value) rows of a solve, as a view of its N
    right endpoint times, its (N,) profile y and its (n_dof,) mode v: the
    value at interval i and dof d is y_i * v_d."""

    def __init__(self, times, y, v):
        self.times, self.y, self.v = times, y, v

    def __len__(self):
        return self.y.size * self.v.size


def _rows_of(texts) -> np.ndarray:
    """A list or array of bytes as the NUL-padded rows of a uint8 array."""
    texts = np.asarray(texts, dtype=bytes)
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


def _write_block(n_steps: int, n_dof: int) -> int:
    """Intervals of a solve report's block: as many as WRITE_VALUES values hold, at least one."""
    return max(1, min(n_steps, WRITE_VALUES // n_dof))


def _solve_lines(buf, line, heads, values, columns) -> bytearray:
    """The lines of a block of a solve in buf, whose uint8 view line holds
    their dof, comma and newline columns: each gets its interval's row of
    heads and its value's text, gathered from the columns of the text
    values. The NULs are then squeezed straight out of buf."""
    head, text = f"V{heads.shape[1]}", f"V{g17.WIDTH}"
    line[..., :heads.shape[1]].view(head)[..., 0] = heads.view(head)
    np.take(values.view(text)[..., 0], columns, axis=1,
            out=line[..., -g17.WIDTH - 1:-1].view(text)[..., 0])
    return buf.translate(None, b"\0")


def _write_report(fh, header, rows, trailer):
    """Write header's names, rows and trailer lines to the binary stream fh:
    rows of tuples by one line format of header's specs; an InfsupRows view
    one write per grid (or per block of its nodes), each line joined from
    its node's text, its grid's text and its c_S_omega; a SolveRows view
    a block of whole intervals at a time (_solve_lines), each product of
    y_i with a distinct value of v (by its bits: -0 is not 0) formatted
    once, a group of intervals in one g17_columns call, and laid out in one
    reused buffer: a head of another width or a short last block gets a
    new one once the old one is freed."""
    fh.write((",".join(header) + "\n").encode("ascii"))
    if isinstance(rows, SolveRows):
        n_steps, n_dof = rows.y.size, rows.v.size
        per = _write_block(n_steps, n_dof)
        bits, columns = np.unique(rows.v.view(np.int64), return_inverse=True)
        # blocks of intervals whose products WRITE_VALUES values hold, at least one
        group = per * max(1, WRITE_VALUES // (per * len(bits)))
        # no dof number has more digits than n_dof
        dofs = _rows_of(np.arange(n_dof).astype(f"S{len(str(n_dof))}"))
        laid = None
        for first in range(0, n_steps, per):
            if first % group == 0:
                text = block = heads = None  # freed before the next group's text is made
                y = rows.y[first:first + group]
                with np.errstate(over="ignore", invalid="ignore"):
                    text = g17.g17_columns(np.multiply.outer(y, bits.view(np.float64)))
                text = text.reshape(len(y), len(bits), g17.WIDTH)
            block = text[first % group:first % group + per]
            heads = _rows_of([b"%d,%.17g," % (i, t) for i, t in
                              enumerate(rows.times[first:first + per].tolist(), first + 1)])
            shape = (len(heads), n_dof, heads.shape[1] + dofs.shape[1] + g17.WIDTH + 2)
            if laid != shape:
                buf = line = None
                buf, laid = bytearray(math.prod(shape)), shape
                line = np.frombuffer(buf, np.uint8).reshape(shape)
                line[..., heads.shape[1]:-g17.WIDTH - 2] = dofs
                line[..., [-g17.WIDTH - 2, -1]] = list(b",\n")
            fh.write(_solve_lines(buf, line, heads, block, columns))
    elif isinstance(rows, InfsupRows):
        spec = INFSUP_HEADER["c_S_omega"]
        n_nodes = rows.a.size
        texts = [(_INFSUP_GRID.format(rows.case, n_cells, n_steps), _INFSUP_C_S.format(c))
                 for n_cells, n_steps, c in rows.grids]
        # whole grids whose c_S_omega WRITE_VALUES values hold, at least one
        per = max(1, WRITE_VALUES // n_nodes)
        for first in range(0, len(rows.grids), per):
            c_s = np.array([[c] for _, _, c in rows.grids[first:first + per]])
            for start in range(0, n_nodes, WRITE_VALUES):
                nodes = slice(start, start + WRITE_VALUES)
                leads, tails = rows.leads[nodes], rows.tails[nodes]
                # a c_S_omega overflows to inf as its scalar formula does
                with np.errstate(over="ignore", invalid="ignore"):
                    weighted = np.where(rows.valid[nodes],
                                        rows.a[nodes] * c_s / math.sqrt(12.0), math.nan)
                for (head, mid), column in zip(texts[first:first + per], weighted.tolist()):
                    fh.write("".join([f"{head}{lead}{mid}{value:{spec}}{tail}" for lead, value,
                                      tail in zip(leads, column, tails)]).encode("ascii"))
    else:
        line = _fields(header, header) + "\n"
        fh.writelines(line.format(*row).encode("ascii") for row in rows)
    fh.writelines(("# " + line + "\n").encode("ascii") for line in trailer)


_FD_LINK = re.compile(r"/proc/(\d+)(?:/task/\d+)?/fd/(\d+)")


def _resolve(path: str):
    """Follow the symlinks of path one at a time.

    Returns (target, fd). The walk stops at a link that lands in a
    /proc/<pid>/fd directory (reached as /dev/stdout, /dev/fd/N or
    /proc/self/fd/N): target is then the link itself, since what it
    points to is an open file, not a name to replace, and fd is the
    descriptor number, or -1 if the directory is another process's.
    Otherwise fd is None and target the fully resolved path.
    """
    path = os.path.abspath(path)
    for _ in range(40):
        parent = os.path.realpath(os.path.dirname(path))
        path = os.path.join(parent, os.path.basename(path))
        match = _FD_LINK.fullmatch(path)
        if match:
            return path, int(match[2]) if int(match[1]) == os.getpid() else -1
        if not os.path.islink(path):
            return path, None
        path = os.path.join(parent, os.readlink(path))
    raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)


def _open_in_place(target: str, fd):
    """A binary stream that writes into target without replacing it.

    A descriptor of this process is duplicated, so the report goes at
    its current offset and a shell redirection (``>`` or ``>>``) around
    the run keeps what came before and after. Another process's
    descriptor is opened for appending; anything else (a FIFO, a device)
    is opened for writing, which truncates neither.
    """
    if fd is None:
        return open(target, "wb")
    if fd < 0:
        return open(target, "ab")
    return open(os.dup(fd), "wb")


def write_csv(path: str, header, rows, trailer=()):
    """Write a report of rows to path.

    header maps each column's name to its format spec (``s``, ``d`` or
    ``.17g``). rows is a sequence of tuples, printed by those specs, the
    InfsupRows view of an infsup run, or the SolveRows view of a solve,
    which _write_report writes a grid or a block of whole intervals at a
    time, byte for byte as the specs would.

    Symlinks are followed first, so a link's target gets the bytes and
    the link stays. A regular or new file is written atomically: the
    rows go to a temporary file in its directory, which then replaces it
    in one rename; on any failure the temporary file is removed and the
    file is left as it was. An open descriptor (``/dev/stdout``,
    ``/proc/self/fd/N``) or any other existing target (a FIFO, a device)
    is written in place, so a failure can leave part of the report in it.
    """
    target, fd = _resolve(path)
    if fd is not None or (os.path.exists(target) and not os.path.isfile(target)):
        with _open_in_place(target, fd) as fh:
            _write_report(fh, header, rows, trailer)
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            _write_report(fh, header, rows, trailer)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _setup(case: str):
    model = stochastic.CoefficientModel(case=case)
    domain = stochastic.default_domain(case)
    return model, domain


@functools.cache
def _available_memory():
    """Bytes of memory a run can take: MemAvailable of /proc/meminfo where
    it can be read, else physical memory (page size times physical pages,
    where sysconf reports them), else None. Read once per process, at its
    first check: a CLI run is one process, and a read at every check made
    the benchmark's infsup-dense passes 5% slower."""
    with contextlib.suppress(OSError, ValueError), io.open(_MEMINFO, "rb") as fh:
        for line in fh:
            if line.startswith(b"MemAvailable:"):
                return 1024 * int(line.split()[1])
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        return None


def _check_memory(need: int, what: str, pair: int):
    """Raise ResourceCapError if need bytes, pair of them (if any) for the
    spatial pair, exceed the available memory, if known."""
    memory = _available_memory()
    if memory is not None and 0 < memory < need:
        share = f", {pair} of them for the spatial pair" if pair else ""
        raise ResourceCapError(f"{what} needs {need} bytes{share}, more than the "
                               f"{memory} bytes of available memory")


def _rule(model, domain, n_quad: int, node_bytes: int) -> tuple:
    """stochastic.quadrature's rule of n_quad nodes, built only once the
    rule and the node_bytes per node that the run holds fit in memory."""
    _check_memory((RULE_BYTES + node_bytes) * n_quad + RUN_BYTES,
                  f"a rule of {n_quad} parameter nodes", 0)
    return stochastic.quadrature(domain, n_quad, avoid=model.singular_points)


def _block_paths(n_steps: int) -> int:
    """Paths of a convergence level whose errors are measured together: as
    many as the block budget holds at ERROR_VALUES per step, at least one."""
    return max(1, _BLOCK_BYTES // (8 * ERROR_VALUES * n_steps))


def _discretization(config: ExperimentConfig, n_cells: int, n_steps: int,
                    paths: int = 1) -> fem.SpatialPair:
    """Spatial pair of one configuration; a run that reads its grid builds it.

    A grid of no interval is refused first, as TimeGrid.uniform refuses it.
    Before the pair forms any value, what a run over that many paths or
    parameter nodes holds at peak must fit in memory, the one limit on its
    size. Each count adds the pair's peak (fem.pair_values), and its message
    names that share; a hat convergence level adds the 1-D mass and
    stiffness that rho reads. Beside the pair each count holds,
    for infsup, the largest step count's k_max (solver.uniform_k_max, two
    blocks of up to np.getbufsize() widths), NODE_BYTES and TEXT_BYTES per
    node, whatever the grid count, and the report's write (LINE_BYTES per
    line of one block of nodes, CFL_BYTES per c_S_omega value); for
    moments, MOMENT_VALUES per path; for solve, PROFILE_VALUES per step and
    the report's write, one block of whole intervals (_write_block,
    WRITE_TEXT) and WRITE_DOF values per dof; for convergence, GRID_VALUES
    per step and NODE_BYTES per node, held throughout, and one block of
    paths (_block_paths, ERROR_VALUES) with numpy's two buffers; and
    RUN_BYTES.
    """
    if n_steps < 1:
        raise ValueError("need at least one time interval")
    mesh = fem.build_mesh(config.dim, n_cells, config.degree)
    pair = fem.pair_values(mesh, eigenvalues_only=config.subcommand == "infsup")
    if config.subcommand == "infsup":
        grids = len(config.n_cells) * len(config.n_steps)
        widths = 2 * min(max(config.n_steps), np.getbufsize())
        text = (paths * (NODE_BYTES + TEXT_BYTES) + min(paths, WRITE_VALUES) * LINE_BYTES
                + min(grids * paths, WRITE_VALUES) * CFL_BYTES)
        _check_memory(8 * (pair + widths) + text + RUN_BYTES,
                      f"an infsup report of {grids} x {paths} rows", 8 * pair)
    elif config.subcommand == "moments":
        _check_memory(8 * (pair + MOMENT_VALUES * paths) + RUN_BYTES,
                      f"a moments rung of {paths} x {mesh.n_dof}", 8 * pair)
    elif config.subcommand == "solve":
        chunk = _write_block(n_steps, mesh.n_dof) * mesh.n_dof
        values = PROFILE_VALUES * n_steps + WRITE_DOF * mesh.n_dof + WRITE_TEXT * chunk
        _check_memory(8 * (pair + values) + RUN_BYTES,
                      f"a {n_steps} x {mesh.n_dof} solution written {chunk} values at a time",
                      8 * pair)
    else:
        if mesh.degree == 1:
            pair += 2 * mesh.n_dof_1d ** 2  # the mass and stiffness that rho reads
        block = min(paths, _block_paths(n_steps))
        values = (GRID_VALUES + ERROR_VALUES * block) * n_steps + 2 * np.getbufsize()
        _check_memory(8 * (pair + values) + RUN_BYTES + NODE_BYTES * paths,
                      f"a convergence block of {block} paths x {n_steps} steps", 8 * pair)
    return fem.assemble(mesh)


def _moment_values(model, pair, n_steps: int, nodes) -> np.ndarray:
    """Pathwise indicators a(w)^(-1/2) ||U||_Y tracked by the moment ladders.

    The plain energy norm of the solution stays bounded when the
    coercivity degenerates, because the smooth mode forcing is not
    amplified by 1/a. Scaling by a^(-1/2) restores the sensitivity of
    the estimates to the coercivity law, which is what the moment
    experiments are designed to expose. The squared norm on the uniform
    grid of n_steps comes in closed form (solver.uniform_energy), with no
    step loop. A path is nan where it is flagged: by its reason in
    solver.path_table, or because its indicator is not finite.
    """
    a, c0, reason = solver.path_table(*model.evaluate(nodes))
    (valid,) = np.nonzero(reason == 0)
    values = np.full(len(nodes), math.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = solver.uniform_energy(pair, n_steps, a[valid], c0[valid])
        indicators = np.sqrt(energy) / np.sqrt(a[valid])
    values[valid] = np.where(np.isfinite(indicators), indicators, math.nan)
    return values


def _mode_errors(disc, a, c0, reason) -> np.ndarray:
    """Energy-norm errors of the paths (a, c0, reason) of solver.path_table
    against the exact mode solution, nan where a path is flagged.

    A path is flagged by its reason or because its error is not finite. The
    others go _block_paths at a time: solver.uniform_profile gives their
    (P, N) profiles on the uniform grid, and oracle.block_errors their
    errors on the excited mode, with no step loop and no n_dof-sized array.
    """
    errors = np.full(len(a), math.nan)
    (valid,) = np.nonzero(reason == 0)
    n_steps = disc.grid.n_intervals
    size = _block_paths(n_steps)
    for start in range(0, len(valid), size):
        paths = valid[start:start + size]
        y = solver.uniform_profile(disc.pair, n_steps, a[paths], c0[paths])
        errors[paths] = oracle.block_errors(disc, a[paths], c0[paths], y)
        del y  # so that the next block's profiles do not find these alive
    return errors


def run_moments(config: ExperimentConfig):
    """Moment-ladder experiment; returns (rows, classifications, trailer)."""
    model, domain = _setup(config.case)
    if config.case not in ("a", "b", "c", "d"):
        raise ValueError(f"moments experiment needs a named case, got {config.case!r}")
    ladder = config.quad_ladder
    if len(ladder) < 4:
        raise ValueError("quadrature ladder needs at least 4 sizes")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("quadrature ladder sizes must be strictly increasing")
    for p in config.p_values:
        if not 1 <= p < math.inf:
            raise ValueError(f"moment order p must satisfy 1 <= p < inf, got {p}")
    if len(set(config.p_values)) < len(config.p_values):
        raise ValueError("moment orders p must be distinct")
    pair = _discretization(config, config.n_cells[0], config.n_steps[0], max(ladder))

    estimates = {p: [] for p in config.p_values}
    flags = {p: [] for p in config.p_values}
    for n_quad in config.quad_ladder:
        nodes, weights = stochastic.quadrature(domain, n_quad,
                                               avoid=model.singular_points)
        values = _moment_values(model, pair, config.n_steps[0], nodes)
        for p in config.p_values:
            est, flagged = stochastic.lp_norm(p, values, weights)
            estimates[p].append(est)
            flags[p].append(flagged)

    rows = [(config.case, n_quad, p, est, flagged) for p in config.p_values
            for n_quad, est, flagged in zip(config.quad_ladder, estimates[p], flags[p])]
    classifications = {p: stochastic.classify_trend(estimates[p]) for p in config.p_values}
    trailer = [f"classification,p={p:.17g},{trend}" for p, trend in classifications.items()]
    return rows, classifications, trailer


def run_convergence(config: ExperimentConfig):
    """Mean-error convergence table over the ladder h = 2^-j, k = 2^-2j.

    A level that does not fit in memory fails the whole run, as any other
    size does. The rate is nan where either error is zero or not finite.
    """
    model, domain = _setup(config.case)
    if not 2 <= config.j_min <= config.j_max <= 7:
        raise ValueError("j range must satisfy 2 <= j_min <= j_max <= 7")
    n_quad = config.quad_ladder[0]
    # built and evaluated once, before any level
    nodes, weights = _rule(model, domain, n_quad, NODE_BYTES)
    paths = solver.path_table(*model.evaluate(nodes))
    rows = []
    prev = None
    for j in range(config.j_min, config.j_max + 1):
        disc = solver.Discretization(_discretization(config, 2 ** j, 4 ** j, n_quad),
                                     solver.TimeGrid.uniform(1.0, 4 ** j))
        errors = _mode_errors(disc, *paths)
        mean_error = float(np.sum(weights * errors)) if np.all(np.isfinite(errors)) \
            else math.nan
        h = disc.pair.mesh.h
        k = disc.grid.k_max
        rate = math.nan
        if prev is not None and 0 < prev[1] < math.inf and 0 < mean_error < math.inf:
            rate = math.log(prev[1] / mean_error) / math.log(prev[0] / h)
        rows.append((config.case, j, h, k, n_quad, mean_error, rate))
        prev = (h, mean_error)
    return rows


def _node_text(nodes, a, valid) -> tuple:
    """(leads, tails): each node's text of an infsup line before the grid's
    c_S (omega, a_omega and the sigmas, each with its comma) and after the
    row's c_S_omega (a comma, the theory bounds and the newline). The bounds
    are whole arrays in oracle.theoretical_constants' operation order at
    a_min = a_max = a; a flagged node's a takes part in the arithmetic and
    its values are then masked to nan, as are its sigmas."""
    leads, tails = [], []
    # a block of WRITE_VALUES nodes at a time, so that the Python floats the
    # text is formed from are those of one block
    for start in range(0, a.size, WRITE_VALUES):
        block = slice(start, start + WRITE_VALUES)
        values, ok = a[block], valid[block]
        with np.errstate(over="ignore", invalid="ignore"):
            theory = (np.minimum(values, 1.0 / (values / values)) / math.sqrt(2.0),
                      math.sqrt(2.0) * np.maximum(1.0, values))
        tails += map(_INFSUP_TAIL.format, *np.where(ok, theory, math.nan).tolist())
        sigma = np.where(ok, 1.0, math.nan).tolist()
        leads += map(_INFSUP_LEAD.format, nodes[block].tolist(), values.tolist(), sigma, sigma)
    return leads, tails


def run_infsup(config: ExperimentConfig):
    """Stability-constant grid over (n_cells, n_steps, parameter node).

    In the weighted norms each mode block of the discrete pair
    (solver.mode_blocks) satisfies G_X = B G_Y^-1 B': the jump D and the
    interval mean A give 2 (Ax).(Dx) = -x_0^2. So L_X^-1 B G_Y^(-1/2) is
    orthogonal and every weighted inf-sup and continuity constant is
    exactly 1, the paper's claim, which a valid node reports with no SVD.
    A node of an a reason in solver.path_table is flagged: nan in every
    column that needs a. The tests check the identity band by band and
    against the SVD oracles (constants.discrete_infsup, oracle.dense_infsup).

    Each input is made once: a(w) per run, one pair per --cells entry (the
    previous one released first), one k_max per --steps value, with no
    grid (solver.uniform_k_max), and c_S per grid. The columns are whole
    arrays in the operation order of the scalar formulas
    (oracle.weighted_cfl and theoretical_constants at a_min = a_max = a),
    so every value has their bits. Each is formatted once too: the run
    returns an InfsupRows view that holds each node's text (_node_text)
    and each grid's c_S, and the writer forms c_S_omega, the one column
    that needs both, a block at a time. Errors come in the order of a
    per-grid loop: the rule, then each grid in cells-major order, its steps
    before its cells, all before any byte is written.
    """
    model, domain = _setup(config.case)
    nodes, _ = _rule(model, domain, config.quad_ladder[0], NODE_BYTES + TEXT_BYTES)
    a, _, reason = solver.path_table(*model.evaluate(nodes))
    valid = (reason == 0) | (reason == 3)  # c0 enters no column
    leads, tails = _node_text(nodes, a, valid)
    k_max = {}
    grids = []
    for n_cells in config.n_cells:
        pair = None  # released before the next one is built
        pair = _discretization(config, n_cells, config.n_steps[0], len(a))
        for n_steps in config.n_steps:
            if n_steps not in k_max:
                k_max[n_steps] = solver.uniform_k_max(n_steps)
            grids.append((n_cells, n_steps, consts.cfl_constant(pair, k_max[n_steps])))
    return InfsupRows(config.case, grids, a, valid, leads, tails)


def run_solve(config: ExperimentConfig):
    """One pathwise solve, dumped as interval-indexed nodal values: the
    rank-one rows of its closed-form profile and the pair's excited mode."""
    model, _ = _setup(config.case)
    pair = _discretization(config, config.n_cells[0], config.n_steps[0])
    times = solver.TimeGrid.uniform(1.0, config.n_steps[0]).nodes[1:]
    y = solver.path_profile(model, pair, config.n_steps[0], config.omega)
    return SolveRows(times, y, pair.excited_vector)


def _int_list(text: str):
    return tuple(int(part) for part in text.split(","))


def _one_int(text: str):
    return (int(text),)


def _float_list(text: str):
    return tuple(float(part) for part in text.split(","))


# the names argparse prints in "invalid <name> value: ..."
_int_list.__name__ = "integer list"
_one_int.__name__ = "integer"
_float_list.__name__ = "number list"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts like a negative number (-1,4 or -.5,2)
        # is a value, as in Python 3.13's argparse, so that a comma list
        # reaches its range check instead of reading as an unknown option
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# The options each subcommand reads besides --case, --dim, --degree and
# --out, with the type of each (a comma list only where its run_* function
# reads a list), and the defaults that differ from ExperimentConfig. An
# option a subcommand does not read is a usage error there. --seed and
# --jobs have no effect; the determinism criterion and the benchmark pass
# them.
_SUBCOMMANDS = {
    "moments": ({"--cells": _one_int, "--steps": _one_int, "--p": _float_list,
                 "--n-quad-ladder": _int_list, "--seed": int, "--jobs": int}, {}),
    "convergence": ({"--j-min": int, "--j-max": int, "--n-quad-ladder": _one_int,
                     "--jobs": int}, dict(case="lognormal", dim=1)),
    "infsup": ({"--cells": _int_list, "--steps": _int_list, "--n-quad-ladder": _one_int},
               dict(dim=1, n_cells=(4, 8), n_steps=(4, 16))),
    "solve": ({"--cells": _one_int, "--steps": _one_int, "--omega": float},
              dict(case="constant", dim=1)),
}

# dest and help of each option that only some subcommands take
_OPTIONS = {
    "--cells": ("n_cells", "spatial cells per axis (comma list for infsup grids)"),
    "--steps": ("n_steps", "time steps (comma list for infsup grids)"),
    "--j-min": ("j_min", "first level j of the ladder h = 2^-j, k = 2^-2j"),
    "--j-max": ("j_max", "last level j of the ladder"),
    "--p": ("p_values", "comma list of moment orders"),
    "--n-quad-ladder": ("quad_ladder", "parameter quadrature sizes (comma list for "
                        "moments, one size for convergence and infsup)"),
    "--seed": ("seed", "accepted for compatibility; has no effect, every rule is "
               "deterministic"),
    "--jobs": ("jobs", "accepted for compatibility; has no effect, the paths of a "
               "rung are solved together in one process"),
    "--omega": ("omega", "parameter value of the solve"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="stpg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (options, defaults) in _SUBCOMMANDS.items():
        # an option left out stays out of the namespace: config_from_args
        # gives its field the ExperimentConfig default
        cmd = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--case",
                         help="coefficient case: a, b, c, d, lognormal, constant, zero")
        cmd.add_argument("--dim", type=int, choices=(1, 2), help="space dimension")
        cmd.add_argument("--degree", type=int, choices=(1, 2),
                         help="spatial basis: 1 hats, 2 quadratic splines (1-D only)")
        for flag, kind in options.items():
            dest, text = _OPTIONS[flag]
            cmd.add_argument(flag, dest=dest, type=kind, help=text)
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.set_defaults(**defaults)
    return parser


def config_from_args(args) -> ExperimentConfig:
    """The config of parsed arguments.

    Every option's dest is a field name, except the no-effect --seed and
    --jobs; a field the subcommand has no option for keeps its default.
    """
    return ExperimentConfig(**{f.name: getattr(args, f.name)
                               for f in fields(ExperimentConfig)
                               if hasattr(args, f.name)})


def _report(config: ExperimentConfig):
    """Run the subcommand; returns (header, rows, trailer)."""
    if config.subcommand == "moments":
        rows, _, trailer = run_moments(config)
        return MOMENTS_HEADER, rows, trailer
    if config.subcommand == "convergence":
        return CONVERGENCE_HEADER, run_convergence(config), ()
    if config.subcommand == "infsup":
        return INFSUP_HEADER, run_infsup(config), ()
    return SOLVE_HEADER, run_solve(config), ()


@functools.cache
def _parser() -> _Parser:
    """build_parser's parser, built on the first call of a process and kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = config_from_args(args)
    try:
        header, rows, trailer = _report(config)
    except ValueError as exc:
        print(f"stpg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceCapError, MemoryError) as exc:
        # numpy names the size it could not allocate; a bare MemoryError is empty
        print(f"stpg: resource cap: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (solver.PathwiseSolveError, np.linalg.LinAlgError) as exc:
        print(f"stpg: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        write_csv(config.out, header, rows, trailer)
    except OSError as exc:
        print(f"stpg: error: cannot write {config.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("stpg: resource cap: out of memory while writing the report",
              file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
