"""In-process tracing of the stpg layers for the benchmark's traced run.

The tracer rebinds the public functions of each ``stpg`` module to thin
wrappers that record a span per call: name, start, end, thread, parent
span and the id of the CLI call it belongs to. A function imported by
name into another ``stpg`` module is rebound there too, so internal calls
such as ``solver.solve_pathwise -> time_weights`` are caught. Spans
opened on a worker thread with no open span of its own take the running
``cli.run_*`` span as parent. Nothing inside ``stpg`` is edited; the
wrappers are removed when the traced pass ends.
"""

import functools
import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    call: int
    parent: int
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = None


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _solve_attrs(args, kwargs, result):
    disc = _arg(args, kwargs, 1, "disc")
    return {"unknowns": disc.n_dof * disc.grid.n_intervals}


def _time_weights_attrs(args, kwargs, result):
    nodes = _arg(args, kwargs, 0, "grid").nodes
    return {"key": (nodes.size, hash(nodes.tobytes()))}


def _infsup_attrs(args, kwargs, result):
    return {"size": _arg(args, kwargs, 0, "bilinear").shape[0]}


def _cfl_attrs(args, kwargs, result):
    return {"key": (_arg(args, kwargs, 0, "pair").mesh, float(_arg(args, kwargs, 1, "k")))}


def _quadrature_attrs(args, kwargs, result):
    return {"nodes": len(result[0]) if result is not None else 0}


def _write_csv_attrs(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    rows = _arg(args, kwargs, 2, "rows")
    size = os.path.getsize(path) if os.path.exists(path) else 0
    return {"rows": len(rows), "bytes": size}


# (module, function, attribute probe); probes run after the call ends.
TARGETS = (
    ("fem", "assemble", None),
    ("fem", "mode_load_vector", None),
    ("solver", "solve_pathwise", _solve_attrs),
    ("solver", "time_weights", _time_weights_attrs),
    ("solver", "trial_energy_norm", None),
    ("solver", "assemble_full_system", None),
    ("solver", "build_grams", None),
    ("oracle", "exact_error", None),
    ("constants", "discrete_infsup", _infsup_attrs),
    ("constants", "cfl_constant", _cfl_attrs),
    ("stochastic", "quadrature", _quadrature_attrs),
    ("stochastic", "lp_norm", None),
    ("cli", "write_csv", _write_csv_attrs),
)
DRIVERS = ("run_moments", "run_convergence", "run_infsup", "run_solve")
MODULES = ("stpg", "stpg.cli", "stpg.fem", "stpg.solver", "stpg.oracle",
           "stpg.constants", "stpg.stochastic")


class Tracer:
    """Collects spans in memory; ``installed()`` scopes the wrappers."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._call = 0
        self._driver = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            parent = self._driver.id if self._driver is not None else 0
        span = Span(id=next(self._ids), name=name, call=self._call,
                    parent=parent, thread=threading.get_ident(),
                    start=time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def call(self, name: str):
        """Root span of one CLI call; its descendants share its call id."""
        self._call += 1
        span = self._open("cli.main")
        span.attrs = {"call": name}
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, label: str, fn, probe=None, driver: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(label)
            if driver:
                self._driver = span
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.attrs = {"error": type(exc).__name__}
                raise
            finally:
                self._close(span)
                if driver:
                    self._driver = None
                if probe is not None:
                    span.attrs = {**(span.attrs or {}),
                                  **probe(args, kwargs, result)}
        return traced

    @contextmanager
    def installed(self):
        """Rebind every target in each stpg module that holds it."""
        modules = [sys.modules[name] for name in MODULES]
        targets = [(mod, fn, probe, False) for mod, fn, probe in TARGETS]
        targets += [("cli", fn, None, True) for fn in DRIVERS]
        restore = []
        try:
            for mod, fn, probe, driver in targets:
                original = getattr(sys.modules[f"stpg.{mod}"], fn)
                wrapper = self.wrap(f"{mod}.{fn}", original, probe, driver)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            restore.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    def to_json(self) -> dict:
        """Every span as plain JSON data."""
        fields = ["id", "name", "call", "parent", "thread", "start", "end",
                  "attrs"]
        rows = [[s.id, s.name, s.call, s.parent, s.thread, s.start, s.end,
                 {k: v for k, v in (s.attrs or {}).items() if k != "key"}]
                for s in self.spans]
        return {"fields": fields, "spans": rows}


def interval_union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {s.id: (s.end - s.start)
            - interval_union(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    A layer that did not run reports zero.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_times(spans)

    def group(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.end - s.start for s in group(name))

    def count(name):
        return len(group(name))

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in group(name))

    def useful(name):
        calls = count(name)
        distinct = {s.attrs["key"] for s in group(name)}
        return len(distinct) / calls if calls else 0.0

    def self_s(*names):
        return sum(own[s.id] for name in names for s in group(name))

    solve = "solver.solve_pathwise"
    flagged = sum(1 for s in group(solve)
                  if (s.attrs or {}).get("error") == "PathwiseSolveError")
    sizes = [s.attrs["size"] for s in group("constants.discrete_infsup")]
    return {
        "fem.assemble.s": (total("fem.assemble"), "s"),
        "fem.assemble.calls": (count("fem.assemble"), "count"),
        "fem.mode_load_vector.s": (total("fem.mode_load_vector"), "s"),
        "solver.solve_pathwise.self_s": (self_s(solve), "s"),
        "solver.solve_pathwise.calls": (count(solve), "count"),
        "solver.solve_pathwise.flagged": (flagged, "count"),
        "solver.solve_pathwise.unknowns": (attr_sum(solve, "unknowns"), "count"),
        "solver.time_weights.s": (total("solver.time_weights"), "s"),
        "solver.time_weights.calls": (count("solver.time_weights"), "count"),
        "solver.time_weights.useful_ratio": (useful("solver.time_weights"), "ratio"),
        "solver.trial_energy_norm.s": (total("solver.trial_energy_norm"), "s"),
        "solver.assemble_full_system.s": (total("solver.assemble_full_system"), "s"),
        "solver.build_grams.s": (total("solver.build_grams"), "s"),
        "oracle.exact_error.s": (total("oracle.exact_error"), "s"),
        "oracle.exact_error.calls": (count("oracle.exact_error"), "count"),
        "constants.discrete_infsup.s": (total("constants.discrete_infsup"), "s"),
        "constants.discrete_infsup.calls": (count("constants.discrete_infsup"), "count"),
        "constants.discrete_infsup.size_max": (max(sizes, default=0), "count"),
        "constants.cfl_constant.s": (total("constants.cfl_constant"), "s"),
        "constants.cfl_constant.calls": (count("constants.cfl_constant"), "count"),
        "constants.cfl_constant.useful_ratio": (useful("constants.cfl_constant"), "ratio"),
        "stochastic.quadrature.s": (total("stochastic.quadrature"), "s"),
        "stochastic.quadrature.nodes": (attr_sum("stochastic.quadrature", "nodes"), "count"),
        "stochastic.lp_norm.s": (total("stochastic.lp_norm"), "s"),
        "cli.driver.self_s": (self_s(*(f"cli.{fn}" for fn in DRIVERS)), "s"),
        "cli.write_csv.s": (total("cli.write_csv"), "s"),
        "cli.write_csv.rows": (attr_sum("cli.write_csv", "rows"), "count"),
        "cli.write_csv.bytes": (attr_sum("cli.write_csv", "bytes"), "bytes"),
    }
