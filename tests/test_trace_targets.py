"""The traced benchmark run (``perfbench/run.py --trace 1``) rebinds stpg
functions by module and name. Every name it wraps must keep resolving,
or the traced run breaks; these tests also pin the call counts that the
per-layer metrics report for the shared per-grid work."""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from conftest import forbid_dense_solves
from stpg import cli, fem, oracle, solver

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _spans()
    for name in spans.MODULES:
        importlib.import_module(name)
    for mod, fn, _ in spans.TARGETS:
        assert callable(getattr(sys.modules[f"stpg.{mod}"], fn)), f"stpg.{mod}.{fn}"
    for fn in spans.DRIVERS:
        assert callable(getattr(cli, fn)), f"stpg.cli.{fn}"


def _traced(spans, argv):
    tracer = spans.Tracer()
    with tracer.installed(), tracer.call(argv[0]):
        assert cli.main(argv) == cli.EXIT_OK
    return spans.layer_metrics(tracer.spans)


def test_per_grid_work_runs_once_per_grid(tmp_path, monkeypatch):
    spans = _spans()
    out = str(tmp_path / "out.csv")
    calls = []

    def dense(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a dense solve in a CLI run")

    # the tracer wraps what is bound when it is installed
    forbid_dense_solves(monkeypatch, dense)
    metrics = _traced(spans, ["convergence", "--case", "lognormal", "--j-min", "2",
                              "--j-max", "3", "--n-quad-ladder", "4", "--out", out])
    # each level's profiles come in closed form: no dense solve, and no
    # time weights of its grid, which only the step loop reads
    assert calls == []
    assert metrics["solver.solve_pathwise.calls"][0] == 0
    assert metrics["solver.time_weights.calls"][0] == 0
    metrics = _traced(spans, ["infsup", "--cells", "4,8", "--steps", "4",
                              "--n-quad-ladder", "4", "--out", out])
    # the weighted constants are the band identity's 1: no SVD oracle,
    # and one CFL constant per grid (2)
    assert metrics["constants.discrete_infsup.calls"][0] == 0
    assert metrics["constants.cfl_constant.calls"][0] == 2


def test_profile_quadrature_once_per_grid(tmp_path, monkeypatch):
    # a convergence level forms the 5-point Gauss rule of its grid and
    # the trig values of the profile there once, for all of its paths, as
    # (5, N) arrays, point i of every interval in row i; only the decay
    # exp(-a lam t) is per path, formed for the level's 4 paths in one
    # call on the (5, P, N) stack
    gauss = []
    calls = {"sin": [], "cos": [], "exp": []}
    interval_gauss = fem.interval_gauss

    def gauss_counting(nodes, n_points):
        gauss.append((len(nodes) - 1, n_points))
        return interval_gauss(nodes, n_points)

    for module in (fem, solver, oracle):
        monkeypatch.setattr(module, "interval_gauss", gauss_counting, raising=False)
    for name, shapes in calls.items():
        def counting(x, *args, _ufunc=getattr(np, name), _shapes=shapes, **kwargs):
            _shapes.append(np.shape(x))
            return _ufunc(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    argv = ["convergence", "--case", "lognormal", "--j-min", "2", "--j-max", "3",
            "--n-quad-ladder", "4", "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    # two levels of 16 and 64 steps, 4 paths each
    assert [call for call in gauss if call[1] == 5] == [(16, 5), (64, 5)]
    for name in ("sin", "cos"):
        assert [s for s in calls[name] if s[:1] == (5,)] == [(5, 16), (5, 64)], name
    assert [s for s in calls["exp"] if s[:1] == (5,)] == [(5, 4, 16), (5, 4, 64)]


class _RecordingNumpy:
    """numpy as one module sees it, recording the shape of every np.sin
    result and the (shape, axis) of every np.sum and np.add.reduce, the
    axis counted from 0."""

    def __init__(self):
        self.sines, self.reductions = [], []
        # np.add itself, with its reduce recorded
        self.add = functools.partial(np.add)
        self.add.reduce = self._recorded(np.add.reduce)
        self.sum = self._recorded(np.sum)

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, *args, **kwargs):
        result = np.sin(*args, **kwargs)
        self.sines.append(np.shape(result))
        return result

    def _recorded(self, reduce):
        def recorded(array, axis=None, **kwargs):
            shape = np.shape(array)
            self.reductions.append((shape, None if axis is None else axis % len(shape)))
            return reduce(array, axis=axis, **kwargs)

        return recorded


def test_error_layer_takes_one_sine_per_step_and_reduces_no_trailing_gauss_axis(
        tmp_path, monkeypatch):
    # in a convergence run, uniform_profile takes the sine of each step's
    # angle once, on the (N,) angles, never broadcast into the (P, N)
    # profile; and block_errors reduces its 5 Gauss points over the leading
    # axis of the (5, P, N) stack, never over a trailing axis of length 5
    in_solver, in_oracle = _RecordingNumpy(), _RecordingNumpy()
    monkeypatch.setattr(solver, "np", in_solver)
    monkeypatch.setattr(oracle, "np", in_oracle)
    argv = ["convergence", "--case", "lognormal", "--j-min", "2", "--j-max", "3",
            "--n-quad-ladder", "4", "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == cli.EXIT_OK
    # two levels of 16 and 64 steps, 4 paths each: per level the profile's
    # sines, then those of the grid's (5, N) Gauss points (the others are
    # scalars and the first time weight's)
    assert [s for s in in_solver.sines if s[-1:] in ((16,), (64,))] == [
        (16,), (5, 16), (64,), (5, 64)]
    gauss = [(shape, axis) for shape, axis in in_oracle.reductions if 5 in shape]
    assert gauss == 2 * [((5, 4, 16), 0)] + 2 * [((5, 4, 64), 0)]
    assert not [shape for shape, axis in in_oracle.reductions
                if axis is not None and axis == len(shape) - 1 and shape[axis] == 5]


def test_mode_vector_once_per_mesh(tmp_path):
    spans = _spans()
    tracer = spans.Tracer()
    argv = ["convergence", "--case", "lognormal", "--j-min", "2", "--j-max", "3",
            "--n-quad-ladder", "4", "--out", str(tmp_path / "out.csv")]
    with tracer.installed(), tracer.call(argv[0]):
        assert cli.main(argv) == cli.EXIT_OK
    assert sum(span.name == "fem.mode_load_vector" for span in tracer.spans) == 2


def test_write_csv_probe_counts_the_solve_rows(tmp_path):
    # the probe reads len(rows) and the file size after the call, so the
    # row view of a solve must report every row the file holds
    out = tmp_path / "out.csv"
    metrics = _traced(_spans(), ["solve", "--dim", "2", "--cells", "8", "--steps", "6",
                                 "--out", str(out)])
    assert metrics["cli.write_csv.rows"][0] == 6 * 49
    assert len(out.read_text().splitlines()) == 1 + 6 * 49
    assert metrics["cli.write_csv.bytes"][0] == out.stat().st_size
