"""Benchmark of the stpg experiments.

Run from the repository root:

    python3 perfbench/run.py --workload moments-acceptance --seed 1 \
        --seconds 10 --trace 0

One client issues the workload's CLI calls (``stpg.cli.main``) one after
another in this process, as a closed loop, with the BLAS thread count
pinned to 1. A pass runs every call of the workload once. The first pass
is a warm-up: its outputs are checked, its times are left out. The run
repeats passes until ``--seconds`` have elapsed, warm-up included, and at
least two timed passes are done. Every output CSV is checked against the
stored reference and the paper's claims, and every later pass must
reproduce the first pass's bytes.

Before every call a fixed slice of reference work that does not touch
stpg is timed (``reference_kernel``), on the same CPU as the calls. The
speed of a shared host drifts by tens of percent over seconds to
minutes, and the reference slices drift with it, so the end-to-end times
are the mean timed pass divided by the mean slice of the same run.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` untraced and traced passes
alternate and the line reports the per-layer metrics of the traced
passes plus the tracing overhead. The lines before it record the
environment and the raw timings; a full record and the trace spans go to
``perfbench/out/``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import outputs
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
REFERENCE_N = 32
REFERENCE_DENSE = 400
SETUP_SAMPLES = 5
SETUP_CODE = ("import time; t = time.perf_counter(); import stpg.cli; "
              "stpg.cli.build_parser(); print(time.perf_counter() - t); "
              "print(stpg.cli.__file__)")


class BenchError(RuntimeError):
    """The benchmark cannot run here, for example without the sources."""


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def load_cli():
    """Import ``stpg.cli`` from this checkout with the BLAS threads pinned."""
    if not (SRC / "stpg" / "cli.py").is_file():
        raise BenchError(f"no stpg sources under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import stpg.cli
    if not _inside_src(stpg.cli.__file__):
        raise BenchError(f"stpg imported from {stpg.cli.__file__}, not {SRC}")
    return stpg.cli


def measure_setup() -> list:
    """Seconds a fresh interpreter takes to import stpg.cli and build the
    parser, one sample per interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not _inside_src(lines[1]):
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
        samples.append(float(lines[0]))
    return samples


def _blas_runtime_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS library."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    found = {}
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib_path).name] = fn()
                break
    return found


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "stpg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def pin_serial_workload(workload: str):
    """Keep a workload whose calls each use one thread on one CPU, so that
    the reference work runs on the same core as the calls; returns the
    CPU, or None for a threaded workload."""
    if any(workloads.threads(call) > 1 for call in workloads.WORKLOADS[workload]):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def reference_kernel(steps: int, svds: int) -> float:
    """Seconds one fixed slice of reference work takes, without any stpg
    code: ``steps`` steps of a time-stepping loop over a small vector,
    then ``svds`` dense SVDs."""
    import numpy as np
    step = (np.eye(REFERENCE_N) * 0.5 + np.eye(REFERENCE_N, k=1) * 0.2
            + np.eye(REFERENCE_N, k=-1) * 0.2)
    dense = np.random.default_rng(0).standard_normal(
        (REFERENCE_DENSE, REFERENCE_DENSE))
    start = time.perf_counter()
    x = np.ones(REFERENCE_N)
    for _ in range(steps):
        x = step @ x + 0.1
    for _ in range(svds):
        np.linalg.svd(dense)
    return time.perf_counter() - start


def run_pass(cli, calls, reference, workdir: Path, index: int, tracer=None):
    """Issue every call once, each after a slice of the ``reference``
    work; returns (wall_s, cpu_s, [slice s], [(call, code, csv)])."""
    results, slices = [], []
    wall = cpu = 0.0
    for call in calls:
        slices.append(reference_kernel(*reference))
        out = workdir / f"{call.name}.{index}.csv"
        scope = tracer.call(call.name) if tracer else nullcontext()
        cpu_start = _cpu_seconds()
        start = time.perf_counter()
        try:
            with scope:
                code = cli.main([*call.argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        wall += time.perf_counter() - start
        cpu += _cpu_seconds() - cpu_start
        results.append((call, code, out))
    return wall, cpu, slices, results


class Checker:
    """Checks each call's output; later passes must match the first's bytes.

    The reference and claim checks run on a call's first output; a later
    output with the same bytes shares their verdict.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.first = {}
        self.attempted = 0
        self.failures = []

    def _problems(self, call, code, out: Path) -> list:
        if code != 0:
            return [f"exit code {code}"]
        if not out.is_file():
            return ["no output CSV"]
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if call.name in self.first:
            first_digest, first_problems = self.first[call.name]
            if digest != first_digest:
                return first_problems + ["CSV bytes differ from pass 0"]
            return list(first_problems)
        reference = outputs.reference_path(self.workload, call)
        try:
            problems = (outputs.compare_csv(out, reference, call.kind)
                        + outputs.claim_problems(self.workload, call, out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output check failed: {exc!r}"]
        self.first[call.name] = (digest, problems)
        return problems

    def check(self, index: int, results):
        for call, code, out in results:
            self.attempted += 1
            problems = self._problems(call, code, out)
            if problems:
                self.failures.append({"pass": index, "call": call.name,
                                      "problems": problems})
                print(f"FAIL pass {index} {call.name}: {'; '.join(problems)}",
                      file=sys.stderr)
            out.unlink(missing_ok=True)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
        env = environment(args.workload, args.seed)
        env["pinned_cpu"] = pin_serial_workload(args.workload)
        setup_samples = measure_setup()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    calls = workloads.calls(args.workload, args.seed)
    reference = workloads.REFERENCE_WORK[args.workload]
    unknowns = sum(call.unknowns for call in calls)
    checker = Checker(args.workload)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    untraced, traced, tracers, slices = [], [], [], []
    started = time.perf_counter()
    try:
        wall, cpu, _, results = run_pass(cli, calls, reference, workdir, 0)
        warmup = (wall, cpu)
        checker.check(0, results)
        while True:
            index = 1 + len(untraced) + len(traced)
            if args.trace and len(traced) < len(untraced):
                tracer = spans.Tracer()
                with tracer.installed():
                    wall, cpu, _, results = run_pass(cli, calls, reference,
                                                     workdir, index, tracer)
                traced.append((wall, cpu))
                tracers.append(tracer)
            else:
                wall, cpu, pass_slices, results = run_pass(cli, calls, reference,
                                                           workdir, index)
                untraced.append((wall, cpu))
                slices.extend(pass_slices)
            checker.check(index, results)
            enough = (len(traced) >= 1 and len(traced) == len(untraced)
                      if args.trace else len(untraced) >= MIN_PASSES)
            if enough and time.perf_counter() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [wall for wall, _ in untraced]
    wall_s = statistics.fmean(walls)
    cpu_s = statistics.fmean(cpu for _, cpu in untraced)
    slice_s = statistics.fmean(slices)
    timings = {"wall_s": wall_s, "cpu_s": cpu_s, "reference_slice_s": slice_s,
               "timed_passes": len(untraced), "reference_slices": len(slices)}
    failed = len(checker.failures)
    if args.trace:
        layers = [spans.layer_metrics(t.spans) for t in tracers]
        metrics = {name: _metric(statistics.median(m[name][0] for m in layers),
                                 unit)
                   for name, (_, unit) in layers[0].items()}
        overhead = statistics.fmean(wall for wall, _ in traced) - wall_s
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        with open(OUT / f"spans-{tag}.json", "w", encoding="ascii") as fh:
            json.dump([t.to_json() for t in tracers], fh)
    else:
        metrics = {
            "wall_rel": _metric(wall_s / slice_s, "ratio"),
            "unknowns_per_ref": _metric(unknowns * slice_s / wall_s, "1/ref"),
            "cpu_rel": _metric(cpu_s / slice_s, "ratio"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": _metric((checker.attempted - failed) / checker.attempted,
                               "ratio"),
        }
    result = {"correct": failed == 0, "attempted": checker.attempted,
              "failed": failed, "metrics": metrics}
    record = {**result, "environment": env, "timings": timings,
              "calls": [call.name for call in calls],
              "unknowns_per_pass": unknowns,
              "samples": {"reference_slice_s": slices,
                          "warmup_wall_cpu_s": warmup,
                          "untraced_wall_cpu_s": untraced,
                          "traced_wall_cpu_s": traced,
                          "setup_s": setup_samples},
              "failures": checker.failures}
    with open(OUT / f"result-{tag}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps({"timings": timings}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
