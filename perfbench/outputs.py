"""Output checks of the stpg benchmark.

Every CSV a call writes is compared against a reference CSV generated at
the commit that introduced the benchmark (``reference/``). Integer and
string columns and trailer lines must match exactly; float columns must
agree within ``FLOAT_RTOL`` relative to the reference column's largest
finite magnitude, and ``nan`` matches only ``nan``. On top of that the
paper's claims are asserted on the same outputs. The comparison streams
both files so that checking a large CSV does not raise the run's peak
memory.
"""

import lzma
import math
from itertools import zip_longest
from pathlib import Path

import workloads

FLOAT_RTOL = 1e-9
MAX_PROBLEMS = 5

# Column types of each CSV schema, by subcommand (see the README).
SCHEMAS = {
    "moments": ("str", "int", "float", "float", "int"),
    "convergence": ("str", "int", "float", "float", "int", "float", "float"),
    "infsup": ("str", "int", "int") + ("float",) * 8,
    "solve": ("int", "float", "int", "float"),
}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str, call) -> Path:
    """Stored reference CSV of a call; large ones are xz-compressed."""
    base = REFERENCE_DIR / workload / f"{call.name}.csv"
    return base if base.exists() else base.with_name(base.name + ".xz")


def _open_text(path: Path):
    if path.suffix == ".xz":
        return lzma.open(path, "rt", encoding="ascii", newline="")
    return open(path, encoding="ascii", newline="")


def _lines(path: Path):
    with _open_text(path) as fh:
        for line in fh:
            yield line.rstrip("\n")


def _column_scales(path: Path, types) -> list:
    """Largest finite magnitude of each float column."""
    scales = [0.0] * len(types)
    lines = _lines(path)
    next(lines, None)
    for line in lines:
        if line.startswith("#"):
            continue
        for i, text in enumerate(line.split(",")[:len(types)]):
            if types[i] == "float":
                value = abs(float(text))
                if math.isfinite(value):
                    scales[i] = max(scales[i], value)
    return scales


def _field_problem(kind: str, got: str, want: str, scale: float):
    if kind != "float":
        return None if got == want else f"{got!r} != {want!r}"
    try:
        g, w = float(got), float(want)
    except ValueError:
        return f"{got!r} is not a float"
    if math.isnan(w) or math.isnan(g):
        return None if math.isnan(w) and math.isnan(g) else f"{got} != {want}"
    if not (math.isfinite(w) and math.isfinite(g)):
        return None if g == w else f"{got} != {want}"
    if abs(g - w) <= FLOAT_RTOL * scale:
        return None
    return f"{got} != {want} (tolerance {FLOAT_RTOL * scale:.3g})"


def compare_csv(actual: Path, reference: Path, kind: str) -> list:
    """Differences between a CSV and its reference; empty when they agree."""
    types = SCHEMAS[kind]
    scales = _column_scales(reference, types)
    problems = []
    pairs = zip_longest(_lines(actual), _lines(reference))
    for number, (got, want) in enumerate(pairs, 1):
        if got is None or want is None:
            problems.append(f"line {number}: "
                            f"{'missing' if got is None else 'unexpected'} line")
            break
        if number == 1 or want.startswith("#") or got.startswith("#"):
            if got != want:
                problems.append(f"line {number}: {got!r} != {want!r}")
        else:
            fields, ref_fields = got.split(","), want.split(",")
            if len(fields) != len(ref_fields):
                problems.append(f"line {number}: {len(fields)} fields, "
                                f"expected {len(ref_fields)}")
                fields = ()
            for i, (g, w) in enumerate(zip(fields, ref_fields)):
                issue = _field_problem(types[i], g, w, scales[i])
                if issue:
                    problems.append(f"line {number} column {i + 1}: {issue}")
                    break
        if len(problems) >= MAX_PROBLEMS:
            break
    return problems


def read_csv(path: Path):
    """(rows as dicts, trailer lines without '# ') of a small CSV."""
    lines = list(_lines(path))
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]
            if not line.startswith("#")]
    trailer = [line[2:] for line in lines[1:] if line.startswith("#")]
    return rows, trailer


def fitted_rate(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    xs = [math.log(h) for h in hs]
    ys = [math.log(e) for e in errors]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def claim_problems(workload: str, call, path: Path) -> list:
    """The paper's claims that the call's output must satisfy."""
    if workload == "moments-acceptance":
        _, trailer = read_csv(path)
        found = {}
        for line in trailer:
            tag, _, rest = line.partition(",")
            if tag == "classification":
                order, _, label = rest.partition(",")
                found[order.removeprefix("p=")] = label
        case = workloads.option(call, "--case")
        expected = workloads.EXPECTED_CLASSIFICATIONS[case]
        if found != expected:
            return [f"classifications {found} != criterion 6 table {expected}"]
    elif call.kind == "convergence":
        rows, _ = read_csv(path)
        try:
            rate = fitted_rate([float(r["h"]) for r in rows],
                               [float(r["mean_error"]) for r in rows])
        except (ValueError, ZeroDivisionError) as exc:
            return [f"rate fit failed: {exc}"]
        degree = workloads.option(call, "--degree")
        low, high = workloads.RATE_WINDOWS[degree]
        if not low <= rate <= high:
            return [f"degree {degree} fitted rate {rate:.4f} outside "
                    f"[{low}, {high}]"]
    elif call.kind == "infsup":
        rows, _ = read_csv(path)
        tol = workloads.SIGMA_TOLERANCE
        for row in rows:
            for column in ("sigma_min", "sigma_max"):
                value = float(row[column])
                if not abs(value - 1.0) <= tol:
                    return [f"{column} = {value!r} is not within {tol} of 1 "
                            f"(cells {row['n_cells']}, steps {row['n_steps']}, "
                            f"omega {row['omega']})"]
    return []
