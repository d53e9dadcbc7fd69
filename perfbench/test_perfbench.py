"""Tests of the benchmark's own logic: call lists, output checks, spans."""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import outputs
import spans
import workloads

ISSUED = {
    "moments-acceptance": [
        f"moments --case {case} --dim 2 --cells 8 --steps 32 "
        "--n-quad-ladder 8,16,32,64,128,256 --p 1,2 --jobs 2" for case in "abcd"],
    "convergence-lognormal": [
        f"convergence --case lognormal --dim 1 --degree {degree} --j-min 2 "
        "--j-max 5 --n-quad-ladder 64 --jobs 1" for degree in (1, 2)],
    "convergence-lognormal-q16": [
        f"convergence --case lognormal --dim 1 --degree {degree} --j-min 2 "
        "--j-max 5 --n-quad-ladder 16 --jobs 1" for degree in (1, 2)],
    "dense-2d": [
        "moments --case a --dim 2 --cells 16 --steps 64 "
        "--n-quad-ladder 8,16,32,64 --jobs 1",
        "solve --case constant --dim 2 --cells 32 --steps 128"],
    "infsup-dense": [
        "infsup --case a --dim 1 --cells 8,16,32 --steps 16,32 --n-quad-ladder 4"],
}


def test_workload_calls_are_generated_as_named():
    assert set(workloads.WORKLOADS) == set(ISSUED)
    for name, expected in ISSUED.items():
        argvs = [" ".join(call.argv) for call in workloads.WORKLOADS[name]]
        assert argvs == expected
        names = [call.name for call in workloads.WORKLOADS[name]]
        assert len(set(names)) == len(names)


def test_only_the_thread_pool_workload_runs_threads():
    assert set(workloads.REFERENCE_WORK) == set(workloads.WORKLOADS)
    for name, calls in workloads.WORKLOADS.items():
        expected = 2 if name == "moments-acceptance" else 1
        assert {workloads.threads(call) for call in calls} == {expected}


def test_seed_orders_calls_reproducibly():
    for name in workloads.WORKLOADS:
        first = workloads.calls(name, 7)
        assert first == workloads.calls(name, 7)
        assert sorted(first, key=str) == sorted(workloads.WORKLOADS[name], key=str)
    orders = {tuple(c.name for c in workloads.calls("moments-acceptance", seed))
              for seed in range(20)}
    assert len(orders) > 1


def test_unknowns_follow_the_configuration():
    by_name = {(w, c.name): c for w, calls in workloads.WORKLOADS.items()
               for c in calls}
    assert by_name["moments-acceptance", "moments-a-8x32"].unknowns == 49 * 32 * 504
    assert by_name["dense-2d", "solve-constant-32x128"].unknowns == 961 * 128
    assert (by_name["infsup-dense", "infsup-a"].unknowns
            == 4 * (7 + 15 + 31) * (16 + 32))
    deg2 = sum(2 ** j * 4 ** j * 64 for j in range(2, 6))
    assert by_name["convergence-lognormal",
                   "convergence-lognormal-deg2"].unknowns == deg2
    assert by_name["convergence-lognormal-q16",
                   "convergence-lognormal-deg2"].unknowns == deg2 // 4


MOMENTS_CSV = """case,N,p,estimate,flagged
b,8,1,0.94162477364032593,0
b,16,1,1.0623689879693399,0
b,8,2,nan,1
b,16,2,1.5816332780311042,0
# classification,p=1,converging
# classification,p=2,diverging
"""


def _write(path, text):
    path.write_text(text, encoding="ascii")
    return path


def test_comparer_accepts_identical_and_tiny_float_changes(tmp_path):
    ref = _write(tmp_path / "ref.csv", MOMENTS_CSV)
    same = _write(tmp_path / "same.csv", MOMENTS_CSV)
    assert outputs.compare_csv(same, ref, "moments") == []
    close = _write(tmp_path / "close.csv",
                   MOMENTS_CSV.replace("0.94162477364032593", "0.94162477364032693"))
    assert outputs.compare_csv(close, ref, "moments") == []


def test_comparer_rejects_a_perturbed_float(tmp_path):
    ref = _write(tmp_path / "ref.csv", MOMENTS_CSV)
    bad = _write(tmp_path / "bad.csv",
                 MOMENTS_CSV.replace("1.0623689879693399", "1.0623689979693399"))
    problems = outputs.compare_csv(bad, ref, "moments")
    assert len(problems) == 1 and "line 3 column 4" in problems[0]
    not_nan = _write(tmp_path / "not_nan.csv", MOMENTS_CSV.replace("nan", "1.5"))
    assert outputs.compare_csv(not_nan, ref, "moments")


def test_comparer_rejects_a_changed_classification(tmp_path):
    ref = _write(tmp_path / "ref.csv", MOMENTS_CSV)
    flipped = MOMENTS_CSV.replace("p=2,diverging", "p=2,converging")
    bad = _write(tmp_path / "bad.csv", flipped)
    assert outputs.compare_csv(bad, ref, "moments")
    call = workloads.WORKLOADS["moments-acceptance"][1]
    assert workloads.option(call, "--case") == "b"
    assert outputs.claim_problems("moments-acceptance", call, ref) == []
    assert outputs.claim_problems("moments-acceptance", call, bad)


def test_comparer_rejects_missing_and_extra_lines(tmp_path):
    ref = _write(tmp_path / "ref.csv", MOMENTS_CSV)
    lines = MOMENTS_CSV.splitlines(keepends=True)
    short = _write(tmp_path / "short.csv", "".join(lines[:-1]))
    long = _write(tmp_path / "long.csv", MOMENTS_CSV + "# extra\n")
    assert outputs.compare_csv(short, ref, "moments")
    assert outputs.compare_csv(long, ref, "moments")


def test_fitted_rate_recovers_a_power_law():
    hs = [2.0 ** -j for j in range(2, 6)]
    assert math.isclose(outputs.fitted_rate(hs, [3 * h ** 2 for h in hs]), 2.0)


CONVERGENCE_CSV = """case,j,h,k,n_quad,mean_error,observed_rate
lognormal,2,0.25,0.0625,16,0.04,nan
lognormal,3,0.125,0.015625,16,0.02,1
lognormal,4,0.0625,0.00390625,16,0.01,1
"""


def test_rate_claim_holds_for_every_convergence_workload(tmp_path):
    good = _write(tmp_path / "good.csv", CONVERGENCE_CSV)
    flat = _write(tmp_path / "flat.csv", CONVERGENCE_CSV.replace("0.01,", "0.02,"))
    for name in ("convergence-lognormal", "convergence-lognormal-q16"):
        deg1 = workloads.WORKLOADS[name][0]
        assert workloads.option(deg1, "--degree") == "1"
        assert outputs.claim_problems(name, deg1, good) == []
        assert outputs.claim_problems(name, deg1, flat)


def _span(ident, parent, start, end, name="x"):
    return spans.Span(id=ident, name=name, call=1, parent=parent, thread=0,
                      start=start, end=end)


def test_interval_union_merges_overlaps_and_clips():
    assert spans.interval_union([(1, 4), (2, 6), (8, 9)], 0, 10) == 6
    assert spans.interval_union([(-2, 1), (9, 12)], 0, 10) == 2
    assert spans.interval_union([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    # two pool threads under one driver span overlap on [2, 4]
    tree = [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 4.0), _span(3, 1, 2.0, 6.0),
            _span(4, 3, 2.5, 3.0), _span(5, 1, 8.0, 9.0)]
    own = spans.self_times(tree)
    assert math.isclose(own[1], 4.0)
    assert math.isclose(own[3], 3.5)
    assert math.isclose(own[2], 3.0)


def test_pool_thread_spans_take_the_driver_as_parent():
    tracer = spans.Tracer()
    leaf = tracer.wrap("solver.leaf", lambda x: threading.get_ident())

    def drive():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(8)))

    driver = tracer.wrap("cli.run_moments", drive, driver=True)
    with tracer.call("moments"):
        driver()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["cli.main"]
    (run,) = by_name["cli.run_moments"]
    assert run.parent == root.id
    assert {s.parent for s in by_name["solver.leaf"]} == {run.id}
    assert {s.call for s in tracer.spans} == {1}
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["oracle.exact_error.calls"] == (0, "count")
    assert metrics["cli.driver.self_s"][0] >= 0
