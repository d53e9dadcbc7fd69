"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line; run with ``pytest -s`` to see the lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import ConstantCoeffs, make_disc
from stpg import cli, constants as consts, fem, oracle, solver, stochastic


def _report(number: int, description: str, ok: bool, started: float):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_weighted_infsup_exactness():
    started = time.time()
    worst = 0.0
    for a in (0.1, 1.0, 7.3):
        for n_cells, n_steps in ((4, 4), (8, 16), (16, 64)):
            disc = make_disc(dim=1, n_cells=n_cells, degree=1, n_steps=n_steps)
            bilinear = solver.assemble_full_system(disc, a)
            sig_min, sig_max = oracle.dense_infsup(
                bilinear,
                solver.build_grams(disc, a, "Y_omega"),
                solver.build_grams(disc, a, "X_omega_hk"))
            worst = max(worst, abs(sig_min - 1.0), abs(sig_max - 1.0))
    _report(1, f"weighted inf-sup and continuity within 1e-8 of 1 "
               f"(worst deviation {worst:.2e})", worst < 1e-8, started)


def test_criterion_2_cfl_scalar_case():
    started = time.time()
    pair = fem.assemble(fem.build_mesh(1, 2, 1))
    k = 0.01
    c_s = consts.cfl_constant(pair, k)
    eigenvalue = (c_s / k) ** 2
    ok = abs(c_s - 12.0 * k) < 1e-12 and abs(eigenvalue - 144.0) < 1e-8
    _report(2, f"scalar CFL constant 12k (c_S={c_s!r}, eigenvalue={eigenvalue:.10f})",
            ok, started)


def test_criterion_3_norm_chain():
    started = time.time()
    rng = np.random.default_rng(31415)
    disc = make_disc(dim=1, n_cells=8, degree=1, n_steps=8)
    k = disc.grid.k_max
    a_values = (0.3, 1.0, 3.0)
    grams = {a: (solver.build_grams(disc, a, "X_omega_hk"),
                 solver.build_grams(disc, a, "X_omega")) for a in a_values}
    factors = {a: math.sqrt(1.0 + oracle.cfl_omega(
        disc.pair, k, 0.0, ConstantCoeffs(a=a)) ** 2) for a in a_values}
    worst = math.inf
    for i in range(200):
        a = a_values[i % len(a_values)]
        gram_hk, gram_x = grams[a]
        x = rng.standard_normal(disc.test_size)
        norm_hk = oracle.evaluate_norm(x, gram_hk)
        norm_x = oracle.evaluate_norm(x, gram_x)
        worst = min(worst, norm_x - norm_hk, factors[a] * norm_hk - norm_x)
    _report(3, f"projected test norm chain on 200 random test functions "
               f"(worst slack {worst:.2e})", worst >= -1e-10, started)


def test_criterion_4_quasi_optimality():
    started = time.time()
    worst_gap = math.inf
    for a in (0.5, 1.0, 2.0):
        for j in range(2, 6):
            disc = make_disc(dim=1, n_cells=2 ** j, degree=1, n_steps=4 ** j)
            coeffs = ConstantCoeffs(a=a)
            sol = solver.solve_pathwise(coeffs, disc, 0.0)
            mode = oracle.ModeSolution.for_dim(a, 1.0, 1)
            err, best = oracle.exact_error(mode, disc, sol)
            ratio = oracle.quasi_opt_ratio(err, best)
            bound = math.sqrt(1.0 + oracle.cfl_omega(
                disc.pair, disc.grid.k_max, 0.0, coeffs) ** 2)
            worst_gap = min(worst_gap, bound + 1e-6 - ratio)
    _report(4, f"quasi-optimality ratio within sqrt(1+c_S_omega^2) + 1e-6 "
               f"(worst margin {worst_gap:.2e})", worst_gap >= 0.0, started)


def test_criterion_5_pathwise_energy_bound():
    started = time.time()
    disc = make_disc(dim=2, n_cells=16, degree=1, n_steps=32)
    k = disc.grid.k_max
    cfl_unit = consts.cfl_constant(disc.pair, k) / math.sqrt(12.0)
    worst = math.inf
    checked = 0
    # the unit-amplitude solve of each distinct a: the rules hold each value
    # twice, and solve_pathwise scales by c0 last, so c0 times it is the
    # path's solve bit for bit; and the unit-amplitude forcing norm, which
    # depends on the discretization alone, scaled by c0^2
    unit = {}
    unit_forcing = oracle.forcing_dual_norm_sq(ConstantCoeffs(1.0, 1.0), disc, 0.0)
    for case in ("a", "b", "c", "d"):
        model = stochastic.CoefficientModel(case=case)
        domain = stochastic.default_domain(case)
        nodes, _ = stochastic.quadrature(domain, 64, avoid=model.singular_points)
        for omega in nodes:
            a = model.a(omega)
            if not (math.isfinite(a) and a > 0):
                continue
            if a not in unit:
                unit[a] = solver.solve_pathwise(ConstantCoeffs(a, 1.0), disc, omega)
            c0 = float(model.c0(omega))
            sol = c0 * unit[a]
            assert np.isfinite(sol).all()
            lhs = a * solver.trial_energy_norm(sol, disc) ** 2
            c_sw = a * cfl_unit
            rhs = (1.0 + c_sw ** 2) / a * (c0 ** 2 * unit_forcing)
            # u0 = 0 in every stock case, so the initial term vanishes
            worst = min(worst, (rhs - lhs) / max(rhs, 1e-300))
            checked += 1
    _report(5, f"pathwise energy bound on {checked} paths "
               f"(worst relative slack {worst:.2e})", worst >= -1e-12, started)


def test_criterion_6_moment_trends():
    started = time.time()
    expected = {
        "a": {1.0: "converging", 2.0: "converging"},
        "b": {1.0: "converging", 2.0: "diverging"},
        "c": {1.0: "diverging", 2.0: "diverging"},
        "d": {1.0: "converging", 2.0: "diverging"},
    }
    results = {}
    ok = True
    for case in "abcd":
        config = cli.ExperimentConfig(
            subcommand="moments", case=case, dim=2, degree=1,
            n_cells=(8,), n_steps=(32,),
            quad_ladder=(8, 16, 32, 64, 128, 256))
        _, classifications, _ = cli.run_moments(config)
        results[case] = classifications
        ok = ok and classifications == expected[case]
    summary = "; ".join(
        f"{case}: p1={results[case][1.0]}, p2={results[case][2.0]}"
        for case in "abcd")
    _report(6, f"moment ladder classifications ({summary})", ok, started)


def test_criterion_7_convergence_orders():
    started = time.time()
    rates = {}
    for degree, window in ((1, (0.9, 1.1)), (2, (1.8, 2.2))):
        config = cli.ExperimentConfig(
            subcommand="convergence", case="lognormal", dim=1, degree=degree,
            j_min=2, j_max=5, quad_ladder=(64,))
        rows = cli.run_convergence(config)
        hs = np.array([row[2] for row in rows])
        errors = np.array([row[5] for row in rows])
        rate = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
        rates[degree] = (rate, window[0] <= rate <= window[1])
    ok = all(flag for _, flag in rates.values())
    _report(7, f"log-normal mean-error rates (degree 1: {rates[1][0]:.3f}, "
               f"degree 2: {rates[2][0]:.3f})", ok, started)


def test_criterion_8_moment_predictor():
    started = time.time()
    checks = [
        stochastic.predict_max_moment(math.inf, math.inf, 3.5) == 3.5,
        stochastic.predict_max_moment(2.0, 2.0, 2.0) == pytest.approx(1.0),
    ]
    predicted, pathwise = stochastic.singular_example_moments(0.25)
    checks.append(predicted == pytest.approx(1.0 / (2 * 0.25)))
    checks.append(pathwise == pytest.approx(1.0 / 0.25))
    checks.append(predicted < pathwise)
    ok = all(bool(c) for c in checks)
    _report(8, f"moment predictor values (example: predicted {predicted}, "
               f"pathwise {pathwise})", ok, started)


def test_criterion_9_oracle_gate():
    started = time.time()
    worst_res = 0.0
    worst_dev = 0.0
    for a in (0.1, 1.0, 10.0):
        residual, deviation = oracle.validate_mode_profile(a, math.pi ** 2,
                                                           n_times=100)
        worst_res = max(worst_res, residual)
        worst_dev = max(worst_dev, deviation)
    ok = worst_res < 1e-10 and worst_dev < 1e-9
    _report(9, f"mode profile gate (residual {worst_res:.2e}, "
               f"integrator deviation {worst_dev:.2e})", ok, started)


def test_criterion_10_determinism(tmp_path):
    started = time.time()
    base = ["moments", "--case", "a", "--cells", "4", "--steps", "8",
            "--n-quad-ladder", "8,16,32,64", "--seed", "0"]
    outputs = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("j1", "1"), ("j8", "8")):
        out = tmp_path / f"{name}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "stpg.cli", *base, "--jobs", jobs,
             "--out", str(out)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and outputs[2] == outputs[3]
    _report(10, "byte-identical CSV across reruns and worker counts", ok, started)
