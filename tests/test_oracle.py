import math
import warnings

import numpy as np
import pytest

from conftest import FLOAT_RANGE_A, FLOAT_RANGE_C0, ConstantCoeffs, make_disc
from stpg import fem, oracle, solver
from stpg.fem import interval_gauss


def test_profile_initial_value_and_frozen_point():
    assert oracle.exact_mode_profile(1.0, np.pi ** 2, 0.0) == pytest.approx(0.0, abs=1e-15)
    value = oracle.exact_mode_profile(1.0, np.pi ** 2, 1.0)
    expected = (np.pi + np.pi * np.exp(-np.pi ** 2)) / (np.pi ** 4 + np.pi ** 2)
    assert value == pytest.approx(expected, rel=1e-14)
    assert value == pytest.approx(0.02929, abs=5e-6)


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_profile_gate_against_ode_and_integrator(a):
    residual, deviation = oracle.validate_mode_profile(a, np.pi ** 2)
    assert residual < 1e-10
    assert deviation < 1e-9


def test_profile_rejects_nonpositive_diffusion():
    with pytest.raises(ValueError):
        oracle.ModeSolution.for_dim(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        oracle.ModeSolution.for_dim(-1.0, 1.0, 1)


def test_quasi_static_limit():
    mode = oracle.ModeSolution.for_dim(1e6, 1.0, 1)
    t = np.linspace(0.05, 1.0, 40)
    profile = mode.time_profile(t)
    # leading-order profile sin(pi t) / (a lam) for strong diffusion
    limit = np.sin(np.pi * t) / (mode.a * mode.lam)
    # past the initial transient the relative deviation is O(1/(a lam)^2)
    assert np.max(np.abs(profile - limit)) * mode.a * mode.lam < 1e-5
    assert np.max(np.abs(profile)) < 2.0 / (mode.a * mode.lam)


def test_mode_eigenvalues_by_dim():
    assert oracle.ModeSolution.for_dim(1.0, 1.0, 1).lam == pytest.approx(np.pi ** 2)
    assert oracle.ModeSolution.for_dim(1.0, 1.0, 2).lam == pytest.approx(2 * np.pi ** 2)
    with pytest.raises(ValueError):
        oracle.ModeSolution.for_dim(1.0, 1.0, 3)


def test_exact_error_of_best_approximation_matches():
    disc = make_disc(n_cells=8, n_steps=16)
    mode = oracle.ModeSolution.for_dim(0.7, 1.1, 1)
    best = oracle.best_approximation(mode, disc)
    err, best_err = oracle.exact_error(mode, disc, best)
    assert err == pytest.approx(best_err, rel=1e-12)


def test_exact_error_dominates_best_error():
    disc = make_disc(n_cells=8, n_steps=16)
    mode = oracle.ModeSolution.for_dim(1.0, 1.0, 1)
    sol = solver.solve_pathwise(ConstantCoeffs(), disc, 0.0)
    err, best_err = oracle.exact_error(mode, disc, sol)
    assert best_err <= err <= 10 * best_err


def test_exact_error_shape_guard():
    disc = make_disc(n_cells=8, n_steps=16)
    mode = oracle.ModeSolution.for_dim(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        oracle.exact_error(mode, disc, np.zeros((4, disc.n_dof)))


def _solver_error(a, c0, dim, degree, n_cells, n_steps):
    disc = make_disc(dim=dim, n_cells=n_cells, degree=degree, n_steps=n_steps)
    sol = solver.solve_pathwise(ConstantCoeffs(a=a, c0=c0), disc, 0.0)
    mode = oracle.ModeSolution.for_dim(a, c0, dim)
    return oracle.exact_error(mode, disc, sol)


def test_error_halves_under_parabolic_refinement_linear():
    coarse = _solver_error(1.0, 1.0, 1, 1, 8, 64)[0]
    fine = _solver_error(1.0, 1.0, 1, 1, 16, 256)[0]
    assert coarse / fine == pytest.approx(2.0, rel=0.15)


def test_error_rate_two_for_quadratic_splines():
    coarse = _solver_error(1.0, 1.0, 1, 2, 8, 64)[0]
    fine = _solver_error(1.0, 1.0, 1, 2, 16, 256)[0]
    assert coarse / fine == pytest.approx(4.0, rel=0.2)


def test_best_approximation_rate_from_oracle_table():
    rates = []
    prev = None
    for j in (3, 4, 5):
        best_err = _solver_error(1.0, 1.0, 1, 1, 2 ** j, 4 ** j)[1]
        if prev is not None:
            rates.append(math.log2(prev / best_err))
        prev = best_err
    assert all(abs(r - 1.0) < 0.12 for r in rates)


def test_large_mode_case_close_to_best():
    err, best = _solver_error(1.0, 1.0, 1, 1, 64, 1024)
    assert err <= 10 * best


def test_semidiscrete_reference_zero_data():
    disc = make_disc(n_cells=4, n_steps=4)
    ref, fine_disc = oracle.semidiscrete_reference(ConstantCoeffs(c0=0.0), disc, 0.0, 16)
    assert ref.shape == (64, disc.n_dof)
    assert np.all(ref == 0.0)
    assert fine_disc.grid.n_intervals == 64


def test_semidiscrete_reference_guards():
    disc = make_disc(n_cells=4, n_steps=4)
    with pytest.raises(ValueError):
        oracle.semidiscrete_reference(ConstantCoeffs(), disc, 0.0, 8)


def test_semidiscrete_reference_self_convergence():
    disc = make_disc(n_cells=8, n_steps=8)
    coeffs = ConstantCoeffs()
    ref16, d16 = oracle.semidiscrete_reference(coeffs, disc, 0.0, 16)
    ref32, d32 = oracle.semidiscrete_reference(coeffs, disc, 0.0, 32)
    ref64, d64 = oracle.semidiscrete_reference(coeffs, disc, 0.0, 64)
    step1 = solver.trial_energy_norm(ref32 - np.repeat(ref16, 2, axis=0), d32)
    step2 = solver.trial_energy_norm(ref64 - np.repeat(ref32, 2, axis=0), d64)
    assert step2 < step1
    assert step1 / step2 == pytest.approx(2.0, rel=0.3)


def test_semidiscrete_quasi_optimality_report():
    # the coarse solution against the refined-in-time surrogate stays
    # within the projection-stability budget c_h (1 + rho) = 2 c_h
    from stpg import fem
    disc = make_disc(n_cells=8, n_steps=32)
    coeffs = ConstantCoeffs()
    coarse_sol = solver.solve_pathwise(coeffs, disc, 0.0)
    ref, ref_disc = oracle.semidiscrete_reference(coeffs, disc, 0.0, 32)
    mode = oracle.ModeSolution.for_dim(1.0, 1.0, 1)
    err_semi = oracle.exact_error(mode, ref_disc, ref)[0]
    best_semi = oracle.exact_error(mode, ref_disc, ref)[1]
    c_h = oracle.projection_stability(fem.build_mesh(1, 8, 1),
                                      fem.build_mesh(1, 32, 1))
    ratio = err_semi / best_semi
    assert ratio <= 2.0 * c_h + 0.1


def test_semidiscrete_reference_matches_direct_fine_solve():
    disc = make_disc(n_cells=4, n_steps=2)
    coeffs = ConstantCoeffs(a=0.7)
    ref, fine_disc = oracle.semidiscrete_reference(coeffs, disc, 0.0, 16)
    direct = solver.solve_pathwise(coeffs, fine_disc, 0.0)
    assert np.array_equal(ref, direct)


# at 27 (uniform) and 25 (graded) one interval's start plus its width
# misses its end by an ulp, which np.linspace corrects
@pytest.mark.parametrize("refinement", [16, 25, 27])
@pytest.mark.parametrize("nodes", [np.linspace(0.0, 1.0, 10),
                                   np.linspace(0.0, 1.0, 10) ** 2],
                         ids=["uniform", "graded"])
def test_refined_nodes_are_the_per_interval_linspace(nodes, refinement):
    disc = solver.Discretization(pair=make_disc(n_cells=2).pair,
                                 grid=solver.TimeGrid(nodes))
    loop = [0.0]
    for t0, t1 in zip(nodes[:-1], nodes[1:]):
        loop.extend(np.linspace(t0, t1, refinement + 1)[1:])
    _, fine_disc = oracle.semidiscrete_reference(ConstantCoeffs(), disc, 0.0, refinement)
    assert np.array_equal(fine_disc.grid.nodes, loop)


# The exact error with every term formed path by path, as exact_error
# formed it before the grid and the pair cached the terms that do not
# depend on the path, copied verbatim (names prefixed with _before):
# exact_error must give these bits on every path.
def _before_exact_mode_profile(a: float, lam: float, t) -> np.ndarray:
    if a <= 0:
        raise ValueError("diffusion value must be positive")
    t = np.asarray(t, dtype=float)
    al = a * lam
    den = al * al + np.pi ** 2
    return (al * np.sin(np.pi * t) - np.pi * np.cos(np.pi * t)
            + np.pi * np.exp(-al * t)) / den


def _before_profile_integrals(mode, grid):
    """Per-interval integrals of T and T^2 by 5-point Gauss."""
    t, w = interval_gauss(grid.nodes, 5)
    prof = _before_exact_mode_profile(mode.a, mode.lam, t)
    return np.sum(w * prof, axis=1), np.sum(w * prof ** 2, axis=1)


def _before_exact_error(mode, disc, solution) -> tuple:
    pair = disc.pair
    grid = disc.grid
    values = np.asarray(solution, dtype=float)
    if values.shape != (grid.n_intervals, disc.n_dof):
        raise ValueError("solution shape does not match discretization")

    cross_v = mode.lam * pair.mode_vector
    int_t, int_t2 = _before_profile_integrals(mode, grid)
    widths = np.diff(grid.nodes)
    phi_v2 = mode.mode_energy_sq
    c0 = mode.c0

    err_sq = (c0 ** 2 * phi_v2 * float(np.sum(int_t2))
              - 2.0 * c0 * float(int_t @ (values @ cross_v))
              + solver.trial_energy_norm(values, disc) ** 2)

    # best approximation: energy projection of the mode, interval means of T
    spatial = np.linalg.solve(pair.stiffness, cross_v)
    proj_energy = float(cross_v @ spatial)
    best_sq = c0 ** 2 * float(
        np.sum(int_t2 * phi_v2 - int_t ** 2 / widths * proj_energy))
    return float(np.sqrt(max(err_sq, 0.0))), float(np.sqrt(max(best_sq, 0.0)))


@pytest.mark.parametrize("dim,degree,n_cells", [(1, 1, 8), (1, 1, 64), (1, 2, 8),
                                                (1, 2, 37), (2, 1, 6)])
@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
def test_cached_exact_error_is_the_per_path_formula_bit_for_bit(dim, degree, n_cells,
                                                                graded):
    nodes = np.linspace(0.0, 1.0, 41)
    grid = solver.TimeGrid(nodes ** 2 if graded else nodes)
    disc = solver.Discretization(pair=make_disc(dim, n_cells, degree).pair, grid=grid)
    for a in np.geomspace(1e-3, 1e3, 13):
        for c0 in (1.0, -0.3):
            mode = oracle.ModeSolution.for_dim(a, c0, dim)
            sol = solver.solve_pathwise(ConstantCoeffs(a=a, c0=c0), disc, 0.0)
            # the first path of the grid fills its caches, the others read them
            assert oracle.exact_error(mode, disc, sol) == _before_exact_error(mode, disc, sol)
    assert np.array_equal(oracle.exact_mode_profile(0.5, np.pi ** 2, nodes),
                          _before_exact_mode_profile(0.5, np.pi ** 2, nodes))


def test_exact_error_rejects_a_mode_of_another_dimension():
    disc = make_disc(dim=2, n_cells=4, n_steps=4)
    sol = solver.solve_pathwise(ConstantCoeffs(), disc, 0.0)
    with pytest.raises(ValueError, match="eigenvalue"):
        oracle.exact_error(oracle.ModeSolution.for_dim(1.0, 1.0, 1), disc, sol)


@pytest.mark.parametrize("c0", [1e160, 1e308, -1e308])
def test_exact_error_of_a_huge_forcing_is_not_finite(c0):
    # the interval values are finite (up to 6.7e307), but the squares of
    # the error's terms pass the float range: both errors come out inf or
    # nan, as block_errors' do, with no OverflowError and no warning
    disc = make_disc(n_cells=4, n_steps=37)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solver.solve_pathwise(ConstantCoeffs(a=1e-3, c0=c0), disc, 0.0)
    assert np.isfinite(sol).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors = oracle.exact_error(oracle.ModeSolution.for_dim(1e-3, c0, 1), disc, sol)
    assert not np.isfinite(errors).any()


# 26 regular paths over six decades of a, and mid-block a tiny a whose
# huge c0 has a squared error that overflows
_BLOCK_A = np.insert(np.repeat(np.geomspace(1e-3, 1e3, 13), 2), 13, 1e-3)
_BLOCK_C0 = np.insert(np.tile([1.0, -0.3], 13), 13, 1e308)
# the one-mode errors against the per-path oracle on the dense solve's
# interval values at 41 steps: the expanded formula's rounding, amplified
# by its cancellation (largest relative gaps measured: 1.2e-12 for hats,
# 2.8e-12 for splines)
_BLOCK_RTOL = 1e-11


@pytest.fixture(scope="module")
def block_solves():
    """The dense solves of _BLOCK_A and _BLOCK_C0 by (dim, degree, n_cells,
    graded), shared by the groups of the block-errors test."""
    return {}


@pytest.mark.parametrize("dim,degree,n_cells,layout", [
    (1, 1, 8, None), (1, 1, 64, None), (1, 2, 8, None), (1, 2, 37, None),
    (2, 1, 6, None),
    # the profiles in a Fortran-ordered array, whose blocks and rows are
    # strided views: each path still gets the bits of its laid-out row
    (1, 2, 37, "F")])
@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
@pytest.mark.parametrize("group", [1, 3, 5, 27])
def test_block_errors_are_the_per_path_formula_bit_for_bit(block_solves, dim, degree,
                                                           n_cells, layout, graded, group):
    key = dim, degree, n_cells, graded
    if key not in block_solves:
        nodes = np.linspace(0.0, 1.0, 42)
        grid = solver.TimeGrid(nodes ** 2 if graded else nodes)
        disc = solver.Discretization(pair=make_disc(dim, n_cells, degree).pair, grid=grid)
        # each path's interval values from the dense solve, the c0 = 1e308
        # path's too (finite, up to 6.6e307)
        block_solves[key] = disc, [solver.solve_pathwise(ConstantCoeffs(a=a, c0=c0), disc, 0.0)
                                   for a, c0 in zip(_BLOCK_A, _BLOCK_C0)]
    disc, values = block_solves[key]
    pair = disc.pair
    # each path's profile on the excited mode: the closed form on the
    # uniform grid; on the graded one, which the closed form does not
    # serve, the M-projection of its interval values on v_1
    if graded:
        y = np.array(values) @ (pair.mass @ pair.excited_vector)
    else:
        y = solver.uniform_profile(pair, 41, _BLOCK_A, _BLOCK_C0)
    if layout is not None:
        y = np.asarray(y, order=layout)
    # the paths in blocks of group, each with the bits it has alone
    errors = np.concatenate([
        oracle.block_errors(disc, _BLOCK_A[start:start + group],
                            _BLOCK_C0[start:start + group], y[start:start + group])
        for start in range(0, len(y), group)])
    assert np.isnan(errors[13])
    for p in range(len(y)):
        alone = oracle.block_errors(disc, _BLOCK_A[p:p + 1], _BLOCK_C0[p:p + 1],
                                    np.ascontiguousarray(y[p:p + 1]))
        assert errors[p:p + 1].tobytes() == alone.tobytes()
        if p == 13:
            continue
        # the per-path oracle on the dense solve's interval values
        mode = oracle.ModeSolution.for_dim(float(_BLOCK_A[p]), float(_BLOCK_C0[p]), dim)
        expected = oracle.exact_error(mode, disc, values[p])[0]
        assert expected == _before_exact_error(mode, disc, values[p])[0]
        assert errors[p] == pytest.approx(expected, rel=_BLOCK_RTOL, abs=0.0)


# The Gauss stack in its interval-major layout: the grid's rule and trig
# values as (N, 5) arrays, the profile with its exp out of place and both
# integrals summed over the last axis. The point-major stack of
# TimeGrid.profile_quadrature and oracle._profile_integrals must give
# these bits on every path.
def _before_profile_quadrature(grid):
    t, w = interval_gauss(grid.nodes, 5)
    pi_t = np.pi * t
    return t, w, np.sin(pi_t), np.pi * np.cos(pi_t)


def _before_mode_profile(a, lam: float, t, trig) -> np.ndarray:
    if np.any(np.asarray(a) <= 0):
        raise ValueError("diffusion value must be positive")
    t = np.asarray(t, dtype=float)
    sin_pt, pi_cos_pt = trig
    al = a * lam
    prof = np.exp(-al * t)
    prof *= np.pi
    part = al * sin_pt
    part -= pi_cos_pt
    prof += part
    prof /= al * al + np.pi ** 2
    return prof


def _before_gauss_integrals(a, lam: float, grid):
    t, w, *trig = _before_profile_quadrature(grid)
    prof = _before_mode_profile(a, lam, t, trig)
    int_t = np.sum(w * prof, axis=-1)
    prof *= prof
    prof *= w
    return int_t, np.sum(prof, axis=-1)


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 64, 1024])
@pytest.mark.parametrize("paths", [1, 3, 16])
@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
def test_point_major_gauss_stack_is_the_interval_major_one_bit_for_bit(
        monkeypatch, n_steps, paths, graded):
    nodes = np.linspace(0.0, 1.0, n_steps + 1)
    grid = solver.TimeGrid(nodes ** 2 if graded else nodes)
    disc = solver.Discretization(pair=make_disc(n_cells=8).pair, grid=grid)
    lam = disc.pair.mode_eigenvalue
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(FLOAT_RANGE_A), paths):
            a, c0 = FLOAT_RANGE_A[start:start + paths], FLOAT_RANGE_C0[start:start + paths]
            # a block of paths, and each of its paths alone
            new = oracle._profile_integrals(a[:, None], lam, grid)
            old = _before_gauss_integrals(a[:, None, None], lam, grid)
            assert [x.tobytes() for x in new] == [x.tobytes() for x in old]
            for value in a:
                new = oracle._profile_integrals(float(value), lam, grid)
                old = _before_gauss_integrals(float(value), lam, grid)
                assert [x.tobytes() for x in new] == [x.tobytes() for x in old]
            y = solver.uniform_profile(disc.pair, n_steps, a, c0)
            errors.append(oracle.block_errors(disc, a, c0, y).tobytes())
    # the errors of the same blocks through the interval-major stack
    monkeypatch.setattr(oracle, "_profile_integrals",
                        lambda a, lam, grid: _before_gauss_integrals(a[..., None], lam, grid))
    with np.errstate(over="ignore", invalid="ignore"):
        for start, new in zip(range(0, len(FLOAT_RANGE_A), paths), errors):
            a, c0 = FLOAT_RANGE_A[start:start + paths], FLOAT_RANGE_C0[start:start + paths]
            y = solver.uniform_profile(disc.pair, n_steps, a, c0)
            assert oracle.block_errors(disc, a, c0, y).tobytes() == new
