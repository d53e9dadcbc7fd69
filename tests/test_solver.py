import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import exact
from conftest import FLOAT_RANGE_A, FLOAT_RANGE_C0, ConstantCoeffs, make_disc
from stpg import fem, oracle, solver
from stpg.stochastic import CoefficientModel, default_domain, quadrature


_GRIDS = {
    "uniform": solver.TimeGrid.uniform(1.0, 9),
    "graded": solver.TimeGrid(np.linspace(0.0, 1.0, 10) ** 2),
}


def _disc_on(grid, n_cells, n_steps):
    """The test's own uniform grid of n_steps, or the graded grid."""
    disc = make_disc(n_cells=n_cells, n_steps=n_steps)
    if grid == "uniform":
        return disc
    return solver.Discretization(pair=disc.pair, grid=_GRIDS["graded"])


def _sin_hat_integral(t_prev, t_node, t_next):
    """Closed form of int sin(pi t) * hat(t) dt for a temporal hat."""
    total = 0.0
    if t_node > t_prev:  # rising piece
        k = t_node - t_prev
        total += (-k * np.cos(np.pi * t_node) / np.pi
                  + (np.sin(np.pi * t_node) - np.sin(np.pi * t_prev)) / np.pi ** 2) / k
    k = t_next - t_node  # falling piece
    total += (k * np.cos(np.pi * t_node) / np.pi
              + (np.sin(np.pi * t_node) - np.sin(np.pi * t_next)) / np.pi ** 2) / k
    return total


def test_time_weights_match_closed_form():
    uniform = np.linspace(0.0, 1.0, 9)
    graded = np.array([0.0, 0.02, 0.1, 0.15, 0.2, 0.3, 0.4, 0.45, 0.5, 0.6, 0.7,
                       0.8, 0.9, 0.95, 1.0])
    for nodes in (uniform, graded):
        grid = solver.TimeGrid(nodes)
        weights = solver.time_weights(grid)
        assert weights.shape == (grid.n_intervals,)
        for j in range(grid.n_intervals):
            t_prev = nodes[j - 1] if j > 0 else nodes[0]
            ref = _sin_hat_integral(t_prev, nodes[j], nodes[j + 1])
            assert weights[j] == pytest.approx(ref, abs=1e-12)


def _uniform_time_weights(n_steps):
    """Closed form of time_weights on the uniform grid of [0, 1]: with
    theta = pi / N, tw_j = C sin(j theta) for C = 2 (1 - cos theta) / (pi theta),
    and tw_0 = (1 - sin theta / theta) / pi, both without cancellation."""
    theta = np.pi / n_steps
    weights = 4.0 * np.sin(theta / 2) ** 2 / (np.pi * theta) * np.sin(np.arange(n_steps) * theta)
    # 1 - sin(theta) / theta by its alternating series
    weights[0] = sum((-1) ** (m + 1) * theta ** (2 * m) / math.factorial(2 * m + 1)
                     for m in range(1, 25)) / np.pi
    return weights


# the gap_gauss the 4-point Gauss rule had, relative to the largest weight:
# the exact weights leave round-off alone at every step count
@pytest.mark.parametrize("n_steps,gap_gauss", [
    (1, 7.9e-6), (2, 1.6e-7), (4, 8.2e-10), (8, 6.5e-12), (16, 5.1e-14),
    (32, None), (256, None), (4096, None),
])
def test_time_weights_gap_to_the_uniform_closed_form(n_steps, gap_gauss):
    ref = _uniform_time_weights(n_steps)
    weights = solver.time_weights(solver.TimeGrid.uniform(1.0, n_steps))
    measured = np.max(np.abs(weights - ref)) / np.max(np.abs(ref))
    assert measured <= 4 * np.finfo(float).eps


def _blocked_time_weights(grid, block):
    """time_weights formed on blocks of intervals, each block's grid from
    its own nodes, the hats at the block edges summed across blocks."""
    weights = np.zeros(grid.n_intervals + 1)
    for start in range(0, grid.n_intervals, block):
        left, right = solver._hat_integrals(grid.nodes[start:start + block + 1])
        weights[start:start + len(left)] += left
        weights[start + 1:start + 1 + len(right)] += right
    return weights[:-1]


@pytest.mark.parametrize("n_steps", [1, 1023, 1024, 1025, 2048, 3001])
def test_blocked_time_weights_are_the_whole_grid_sums(n_steps):
    # an interval's integrals do not depend on the array they are formed
    # in, so the closed-form energy can read the first weight off a grid
    # of one interval and a caller may form the weights in blocks
    nodes = np.linspace(0.0, 1.0, n_steps + 1)
    for grid in (solver.TimeGrid(nodes), solver.TimeGrid(nodes ** 3)):
        weights = solver.time_weights(grid)
        for block in (1, 7, 1024):
            expected = _blocked_time_weights(grid, block)
            assert weights.shape == (n_steps,)
            assert np.array_equal(weights, expected)
            assert np.array_equal(np.signbit(weights), np.signbit(expected))


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_time_weights_belong_to_their_grid(grid):
    grid = solver.TimeGrid(_GRIDS[grid].nodes)
    weights = grid.weights
    assert np.array_equal(weights, solver.time_weights(grid))
    # computed once: every path and rung of the grid reads the same array
    assert grid.weights is weights
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 1.0
    # a grid with the same nodes has its own, equal weights
    same = solver.TimeGrid(grid.nodes.copy())
    assert same.weights is not weights and np.array_equal(same.weights, weights)


def test_array_dataclasses_compare_by_identity():
    # TimeGrid, Discretization and SpatialPair hold arrays, so a generated
    # __eq__ would raise on the truth value of an array; they compare and
    # hash as objects
    disc = make_disc(n_cells=4, n_steps=4)
    twin = make_disc(n_cells=4, n_steps=4)
    same_parts = solver.Discretization(pair=disc.pair, grid=disc.grid)
    for obj, other in ((disc.grid, twin.grid), (disc, twin), (disc, same_parts),
                       (disc.pair, twin.pair)):
        assert (obj == obj) is True and (obj == other) is False
        assert (obj != other) is True
        assert {obj: 1, other: 2}[obj] == 1 and hash(obj) == hash(obj)


def test_time_grid_guards():
    with pytest.raises(ValueError):
        solver.TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        solver.TimeGrid(np.array([0.1, 0.5]))
    # nan compares False, so the strict-increase check alone lets it through
    for nodes in ([0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [0.0, 0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            solver.TimeGrid(np.array(nodes))
    grid = solver.TimeGrid.uniform(2.0, 4)
    assert grid.final_time == 2.0
    assert np.allclose(grid.widths, 0.5)


def test_time_grid_caches_are_read_only_and_computed_once():
    grid = solver.TimeGrid(np.linspace(0.0, 1.0, 7) ** 2)
    assert grid.widths is grid.widths
    assert np.array_equal(grid.widths, np.diff(grid.nodes))
    t, w, sin_pt, pi_cos_pt = grid.profile_quadrature
    assert grid.profile_quadrature is grid.profile_quadrature
    # point-major: point i of every interval in row i, interval_gauss transposed
    points, weights = fem.interval_gauss(grid.nodes, 5)
    assert np.array_equal(t, points.T) and np.array_equal(w, weights.T)
    assert np.array_equal(sin_pt, np.sin(np.pi * points).T)
    assert np.array_equal(pi_cos_pt, (np.pi * np.cos(np.pi * points)).T)
    for array in (t, w, sin_pt, pi_cos_pt):
        assert array.shape == (5, 6) and array.flags.c_contiguous
    for array in (grid.widths, t, w, sin_pt, pi_cos_pt):
        assert not array.flags.writeable


def test_assemble_load_zero_forcing_zero_initial():
    disc = make_disc(n_cells=4, n_steps=4)
    load = oracle.assemble_load(ConstantCoeffs(c0=0.0), disc, 0.0)
    assert np.all(load == 0.0)


def test_solve_zero_data_is_zero():
    disc = make_disc(n_cells=4, n_steps=6)
    sol = solver.solve_pathwise(ConstantCoeffs(c0=0.0), disc, 0.0)
    assert sol.shape == (6, disc.n_dof)
    assert np.all(sol == 0.0)


def test_scalar_crank_nicolson_by_hand():
    # single spatial dof: M = 1/3, S = 4, step equations become scalar
    disc = make_disc(n_cells=2, n_steps=4)
    sol = solver.solve_pathwise(ConstantCoeffs(), disc, 0.0)
    k = 0.25
    tw = solver.time_weights(disc.grid)
    b = disc.pair.mode_vector[0]
    m, s = 1.0 / 3.0, 4.0
    u = 0.0
    for j in range(4):
        rhs = (m - 0.5 * k * s) * u + tw[j] * b
        u = rhs / (m + 0.5 * k * s)
        assert sol[j, 0] == pytest.approx(u, rel=1e-14)
    # first step matches the closed form F0 / (1/3 + 2k)
    assert sol[0, 0] == pytest.approx(tw[0] * b / (m + 2 * k), rel=1e-14)


@pytest.mark.parametrize("a,n_cells,n_steps", [
    (1.0, 4, 4), (0.3, 8, 8), (5.0, 4, 16),
])
def test_time_stepping_agrees_with_full_system(a, n_cells, n_steps):
    disc = make_disc(n_cells=n_cells, n_steps=n_steps)
    coeffs = ConstantCoeffs(a=a)
    sol = solver.solve_pathwise(coeffs, disc, 0.0)
    full = solver.assemble_full_system(disc, a)
    load = oracle.assemble_load(coeffs, disc, 0.0)
    direct = np.linalg.solve(full, load)
    residual = np.linalg.norm(full @ sol.reshape(-1) - load) / np.linalg.norm(load)
    assert residual < 1e-10
    gram = solver.build_grams(disc, a, "Y")
    diff = oracle.evaluate_norm(sol.reshape(-1) - direct, gram)
    scale = oracle.evaluate_norm(direct, gram)
    assert diff <= 1e-10 * scale


@pytest.mark.parametrize("grid", ["uniform", "graded"])
def test_full_system_block_structure(grid):
    disc = _disc_on(grid, n_cells=4, n_steps=3)
    a = 1.7
    mat = solver.assemble_full_system(disc, a)
    n = disc.n_dof
    k = disc.grid.widths
    mass, stiff = disc.pair.mass, disc.pair.stiffness
    for j in range(disc.grid.n_intervals):
        diag = mass + 0.5 * k[j] * a * stiff
        assert np.allclose(mat[j * n:(j + 1) * n, j * n:(j + 1) * n], diag, atol=1e-14)
        if j >= 1:
            sub = -mass + 0.5 * k[j - 1] * a * stiff
            assert np.allclose(mat[j * n:(j + 1) * n, (j - 1) * n:j * n], sub, atol=1e-14)
    # strict upper blocks vanish
    assert np.all(mat[:n, n:] == 0.0)


def test_full_system_rejects_degenerate_diffusion():
    disc = make_disc(n_cells=4, n_steps=3)
    with pytest.raises(solver.PathwiseSolveError):
        solver.assemble_full_system(disc, 0.0)


def test_steady_state_consistency(rng):
    # a constant-in-time u: the jumps of the mass terms cancel away from
    # the initial block, which leaves the energy terms of the two
    # intervals that meet at t_j
    disc = _disc_on("graded", n_cells=8, n_steps=9)
    a = 1.3
    u = rng.standard_normal(disc.n_dof)
    rows = (solver.assemble_full_system(disc, a) @ np.tile(u, disc.grid.n_intervals)
            ).reshape(disc.grid.n_intervals, -1)
    k = disc.grid.widths
    s_u = disc.pair.stiffness @ u
    expected = a * 0.5 * (k[:-1] + k[1:])[:, None] * s_u
    assert np.allclose(rows[1:], expected, rtol=0.0, atol=1e-13 * np.abs(s_u).max())
    assert np.allclose(rows[0], disc.pair.mass @ u + a * 0.5 * k[0] * s_u,
                       rtol=0.0, atol=1e-13 * np.abs(s_u).max())


def test_pathwise_failures_are_controlled():
    disc = make_disc(n_cells=4, n_steps=4)
    with pytest.raises(solver.PathwiseSolveError):
        solver.solve_pathwise(CoefficientModel(case="b"), disc, 0.0)  # a(0) = 0
    with pytest.raises(solver.PathwiseSolveError):
        solver.solve_pathwise(CoefficientModel(case="a"), disc, 0.0)  # a(0) = inf


def test_galerkin_orthogonality_on_nested_time_grids():
    disc_c = make_disc(n_cells=8, n_steps=8)
    disc_f = solver.Discretization(pair=disc_c.pair,
                                   grid=solver.TimeGrid.uniform(1.0, 16))
    sol_c = solver.solve_pathwise(ConstantCoeffs(), disc_c, 0.0)
    n = disc_c.n_dof
    embedded = np.repeat(sol_c, 2, axis=0).reshape(-1)
    residual = oracle.assemble_load(ConstantCoeffs(), disc_f, 0.0) \
        - solver.assemble_full_system(disc_f, 1.0) @ embedded
    # coarse temporal hats expressed in the fine nodal basis
    embed = np.zeros((16 * n, 8 * n))
    for j in range(8):
        embed[2 * j * n:(2 * j + 1) * n, j * n:(j + 1) * n] = np.eye(n)
        if 2 * j + 1 < 16:
            embed[(2 * j + 1) * n:(2 * j + 2) * n, j * n:(j + 1) * n] = 0.5 * np.eye(n)
        if 2 * j - 1 >= 0:
            embed[(2 * j - 1) * n:(2 * j) * n, j * n:(j + 1) * n] = 0.5 * np.eye(n)
    assert np.max(np.abs(embed.T @ residual)) < 1e-12


def test_gram_trial_blocks_and_scaling(rng):
    disc = make_disc(n_cells=4, n_steps=5)
    gram = solver.build_grams(disc, 1.0, "Y")
    n = disc.n_dof
    for i in range(5):
        sl = slice(i * n, (i + 1) * n)
        assert np.allclose(gram[sl, sl], disc.grid.widths[i] * disc.pair.stiffness,
                           atol=1e-15)
    assert np.count_nonzero(gram) == 5 * np.count_nonzero(disc.pair.stiffness)
    a = 3.7
    assert np.allclose(solver.build_grams(disc, a, "Y_omega"), a * gram, atol=1e-14)


@pytest.mark.parametrize("case", ["a", "b", "c", "d"])
@pytest.mark.parametrize("kind", ["Y", "Y_omega", "X_omega_hk", "X_omega", "X"])
def test_grams_positive_definite_across_cases(case, kind):
    disc = make_disc(n_cells=4, n_steps=4)
    model = CoefficientModel(case=case)
    domain = default_domain(case)
    omega = quadrature(domain, 8, avoid=model.singular_points)[0][2]
    gram = solver.build_grams(disc, model.a(omega), kind)
    np.linalg.cholesky(gram)  # raises if not positive definite


def test_gram_unknown_kind_rejected():
    disc = make_disc(n_cells=4, n_steps=4)
    with pytest.raises(ValueError):
        solver.build_grams(disc, 1.0, "Z")


def test_evaluate_norm_basics(rng):
    disc = make_disc(n_cells=4, n_steps=4)
    gram = solver.build_grams(disc, 1.0, "Y")
    assert oracle.evaluate_norm(np.zeros(disc.trial_size), gram) == 0.0
    v = rng.standard_normal(disc.trial_size)
    base = oracle.evaluate_norm(v, gram)
    assert oracle.evaluate_norm(-2.0 * v, gram) == pytest.approx(2 * base, rel=1e-13)
    with pytest.raises(ValueError):
        oracle.evaluate_norm(v[:-1], gram)


@pytest.mark.parametrize("grid", ["uniform", "graded"])
def test_evaluate_norm_matches_time_quadrature(rng, grid):
    # independent evaluation of int |U(t)|_V^2 dt by Gauss points in time
    disc = _disc_on(grid, n_cells=6, n_steps=7)
    n_steps = disc.grid.n_intervals
    values = rng.standard_normal((n_steps, disc.n_dof))
    sol = values
    gram = solver.build_grams(disc, 1.0, "Y")
    via_gram = oracle.evaluate_norm(sol, gram)
    gx, gw = np.polynomial.legendre.leggauss(3)
    total = 0.0
    for i in range(n_steps):
        k = disc.grid.widths[i]
        u = values[i]
        energy = u @ disc.pair.stiffness @ u
        total += np.sum(0.5 * k * gw * energy)
    assert via_gram == pytest.approx(np.sqrt(total), rel=1e-10)
    assert solver.trial_energy_norm(sol, disc) == pytest.approx(via_gram, rel=1e-12)


@pytest.mark.parametrize("grid", ["uniform", "graded"])
def test_test_gram_matches_independent_quadrature(rng, grid):
    # X_omega gram versus direct quadrature of the weighted test norm
    disc = _disc_on(grid, n_cells=5, n_steps=6)
    n_steps = disc.grid.n_intervals
    a = 2.3
    gram = solver.build_grams(disc, a, "X_omega")
    x = rng.standard_normal(disc.test_size)
    nodal = np.vstack([x.reshape(n_steps, -1), np.zeros(disc.n_dof)])
    pair = disc.pair
    dual = pair.mass @ np.linalg.solve(pair.stiffness, pair.mass)
    gx, gw = np.polynomial.legendre.leggauss(4)
    total = float(nodal[0] @ pair.mass @ nodal[0])
    for i in range(n_steps):
        k = disc.grid.widths[i]
        xd = (nodal[i + 1] - nodal[i]) / k
        total += k / a * float(xd @ dual @ xd)
        for g, w in zip(gx, gw):
            s = 0.5 * (g + 1.0)
            xt = (1 - s) * nodal[i] + s * nodal[i + 1]
            total += 0.5 * k * w * a * float(xt @ pair.stiffness @ xt)
    assert oracle.evaluate_norm(x, gram) == pytest.approx(np.sqrt(total), rel=1e-10)


@pytest.mark.parametrize("grid", ["uniform", "graded"])
def test_projected_test_gram_uses_interval_means(rng, grid):
    disc = _disc_on(grid, n_cells=5, n_steps=6)
    n_steps = disc.grid.n_intervals
    a = 0.8
    gram = solver.build_grams(disc, a, "X_omega_hk")
    x = rng.standard_normal(disc.test_size)
    nodal = np.vstack([x.reshape(n_steps, -1), np.zeros(disc.n_dof)])
    pair = disc.pair
    dual = pair.mass @ np.linalg.solve(pair.stiffness, pair.mass)
    total = float(nodal[0] @ pair.mass @ nodal[0])
    for i in range(n_steps):
        k = disc.grid.widths[i]
        xd = (nodal[i + 1] - nodal[i]) / k
        mean = 0.5 * (nodal[i] + nodal[i + 1])
        total += k / a * float(xd @ dual @ xd) + k * a * float(mean @ pair.stiffness @ mean)
    assert oracle.evaluate_norm(x, gram) == pytest.approx(np.sqrt(total), rel=1e-10)


def test_uniform_k_max_is_the_grid_k_max_bit_for_bit():
    # the widths of numpy.linspace's nodes, a block at a time and the last
    # one to the exact 1, with no grid; the block edges included
    for n_steps in (*range(1, 300), 8191, 8192, 8193, 8194, 16385, 10 ** 6 + 7):
        grid = solver.TimeGrid.uniform(1.0, n_steps)
        assert solver.uniform_k_max(n_steps) == grid.k_max, n_steps


def test_uniform_k_max_refuses_a_grid_of_no_interval():
    for n_steps in (0, -3):
        with pytest.raises(ValueError, match="need at least one time interval"):
            solver.uniform_k_max(n_steps)


def test_energy_bound_samples():
    # weighted energy bound a |U|_Y^2 <= (1 + c_S_omega^2) a^-1 |f|^2 with
    # the computable forcing norm; u0 = 0 in every stock case
    disc = make_disc(n_cells=8, n_steps=16)
    k = disc.grid.k_max
    # the forcing norm at unit amplitude depends on the discretization alone
    unit_forcing = oracle.forcing_dual_norm_sq(ConstantCoeffs(1.0, 1.0), disc, 0.0)
    for case, omega in (("a", 0.31), ("b", -0.17), ("c", 0.23), ("d", 0.11)):
        model = CoefficientModel(case=case)
        a = model.a(omega)
        c_sw = oracle.cfl_omega(disc.pair, k, omega, model)
        sol = solver.solve_pathwise(model, disc, omega)
        lhs = a * solver.trial_energy_norm(sol, disc) ** 2
        rhs = (1.0 + c_sw ** 2) / a * (float(model.c0(omega)) ** 2 * unit_forcing)
        assert 0 < lhs <= rhs * (1 + 1e-12)


def test_best_approximation_is_optimal_projection(rng):
    from stpg.oracle import ModeSolution
    disc = make_disc(n_cells=8, n_steps=8)
    mode = ModeSolution.for_dim(1.3, 0.7, 1)
    best = oracle.best_approximation(mode, disc)
    sol = solver.solve_pathwise(ConstantCoeffs(a=1.3, c0=0.7), disc, 0.0)
    from stpg.oracle import exact_error
    err_solver, err_best = exact_error(mode, disc, sol)
    assert err_best <= err_solver
    # projection property: perturbing the best approximation in the trial
    # space only increases the distance (Pythagoras in the energy norm)
    gram = solver.build_grams(disc, 1.0, "Y")
    for _ in range(10):
        pert = rng.standard_normal(best.shape)
        pert_sol = best + 0.05 * pert
        err_pert = exact_error(mode, disc, pert_sol)[0]
        dist = oracle.evaluate_norm(pert_sol - best, gram)
        expected = np.sqrt(err_best ** 2 + dist ** 2)
        assert err_pert == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("dim,n_cells,degree", [(1, 6, 1), (1, 5, 2), (2, 4, 1)])
@pytest.mark.parametrize("grid", sorted(_GRIDS))
# the zero initial datum of the stock problem, the only one the solver
# takes; the parameter keeps the ids of these cases
@pytest.mark.parametrize("with_u0", [False])
def test_sweep_matches_dense_space_time_solve(dim, n_cells, degree, grid, with_u0):
    mesh = fem.build_mesh(dim, n_cells, degree)
    disc = solver.Discretization(pair=fem.assemble(mesh), grid=_GRIDS[grid])
    a = 0.7
    coeffs = ConstantCoeffs(a=a, c0=1.3)
    sol = solver.solve_pathwise(coeffs, disc, 0.0)
    direct = np.linalg.solve(solver.assemble_full_system(disc, a),
                             oracle.assemble_load(coeffs, disc, 0.0))
    gram = solver.build_grams(disc, a, "Y")
    diff = oracle.evaluate_norm(sol.reshape(-1) - direct, gram)
    assert diff <= 1e-12 * oracle.evaluate_norm(direct, gram)


def test_non_finite_forcing_profile_is_flagged(monkeypatch):
    # infinite time weights, read by the grid before the first step
    monkeypatch.setattr(solver, "time_weights",
                        lambda grid: np.full(grid.n_intervals, np.inf))
    disc = make_disc(n_cells=4, n_steps=4)
    with pytest.raises(solver.PathwiseSolveError):
        solver.solve_pathwise(ConstantCoeffs(), disc, 0.0)


# a over six decades, c0 of both signs and zero
_A = np.array([0.3, 1.0, 7.5, 1e-3, 40.0, 2.2])
_C0 = np.array([1.3, -0.4, 0.0, 2.0, 1.0, -0.0])


def test_sweep_flags_the_path_that_overflows_mid_sweep(monkeypatch):
    # tenfold time weights, read by the grid before the first step
    time_weights = solver.time_weights
    monkeypatch.setattr(solver, "time_weights", lambda grid: 10.0 * time_weights(grid))
    disc = make_disc(n_cells=6, n_steps=40)
    # a tiny a keeps the gain near 1, so the steps of a huge c0 add up to
    # inf; the same path with a unit c0 stays finite, so its first step
    # with c0 = 1e308 does too
    unit = solver.solve_pathwise(ConstantCoeffs(a=1e-3, c0=1.0), disc, 0.0)
    with np.errstate(over="ignore"):
        assert np.isfinite(1e308 * unit[0]).all() and not np.isfinite(1e308 * unit).all()
    with pytest.raises(solver.PathwiseSolveError, match="non-finite values in time step"):
        solver.solve_pathwise(ConstantCoeffs(a=1e-3, c0=1e308), disc, 0.0)


@pytest.mark.parametrize("dim,degree,n_cells", [(1, 1, 8), (1, 1, 64), (1, 2, 8),
                                                (1, 2, 37), (2, 1, 6)])
def test_a_load_near_the_float_range_keeps_representable_values(dim, degree, n_cells):
    # a tiny a and c0 = 1e308 on 41 steps: the interval values reach about
    # 6.5e307, and they are c0 times those of the unit load, bit for bit;
    # products of the load itself would overflow for splines and in 2-D
    disc = make_disc(dim, n_cells, degree, n_steps=41)
    unit = solver.solve_pathwise(ConstantCoeffs(a=1e-3, c0=1.0), disc, 0.0)
    for c0 in (1e308, -1e308):
        values = solver.solve_pathwise(ConstantCoeffs(a=1e-3, c0=c0), disc, 0.0)
        assert values.tobytes() == (c0 * unit).tobytes()
        assert 1e307 < np.abs(values).max() < np.finfo(float).max


@pytest.mark.parametrize("a,c0,message", [
    (0.0, 1.0, "diffusion value must be positive: 0.0"),
    (-2.0, 1.0, "diffusion value must be positive: -2.0"),
    (np.inf, 1.0, "diffusion value is not finite: inf"),
    (np.nan, 1.0, "diffusion value is not finite: nan"),
    (1.0, np.nan, "forcing amplitude is not finite: nan"),
    (1.0, -np.inf, "forcing amplitude is not finite: -inf"),
])
def test_solve_pathwise_names_what_is_not_swept(a, c0, message):
    disc = make_disc(n_cells=4, n_steps=4)
    with pytest.raises(solver.PathwiseSolveError) as exc:
        solver.solve_pathwise(ConstantCoeffs(a=a, c0=c0), disc, 0.0)
    assert str(exc.value) == message


_EPS = np.finfo(float).eps


_STEP_COUNTS = (1, 2, 3, 4, 5, 7, 8, 16, 33, 64, 100, 256, 1024, 4096)


@pytest.fixture(scope="module", params=[(1, 6, 1), (1, 5, 2), (2, 4, 1)],
                ids=lambda mesh: "-".join(map(str, mesh)))
def pathwise_solves(request):
    """{n_steps: (disc, [(N, n_dof) interval values of each path of _A, _C0])}
    on the uniform grids of _STEP_COUNTS of a (dim, n_cells, degree) mesh,
    from the dense forward solve; the closed-form energy and profile tests
    share them."""
    pair = fem.assemble(fem.build_mesh(*request.param))
    solves = {}
    for n_steps in _STEP_COUNTS:
        disc = solver.Discretization(pair=pair, grid=solver.TimeGrid.uniform(1.0, n_steps))
        solves[n_steps] = disc, [solver.solve_pathwise(ConstantCoeffs(a, c0), disc, 0.0)
                                 for a, c0 in zip(_A, _C0)]
    return solves


# the dense solve's rounding compounds over the steps, so its own error
# grows as N eps: at most 2.7e-14 up to 1,024 steps and 2.4e-13 at 4,096
# against the closed forms, which stay within 6.1e-16 of a long double
# recurrence
def _loop_rtol(n_steps):
    return 1e-13 if n_steps <= 1024 else n_steps * _EPS


def test_uniform_energy_is_the_step_loop(pathwise_solves):
    for n_steps, (disc, solves) in pathwise_solves.items():
        energy = solver.uniform_energy(disc.pair, n_steps, _A, _C0)
        loop = [solver.trial_energy_norm(values, disc) ** 2 for values in solves]
        assert energy == pytest.approx(loop, rel=_loop_rtol(n_steps), abs=0.0)
        assert np.array_equal(energy == 0.0, _C0 == 0.0)
    # an a so small that x = a lam k / 2 underflows: the loop's steps are
    # undamped, and the closed form takes the same limit
    tiny = np.array([5e-324, 1e-310])
    disc = solver.Discretization(pair=disc.pair, grid=solver.TimeGrid.uniform(1.0, 64))
    loop = [solver.trial_energy_norm(solver.solve_pathwise(ConstantCoeffs(a), disc, 0.0),
                                     disc) ** 2 for a in tiny]
    assert solver.uniform_energy(disc.pair, 64, tiny, [1.0, 1.0]) == pytest.approx(
        loop, rel=1e-13, abs=0.0)


def _long_double_profile(pair, n_steps, a, c0):
    """(lam, z): the (N, P) coefficients z_j of a one-dof pair by the
    step recurrence in long double, with the uniform grid's closed-form
    weights."""
    ld = np.longdouble
    pi = np.arccos(ld(-1))
    k = ld(1) / n_steps
    theta = pi * k
    # 1 - sin(theta) / theta by its alternating series
    tw0 = sum((-1) ** (m + 1) * theta ** (2 * m) / ld(math.factorial(2 * m + 1))
              for m in range(1, 30)) / pi
    c = 4 * np.sin(theta / 2) ** 2 / (pi ** 2 * k)
    lam, vecs = pair.modes
    (lam,), (beta,) = lam.astype(ld), (vecs.T @ pair.mode_vector).astype(ld)
    x = np.asarray(a, dtype=ld) * lam * k / 2
    gain, amp = (1 - x) / (1 + x), np.asarray(c0, dtype=ld) * beta / (1 + x)
    z = [amp * tw0]
    for j in range(1, n_steps):
        z.append(gain * z[-1] + amp * c * np.sin(j * theta))
    return lam, np.array(z)


def _long_double_energy(pair, n_steps, a, c0):
    """sum_j k lam z_j^2 of _long_double_profile."""
    lam, z = _long_double_profile(pair, n_steps, a, c0)
    return lam * np.sum(np.square(z), axis=0) / n_steps


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double")
@pytest.mark.parametrize("n_steps", [1, 2, 3, 8, 1024, 4096])
def test_uniform_energy_matches_a_long_double_recurrence(n_steps):
    # one dof, so a sets x = a lam k / 2 directly: x from 1e-9 to 1e6
    pair = fem.assemble(fem.build_mesh(1, 2, 1))
    x = np.logspace(-9, 6, 46)
    a = 2.0 * n_steps * x / pair.eigenvalues[0]
    c0 = np.where(np.arange(len(x)) % 2, -1.7, 0.6)
    energy = solver.uniform_energy(pair, n_steps, a, c0)
    expected = _long_double_energy(pair, n_steps, a, c0).astype(float)
    assert energy == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_uniform_profile_is_the_step_loop(pathwise_solves):
    for n_steps, (disc, solves) in pathwise_solves.items():
        pair = disc.pair
        # the M-projection of the interval values on v_1, M-normal up to rounding
        m_v1 = pair.mass @ pair.excited_vector
        profiles = solver.uniform_profile(pair, n_steps, _A, _C0)
        for a, c0, y, values in zip(_A, _C0, profiles, solves):
            # each path's profile has the bits it has alone
            assert y.tobytes() == solver.uniform_profile(pair, n_steps, [a], [c0]).tobytes()
            loop = values @ m_v1
            tol = _loop_rtol(n_steps) * np.max(np.abs(loop))
            assert np.max(np.abs(y - loop)) <= tol, (n_steps, a, c0)
            # +0, not -0, where there is no forcing
            assert c0 != 0.0 or not (np.signbit(y) | (y != 0.0)).any()


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double")
@pytest.mark.parametrize("n_steps", [1, 2, 3, 8, 1024, 4096])
def test_uniform_profile_matches_a_long_double_recurrence(n_steps):
    # one dof: x = a lam k / 2 from 1e-9 to 1e6, where g runs from 1 to -1
    pair = fem.assemble(fem.build_mesh(1, 2, 1))
    x = np.logspace(-9, 6, 46)
    a = 2.0 * n_steps * x / pair.eigenvalues[0]
    _, expected = _long_double_profile(pair, n_steps, a, np.ones_like(a))
    sign = np.sign(pair.modes[1][0, 0])
    profiles = solver.uniform_profile(pair, n_steps, a, np.ones_like(a))
    for p, y in enumerate(profiles):
        want = sign * expected[:, p].astype(float)
        assert np.max(np.abs(y - want)) <= 1e-14 * np.max(np.abs(want)), x[p]


@pytest.mark.parametrize("a,c0,message", [
    (0.0, 1.0, "diffusion value must be positive: 0.0"),
    (np.nan, 1.0, "diffusion value is not finite: nan"),
    (1.0, -np.inf, "forcing amplitude is not finite: -inf"),
    # |y| stays below |c0 beta_1|, so only a load beyond any mesh's overflows
    (1e-3, 1e300, "non-finite values in time step"),
])
def test_uniform_profile_raises_as_solve_pathwise(a, c0, message):
    pair = fem.assemble(fem.build_mesh(1, 4, 1))
    lam, beta = pair.excited_mode
    huge = type("Pair", (), {"excited_mode": (lam, 1e10 * beta)})()
    with pytest.raises(solver.PathwiseSolveError) as exc:
        solver.path_profile(ConstantCoeffs(a=a, c0=c0), huge, 40, 0.0)
    assert str(exc.value) == message
    assert np.isfinite(solver.path_profile(ConstantCoeffs(1e-3, 1e300), pair, 40, 0.0)).all()
    # a block of paths flags none: the overflowing one is not finite
    y = solver.uniform_profile(huge, 40, [1.0, 1e-3], [1.0, 1e300])
    assert np.isfinite(y[0]).all() and not np.isfinite(y[1]).all()


@pytest.mark.parametrize("a", [1e160, 1e200, 1e300])
def test_closed_form_profile_of_a_huge_diffusion_value(a):
    # Re Q = 2 s (u (1 - sigma) + v sigma) / mod forms no product s v, which
    # underflows above a = 1e155 (the second step would be off by up to
    # 70%): the closed form is the dense solve's profile within 1e-15 here
    pair = fem.assemble(fem.build_mesh(1, 8, 1))
    disc = solver.Discretization(pair=pair, grid=solver.TimeGrid.uniform(1.0, 7))
    values = solver.solve_pathwise(ConstantCoeffs(a=a, c0=1.0), disc, 0.0)
    y = solver.path_profile(ConstantCoeffs(a=a, c0=1.0), pair, 7, 0.0)
    gap = np.abs(np.multiply.outer(y, pair.excited_vector) - values).max()
    assert gap <= 1e-13 * np.abs(values).max()


def test_uniform_energy_shares_the_first_time_weight():
    # the closed form takes tw_0 from the formula of time_weights
    for n_steps in (1, 2, 7, 64, 4096):
        grid = solver.TimeGrid.uniform(1.0, n_steps)
        assert solver._hat_integrals(np.array([0.0, 1.0 / n_steps]))[0][0] == grid.weights[0]


def test_first_time_weight_from_python_floats_is_the_array_form_bit_for_bit():
    # the scalar tw_0 of _uniform_terms against _hat_integrals on [0, 1/N]:
    # both branches (the Taylor series from N = 16) and the grids the
    # closed forms take, to 2^40 steps
    for n_steps in [*range(1, 4097), *(2 ** p for p in range(41))]:
        k = 1 / n_steps
        assert solver._first_hat_integral(k) == solver._hat_integrals(np.array([0.0, k]))[0][0]
    assert solver._uniform_terms(64, np.array([1.0]), 1.0)[0] == solver._first_hat_integral(1 / 64)


# uniform_profile with its sines broadcast into the (P, N) profile, one
# per path and step; taking each step's sine once and scaling it per path
# must give these bits
def _before_uniform_profile(pair, n_steps: int, a, c0) -> np.ndarray:
    lam, beta = pair.excited_mode
    c0 = np.asarray(c0, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tw0, c, theta, sigma, _, u, v, g, mod = solver._uniform_terms(
            n_steps, np.asarray(a, dtype=float)[:, None], lam)
        y0, s = c0 * tw0 * beta * v, c0 * c * beta * v
        im = -s * g * np.sin(theta) / mod
        # formed in place: y, one more value per path and step and the angles
        angle = np.arange(n_steps, dtype=float)
        power = angle * np.log1p(-2.0 * np.minimum(u, v))
        np.exp(power, out=power)
        power[:, 1::2] *= np.where(g < 0, -1.0, 1.0)
        power *= y0 - im
        angle *= theta
        y = np.sin(angle, out=np.empty_like(power))
        y *= 2.0 * s * (u * (1.0 - sigma) + v * sigma) / mod
        y += power
        y += np.multiply(np.cos(angle, out=angle), im, out=power)
    y[:, 0] = y0[:, 0]
    y += 0.0  # +0 where c0 = 0, not a -0 of the trig values' signs
    return y


@pytest.mark.parametrize("dim,degree", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 64, 1024])
@pytest.mark.parametrize("paths", [1, 3, 16])
def test_one_sine_per_step_is_the_broadcast_profile_bit_for_bit(dim, degree, n_steps, paths):
    pair = make_disc(dim, 5, degree).pair
    for start in range(0, len(FLOAT_RANGE_A), paths):
        a, c0 = FLOAT_RANGE_A[start:start + paths], FLOAT_RANGE_C0[start:start + paths]
        y = solver.uniform_profile(pair, n_steps, a, c0)
        assert y.tobytes() == _before_uniform_profile(pair, n_steps, a, c0).tobytes()


def test_decimal_oracle_is_the_fraction_recurrence():
    # the recurrence of exact.profile in rational arithmetic, on a few small
    # cases, with a at 1e-300, 1 and the float maximum: the two agree far
    # below a float's spacing
    pair = fem.assemble(fem.build_mesh(1, 8, 1))
    lam, beta = pair.excited_mode
    for n_steps, a, c0 in [(1, 1.0, 1.0), (3, 1e-300, -1e300), (5, 0.3, 1e-300),
                           (7, np.finfo(float).max, 1.0)]:
        weights = solver.time_weights(solver.TimeGrid.uniform(1.0, n_steps)).tolist()
        x = Fraction(a) * Fraction(lam) / (2 * n_steps)
        g = (1 - x) / (1 + x)
        y, fractions = Fraction(0), []
        for tw in weights:
            y = g * y + Fraction(c0) * Fraction(tw) * Fraction(beta) / (1 + x)
            fractions.append(y)
        decimals = exact.profile(lam, beta, weights, a, c0)
        for got, want in zip(decimals, fractions, strict=True):
            assert abs(Fraction(got) - want) <= abs(want) / 10 ** 700, (n_steps, a, c0)
        want = Fraction(lam) * sum(y * y for y in fractions) / n_steps
        assert abs(Fraction(exact.energy(lam, decimals)) - want) <= want / 10 ** 700


# the sweep of the closed forms over the float range: 1-D hats at 8 and
# 1,000 cells, 1-D splines at 8 and 64 cells and 2-D hats at 4 cells; N from
# one step to 200, where rounding grows most; a from 1e-300 to the float
# maximum; c0 of zero, both signs and the ends of the float range
_SWEEP_STEPS = (1, 2, 7, 200)
_SWEEP_A = (1e-300, 1e-20, 1e-2, 1.0, 1e2, 1e5, 1e20, 1e155, np.finfo(float).max)
_SWEEP_C0 = (0.0, 1.0, -1e-300, 1e300, 1e308)


@pytest.mark.parametrize("dim,n_cells,degree", [(1, 8, 1), (1, 1000, 1), (1, 8, 2), (1, 64, 2),
                                                (2, 4, 1)])
def test_closed_forms_are_the_exact_recurrence_over_the_float_range(dim, n_cells, degree):
    # against exact.profile and exact.energy, where the exact value is a
    # normal float: profiles within 90 eps of the path's largest value (89.2
    # measured, at 2-D hats, N = 200, a = 1e20, c0 = 1e308) and energies
    # within 73 eps (72.7, at 64 spline cells, N = 1, a the float maximum,
    # c0 = 1e300); where it is subnormal, profiles within 29 units of the
    # least subnormal (2.9) and energies within 2.6 (2.1); c0 = 0 gives +0
    pair = fem.assemble(fem.build_mesh(dim, n_cells, degree))
    lam, beta = pair.excited_mode
    a = np.repeat(_SWEEP_A, len(_SWEEP_C0))
    c0 = np.tile(_SWEEP_C0, len(_SWEEP_A))
    for n_steps in _SWEEP_STEPS:
        weights = solver.time_weights(solver.TimeGrid.uniform(1.0, n_steps)).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            profiles = solver.uniform_profile(pair, n_steps, a, c0)
            energies = solver.uniform_energy(pair, n_steps, a, c0)
        for i, value in enumerate(_SWEEP_A):
            unit = exact.profile(lam, beta, weights, value)
            for path in range(i * len(_SWEEP_C0), (i + 1) * len(_SWEEP_C0)):
                y, energy, case = profiles[path], energies[path], (n_steps, value, c0[path])
                if c0[path] == 0.0:
                    assert not y.any() and not np.signbit(y).any() and energy == 0.0, case
                    continue
                with decimal.localcontext(exact.CONTEXT):
                    wants = [Decimal(c0[path]) * want for want in unit]
                    top = max(map(abs, wants))
                    gap = max(map(exact.gap, y.tolist(), wants))
                    assert gap <= (90 * exact.EPS * top if top >= exact.TINY
                                   else 29 * exact.LEAST), case
                    want = exact.energy(lam, wants)
                    if want > Decimal(np.finfo(float).max):
                        assert energy == np.inf, case
                        continue
                    gap = exact.gap(float(energy), want)
                    assert gap <= (73 * exact.EPS * want if want >= exact.TINY
                                   else Decimal("2.6") * exact.LEAST), case
