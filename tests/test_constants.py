import math

import numpy as np
import pytest
from scipy.linalg import eigh

from conftest import ConstantCoeffs, make_disc
from stpg import constants as consts
from stpg import fem, oracle, solver


def _identity_bands(n):
    """The bands of mode_blocks for identity blocks: (bilinear, trial, test)."""
    band = np.stack([np.ones(n), np.zeros(n)])
    return band, np.ones(n), band.copy()


def _dense_blocks(bilinear, gram_trial, gram_test):
    """The dense N x N blocks of mode_blocks' bands: B lower bidiagonal,
    G_Y diagonal and G_X symmetric tridiagonal."""
    n = gram_trial.shape[-1]
    diag, sub = np.arange(n), np.arange(1, n)
    b, y, x = np.zeros((3, *gram_trial.shape, n))
    b[..., diag, diag] = bilinear[..., 0, :]
    b[..., sub, sub - 1] = bilinear[..., 1, :-1]
    y[..., diag, diag] = gram_trial
    x[..., diag, diag] = gram_test[..., 0, :]
    x[..., sub, sub - 1] = x[..., sub - 1, sub] = gram_test[..., 1, :-1]
    return b, y, x


def test_infsup_identity():
    eye = np.eye(6)
    for smin, smax in (consts.discrete_infsup(*_identity_bands(6)),
                       oracle.dense_infsup(eye, eye, eye)):
        assert smin == pytest.approx(1.0, abs=1e-14)
        assert smax == pytest.approx(1.0, abs=1e-14)


def test_infsup_transpose_swap_invariance(rng):
    n = 8
    bil = rng.standard_normal((n, n))
    g1 = np.eye(n) + 0.1 * np.diag(rng.random(n))
    g2 = np.eye(n) + 0.1 * np.diag(rng.random(n))
    direct = oracle.dense_infsup(bil, g1, g2)
    swapped = oracle.dense_infsup(bil.T, g2, g1)
    assert direct[0] == pytest.approx(swapped[0], rel=1e-12)
    assert direct[1] == pytest.approx(swapped[1], rel=1e-12)


def test_infsup_guards(rng):
    # the banded path and the dense oracle fail alike
    bil, trial, test = _identity_bands(4)
    eye = np.eye(4)
    for infsup, args, bad in ((consts.discrete_infsup, (bil, trial, test), (-trial, -test)),
                              (oracle.dense_infsup, (eye, eye, eye), (-eye, -eye))):
        with pytest.raises(ValueError, match="^trial gram matrix is not positive definite$"):
            infsup(args[0], bad[0], args[2])
        with pytest.raises(ValueError, match="^test gram matrix is not positive definite$"):
            infsup(args[0], args[1], bad[1])
    with pytest.raises(ValueError, match="mismatched sizes"):
        consts.discrete_infsup(bil, trial[:3], test)
    with pytest.raises(ValueError):
        oracle.dense_infsup(eye, np.eye(3), eye)
    # a stack needs Grams of the same depth
    with pytest.raises(ValueError, match="mismatched sizes"):
        consts.discrete_infsup(np.stack([bil] * 3), np.stack([trial] * 2),
                               np.stack([test] * 3))


@pytest.mark.parametrize("dim,n_cells", [(1, 6), (2, 4)])
@pytest.mark.parametrize("a", [0.3, 4.0])
def test_infsup_matches_generalized_eigenvalues(dim, n_cells, a):
    # oracle: sigma^2 are the eigenvalues of (B' G_test^-1 B, G_trial) by
    # scipy's generalized eigh, on the dense space-time system (whose
    # unweighted norms keep sigma away from 1) and on every block of the
    # stacked mode blocks
    disc = make_disc(dim=dim, n_cells=n_cells, n_steps=8)
    bil = solver.assemble_full_system(disc, a)
    dense = (bil, solver.build_grams(disc, a, "Y"), solver.build_grams(disc, a, "X"))
    stack = solver.mode_blocks(disc.grid, a * disc.pair.modes[0])
    lows, highs = consts.discrete_infsup(*stack)
    assert lows.shape == highs.shape == (disc.n_dof,)
    results = [(*oracle.dense_infsup(*dense), *dense)]
    results += zip(lows, highs, *_dense_blocks(*stack))
    for smin, smax, bil, trial, test in results:
        sig2 = eigh(bil.T @ np.linalg.solve(test, bil), trial, eigvals_only=True)
        assert smin ** 2 == pytest.approx(sig2[0], rel=1e-10)
        assert smax ** 2 == pytest.approx(sig2[-1], rel=1e-10)


@pytest.mark.parametrize("a", [0.1, 1.0, 7.3])
def test_weighted_constants_are_one(a):
    disc = make_disc(n_cells=4, n_steps=8)
    bil = solver.assemble_full_system(disc, a)
    smin, smax = oracle.dense_infsup(
        bil, solver.build_grams(disc, a, "Y_omega"),
        solver.build_grams(disc, a, "X_omega_hk"))
    assert abs(smin - 1.0) < 1e-10
    assert abs(smax - 1.0) < 1e-10


def test_cfl_scalar_case():
    pair = fem.assemble(fem.build_mesh(1, 2, 1))
    # S = 4, M S^-1 M = 1/36, generalized eigenvalue 144
    assert consts.cfl_constant(pair, 0.01) == pytest.approx(0.12, abs=1e-12)
    assert consts.cfl_constant(pair, 1.0) == pytest.approx(12.0, abs=1e-10)


def test_cfl_scales_linearly_in_k():
    pair = fem.assemble(fem.build_mesh(1, 8, 1))
    base = consts.cfl_constant(pair, 1.0)
    for k in (0.5, 0.125, 0.03125):
        assert consts.cfl_constant(pair, k) == pytest.approx(k * base, rel=1e-12)
    with pytest.raises(ValueError):
        consts.cfl_constant(pair, 0.0)


def test_cfl_bounded_on_parabolic_ladder():
    # h = 2^-j, k = 2^-2j keeps the CFL constant bounded
    values = []
    for j in range(2, 7):
        pair = fem.assemble(fem.build_mesh(1, 2 ** j, 1))
        values.append(consts.cfl_constant(pair, 2.0 ** (-2 * j)))
    assert max(values) <= 12.0 + 1e-9
    assert values[-1] > 10.0


def test_cfl_omega_consistency_and_homogeneity():
    pair = fem.assemble(fem.build_mesh(1, 8, 1))
    k = 0.05
    c_s = consts.cfl_constant(pair, k)
    one = consts.cfl_omega(pair, k, 0.0, ConstantCoeffs(a=1.0))
    assert one ** 2 == pytest.approx(c_s ** 2 / 12.0, rel=1e-12)
    two = consts.cfl_omega(pair, k, 0.0, ConstantCoeffs(a=2.0))
    assert two == pytest.approx(2.0 * one, rel=1e-12)
    # the generic bound (a_max^2 / 12) c_S^2 is attained for scalar diffusion
    for a in (0.3, 1.0, 4.2):
        c_sw = consts.cfl_omega(pair, k, 0.0, ConstantCoeffs(a=a))
        assert c_sw ** 2 == pytest.approx(a ** 2 / 12.0 * c_s ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        consts.cfl_omega(pair, k, 0.0, ConstantCoeffs(a=0.0))


def test_projection_stability_identity_and_lower_bound():
    coarse = fem.build_mesh(1, 8, 1)
    assert oracle.projection_stability(coarse, coarse) == pytest.approx(1.0, abs=1e-9)
    for factor in (2, 4):
        fine = fem.build_mesh(1, 8 * factor, 1)
        assert oracle.projection_stability(coarse, fine) >= 1.0 - 1e-12


def test_projection_stability_two_grid_table():
    coarse = fem.build_mesh(1, 8, 1)
    values = [oracle.projection_stability(coarse, fem.build_mesh(1, 8 * f, 1))
              for f in (2, 4, 8)]
    spread = (max(values) - min(values)) / values[-1]
    assert spread < 0.05
    assert all(v >= 1.0 for v in values)


@pytest.mark.parametrize("fine_cells", [8, 16, 32, 64])
def test_prolongation_is_the_per_dof_loop_bit_for_bit(fine_cells):
    coarse, fine = fem.build_mesh(1, 8, 1), fem.build_mesh(1, fine_cells, 1)
    # oracle: the coarse hats sampled at the fine nodes, one coarse dof at a time
    fine_nodes = np.arange(1, fine.n_cells) * fine.h
    loop = np.zeros((fine.n_dof_1d, coarse.n_dof_1d))
    for j in range(coarse.n_dof_1d):
        center = (j + 1) * coarse.h
        loop[:, j] = np.clip(1.0 - np.abs(fine_nodes - center) / coarse.h, 0.0, None)
    assert np.array_equal(oracle._prolongation_1d(coarse, fine), loop)


def test_projection_stability_in_2d():
    coarse = fem.build_mesh(2, 4, 1)
    assert oracle.projection_stability(coarse, coarse) == pytest.approx(1.0, abs=1e-9)
    assert oracle.projection_stability(coarse, fem.build_mesh(2, 8, 1)) >= 1.0 - 1e-12


def test_projection_stability_guards():
    with pytest.raises(ValueError):
        oracle.projection_stability(fem.build_mesh(1, 8, 1), fem.build_mesh(1, 12, 1))
    with pytest.raises(NotImplementedError):
        oracle.projection_stability(fem.build_mesh(1, 4, 2), fem.build_mesh(1, 8, 2))


def test_theoretical_constants_plug_in():
    c_b, C_b = consts.theoretical_constants(1.0, 1.0)
    assert C_b == pytest.approx(math.sqrt(2.0))
    assert c_b == pytest.approx(1.0 / math.sqrt(2.0))
    c_b, _ = consts.theoretical_constants(0.5, 2.0)
    assert c_b == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)))
    with pytest.raises(ValueError):
        consts.theoretical_constants(2.0, 1.0)
    with pytest.raises(ValueError):
        consts.theoretical_constants(0.0, 1.0)


def test_theoretical_infsup_bound_monotone_in_rho():
    bounds = [consts.theoretical_constants(1.0 / r, 1.0)[0]
              for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("a,n_cells,n_steps", [
    (0.1, 4, 4), (0.5, 8, 16), (1.0, 4, 32), (2.0, 8, 16), (7.3, 4, 4),
])
def test_unweighted_constants_against_closed_forms(a, n_cells, n_steps):
    # continuity never exceeds sqrt(2) max(1, a); the inf-sup constant
    # dominates the CFL-adjusted bound but, unlike the semidiscrete pair,
    # may drop below the continuous-space bound when the CFL number is
    # large
    disc = make_disc(n_cells=n_cells, n_steps=n_steps)
    bil = solver.assemble_full_system(disc, a)
    smin, smax = oracle.dense_infsup(
        bil, solver.build_grams(disc, a, "Y"), solver.build_grams(disc, a, "X"))
    assert smax <= consts.theoretical_constants(a, a)[1] + 1e-8
    c_s = consts.cfl_constant(disc.pair, disc.grid.k_max)
    assert smin >= consts.cfl_adjusted_infsup_bound(a, c_s) - 1e-8


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_unweighted_infsup_recovers_continuous_bound_when_time_resolved(a):
    disc = make_disc(n_cells=4, n_steps=512)
    bil = solver.assemble_full_system(disc, a)
    smin, _ = oracle.dense_infsup(
        bil, solver.build_grams(disc, a, "Y"), solver.build_grams(disc, a, "X"))
    assert smin >= consts.theoretical_constants(a, a)[0] - 1e-8


def test_quasi_opt_ratio_guards_and_invariance():
    assert consts.quasi_opt_ratio(1.0, 1.0) == 1.0
    assert consts.quasi_opt_ratio(0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        consts.quasi_opt_ratio(1.0, 0.0)
    with pytest.raises(ValueError):
        consts.quasi_opt_ratio(-1.0, 1.0)


def test_quasi_opt_ratio_invariant_under_forcing_scale():
    from stpg.oracle import ModeSolution, exact_error
    disc = make_disc(n_cells=8, n_steps=16)
    ratios = []
    for c0 in (1.0, 2.0):
        sol = solver.solve_pathwise(ConstantCoeffs(a=1.0, c0=c0), disc, 0.0)
        err, best = exact_error(ModeSolution.for_dim(1.0, c0, 1), disc, sol)
        ratios.append(consts.quasi_opt_ratio(err, best))
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)


@pytest.mark.parametrize("dim,n_cells,degree", [(1, 6, 1), (1, 5, 2), (2, 4, 1)])
def test_cfl_matches_dense_dual_gram_eigenproblem(dim, n_cells, degree):
    # oracle: c_S = k sqrt(lambda_max(S, M S^-1 M)) by a dense generalized eigh
    pair = fem.assemble(fem.build_mesh(dim, n_cells, degree))
    dual = pair.mass @ np.linalg.solve(pair.stiffness, pair.mass)
    k = 0.03
    ref = k * math.sqrt(eigh(pair.stiffness, dual, eigvals_only=True)[-1])
    assert consts.cfl_constant(pair, k) == pytest.approx(ref, rel=1e-12)


_GRIDS = {
    "uniform": solver.TimeGrid.uniform(1.0, 8),
    "graded": solver.TimeGrid(np.linspace(0.0, 1.0, 10) ** 2),
}


_MODE_CASES = [(dim, n_cells, degree, grid, a)
               for dim, n_cells, degree in [(1, 6, 1), (1, 5, 2), (2, 4, 1)]
               for grid in sorted(_GRIDS) for a in (0.3, 4.0)]
_DENSE = {
    "bilinear": lambda disc, a: solver.assemble_full_system(disc, a),
    "Y_omega": lambda disc, a: solver.build_grams(disc, a, "Y_omega"),
    "X_omega_hk": lambda disc, a: solver.build_grams(disc, a, "X_omega_hk"),
}


def _mode_case(dim, n_cells, degree, grid, a):
    """Discretization of the case, its dense system and weighted Grams (in
    the order of _DENSE), and the stacked mode blocks of mu = a lam."""
    pair = fem.assemble(fem.build_mesh(dim, n_cells, degree))
    disc = solver.Discretization(pair=pair, grid=_GRIDS[grid])
    dense = tuple(build(disc, a) for build in _DENSE.values())
    return disc, dense, solver.mode_blocks(disc.grid, a * pair.modes[0])


@pytest.mark.parametrize("kind", list(_DENSE))
@pytest.mark.parametrize("dim,n_cells,degree,grid,a", _MODE_CASES)
def test_mode_blocks_are_the_dense_matrices_in_the_eigenbasis(kind, dim, n_cells,
                                                              degree, grid, a):
    # oracle (i): in the M-orthonormal eigenbasis V of the pair,
    # (I (x) V)' X (I (x) V) of the dense matrix X has block n of the stack
    # between mode n and itself and nothing between two modes. The
    # weighted constants sit at 1 whatever lam is, so only this catches a
    # mis-scaled, dropped or reordered mode or reversed widths
    disc, dense, stack = _mode_case(dim, n_cells, degree, grid, a)
    which = list(_DENSE).index(kind)
    n_dof, n_steps = disc.n_dof, disc.grid.n_intervals
    assert [band.shape for band in stack] == [(n_dof, 2, n_steps), (n_dof, n_steps),
                                              (n_dof, 2, n_steps)]
    blocks = _dense_blocks(*stack)[which]
    vecs = disc.pair.modes[1]
    modal = np.einsum("an,iajb,bm->nimj", vecs,
                      dense[which].reshape(n_steps, n_dof, n_steps, n_dof), vecs)
    scale = np.max(np.abs(blocks))
    diag = np.arange(n_dof)
    assert np.max(np.abs(modal[diag, :, diag, :] - blocks)) <= 1e-12 * scale
    modal[diag, :, diag, :] = 0.0
    assert np.max(np.abs(modal)) <= 1e-12 * scale


@pytest.mark.parametrize("dim,n_cells,degree,grid,a", _MODE_CASES)
def test_mode_blocks_match_dense_space_time_constants(dim, n_cells, degree, grid, a):
    # oracle (ii): the dense SVD of the whole space-time system of the pair
    disc, dense, stack = _mode_case(dim, n_cells, degree, grid, a)
    lows, highs = consts.discrete_infsup(*stack)
    smin, smax = oracle.dense_infsup(*dense)
    assert lows.min() == pytest.approx(smin, rel=1e-12)
    assert highs.max() == pytest.approx(smax, rel=1e-12)
    # criterion 1 on every time grid: the weighted constants are exactly 1
    assert abs(smin - 1.0) <= 1e-8 and abs(smax - 1.0) <= 1e-8


@pytest.mark.parametrize("dim,n_cells,degree,grid,a", _MODE_CASES)
def test_stacked_infsup_is_one_call_per_block(dim, n_cells, degree, grid, a):
    # (iii) a stacked call returns the bits of one call per block, and one
    # indefinite block fails the whole stack with the message of one block
    _, _, stack = _mode_case(dim, n_cells, degree, grid, a)
    lows, highs = consts.discrete_infsup(*stack)
    single = np.array([consts.discrete_infsup(*blocks) for blocks in zip(*stack)])
    assert np.array_equal(lows, single[:, 0]) and np.array_equal(highs, single[:, 1])
    for which, name in ((1, "trial"), (2, "test")):
        bad = list(stack)
        bad[which] = bad[which].copy()
        bad[which][len(lows) // 2] *= -1.0
        with pytest.raises(ValueError, match=f"^{name} gram matrix is not positive definite$"):
            consts.discrete_infsup(*bad)


def _random_grid(n_steps, seed):
    """A time grid of n_steps widths drawn from [1e-3, 1.001), scaled to sum to 1."""
    widths = np.random.default_rng(seed).random(n_steps) + 1e-3
    nodes = np.append(0.0, np.cumsum(widths) / widths.sum())
    nodes[-1] = 1.0
    return solver.TimeGrid(nodes)


_IDENTITY_GRIDS = {
    "uniform": solver.TimeGrid.uniform(1.0, 32),
    "graded": solver.TimeGrid(np.linspace(0.0, 1.0, 33) ** 2),
    "random": _random_grid(64, 5),
    "random-short": _random_grid(3, 6),
    "one-step": solver.TimeGrid.uniform(1.0, 1),
}
# the band identity's gap, in eps: each band entry of B G_Y^-1 B' from
# G_X's, relative to G_X's scale sqrt(g_ii g_jj) at that entry, was at
# most 3.0 over 300 drawn grids of 1 to 128 steps (uniform, graded and
# random) and mu from 1e-6 to 1e8
_BAND_EPS = 4


@pytest.mark.parametrize("grid", sorted(_IDENTITY_GRIDS))
def test_mode_blocks_satisfy_the_band_identity(grid):
    # G_X = B G_Y^-1 B' on every mode block: with the jump D and the
    # interval mean A, 2 (Ax).(Dx) = -x_0^2, so L_X^-1 B G_Y^(-1/2) is
    # orthogonal and every weighted constant is 1, as infsup reports it
    mu = np.geomspace(1e-6, 1e8, 57)
    bilinear, trial, test = solver.mode_blocks(_IDENTITY_GRIDS[grid], mu)
    diag, sub = bilinear[:, 0], bilinear[:, 1, :-1]
    # B is lower bidiagonal and G_Y diagonal, so B G_Y^-1 B' is tridiagonal
    product_diag = diag ** 2 / trial
    product_diag[:, 1:] += sub ** 2 / trial[:, :-1]
    product_sub = sub * diag[:, :-1] / trial[:, :-1]
    eps = np.finfo(float).eps
    scale = test[:, 0]
    assert np.all(np.abs(product_diag - test[:, 0]) <= _BAND_EPS * eps * scale)
    scale = np.sqrt(test[:, 0, 1:] * test[:, 0, :-1])
    assert np.all(np.abs(product_sub - test[:, 1, :-1]) <= _BAND_EPS * eps * scale)
    # and the dense blocks agree: B G_Y^-1 B' has nothing off the bands
    b, g_trial, g_test = _dense_blocks(bilinear, trial, test)
    dense = b @ np.linalg.solve(g_trial, np.swapaxes(b, 1, 2))
    scale = np.sqrt(np.einsum("pi,pj->pij", test[:, 0], test[:, 0]))
    assert np.all(np.abs(dense - g_test) <= _BAND_EPS * eps * scale)


# the SVD oracles' distance from 1, in eps, on the weighted mode blocks
# and whole space-time systems of 1 to 8 steps and a from 1e-3 to 1e3:
# at most 38 (discrete_infsup) and 1,513 (dense_infsup, at a = 1e-3,
# whose dense Grams are the worst conditioned). It is their rounding;
# the band identity above holds to 3
_SVD_EPS = {"discrete": 64, "dense": 2048}


@pytest.mark.parametrize("dim,n_cells,degree", [(1, 6, 1), (1, 5, 2), (2, 4, 1)])
@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
def test_svd_oracles_give_one_within_their_rounding(dim, n_cells, degree, graded):
    pair = fem.assemble(fem.build_mesh(dim, n_cells, degree))
    eps = np.finfo(float).eps
    for n_steps in (1, 2, 8):
        nodes = np.linspace(0.0, 1.0, n_steps + 1)
        disc = solver.Discretization(pair=pair, grid=solver.TimeGrid(nodes ** 2 if graded
                                                                     else nodes))
        for a in np.geomspace(1e-3, 1e3, 7):
            lows, highs = consts.discrete_infsup(
                *solver.mode_blocks(disc.grid, a * pair.eigenvalues))
            dense = oracle.dense_infsup(*(build(disc, a) for build in _DENSE.values()))
            for sigmas, name in (((*lows, *highs), "discrete"), (dense, "dense")):
                assert np.max(np.abs(np.subtract(sigmas, 1.0))) <= _SVD_EPS[name] * eps, \
                    (name, n_steps, a)


def _inv_sqrt(gram):
    """Symmetric inverse square root of an SPD matrix by np.linalg.eigh."""
    w, v = np.linalg.eigh(gram)
    return (v / np.sqrt(w)) @ v.T


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_mode_block_test_gram_has_the_bits_of_the_dense_sum(grid):
    # every band entry, the test Gram's from the two dense terms' sum
    # included, has the bits of the dense formula's, and the dense
    # blocks hold nothing off the bands
    time_grid = _GRIDS[grid]
    mu = np.array([1e-6, 0.5, 1.0, 7.0, 1e6])[:, None, None]
    jump, mean = solver._temporal_factors(time_grid)
    k = time_grid.widths
    test = jump.T @ (jump / k[:, None]) / mu + mu * (mean.T @ (k[:, None] * mean))
    test[:, 0, 0] += 1.0
    dense = (mu * (mean.T * k) - jump.T, mu * np.diag(k), test)
    stack = solver.mode_blocks(time_grid, mu[:, 0, 0])
    assert all(np.array_equal(a, b) for a, b in zip(_dense_blocks(*stack), dense))
    for band, block in ((stack[0], dense[0]), (stack[2], dense[2])):
        assert band[:, 0].tobytes() == np.diagonal(block, 0, 1, 2).tobytes()
        assert band[:, 1, :-1].tobytes() == np.diagonal(block, -1, 1, 2).tobytes()
        assert not band[:, 1, -1].any()
    assert stack[1].tobytes() == np.diagonal(dense[1], 0, 1, 2).tobytes()


@pytest.mark.parametrize("grid", sorted(_GRIDS))
def test_structured_infsup_matches_symmetric_root_oracle(grid, rng):
    # oracle: G_test^-1/2 B G_trial^-1/2 from eigh roots of the Grams, then
    # an SVD, block by block. The mode blocks themselves have every
    # singular value 1, so a random bilinear form with the same Grams
    # spreads them; the stack spans mu from 1e-6 to 1e6
    bilinear, trial, test = solver.mode_blocks(_GRIDS[grid], [1e-6, 1.0, 1e6])
    for bil in (bilinear, rng.standard_normal(bilinear.shape)):
        lows, highs = consts.discrete_infsup(bil, trial, test)
        for low, high, blocks in zip(lows, highs, zip(*_dense_blocks(bil, trial, test))):
            b, g_trial, g_test = blocks
            sig = np.linalg.svd(_inv_sqrt(g_test) @ b @ _inv_sqrt(g_trial),
                                compute_uv=False)
            assert low == pytest.approx(sig[-1], rel=1e-11)
            assert high == pytest.approx(sig[0], rel=1e-11)


def test_structured_infsup_needs_no_dense_factor(monkeypatch):
    # the mode blocks never reach np.linalg.cholesky or np.linalg.solve
    def dense(*args):
        raise AssertionError("dense path")

    stack = solver.mode_blocks(_GRIDS["graded"], [0.5, 2.0])
    expected = consts.discrete_infsup(*stack)
    monkeypatch.setattr(np.linalg, "cholesky", dense)
    monkeypatch.setattr(np.linalg, "solve", dense)
    assert all(map(np.array_equal, consts.discrete_infsup(*stack), expected))


@pytest.mark.parametrize("name,row,col,factor", [
    # the first fails a pivot halfway down the bidiagonal recurrence,
    # with every diagonal entry positive
    ("test", 4, 3, 10.0),
    ("test", 4, 4, np.nan),
    ("test", -1, -1, 0.0),
    ("trial", 4, 4, -1.0),
    ("trial", -1, -1, np.nan),
    ("trial", 0, 0, 0.0),
])
def test_one_bad_structured_block_fails_the_stack(name, row, col, factor):
    stack = [block.copy() for block in solver.mode_blocks(_GRIDS["graded"], [0.5, 1.0, 2.0])]
    which = 1 if name == "trial" else 2
    # scale one entry of the last block (and so its mirror), at its place
    # in the bands: the diagonal or the subdiagonal of row, col
    band = stack[which][-1]
    band[(..., row - col, col) if name == "test" else col] *= factor
    bad = _dense_blocks(*(block[-1] for block in stack))[which]
    if not np.isnan(bad).any():
        # the dense factor agrees that the block is not positive definite
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(bad)
    with pytest.raises(ValueError, match=f"^{name} gram matrix is not positive definite$"):
        consts.discrete_infsup(*stack)
    with pytest.raises(ValueError, match=f"^{name} gram matrix is not positive definite$"):
        consts.discrete_infsup(*(block[-1] for block in stack))
