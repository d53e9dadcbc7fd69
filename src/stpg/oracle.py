"""Test oracles: closed-form references and the dense paths the fast ones
are checked against.

For constant diffusion a and forcing c0 * sin(pi t) * phi_mode, the
exact solution is c0 * T(t) * phi_mode with a scalar profile T solving
T' + a * lam * T = sin(pi t), T(0) = 0. This module provides the closed
form of T, a validation gate against an independent high-order time
integrator, exact space-time error norms against discrete solutions,
and a refined-in-time surrogate for the spatially semidiscrete
solution. exact_error measures one path's solution, and its best
approximation through the Ritz projection of the mode (a dense solve
with S), and is the tests' oracle; block_errors,
which the convergence experiment calls, measures a block of paths whose
solutions are profiles times the excited mode, with exact_error's
expanded formula on that mode alone and no projection. It also holds the
dense inf-sup constants of whole space-time systems (dense_infsup), which
with constants.discrete_infsup is the tests' SVD oracle of the weighted
constants that infsup reports as the identity's exact 1, and a two-grid
estimate of the energy-norm stability of the L2 projection
(projection_stability). It is
the one module of the package that names scipy; validate_mode_profile
and projection_stability load it when called, and no CLI path calls them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fem import Mesh, assemble
from .solver import (
    Discretization,
    TimeGrid,
    solve_pathwise,
    trial_energy_norm,
)


# squared energy norm of the spatial mode, pi^2 / 2 in both dims
_MODE_ENERGY_SQ = float(np.pi ** 2 / 2.0)


def exact_mode_profile(a, lam: float, t, trig=None) -> np.ndarray:
    """Temporal profile T(t) of the exact single-mode solution.

        T(t) = (a lam sin(pi t) - pi cos(pi t) + pi exp(-a lam t))
               / ((a lam)^2 + pi^2)

    trig holds sin(pi t) and pi cos(pi t) where they are known, as
    TimeGrid.profile_quadrature keeps them for its Gauss points; they
    are computed here otherwise. Either way T has the same bits. a is a
    diffusion value or an array of them that broadcasts against t; each
    value's profile has the bits it has alone. Formed in place, with one
    temporary of T's size at a time.
    """
    if np.any(np.asarray(a) <= 0):
        raise ValueError("diffusion value must be positive")
    t = np.asarray(t, dtype=float)
    if trig is None:
        trig = np.sin(np.pi * t), np.pi * np.cos(np.pi * t)
    sin_pt, pi_cos_pt = trig
    al = a * lam
    prof = np.asarray(-al * t)
    np.exp(prof, out=prof)
    prof *= np.pi
    part = al * sin_pt
    part -= pi_cos_pt
    prof += part
    prof /= al * al + np.pi ** 2
    return prof


def _profile_derivative(a: float, lam: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    al = a * lam
    den = al * al + np.pi ** 2
    return (al * np.pi * np.cos(np.pi * t) + np.pi ** 2 * np.sin(np.pi * t)
            - al * np.pi * np.exp(-al * t)) / den


def validate_mode_profile(a: float, lam: float, n_times: int = 100) -> tuple:
    """Cross-check the closed form against the ODE and a DOP853 integration.

    Returns (max residual of T' + a lam T - sin(pi t), max deviation
    from the integrator, run at rtol 1e-12, at n_times sample times).
    The closed form is only trusted once this gate has been run.
    """
    # imported here: the integrator serves this gate only, and loading it
    # would add scipy.integrate to every CLI start
    from scipy.integrate import solve_ivp

    times = np.linspace(0.0, 1.0, n_times)
    prof = exact_mode_profile(a, lam, times)
    residual = np.max(np.abs(
        _profile_derivative(a, lam, times) + a * lam * prof - np.sin(np.pi * times)))
    sol = solve_ivp(lambda t, y: np.sin(np.pi * t) - a * lam * y, (0.0, 1.0),
                    [0.0], method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14)
    deviation = np.max(np.abs(prof - sol.y[0]))
    return float(residual), float(deviation)


@dataclass(frozen=True)
class ModeSolution:
    """Exact solution c0 * T(t) * phi_mode for one diffusion value.

    lam is the first Dirichlet eigenvalue of the domain, pi^2 on the
    interval and 2 pi^2 on the square.
    """

    a: float
    c0: float
    lam: float

    def __post_init__(self):
        if self.a <= 0 or not math.isfinite(self.a):
            raise ValueError("diffusion value must be positive and finite")

    @classmethod
    def for_dim(cls, a: float, c0: float, dim: int) -> "ModeSolution":
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        return cls(a=a, c0=c0, lam=dim * np.pi ** 2)

    def time_profile(self, t, trig=None) -> np.ndarray:
        return exact_mode_profile(self.a, self.lam, t, trig)

    @property
    def mode_energy_sq(self) -> float:
        """Squared energy norm of the spatial mode, pi^2 / 2 in both dims."""
        return _MODE_ENERGY_SQ


def _profile_integrals(a, lam: float, grid: TimeGrid):
    """Per-interval integrals of T and T^2 by 5-point Gauss, at the points,
    weights and trig values the grid keeps (TimeGrid.profile_quadrature):
    (N,) arrays for one diffusion value a, (P, N) for a (P, 1) column of
    them, from the (5, N) or (5, P, N) profile. Each reduction over its
    leading axis adds the 5 points in order, with the bits of a sum over
    the last axis of the interval-major (N, 5) layout."""
    quadrature = grid.profile_quadrature
    if np.ndim(a):
        quadrature = (q[:, None] for q in quadrature)
    t, w, *trig = quadrature
    prof = exact_mode_profile(a, lam, t, trig)
    int_t = np.add.reduce(w * prof, axis=0)
    prof *= prof
    prof *= w
    return int_t, np.add.reduce(prof, axis=0)


def exact_error(mode: ModeSolution, disc: Discretization,
                solution: np.ndarray) -> tuple:
    """Energy-norm errors (solver error, best-approximation error).

    Both are measured in the space-time trial norm. Cross terms between
    the mode and the basis are exact because the mode is an
    eigenfunction, so its energy pairing is lam times the mass pairing;
    time integrals of the profile use 5-point Gauss per interval, whose
    points and trig values are computed once per grid
    (TimeGrid.profile_quadrature). Each call forms the energy pairings of
    the mode with the basis, c = mode_eigenvalue * mode_vector, and the
    squared energy norm c' S^-1 c of its Ritz projection by a dense solve
    with S; a path adds its profile, its solution's pairing with the mode
    and its energy norm.
    """
    pair = disc.pair
    grid = disc.grid
    values = np.asarray(solution, dtype=float)
    if values.shape != (grid.n_intervals, disc.n_dof):
        raise ValueError("solution shape does not match discretization")
    if mode.lam != pair.mode_eigenvalue:
        raise ValueError("mode eigenvalue is not the pair's")

    cross_v = pair.mode_eigenvalue * pair.mode_vector
    proj_energy = float(cross_v @ np.linalg.solve(pair.stiffness, cross_v))
    int_t, int_t2 = _profile_integrals(mode.a, mode.lam, grid)
    phi_v2 = mode.mode_energy_sq
    # float64 scalars square by pow, with the bits of Python floats, but a
    # square past the float range is inf, not an OverflowError
    c0 = np.float64(mode.c0)

    with np.errstate(over="ignore", invalid="ignore"):
        err_sq = (c0 ** 2 * phi_v2 * float(np.sum(int_t2))
                  - 2.0 * c0 * float(int_t @ (values @ cross_v))
                  + np.float64(trial_energy_norm(values, disc)) ** 2)

        # best approximation: energy projection of the mode, interval means of T
        best_sq = c0 ** 2 * float(
            np.sum(int_t2 * phi_v2 - int_t ** 2 / grid.widths * proj_energy))
    return float(np.sqrt(max(err_sq, 0.0))), float(np.sqrt(max(best_sq, 0.0)))


def block_errors(disc: Discretization, a, c0, y) -> np.ndarray:
    """Solver errors of P paths whose interval values are y_j v_1.

    a and c0 hold the paths' diffusion values and forcing amplitudes, y
    their (P, N) profiles on the excited mode v_1 (SpatialPair.excited_vector),
    as solver.uniform_profile gives them. Returns the P errors of
    exact_error's expanded formula A - 2 c0 B + C, nan where a path's
    error is not finite, with no best error and no n_dof-sized array:
    A = c0^2 |phi|_V^2 sum_j int T^2 and the interval integrals of T are
    _profile_integrals', from the block's point-major (5, P, N) Gauss
    stack, the cross term is B = lam_phi beta_1 sum_j y_j
    int T, and the energy C = rho sum_j k_j y_j^2, with rho = v_1' S v_1
    (SpatialPair.excited_energy). rho is not replaced by lam_1: the two
    differ by rounding, which the cancellation of the expanded form
    amplifies (|u|^2 / err^2 is about 2e6 at degree 2). Each path's
    error has the bits it has alone.
    """
    pair, grid = disc.pair, disc.grid
    a, c0 = np.asarray(a, dtype=float), np.asarray(c0, dtype=float)
    # rows laid out as one path's, so that each sum adds in the same order
    y = np.ascontiguousarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        int_t, int_t2 = _profile_integrals(a[:, None], pair.mode_eigenvalue, grid)
        cross = pair.mode_eigenvalue * pair.excited_mode[1] * np.sum(int_t * y, axis=-1)
        energy = pair.excited_energy * np.sum(grid.widths * np.square(y), axis=-1)
        err_sq = c0 ** 2 * _MODE_ENERGY_SQ * np.sum(int_t2, axis=-1) - 2.0 * c0 * cross + energy
        errors = np.sqrt(np.maximum(err_sq, 0.0))
    errors[~np.isfinite(errors)] = math.nan
    return errors


def semidiscrete_reference(coeffs, disc: Discretization, omega: float,
                           refinement: int = 16) -> tuple:
    """Surrogate for the spatially semidiscrete solution.

    Runs the same scheme on the time grid refined by the given factor
    and returns (solution, refined discretization). The result is a
    surrogate, exact in space but still carrying a small temporal error
    of order k / refinement.
    """
    if refinement < 16:
        raise ValueError("refinement factor must be at least 16")
    nodes = disc.grid.nodes
    # row i holds the refined nodes of interval i, as np.linspace spaces them
    step = disc.grid.widths / refinement
    fine = nodes[:-1, None] + np.arange(refinement + 1) * step[:, None]
    fine[:, -1] = nodes[1:]
    fine_disc = Discretization(pair=disc.pair, grid=TimeGrid(np.append(nodes[0], fine[:, 1:])))
    return solve_pathwise(coeffs, fine_disc, omega), fine_disc


def dense_infsup(bilinear: np.ndarray, gram_trial: np.ndarray,
                 gram_test: np.ndarray) -> tuple:
    """Inf-sup and continuity constants of dense matrices, the oracle of
    constants.discrete_infsup.

    The smallest and largest singular values of L_test^-1 B L_trial^-T by
    np.linalg.cholesky, np.linalg.solve and a dense SVD: floats for one
    system (the tests' whole space-time systems), arrays for a stack.
    Mismatched sizes fail in numpy's solve, with its ValueError.
    """
    factors = []
    for gram, name in ((gram_test, "test"), (gram_trial, "trial")):
        try:
            factors.append(np.linalg.cholesky(np.asarray(gram, dtype=float)))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"{name} gram matrix is not positive definite") from exc
    # L_test^-1 B L_trial^-T has the same singular values as the
    # symmetric-root sandwich
    mat = np.linalg.solve(factors[0], bilinear)
    mat = np.swapaxes(np.linalg.solve(factors[1], np.swapaxes(mat, -1, -2)), -1, -2)
    sig = np.linalg.svd(mat, compute_uv=False)
    return sig[..., -1], sig[..., 0]


def _prolongation_1d(coarse: Mesh, fine: Mesh) -> np.ndarray:
    ratio = fine.n_cells // coarse.n_cells
    if ratio * coarse.n_cells != fine.n_cells:
        raise ValueError("meshes are not nested")
    h_c = coarse.h
    fine_nodes = np.arange(1, fine.n_cells) * fine.h
    coarse_nodes = np.arange(1, coarse.n_cells) * h_c
    return np.clip(1.0 - np.abs(fine_nodes[:, None] - coarse_nodes) / h_c, 0.0, None)


def projection_stability(coarse: Mesh, fine: Mesh) -> float:
    """Two-grid estimate of the energy-norm bound of the L2 projection.

    The projection onto the coarse space is realized on the fine space
    and its energy operator norm is computed by a generalized
    eigenproblem. The fine space stands in for the full space, so the
    value is a lower bound that stabilizes under refinement.
    """
    # imported here: no CLI path calls this estimate
    from scipy.linalg import eigh

    if coarse.degree != 1 or fine.degree != 1:
        raise NotImplementedError("projection stability is implemented for degree 1")
    if coarse.dim != fine.dim:
        raise ValueError("meshes must share the dimension")
    prol = functools.reduce(np.kron, (_prolongation_1d(coarse, fine),) * coarse.dim)
    fine_pair = assemble(fine)
    mass_c = prol.T @ fine_pair.mass @ prol
    # H-orthogonal projection onto the coarse space, as a fine-space map
    proj = prol @ np.linalg.solve(mass_c, prol.T @ fine_pair.mass)
    quad = proj.T @ fine_pair.stiffness @ proj
    quad = 0.5 * (quad + quad.T)
    lam_max = eigh(quad, fine_pair.stiffness, eigvals_only=True)[-1]
    return float(np.sqrt(lam_max))
