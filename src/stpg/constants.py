"""Numerical evaluation of the stability constants of the discretization.

Inf-sup and continuity constants are computed as extreme singular
values of the bilinear-form matrix sandwiched between inverse Cholesky
factors of the trial and test Gram matrices; the CLI takes the extremes
over one stack of N x N blocks, one per eigenmode (``solver.mode_blocks``),
with the dense system of the full pair as the test oracle. The blocks'
diagonal trial and tridiagonal test Grams are factored by their
structure, read off their entries: a square root and a bidiagonal
recurrence, no dense factorization or solve. The module also
evaluates the CFL constant of the spatial pair, its diffusion-weighted
variant, a two-grid estimate of the dual-norm equivalence constant of
the orthogonal projection, and the closed-form bounds the constants
are checked against.

Everything the CLI calls runs on numpy alone; ``projection_stability``,
a test-side estimate, loads ``scipy.linalg.eigh`` when called.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fem import Mesh, SpatialPair, assemble

__all__ = [
    "ConstantsReport",
    "discrete_infsup",
    "cfl_constant",
    "cfl_omega",
    "weighted_cfl",
    "projection_stability",
    "cfl_adjusted_infsup_bound",
    "theoretical_constants",
    "quasi_opt_ratio",
]

@dataclass
class ConstantsReport:
    """Closed-form constants for one coefficient range."""

    c_b_bound: float
    C_b_bound: float


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray, name: str, band: int) -> np.ndarray:
    """L^-1 rhs for the lower Cholesky factor L of a Gram, gram = L L'.

    A Gram whose lower triangle has at most band (0 or 1) subdiagonals is
    factored by the bidiagonal recurrence, vectorised across the stack:
    pivots p_0 = g_00, p_j = g_jj - g_{j,j-1}^2 / p_{j-1}, then l = sqrt(p)
    on the diagonal of L and m_j = g_{j,j-1} / l_{j-1} below it, so row j
    of L^-1 rhs is (rhs_j - m_j row j-1) / l_j; with band 0 that is one
    scaling of the rows. Any other Gram goes through np.linalg.cholesky
    and np.linalg.solve, the dense path the structured one is checked
    against. Either way the factor reads the lower triangle alone, and a
    pivot that is not positive (NaN included) fails the whole stack. The
    structured path overwrites rhs with the result, the dense path
    returns a new array.
    """
    # a masked reduction: its temporaries take one byte per entry, an
    # eighth of the stack
    if np.any(gram, where=np.tri(gram.shape[-1], k=-band - 1, dtype=bool)):
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"{name} gram matrix is not positive definite") from exc
        return np.linalg.solve(factor, rhs)
    pivots = np.diagonal(gram, axis1=-2, axis2=-1).copy()
    sub = np.diagonal(gram, offset=-1, axis1=-2, axis2=-1)
    if band:
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(1, pivots.shape[-1]):
                pivots[..., j] -= sub[..., j - 1] ** 2 / pivots[..., j - 1]
    if not np.all(pivots > 0):
        raise ValueError(f"{name} gram matrix is not positive definite")
    root = np.sqrt(pivots, out=pivots)
    rhs /= root[..., None]
    if band:
        gain = sub / root[..., :-1] / root[..., 1:]
        for j in range(1, root.shape[-1]):
            rhs[..., j, :] -= gain[..., j - 1, None] * rhs[..., j - 1, :]
    return rhs


def discrete_infsup(bilinear: np.ndarray, gram_trial: np.ndarray,
                    gram_test: np.ndarray) -> tuple:
    """Inf-sup and continuity constants in the chosen norms.

    Returns the smallest and largest singular values of
    L_test^-1 B L_trial^-T, with the lower Cholesky factors L of the
    Grams, by a dense SVD: floats for one system (the tests' whole
    space-time systems), arrays over the leading dimensions for a stack
    (the CLI's mode blocks), with the bits of one call per matrix when
    the matrices of the stack share their structure.

    The factors follow the structure of the Grams' entries. A diagonal
    trial Gram (mu K of the mode blocks) makes the trial side one column
    scaling of B by its square root; a tridiagonal test Gram makes the
    test side a forward substitution with its bidiagonal factor, one row
    at a time across the stack and the columns. Any other Gram takes the
    dense Cholesky factor and solve.
    """
    bilinear = np.asarray(bilinear, dtype=float)
    *stack, rows, cols = bilinear.shape
    if (np.shape(gram_test) != (*stack, rows, rows)
            or np.shape(gram_trial) != (*stack, cols, cols)):
        raise ValueError("bilinear form and gram matrices have mismatched sizes")
    # L_test^-1 B L_trial^-T has the same singular values as the
    # symmetric-root sandwich; the trial side may overwrite L_test^-1 B
    mat = _cholesky_solve(np.asarray(gram_test, dtype=float), bilinear.copy(), "test", 1)
    mat = np.swapaxes(_cholesky_solve(np.asarray(gram_trial, dtype=float),
                                      np.swapaxes(mat, -1, -2), "trial", 0), -1, -2)
    sig = np.linalg.svd(mat, compute_uv=False)
    return sig[..., -1], sig[..., 0]


def cfl_constant(pair: SpatialPair, k: float) -> float:
    """CFL constant k * sup ||v||_V / ||v||_{V*} over the discrete space.

    The supremum is the square root of the largest eigenvalue of
    S v = mu (M S^-1 M) v. In the M-orthonormal eigenbasis of (S, M),
    S is diag(lam) and M S^-1 M is diag(1 / lam), so mu_max = lam_max^2
    and the constant is k * lam_max.
    """
    if k <= 0:
        raise ValueError("time step must be positive")
    return float(k * np.max(pair.eigenvalues))


def cfl_omega(pair: SpatialPair, k: float, omega: float, coeffs) -> float:
    """Diffusion-weighted CFL constant for one parameter value.

    c^2 = (k^2 / 12) * a(w)^2 * lambda_max(S, M S^-1 M); for the scalar
    diffusion operator the weighted ratio collapses to a(w)^2 times the
    unweighted one.
    """
    a = float(coeffs.a(omega))
    if not (a > 0) or not math.isfinite(a):
        raise ValueError(f"diffusion value must be positive and finite, got {a}")
    return weighted_cfl(a, cfl_constant(pair, k))


def weighted_cfl(a: float, c_s: float) -> float:
    """Diffusion-weighted CFL constant a * c_S / sqrt(12) from the unweighted c_S.

    The formula of cfl_omega, for callers that hold c_S for a whole grid
    and need the weighted constant of many diffusion values.
    """
    return float(a * c_s / math.sqrt(12.0))


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


def cfl_adjusted_infsup_bound(a: float, c_s: float) -> float:
    """Lower bound on the unweighted inf-sup constant of the discrete pair.

    The weighted constants equal one exactly, and translating the
    weighted norms back into the unweighted ones costs the norm
    equivalence factors, giving

        sigma_min >= sqrt(a) / sqrt(max(1, a (1 + c_S^2 / 12), 1 / a))

    for the scalar diffusion family. Unlike the continuous-space
    bound, this one degrades with the CFL constant; the continuous
    bound is only recovered in the time-resolved regime.
    """
    if a <= 0 or c_s < 0:
        raise ValueError("need a > 0 and c_s >= 0")
    return math.sqrt(a) / math.sqrt(max(1.0, a * (1.0 + c_s ** 2 / 12.0), 1.0 / a))


def theoretical_constants(a_min: float, a_max: float) -> ConstantsReport:
    """Closed-form continuity and inf-sup bounds in the unweighted norms.

    For coercivity a_min and boundedness a_max with ratio
    rho = a_max / a_min:

        continuity  <= sqrt(2) * max(1, a_max)
        inf-sup     >= min(a_min, 1 / rho) / sqrt(2)
    """
    if not (0 < a_min <= a_max) or not math.isfinite(a_max):
        raise ValueError("need 0 < a_min <= a_max < inf")
    rho = a_max / a_min
    return ConstantsReport(
        c_b_bound=min(a_min, 1.0 / rho) / math.sqrt(2.0),
        C_b_bound=math.sqrt(2.0) * max(1.0, a_max),
    )


def quasi_opt_ratio(err: float, best_err: float) -> float:
    """Ratio of the solver error to the best-approximation error."""
    if err < 0 or best_err < 0:
        raise ValueError("errors must be nonnegative")
    if best_err == 0:
        if err > 0:
            raise ValueError("positive error with zero best approximation error")
        return 1.0
    return float(err / best_err)
