"""Stability constants of the discretization.

In the weighted norms every mode block of the discrete pair satisfies
G_X = B G_Y^-1 B', so its inf-sup and continuity constants are exactly
1, and the CLI reports that identity with no SVD. discrete_infsup is
the tests' oracle of it: the extreme singular values of the
bilinear-form blocks between inverse Cholesky factors of the trial and
test Gram matrices, which solver.mode_blocks hands over as bands: a
diagonal trial Gram, a tridiagonal test Gram and a bidiagonal bilinear
form. Their factors are a square root and a bidiagonal recurrence, no
dense factorization or solve, and the SVD runs once per block; the
dense path for whole space-time systems is oracle.dense_infsup. The
module also evaluates the CFL constant of the spatial pair, its
diffusion-weighted variant, and the closed-form bounds the constants
are checked against. It runs on numpy alone.
"""

import math

import numpy as np

from .fem import SpatialPair


def discrete_infsup(bilinear: np.ndarray, gram_trial: np.ndarray,
                    gram_test: np.ndarray) -> tuple:
    """Inf-sup and continuity constants of the banded blocks of solver.mode_blocks.

    B and the test Gram come in (..., 2, N) lower band storage, the trial
    Gram as its (..., N) diagonal. Returns the smallest and largest
    singular values of L_test^-1 B L_trial^-T, with the lower Cholesky
    factors L of the Grams, over the leading dimensions, with the bits of
    one call per block. The trial factor is a square root, the test one
    bidiagonal: pivots p_0 = g_00, p_j = g_jj - g_{j,j-1}^2 / p_{j-1},
    l = sqrt(p) and m_j = g_{j,j-1} / l_{j-1}, so row j of L^-1 B is
    (B_j - m_j row j-1) / l_j. A pivot or trial entry that is not positive
    (NaN included) fails the whole stack. B goes into the one (..., N, N)
    stack that the SVD reads.
    """
    bilinear, gram_trial, gram_test = (np.asarray(m, dtype=float)
                                       for m in (bilinear, gram_trial, gram_test))
    *stack, bands, n = bilinear.shape
    if bands != 2 or gram_test.shape != bilinear.shape or gram_trial.shape != (*stack, n):
        raise ValueError("bilinear form and gram matrices have mismatched sizes")
    sub = gram_test[..., 1, :-1]
    pivots = gram_test[..., 0, :].copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, n):
            pivots[..., j] -= sub[..., j - 1] ** 2 / pivots[..., j - 1]
    for values, name in ((pivots, "test"), (gram_trial, "trial")):
        if not np.all(values > 0):
            raise ValueError(f"{name} gram matrix is not positive definite")
    root = np.sqrt(pivots, out=pivots)
    mat = np.zeros((*stack, n, n))
    diag = np.arange(n)
    mat[..., diag, diag] = bilinear[..., 0, :]
    mat[..., diag[1:], diag[:-1]] = bilinear[..., 1, :-1]
    mat /= root[..., None]
    gain = sub / root[..., :-1] / root[..., 1:]
    for j in range(1, n):
        mat[..., j, :] -= gain[..., j - 1, None] * mat[..., j - 1, :]
    mat /= np.sqrt(gram_trial)[..., None, :]
    sig = np.linalg.svd(mat, compute_uv=False)
    return sig[..., -1], sig[..., 0]


def cfl_constant(pair: SpatialPair, k: float) -> float:
    """CFL constant k * sup ||v||_V / ||v||_{V*} over the discrete space.

    The supremum is the square root of the largest eigenvalue of
    S v = mu (M S^-1 M) v. In the M-orthonormal eigenbasis of (S, M),
    S is diag(lam) and M S^-1 M is diag(1 / lam), so mu_max = lam_max^2
    and the constant is k * lam_max (SpatialPair.max_eigenvalue).
    """
    if k <= 0:
        raise ValueError("time step must be positive")
    return float(k * pair.max_eigenvalue)


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


def theoretical_constants(a_min: float, a_max: float) -> tuple:
    """Closed-form (inf-sup, continuity) bounds (c_b, C_b) in the unweighted norms.

    For coercivity a_min and boundedness a_max with ratio
    rho = a_max / a_min:

        continuity  <= sqrt(2) * max(1, a_max)
        inf-sup     >= min(a_min, 1 / rho) / sqrt(2)
    """
    if not (0 < a_min <= a_max) or not math.isfinite(a_max):
        raise ValueError("need 0 < a_min <= a_max < inf")
    rho = a_max / a_min
    return min(a_min, 1.0 / rho) / math.sqrt(2.0), math.sqrt(2.0) * max(1.0, a_max)


def quasi_opt_ratio(err: float, best_err: float) -> float:
    """Ratio of the solver error to the best-approximation error."""
    if err < 0 or best_err < 0:
        raise ValueError("errors must be nonnegative")
    if best_err == 0:
        if err > 0:
            raise ValueError("positive error with zero best approximation error")
        return 1.0
    return float(err / best_err)
