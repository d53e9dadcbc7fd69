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
module also evaluates the CFL constant c_S of the spatial pair, which
infsup reports; its diffusion-weighted variant and the closed-form
bounds are stpg.oracle's. It runs on numpy alone.
"""

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
