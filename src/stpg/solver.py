"""Space-time Petrov-Galerkin discretization of the parabolic problem.

Trial functions are piecewise constant in time with values in the
spatial space; test functions are continuous and piecewise linear in
time, vanish at the final time, and share the spatial space. For the
operator a * (-Laplacian) the resulting square system is block lower
bidiagonal and the forward solve is a modified Crank-Nicolson sweep.
The operator is a scalar times the fixed stiffness S, so in the
M-orthonormal eigenbasis of (S, M) every step is n_dof scalar
recurrences. The stock forcing reaches one mode
(SpatialPair.excited_mode), and on the uniform grid of [0, 1] its
recurrence has the same gain at every step, so the profiles of a block
of paths (uniform_profile) and their energies (uniform_energy) come in
closed form, with no step loop, and every CLI run takes them so. Their
test oracle is the pathwise solve on any grid (solve_pathwise): a block
forward substitution on the dense M and S, one path at a time, which
needs no eigenbasis.

The module also evaluates the space-time norms attached to the pair:
the trial energy norm, its weighted variant, and the weighted test
norms with and without the interval-mean projection of the test
function. Trial and test spaces are tensor products of a temporal space
with the spatial one, so the dense space-time system and every Gram
matrix is a sum of Kronecker products of N x N temporal factors (the
jump and the interval mean of the test function, the widths) with M, S
and M S^-1 M, or of one banded N x N block per mode in the eigenbasis
(mode_blocks). A solution is a plain (N, n_dof) array holding the value
of the trial function on each of the N time intervals.

Every path solves the stock problem: forcing c0(w) sin(pi t) phi_1 and
a zero initial datum. Its time profile gives each grid its exact time
weights (TimeGrid.weights), its spatial mode gives the pair its load vector
(SpatialPair.mode_vector), so the data of a path are its coefficient
object alone: any object with scalar methods a(w) and c0(w).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fem import SpatialPair, _frozen, interval_gauss

class PathwiseSolveError(RuntimeError):
    """A single-parameter solve failed for a controlled reason.

    Raised when the diffusion value is non-finite or not positive, the
    forcing amplitude is non-finite, or a time step yields non-finite
    values. Parameter sweeps catch this and record a flagged value
    instead of aborting the whole sweep.
    """


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Partition 0 = t_0 < t_1 < ... < t_N = T of the time interval.

    What depends on the nodes alone, the widths, the time weights and
    the Gauss points of the exact-error oracle with their trig values,
    is computed on first use, once per grid, and kept read-only.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise ValueError("need at least two time nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("time nodes must be finite")
        if nodes[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("time nodes must be strictly increasing")

    @classmethod
    def uniform(cls, final_time: float, n_intervals: int) -> "TimeGrid":
        if n_intervals < 1:
            raise ValueError("need at least one time interval")
        return cls(np.linspace(0.0, final_time, n_intervals + 1))

    @property
    def final_time(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_intervals(self) -> int:
        return len(self.nodes) - 1

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """Interval widths t_j - t_{j-1}, computed once; read-only."""
        return _frozen(np.diff(self.nodes))

    @property
    def k_max(self) -> float:
        return float(np.max(self.widths))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """time_weights of the grid, computed once and shared by every path; read-only."""
        return _frozen(time_weights(self))

    @functools.cached_property
    def profile_quadrature(self) -> tuple:
        """(t, w, sin(pi t), pi cos(pi t)) at the 5-point Gauss points t,
        weights w of interval_gauss on every interval, all (5, N), point i
        of every interval in row i: the time integrals of the exact mode
        profile (oracle.exact_error and oracle.block_errors) read them and
        reduce over the leading axis, computed once and shared by every
        path; read-only.
        """
        t, w = (np.ascontiguousarray(q.T) for q in interval_gauss(self.nodes, 5))
        trig = np.pi * t
        sin_pt = np.sin(trig)
        np.cos(trig, out=trig)
        trig *= np.pi
        return tuple(map(_frozen, (t, w, sin_pt, trig)))


def uniform_k_max(n_intervals: int) -> float:
    """TimeGrid.uniform(1.0, n_intervals).k_max, bit for bit, with no grid:
    the widths of numpy.linspace's nodes j / n, np.getbufsize() at a time,
    and the last one 1 - (n - 1) / n, whose node is the exact 1. Holds two
    blocks of values at most."""
    if n_intervals < 1:
        raise ValueError("need at least one time interval")
    step = 1.0 / n_intervals
    widest = 1.0 - (n_intervals - 1) * step
    block = np.getbufsize()
    for j in range(0, n_intervals - 1, block):
        nodes = np.arange(j, min(j + block, n_intervals - 1) + 1, dtype=float)
        nodes *= step
        widest = max(widest, float((nodes[1:] - nodes[:-1]).max()))
    return widest


@dataclass(frozen=True, eq=False)
class Discretization:
    """Spatial pair and time grid making up one space-time discretization."""

    pair: SpatialPair
    grid: TimeGrid

    @property
    def n_dof(self) -> int:
        return self.pair.n_dof

    @property
    def trial_size(self) -> int:
        return self.grid.n_intervals * self.n_dof

    @property
    def test_size(self) -> int:
        # continuous piecewise linears vanishing at T: one block per node
        # t_0..t_{N-1}
        return self.grid.n_intervals * self.n_dof


def _check_a(a: float) -> float:
    a = float(a)
    if not math.isfinite(a):
        raise PathwiseSolveError(f"diffusion value is not finite: {a}")
    if a <= 0.0:
        raise PathwiseSolveError(f"diffusion value must be positive: {a}")
    return a


def _hat_integrals(nodes: np.ndarray) -> tuple:
    """Integrals of sin(pi t) against the falling and the rising temporal hat
    of each interval between consecutive nodes, (left, right).

    Exact: with the interval's midpoint m and phi = pi k / 2,

        left + right = 2 sin(pi m) sin(phi) / pi
        right - left = 2 cos(pi m) (sin(phi) - phi cos(phi)) / (pi phi)

    where (sin(phi) - phi cos(phi)) / phi is summed from its Taylor series
    below phi = 0.1, clear of the cancellation of its two terms. Formed in
    place: besides the nodes, at most three arrays of one value per
    interval are alive at once, the two results included.
    """
    phi = np.diff(nodes)
    phi *= 0.5 * np.pi
    odd = np.cos(phi)
    odd *= phi
    np.subtract(np.sin(phi), odd, out=odd)
    odd /= phi
    # sum over n >= 1 of (-1)^(n+1) 2n phi^(2n) / (2n + 1)!, to n = 6, by Horner
    work = np.square(phi)
    work /= 518918400
    for n in (3991680, 45360, 840, 30, 3):
        np.subtract(1 / n, work, out=work)
        work *= phi
        work *= phi
    np.copyto(odd, work, where=phi < 0.1)
    np.sin(phi, out=phi)
    # times cos(pi m) and sin(pi m), pi m formed in work for each
    for part, trig in ((odd, np.cos), (phi, np.sin)):
        np.add(nodes[:-1], nodes[1:], out=work)
        work *= 0.5 * np.pi
        part *= trig(work, out=work)
    phi /= np.pi
    odd /= np.pi
    # left = phi - odd, right = phi + odd
    phi -= odd
    odd *= 2.0
    odd += phi
    return phi, odd


def time_weights(grid: TimeGrid) -> np.ndarray:
    """Integrals of sin(pi t) against the temporal test hats at nodes t_0..t_{N-1}.

    Exact on every grid: the hat at t_j collects the falling half of
    interval j and the rising half of interval j - 1 (_hat_integrals).
    """
    left, right = _hat_integrals(grid.nodes)
    # the hat at t_N is not a test function
    left[1:] += right[:-1]
    return left


def assemble_load(coeffs, disc: Discretization, omega: float) -> np.ndarray:
    """Load vector of the space-time system for one parameter value.

    Block j collects c0(w) * integral(sin(pi t) * hat_j) * b.
    """
    c0 = float(coeffs.c0(omega))
    return np.kron(disc.grid.weights, c0 * disc.pair.mode_vector)


def _uniform_terms(n_steps: int, a, lam: float) -> tuple:
    """(tw0, c, theta, sigma, x, u, v, g, mod) of uniform_energy for the
    diffusion values a and the eigenvalue lam. An x that underflows (a
    tiny a) is raised to the least normal float, where the closed forms
    take their undamped x -> 0 limit, as the loop does, instead of 0 / 0.
    Where x = k (a / 2) lam overflows (a near the float maximum), none of
    v, u and g is formed through x: v = 1 / (1 + x) is 1 / x, formed as
    (1 / lam) / (k (a / 2)), and u = x v = 1 - v and g = (1 - x) v = 2 v - 1
    round to 1 and -1.
    """
    k = 1.0 / n_steps
    theta = np.pi * k
    sigma = np.sin(0.5 * theta) ** 2
    half = k * (0.5 * np.asarray(a, dtype=float))
    x = np.maximum(half * lam, np.finfo(float).tiny)
    v = 1.0 / (1.0 + x)
    u, g = x * v, (1.0 - x) * v
    huge = np.isinf(x)
    if huge.any():
        # the quotient overflows where half is small, in entries not taken
        with np.errstate(divide="ignore", over="ignore"):
            v = np.where(huge, 1.0 / lam / half, v)
        u = np.where(huge, 1.0, u)
        g = np.where(huge, -1.0, g)
    return (_hat_integrals(np.array([0.0, k]))[0][0], 4.0 * sigma / (np.pi ** 2 * k), theta,
            sigma, x, u, v, g, 4.0 * (u * u * (1.0 - sigma) + v * v * sigma))


def uniform_energy(pair: SpatialPair, n_steps: int, a, c0) -> np.ndarray:
    """Squared trial energy norms of P paths on the uniform grid of [0, 1].

    The value k sum_j lam_1 y_j^2 of each path's profile y on the pair's
    excited mode, the only one its forcing reaches, in closed form: no
    step loop and nothing of size N. a and c0 hold the P diffusion values,
    each finite and positive, and the P finite forcing amplitudes; a path
    whose energy overflows gets inf.

    With k = 1 / N and theta = pi k the time weights are tw_0 and
    tw_j = C sin(j theta) for j >= 1, C = 4 sin^2(theta / 2) / (pi^2 k).
    With x = a lam_1 k / 2 and g = (1 - x) / (1 + x) at every step, the
    step recurrence on the mode, y_j = g y_{j-1} + s sin(j theta),
    s = c0 C beta_1 / (1 + x), has the exact solution

        y_j = Im(Q e^{ij theta}) + h g^j,  Q = s / (1 - g e^{-i theta}),
        h = y_0 - Im Q,  y_0 = c0 tw_0 beta_1 / (1 + x).

    For N >= 2 the sum of e^{2ij theta} vanishes, and so does the cross
    term, since Q / (1 - g e^{i theta}) = s / |1 - g e^{-i theta}|^2 is real:

        sum_j y_j^2 = N |Q|^2 / 2 + h^2 (1 - g^{2N}) / (1 - g^2)

    For N = 1 the sum is y_0^2. Every factor is formed without
    cancellation: with u = x / (1 + x), v = 1 / (1 + x) and
    sigma = sin^2(theta / 2), mod = |1 - g e^{-i theta}|^2 = 4 (u^2 (1 - sigma)
    + v^2 sigma), (1 + x) h = c0 beta_1 (tw_0 + C g sin(theta) / mod) and
    h^2 / (1 - g^2) = ((1 + x) h)^2 / (4x), with log|g| =
    log1p(-2 min(u, v)) and 1 - g^{2N} = -expm1(2N log|g|).
    """
    lam, beta = pair.excited_mode
    tw0, c, theta, _, x, u, v, g, mod = _uniform_terms(n_steps, a, lam)
    c0 = np.asarray(c0, dtype=float)
    # the sums below are per unit (c0 beta_1)^2
    scale = lam * beta ** 2 * np.square(c0) / n_steps
    if n_steps == 1:
        energy = scale * np.square(tw0 * v)
    else:
        with np.errstate(divide="ignore"):
            # 1 - g^2N, with g = 0 at x = 1
            decay = -np.expm1(2 * n_steps * np.log1p(-2.0 * np.minimum(u, v)))
        # ((1 + x) h)^2 (1 - g^2N) / (4x) + N |Q|^2 / 2, with g = (1 - x) v
        total = np.square(tw0 + c * np.sin(theta) * (1.0 - x) * v / mod) * decay / (4.0 * x)
        total += 0.5 * n_steps * np.square(c * v) / mod
        energy = scale * total
    if not np.isfinite(energy).all():
        # c0^2 or x overflowed, or inf * 0: those entries again, c0 inside the
        # squares after the small factors' roots, g and v / u standing for x
        parts = [tw0 * v] if n_steps == 1 else [
            (tw0 + c * np.sin(theta) * g / mod) * np.sqrt(decay) * np.sqrt(v / (4.0 * u)),
            c * v * np.sqrt(0.5 * n_steps / mod)]
        again = lam * beta ** 2 / n_steps * sum(np.square(part * c0) for part in parts)
        energy = np.where(np.isfinite(energy), energy, again)
    return energy


def _path_data(coeffs, omega: float) -> tuple:
    """(a, c0) of one path, or PathwiseSolveError if either cannot be solved."""
    a = _check_a(coeffs.a(omega))
    c0 = float(coeffs.c0(omega))
    if not math.isfinite(c0):
        raise PathwiseSolveError(f"forcing amplitude is not finite: {c0}")
    return a, c0


def uniform_profile(pair: SpatialPair, n_steps: int, a, c0) -> np.ndarray:
    """The (P, N) profiles y of P paths on the uniform grid of [0, 1], whose
    interval values are y_j v_1 (SpatialPair.excited_vector), in the closed
    form of uniform_energy, with no step loop:
    y_j = Re Q sin(j theta) + Im Q cos(j theta) + h g^j, with
    Re Q = 2 s (u (1 - sigma) + v sigma) / mod, Im Q = -s g sin(theta) / mod
    and g^j = exp(j log|g|) with the sign of g. a and c0 are as in
    uniform_energy; a path whose profile overflows gets inf or nan. Each
    path's profile has the bits it has alone.
    """
    lam, beta = pair.excited_mode
    c0 = np.asarray(c0, dtype=float)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tw0, c, theta, sigma, _, u, v, g, mod = _uniform_terms(
            n_steps, np.asarray(a, dtype=float)[:, None], lam)
        y0, s = c0 * tw0 * beta * v, c0 * c * beta * v
        im = -s * g * np.sin(theta) / mod
        # formed in place: y, one more value per path and step and the
        # angles; each step's sine and cosine are taken once, then scaled
        # per path
        angle = np.arange(n_steps, dtype=float)
        power = angle * np.log1p(-2.0 * np.minimum(u, v))
        np.exp(power, out=power)
        power[:, 1::2] *= np.where(g < 0, -1.0, 1.0)
        power *= y0 - im
        angle *= theta
        y = np.sin(angle, out=angle) * (2.0 * s * (u * (1.0 - sigma) + v * sigma) / mod)
        y += power
        # the angles again, where their sines were
        del angle
        angle = np.arange(n_steps, dtype=float)
        angle *= theta
        y += np.multiply(np.cos(angle, out=angle), im, out=power)
    y[:, 0] = y0[:, 0]
    y += 0.0  # +0 where c0 = 0, not a -0 of the trig values' signs
    return y


def path_profile(coeffs, pair: SpatialPair, n_steps: int, omega: float) -> np.ndarray:
    """The (N,) uniform_profile of one parameter value; raises
    PathwiseSolveError as solve_pathwise does."""
    a, c0 = _path_data(coeffs, omega)
    (y,) = uniform_profile(pair, n_steps, [a], [c0])
    if not np.isfinite(y).all():
        raise PathwiseSolveError("non-finite values in time step")
    return y


def solve_pathwise(coeffs, disc: Discretization, omega: float) -> np.ndarray:
    """Solve the space-time system of one parameter value by forward substitution.

    Returns the (N, n_dof) interval values U_1..U_N of the block lower
    bidiagonal system of assemble_full_system, with A = a S and
    k_j = t_j - t_{j-1}:

        (M + (k_1/2) A) U_1         = F_0
        (M + (k_{j+1}/2) A) U_{j+1} = (M - (k_j/2) A) U_j + F_j

    with F_j = c0 tw_j b, on the dense M and S and no eigenbasis: the
    oracle of uniform_profile and uniform_energy. Each distinct width has
    its two step matrices and the inverse of the implicit one formed
    once; each step applies the inverse and one residual refinement. The
    unit load is solved and the values scaled by c0 last, so a c0 near
    the float range overflows only where the values do.
    """
    a, c0 = _path_data(coeffs, omega)
    pair, grid = disc.pair, disc.grid
    widths, index = np.unique(grid.widths, return_inverse=True)
    steps = []
    for k in widths:
        scaled = (0.5 * a * k) * pair.stiffness
        implicit = pair.mass + scaled
        steps.append((implicit, np.linalg.inv(implicit), pair.mass - scaled))
    loads = np.multiply.outer(grid.weights, pair.mode_vector)
    rows = []
    u = np.zeros(disc.n_dof)
    explicit = steps[index[0]][2]  # meets the zero initial value
    # overflow is caught by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for load, i in zip(loads, index):
            implicit, inverse, next_explicit = steps[i]
            rhs = load + explicit @ u
            u = inverse @ rhs
            u += inverse @ (rhs - implicit @ u)
            rows.append(u)
            explicit = next_explicit
        values = c0 * np.array(rows)
    if not np.isfinite(values).all():
        raise PathwiseSolveError("non-finite values in time step")
    return values


def _temporal_factors(grid: TimeGrid) -> tuple:
    """Jump D and interval mean A of the temporal test functions.

    Both are N x N: they map the nodal values at t_0..t_{N-1} (the value
    at T is the zero of the test space) to the N intervals, so row j of
    D x is x_{j+1} - x_j and row j of A x is (x_j + x_{j+1}) / 2.
    """
    eye = np.eye(grid.n_intervals)
    upper = np.eye(grid.n_intervals, k=1)
    return upper - eye, 0.5 * (eye + upper)


def mode_blocks(grid: TimeGrid, mu) -> tuple:
    """Bands of the N x N blocks of P modes, for mu = a lam.

    In the eigenbasis of (S, M) the blocks of assemble_full_system and of
    the ``Y_omega`` and ``X_omega_hk`` Grams are, with the jump D and the
    interval mean A of _temporal_factors and K = diag(widths),
    B = mu A'K - D', G_Y = mu K and G_X = D'K^-1 D / mu + mu A'KA + e_0 e_0'.
    B is lower bidiagonal, G_Y diagonal and G_X symmetric tridiagonal, so
    they come as (bilinear, gram_trial, gram_test): B and G_X in lower
    band storage, (P, 2, N) arrays whose [:, 0] holds the diagonal and
    [:, 1, :-1] the first subdiagonal ([:, 1, -1] is 0), and G_Y as its
    (P, N) diagonal. Every entry has the bits of the dense formula's.
    They satisfy G_X = B G_Y^-1 B', which infsup reports as its exact 1;
    the tests' SVD oracles (constants.discrete_infsup) read them.
    """
    mu = np.asarray(mu, dtype=float)[:, None]
    k = grid.widths
    # the bands of D'K^-1 D and A'KA: each entry of the dense products is
    # at most two exact terms, 1 / k_j or k_j / 4
    inv, quarter = 1.0 / k, 0.25 * k
    dual, energy = inv.copy(), quarter.copy()
    dual[1:] += inv[:-1]
    energy[1:] += quarter[:-1]
    bilinear = np.zeros((len(mu), 2, len(k)))
    gram_test = np.zeros_like(bilinear)
    half = mu * (0.5 * k)
    bilinear[:, 0] = half + 1.0
    bilinear[:, 1, :-1] = half[:, :-1] - 1.0
    gram_test[:, 0] = dual / mu + mu * energy
    gram_test[:, 0, 0] += 1.0
    gram_test[:, 1, :-1] = -inv[:-1] / mu + mu * quarter[:-1]
    return bilinear, mu * k, gram_test


def assemble_full_system(disc: Discretization, a: float) -> np.ndarray:
    """Dense matrix of the space-time bilinear form for diffusion value a.

    Rows follow the temporal test nodes t_0..t_{N-1}, columns the trial
    intervals I_1..I_N. With the jump D, the interval mean A and the
    widths k the matrix is -D' (x) M + (A' diag k) (x) a S: lower block
    bidiagonal, with blocks M + (k_{j+1}/2) a S on the diagonal and
    -M + (k_j/2) a S below.
    """
    a = _check_a(a)
    pair = disc.pair
    jump, mean = _temporal_factors(disc.grid)
    return (np.kron(-jump.T, pair.mass)
            + np.kron(mean.T * disc.grid.widths, a * pair.stiffness))


_GRAM_KINDS = ("Y", "Y_omega", "X_omega_hk", "X_omega", "X")


def build_grams(disc: Discretization, a: float, kind: str) -> np.ndarray:
    """Gram matrix of one of the space-time norms.

    kind selects the norm evaluated as coeffs' G coeffs; with the widths
    k, the jump D, the interval mean A and the dual Gram M S^-1 M:

    * ``Y``          trial energy norm, diag(k) (x) S
    * ``Y_omega``    weighted trial norm, a times the above
    * ``X_omega_hk`` weighted test norm with interval means of the test
      function in the energy term and the discrete dual norm on the
      time derivative: D' diag(1/(a k)) D (x) M S^-1 M
      + A' diag(a k) A (x) S + e_0 e_0' (x) M
    * ``X_omega``    same but with the full test function in the energy
      term, which adds D' diag(a k / 12) D (x) S, since the integral of
      a linear function squared is k (mean^2 + jump^2 / 12)
    * ``X``          unweighted variant of ``X_omega`` (a := 1)

    Test-space matrices act on nodal values at t_0..t_{N-1}; the value
    at the final time is the built-in zero of the test space.
    """
    if kind not in _GRAM_KINDS:
        raise ValueError(f"unknown gram kind {kind!r}")
    if kind != "X":
        a = _check_a(a)
    pair = disc.pair
    k = disc.grid.widths
    if kind in ("Y", "Y_omega"):
        weight = 1.0 if kind == "Y" else a
        return np.kron(np.diag(weight * k), pair.stiffness)

    a_eff = 1.0 if kind == "X" else a
    jump, mean = _temporal_factors(disc.grid)
    ak = a_eff * k[:, None]
    energy = mean.T @ (ak * mean)
    if kind != "X_omega_hk":
        energy += jump.T @ (ak / 12.0 * jump)
    dual = pair.mass @ np.linalg.solve(pair.stiffness, pair.mass)
    gram = np.kron(jump.T @ (jump / ak), dual) + np.kron(energy, pair.stiffness)
    gram[:disc.n_dof, :disc.n_dof] += pair.mass
    return gram


def trial_energy_norm(solution: np.ndarray, disc: Discretization) -> float:
    """Space-time energy norm sqrt(sum_i k_i |U_i|_V^2).

    Direct evaluation of the block-diagonal trial Gram on the (N, n_dof)
    interval values, cheap enough for parameter sweeps.
    """
    values = np.asarray(solution, dtype=float)
    total = float(np.sum(disc.grid.widths
                         * np.sum((values @ disc.pair.stiffness) * values, axis=1)))
    return float(np.sqrt(max(total, 0.0)))


def forcing_dual_norm_sq(coeffs, disc: Discretization, omega: float) -> float:
    """Squared discrete dual norm of the forcing over the time interval.

    The spatial profile acts on the discrete space through the load
    vector b, so the squared norm is c0(w)^2 * int sin(pi t)^2 * b' S^-1 b.
    """
    c0 = float(coeffs.c0(omega))
    t, w = interval_gauss(disc.grid.nodes, 4)
    time_part = float(np.sum(w * np.sin(np.pi * t) ** 2))
    b = disc.pair.mode_vector
    return float(c0 ** 2 * time_part * (b @ np.linalg.solve(disc.pair.stiffness, b)))


def evaluate_norm(solution, gram: np.ndarray) -> float:
    """Norm sqrt(c' G c) of a solution array or flat coefficient vector."""
    c = np.asarray(solution, dtype=float).reshape(-1)
    if c.shape[0] != gram.shape[0]:
        raise ValueError(
            f"coefficient length {c.shape[0]} does not match gram size {gram.shape[0]}")
    return float(np.sqrt(max(c @ gram @ c, 0.0)))


def best_approximation(mode, disc: Discretization) -> np.ndarray:
    """Orthogonal projection of a separable exact solution onto the trial space.

    In the trial energy norm the projection factorizes into the
    energy-orthogonal spatial projection of the mode and interval means
    of the temporal profile. mode provides c0, lam and time_profile.
    """
    pair = disc.pair
    grid = disc.grid
    # (phi_mode, v)_V = lam * (phi_mode, v)_H for the eigenmode
    cross_v = mode.lam * pair.mode_vector
    spatial = np.linalg.solve(pair.stiffness, cross_v)
    t, w = interval_gauss(grid.nodes, 5)
    means = np.sum(w * mode.time_profile(t), axis=1) / grid.widths
    return mode.c0 * means[:, None] * spatial[None, :]
