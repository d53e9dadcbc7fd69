"""Spatial finite element spaces on the unit interval and unit square.

Provides conforming subspaces of H^1_0 with homogeneous Dirichlet
conditions, their mass and stiffness Gram matrices, the V norm
(stiffness energy) and the discrete dual norm induced by restricting
functionals to the subspace, and the per-interval Gauss rule shared by
every quadrature in the package.

The eigenpairs of (S, M) diagonalize M, S and M S^-1 M. The space in
dim d is the d-fold tensor product of the 1-D one, so a SpatialPair
forms 1-D values only, and the CLI reads from it the largest eigenvalue
and the excited mode's eigenvalue, load and energy; only a solve forms
an array of n_dof values, the mode's vector. Hat functions (degree 1)
have each in closed form, the discrete sine transform: no run of theirs
assembles a matrix but for the convergence energy rho. Quadratic splines
(degree 2) assemble theirs by de Boor's recurrence, and two symmetric
eigh calls give their eigenpairs. The dense mass, stiffness and modes
are Kronecker products of the 1-D factors, formed for the tests' oracles.
"""

import functools
from dataclasses import dataclass

import numpy as np


def _frozen(array: np.ndarray) -> np.ndarray:
    """The array, made read-only."""
    array.flags.writeable = False
    return array


# Gauss-Legendre points and weights on [-1, 1] of the rules the package
# uses, read-only, with the bits of numpy.polynomial.legendre.leggauss, so
# that no run imports numpy.polynomial (1.8 MB resident with one leggauss)
_GAUSS = {n: tuple(_frozen(np.array(part)) for part in rule) for n, rule in {
    3: ((-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555557, 0.8888888888888888, 0.5555555555555557)),
    4: ((-0.8611363115940526, -0.33998104358485626, 0.33998104358485626,
         0.8611363115940526),
        (0.34785484513745357, 0.6521451548625464, 0.6521451548625464,
         0.34785484513745357)),
    5: ((-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831,
         0.906179845938664),
        (0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
         0.4786286704993663, 0.23692688505618928)),
}.items()}


def interval_gauss(nodes, n_points: int) -> tuple:
    """Gauss-Legendre points and weights on every interval of a partition.

    Returns (points, weights), both of shape (N, n_points) for the N
    intervals [nodes[i], nodes[i+1]]; the weights carry the Jacobian of
    the map from [-1, 1].
    """
    nodes = np.asarray(nodes, dtype=float)
    gx, gw = _GAUSS[n_points]
    left, right = nodes[:-1, None], nodes[1:, None]
    half = 0.5 * (right - left)
    return 0.5 * (left + right) + half * gx, half * gw


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of the unit interval (dim 1) or unit square (dim 2).

    degree 1 uses continuous piecewise-linear hat functions, degree 2
    uses quadratic B-splines on a clamped uniform knot vector with the
    first and last spline removed. All basis functions vanish on the
    boundary; dofs are ordered lexicographically.
    """

    dim: int
    n_cells: int
    degree: int

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_dof_1d(self) -> int:
        return self.n_cells - 1 if self.degree == 1 else self.n_cells

    @property
    def n_dof(self) -> int:
        return self.n_dof_1d ** self.dim

    def knots(self) -> np.ndarray:
        """Clamped knot vector of the quadratic spline space."""
        if self.degree != 2:
            raise ValueError("knot vector only defined for degree 2")
        interior = np.arange(1, self.n_cells) * self.h
        return np.concatenate(([0.0] * 3, interior, [1.0] * 3))


def _eigh_values(n: int) -> int:
    """Values numpy.linalg.eigh holds in LAPACK's memory, outside numpy
    arrays, for an n x n matrix and its eigenvectors: its column-major
    copy of the matrix and the eigenvalues, and the dsyevd workspaces of
    1 + 6n + 2n^2 floats and 3 + 5n integers (counted as 8 bytes each).
    """
    return n * n + n + (1 + 6 * n + 2 * n * n) + (3 + 5 * n)


def pair_values(mesh: Mesh, eigenvalues_only: bool = False) -> int:
    """Values the spatial pair of a mesh holds at peak while a moments,
    solve or infsup run reads it: for hat functions 3 per 1-D dof, the
    mode's first sine while its load and then the eigenvalues are formed
    in place, two vectors each, or 2 where the run reads the eigenvalues
    alone (eigenvalues_only, infsup); for splines their n_dof_1d x
    n_dof_1d mass and stiffness, 4 more such matrices while the
    eigenvectors are formed, LAPACK's memory of the second eigh call
    (_eigh_values), which tracemalloc does not see but resident memory
    does, and numpy's buffers of two broadcast operands.
    """
    n = mesh.n_dof_1d
    if mesh.degree == 1:
        return (2 if eigenvalues_only else 3) * n
    return 6 * n * n + _eigh_values(n) + 2 * min(n * n, np.getbufsize())


@dataclass(eq=False)
class SpatialPair:
    """Mass and stiffness of a mesh, kept as the 1-D pair they come from.

    mass[i, j]      = integral of phi_i * phi_j
    stiffness[i, j] = integral of grad(phi_i) . grad(phi_j)

    The basis in dim d is the d-fold tensor product of the 1-D one, so
    each operator is a sum of d-fold Kronecker products of the 1-D pair
    (M, S) and its M-orthonormal eigenvectors V: the mass M (x) ... (x) M,
    the stiffness one term per axis with S there and M elsewhere, the
    eigenvectors V (x) ... (x) V, whose eigenvalues are sums of 1-D ones
    (fast diagonalization; Lynch, Rice and Thomas 1964). Everything is
    derived from the mesh alone, formed on first read and cached; the dense
    mass, stiffness and modes multiply the 1-D factors out, for tests and
    oracles only.
    """

    mesh: Mesh

    @functools.cached_property
    def matrices_1d(self) -> tuple:
        """(M, S) of the 1-D pair, read-only, with exact element integrals:
        closed form for hat functions, whose runs read it for rho alone,
        3-point Gauss per cell for the quartic spline integrands."""
        assemble_1d = _assemble_1d_linear if self.mesh.degree == 1 else _assemble_1d_spline
        return tuple(map(_frozen, assemble_1d(self.mesh)))

    @property
    def n_dof(self) -> int:
        return self.mesh.n_dof

    @functools.cached_property
    def _basis(self) -> tuple:
        """M-orthonormal eigenpairs (lam, V) of the 1-D pair, read-only: for
        hat functions in closed form (all the sines, for the tests' dense
        modes), for splines by a dense symmetric reduction (_spline_modes)."""
        if self.mesh.degree == 2:
            return tuple(map(_frozen, _spline_modes(*self.matrices_1d)))
        return self._eigenvalues_1d, _frozen(_hat_sines(self.mesh.n_cells, self.mesh.n_dof_1d))

    @functools.cached_property
    def _eigenvalues_1d(self) -> np.ndarray:
        """Eigenvalues of the 1-D pair, ascending, read-only: in closed form
        for hat functions, those of _basis (eigh) for splines."""
        if self.mesh.degree == 2:
            return self._basis[0]
        return _frozen(_hat_eigenvalues(self.mesh.n_cells))

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of (S, M) in the order of the modes, sums of the 1-D ones."""
        lam = (self._eigenvalues_1d,) * self.mesh.dim
        return _frozen(functools.reduce(np.add.outer, lam).ravel())

    @functools.cached_property
    def max_eigenvalue(self) -> float:
        """Largest eigenvalue of (S, M), dim times the largest 1-D one, computed
        once: float addition is monotone, so it has the bits of the largest sum."""
        return self.mesh.dim * float(np.max(self._eigenvalues_1d))

    @functools.cached_property
    def modes(self) -> tuple:
        """Dense M-orthonormal eigenpairs (lam, vecs) of the pair, cached read-only.

        S vecs = M vecs diag(lam) and vecs' M vecs = I, with vecs the
        Kronecker product V (x) ... (x) V, formed on first use for tests.
        """
        vecs = functools.reduce(np.kron, (self._basis[1],) * self.mesh.dim)
        return self.eigenvalues, _frozen(vecs)

    @functools.cached_property
    def mass(self) -> np.ndarray:
        """Dense mass matrix M (x) ... (x) M, formed on first use for tests."""
        return functools.reduce(np.kron, (self.matrices_1d[0],) * self.mesh.dim)

    @functools.cached_property
    def stiffness(self) -> np.ndarray:
        """Dense stiffness matrix, one Kronecker product per axis with S there
        and M elsewhere, formed on first use for tests."""
        mass, stiffness = self.matrices_1d
        axes = range(self.mesh.dim)
        terms = ([stiffness if axis == k else mass for axis in axes] for k in axes)
        return sum(functools.reduce(np.kron, term) for term in terms)

    @functools.cached_property
    def mode_vector(self) -> np.ndarray:
        """mode_load_vector of the mesh, computed once; read-only."""
        return _frozen(mode_load_vector(self.mesh))

    @property
    def mode_eigenvalue(self) -> float:
        """Eigenvalue dim pi^2 of the first Dirichlet eigenmode of the domain."""
        return self.mesh.dim * np.pi ** 2

    @functools.cached_property
    def excited_mode(self) -> tuple:
        """(lam_1, beta_1) of the one mode the stock forcing excites, computed
        once: the smallest eigenvalue and the modal load v_1' b, (u' b_1d)^d
        in dim d with the 1-D factor u of v_1 (excited_vector). Every other
        modal load is a rounding error of beta_1, so a path's interval
        values are scalars times v_1."""
        u, dim = self._excited_factor, self.mesh.dim
        beta = float(u @ mode_load_vector(Mesh(1, self.mesh.n_cells, self.mesh.degree))) ** dim
        return dim * float(self._eigenvalues_1d[0]), beta

    @functools.cached_property
    def excited_vector(self) -> np.ndarray:
        """The nodal eigenvector v_1 of excited_mode, computed once, read-only:
        in 2-D the outer product of its 1-D factor with itself, so nodes equal
        by symmetry share their bits."""
        u = (self._excited_factor,) * self.mesh.dim
        return _frozen(functools.reduce(np.multiply.outer, u).ravel())

    @functools.cached_property
    def _excited_factor(self) -> np.ndarray:
        """The 1-D factor u of v_1, read-only: the first sine (basis column 0),
        made bitwise mirror-symmetric and positive as |u + u reversed| / 2."""
        vecs = _hat_sines(self.mesh.n_cells, 1) if self.mesh.degree == 1 else self._basis[1]
        u = vecs[:, 0] + vecs[::-1, 0]
        return _frozen(np.multiply(np.abs(u, out=u), 0.5, out=u))

    @functools.cached_property
    def excited_energy(self) -> float:
        """rho = v_1' S v_1, the squared energy norm of the excited mode,
        computed once from its 1-D factor u as d (u' S u) (u' M u)^(d - 1)
        in dim d: in 1-D the bits of v_1 @ stiffness @ v_1, with no
        n_dof-sized product. It equals lam_1 in exact arithmetic only.
        """
        (mass, stiffness), u, dim = self.matrices_1d, self._excited_factor, self.mesh.dim
        return float(dim * (u @ stiffness @ u) * (u @ mass @ u) ** (dim - 1))


def build_mesh(dim: int, n_cells: int, degree: int) -> Mesh:
    """Create a mesh, validating the supported (dim, degree) range."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if n_cells < 2:
        raise ValueError(f"n_cells must be at least 2, got {n_cells}")
    if dim == 2 and degree == 2:
        raise ValueError("quadratic splines are supported in dim 1 only")
    return Mesh(dim=dim, n_cells=n_cells, degree=degree)


def _assemble_1d_linear(mesh: Mesh):
    # tridiagonal, its three diagonals filled in place
    n, h = mesh.n_dof_1d, mesh.h
    mats = np.zeros((2, n, n))
    for matrix, main, off in zip(mats, (2.0 * h / 3.0, 2.0 / h), (h / 6.0, -1.0 / h)):
        flat = matrix.reshape(-1)
        flat[::n + 1] = main
        flat[1::n + 1] = flat[n::n + 1] = off
    return tuple(mats)


def _hat_eigenvalues(n_cells: int) -> np.ndarray:
    """Eigenvalues of the 1-D hat pair, ascending: lam_k = 12 sin^2(t_k / 2)
    / (h^2 (2 + cos t_k)) with t_k = k pi h, k = 1..n_cells-1; the sin^2
    form avoids the cancellation of 1 - cos t_k for the smooth modes. Formed
    in place, two vectors at most."""
    theta = np.arange(1.0, n_cells) * np.pi / n_cells
    lam = 0.5 * theta
    np.sin(lam, out=lam)
    lam *= lam
    lam *= 12.0
    np.cos(theta, out=theta)
    theta += 2.0
    theta *= (1.0 / n_cells) ** 2
    lam /= theta
    return lam


def _hat_sines(n_cells: int, modes: int) -> np.ndarray:
    """The first modes M-orthonormal eigenvectors of the 1-D hat pair as
    columns, ascending: mode k is the sine sampled at the nodes, V_ik =
    sqrt(6 / (2 + cos t_k)) sin(i t_k). The phase i k is reduced mod
    2 n_cells in integers, so sin sees arguments below 2 pi. Formed in
    place; a column has the same bits whatever the number of columns."""
    k = np.arange(1, modes + 1)
    vecs = (np.multiply.outer(np.arange(1, n_cells), k) % (2 * n_cells)).astype(float)
    vecs *= np.pi
    vecs /= n_cells
    np.sin(vecs, out=vecs)
    vecs *= np.sqrt(6.0 / (2.0 + np.cos(np.pi * k / n_cells)))
    return vecs


def _spline_modes(mass: np.ndarray, stiffness: np.ndarray) -> tuple:
    """M-orthonormal eigenpairs (lam, V) of S V = M V diag(lam), ascending.

    M = Q diag(d) Q' gives R = Q diag(d)^-1/2 with R' M R = I, and the
    standard eigenpairs (lam, W) of R' S R give V = R W. The spline mass
    matrix has condition number below 8, so the scaling by d^-1/2
    amplifies no rounding, and eigh alone does the work: no
    factorization, no solve.
    """
    d, q = np.linalg.eigh(mass)
    r = q / np.sqrt(d)
    lam, w = np.linalg.eigh(r.T @ stiffness @ r)
    return lam, r @ w


def _cell_splines(mesh: Mesh, n_points: int, order: int = 0) -> tuple:
    """Gauss points and weights of every cell, with the splines living there.

    Cell c carries the clamped splines c, c+1 and c+2 (boundary splines
    included). Returns (points, weights, values, index): points and
    weights of shape (n_cells, n_points); values[c, q, a] is the
    derivative of the given order of spline index[c, a] = c + a at
    point q of cell c.

    The values come from de Boor's recurrence (de Boor 1972) on knot
    interval ell = c + 2 of cell c, all cells at once, in the operation
    order of the reference B-spline evaluator of the tests: 2 - order
    value steps, then order derivative steps. The tests hold the two
    equal bit for bit, and the energy-error oracle needs the bits of the
    matrices assembled from them.
    """
    t = mesh.knots()
    x, w = interval_gauss(np.linspace(0.0, 1.0, mesh.n_cells + 1), n_points)
    cell = np.arange(mesh.n_cells)[:, None]
    ell = cell + 2
    h = [1.0]
    for j in (1, 2):
        hh, h = h, [0.0] * (j + 1)
        for n in range(1, j + 1):
            xb, xa = t[ell + n], t[ell + n - j]
            if j <= 2 - order:
                step = hh[n - 1] / (xb - xa)
                h[n - 1] = h[n - 1] + step * (xb - x)
                h[n] = step * (x - xa)
            else:
                step = j * hh[n - 1] / (xb - xa)
                h[n - 1] = h[n - 1] - step
                h[n] = step
    return x, w, np.stack(h, axis=-1), cell + np.arange(3)


def _assemble_1d_spline(mesh: Mesh):
    n_all = mesh.n_cells + 2
    mats = []
    for order in (0, 1):
        # 3-point Gauss is exact for the quartic integrands of the mass matrix
        _, w, vals, index = _cell_splines(mesh, 3, order)
        elem = np.matmul((vals * w[..., None]).transpose(0, 2, 1), vals)
        # add.at sums each entry over its cells in ascending order, as a
        # cell-by-cell assembly does: the energy-error oracle subtracts
        # nearly equal terms, so the last bits of these matrices show in
        # its output
        full = np.zeros((n_all, n_all))
        np.add.at(full, (index[:, :, None], index[:, None, :]), elem)
        # drop the two boundary splines; interior splines keep the
        # standard B-spline normalization
        mats.append(full[1:-1, 1:-1])
    return tuple(mats)


def assemble(mesh: Mesh) -> SpatialPair:
    """The spatial pair of a mesh, which forms each value on its first read."""
    return SpatialPair(mesh)


def v_norm(coeffs: np.ndarray, pair: SpatialPair) -> float:
    """Energy (H^1_0 seminorm) of the function with the given coefficients."""
    v = np.asarray(coeffs, dtype=float)
    return float(np.sqrt(v @ pair.stiffness @ v))


def dual_norm(coeffs: np.ndarray, pair: SpatialPair) -> float:
    """Discrete dual norm sqrt(v' M S^-1 M v).

    This is the norm of the functional w -> (v, w) in H, taken over the
    discrete space equipped with the energy norm.
    """
    v = np.asarray(coeffs, dtype=float)
    if v.shape != (pair.n_dof,):
        raise ValueError(f"expected {pair.n_dof} coefficients, got {v.shape}")
    mv = v @ pair.mass
    return float(np.sqrt(mv @ np.linalg.solve(pair.stiffness, mv)))


def _hat_mode_vector(n_cells: int) -> np.ndarray:
    # integral of sin(pi x) against each hat, closed form, formed in place
    h = 1.0 / n_cells
    load = np.arange(1.0, n_cells)
    load *= h
    load *= np.pi
    np.sin(load, out=load)
    load *= 2.0 * (1.0 - np.cos(np.pi * h)) / (np.pi ** 2 * h)
    return load


def _spline_mode_vector(mesh: Mesh) -> np.ndarray:
    x, w, vals, index = _cell_splines(mesh, 5)
    out = np.zeros(mesh.n_cells + 2)
    np.add.at(out, index, np.sum(w[..., None] * vals * np.sin(np.pi * x)[..., None], axis=1))
    return out[1:-1]


def mode_load_vector(mesh: Mesh) -> np.ndarray:
    """Inner products of the first Dirichlet eigenmode with the basis.

    Returns b with b_i = (phi_mode, phi_i) in L2, where phi_mode is
    sin(pi x) in dim 1 and sin(pi x) sin(pi y) in dim 2.
    """
    if mesh.degree == 1:
        b1 = _hat_mode_vector(mesh.n_cells)
    else:
        b1 = _spline_mode_vector(mesh)
    return functools.reduce(np.kron, (b1,) * mesh.dim)
