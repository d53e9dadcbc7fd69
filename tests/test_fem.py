import functools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import BSpline
from scipy.linalg import eigh

from stpg import fem, solver


def test_mesh_dof_counts():
    assert fem.build_mesh(1, 2, 1).n_dof == 1
    assert fem.build_mesh(2, 4, 1).n_dof == 9
    assert fem.build_mesh(1, 5, 2).n_dof == 5


def test_cell_width_times_count_is_exact():
    for n in (2, 3, 4, 5, 6, 8, 10, 16, 32, 64):
        mesh = fem.build_mesh(1, n, 1)
        assert mesh.h * n == 1.0


def test_quadratic_dof_count_from_basis_enumeration():
    # independent count: clamped quadratic splines on 8 cells that vanish
    # at both endpoints
    mesh = fem.build_mesh(1, 8, 2)
    t = mesh.knots()
    n_all = len(t) - 3
    vanishing = 0
    for j in range(n_all):
        s = BSpline(t, np.eye(n_all)[j], 2)
        if abs(s(0.0)) < 1e-14 and abs(s(1.0)) < 1e-14:
            vanishing += 1
    assert vanishing == 8
    assert mesh.n_dof == 8


@pytest.mark.parametrize("dim,n_cells,degree", [
    (1, 1, 1), (1, 0, 2), (3, 4, 1), (1, 4, 3), (2, 4, 2),
])
def test_build_mesh_rejects_bad_input(dim, n_cells, degree):
    with pytest.raises(ValueError):
        fem.build_mesh(dim, n_cells, degree)


def test_assemble_single_dof():
    pair = fem.assemble(fem.build_mesh(1, 2, 1))
    assert pair.mass[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pair.stiffness[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_assemble_interior_stencils():
    n = 16
    h = 1.0 / n
    pair = fem.assemble(fem.build_mesh(1, n, 1))
    i = 7
    assert pair.mass[i, i] == pytest.approx(4 * h / 6)
    assert pair.mass[i, i + 1] == pytest.approx(h / 6)
    assert pair.stiffness[i, i] == pytest.approx(2 / h)
    assert pair.stiffness[i, i - 1] == pytest.approx(-1 / h)


@pytest.mark.parametrize("degree,n_cells", [(1, 8), (2, 8)])
def test_matrices_symmetric_positive_definite(degree, n_cells):
    pair = fem.assemble(fem.build_mesh(1, n_cells, degree))
    for mat in (pair.mass, pair.stiffness):
        assert np.allclose(mat, mat.T, atol=1e-14)
        assert np.linalg.eigvalsh(mat)[0] > 0


@pytest.mark.parametrize("degree", [1, 2])
def test_interior_row_sums_match_basis_integrals(degree):
    # partition of unity holds away from the boundary, so interior row
    # sums of M equal the basis integral h
    n = 12
    h = 1.0 / n
    pair = fem.assemble(fem.build_mesh(1, n, degree))
    interior = slice(2, pair.n_dof - 2)
    sums = pair.mass.sum(axis=1)[interior]
    assert np.allclose(sums, h, atol=1e-14)


def _assemble_2d_by_cell_quadrature(n_cells):
    """Independent 2D assembly, Gauss quadrature cell by cell."""
    h = 1.0 / n_cells
    n1 = n_cells - 1
    ndof = n1 * n1
    gx, gw = np.polynomial.legendre.leggauss(3)

    def hat_on_cell(c, x):
        # values and slopes of all 1D hats restricted to cell c
        vals = np.zeros((n1, len(x)))
        slopes = np.zeros((n1, len(x)))
        for i in range(1, n_cells):
            node = i * h
            if c == i - 1:       # rising part
                vals[i - 1] = (x - (node - h)) / h
                slopes[i - 1] = 1.0 / h
            elif c == i:         # falling part
                vals[i - 1] = ((node + h) - x) / h
                slopes[i - 1] = -1.0 / h
        return vals, slopes

    mass = np.zeros((ndof, ndof))
    stiff = np.zeros((ndof, ndof))
    for cx in range(n_cells):
        x = (cx + 0.5) * h + 0.5 * h * gx
        vx, sx = hat_on_cell(cx, x)
        for cy in range(n_cells):
            y = (cy + 0.5) * h + 0.5 * h * gx
            vy, sy = hat_on_cell(cy, y)
            wx = 0.5 * h * gw
            wy = 0.5 * h * gw
            for a in range(n1):
                for b in range(n1):
                    ia = a * n1 + b
                    fa = np.outer(vx[a], vy[b])
                    ga_x = np.outer(sx[a], vy[b])
                    ga_y = np.outer(vx[a], sy[b])
                    for c in range(n1):
                        for d in range(n1):
                            ib = c * n1 + d
                            fb = np.outer(vx[c], vy[d])
                            gb_x = np.outer(sx[c], vy[d])
                            gb_y = np.outer(vx[c], sy[d])
                            wgt = np.outer(wx, wy)
                            mass[ia, ib] += np.sum(wgt * fa * fb)
                            stiff[ia, ib] += np.sum(wgt * (ga_x * gb_x + ga_y * gb_y))
    return mass, stiff


@pytest.mark.parametrize("n_cells", [3, 4])
def test_2d_tensorization_matches_direct_quadrature(n_cells):
    pair = fem.assemble(fem.build_mesh(2, n_cells, 1))
    mass_ref, stiff_ref = _assemble_2d_by_cell_quadrature(n_cells)
    assert np.max(np.abs(pair.mass - mass_ref)) < 1e-12
    assert np.max(np.abs(pair.stiffness - stiff_ref)) < 1e-12


def test_dual_norm_zero_and_scalar_case():
    pair = fem.assemble(fem.build_mesh(1, 2, 1))
    assert fem.dual_norm(np.zeros(1), pair) == 0.0
    # M S^-1 M = (1/3)(1/4)(1/3) = 1/36
    assert fem.dual_norm(np.ones(1), pair) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_dual_norm_shape_guard():
    pair = fem.assemble(fem.build_mesh(1, 4, 1))
    with pytest.raises(ValueError):
        fem.dual_norm(np.ones(5), pair)


def test_dual_norm_scaling(rng):
    pair = fem.assemble(fem.build_mesh(1, 8, 1))
    v = rng.standard_normal(pair.n_dof)
    base = fem.dual_norm(v, pair)
    for c in (-3.0, 0.5, 7.25):
        assert fem.dual_norm(c * v, pair) == pytest.approx(abs(c) * base, rel=1e-13)


def test_dual_norm_cauchy_schwarz_and_eigenvector_equality(rng):
    pair = fem.assemble(fem.build_mesh(1, 8, 1))
    for _ in range(50):
        v = rng.standard_normal(pair.n_dof)
        lhs = fem.dual_norm(v, pair) * fem.v_norm(v, pair)
        rhs = float(v @ pair.mass @ v)
        assert lhs >= rhs * (1 - 1e-12)
    # equality exactly at generalized eigenvectors of S v = lam M v
    _, vecs = eigh(pair.stiffness, pair.mass)
    for k in range(pair.n_dof):
        v = vecs[:, k]
        lhs = fem.dual_norm(v, pair) * fem.v_norm(v, pair)
        rhs = float(v @ pair.mass @ v)
        assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("degree", [1, 2])
def test_mode_load_vector_against_quadrature(degree):
    mesh = fem.build_mesh(1, 6, degree)
    pair = fem.assemble(mesh)
    b = fem.mode_load_vector(mesh)
    assert b.shape == (mesh.n_dof,)
    # reconstruct each entry by adaptive quadrature against the basis
    if degree == 1:
        h = mesh.h
        for i in range(mesh.n_dof):
            node = (i + 1) * h

            def hat(x):
                return max(0.0, 1.0 - abs(x - node) / h)

            ref, _ = quad(lambda x: hat(x) * np.sin(np.pi * x),
                          max(node - h, 0), min(node + h, 1), limit=200)
            assert b[i] == pytest.approx(ref, abs=1e-12)
    else:
        t = mesh.knots()
        n_all = len(t) - 3
        for i in range(mesh.n_dof):
            s = BSpline(t, np.eye(n_all)[i + 1], 2)
            ref, _ = quad(lambda x: float(s(x)) * np.sin(np.pi * x), 0, 1, limit=200)
            assert b[i] == pytest.approx(ref, abs=1e-10)


def test_mode_load_vector_2d_is_tensor_product():
    mesh2 = fem.build_mesh(2, 4, 1)
    mesh1 = fem.build_mesh(1, 4, 1)
    b2 = fem.mode_load_vector(mesh2)
    b1 = fem.mode_load_vector(mesh1)
    assert np.allclose(b2, np.kron(b1, b1), atol=1e-15)


def test_interval_gauss_matches_the_per_interval_rule(monkeypatch):
    nodes = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
    points, weights = fem.interval_gauss(nodes, 4)
    assert points.shape == weights.shape == (4, 4)
    gx, gw = np.polynomial.legendre.leggauss(4)
    for i in range(4):
        t0, t1 = nodes[i], nodes[i + 1]
        k = t1 - t0
        assert np.array_equal(points[i], 0.5 * (t0 + t1) + 0.5 * k * gx)
        assert np.array_equal(weights[i], 0.5 * k * gw)
    # exact for degree 2n - 1 on every interval
    exact = (nodes[1:] ** 8 - nodes[:-1] ** 8) / 8.0
    assert np.allclose(np.sum(weights * points ** 7, axis=1), exact, rtol=1e-14)
    # the rule on [-1, 1] is held once per point count, read-only
    assert not any(array.flags.writeable for array in fem._GAUSS[4])
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)
    again = fem.interval_gauss(nodes, 4)
    assert np.array_equal(again[0], points) and np.array_equal(again[1], weights)


@pytest.mark.parametrize("n_points", [3, 4, 5])
def test_package_gauss_rules_are_leggauss_bit_for_bit(n_points):
    # the rules the package uses are literals, and no other size is held
    assert sorted(fem._GAUSS) == [3, 4, 5]
    points, weights = fem._GAUSS[n_points]
    gx, gw = np.polynomial.legendre.leggauss(n_points)
    assert _same_bits(points, gx) and _same_bits(weights, gw)


def test_no_run_imports_numpy_polynomial():
    # every Gauss rule a run uses is held as literals: leggauss's module
    # would add about 0.7 MB traced (1.8 MB resident with one call) to a process
    code = ("import sys, tempfile; from stpg import cli\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    for argv in (['convergence', '--degree', '2', '--j-max', '3'],\n"
            "                 ['convergence', '--j-max', '3'], ['infsup', '--degree', '2'],\n"
            "                 ['moments', '--dim', '1', '--degree', '2'],\n"
            "                 ['solve', '--degree', '2']):\n"
            "        assert cli.main([*argv, '--out', tmp + '/x.csv']) == 0\n"
            "print([name for name in sys.modules if name.startswith('numpy.polynomial')])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True)
    assert result.stdout.strip() == "[]"


def _spline_matrices_cell_by_cell(mesh):
    """Reference assembly: every spline evaluated on every cell, one cell
    at a time, matrices accumulated in cell order."""
    t = mesh.knots()
    n_all = len(t) - 3
    splines = [BSpline(t, np.eye(n_all)[j], 2) for j in range(n_all)]
    gx, gw = np.polynomial.legendre.leggauss(3)
    mass = np.zeros((n_all, n_all))
    stiff = np.zeros((n_all, n_all))
    for c in range(mesh.n_cells):
        x = (c + 0.5) * mesh.h + 0.5 * mesh.h * gx
        w = 0.5 * mesh.h * gw
        vals = np.array([s(x) for s in splines])
        ders = np.array([s(x, 1) for s in splines])
        mass += (vals * w) @ vals.T
        stiff += (ders * w) @ ders.T
    return mass[1:-1, 1:-1], stiff[1:-1, 1:-1]


@pytest.mark.parametrize("n_cells", [2, 3, 5, 8, 32])
def test_spline_assembly_matches_cell_by_cell_reference(n_cells):
    pair = fem.assemble(fem.build_mesh(1, n_cells, 2))
    mass_ref, stiff_ref = _spline_matrices_cell_by_cell(pair.mesh)
    for mat, ref in ((pair.mass, mass_ref), (pair.stiffness, stiff_ref)):
        if n_cells & (n_cells - 1) == 0:
            # power-of-two cells place the Gauss points identically, and
            # the summation order is the same: the bits must agree
            assert np.array_equal(mat, ref)
        else:
            # the points move by rounding, the slopes of order 1/h with them
            assert np.max(np.abs(mat - ref)) <= 1e-13 * np.max(np.abs(ref))


def _bspline_cell_values(mesh, n_points, order):
    """Values of fem._cell_splines from scipy's BSpline: coefficient column
    r selects the splines j = r mod 3, and the three splines of a cell
    have distinct residues, so each column is exactly one of them."""
    t = mesh.knots()
    x, w = fem.interval_gauss(np.linspace(0.0, 1.0, mesh.n_cells + 1), n_points)
    index = np.arange(mesh.n_cells)[:, None] + np.arange(3)
    basis = BSpline(t, np.eye(3)[np.arange(len(t) - 3) % 3], 2)
    return x, w, np.take_along_axis(basis(x, order), index[:, None, :] % 3, axis=2), index


def _bspline_assembly(mesh):
    """Mass, stiffness and mode load vector summed over the cells in the
    order of fem's assembly, from BSpline values."""
    n_all = mesh.n_cells + 2
    mats = []
    for order in (0, 1):
        _, w, vals, index = _bspline_cell_values(mesh, 3, order)
        elem = np.matmul((vals * w[..., None]).transpose(0, 2, 1), vals)
        full = np.zeros((n_all, n_all))
        np.add.at(full, (index[:, :, None], index[:, None, :]), elem)
        mats.append(full[1:-1, 1:-1])
    x, w, vals, index = _bspline_cell_values(mesh, 5, 0)
    load = np.zeros(n_all)
    np.add.at(load, index, np.sum(w[..., None] * vals * np.sin(np.pi * x)[..., None], axis=1))
    return mats[0], mats[1], load[1:-1]


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n_cells", [2, 3, 5, 64, 1000])
def test_spline_recurrence_is_bspline_bit_for_bit(n_cells):
    mesh = fem.build_mesh(1, n_cells, 2)
    for n_points in (3, 5):
        for order in (0, 1):
            got = fem._cell_splines(mesh, n_points, order)
            want = _bspline_cell_values(mesh, n_points, order)
            assert all(_same_bits(g, v) for g, v in zip(got, want)), (n_points, order)


@pytest.mark.parametrize("n_cells", [2, 3, 5, 8, 32, 64, 1000])
def test_spline_assembly_is_the_bspline_assembly_bit_for_bit(n_cells):
    mesh = fem.build_mesh(1, n_cells, 2)
    pair = fem.assemble(mesh)
    mass, stiffness, load = _bspline_assembly(mesh)
    assert all(map(_same_bits, pair.matrices_1d, (mass, stiffness)))
    assert _same_bits(fem.mode_load_vector(mesh), load)
    assert _same_bits(pair.mode_vector, load)


@pytest.mark.parametrize("n_cells", [2, 3, 5, 8, 17, 32, 64, 256])
def test_spline_modes_match_generalized_eigh(n_cells):
    # oracle: scipy's generalized eigh. Every backward-stable solver errs
    # by about eps * lam_max in each eigenvalue, so the small ones agree
    # only to that share of lam_max
    pair = fem.assemble(fem.build_mesh(1, n_cells, 2))
    mass, stiffness = pair.matrices_1d
    lam, vecs = pair.modes
    ref = eigh(stiffness, mass, eigvals_only=True)
    assert np.all(np.diff(lam) > 0)
    assert np.max(np.abs(lam - ref)) <= 1e-14 * ref[-1]
    assert np.max(np.abs(vecs.T @ mass @ vecs - np.eye(n_cells))) <= 1e-13
    assert np.max(np.abs(stiffness @ vecs - mass @ vecs * lam)) <= 1e-12 * np.max(stiffness)


@pytest.mark.parametrize("dim,n_cells,degree", [(1, 7, 1), (1, 6, 2), (2, 5, 1)])
def test_modes_are_m_orthonormal_eigenpairs(dim, n_cells, degree):
    pair = fem.assemble(fem.build_mesh(dim, n_cells, degree))
    lam, vecs = pair.modes
    assert lam.shape == (pair.n_dof,) and vecs.shape == (pair.n_dof, pair.n_dof)
    assert np.allclose(vecs.T @ pair.mass @ vecs, np.eye(pair.n_dof), atol=1e-12)
    scale = np.max(np.abs(pair.stiffness))
    assert np.allclose(pair.stiffness @ vecs, pair.mass @ vecs * lam, atol=1e-11 * scale)
    assert pair.modes is pair.modes
    # the modes also solve with S, vecs diag(1 / lam) vecs' rhs, for vector
    # and matrix right-hand sides
    for rhs in (pair.mode_vector, pair.mass):
        ref = np.linalg.solve(pair.stiffness, rhs)
        modal = vecs @ ((vecs.T @ rhs).T / lam).T
        assert np.allclose(modal, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("dim,n_cells", [(1, 2), (1, 9), (1, 32), (1, 64),
                                         (2, 2), (2, 9), (2, 32)])
def test_hat_modes_match_dense_eigh(dim, n_cells):
    # oracle: a dense generalized eigh of the assembled pair; the modes
    # come from the closed form, so this is the only check of its
    # eigenvalues, normalization and phases
    pair = fem.assemble(fem.build_mesh(dim, n_cells, 1))
    lam, vecs = pair.modes
    dense = eigh(pair.stiffness, pair.mass, eigvals_only=True)
    if dim == 1:
        assert np.all(np.diff(lam) > 0)
    assert np.allclose(np.sort(lam), dense, rtol=1e-12, atol=0)
    scale = np.max(np.abs(pair.stiffness))
    assert np.max(np.abs(vecs.T @ pair.mass @ vecs - np.eye(pair.n_dof))) <= 1e-12
    assert np.max(np.abs(pair.stiffness @ vecs - pair.mass @ vecs * lam)) <= 1e-12 * scale


@pytest.mark.parametrize("dim,n_cells", [(1, 2), (1, 9), (1, 1000), (2, 33)])
def test_hat_eigenvalues_come_without_eigenvectors(dim, n_cells):
    # the closed form of the modes' eigenvalues, read with no n x n matrix
    # of sines, formed in place with the bits of the plain expression; so
    # is the mode's load
    pair = fem.assemble(fem.build_mesh(dim, n_cells, 1))
    lam, top = pair.eigenvalues, pair.max_eigenvalue
    assert "_basis" not in vars(pair)
    lam_1d, _ = pair._basis
    h, theta = 1.0 / n_cells, np.pi * np.arange(1, n_cells) / n_cells
    plain = 12.0 * np.sin(0.5 * theta) ** 2 / (h ** 2 * (2.0 + np.cos(theta)))
    assert pair._eigenvalues_1d.tobytes() == lam_1d.tobytes() == plain.tobytes()
    nodes = np.arange(1, n_cells) * h
    load = 2.0 * (1.0 - np.cos(np.pi * h)) / (np.pi ** 2 * h) * np.sin(np.pi * nodes)
    assert fem.mode_load_vector(fem.build_mesh(1, n_cells, 1)).tobytes() == load.tobytes()
    assert lam.tobytes() == np.add.outer(*(lam_1d,) * dim).ravel().tobytes() if dim == 2 \
        else lam.tobytes() == lam_1d.tobytes()
    assert top == dim * float(np.max(lam_1d))


def _hat_sine_matrix(n_cells):
    """All n_cells - 1 hat sines, the operations of the full-matrix closed form."""
    k = np.arange(1, n_cells)
    vecs = (np.multiply.outer(k, k) % (2 * n_cells)).astype(float)
    vecs *= np.pi
    vecs /= n_cells
    np.sin(vecs, out=vecs)
    vecs *= np.sqrt(6.0 / (2.0 + np.cos(np.pi * k / n_cells)))
    return vecs


def test_first_hat_sine_is_column_0_of_the_sine_matrix_bit_for_bit():
    # the excited mode's factor is formed from the first sine alone, with
    # the bits it has among all n_cells - 1, and the basis is that matrix
    for n_cells in [*range(2, 701), 1000, 1024, 4097]:
        first = fem._hat_sines(n_cells, 1)
        assert first.shape == (n_cells - 1, 1)
        matrix = _hat_sine_matrix(n_cells)
        column = matrix[:, 0]
        assert first[:, 0].tobytes() == column.tobytes(), n_cells
        if n_cells <= 64:
            _, vecs = fem.assemble(fem.build_mesh(1, n_cells, 1))._basis
            assert vecs.tobytes() == matrix.tobytes(), n_cells
        factor = fem.assemble(fem.build_mesh(1, n_cells, 1))._excited_factor
        assert factor.tobytes() == (0.5 * np.abs(column + column[::-1])).tobytes(), n_cells


def test_hat_pair_forms_its_matrices_on_first_read():
    pair = fem.assemble(fem.build_mesh(1, 9, 1))
    pair.excited_mode, pair.excited_vector, pair.max_eigenvalue
    assert "matrices_1d" not in vars(pair) and "_basis" not in vars(pair)
    mass, stiffness = pair.matrices_1d
    assert pair.matrices_1d is pair.matrices_1d
    assert not mass.flags.writeable and not stiffness.flags.writeable
    assert mass.shape == stiffness.shape == (8, 8)


def test_mode_vector_is_cached_and_read_only():
    mesh = fem.build_mesh(1, 6, 2)
    pair = fem.assemble(mesh)
    b = pair.mode_vector
    assert b is pair.mode_vector
    assert np.array_equal(b, fem.mode_load_vector(mesh))
    with pytest.raises(ValueError):
        b[0] = 0.0


def _close(got, want):
    """Within 1e-13 of want's largest entry."""
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


_OPERATOR_CASES = ([pytest.param(2, 1, n, id=str(n)) for n in (2, 5, 9, 17)]
                   + [pytest.param(1, degree, n, id=f"dim1-degree{degree}-{n}")
                      for degree in (1, 2) for n in (2, 5, 9, 17)])


@pytest.mark.parametrize("dim,degree,n_cells", _OPERATOR_CASES)
def test_factored_2d_operators_match_the_dense_kron_forms(dim, degree, n_cells, rng):
    # oracle: the dense n_dof x n_dof products of the 1-D pair, formed here
    pair = fem.assemble(fem.build_mesh(dim, n_cells, degree))
    pair1 = fem.assemble(fem.build_mesh(1, n_cells, degree))
    mass1, stiff1 = pair1.mass, pair1.stiffness
    assert all(map(np.array_equal, pair.matrices_1d, (mass1, stiff1)))
    lam1, vecs1 = pair1.modes
    if dim == 1:
        mass, stiff, lam, vecs = mass1, stiff1, lam1, vecs1
    else:
        mass = np.kron(mass1, mass1)
        stiff = np.kron(stiff1, mass1) + np.kron(mass1, stiff1)
        lam = (lam1[:, None] + lam1[None, :]).ravel()
        vecs = np.kron(vecs1, vecs1)
    assert _close(pair.eigenvalues, lam)
    assert _close(np.sort(pair.eigenvalues), eigh(stiff, mass, eigvals_only=True))
    grid = solver.TimeGrid(np.linspace(0.0, 1.0, 8) ** 2)
    values = rng.standard_normal((7, pair.n_dof))
    dense = np.sqrt(np.sum(grid.widths * np.einsum("ij,jk,ik->i", values, stiff, values)))
    norm = solver.trial_energy_norm(values, solver.Discretization(pair=pair, grid=grid))
    assert norm == pytest.approx(dense, rel=1e-13, abs=0.0)
    # the on-demand dense forms are these products
    assert np.array_equal(pair.mass, mass) and np.array_equal(pair.stiffness, stiff)
    assert np.array_equal(pair.modes[1], vecs)
    assert np.array_equal(pair.modes[0], pair.eigenvalues)


@pytest.mark.parametrize("n_cells", [64, 400])
def test_a_2d_pair_holds_only_its_1d_matrices(n_cells):
    # 399^2 dofs: one dense 2-D matrix would need 203 GB
    tracemalloc.start()
    try:
        pair = fem.assemble(fem.build_mesh(2, n_cells, 1))
        lam = pair.eigenvalues
        b = pair.mode_vector
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_1d = n_cells - 1
    assert lam.shape == b.shape == (n_1d ** 2,)
    # a few n_1d x n_1d arrays (the 1-D matrices, their eigenvectors and
    # the closed form's temporaries) and the 2-D eigenvalues and load
    assert peak <= 8 * 8 * n_1d ** 2 + 16384


# (dim, degree, C, cell counts): the stock forcing's load reaches the
# other modes by rounding only, |beta_n| <= C eps |beta_1|, with C from the
# largest ratio measured, 4.7e-16 for hats (1-D, 2 to 597 cells) and
# 2.1e-12 for splines (at 1,000 cells). Making the mode symmetric moves it
# by eigh's rounding too: 3.7e-16 of its largest value for hats, 2.7e-12
# for splines
_ONE_MODE = [
    (1, 1, 2.2, [*range(2, 65), 100, 128, 256, 597]),
    (2, 1, 2.2, [*range(2, 21), 32, 64, 67]),
    (1, 2, 1e4, [*range(2, 40), 64, 100, 128, 256, 500, 1000]),
]


@pytest.mark.parametrize("dim,degree,factor,cells", _ONE_MODE,
                         ids=["hats-1d", "hats-2d", "splines-1d"])
def test_stock_forcing_excites_one_mode(dim, degree, factor, cells):
    eps = np.finfo(float).eps
    for n_cells in cells:
        pair = fem.assemble(fem.build_mesh(dim, n_cells, degree))
        # the 1-D modal loads V' b_1d; in 2-D, where b and the modes are
        # Kronecker products, their outer product
        pair_1d = pair if dim == 1 else fem.assemble(fem.build_mesh(1, n_cells, degree))
        beta_1d = pair_1d.modes[1].T @ pair_1d.mode_vector
        beta = np.multiply.outer(beta_1d, beta_1d).ravel() if dim == 2 else beta_1d
        assert np.max(np.abs(beta[1:]), initial=0.0) <= factor * eps * abs(beta[0]), n_cells
        (lam, beta_1), v = pair.excited_mode, pair.excited_vector
        # mode 0 of the basis, with its sign made positive
        assert lam == pair.eigenvalues[0]
        assert beta_1 == pytest.approx(abs(beta[0]), rel=1e-13)
        column = functools.reduce(np.kron, (pair_1d.modes[1][:, 0],) * dim)
        assert np.max(np.abs(v - np.abs(column))) <= 2 * factor * eps * np.max(v), n_cells


@pytest.mark.parametrize("dim,degree,n_cells", [(1, 1, 8), (1, 1, 128), (1, 2, 37),
                                                (1, 2, 128), (2, 1, 6), (2, 1, 33)])
def test_excited_energy_is_the_excited_mode_in_the_energy_norm(dim, degree, n_cells):
    pair = fem.assemble(fem.build_mesh(dim, n_cells, degree))
    (lam, _), v = pair.excited_mode, pair.excited_vector
    rho = pair.excited_energy
    full = v @ pair.stiffness @ v
    # the 1-D product bit for bit; in 2-D the factored form rounds otherwise
    if dim == 1:
        assert rho == full
    assert rho == pytest.approx(full, rel=1e-14, abs=0.0)
    # lam_1 only up to rounding (1.9e-13 for splines at 128 cells)
    assert rho == pytest.approx(lam, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dim,degree,n_cells,distinct", [
    (1, 1, 2, 1), (1, 1, 8, 4), (1, 1, 9, 4), (1, 2, 7, 4), (1, 2, 64, 32),
    (2, 1, 8, 10), (2, 1, 32, 136), (2, 1, 33, 136)])
def test_excited_mode_is_mirror_symmetric_bit_for_bit(dim, degree, n_cells, distinct):
    # nodes equal by the mesh's mirrors share their bits, so the mode has
    # ceil(n/2) distinct values in 1-D and m(m + 1)/2 in 2-D, m = ceil(n/2)
    mesh = fem.build_mesh(dim, n_cells, degree)
    v = fem.assemble(mesh).excited_vector
    assert not v.flags.writeable and np.all(v > 0)
    square = v.reshape((mesh.n_dof_1d,) * dim)
    for axis in range(dim):
        assert np.array_equal(square, np.flip(square, axis=axis))
    if dim == 2:
        assert np.array_equal(square, square.T)
    m = -(-mesh.n_dof_1d // 2)
    assert len(np.unique(v)) == distinct == (m if dim == 1 else m * (m + 1) // 2)
