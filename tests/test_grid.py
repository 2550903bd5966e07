"""Grid oracle checks: generator formula, operator structure, elliptic
solves, node-table lookup."""
import numpy as np
import pytest

from ouelliptic import cylinder, grid
from ouelliptic.weights import quadratic_weight, standard_family, zero_weight


def square():
    return cylinder.from_scalar(lambda t: t * t, lambda t: 2.0 * t,
                                lambda t: np.full_like(t, 2.0), label="sq")


def test_apply_generator_closed_forms():
    assert grid.apply_generator(zero_weight(1), square(), np.array([1.0])) == pytest.approx(0.0)
    assert grid.apply_generator(zero_weight(1), cylinder.coordinate(0),
                                np.array([3.0])) == pytest.approx(-3.0)
    half_sq = quadratic_weight(np.eye(1))
    assert grid.apply_generator(half_sq, square(), np.array([1.0])) == pytest.approx(-2.0)


def test_apply_generator_vectorized():
    xi = np.array([[0.0], [1.0], [2.0]])
    out = grid.apply_generator(zero_weight(1), square(), xi)
    assert np.allclose(out, 2.0 - 2.0 * xi[:, 0] ** 2)


def interior(spec, cut):
    return np.max(np.abs(np.atleast_2d(spec.points())), axis=1) <= cut


def test_elliptic_constant_is_equilibrium():
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    [sol] = grid.solve_elliptic_grid(zero_weight(1), [cylinder.constant(3.0).value], 2.0, spec)
    assert np.max(np.abs(sol.nodes()[0] - 1.5)) < 1e-10


def test_elliptic_coordinate_eigenfunction():
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    [sol] = grid.solve_elliptic_grid(zero_weight(1), [cylinder.coordinate(0).value], 1.0, spec)
    pts = spec.points()[:, 0]
    mask = interior(spec, 3.0)
    assert np.max(np.abs(sol.nodes()[0][mask] - pts[mask] / 2.0)) < 5e-6


def test_elliptic_hermite_eigenfunctions_near_exact():
    # centered differences are exact on quadratics, so only the
    # exponentially small boundary effect remains
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    for k in (1, 2):
        he = cylinder.hermite(k)
        [sol] = grid.solve_elliptic_grid(zero_weight(1), [he.value], 1.0, spec)
        mask = interior(spec, 3.0)
        exact = he.value(spec.points()) / (1.0 + k)
        assert np.max(np.abs(sol.nodes()[0][mask] - exact[mask])) < 5e-6


def test_elliptic_convergence_factor():
    # halving the mesh should cut the He3 error by about four
    he = cylinder.hermite(3)
    errs = []
    for mesh in (1 / 16, 1 / 32, 1 / 64):
        spec = grid.GridSpec(dim=1, radius=6.0, mesh=mesh)
        [sol] = grid.solve_elliptic_grid(zero_weight(1), [he.value], 0.7, spec)
        mask = interior(spec, 3.0)
        exact = he.value(spec.points()) / (0.7 + 3.0)
        errs.append(np.max(np.abs(sol.nodes()[0][mask] - exact[mask])))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_elliptic_2d_eigenfunction():
    he = cylinder.hermite(2, coord=1)
    spec = grid.GridSpec(dim=2, radius=5.0, mesh=1 / 8)
    [sol] = grid.solve_elliptic_grid(zero_weight(2), [he.value], 1.0, spec)
    mask = interior(spec, 2.5)
    exact = he.value(spec.points()) / 3.0
    assert np.max(np.abs(sol.nodes()[0][mask] - exact[mask])) < 2e-4


def test_elliptic_max_principle_family():
    for dim in (1, 2):
        f = cylinder.cos_linear(np.ones(dim) / np.sqrt(dim))
        for w in standard_family(dim):
            spec = grid.GridSpec(dim=dim, radius=4.0, mesh=1 / 8 if dim == 2 else 1 / 32)
            [sol] = grid.solve_elliptic_grid(w, [f.value], 0.7, spec)
            assert np.max(np.abs(sol.nodes()[0])) <= 1.0 / 0.7 + 1e-9, w.label


@pytest.mark.parametrize("dim", [1, 2])
def test_operator_is_m_matrix(dim):
    # off-diagonal entries <= 0 and zero row sums make lam*I + K a
    # monotone M-matrix, so every solve is positive and contracts sup|f|;
    # checked at a resolved mesh and at mesh 1/2, where |b| h / 2 > 1
    # near the box edge and the drift is upwinded
    for mesh in (1 / 32 if dim == 1 else 1 / 8, 1 / 2):
        spec = grid.GridSpec(dim=dim, radius=6.0, mesh=mesh)
        for w in standard_family(dim):
            k = grid.assemble_operator(w, spec).tocoo()
            assert np.max(k.data[k.row != k.col]) <= 0.0, (w.label, mesh)
            row_sums = np.asarray(k.sum(axis=1)).ravel()
            assert np.max(np.abs(row_sums)) <= 1e-12 * np.max(k.diagonal()), \
                (w.label, mesh)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_elliptic_solve_residual(lam):
    # the factorisation's column ordering must not cost accuracy: the
    # discrete equation holds to roundoff for every weight of the family
    spec = grid.GridSpec(dim=2, radius=6.0, mesh=1 / 8)
    fs = [cylinder.tanh_coord(1.0, coord=1),
          cylinder.cos_linear(np.array([1.0, 1.0]) / np.sqrt(2.0))]
    pts = spec.points()
    for w in standard_family(2):
        k = grid.assemble_operator(w, spec)
        sols = grid.solve_elliptic_grid(w, fs, lam, spec, operator=k)
        for f, sol in zip(fs, sols):
            rhs = f(pts)
            uv = sol.nodes()[0]
            resid = lam * uv + k @ uv - rhs
            assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(rhs)), \
                (w.label, f.label)


def test_elliptic_gradient_bound():
    f = cylinder.tanh_coord()
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    [sol] = grid.solve_elliptic_grid(zero_weight(1), [f.value], 1.0, spec)
    mask = interior(spec, 3.0)
    gmax = np.max(np.abs(sol.nodes()[1][mask, 0]))
    assert gmax <= np.sqrt(np.pi / 1.0) * 1.0 + 0.1


def test_elliptic_rejects_bad_lambda():
    spec = grid.GridSpec(dim=1, radius=2.0, mesh=0.25)
    with pytest.raises(ValueError):
        grid.solve_elliptic_grid(zero_weight(1), [cylinder.constant(1.0).value], 0.0, spec)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        grid.GridSpec(dim=3, radius=2.0, mesh=0.25)
    with pytest.raises(ValueError):
        grid.GridSpec(dim=1, radius=0.1, mesh=0.25)


def test_grid_function_matches_nodes():
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    f = cylinder.tanh_coord()
    [u] = grid.solve_elliptic_grid(zero_weight(1), [f.value], 1.0, spec)
    pts = spec.points()
    mask = interior(spec, 2.0)
    vals = u.value(pts[mask])
    assert np.allclose(vals, u.nodes()[0][mask], atol=1e-12)


def test_grid_function_generator_identity():
    # the solved field satisfies L u = lam u - f up to discretization error
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 64)
    f = cylinder.tanh_coord()
    lam = 1.0
    [u] = grid.solve_elliptic_grid(zero_weight(1), [f.value], lam, spec)
    xi = np.array([[0.3], [-0.7], [1.1]])
    lhs = grid.apply_generator(zero_weight(1), u, xi)
    rhs = lam * u.value(xi) - f.value(xi)
    assert np.max(np.abs(lhs - rhs)) < 5e-2


def test_operator_reuse_matches_fresh_solve():
    # one call with several right-hand sides, with or without a
    # preassembled operator, equals one call per right-hand side
    for spec in (grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16),
                 grid.GridSpec(dim=2, radius=3.0, mesh=1 / 4)):
        d = spec.dim
        w = quadratic_weight(np.eye(d))
        op = grid.assemble_operator(w, spec)
        fs = [cylinder.cos_linear(np.ones(d)).value, cylinder.tanh_coord().value,
              cylinder.hermite(2, coord=d - 1).value]
        singles = [grid.solve_elliptic_grid(w, [f], 1.0, spec)[0] for f in fs]
        for operator in (op, None):
            multi = grid.solve_elliptic_grid(w, fs, 1.0, spec, operator=operator)
            assert len(multi) == len(fs)
            for a, b in zip(multi, singles):
                assert np.array_equal(a.nodes()[0], b.nodes()[0])
                assert np.array_equal(a.nodes()[1], b.nodes()[1])


def test_grid_function_jet_matches_regular_grid_interpolator():
    # one table lookup (grid.table_lookup, shared with the tabulated
    # weights) gives the same bits as scipy's linear interpolator
    # on each field: on nodes and one ulp either side of them, on the
    # clip planes +-(R - h), between nodes and outside the box, where
    # the edge cells extrapolate
    from scipy.interpolate import RegularGridInterpolator

    for spec in (grid.GridSpec(dim=1, radius=3.0, mesh=0.1),
                 grid.GridSpec(dim=2, radius=2.0, mesh=1 / 4)):
        d, h, r = spec.dim, spec.mesh, spec.radius
        w = quadratic_weight(np.eye(d))
        f = cylinder.cos_linear(np.linspace(1.0, 0.5, d))
        [u] = grid.solve_elliptic_grid(w, [f.value], 1.0, spec)

        vals, ax = u.nodes()[0].reshape((spec.npoints,) * d), spec.axis()
        grads = [np.gradient(vals, h, axis=i) for i in range(d)]
        hess = [[None] * d for _ in range(d)]
        for i in range(d):
            a = (np.roll(vals, -1, axis=i) - 2 * vals + np.roll(vals, 1, axis=i)) / h ** 2
            lo, hi = [slice(None)] * d, [slice(None)] * d
            lo[i], hi[i] = 0, -1
            a[tuple(lo)] = np.take(a, 1, axis=i)      # one-sided face copies
            a[tuple(hi)] = np.take(a, -2, axis=i)
            hess[i][i] = a
            for j in range(i + 1, d):
                hess[i][j] = hess[j][i] = np.gradient(grads[i], h, axis=j)

        rng = np.random.default_rng(5)
        on_plane = rng.uniform(-r, r, (40, d))
        on_plane[:20, 0] = r - h
        on_plane[20:, -1] = -(r - h)
        nodes = spec.points()
        pts = np.concatenate([
            nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
            np.full((1, d), r - h), np.full((1, d), -(r - h)), on_plane,
            rng.uniform(-r, r, (200, d)),
            rng.uniform(-2 * r, 2 * r, (200, d)),
        ])
        x = np.stack([pts, pts[::-1]])          # leading shape (2, M)

        def rgi(arr):
            return RegularGridInterpolator((ax,) * d, arr, bounds_error=False,
                                           fill_value=None)(x)

        val, grad, hs = u.jet(x)
        assert val.shape == x.shape[:-1]
        assert grad.shape == x.shape
        assert hs.shape == x.shape + (d,)
        assert np.array_equal(val, rgi(vals))
        for i in range(d):
            assert np.array_equal(grad[..., i], rgi(grads[i]))
            for j in range(d):
                assert np.array_equal(hs[..., i, j], rgi(hess[i][j]))
        assert np.array_equal(u.value(x), val)
        assert np.array_equal(u(x), val)
        assert np.array_equal(u.gradient(x), grad)
        assert np.array_equal(u.hessian(x), hs)
        assert np.array_equal(u.hessian_diag(x),
                              np.diagonal(hs, axis1=-2, axis2=-1))
        assert np.array_equal(u.jet(pts)[0], val[0])

        # the shared helper on a multi-column table: each column gives
        # the same bits as scipy's interpolator of that column alone
        table = rng.standard_normal((ax.size ** d, 5))
        out = grid.table_lookup(table, ax, h, pts)
        assert out.shape == (pts.shape[0], 5)
        for c in range(5):
            assert np.array_equal(out[:, c], RegularGridInterpolator(
                (ax,) * d, table[:, c].reshape((ax.size,) * d),
                bounds_error=False, fill_value=None)(pts))
