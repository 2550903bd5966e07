"""Grid oracle checks: generator formula, elliptic/parabolic solves,
monitors."""
import numpy as np
import pytest

from ouelliptic import cylinder, grid
from ouelliptic.weights import (linear_weight, quadratic_weight, standard_family,
                                zero_weight)


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


def test_lyapunov_margin_unweighted_exact():
    # the sample cloud contains the origin, where 2n - 2|xi|^2 peaks
    assert grid.lyapunov_margin(zero_weight(2), 4.0) == pytest.approx(4.0, abs=1e-12)


def test_lyapunov_margin_linear_drift():
    m = grid.lyapunov_margin(linear_weight(np.array([2.0])), 4.0, samples=20000)
    assert m <= 4.0 + 1e-12
    assert m >= 3.98


def test_lyapunov_margin_quadratic():
    m = grid.lyapunov_margin(quadratic_weight(np.eye(1)), 4.0)
    assert m == pytest.approx(2.0, abs=1e-12)


def test_lyapunov_bound_over_family():
    for dim in (1, 2):
        for w in standard_family(dim):
            g0 = float(np.linalg.norm(np.atleast_1d(w.subgrad(np.zeros(dim)))))
            bound = 2.0 * dim + g0 * g0 / 2.0
            assert grid.lyapunov_margin(w, 4.0) <= bound + 1e-10, w.label


def interior(spec, cut):
    return np.max(np.abs(np.atleast_2d(spec.points())), axis=1) <= cut


def test_elliptic_constant_is_equilibrium():
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    sol = grid.solve_elliptic_grid(zero_weight(1), cylinder.constant(3.0).value, 2.0, spec)
    assert np.max(np.abs(sol.values - 1.5)) < 1e-10


def test_elliptic_coordinate_eigenfunction():
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    sol = grid.solve_elliptic_grid(zero_weight(1), cylinder.coordinate(0).value, 1.0, spec)
    pts = spec.points()[:, 0]
    mask = interior(spec, 3.0)
    assert np.max(np.abs(sol.values.ravel()[mask] - pts[mask] / 2.0)) < 5e-6


def test_elliptic_hermite_eigenfunctions_near_exact():
    # centered differences are exact on quadratics, so only the
    # exponentially small boundary effect remains
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    for k in (1, 2):
        he = cylinder.hermite(k)
        sol = grid.solve_elliptic_grid(zero_weight(1), he.value, 1.0, spec)
        mask = interior(spec, 3.0)
        exact = he.value(spec.points()) / (1.0 + k)
        assert np.max(np.abs(sol.values.ravel()[mask] - exact[mask])) < 5e-6


def test_elliptic_convergence_factor():
    # halving the mesh should cut the He3 error by about four
    he = cylinder.hermite(3)
    errs = []
    for mesh in (1 / 16, 1 / 32, 1 / 64):
        spec = grid.GridSpec(dim=1, radius=6.0, mesh=mesh)
        sol = grid.solve_elliptic_grid(zero_weight(1), he.value, 0.7, spec)
        mask = interior(spec, 3.0)
        exact = he.value(spec.points()) / (0.7 + 3.0)
        errs.append(np.max(np.abs(sol.values.ravel()[mask] - exact[mask])))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_elliptic_2d_eigenfunction():
    he = cylinder.hermite(2, coord=1)
    spec = grid.GridSpec(dim=2, radius=5.0, mesh=1 / 8)
    sol = grid.solve_elliptic_grid(zero_weight(2), he.value, 1.0, spec)
    mask = interior(spec, 2.5)
    exact = he.value(spec.points()) / 3.0
    assert np.max(np.abs(sol.values.ravel()[mask] - exact[mask])) < 2e-4


def test_elliptic_max_principle_family():
    for dim in (1, 2):
        f = cylinder.cos_linear(np.ones(dim) / np.sqrt(dim))
        for w in standard_family(dim):
            spec = grid.GridSpec(dim=dim, radius=4.0, mesh=1 / 8 if dim == 2 else 1 / 32)
            sol = grid.solve_elliptic_grid(w, f.value, 0.7, spec)
            assert np.max(np.abs(sol.values)) <= 1.0 / 0.7 + 1e-9, w.label


def test_elliptic_gradient_bound():
    f = cylinder.tanh_coord()
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    sol = grid.solve_elliptic_grid(zero_weight(1), f.value, 1.0, spec)
    mask = interior(spec, 3.0)
    gmax = np.max(np.abs(sol.gradient.reshape(-1)[mask]))
    assert gmax <= np.sqrt(np.pi / 1.0) * 1.0 + 0.1


def test_elliptic_rejects_bad_lambda():
    spec = grid.GridSpec(dim=1, radius=2.0, mesh=0.25)
    with pytest.raises(ValueError):
        grid.solve_elliptic_grid(zero_weight(1), cylinder.constant(1.0).value, 0.0, spec)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        grid.GridSpec(dim=3, radius=2.0, mesh=0.25)
    with pytest.raises(ValueError):
        grid.GridSpec(dim=1, radius=0.1, mesh=0.25)
    with pytest.raises(ValueError):
        grid.GridSpec(dim=1, radius=2.0, mesh=0.25, boundary="free")


def test_absorbing_boundary_pins_values():
    spec = grid.GridSpec(dim=1, radius=2.0, mesh=0.25, boundary="absorbing")
    f = cylinder.constant(3.0)
    sol = grid.solve_elliptic_grid(zero_weight(1), f.value, 2.0, spec)
    assert sol.values.ravel()[0] == pytest.approx(1.5)
    assert sol.values.ravel()[-1] == pytest.approx(1.5)


def test_parabolic_constant_stays_constant():
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    sols = grid.solve_parabolic_grid(zero_weight(1), cylinder.constant(2.0).value,
                                     1.0, 16, spec)
    assert len(sols) == 17
    for s in sols:
        assert np.max(np.abs(s.values - 2.0)) < 1e-10


def test_parabolic_coordinate_decay():
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    sols = grid.solve_parabolic_grid(zero_weight(1), cylinder.coordinate(0).value,
                                     1.0, 128, spec)
    pts = spec.points()[:, 0]
    mask = interior(spec, 3.0)
    for s in (sols[64], sols[128]):
        exact = np.exp(-s.time) * pts
        assert np.max(np.abs(s.values.ravel()[mask] - exact[mask])) < 1e-2


def test_parabolic_positivity():
    f = cylinder.smoothed_indicator(0.0, 0.5)
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    sols = grid.solve_parabolic_grid(zero_weight(1), f.value, 1.0, 32, spec)
    for s in sols:
        assert np.min(s.values) >= -1e-10


def test_parabolic_sup_contraction():
    f = cylinder.cos_linear(np.array([1.0]))
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    sols = grid.solve_parabolic_grid(zero_weight(1), f.value, 1.0, 32, spec)
    sups = [np.max(np.abs(s.values)) for s in sols]
    for prev, nxt in zip(sups, sups[1:]):
        assert nxt <= prev + 1e-12


def test_parabolic_validation():
    spec = grid.GridSpec(dim=1, radius=2.0, mesh=0.25)
    with pytest.raises(ValueError):
        grid.solve_parabolic_grid(zero_weight(1), cylinder.constant(1.0).value, 0.0, 4, spec)
    with pytest.raises(ValueError):
        grid.solve_parabolic_grid(zero_weight(1), cylinder.constant(1.0).value, 1.0, 0, spec)


def test_bernstein_constant():
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    sols = grid.solve_parabolic_grid(zero_weight(1), cylinder.constant(2.0).value,
                                     0.5, 8, spec)
    assert grid.bernstein_monitor(sols) == pytest.approx(4.0, abs=1e-9)


def test_bernstein_tanh_bounded():
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 64)
    sols = grid.solve_parabolic_grid(zero_weight(1), cylinder.tanh_coord().value,
                                     1.0, 32, spec)
    m = grid.bernstein_monitor(sols)
    assert 0.9 <= m <= 1.0 * (1.0 + 5e-2)


def test_bernstein_requires_times():
    spec = grid.GridSpec(dim=1, radius=2.0, mesh=0.25)
    sol = grid.solve_elliptic_grid(zero_weight(1), cylinder.constant(1.0).value, 1.0, spec)
    with pytest.raises(ValueError):
        grid.bernstein_monitor([sol])


def test_grid_function_matches_nodes():
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    f = cylinder.tanh_coord()
    sol = grid.solve_elliptic_grid(zero_weight(1), f.value, 1.0, spec)
    u = grid.GridFunction(sol)
    pts = spec.points()
    mask = interior(spec, 2.0)
    vals = u.value(pts[mask])
    assert np.allclose(vals, sol.values.ravel()[mask], atol=1e-12)


def test_grid_function_generator_identity():
    # the solved field satisfies L u = lam u - f up to discretization error
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 64)
    f = cylinder.tanh_coord()
    lam = 1.0
    sol = grid.solve_elliptic_grid(zero_weight(1), f.value, lam, spec)
    u = grid.GridFunction(sol)
    xi = np.array([[0.3], [-0.7], [1.1]])
    lhs = grid.apply_generator(zero_weight(1), u, xi)
    rhs = lam * u.value(xi) - f.value(xi)
    assert np.max(np.abs(lhs - rhs)) < 5e-2


def test_operator_reuse_matches_fresh_solve():
    spec = grid.GridSpec(dim=1, radius=4.0, mesh=1 / 16)
    w = quadratic_weight(np.eye(1))
    op = grid.assemble_operator(w, spec)
    f = cylinder.cos_linear(np.array([1.0]))
    a = grid.solve_elliptic_grid(w, f.value, 1.0, spec, operator=op)
    b = grid.solve_elliptic_grid(w, f.value, 1.0, spec)
    assert np.array_equal(a.values, b.values)
