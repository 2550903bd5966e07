"""Dimension truncation, mollification and the perturbation identity."""
import numpy as np
import pytest

from ouelliptic import cylinder, galerkin, grid, wiener
from ouelliptic.weights import (ConvexWeight, huber_weight, linear_weight,
                                quadratic_weight, zero_weight)


def test_cylindrical_base_is_exact():
    # no tail coordinates left to average over
    base = quadratic_weight(np.diag([0.5, 2.0]))
    tw = galerkin.TruncatedWeight(base, 2, samples=50)
    xi = np.array([1.0, -0.5])
    got = tw.value(xi)
    assert got.mean == pytest.approx(float(base.eval(xi)), rel=1e-12)
    assert got.std_error == 0.0


def test_linear_base_averages_exactly():
    base = linear_weight(np.array([1.0, 0.0, 0.0]))
    got = galerkin.conditional_expectation(base, 1, np.array([0.7]), samples=100)
    assert got.mean == pytest.approx(0.7, rel=1e-12)
    assert got.std_error == 0.0


def test_energy_truncation_closed_form():
    base = wiener.energy_convex_weight(256)
    lam = wiener.WienerBasis(256).lam
    xi = np.array([1.0, -1.0])
    got = galerkin.conditional_expectation(base, 2, xi, samples=10000, seed=11)
    target = float(lam[0] + lam[1] + lam[2:].sum())
    assert abs(got.mean - target) <= 3 * got.std_error
    # frozen draw for reproducibility of the default substreams
    assert got.mean == pytest.approx(0.49984094626960507, abs=1e-12)


def test_energy_tail_constant_shrinks():
    lam = wiener.WienerBasis(256).lam
    tails = [float(lam[n:].sum()) for n in (1, 2, 4, 8, 64)]
    for a, b in zip(tails, tails[1:]):
        assert b < a
    assert tails[-1] < 0.01
    assert float(lam.sum()) == pytest.approx(0.5, abs=2e-3)


def test_psi_gradient_energy_exact():
    base = wiener.energy_convex_weight(64)
    lam = wiener.WienerBasis(64).lam
    tw = galerkin.TruncatedWeight(base, 3, samples=200)
    xi = np.array([0.5, -1.2, 2.0])
    grads = tw.gradient(xi)
    for i, g in enumerate(grads):
        assert g.mean == pytest.approx(2.0 * lam[i] * xi[i], rel=1e-12, abs=1e-15)
        # identically distributed samples, so only cancellation noise remains
        assert g.std_error <= 1e-6


def test_truncation_preserves_lipschitz():
    base = wiener.energy_convex_weight(16)
    tw = galerkin.TruncatedWeight(base, 4, samples=100)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1000, 4))
    y = rng.standard_normal((1000, 4))
    num = np.linalg.norm(tw.subgrad_batch(x) - tw.subgrad_batch(y), axis=1)
    den = np.linalg.norm(x - y, axis=1)
    assert np.max(num / den) <= base.grad_lip * 1.02


def test_truncation_preserves_convexity():
    base = wiener.max_endpoint_convex_weight(16)
    w = galerkin.TruncatedWeight(base, 2, samples=64, seed=3).as_convex_weight()
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y = rng.standard_normal((2, 2))
        mid = w.eval((x + y) / 2.0)
        assert mid <= 0.5 * (w.eval(x) + w.eval(y)) + 1e-10


def test_truncated_weight_validation():
    base = zero_weight(4)
    with pytest.raises(ValueError):
        galerkin.TruncatedWeight(base, 0)
    with pytest.raises(ValueError):
        galerkin.TruncatedWeight(base, 5)
    with pytest.raises(ValueError):
        galerkin.TruncatedWeight(base, 2, samples=1)


def test_memoized_value_stable():
    base = wiener.energy_convex_weight(32)
    tw = galerkin.TruncatedWeight(base, 2, samples=500, seed=9)
    xi = np.array([0.3, 0.4])
    a = tw.value(xi)
    b = tw.value(xi)
    assert a is b


def test_kernel_mass_and_moment():
    for dim in (1, 2):
        k = galerkin.BumpKernel.build(dim)
        assert k.mass == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.sum(k.nodes ** 2, axis=-1) < 1.0)
    k1 = galerkin.BumpKernel.build(1)
    assert k1.analytic_second_moment() == pytest.approx(1.0 / 11.0, rel=1e-12)
    assert k1.second_moment() == pytest.approx(1.0 / 11.0, rel=5e-3)


def test_kernel_validation():
    with pytest.raises(ValueError):
        galerkin.BumpKernel.build(0)
    with pytest.raises(ValueError):
        galerkin.BumpKernel.build(1, nodes_per_axis=1)


def test_mollify_affine_is_identity():
    inner = linear_weight(np.array([2.0, -1.0]), b=0.5)
    mol = galerkin.mollify(inner, 0.3)
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((20, 2))
    assert np.max(np.abs(mol.eval(pts) - inner.eval(pts))) < 1e-13


def test_mollify_quadratic_adds_second_moment():
    inner = quadratic_weight(2.0 * np.eye(1))  # x^2
    kernel = galerkin.BumpKernel.build(1)
    eps = 0.25
    mol = galerkin.mollify(inner, eps, kernel)
    pts = np.array([[0.0], [0.7], [-1.3]])
    want = pts[:, 0] ** 2 + eps ** 2 * kernel.second_moment()
    assert np.allclose(mol.eval(pts), want, atol=1e-13)


def test_mollify_abs_bias_within_lipschitz():
    from ouelliptic.weights import abs_weight
    inner = abs_weight(1)
    for eps in (0.5, 0.1, 0.02):
        mol = galerkin.mollify(inner, eps)
        pts = np.linspace(-2.0, 2.0, 41)[:, None]
        gap = mol.eval(pts) - np.abs(pts[:, 0])
        assert np.all(gap >= -1e-13)
        assert np.all(gap <= eps + 1e-13)


def test_mollify_preserves_convexity():
    base = wiener.max_endpoint_convex_weight(16)
    tw = galerkin.TruncatedWeight(base, 2, samples=32, seed=3).as_convex_weight()
    mol = galerkin.mollify(tw, 0.5)
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y = rng.standard_normal((2, 2))
        mid = mol.eval((x + y) / 2.0)
        assert mid <= 0.5 * (mol.eval(x) + mol.eval(y)) + 1e-10


def test_mollify_validation():
    inner = zero_weight(2)
    with pytest.raises(ValueError):
        galerkin.mollify(inner, 0.0)
    with pytest.raises(ValueError):
        galerkin.mollify(inner, 0.1, galerkin.BumpKernel.build(1))


def test_truncated_generator_values():
    lam = wiener.WienerBasis(4).lam
    w = wiener.energy_convex_weight(4)
    xi = np.array([0.7, -0.3, 0.0, 0.0])
    v1 = cylinder.coordinate(0)
    got = grid.apply_generator(w, v1, xi)
    assert got == pytest.approx(-(2.0 * lam[0] * 0.7 + 0.7), rel=1e-12)
    sq = cylinder.from_scalar(lambda t: t * t, lambda t: 2 * t,
                              lambda t: np.full_like(t, 2.0))
    got = grid.apply_generator(w, sq, xi)
    want = 2.0 - (2.0 * lam[0] * 0.7 + 0.7) * 2.0 * 0.7
    assert got == pytest.approx(want, rel=1e-12)
    assert grid.apply_generator(w, cylinder.constant(5.0), xi) == 0.0


def test_perturbation_residual_constant_solution():
    w = wiener.energy_convex_weight(4)
    tw = galerkin.TruncatedWeight(w, 2, samples=50).as_convex_weight()
    v = cylinder.constant(2.0)
    lam = 1.5
    pts = np.random.default_rng(0).standard_normal((30, 4))
    res = galerkin.perturbation_residual(v, w, tw, lam, cylinder.constant(3.0).value, pts)
    assert np.max(np.abs(res)) == pytest.approx(0.0, abs=1e-12)


def test_perturbation_residual_grid_solution():
    # reduced solve at n=2 with the mollified truncation, checked against
    # the full-dimensional equation with the drift-gap correction
    full = wiener.energy_convex_weight(16)
    tw = galerkin.TruncatedWeight(full, 2, samples=200, seed=5).as_convex_weight()
    mol = galerkin.mollify(tw, 0.5)
    f = cylinder.cos_linear(np.array([1.0, 0.4]))
    lam = 1.0
    spec = grid.GridSpec(dim=2, radius=6.0, mesh=1 / 16)
    sol = grid.solve_elliptic_grid(mol, f.value, lam, spec)
    v = grid.GridFunction(sol)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((100, 16))
    pts[:, :2] = np.clip(pts[:, :2], -2.5, 2.5)
    res = galerkin.perturbation_residual(v, full, mol, lam, f.value, pts)
    assert np.max(np.abs(res)) <= 5e-2


def test_gradient_correction_energy_closed_form():
    full = wiener.energy_convex_weight(64)
    lam = wiener.WienerBasis(64).lam
    prev = np.inf
    for n in (1, 2, 4, 8):
        tw = galerkin.TruncatedWeight(full, n, samples=100)
        got = galerkin.gradient_correction_norm(full, tw.as_convex_weight(),
                                                samples=20000, seed=4)
        oracle = float(np.sqrt(np.sum(4.0 * lam[n:] ** 2 / (1.0 + 2.0 * lam[n:]))))
        assert abs(got.mean - oracle) <= 3 * got.std_error + 5e-4
        assert got.mean < prev
        prev = got.mean


def test_gradient_correction_identical_weights():
    w = wiener.energy_convex_weight(4)
    got = galerkin.gradient_correction_norm(w, w, samples=2000, seed=1)
    assert got.mean == pytest.approx(0.0, abs=1e-12)


def test_conditional_expectation_contraction():
    # tail averaging cannot increase the Gaussian L2 norm
    base = wiener.energy_convex_weight(8)
    tw = galerkin.TruncatedWeight(base, 2, samples=2000, seed=6)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20000, 8))
    base_sq = np.mean(np.asarray(base.eval(x)) ** 2)
    vals, _ = tw.value_batch(x[:, :2])
    trunc_sq = np.mean(vals ** 2)
    se = np.std(np.asarray(base.eval(x)) ** 2, ddof=1) / np.sqrt(x.shape[0])
    assert trunc_sq <= base_sq + 3 * se


def test_tabulated_weight_matches_inner():
    inner = huber_weight(1, delta=0.8)
    tab = galerkin.tabulate_weight(inner, radius=4.0, mesh=0.05)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-3.5, 3.5, size=(200, 1))
    assert np.max(np.abs(tab.eval(pts) - inner.eval(pts))) < 1e-3
    assert np.max(np.abs(tab.subgrad(pts) - inner.subgrad(pts))) < 5e-2


def test_tabulate_validation():
    with pytest.raises(ValueError):
        galerkin.tabulate_weight(zero_weight(3), radius=2.0, mesh=0.5)
