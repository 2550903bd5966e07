"""Sine-basis calculus on path space: norms, sampling, the two example
weights, weighted divergence and integration by parts."""
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from ouelliptic import galerkin, wiener
from ouelliptic.cylinder import constant, coordinate, cos_linear
from ouelliptic.grid import tensor_nodes
from ouelliptic.rng import TAIL_TAG, substream
from ouelliptic.weights import zero_weight


def test_basis_orthonormal_in_l2():
    basis = wiener.WienerBasis(12)
    t = np.linspace(0.0, 1.0, 10001)
    e = basis.e(t)
    gram = np.array([[simpson(e[i] * e[j], x=t) for j in range(12)]
                     for i in range(12)])
    assert np.max(np.abs(gram - np.eye(12))) < 1e-8


def test_basis_validation():
    with pytest.raises(ValueError):
        wiener.WienerBasis(0)


def test_cm_norm_values():
    assert wiener.cm_norm_sq(np.array([1.0])) == pytest.approx(np.pi ** 2 / 4.0)
    lam1 = 4.0 / np.pi ** 2
    assert wiener.cm_norm_sq(np.array([np.sqrt(lam1)])) == pytest.approx(1.0)
    assert wiener.cm_norm_sq(np.zeros(5)) == 0.0


def test_h_frame_normalized():
    basis = wiener.WienerBasis(64)
    for i in (0, 7, 63):
        c = np.zeros(64)
        c[i] = np.sqrt(basis.lam[i])
        assert wiener.cm_norm_sq(c) == pytest.approx(1.0, abs=1e-10)


def test_single_mode_path_closed_form():
    basis = wiener.WienerBasis(1)
    t = np.linspace(0.0, 1.0, 101)
    got = basis.path_values(np.array([1.0]), t)
    want = (2.0 * np.sqrt(2.0) / np.pi) * np.sin(np.pi * t / 2.0)
    assert np.allclose(got, want, atol=1e-12)


def test_sampled_path_starts_at_zero():
    basis = wiener.WienerBasis(32)
    for seed in (0, 1, 2):
        p = wiener.sample_path(basis, seed)
        assert p.values[0] == 0.0
        assert np.all(np.isfinite(p.values))


def test_kl_covariance_matches_brownian():
    basis = wiener.WienerBasis(64)
    ts = np.array([1, 2, 3, 4, 5]) / 6.0
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal((10000, 64))
    w = coeffs @ basis.h(ts)
    prods = w[:, :, None] * w[:, None, :]
    cov = prods.mean(axis=0)
    se = prods.std(axis=0, ddof=1) / np.sqrt(w.shape[0])
    want = np.minimum.outer(ts, ts)
    assert np.all(np.abs(cov - want) <= 4 * se + 5e-3)


def test_energy_weight_values():
    val, grad = wiener.energy_convex_weight(4).value_subgrad(np.zeros(4))
    assert val == 0.0
    assert np.all(grad == 0.0)
    # the path e_1 has h-frame coordinate 1/sqrt(lam_1)
    lam1 = 4.0 / np.pi ** 2
    xi = np.zeros(3)
    xi[0] = 1.0 / np.sqrt(lam1)
    val, grad = wiener.energy_convex_weight(3).value_subgrad(xi)
    assert val == pytest.approx(1.0, rel=1e-12)
    assert grad[0] == pytest.approx(4.0 / np.pi, rel=1e-12)
    assert grad[1] == 0.0


def test_energy_gradient_lipschitz():
    w = wiener.energy_convex_weight(32)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1000, 32))
    y = rng.standard_normal((1000, 32))
    num = np.linalg.norm(w.subgrad(x) - w.subgrad(y), axis=1)
    den = np.linalg.norm(x - y, axis=1)
    assert np.max(num / den) <= (4.0 / np.pi) * 1.01


def test_max_endpoint_ramp():
    grid = np.linspace(0.0, 1.0, 257)
    path = wiener.KLPathSample(coeffs=np.zeros(8), grid=grid, values=grid.copy())
    res = wiener.max_endpoint_weight(path)
    assert res.argmax == 1.0
    assert res.value == pytest.approx(2.0)
    assert not res.tie


def test_max_endpoint_negative_ramp():
    grid = np.linspace(0.0, 1.0, 257)
    path = wiener.KLPathSample(coeffs=np.zeros(8), grid=grid, values=-grid)
    res = wiener.max_endpoint_weight(path)
    assert res.argmax == 0.0
    assert res.value == pytest.approx(-1.0)


def test_max_endpoint_flat_tie_flagged():
    grid = np.linspace(0.0, 1.0, 9)
    path = wiener.KLPathSample(coeffs=np.zeros(4), grid=grid, values=np.zeros(9))
    res = wiener.max_endpoint_weight(path)
    assert res.tie
    assert res.argmax == 0.0


def test_max_functional_gateaux_limit():
    basis = wiener.WienerBasis(16)
    p = wiener.sample_path(basis, 4)
    res = wiener.max_endpoint_weight(p)
    assert not res.tie
    g = basis.h(p.grid)[2]
    ends = basis.h(np.array([res.argmax, 1.0]))[2]
    want = ends[0] + ends[1]

    def total(vals):
        return float(np.max(vals) + vals[-1])

    f0 = total(p.values)
    errs = [abs((total(p.values + t * g) - f0) / t - want)
            for t in (1e-2, 1e-3, 1e-4)]
    for t, err in zip((1e-2, 1e-3, 1e-4), errs):
        assert err <= 10.0 * t


def test_gradient_matches_gateaux_direction():
    # the h-frame gradient pairs with coefficient directions
    basis = wiener.WienerBasis(16)
    p = wiener.sample_path(basis, 4)
    res = wiener.max_endpoint_weight(p)
    t = 1e-5
    for i in (0, 2, 5):
        shifted = basis.path_values(p.coeffs + t * np.eye(16)[i], p.grid)
        dq = (float(np.max(shifted) + shifted[-1]) - res.value) / t
        assert dq == pytest.approx(res.gradient[i], abs=1e-6)


def test_weighted_divergence_constant_field():
    field = wiener.constant_field(np.array([1.0]))
    zero_grad = lambda z: np.zeros_like(z)
    assert wiener.weighted_divergence(field, zero_grad,
                                      np.array([0.7])) == pytest.approx(-0.7)


def test_weighted_divergence_quadratic_weight():
    lam1 = 4.0 / np.pi ** 2
    field = wiener.constant_field(np.array([1.0]))
    wgrad = lambda z: 2.0 * lam1 * z
    xi = np.array([0.9])
    want = -2.0 * lam1 * 0.9 - 0.9
    assert wiener.weighted_divergence(field, wgrad, xi) == pytest.approx(want)


def test_divergence_of_gradient_is_generator():
    # div_nu(grad u) must reproduce the truncated generator series exactly
    u = cos_linear(np.array([1.0, -0.5]))
    w = wiener.energy_convex_weight(2)
    field = wiener.gradient_field(u, 2)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((50, 2))
    div = wiener.weighted_divergence(field, lambda z: w.subgrad(z), pts)
    lap = np.sum(u.hessian_diag(pts), axis=-1)
    drift = np.sum((w.subgrad(pts) + pts) * u.gradient(pts), axis=-1)
    assert np.max(np.abs(div - (lap - drift))) < 1e-12


def test_ibp_constant_test_function():
    field = wiener.gradient_field(cos_linear(np.array([0.8])), 1)
    r = wiener.ibp_residual(constant(1.0), field, wiener.energy_convex_weight(1),
                            2, samples=50000, seed=0)
    assert abs(r.mean) <= 3 * r.std_error + 1e-3


def test_ibp_gaussian_moment_identity():
    # f = xi_1, constant field, no weight: E[1] - E[xi_1^2] = 0
    field = wiener.constant_field(np.array([1.0]))
    r = wiener.ibp_residual(coordinate(0), field, zero_weight(1), 2,
                            samples=50000, seed=1)
    assert abs(r.mean) <= 3 * r.std_error + 1e-3


def test_ibp_energy_weight():
    f = cos_linear(np.array([1.0, 0.5]))
    field = wiener.gradient_field(cos_linear(np.array([0.5, 1.0])), 2)
    r = wiener.ibp_residual(f, field, wiener.energy_convex_weight(2), 4,
                            samples=100000, seed=0)
    assert abs(r.mean) <= 3 * r.std_error + 1e-3


def test_ibp_rejects_small_ambient_dimension():
    field = wiener.constant_field(np.ones(3))
    with pytest.raises(ValueError):
        wiener.ibp_residual(constant(1.0), field, zero_weight(1), 2)


def test_path_csv_round_trip():
    basis = wiener.WienerBasis(8)
    p = wiener.sample_path(basis, 7, grid=np.linspace(0.0, 1.0, 33))
    text = wiener.path_to_csv(p)
    lines = text.strip().splitlines()
    assert lines[0] == "t,value"
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(data[:, 0], p.grid)
    assert np.array_equal(data[:, 1], p.values)


def test_fast_truncated_max_endpoint_matches_generic():
    base = wiener.max_endpoint_convex_weight(16)
    generic = galerkin.TruncatedWeight(base, 2, samples=64, seed=3)
    fast = wiener.max_endpoint_truncated(2, modes=16, samples=64, seed=3)
    pts = np.array([[0.3, -0.5], [1.0, 0.2], [-0.7, 0.9]])
    vg, _ = generic.value_batch(pts)
    assert np.max(np.abs(vg - fast.eval(pts))) < 1e-12
    assert np.max(np.abs(generic.subgrad_batch(pts) - fast.subgrad(pts))) < 1e-12


def test_max_endpoint_truncated_validation():
    with pytest.raises(ValueError):
        wiener.max_endpoint_truncated(0, modes=16)
    with pytest.raises(ValueError):
        wiener.max_endpoint_truncated(16, modes=16)


@pytest.mark.parametrize("n", [1, 2])
def test_truncated_max_endpoint_joint_oracle(n):
    """One pass gives the bits of eval and of subgrad, at any leading
    shape.  Both equal the brute-force (points, tails, times) broadcast
    bit for bit: the value is its running maximum (np.max) plus the
    endpoint, and the subgradient h(argmax) + h(1), averaged over tails.
    Checked on random points, on tensor-grid nodes (compact groups,
    where the time pruning drops most times) and on those nodes
    shuffled."""
    modes, samples, seed, times = 16, 8, 1, 64
    w = wiener.max_endpoint_truncated(n, modes=modes, samples=samples,
                                      seed=seed, time_points=times)
    x = np.random.default_rng(2).standard_normal((500, n)) * 2.0
    xs = x.reshape(5, 100, n)
    v, g = w.eval_subgrad(xs)
    assert v.shape == (5, 100) and g.shape == xs.shape
    assert np.array_equal(v, w.eval(xs))
    assert np.array_equal(g, w.subgrad(xs))
    vv, gg = w.value_subgrad(xs)
    assert np.array_equal(vv, v) and np.array_equal(gg, g)

    hmat = wiener.WienerBasis(modes).h(np.linspace(0.0, 1.0, times + 1))
    tails = substream(seed, TAIL_TAG, n, modes).standard_normal(
        (samples, modes - n))
    nodes = tensor_nodes(np.linspace(-4.0, 4.0, 81 if n == 2 else 3001), n)
    shuffled = nodes[np.random.default_rng(5).permutation(nodes.shape[0])]
    for pts in (x, nodes, shuffled):
        v, g = w.value_subgrad(pts)
        full = (pts @ hmat[:n])[:, None, :] + (tails @ hmat[n:])[None]
        assert np.array_equal(v, (np.max(full, -1) + full[:, :, -1]).mean(-1))
        top = hmat[:n].T[np.argmax(full, axis=-1)]
        assert np.array_equal(g, top.mean(axis=1) + hmat[:n, -1])


def test_pruned_argmax_keeps_first_of_tied_maxima():
    """Where several times reach the same maximum, the pruned argmax
    returns the first of them, as np.argmax does."""
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((60, 2))
    act = pts @ wiener.WienerBasis(2).h(np.linspace(0.0, 1.0, 21))
    tail_paths = rng.standard_normal((5, 21))
    act[:, 11] = act[:, 20] = act[:, 4]
    tail_paths[:, 11] = tail_paths[:, 20] = tail_paths[:, 4] = 10.0
    want = np.argmax(act[:, None, :] + tail_paths, axis=-1)
    assert np.all(want == 4)
    for groups in ([np.arange(60)], wiener._compact_groups(pts, 8)):
        got = wiener._pruned_argmax(act, tail_paths, groups)
        assert np.array_equal(got, want)


def test_truncated_max_endpoint_table_memory():
    """The n = 2 table at the max-endpoint workload's size (41,209 nodes,
    32 tails, 129 times) builds within 20 MB of traced allocations: no
    (points, tails, times) array is formed."""
    tracemalloc.start()
    try:
        galerkin.tabulate_weight(
            wiener.max_endpoint_truncated(2, modes=256, samples=32,
                                          time_points=128),
            6.3125, 1.0 / 16.0)
        peak = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak < 20.0


def test_max_endpoint_joint_oracle():
    """The joint oracle reconstructs the paths once and gives the bits of
    eval and of subgrad, at any leading shape."""
    w = wiener.max_endpoint_convex_weight(32, time_points=64)
    x = np.random.default_rng(4).standard_normal((300, 32))
    for xs in (x, x.reshape(3, 100, 32), x[0]):
        v, g = w.value_subgrad(xs)
        assert np.array_equal(v, w.eval(xs))
        assert np.array_equal(g, w.subgrad(xs))
        assert g.shape == xs.shape
