"""Monte Carlo semigroup and resolvent checks against closed forms."""
import dataclasses
import itertools

import numpy as np
import pytest

from ouelliptic import mc, wiener
from ouelliptic.cylinder import (constant, coordinate, cos_linear, hermite,
                                 smoothed_indicator, tanh_coord)
from ouelliptic.rng import path_stream
from ouelliptic.weights import (diagonal_quadratic_weight, huber_weight,
                                quadratic_weight, zero_weight)

CFG_FAST = mc.DiffusionConfig(dt=5e-3, paths=2000, seed=5)
CFG_MID = mc.DiffusionConfig(dt=1e-3, paths=10000, seed=5)


def test_mehler_oracle_values():
    lin = coordinate(0)
    assert mc.mehler_oracle(lin, 0.0, np.array([2.0])) == pytest.approx(2.0)
    cos = cos_linear(np.array([1.0]))
    assert mc.mehler_oracle(cos, 50.0, np.array([7.0])) == pytest.approx(np.exp(-0.5), rel=1e-12)
    he2 = hermite(2)
    assert mc.mehler_oracle(he2, np.log(2.0), np.array([1.0])) == pytest.approx(0.0, abs=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        mc.DiffusionConfig(dt=0.0, paths=1000, seed=1)
    with pytest.raises(ValueError):
        mc.DiffusionConfig(dt=np.inf, paths=1000, seed=1)
    with pytest.raises(ValueError):
        mc.DiffusionConfig(dt=1e-2, paths=50, seed=1)


def test_terminal_at_time_zero():
    xi0 = np.array([1.5, -0.5])
    out = mc.simulate_terminal(zero_weight(2), xi0, 0.0, CFG_FAST)
    assert out.shape == (CFG_FAST.paths, 2)
    assert np.all(out == xi0)


def test_terminal_rejects_negative_time():
    with pytest.raises(ValueError):
        mc.simulate_terminal(zero_weight(1), np.array([0.0]), -1.0, CFG_FAST)


def test_stationary_law_unweighted():
    cfg = mc.DiffusionConfig(dt=1e-2, paths=4000, seed=9)
    out = mc.simulate_terminal(zero_weight(1), np.array([2.0]), 6.0, cfg)
    se_mean = 1.0 / np.sqrt(cfg.paths)
    se_var = np.sqrt(2.0 / cfg.paths)
    assert abs(out.mean()) <= 4 * se_mean + 0.02
    assert abs(out.var(ddof=1) - 1.0) <= 4 * se_var + 0.02


def test_stationary_law_quadratic_weight():
    # drift -2x gives stationary variance 2/(2*2) = 1/2
    cfg = mc.DiffusionConfig(dt=5e-3, paths=4000, seed=9)
    w = diagonal_quadratic_weight(np.full(1, 0.5))
    out = mc.simulate_terminal(w, np.array([1.0]), 5.0, cfg)
    se_var = 0.5 * np.sqrt(2.0 / cfg.paths)
    assert abs(out.var(ddof=1) - 0.5) <= 4 * se_var + 0.02


def test_linear_grad_declares_subgrad():
    x = np.random.default_rng(0).standard_normal((5, 3))
    for w in (zero_weight(3), diagonal_quadratic_weight(np.array([0.5, 0.0, 2.0]))):
        assert np.array_equal(w.subgrad(x), np.array(w.linear_grad) * x)
        assert hash(w) == hash(w)    # a tuple field keeps the weight hashable
    assert huber_weight(3).linear_grad is None
    assert quadratic_weight(np.eye(3)).linear_grad is None
    for bad in ((1.0, 1.0), (1.0, -1.0, 0.0)):
        with pytest.raises(ValueError, match="linear_grad"):
            dataclasses.replace(zero_weight(3), linear_grad=bad)


def test_exact_law_linear_drift_at_one_step():
    # kappa = 1 + 2 * 0.5 = 2; one Euler step of length t would give variance 2t
    kappa, t, xi = 2.0, 1.0, 1.5
    cfg = mc.DiffusionConfig(dt=t, paths=4000, seed=9)
    w = diagonal_quadratic_weight(np.array([0.5]))
    out = mc.simulate_terminal(w, np.array([xi]), t, cfg)[:, 0]
    var = (1.0 - np.exp(-2.0 * kappa * t)) / kappa
    assert var == pytest.approx(0.49, abs=1e-3)
    se_var = var * np.sqrt(2.0 / cfg.paths)
    assert abs(out.mean() - np.exp(-kappa * t) * xi) <= 4 * np.sqrt(var / cfg.paths)
    assert abs(out.var(ddof=1) - var) <= 4 * se_var


def test_terminal_deterministic():
    a = mc.simulate_terminal(zero_weight(2), np.array([1.0, 0.0]), 0.5, CFG_FAST)
    b = mc.simulate_terminal(zero_weight(2), np.array([1.0, 0.0]), 0.5, CFG_FAST)
    assert np.array_equal(a, b)


def test_semigroup_linear_mehler():
    f = coordinate(0)
    xi = np.array([2.0])
    got = mc.semigroup_apply(zero_weight(1), f, 1.0, xi, CFG_MID)
    want = mc.mehler_oracle(f, 1.0, xi)
    assert abs(got.mean - want) <= 3 * got.std_error + 2e-3


def test_semigroup_cosine_mehler():
    f = cos_linear(np.array([1.0]))
    xi = np.array([0.0])
    got = mc.semigroup_apply(zero_weight(1), f, 0.5, xi, CFG_MID)
    want = mc.mehler_oracle(f, 0.5, xi)
    assert want == pytest.approx(np.exp(-0.5 * (1 - np.exp(-1.0))), rel=1e-12)
    assert abs(got.mean - want) <= 3 * got.std_error + 2e-3


def test_semigroup_constant():
    got = mc.semigroup_apply(zero_weight(1), lambda x: np.full(x.shape[:-1], 4.0),
                             0.5, np.array([1.0]), CFG_FAST)
    assert got.mean == pytest.approx(4.0)
    assert got.std_error == 0.0


def test_semigroup_requires_positive_time():
    f = coordinate(0)
    with pytest.raises(ValueError):
        mc.semigroup_apply(zero_weight(1), f, 0.0, np.array([1.0]), CFG_FAST)


def test_semigroup_contraction_and_positivity():
    cos = cos_linear(np.array([1.0, 0.0, 0.0, 0.0]))
    step = smoothed_indicator(0.0, 0.5)
    for t in (0.25, 1.0):
        got = mc.semigroup_apply(zero_weight(4), cos, t, np.zeros(4), CFG_FAST)
        assert abs(got.mean) <= 1.0 + 3 * got.std_error
        pos = mc.semigroup_apply(zero_weight(4), step.value, t, np.zeros(4), CFG_FAST)
        assert pos.mean >= -3 * pos.std_error


def test_semigroup_gradient_linear():
    # common random numbers make the linear case exact up to dt bias
    f = coordinate(0)
    g = mc.semigroup_gradient(zero_weight(1), f, 1.0,
                              np.array([2.0]), mc.DiffusionConfig(dt=1e-3, paths=2000, seed=5))
    assert g[0].std_error <= 1e-12
    assert abs(g[0].mean - np.exp(-1.0)) <= 1e-3


def test_semigroup_gradient_constant():
    g = mc.semigroup_gradient(zero_weight(2), lambda x: np.full(x.shape[:-1], 3.0),
                              0.5, np.zeros(2), CFG_FAST)
    for gi in g:
        assert gi.mean == pytest.approx(0.0)
        assert gi.std_error == 0.0


def test_semigroup_gradient_tanh_bound():
    f = lambda x: np.tanh(x[..., 0])
    cfg = mc.DiffusionConfig(dt=2e-3, paths=5000, seed=7)
    g = mc.semigroup_gradient(zero_weight(1), f, 1.0, np.array([0.0]), cfg)
    bound = 1.0 / np.sqrt(1.0)
    assert abs(g[0].mean) <= bound * 1.05 + 3 * g[0].std_error


def test_gradient_bound_dimension_free():
    cos = cos_linear(np.array([1.0, 0.0, 0.0, 0.0]))
    w = diagonal_quadratic_weight(np.full(4, 0.5))
    cfg = mc.DiffusionConfig(dt=2e-3, paths=3000, seed=7)
    t = 0.25
    g = mc.semigroup_gradient(w, cos, t, 0.3 * np.ones(4), cfg)
    norm = np.sqrt(sum(gi.mean ** 2 for gi in g))
    se = np.sqrt(sum(gi.std_error ** 2 for gi in g))
    assert norm <= (1.0 / np.sqrt(t)) * 1.05 + 3 * se


def test_resolvent_constant():
    f = constant(3.0)
    got = mc.resolvent_apply(zero_weight(1), f, 2.0, np.array([0.5]), CFG_FAST)
    assert abs(got.mean - 1.5) <= got.std_error + 1e-12
    assert got.mean == pytest.approx(1.5, rel=1e-2)


def test_resolvent_linear_eigenfunction():
    f = coordinate(0)
    cfg = mc.DiffusionConfig(dt=4e-3, paths=4000, seed=5)
    got = mc.resolvent_apply(zero_weight(1), f, 1.0, np.array([2.0]), cfg)
    assert abs(got.mean - 1.0) <= 3 * got.std_error + 8e-3


def test_resolvent_hermite_eigenfunction():
    f = hermite(2)
    cfg = mc.DiffusionConfig(dt=4e-3, paths=6000, seed=5)
    xi = np.array([1.5])
    got = mc.resolvent_apply(zero_weight(1), f, 1.0, xi, cfg)
    want = (1.5 ** 2 - 1.0) / 3.0
    assert abs(got.mean - want) <= 3 * got.std_error + 2e-2


def test_resolvent_sup_bound():
    f = cos_linear(np.array([1.0]))
    for lam in (0.5, 2.0):
        got = mc.resolvent_apply(zero_weight(1), f, lam, np.array([0.3]), CFG_FAST)
        assert abs(got.mean) <= 1.0 / lam + 3 * got.std_error


def test_resolvent_rejects_bad_lambda():
    f = coordinate(0)
    w, x = zero_weight(1), np.array([0.0])
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="lam must be positive"):
            mc.resolvent_apply(w, f, lam, x, CFG_FAST)
        with pytest.raises(ValueError, match="lam must be positive"):
            mc.resolvent_batch(w, x[None, :], [f], [1.0, lam], CFG_FAST)
        with pytest.raises(ValueError, match="lam must be positive"):
            mc.resolvent_derivatives(w, f, lam, x, CFG_FAST)


def test_resolvent_derivatives_linear():
    f = coordinate(0)
    cfg = mc.DiffusionConfig(dt=4e-3, paths=4000, seed=5)
    grad, hess = mc.resolvent_derivatives(zero_weight(1), f, 1.0, np.array([2.0]), cfg)
    assert abs(grad[0].mean - 0.5) <= 3 * grad[0].std_error + 5e-3
    assert abs(hess[0, 0].mean) <= 3 * hess[0, 0].std_error + 1e-9


def test_resolvent_derivatives_constant():
    f = constant(2.0)
    grad, hess = mc.resolvent_derivatives(zero_weight(2), f, 1.0, np.zeros(2), CFG_FAST)
    for g in grad:
        assert g.mean == pytest.approx(0.0)
    for i in range(2):
        for j in range(2):
            assert hess[i, j].mean == pytest.approx(0.0)


def _richardson_jet(w, f, lam, xi, h, cfg):
    """Reference per-path gradient and Hessian of R(lam) f at xi in
    f.coords: Richardson central differences at steps h and 2h of
    resolvent_batch values at shifted starts, which share their noise
    (common random numbers).  Exact for polynomials of degree 4 in the
    start: grad_i = (8 D_i(h) - D_i(2h)) / 12h with D_i(s) = u(+s e_i) -
    u(-s e_i), and each Hessian entry (4 H(h) - H(2h)) / 3 of the second
    differences H (three-point on the diagonal, four-point cross off it).
    """
    k = f.a.size
    unit = np.eye(k, dtype=int)
    shifts = {(0,) * k}
    for i in range(k):
        shifts |= {tuple(s * unit[i]) for s in (1, -1, 2, -2)}
    for i, j in itertools.combinations(range(k), 2):
        shifts |= {tuple(s * (si * unit[i] + sj * unit[j]))
                   for s in (1, 2) for si in (1, -1) for sj in (1, -1)}
    shifts = sorted(shifts)
    starts = xi + h * (np.array(shifts) @ np.eye(xi.size)[f.coords])
    vals = mc.resolvent_batch(w, starts, [f], [lam], cfg)[0][0].value
    u = dict(zip(shifts, vals))

    def at(*moves):                      # u at h * sum of (coord, steps)
        m = [0] * k
        for i, s in moves:
            m[i] += s
        return u[tuple(m)]

    def second(i, j, s):                 # second difference at step s h
        if i == j:
            return (at((i, s)) - 2.0 * at() + at((i, -s))) / (s * h) ** 2
        return (at((i, s), (j, s)) - at((i, s), (j, -s)) - at((i, -s), (j, s))
                + at((i, -s), (j, -s))) / (2 * s * h) ** 2

    grad = np.stack([(8.0 * (at((i, 1)) - at((i, -1)))
                      - (at((i, 2)) - at((i, -2)))) / (12.0 * h)
                     for i in range(k)])
    hess = np.array([[(4.0 * second(i, j, 1) - second(i, j, 2)) / 3.0
                      for j in range(k)] for i in range(k)])
    return grad, hess


@pytest.mark.parametrize("f", [tanh_coord(0.8),
                               smoothed_indicator(0.1, 0.5, coord=1),
                               hermite(3), cos_linear(np.array([0.6, -0.8]))],
                         ids=["tanh", "step", "He3", "cos2"])
def test_pathwise_jet_matches_richardson(f):
    """The pathwise gradient and Hessian agree per path with Richardson
    differences of the values under common random numbers."""
    w = diagonal_quadratic_weight(np.array([0.5, 0.25]))
    xi = np.array([0.3, -0.4])
    cfg = mc.DiffusionConfig(dt=0.05, paths=200, seed=3)
    jet = mc.resolvent_batch(w, xi[None, :], [f], [1.0], cfg)[0][0]
    grad, hess = _richardson_jet(w, f, 1.0, xi, 0.05, cfg)
    assert jet.grad.shape == (f.a.size, 1, cfg.paths)
    assert jet.hess.shape == (f.a.size, f.a.size, 1, cfg.paths)
    for got, want in ((jet.grad[:, 0], grad), (jet.hess[:, :, 0], hess)):
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-5 * np.abs(want).max())


def test_resolvent_jets_hermite_closed_form():
    """Under the zero weight R(lam) He_k = He_k / (lam + k), so its first
    and second derivatives are k He_{k-1} / (lam + k) and
    k (k - 1) He_{k-2} / (lam + k)."""
    x, lams = 1.2, [0.5, 1.0, 2.0]

    def he(j):                           # He_j(x), and 0 for j < 0
        if j < 0:
            return 0.0
        return np.polynomial.hermite_e.hermeval(x, np.eye(j + 1)[j])

    fs = [hermite(k) for k in (1, 2, 3)]
    cfg = mc.DiffusionConfig(dt=0.02, paths=4000, seed=8)
    acc = mc.resolvent_batch(zero_weight(1), np.array([[x]]), fs, lams, cfg)
    for i, lam in enumerate(lams):
        for k, jet in zip((1, 2, 3), acc[i]):
            wants = [he(k), k * he(k - 1), k * (k - 1) * he(k - 2)]
            for per_path, want in zip((jet.value[0], jet.grad[0, 0],
                                       jet.hess[0, 0, 0]), wants):
                got = mc.MCValue.of_paths(per_path)
                err = abs(got.mean - want / (lam + k))
                assert err <= 3 * got.std_error + 2e-3


def _he(j, s):
    """Probabilists' Hermite polynomial He_j at s, and 0 for j < 0."""
    if j < 0:
        return np.zeros_like(s)
    return np.polynomial.hermite_e.hermeval(s, np.eye(j + 1)[j])


@pytest.mark.parametrize("kappa", [1.0, 1.5], ids=["zero", "diag"])
def test_resolvent_oracle_hermite_closed_form(kappa):
    """Under the drift -kappa x, f = He_k(sqrt(kappa) x) is an eigenfunction
    with eigenvalue -k kappa, so R(lam) f = f / (lam + k kappa).  Every
    time integrand is then a polynomial in v = e^{-t/2} of degree below
    32, and the Hermite sums are exact: the oracle is exact to roundoff."""
    w = zero_weight(1) if kappa == 1.0 else diagonal_quadratic_weight(
        np.array([(kappa - 1.0) / 2.0]))
    x = np.linspace(-2.5, 2.5, 11)[:, None]
    s = np.sqrt(kappa) * x[:, 0]
    for k in (1, 2, 3, 4):
        f = dataclasses.replace(hermite(k), a=np.array([np.sqrt(kappa)]))
        for lam in (0.5, 1.0, 2.0):
            u, grad, hess = mc.resolvent_oracle(w, f, lam, x)
            assert grad.shape == (1, x.shape[0])
            assert hess.shape == (1, 1, x.shape[0])
            den = lam + k * kappa
            wants = (_he(k, s) / den,
                     np.sqrt(kappa) * k * _he(k - 1, s) / den,
                     kappa * k * (k - 1) * _he(k - 2, s) / den)
            for got, want in zip((u, grad[0], hess[0, 0]), wants):
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-14 * max(np.abs(want).max(), 1.0))


def _energy_cloud(n, seed=0, points=32):
    """The energy weight at dimension n and points of its stationary law."""
    w = diagonal_quadratic_weight(wiener.WienerBasis(n).lam)
    x = np.random.default_rng(seed).standard_normal((points, n))
    return w, x / np.sqrt(1.0 + np.asarray(w.linear_grad))


@pytest.mark.parametrize("n", [2, 4])
def test_resolvent_oracle_matches_fine_reference(n):
    """16 time and 20 Hermite nodes against 48 and 60: within 1e-5 of the
    reference's largest entry, for the value, gradient and Hessian."""
    w, x = _energy_cloud(n)
    for f in (tanh_coord(), smoothed_indicator(0.0, 0.5)):
        for lam in (0.5, 1.0, 2.0):
            got = mc.resolvent_oracle(w, f, lam, x)
            ref = mc.resolvent_oracle(w, f, lam, x, time_nodes=48,
                                      hermite_nodes=60)
            for a, b in zip(got, ref):
                assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max()


def test_exact_path_jets_match_oracle():
    """At 2,000 paths the path means of the value, gradient and Hessian
    lie within 4 standard errors of the oracle at 32 stationary points:
    both integrate over time on the same nodes, so the only difference is
    sampling noise (measured: at most 1.5 standard errors)."""
    w, x = _energy_cloud(4, seed=2)
    fs = [tanh_coord(), cos_linear(np.array([1.0, 1.0]) / np.sqrt(2.0)),
          smoothed_indicator(0.0, 0.5)]
    lams = [0.5, 1.0, 2.0]
    cfg = mc.DiffusionConfig(dt=0.02, paths=2000, seed=7)
    acc = mc.resolvent_batch(w, x, fs, lams, cfg)
    for i, lam in enumerate(lams):
        for j, f in enumerate(fs):
            for per_path, want in zip(acc[i][j], mc.resolvent_oracle(w, f, lam, x)):
                mean = per_path.mean(-1)
                se = per_path.std(-1, ddof=1) / np.sqrt(cfg.paths)
                assert np.all(se > 0)
                assert np.all(np.abs(mean - want) <= 4.0 * se)


def test_resolvent_oracle_needs_linear_grad():
    with pytest.raises(ValueError, match="linear_grad"):
        mc.resolvent_oracle(huber_weight(1), tanh_coord(), 1.0, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="lam must be positive"):
        mc.resolvent_oracle(zero_weight(1), tanh_coord(), 0.0, np.zeros((1, 1)))


def test_resolvent_derivatives_need_linear_grad():
    with pytest.raises(ValueError, match="linear_grad"):
        mc.resolvent_derivatives(huber_weight(1), tanh_coord(), 1.0,
                                 np.array([0.0]), CFG_FAST)


def test_paths_need_linear_grad():
    """Only a linear drift has exact paths; any other weight raises."""
    w, f, x = huber_weight(1), tanh_coord(), np.array([0.0])
    with pytest.raises(ValueError, match="linear_grad"):
        mc.resolvent_batch(w, x[None, :], [f], [1.0], CFG_FAST)
    with pytest.raises(ValueError, match="linear_grad"):
        mc.simulate_terminal(w, x, 1.0, CFG_FAST)
    with pytest.raises(ValueError, match="linear_grad"):
        mc.semigroup_apply(w, f, 1.0, x, CFG_FAST)


def test_resolvent_gradient_bound_tanh():
    f = tanh_coord()
    cfg = mc.DiffusionConfig(dt=4e-3, paths=4000, seed=7)
    grad, _ = mc.resolvent_derivatives(zero_weight(1), f, 1.0, np.array([0.0]), cfg)
    assert abs(grad[0].mean) <= np.sqrt(np.pi) + 3 * grad[0].std_error + 1e-2


def _same_jets(a, b):
    """Two PathJets agree bit for bit."""
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_resolvent_batch_shares_ensemble_across_lambdas():
    # each lam of a batch sees exactly the paths and weights of a lone call
    w = diagonal_quadratic_weight(np.full(2, 0.5))
    f = cos_linear(np.array([1.0, 1.0]) / np.sqrt(2))
    starts = np.array([[0.0, 0.0], [0.8, -0.5]])
    cfg = mc.DiffusionConfig(dt=4e-3, paths=500, seed=5)
    lams = [0.5, 1.0, 2.0]
    acc = mc.resolvent_batch(w, starts, [f], lams, cfg)
    for i, lam in enumerate(lams):
        one_acc = mc.resolvent_batch(w, starts, [f], [lam], cfg)
        assert _same_jets(acc[i][0], one_acc[0][0])


@pytest.mark.parametrize("w", [diagonal_quadratic_weight(np.array([0.5, 0.25]))],
                         ids=["linear-drift"])
def test_resolvent_batch_chunk_invariant(w, monkeypatch):
    # per-path noise streams: splitting the paths into chunks changes no bit
    starts = np.array([[0.0, 0.0], [0.8, -0.5], [-1.2, 0.3]])
    fs = [cos_linear(np.array([1.0, 1.0]) / np.sqrt(2)), tanh_coord()]
    cfg = mc.DiffusionConfig(dt=0.05, paths=300, seed=11)
    acc = mc.resolvent_batch(w, starts, fs, [0.5, 2.0], cfg)
    monkeypatch.setattr(mc, "_STATE_BUDGET", starts.size * 100)   # 3 chunks
    chunked_acc = mc.resolvent_batch(w, starts, fs, [0.5, 2.0], cfg)
    for row, chunked_row in zip(acc, chunked_acc):
        for a, b in zip(row, chunked_row):
            assert _same_jets(a, b)


def _state_batch(w, starts, fs, lams, cfg):
    """resolvent_batch as computed from full states: the (S, B, n) states
    x = e^{-kappa t} start + N_t built at each time of mc.laplace_rule,
    with N jumping from one time to the next by the exact OU transition
    and drawn as one (times, n) array per path, f evaluated on them and
    summed with each lam's node weights."""
    times, node_w = mc.laplace_rule(lams)
    assert times.size == mc.TIME_NODES and np.all(np.diff(times) > 0)
    kappa = 1.0 + np.asarray(w.linear_grad)[:, None]
    n = starts.shape[1]
    noise = np.stack([path_stream(cfg.seed, p).standard_normal((times.size, n))
                      for p in range(cfg.paths)], axis=0)
    noise = np.ascontiguousarray(noise.transpose(1, 2, 0))
    part = np.zeros((n, cfg.paths))
    x = np.empty((starts.shape[0], cfg.paths, n))
    acc = [[np.zeros((starts.shape[0], cfg.paths)) for _ in fs] for _ in lams]
    t_prev = 0.0
    for k, t in enumerate(times):
        one_step, scale = mc.ou_transition(kappa, t - t_prev)
        t_prev = t
        part *= one_step
        part += scale * noise[k]
        mean = np.exp(-kappa * t) * starts.T
        np.add(mean[:, :, None], part[:, None, :], out=x.transpose(2, 0, 1))
        for j, f in enumerate(fs):
            v = f(x)
            for i in range(len(lams)):
                acc[i][j] += node_w[i, k] * v
    return acc


def test_projected_observer_matches_states():
    """The exact branch observes <a, X_t> per start and per path; from
    full states the value sums agree bit for bit, and to roundoff for the
    cosine, which is summed by angle addition."""
    w = diagonal_quadratic_weight(np.array([0.5, 0.25, 1.0]))
    starts = np.random.default_rng(3).standard_normal((12, 3))
    exact_fs = [tanh_coord(0.8), smoothed_indicator(0.1, 0.5, coord=1),
                constant(2.0), hermite(3, coord=2)]
    trig_fs = [cos_linear(np.array([1.0, 1.0]) / np.sqrt(2)),
               cos_linear(np.array([0.6, -0.8, 0.5]))]
    lams = [0.5, 2.0]
    cfg = mc.DiffusionConfig(dt=0.1, paths=150, seed=4)
    acc = mc.resolvent_batch(w, starts, exact_fs + trig_fs, lams, cfg)
    want = _state_batch(w, starts, exact_fs + trig_fs, lams, cfg)
    for i in range(len(lams)):
        for j in range(len(exact_fs)):
            assert np.array_equal(acc[i][j].value, want[i][j])
        for j in range(len(exact_fs), len(exact_fs) + len(trig_fs)):
            np.testing.assert_allclose(acc[i][j].value, want[i][j], rtol=1e-13,
                                       atol=1e-13 * np.abs(want[i][j]).max())


def test_cross_validation_grid_vs_mc():
    from ouelliptic import grid

    f = cos_linear(np.array([1.0]))
    lam = 1.0
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    [sol] = grid.solve_elliptic_grid(zero_weight(1), [f.value], lam, spec)
    u = grid.GridFunction(sol)
    cfg = mc.DiffusionConfig(dt=2e-3, paths=8000, seed=5)
    for xi in (0.0, 0.8, -1.2):
        got = mc.resolvent_apply(zero_weight(1), f, lam, np.array([xi]), cfg)
        want = float(u.value(np.array([[xi]]))[0])
        assert abs(got.mean - want) <= 0.02 * abs(want) + 3 * got.std_error

