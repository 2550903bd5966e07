"""Monte Carlo semigroup and resolvent checks against closed forms."""
import numpy as np
import pytest

from ouelliptic import mc
from ouelliptic.cylinder import smoothed_indicator
from ouelliptic.weights import diagonal_quadratic_weight, quadratic_weight, zero_weight

CFG_FAST = mc.DiffusionConfig(dt=5e-3, paths=2000, seed=5)
CFG_MID = mc.DiffusionConfig(dt=1e-3, paths=10000, seed=5)


def test_mehler_oracle_values():
    lin = mc.MehlerFunction(kind="linear", a=np.array([1.0]))
    assert mc.mehler_oracle(lin, 0.0, np.array([2.0])) == pytest.approx(2.0)
    cos = mc.MehlerFunction(kind="cosine", a=np.array([1.0]))
    assert mc.mehler_oracle(cos, 50.0, np.array([7.0])) == pytest.approx(np.exp(-0.5), rel=1e-12)
    he2 = mc.MehlerFunction(kind="hermite", k=2)
    assert mc.mehler_oracle(he2, np.log(2.0), np.array([1.0])) == pytest.approx(0.0, abs=1e-14)


def test_mehler_function_validation():
    with pytest.raises(ValueError):
        mc.MehlerFunction(kind="sine", a=np.array([1.0]))
    with pytest.raises(ValueError):
        mc.MehlerFunction(kind="linear")
    with pytest.raises(ValueError):
        mc.MehlerFunction(kind="hermite")


def test_config_validation():
    with pytest.raises(ValueError):
        mc.DiffusionConfig(dt=0.0, paths=1000, seed=1)
    with pytest.raises(ValueError):
        mc.DiffusionConfig(dt=9.0, paths=1000, seed=1, t_max=8.0)
    with pytest.raises(ValueError):
        mc.DiffusionConfig(dt=1e-2, paths=50, seed=1)
    with pytest.raises(ValueError):
        mc.DiffusionConfig(dt=1e-2, paths=1000, seed=1, quad_nodes=1)


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
    w = quadratic_weight(np.eye(1))
    out = mc.simulate_terminal(w, np.array([1.0]), 5.0, cfg)
    se_var = 0.5 * np.sqrt(2.0 / cfg.paths)
    assert abs(out.var(ddof=1) - 0.5) <= 4 * se_var + 0.02


def test_terminal_deterministic():
    a = mc.simulate_terminal(zero_weight(2), np.array([1.0, 0.0]), 0.5, CFG_FAST)
    b = mc.simulate_terminal(zero_weight(2), np.array([1.0, 0.0]), 0.5, CFG_FAST)
    assert np.array_equal(a, b)


def test_semigroup_linear_mehler():
    f = mc.MehlerFunction(kind="linear", a=np.array([1.0]))
    xi = np.array([2.0])
    got = mc.semigroup_apply(zero_weight(1), f, 1.0, xi, CFG_MID)
    want = mc.mehler_oracle(f, 1.0, xi)
    assert abs(got.mean - want) <= 3 * got.std_error + 2e-3


def test_semigroup_cosine_mehler():
    f = mc.MehlerFunction(kind="cosine", a=np.array([1.0]))
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
    f = mc.MehlerFunction(kind="linear", a=np.array([1.0]))
    with pytest.raises(ValueError):
        mc.semigroup_apply(zero_weight(1), f, 0.0, np.array([1.0]), CFG_FAST)


def test_semigroup_contraction_and_positivity():
    cos = mc.MehlerFunction(kind="cosine", a=np.array([1.0, 0.0, 0.0, 0.0]))
    step = smoothed_indicator(0.0, 0.5)
    for t in (0.25, 1.0):
        got = mc.semigroup_apply(zero_weight(4), cos, t, np.zeros(4), CFG_FAST)
        assert abs(got.mean) <= 1.0 + 3 * got.std_error
        pos = mc.semigroup_apply(zero_weight(4), step.value, t, np.zeros(4), CFG_FAST)
        assert pos.mean >= -3 * pos.std_error


def test_semigroup_gradient_linear():
    # common random numbers make the linear case exact up to dt bias
    f = mc.MehlerFunction(kind="linear", a=np.array([1.0]))
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
    cos = mc.MehlerFunction(kind="cosine", a=np.array([1.0, 0.0, 0.0, 0.0]))
    w = quadratic_weight(np.eye(4))
    cfg = mc.DiffusionConfig(dt=2e-3, paths=3000, seed=7)
    t = 0.25
    g = mc.semigroup_gradient(w, cos, t, 0.3 * np.ones(4), cfg)
    norm = np.sqrt(sum(gi.mean ** 2 for gi in g))
    se = np.sqrt(sum(gi.std_error ** 2 for gi in g))
    assert norm <= (1.0 / np.sqrt(t)) * 1.05 + 3 * se


def test_resolvent_constant():
    f = lambda x: np.full(x.shape[:-1], 3.0)
    f.__dict__ = {}
    got = mc.resolvent_apply(zero_weight(1), f, 2.0, np.array([0.5]), CFG_FAST)
    assert abs(got.mean - 1.5) <= got.std_error + 1e-12
    assert got.mean == pytest.approx(1.5, rel=1e-2)


def test_resolvent_linear_eigenfunction():
    f = mc.MehlerFunction(kind="linear", a=np.array([1.0]))
    cfg = mc.DiffusionConfig(dt=4e-3, paths=4000, seed=5)
    got = mc.resolvent_apply(zero_weight(1), f, 1.0, np.array([2.0]), cfg)
    assert abs(got.mean - 1.0) <= 3 * got.std_error + 8e-3


def test_resolvent_hermite_eigenfunction():
    f = mc.MehlerFunction(kind="hermite", k=2)
    cfg = mc.DiffusionConfig(dt=4e-3, paths=6000, seed=5)
    xi = np.array([1.5])
    got = mc.resolvent_apply(zero_weight(1), f, 1.0, xi, cfg)
    want = (1.5 ** 2 - 1.0) / 3.0
    assert abs(got.mean - want) <= 3 * got.std_error + 2e-2


def test_resolvent_sup_bound():
    f = mc.MehlerFunction(kind="cosine", a=np.array([1.0]))
    for lam in (0.5, 2.0):
        got = mc.resolvent_apply(zero_weight(1), f, lam, np.array([0.3]), CFG_FAST)
        assert abs(got.mean) <= 1.0 / lam + 3 * got.std_error


def test_resolvent_rejects_bad_lambda():
    f = mc.MehlerFunction(kind="linear", a=np.array([1.0]))
    with pytest.raises(ValueError):
        mc.resolvent_apply(zero_weight(1), f, 0.0, np.array([0.0]), CFG_FAST)


def test_resolvent_derivatives_linear():
    f = mc.MehlerFunction(kind="linear", a=np.array([1.0]))
    cfg = mc.DiffusionConfig(dt=4e-3, paths=4000, seed=5)
    grad, hess = mc.resolvent_derivatives(zero_weight(1), f, 1.0, np.array([2.0]), cfg)
    assert abs(grad[0].mean - 0.5) <= 3 * grad[0].std_error + 5e-3
    assert abs(hess[0, 0].mean) <= 3 * hess[0, 0].std_error + 1e-9


def test_resolvent_derivatives_constant():
    f = lambda x: np.full(x.shape[:-1], 2.0)
    grad, hess = mc.resolvent_derivatives(zero_weight(2), f, 1.0, np.zeros(2), CFG_FAST)
    for g in grad:
        assert g.mean == pytest.approx(0.0)
    for i in range(2):
        for j in range(2):
            assert hess[i, j].mean == pytest.approx(0.0)


def test_resolvent_gradient_bound_tanh():
    f = lambda x: np.tanh(x[..., 0])
    f_obj = type("F", (), {"__call__": staticmethod(f), "sup_norm": 1.0})()
    cfg = mc.DiffusionConfig(dt=4e-3, paths=4000, seed=7)
    grad, _ = mc.resolvent_derivatives(zero_weight(1), f_obj, 1.0, np.array([0.0]), cfg)
    assert abs(grad[0].mean) <= np.sqrt(np.pi) + 3 * grad[0].std_error + 1e-2


def test_resolvent_batch_shares_ensemble_across_lambdas():
    # each lam of a batch sees exactly the paths and weights of a lone call
    w = diagonal_quadratic_weight(np.full(2, 0.5))
    f = mc.MehlerFunction(kind="cosine", a=np.array([1.0, 1.0]) / np.sqrt(2))
    starts = np.array([[0.0, 0.0], [0.8, -0.5]])
    cfg = mc.DiffusionConfig(dt=4e-3, paths=500, seed=5)
    lams = [0.5, 1.0, 2.0]
    acc, tails = mc.resolvent_batch(w, starts, [f], lams, cfg)
    for i, lam in enumerate(lams):
        one_acc, one_tails = mc.resolvent_batch(w, starts, [f], [lam], cfg)
        assert np.array_equal(acc[i][0], one_acc[0][0])
        assert np.array_equal(tails[i][0], one_tails[0][0])


def test_cross_validation_grid_vs_mc():
    from ouelliptic import cylinder, grid

    f = mc.MehlerFunction(kind="cosine", a=np.array([1.0]))
    lam = 1.0
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1 / 32)
    fgrid = cylinder.cos_linear(np.array([1.0]))
    sol = grid.solve_elliptic_grid(zero_weight(1), fgrid.value, lam, spec)
    u = grid.GridFunction(sol)
    cfg = mc.DiffusionConfig(dt=2e-3, paths=8000, seed=5)
    for xi in (0.0, 0.8, -1.2):
        got = mc.resolvent_apply(zero_weight(1), f, lam, np.array([xi]), cfg)
        want = float(u.value(np.array([[xi]]))[0])
        assert abs(got.mean - want) <= 0.02 * abs(want) + 3 * got.std_error
