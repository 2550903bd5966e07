"""The self-normalized mean over terms, and the L^2(nu) norm-ratio
estimator: closed forms, sums of norms, the debiased numerator,
degenerate cases, and the one-term delta method."""
import math

import numpy as np
import pytest

from ouelliptic.norms import sn_sqrt_ratio, sn_sqrt_ratio_pair


def reference_one_term(num_sq, den_sq, logw, num_sq_var=None):
    """sqrt(E num / E den) with the delta-method error on log(a / b)."""
    w = np.exp(logw - np.max(logw))
    sw = np.sum(w)
    a = float(np.sum(w * num_sq) / sw)
    b = float(np.sum(w * den_sq) / sw)
    inner_se_a = 0.0
    if num_sq_var is not None:
        bias = float(np.sum(w * num_sq_var) / sw)
        a = a - bias
        inner_se_a = bias / np.sqrt(num_sq_var.size)
    a = max(a, 0.0)
    if b <= 0 or a == 0.0:
        return 0.0, np.inf
    q = num_sq.size
    wm = w.mean()
    infl_a = w * (num_sq - a) / wm
    infl_b = w * (den_sq - b) / wm
    var_a = np.var(infl_a, ddof=1) / q + inner_se_a ** 2
    var_b = np.var(infl_b, ddof=1) / q
    cov = float(np.cov(infl_a, infl_b, ddof=1)[0, 1]) / q
    ratio = np.sqrt(a / b)
    var_log = var_a / a ** 2 + var_b / b ** 2 - 2.0 * cov / (a * b)
    se = 0.5 * ratio * np.sqrt(max(var_log, 0.0))
    return float(ratio), float(se)


def weighted_mean(values, logw):
    w = np.exp(logw)
    return float(np.sum(w * values) / np.sum(w))


def test_constant_arrays_closed_form():
    est, se = sn_sqrt_ratio(np.full(40, 9.0), np.full(40, 4.0), np.zeros(40))
    assert est == pytest.approx(1.5, rel=1e-15)
    assert se == 0.0


def test_two_term_numerator_sums_norms():
    rng = np.random.default_rng(1)
    x, y, z = rng.random((3, 500))
    logw = 0.3 * rng.standard_normal(500)
    est, se = sn_sqrt_ratio(np.stack([x, y]), z, logw)
    want = ((math.sqrt(weighted_mean(x, logw)) + math.sqrt(weighted_mean(y, logw)))
            / math.sqrt(weighted_mean(z, logw)))
    assert est == pytest.approx(want, rel=1e-13)
    assert 0.0 < se < est


def test_num_sq_var_subtracts_its_weighted_mean():
    est, _ = sn_sqrt_ratio(np.full(30, 4.0), np.ones(30), np.zeros(30),
                           num_sq_var=np.full(30, 3.0))
    assert est == pytest.approx(1.0, rel=1e-15)
    rng = np.random.default_rng(2)
    num, den, var = 1.0 + rng.random((3, 400))
    var *= 0.2
    logw = 0.5 * rng.standard_normal(400)
    est, _ = sn_sqrt_ratio(num, den, logw, num_sq_var=var)
    want = math.sqrt((weighted_mean(num, logw) - weighted_mean(var, logw))
                     / weighted_mean(den, logw))
    assert est == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError):
        sn_sqrt_ratio(np.stack([num, num]), den, logw, num_sq_var=var)


def test_vanishing_numerator_and_denominator():
    assert sn_sqrt_ratio(np.zeros(50), np.ones(50), np.zeros(50)) == (0.0, math.inf)
    # debiased below zero: the numerator vanishes
    assert sn_sqrt_ratio(np.ones(50), np.ones(50), np.zeros(50),
                         num_sq_var=np.full(50, 2.0)) == (0.0, math.inf)
    est, se = sn_sqrt_ratio(np.ones(50), np.zeros(50), np.zeros(50))
    assert math.isnan(est) and math.isinf(se)


@pytest.mark.parametrize("debias", [False, True])
def test_one_term_matches_log_ratio_delta_method(debias):
    rng = np.random.default_rng(3 + debias)
    for _ in range(20):
        size = int(rng.integers(100, 2000))
        num = rng.gamma(2.0, size=size)
        den = rng.gamma(3.0, size=size) + 0.1 * num
        logw = rng.standard_normal(size)
        var = 0.05 * rng.random(size) if debias else None
        est, se = sn_sqrt_ratio(num, den, logw, num_sq_var=var)
        want_est, want_se = reference_one_term(num, den, logw, var)
        assert est == pytest.approx(want_est, rel=1e-12)
        assert se == pytest.approx(want_se, rel=1e-12)



def test_ratio_pair_is_both_ratios_bit_for_bit():
    """One pass gives num/den and den/num exactly as two calls do, the
    degenerate sides included."""
    rng = np.random.default_rng(4)
    logw = 0.4 * rng.standard_normal(300)
    graph, w22 = rng.random((2, 300)), rng.random((3, 300))
    zero = np.zeros((2, 300))
    for num, den in ((graph, w22), (zero, w22), (graph, zero)):
        pair = sn_sqrt_ratio_pair(num, den, logw)
        want = (sn_sqrt_ratio(num, den, logw), sn_sqrt_ratio(den, num, logw))
        assert np.array_equal(pair, want, equal_nan=True)
