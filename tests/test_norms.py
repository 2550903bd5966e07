"""The L^2(nu) norm-ratio estimator on equally weighted draws of nu:
closed forms, the debiased numerator, degenerate cases, and the delta
method."""
import math

import numpy as np
import pytest

from ouelliptic.norms import sn_sqrt_ratio


def reference_one_term(num_sq, den_sq, num_sq_var=None):
    """sqrt(E num / E den) with the delta-method error on log(a / b)."""
    a = float(np.mean(num_sq))
    b = float(np.mean(den_sq))
    inner_se_a = 0.0
    if num_sq_var is not None:
        bias = float(np.mean(num_sq_var))
        a = a - bias
        inner_se_a = bias / np.sqrt(num_sq_var.size)
    a = max(a, 0.0)
    if b <= 0 or a == 0.0:
        return 0.0, np.inf
    q = num_sq.size
    infl_a = num_sq - a
    infl_b = den_sq - b
    var_a = np.var(infl_a, ddof=1) / q + inner_se_a ** 2
    var_b = np.var(infl_b, ddof=1) / q
    cov = float(np.cov(infl_a, infl_b, ddof=1)[0, 1]) / q
    ratio = np.sqrt(a / b)
    var_log = var_a / a ** 2 + var_b / b ** 2 - 2.0 * cov / (a * b)
    se = 0.5 * ratio * np.sqrt(max(var_log, 0.0))
    return float(ratio), float(se)


def test_constant_arrays_closed_form():
    est, se = sn_sqrt_ratio(np.full(40, 9.0), np.full(40, 4.0))
    assert est == pytest.approx(1.5, rel=1e-15)
    assert se == 0.0


def test_num_sq_var_subtracts_its_weighted_mean():
    est, _ = sn_sqrt_ratio(np.full(30, 4.0), np.ones(30),
                           num_sq_var=np.full(30, 3.0))
    assert est == pytest.approx(1.0, rel=1e-15)
    rng = np.random.default_rng(2)
    num, den, var = 1.0 + rng.random((3, 400))
    var *= 0.2
    est, _ = sn_sqrt_ratio(num, den, num_sq_var=var)
    want = math.sqrt((np.mean(num) - np.mean(var)) / np.mean(den))
    assert est == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError):
        sn_sqrt_ratio(np.stack([num, num]), den, num_sq_var=var)


def test_vanishing_numerator_and_denominator():
    assert sn_sqrt_ratio(np.zeros(50), np.ones(50)) == (0.0, math.inf)
    # debiased below zero: the numerator vanishes
    assert sn_sqrt_ratio(np.ones(50), np.ones(50),
                         num_sq_var=np.full(50, 2.0)) == (0.0, math.inf)
    est, se = sn_sqrt_ratio(np.ones(50), np.zeros(50))
    assert math.isnan(est) and math.isinf(se)


@pytest.mark.parametrize("debias", [False, True])
def test_one_term_matches_log_ratio_delta_method(debias):
    rng = np.random.default_rng(3 + debias)
    for _ in range(20):
        size = int(rng.integers(100, 2000))
        num = rng.gamma(2.0, size=size)
        den = rng.gamma(3.0, size=size) + 0.1 * num
        var = 0.05 * rng.random(size) if debias else None
        est, se = sn_sqrt_ratio(num, den, num_sq_var=var)
        want_est, want_se = reference_one_term(num, den, var)
        assert est == pytest.approx(want_est, rel=1e-12)
        assert se == pytest.approx(want_se, rel=1e-12)
