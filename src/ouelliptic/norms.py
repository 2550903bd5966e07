"""Self-normalized importance sampling under weighted Gaussian measures.

All integrals against the unnormalized measure e^{-U} d(gaussian) are
estimated as ratios of sample averages, so the unknown normalizing
constant cancels.  Standard errors come from the delta method applied to
the joint average (influence functions), which also covers ratios of two
such integrals over shared samples.
"""
from __future__ import annotations

import math

import numpy as np


def sn_mean(values: np.ndarray, logw: np.ndarray) -> tuple[float, float]:
    """Mean of `values` (one per sample point) under the self-normalized
    weights exp(logw), and its delta-method standard error."""
    values = np.asarray(values, dtype=float)
    w = np.exp(logw - np.max(logw))
    est = float(np.sum(w * values) / np.sum(w))
    infl = w * (values - est) / w.mean()
    se = float(np.std(infl, ddof=1) / np.sqrt(values.size))
    return est, se


def _norm_sum(terms: np.ndarray, w: np.ndarray, bias: float = 0.0):
    """Sum of the terms' L^2(nu) norms under the sample weights w, and its
    influence function; bias is subtracted from each squared norm."""
    sw, wm = np.sum(w), w.mean()
    total, infl = 0.0, np.zeros(w.size)
    for sq in terms:
        m = float(np.sum(w * sq) / sw) - bias
        if m <= 0.0:
            continue
        total += math.sqrt(m)
        infl = infl + (w * (sq - m) / wm) / (2.0 * math.sqrt(m))
    return total, infl


def _ratio(a: float, infl_a: np.ndarray, b: float, infl_b: np.ndarray,
           inner_se: float = 0.0) -> tuple[float, float]:
    """a / b of two norm sums and its delta-method standard error."""
    if b == 0.0:
        return math.nan, math.inf
    if a == 0.0:
        return 0.0, math.inf
    infl = infl_a / b - a * infl_b / b ** 2
    # the inner noise enters through d(sqrt(m) / b) / dm = 1 / (2 a b)
    se = math.hypot(float(np.std(infl, ddof=1)) / math.sqrt(infl.size),
                    inner_se / (2.0 * a * b))
    return a / b, se


def sn_sqrt_ratio(num_sq: np.ndarray, den_sq: np.ndarray, logw: np.ndarray,
                  num_sq_var: np.ndarray | None = None) -> tuple[float, float]:
    """sum_i sqrt(E_nu[num_sq_i]) / sum_j sqrt(E_nu[den_sq_j]), a ratio of
    sums of L^2(nu) norms, with a delta-method standard error.

    num_sq and den_sq hold per-sample squared integrand values on shared
    sample points, one row per term: (terms, samples), or (samples,) for
    one term.  A term whose mean is <= 0 contributes nothing.  When a
    one-term numerator carries extra inner Monte Carlo noise, pass its
    per-sample variance in num_sq_var: the mean inner variance is
    subtracted from the numerator (debiasing the square) and propagated
    into the reported error.  A vanishing numerator gives (0, inf), a
    vanishing denominator (nan, inf).
    """
    num_sq = np.atleast_2d(np.asarray(num_sq, dtype=float))
    w = np.exp(logw - np.max(logw))
    bias = inner_se = 0.0
    if num_sq_var is not None:
        if num_sq.shape[0] != 1:
            raise ValueError("num_sq_var needs a one-term numerator")
        bias = float(np.sum(w * num_sq_var) / np.sum(w))
        inner_se = bias / math.sqrt(np.size(num_sq_var))
    a, infl_a = _norm_sum(num_sq, w, bias)
    b, infl_b = _norm_sum(np.atleast_2d(np.asarray(den_sq, dtype=float)), w)
    return _ratio(a, infl_a, b, infl_b, inner_se)


def sn_sqrt_ratio_pair(num_sq: np.ndarray, den_sq: np.ndarray,
                       logw: np.ndarray) -> tuple[tuple, tuple]:
    """(sn_sqrt_ratio(num_sq, den_sq, logw), sn_sqrt_ratio(den_sq, num_sq,
    logw)), bit for bit, from one pass over each side's terms."""
    w = np.exp(logw - np.max(logw))
    a, infl_a = _norm_sum(np.atleast_2d(np.asarray(num_sq, dtype=float)), w)
    b, infl_b = _norm_sum(np.atleast_2d(np.asarray(den_sq, dtype=float)), w)
    return _ratio(a, infl_a, b, infl_b), _ratio(b, infl_b, a, infl_a)


def sn_norm(values_sq: np.ndarray, logw: np.ndarray) -> tuple[float, float]:
    """L^2(nu) norm from per-sample squared values."""
    m, se = sn_mean(values_sq, logw)
    m = max(m, 0.0)
    if m == 0.0:
        return 0.0, np.sqrt(max(se, 0.0))
    return float(np.sqrt(m)), float(se / (2.0 * np.sqrt(m)))
