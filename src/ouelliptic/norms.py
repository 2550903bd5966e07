"""Weighted means and L^2(nu) norms from sample points.

sn_mean and sn_norm take importance weights exp(logw) and estimate
integrals against the unnormalized measure e^{-U} d(gaussian) as ratios
of sample averages, so the unknown normalizing constant cancels (the
ladder's cloud).  sn_sqrt_ratio takes draws of nu itself, each of equal
weight (the Monte Carlo route's cloud).  Standard errors come from the
delta method applied to the joint average (influence functions), which
also covers ratios of two such integrals over shared samples.
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


def sn_sqrt_ratio(num_sq: np.ndarray, den_sq: np.ndarray,
                  num_sq_var: np.ndarray | None = None) -> tuple[float, float]:
    """sqrt(E_nu[num_sq]) / sqrt(E_nu[den_sq]), a ratio of L^2(nu) norms,
    with a delta-method standard error.

    num_sq and den_sq hold per-point squared integrand values (samples,)
    at shared draws of nu.  When the numerator carries extra inner Monte
    Carlo noise, pass its per-point variance in num_sq_var: the mean
    inner variance is subtracted from the numerator (debiasing the
    square) and propagated into the reported error.  A vanishing
    numerator gives (0, inf), a vanishing denominator (nan, inf).
    """
    def norm(sq, bias=0.0):
        # the norm and its influence function; 0 and None if it vanishes
        m = float(np.mean(sq)) - bias
        if m <= 0.0:
            return 0.0, None
        return math.sqrt(m), (sq - m) / (2.0 * math.sqrt(m))

    num_sq, den_sq = (np.asarray(sq, dtype=float) for sq in (num_sq, den_sq))
    if num_sq.shape != den_sq.shape:
        raise ValueError("num_sq and den_sq need one value per sample point")
    bias = inner_se = 0.0
    if num_sq_var is not None:
        bias = float(np.mean(num_sq_var))
        inner_se = bias / math.sqrt(np.size(num_sq_var))
    a, infl_a = norm(num_sq, bias)
    b, infl_b = norm(den_sq)
    if b == 0.0:
        return math.nan, math.inf
    if a == 0.0:
        return 0.0, math.inf
    infl = infl_a / b - a * infl_b / b ** 2
    # the inner noise enters through d(sqrt(m) / b) / dm = 1 / (2 a b)
    se = math.hypot(float(np.std(infl, ddof=1)) / math.sqrt(infl.size),
                    inner_se / (2.0 * a * b))
    return a / b, se


def sn_norm(values_sq: np.ndarray, logw: np.ndarray) -> tuple[float, float]:
    """L^2(nu) norm from per-sample squared values."""
    m, se = sn_mean(values_sq, logw)
    m = max(m, 0.0)
    if m == 0.0:
        return 0.0, np.sqrt(max(se, 0.0))
    return float(np.sqrt(m)), float(se / (2.0 * np.sqrt(m)))
