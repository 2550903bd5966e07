"""Weighted means and L^2(nu) norms from importance-sampled points.

sn_mean and sn_norm take importance weights exp(logw) and estimate
integrals against the unnormalized measure e^{-U} d(gaussian) as ratios
of sample averages, so the unknown normalizing constant cancels (the
ladder rungs' clouds).  Standard errors come from the delta
method applied to the ratio of the two averages (influence functions).
"""
from __future__ import annotations

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


def sn_norm(values_sq: np.ndarray, logw: np.ndarray) -> tuple[float, float]:
    """L^2(nu) norm from per-sample squared values."""
    m, se = sn_mean(values_sq, logw)
    m = max(m, 0.0)
    if m == 0.0:
        return 0.0, np.sqrt(max(se, 0.0))
    return float(np.sqrt(m)), float(se / (2.0 * np.sqrt(m)))
