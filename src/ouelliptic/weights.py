"""Convex weight functions and their value/subgradient oracles.

A weight is a convex function on R^n handed around as a pair of oracles.
All oracles are vectorized: ``eval`` maps an array of shape (..., n) to
(...,) and ``subgrad`` maps (..., n) to (..., n).  ``grad_lip`` is a
Lipschitz constant for the gradient when the weight is differentiable
with Lipschitz gradient, else None.  ``linear_grad`` declares a
coordinatewise linear gradient, ``subgrad(x) == linear_grad * x``, for
the weights that have one (zero and diagonal quadratics), else None.
``eval_subgrad`` is an optional joint oracle returning ``(eval(x),
subgrad(x))`` from one pass, for weights whose value and subgradient
share their costly part (the truncated max-endpoint weight and tables).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ConvexWeight:
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    subgrad: Callable[[np.ndarray], np.ndarray]
    grad_lip: Optional[float] = None
    label: str = ""
    linear_grad: Optional[tuple[float, ...]] = None
    eval_subgrad: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("weight dimension must be >= 1")
        if self.grad_lip is not None and self.grad_lip < 0:
            raise ValueError("grad_lip must be nonnegative")
        if self.linear_grad is not None and (
                len(self.linear_grad) != self.dim or min(self.linear_grad) < 0):
            raise ValueError("linear_grad needs dim nonnegative entries")

    def value_subgrad(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(eval(x), subgrad(x)): the joint oracle if declared, else the
        two oracles one after the other."""
        if self.eval_subgrad is not None:
            return self.eval_subgrad(x)
        return self.eval(x), self.subgrad(x)

    def drift(self, x) -> np.ndarray:
        """-(subgrad(x) + x), the drift of the diffusion generated by the
        weighted Ornstein-Uhlenbeck operator."""
        return -(np.asarray(self.subgrad(x)) + x)


def zero_weight(dim: int) -> ConvexWeight:
    return ConvexWeight(
        dim=dim,
        eval=lambda x: np.zeros(np.shape(x)[:-1]),
        subgrad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        grad_lip=0.0,
        label="zero",
        linear_grad=(0.0,) * dim,
    )


def linear_weight(a: np.ndarray, b: float = 0.0) -> ConvexWeight:
    a = np.asarray(a, dtype=float)
    return ConvexWeight(
        dim=a.size,
        eval=lambda x: np.asarray(x) @ a + b,
        subgrad=lambda x: np.broadcast_to(a, np.shape(x)).copy(),
        grad_lip=0.0,
        label="linear",
    )


def quadratic_weight(q: np.ndarray, b: Optional[np.ndarray] = None, c: float = 0.0,
                     label: str = "quadratic") -> ConvexWeight:
    """x -> x.q.x/2 + b.x + c with q symmetric positive semidefinite."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    bv = np.zeros(n) if b is None else np.asarray(b, dtype=float)
    lip = float(np.linalg.eigvalsh(q).max()) if n > 1 else float(q[0, 0])

    def val(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, q, x) + x @ bv + c

    def grad(x):
        return np.asarray(x, dtype=float) @ q + bv

    return ConvexWeight(dim=n, eval=val, subgrad=grad, grad_lip=lip, label=label)


def diagonal_quadratic_weight(coeffs: np.ndarray, label: str = "diag-quadratic") -> ConvexWeight:
    """x -> sum_i coeffs_i * x_i^2, coeffs >= 0."""
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(coeffs < 0):
        raise ValueError("coefficients must be nonnegative")

    def value(x):
        sq = np.square(x, dtype=float)      # one temporary, scaled in place
        sq *= coeffs
        return np.sum(sq, axis=-1)

    return ConvexWeight(
        dim=coeffs.size,
        eval=value,
        subgrad=lambda x: 2.0 * coeffs * np.asarray(x, dtype=float),
        grad_lip=float(2.0 * coeffs.max()),
        label=label,
        linear_grad=tuple(float(g) for g in 2.0 * coeffs),
    )


def abs_weight(dim: int, scale: float = 1.0) -> ConvexWeight:
    """x -> scale * sum_i |x_i|; the subgradient at a kink is 0 by convention."""
    return ConvexWeight(
        dim=dim,
        eval=lambda x: scale * np.sum(np.abs(x), axis=-1),
        subgrad=lambda x: scale * np.sign(x),
        grad_lip=None,
        label="abs",
    )


def huber_weight(dim: int, delta: float = 1.0) -> ConvexWeight:
    """Coordinatewise Huber: x^2/2 inside [-delta, delta], linear outside."""

    def val(x):
        ax = np.abs(x)
        per = np.where(ax <= delta, 0.5 * np.square(x), delta * ax - 0.5 * delta * delta)
        return np.sum(per, axis=-1)

    return ConvexWeight(
        dim=dim,
        eval=val,
        subgrad=lambda x: np.clip(x, -delta, delta),
        grad_lip=1.0,
        label="huber",
    )


def max_affine_weight(a: np.ndarray, b: np.ndarray) -> ConvexWeight:
    """x -> max_j (a_j . x + b_j); ties resolved to the first maximizing piece."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def val(x):
        return np.max(np.asarray(x) @ a.T + b, axis=-1)

    def grad(x):
        idx = np.argmax(np.asarray(x) @ a.T + b, axis=-1)
        return a[idx]

    return ConvexWeight(dim=a.shape[1], eval=val, subgrad=grad, grad_lip=None,
                        label="max-affine")


def logsumexp_weight(a: np.ndarray, b: np.ndarray) -> ConvexWeight:
    """x -> log sum_j exp(a_j . x + b_j)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lip = float(np.max(np.sum(a * a, axis=1)))

    def scores(x):
        return np.asarray(x) @ a.T + b

    def val(x):
        s = scores(x)
        m = np.max(s, axis=-1, keepdims=True)
        return (m[..., 0] + np.log(np.sum(np.exp(s - m), axis=-1)))

    def grad(x):
        s = scores(x)
        m = np.max(s, axis=-1, keepdims=True)
        p = np.exp(s - m)
        p /= np.sum(p, axis=-1, keepdims=True)
        return p @ a

    return ConvexWeight(dim=a.shape[1], eval=val, subgrad=grad, grad_lip=lip,
                        label="log-sum-exp")


def standard_family(dim: int, rng: Optional[np.random.Generator] = None) -> list[ConvexWeight]:
    """Labeled weights used by the property tests: quadratics, Huber,
    max-of-affines and log-sum-exp, plus the degenerate zero/linear cases."""
    if rng is None:
        rng = np.random.default_rng(0)
    m = rng.standard_normal((dim, dim))
    q = m @ m.T / dim + 0.1 * np.eye(dim)
    pieces = max(3, dim + 2)
    a = rng.standard_normal((pieces, dim))
    b = rng.standard_normal(pieces)
    return [
        zero_weight(dim),
        linear_weight(rng.standard_normal(dim)),
        quadratic_weight(q, rng.standard_normal(dim)),
        huber_weight(dim, delta=float(rng.uniform(0.5, 2.0))),
        abs_weight(dim),
        max_affine_weight(a, b),
        logsumexp_weight(a, b),
    ]
