"""Smooth cylindrical test functions with analytic derivatives.

These are the functions fed to the generator, the grid solver and the
norm estimators.  Each one depends on finitely many coordinates but is
evaluated on points of any dimension >= active_dim.  All callables are
vectorized over leading axes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class CylinderFunction:
    """Function on R^n with analytic gradient and Hessian.

    value: (..., n) -> (...,)
    gradient: (..., n) -> (..., n)
    hessian: (..., n) -> (..., n, n)
    """
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    active_dim: int = 1
    sup_norm: Optional[float] = None
    label: str = ""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value(x)

    def hessian_diag(self, x: np.ndarray) -> np.ndarray:
        h = self.hessian(x)
        return np.diagonal(h, axis1=-2, axis2=-1)


def _zeros_like_points(x):
    return np.zeros(np.shape(x)[:-1])


def constant(c: float) -> CylinderFunction:
    return CylinderFunction(
        value=lambda x: np.full(np.shape(x)[:-1], float(c)),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        hessian=lambda x: np.zeros(np.shape(x) + (np.shape(x)[-1],)),
        active_dim=0,
        sup_norm=abs(float(c)),
        label=f"const({c})",
    )


def from_scalar(f, df, d2f, coord: int = 0, sup_norm: Optional[float] = None,
                label: str = "") -> CylinderFunction:
    """Lift a scalar profile t -> f(t) applied to one coordinate."""

    def value(x):
        return f(np.asarray(x, dtype=float)[..., coord])

    def gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., coord] = df(x[..., coord])
        return g

    def hessian(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        h = np.zeros(x.shape + (n,))
        h[..., coord, coord] = d2f(x[..., coord])
        return h

    return CylinderFunction(value, gradient, hessian, active_dim=coord + 1,
                            sup_norm=sup_norm, label=label)


def coordinate(coord: int = 0) -> CylinderFunction:
    return from_scalar(lambda t: t, lambda t: np.ones_like(t), lambda t: np.zeros_like(t),
                       coord=coord, label=f"xi{coord + 1}")


def hermite(k: int, coord: int = 0) -> CylinderFunction:
    """Probabilists' Hermite polynomial He_k of one coordinate."""
    ck = np.zeros(k + 1)
    ck[k] = 1.0
    he = np.polynomial.hermite_e
    d1 = he.hermeder(ck, 1)
    d2 = he.hermeder(ck, 2)
    return from_scalar(lambda t: he.hermeval(t, ck),
                       lambda t: he.hermeval(t, d1),
                       lambda t: he.hermeval(t, d2),
                       coord=coord, label=f"He{k}")


def tanh_coord(scale: float = 1.0, coord: int = 0) -> CylinderFunction:
    s = float(scale)

    def f(t):
        return np.tanh(s * t)

    def df(t):
        return s / np.cosh(s * t) ** 2

    def d2f(t):
        return -2.0 * s * s * np.tanh(s * t) / np.cosh(s * t) ** 2

    return from_scalar(f, df, d2f, coord=coord, sup_norm=1.0, label="tanh")


def smoothed_indicator(center: float = 0.0, width: float = 0.5,
                       coord: int = 0) -> CylinderFunction:
    """Logistic step 1/(1+exp(-(t-center)/width)), a smooth indicator of
    the half line above `center`."""
    c, w = float(center), float(width)

    def sig(t):
        return 1.0 / (1.0 + np.exp(-(t - c) / w))

    def f(t):
        return sig(t)

    def df(t):
        s = sig(t)
        return s * (1.0 - s) / w

    def d2f(t):
        s = sig(t)
        return s * (1.0 - s) * (1.0 - 2.0 * s) / (w * w)

    return from_scalar(f, df, d2f, coord=coord, sup_norm=1.0, label="step")


def cos_linear(a: np.ndarray) -> CylinderFunction:
    """cos(a . x); couples every coordinate with a nonzero entry of a."""
    a = np.asarray(a, dtype=float)
    k = a.size

    def pad(x):
        return np.asarray(x, dtype=float)[..., :k] @ a

    def value(x):
        return np.cos(pad(x))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., :k] = -np.sin(pad(x))[..., None] * a
        return g

    def hessian(x):
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        h = np.zeros(x.shape + (n,))
        h[..., :k, :k] = -np.cos(pad(x))[..., None, None] * np.multiply.outer(a, a)
        return h

    return CylinderFunction(value, gradient, hessian, active_dim=k, sup_norm=1.0,
                            label="cos")
