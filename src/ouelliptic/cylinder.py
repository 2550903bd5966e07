"""Smooth cylindrical test functions in ridge form.

Every test function is a scalar profile g applied to one projection:
f(x) = g(<a, x_c>), where x_c are the consecutive coordinates `coords`
and a is given on those coordinates only.  So grad f = g'(<a, x_c>) a
and D^2 f = g''(<a, x_c>) a (x) a, both zero off coords.  Functions are
evaluated on points of any dimension >= active_dim and are vectorized
over leading axes.  The Monte Carlo engine reads (coords, a, g) directly,
so a separable diffusion only has to carry the projection <a, X_t>; the
harness's domain rows read (coords, a, g, dg, d2g), so |grad f|^2 =
g'^2 |a|^2, ||D^2 f||_HS^2 = (g'' |a|^2)^2 and the generator applied to
f are per-point vectors, with no gradient or Hessian array built.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True, eq=False)
class CylinderFunction:
    """f(x) = g(<a, x[first:first + len(a)]>) with profile derivatives dg, d2g.

    value: (..., n) -> (...,)
    gradient: (..., n) -> (..., n)
    hessian: (..., n) -> (..., n, n)
    """
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    d2g: Callable[[np.ndarray], np.ndarray]
    a: np.ndarray
    first: int = 0
    sup_norm: Optional[float] = None
    label: str = ""

    @property
    def coords(self) -> slice:
        return slice(self.first, self.first + self.a.size)

    @property
    def active_dim(self) -> int:
        return self.coords.stop if self.a.size else 0

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., self.coords] @ self.a

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.value(x)

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.g(self.project(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., self.coords] = self.dg(self.project(x))[..., None] * self.a
        return out

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (x.shape[-1],))
        c = self.coords
        out[..., c, c] = (self.d2g(self.project(x))[..., None, None]
                          * np.multiply.outer(self.a, self.a))
        return out

    def hessian_diag(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., self.coords] = self.d2g(self.project(x))[..., None] * (self.a * self.a)
        return out


def constant(c: float) -> CylinderFunction:
    c = float(c)
    return CylinderFunction(lambda t: np.full(np.shape(t), c), np.zeros_like,
                            np.zeros_like, np.zeros(0), sup_norm=abs(c),
                            label=f"const({c})")


def from_scalar(f, df, d2f, coord: int = 0, sup_norm: Optional[float] = None,
                label: str = "") -> CylinderFunction:
    """Lift a scalar profile t -> f(t) applied to one coordinate.  With
    a = (1.0,) the projection is that coordinate exactly, and so are the
    products by a in the gradient and Hessian."""
    return CylinderFunction(f, df, d2f, np.ones(1), coord, sup_norm, label)


def coordinate(coord: int = 0) -> CylinderFunction:
    return from_scalar(lambda t: t, np.ones_like, np.zeros_like,
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
    return from_scalar(lambda t: np.tanh(s * t),
                       lambda t: s / np.cosh(s * t) ** 2,
                       lambda t: -2.0 * s * s * np.tanh(s * t) / np.cosh(s * t) ** 2,
                       coord=coord, sup_norm=1.0, label="tanh")


def smoothed_indicator(center: float = 0.0, width: float = 0.5,
                       coord: int = 0) -> CylinderFunction:
    """Logistic step 1/(1+exp(-(t-center)/width)), a smooth indicator of
    the half line above `center`."""
    c, w = float(center), float(width)

    def sig(t):
        return 1.0 / (1.0 + np.exp(-(t - c) / w))

    def df(t):
        s = sig(t)
        return s * (1.0 - s) / w

    def d2f(t):
        s = sig(t)
        return s * (1.0 - s) * (1.0 - 2.0 * s) / (w * w)

    return from_scalar(sig, df, d2f, coord=coord, sup_norm=1.0, label="step")


def cos_linear(a: np.ndarray) -> CylinderFunction:
    """cos(a . x) on the first a.size coordinates.  The profile is np.cos
    itself, which the Monte Carlo engine evaluates by angle addition."""
    return CylinderFunction(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t),
                            np.asarray(a, dtype=float), sup_norm=1.0, label="cos")
