"""Finite-difference oracle for the weighted generator on a box.

Discretizes L u = Lap(u) - <grad(phi) + x, grad(u)> on [-R, R]^n
(n = 1 or 2) with second-order central diffusion.  The drift term is
differenced centrally wherever the cell Peclet number |b| h / 2 <= 1
(which preserves the M-matrix structure and keeps the scheme second
order on resolved grids) and falls back to first-order upwinding where
it exceeds 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .rng import substream, MISC_TAG
from .weights import ConvexWeight

_BOUNDARIES = ("reflecting", "absorbing")


@dataclass(frozen=True)
class GridSpec:
    dim: int
    radius: float
    mesh: float
    boundary: str = "reflecting"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("grid oracle supports dim 1 or 2")
        if not (self.mesh > 0 and self.radius > self.mesh):
            raise ValueError("need 0 < mesh < radius")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")

    @property
    def half_cells(self) -> int:
        return int(np.floor(self.radius / self.mesh + 1e-12))

    @property
    def npoints(self) -> int:
        return 2 * self.half_cells + 1

    def axis(self) -> np.ndarray:
        m = self.half_cells
        return self.mesh * np.arange(-m, m + 1)

    def points(self) -> np.ndarray:
        """All grid points, shape (npoints**dim, dim), x-major."""
        ax = self.axis()
        if self.dim == 1:
            return ax[:, None]
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=1)


@dataclass
class GridSolution:
    spec: GridSpec
    values: np.ndarray                 # (N,) or (N, N)
    gradient: np.ndarray               # values.shape + (dim,)
    residual_norm: float
    time: Optional[float] = None       # set for parabolic slices

    def interior_mask(self, margin_cells: int = 2) -> np.ndarray:
        n = self.spec.npoints
        mask1 = np.zeros(n, dtype=bool)
        mask1[margin_cells:n - margin_cells] = True
        if self.spec.dim == 1:
            return mask1
        return np.outer(mask1, mask1)


def _mirror(idx: np.ndarray, n: int) -> np.ndarray:
    """Reflect out-of-range indices back into [0, n)."""
    out = idx.copy()
    out[idx < 0] = -idx[idx < 0]
    out[idx >= n] = 2 * (n - 1) - idx[idx >= n]
    return out


def _drift_field(weight: ConvexWeight, points: np.ndarray) -> np.ndarray:
    """b = -(grad phi + x), the drift of the associated diffusion."""
    return -(np.atleast_2d(weight.subgrad(points)) + points)


def _assemble(weight: ConvexWeight, spec: GridSpec):
    """Sparse matrix K approximating -L on the grid (row sums zero for
    reflecting boundaries, so constants are in its kernel)."""
    n = spec.npoints
    h = spec.mesh
    pts = spec.points()
    b = _drift_field(weight, pts)
    size = n ** spec.dim
    rows, cols, vals = [], [], []
    flat = np.arange(size)

    if spec.dim == 1:
        idx = [flat]
    else:
        idx = [flat // n, flat % n]

    for d in range(spec.dim):
        up = [i.copy() for i in idx]
        dn = [i.copy() for i in idx]
        up[d] = _mirror(idx[d] + 1, n)
        dn[d] = _mirror(idx[d] - 1, n)
        if spec.dim == 1:
            kup, kdn = up[0], dn[0]
        else:
            kup = up[0] * n + up[1]
            kdn = dn[0] * n + dn[1]

        # diffusion: -(u+ - 2u + u-)/h^2
        rows += [flat, flat, flat]
        cols += [flat, kup, kdn]
        vals += [np.full(size, 2.0 / h ** 2), np.full(size, -1.0 / h ** 2),
                 np.full(size, -1.0 / h ** 2)]

        bd = b[:, d]
        c = np.abs(bd) * h / 2.0 <= 1.0

        # -b du: centered -> -b (u+ - u-)/(2h)
        rows += [flat[c], flat[c]]
        cols += [kup[c], kdn[c]]
        vals += [-bd[c] / (2.0 * h), bd[c] / (2.0 * h)]

        # upwind: b>0 -> -b (u+ - u)/h ; b<0 -> -b (u - u-)/h
        w = ~c
        pos = w & (bd > 0)
        neg = w & (bd <= 0)
        rows += [flat[pos], flat[pos], flat[neg], flat[neg]]
        cols += [kup[pos], flat[pos], kdn[neg], flat[neg]]
        vals += [-bd[pos] / h, bd[pos] / h, bd[neg] / h, -bd[neg] / h]

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def _boundary_flat(spec: GridSpec) -> np.ndarray:
    n = spec.npoints
    if spec.dim == 1:
        return np.array([0, n - 1])
    flat = np.arange(n * n)
    i, j = flat // n, flat % n
    return flat[(i == 0) | (i == n - 1) | (j == 0) | (j == n - 1)]


def _grid_gradient(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    h = spec.mesh
    if spec.dim == 1:
        return np.gradient(values, h)[:, None]
    gx = np.gradient(values, h, axis=0)
    gy = np.gradient(values, h, axis=1)
    return np.stack([gx, gy], axis=-1)


def assemble_operator(weight: ConvexWeight, spec: GridSpec):
    """Public handle on the discrete -L matrix, reusable across solves
    with different lam and right-hand sides."""
    return _assemble(weight, spec)


def solve_elliptic_grid(weight: ConvexWeight, f: Callable, lam: float,
                        spec: GridSpec, operator=None) -> GridSolution:
    """Solve lam*u - L u = f on the grid, returning values and gradient.

    Pass a precomputed assemble_operator(...) result as `operator` to skip
    reassembly when solving for several lam or f with one weight.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    k = _assemble(weight, spec) if operator is None else operator
    size = k.shape[0]
    a = (sp.eye(size, format="csr") * lam + k).tolil()
    pts = spec.points()
    rhs = np.asarray(f(pts), dtype=float).ravel()
    if spec.boundary == "absorbing":
        for kk in _boundary_flat(spec):
            a.rows[kk] = [int(kk)]
            a.data[kk] = [1.0]
            rhs[kk] = rhs[kk] / lam
    a = a.tocsr()
    u = spla.spsolve(a, rhs)
    residual = float(np.max(np.abs(a @ u - rhs)))
    shape = (spec.npoints,) * spec.dim
    values = u.reshape(shape)
    return GridSolution(spec=spec, values=values,
                        gradient=_grid_gradient(values, spec),
                        residual_norm=residual)


def solve_parabolic_grid(weight: ConvexWeight, f: Callable, horizon: float,
                         steps: int, spec: GridSpec) -> list[GridSolution]:
    """Implicit-Euler marching of dv/dt = L v, v(0) = f; returns all slices."""
    if not (horizon > 0 and steps >= 1):
        raise ValueError("need horizon > 0 and steps >= 1")
    dt = horizon / steps
    k = _assemble(weight, spec)
    size = k.shape[0]
    a = (sp.eye(size, format="csc") + dt * k)
    if spec.boundary == "absorbing":
        a = a.tolil()
        for kk in _boundary_flat(spec):
            a.rows[kk] = [int(kk)]
            a.data[kk] = [1.0]
        a = a.tocsc()
    lu = spla.splu(a.tocsc())
    pts = spec.points()
    v = np.asarray(f(pts), dtype=float).ravel()
    if spec.boundary == "absorbing":
        v[_boundary_flat(spec)] = 0.0
    shape = (spec.npoints,) * spec.dim
    out = [GridSolution(spec=spec, values=v.reshape(shape),
                        gradient=_grid_gradient(v.reshape(shape), spec),
                        residual_norm=0.0, time=0.0)]
    for step in range(1, steps + 1):
        rhs = v
        if spec.boundary == "absorbing":
            rhs = v.copy()
            rhs[_boundary_flat(spec)] = 0.0
        v = lu.solve(rhs)
        res = float(np.max(np.abs(a @ v - rhs)))
        vv = v.reshape(shape)
        out.append(GridSolution(spec=spec, values=vv,
                                gradient=_grid_gradient(vv, spec),
                                residual_norm=res, time=step * dt))
    return out


def apply_generator(weight: ConvexWeight, u, xi: np.ndarray) -> np.ndarray:
    """L u at xi for a function exposing gradient and hessian_diag."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    lap = np.sum(u.hessian_diag(xi), axis=-1)
    drift = np.sum((np.atleast_2d(weight.subgrad(xi)) + xi) * u.gradient(xi), axis=-1)
    out = lap - drift
    return out[0] if out.size == 1 else out


def lyapunov_margin(weight: ConvexWeight, radius: float, samples: int = 4096) -> float:
    """Max of L |xi|^2 = 2n - 2<grad phi, xi> - 2|xi|^2 over the ball.

    The sample cloud always contains the origin, so the unweighted case
    attains its supremum 2n exactly.
    """
    n = weight.dim
    rng = substream(0, MISC_TAG, n, samples)
    raw = rng.standard_normal((samples, n))
    radii = radius * rng.uniform(0, 1, samples) ** (1.0 / n)
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    pts = raw / norms[:, None] * radii[:, None]
    pts[0] = 0.0
    grads = np.atleast_2d(weight.subgrad(pts))
    vals = 2.0 * n - 2.0 * np.sum(grads * pts, axis=1) - 2.0 * np.sum(pts * pts, axis=1)
    return float(np.max(vals))


def bernstein_monitor(slices: Sequence[GridSolution], margin_cells: int = 2) -> float:
    """Max over positive times and interior points of |v|^2 + t |grad v|^2."""
    best = -np.inf
    for sol in slices:
        if sol.time is None:
            raise ValueError("bernstein_monitor needs time-stamped parabolic slices")
        if sol.time <= 0:
            continue
        mask = sol.interior_mask(margin_cells)
        z = sol.values ** 2 + sol.time * np.sum(sol.gradient ** 2, axis=-1)
        best = max(best, float(np.max(z[mask])))
    if not np.isfinite(best):
        raise ValueError("no positive-time slices supplied")
    return best


class GridFunction:
    """Interpolated view of a grid solution: value, gradient, Hessian.

    Derivative arrays are built with central differences on the grid and
    then interpolated linearly, which keeps evaluations off the nodes
    consistent with the discrete solution.
    """

    def __init__(self, sol: GridSolution):
        from scipy.interpolate import RegularGridInterpolator

        self.spec = sol.spec
        ax = sol.spec.axis()
        axes = (ax,) * sol.spec.dim
        h = sol.spec.mesh
        d = sol.spec.dim
        vals = sol.values

        def interp(arr):
            return RegularGridInterpolator(axes, arr, bounds_error=False, fill_value=None)

        self._value = interp(vals)
        grads = [np.gradient(vals, h, axis=i) for i in range(d)]
        self._grad = [interp(g) for g in grads]
        self._hess = {}
        for i in range(d):
            for j in range(i, d):
                if i == j:
                    arr = (np.roll(vals, -1, axis=i) - 2 * vals + np.roll(vals, 1, axis=i)) / h ** 2
                    # one-sided copies at the faces
                    sl_lo = [slice(None)] * d
                    sl_hi = [slice(None)] * d
                    sl_lo[i] = 0
                    sl_hi[i] = -1
                    inner_lo = [slice(None)] * d
                    inner_hi = [slice(None)] * d
                    inner_lo[i] = 1
                    inner_hi[i] = -2
                    arr[tuple(sl_lo)] = arr[tuple(inner_lo)]
                    arr[tuple(sl_hi)] = arr[tuple(inner_hi)]
                else:
                    arr = np.gradient(np.gradient(vals, h, axis=i), h, axis=j)
                self._hess[(i, j)] = interp(arr)

    def value(self, x):
        return self._value(np.atleast_2d(x))

    def gradient(self, x):
        x = np.atleast_2d(x)
        return np.stack([g(x) for g in self._grad], axis=-1)

    def hessian(self, x):
        x = np.atleast_2d(x)
        d = self.spec.dim
        out = np.zeros(x.shape[:-1] + (d, d))
        for (i, j), itp in self._hess.items():
            out[..., i, j] = out[..., j, i] = itp(x)
        return out

    def hessian_diag(self, x):
        x = np.atleast_2d(x)
        d = self.spec.dim
        return np.stack([self._hess[(i, i)](x) for i in range(d)], axis=-1)

    def __call__(self, x):
        return self.value(x)
