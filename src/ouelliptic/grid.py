"""Finite-difference oracle for the weighted generator on a box.

Discretizes L u = Lap(u) - <grad(phi) + x, grad(u)> on [-R, R]^n
(n = 1 or 2) with second-order central diffusion.  The drift term is
differenced centrally wherever the cell Peclet number |b| h / 2 <= 1
(which preserves the M-matrix structure and keeps the scheme second
order on resolved grids) and falls back to first-order upwinding where
it exceeds 1.

Boundaries are reflecting: out-of-range neighbours are mirrored back
into the box, so every row of the discrete -L sums to zero and constants
are solutions.  One factorisation of lam*I - L serves every right-hand
side at a given lam.  The mirrored five-point stencil has a symmetric
sparsity pattern, so SuperLU orders its columns by minimum degree on
A^T + A (MMD_AT_PLUS_A), which gives sparser factors and a faster solve
than the default COLAMD ordering.

scipy.sparse is imported by the first assembly or solve, not with the
module, so a run that solves no grid problem never loads scipy.
apply_generator is the generic L u of any function with a gradient and a
Hessian diagonal, kept as the reference the closed-form domain rows are
tested against.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .weights import ConvexWeight

@dataclass(frozen=True)
class GridSpec:
    dim: int
    radius: float
    mesh: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("grid oracle supports dim 1 or 2")
        if not (self.mesh > 0 and self.radius > self.mesh):
            raise ValueError("need 0 < mesh < radius")

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
        return tensor_nodes(self.axis(), self.dim)


def tensor_nodes(axis: np.ndarray, dim: int) -> np.ndarray:
    """The tensor grid axis^dim as points (axis.size**dim, dim), x-major."""
    return np.stack(np.meshgrid(*(axis,) * dim, indexing="ij"),
                    axis=-1).reshape(-1, dim)


def _mirror(idx: np.ndarray, n: int) -> np.ndarray:
    """Reflect out-of-range indices back into [0, n)."""
    out = idx.copy()
    out[idx < 0] = -idx[idx < 0]
    out[idx >= n] = 2 * (n - 1) - idx[idx >= n]
    return out


def assemble_operator(weight: ConvexWeight, spec: GridSpec):
    """Sparse matrix K approximating -L on the grid (row sums zero, so
    constants are in its kernel), reusable across lam and right-hand
    sides."""
    import scipy.sparse as sp

    n = spec.npoints
    h = spec.mesh
    b = weight.drift(spec.points())
    shape = (n,) * spec.dim
    size = n ** spec.dim
    rows, cols, vals = [], [], []
    flat = np.arange(size)
    idx = np.unravel_index(flat, shape)

    for d in range(spec.dim):
        up, dn = list(idx), list(idx)
        up[d] = _mirror(idx[d] + 1, n)
        dn[d] = _mirror(idx[d] - 1, n)
        kup = np.ravel_multi_index(up, shape)
        kdn = np.ravel_multi_index(dn, shape)

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


def solve_elliptic_grid(weight: ConvexWeight, fs: Sequence[Callable],
                        lam: float, spec: GridSpec,
                        operator=None) -> list[GridFunction]:
    """Solve lam*u - L u = f on the grid for every f in fs, returning one
    solution's node table per f.

    All right-hand sides share one factorisation.  Pass a precomputed
    assemble_operator(...) result as `operator` to skip reassembly when
    solving for several lam with one weight.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if not lam > 0:
        raise ValueError("lam must be positive")
    k = assemble_operator(weight, spec) if operator is None else operator
    a = sp.eye(k.shape[0], format="csr") * lam + k
    pts = spec.points()
    rhs = np.stack([np.asarray(f(pts), dtype=float).ravel() for f in fs], axis=1)
    # spsolve returns 1-D for a single column
    u = spla.spsolve(a, rhs, permc_spec="MMD_AT_PLUS_A")
    return [GridFunction(spec, col) for col in u.reshape(k.shape[0], -1).T]


def apply_generator(weight: ConvexWeight, u, xi: np.ndarray) -> np.ndarray:
    """L u at xi for a function exposing gradient and hessian_diag."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    out = (np.sum(u.hessian_diag(xi), axis=-1)
           + np.sum(weight.drift(xi) * u.gradient(xi), axis=-1))
    return out[0] if out.size == 1 else out


def table_lookup(table: np.ndarray, axis: np.ndarray, mesh: float,
                 x: np.ndarray) -> np.ndarray:
    """Rows of a node table, interpolated at points x (M, dim).

    The nodes are the tensor grid axis^dim, x-major, with spacing mesh;
    table holds one row per node and any number of columns.  Every
    column is interpolated multilinearly inside the box and by linear
    extrapolation of the edge cells outside it, reproducing
    RegularGridInterpolator(..., fill_value=None) bit for bit.
    """
    n, d = axis.size, x.shape[1]
    k, pairs = 0, []
    for xk in x.T:
        # cell with axis[i] <= x < axis[i+1], edge cells extended outwards
        i = np.clip(np.floor((xk - axis[0]) / mesh), 0, n - 2).astype(np.intp)
        i -= (xk < axis[i]) & (i > 0)
        i += (xk >= axis[i + 1]) & (i < n - 2)
        k = k * n + i                   # flat index of the cell's first node
        t = ((xk - axis[i]) / (axis[i + 1] - axis[i]))[:, None]
        pairs.append((1 - t, t))
    # corner bits in {0, 1}^d: a constant node offset from the cell's
    # first node, and the weight prod_a (t_a if bit_a else 1 - t_a)
    corners = [(k + np.ravel_multi_index(bits, (n,) * d),
                [pair[b] for pair, b in zip(pairs, bits)])
               for bits in itertools.product((0, 1), repeat=d)]
    # sum over corners of row * weights, multiplied and added in place
    # in that order; np.take gathers rows about twice as fast as indexing
    out = None
    for rows, weights in corners:
        term = np.take(table, rows, axis=0)
        for w in weights:
            term *= w
        if out is None:
            out = term
        else:
            out += term
    return out


class GridFunction:
    """Piecewise-linear view of a grid solution: value, gradient, Hessian.

    One table holds, per grid point, the value, the gradient columns and
    the full Hessian (row-major), the derivatives taken by central
    differences on the grid; nodes() reads it as it is, and one
    table_lookup interpolates every column at a point set.  values are
    the solution at spec.points(), flat or shaped as the grid.
    """

    def __init__(self, spec: GridSpec, values: np.ndarray):
        self.spec = spec
        self._axis = spec.axis()
        h = spec.mesh
        d = spec.dim
        vals = np.reshape(values, (spec.npoints,) * d)
        table = np.empty(vals.shape + (1 + d + d * d,))
        table[..., 0] = vals
        for k in range(d):
            table[..., 1 + k] = np.gradient(vals, h, axis=k)
        for i in range(d):
            # second difference, copied one cell onto the faces
            a = np.moveaxis(vals, i, 0)
            dst = np.moveaxis(table[..., 1 + d + i * (d + 1)], i, 0)
            dst[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / h ** 2
            dst[0] = dst[1]
            dst[-1] = dst[-2]
            for j in range(i + 1, d):
                table[..., 1 + d + i * d + j] = table[..., 1 + d + j * d + i] = \
                    np.gradient(table[..., 1 + i], h, axis=j)
        self._table = table.reshape(-1, table.shape[-1])

    def nodes(self):
        """Value (N,), gradient (N, dim) and Hessian (N, dim, dim) at the
        grid points, in spec.points() order: the table itself, no lookup."""
        d, t = self.spec.dim, self._table
        return t[:, 0], t[:, 1:1 + d], t[:, 1 + d:].reshape(-1, d, d)

    def jet(self, x):
        """Value (...,), gradient (..., dim) and Hessian (..., dim, dim) at
        points x (..., dim), from one lookup."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d = self.spec.dim
        lead = x.shape[:-1]
        out = table_lookup(self._table, self._axis, self.spec.mesh,
                           x.reshape(-1, d)).reshape(lead + (-1,))
        return out[..., 0], out[..., 1:1 + d], out[..., 1 + d:].reshape(lead + (d, d))

    def value(self, x):
        return self.jet(x)[0]

    def gradient(self, x):
        return self.jet(x)[1]

    def hessian(self, x):
        return self.jet(x)[2]

    def hessian_diag(self, x):
        return np.diagonal(self.jet(x)[2], axis1=-2, axis2=-1)

    def __call__(self, x):
        return self.value(x)
