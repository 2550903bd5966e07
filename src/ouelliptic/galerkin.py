"""Finite-dimensional reductions of high-dimensional convex weights.

Two reductions are provided.  Truncation freezes the coordinates beyond
the first n at Gaussian draws and averages the weight over them, which
keeps convexity in the retained variables and is deterministic for a
fixed seed.  Mollification convolves a weight with a compactly supported
bump at scale epsilon, trading an O(epsilon) sup error for smoothness.
Tabulation reads a low-dimensional weight's value and subgradient once
at the nodes of a regular mesh into one table and serves every later
query from it through grid.table_lookup, with no scipy interpolator;
the max-endpoint weight is tabulated, mollified, and its mollification
tabulated again at the grid nodes (its node table).  The residual
utilities quantify how far a solution of the reduced elliptic problem
is from solving the full one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import table_lookup, tensor_nodes
from .mc import MCValue
from .norms import sn_norm
from .rng import NORM_TAG, TAIL_TAG, substream
from .weights import ConvexWeight

_CHUNK_FLOATS = 4_000_000


class TruncatedWeight:
    """Average of an m-dimensional convex weight over frozen Gaussian tails.

    psi_n(xi) = mean_s psi(xi_1..xi_n, Z_s) + tail_constant, where the
    Z_s are `samples` standard normal draws of the trailing m - n
    coordinates, fixed once at construction.  Averaging preserves
    convexity in xi, and freezing the draws makes every evaluation
    deterministic.  tail_constant covers any analytically known
    contribution from coordinates beyond the base weight's dimension.
    """

    def __init__(self, base: ConvexWeight, n: int, samples: int = 10_000,
                 seed: int = 0, tail_constant: float = 0.0, label: str = ""):
        if not 0 < n <= base.dim:
            raise ValueError("need 0 < n <= base.dim")
        if samples < 2:
            raise ValueError("need at least two tail samples")
        self.base = base
        self.n = int(n)
        self.samples = int(samples)
        self.seed = int(seed)
        self.tail_constant = float(tail_constant)
        self.label = label or f"trunc[{n}]({base.label})"
        self.tails = substream(seed, TAIL_TAG, n, base.dim).standard_normal(
            (self.samples, base.dim - self.n))

    def _sample_chunks(self, batch: int):
        per = max(1, batch) * self.base.dim
        step = max(1, min(self.samples, _CHUNK_FLOATS // per))
        for lo in range(0, self.samples, step):
            yield lo, min(lo + step, self.samples)

    def _full_points(self, xi_block: np.ndarray, lo: int, hi: int) -> np.ndarray:
        b = xi_block.shape[0]
        pts = np.empty((b, hi - lo, self.base.dim))
        pts[:, :, :self.n] = xi_block[:, None, :]
        pts[:, :, self.n:] = self.tails[None, lo:hi, :]
        return pts

    def value_batch(self, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Means and standard errors of the tail average at points (B, n)."""
        xis = np.asarray(xis, dtype=float)
        b = xis.shape[0]
        total = np.zeros(b)
        total_sq = np.zeros(b)
        for lo, hi in self._sample_chunks(b):
            vals = self.base.eval(self._full_points(xis, lo, hi))
            total += vals.sum(axis=1)
            total_sq += (vals * vals).sum(axis=1)
        s = self.samples
        mean = total / s
        var = np.maximum(total_sq / s - mean ** 2, 0.0) * s / (s - 1)
        return mean + self.tail_constant, np.sqrt(var / s)

    def subgrad_batch(self, xis: np.ndarray) -> np.ndarray:
        """Tail-averaged subgradients in the retained coordinates, (B, n).

        A base with linear_grad has retained partials linear_grad_i x_i,
        which no tail enters, so their average is that product itself.
        """
        xis = np.asarray(xis, dtype=float)
        if self.base.linear_grad is not None:
            return np.asarray(self.base.linear_grad[:self.n]) * xis
        b = xis.shape[0]
        total = np.zeros((b, self.n))
        for lo, hi in self._sample_chunks(b):
            g = self.base.subgrad(self._full_points(xis, lo, hi))
            total += g[:, :, :self.n].sum(axis=1)
        return total / self.samples

    def value(self, xi: np.ndarray) -> MCValue:
        mean, se = self.value_batch(np.asarray(xi, dtype=float)[None, :])
        return MCValue(float(mean[0]), float(se[0]), self.samples)

    def gradient(self, xi: np.ndarray) -> list[MCValue]:
        xi = np.asarray(xi, dtype=float)
        total = np.zeros(self.n)
        total_sq = np.zeros(self.n)
        for lo, hi in self._sample_chunks(1):
            g = self.base.subgrad(self._full_points(xi[None, :], lo, hi))
            g = g[0, :, :self.n]
            total += g.sum(axis=0)
            total_sq += (g * g).sum(axis=0)
        s = self.samples
        mean = total / s
        var = np.maximum(total_sq / s - mean ** 2, 0.0) * s / (s - 1)
        se = np.sqrt(var / s)
        return [MCValue(float(m), float(e), s) for m, e in zip(mean, se)]

    def as_convex_weight(self) -> ConvexWeight:
        """Deterministic n-dimensional view for the solvers."""

        def ev(x):
            x = np.asarray(x, dtype=float)
            flat = x.reshape(-1, self.n)
            mean, _ = self.value_batch(flat)
            return mean.reshape(x.shape[:-1])

        def sg(x):
            x = np.asarray(x, dtype=float)
            flat = x.reshape(-1, self.n)
            return self.subgrad_batch(flat).reshape(x.shape)

        lin = self.base.linear_grad
        return ConvexWeight(dim=self.n, eval=ev, subgrad=sg,
                            grad_lip=self.base.grad_lip, label=self.label,
                            linear_grad=None if lin is None else lin[:self.n])


def conditional_expectation(base: ConvexWeight, n: int, xi: np.ndarray,
                            samples: int = 10_000, seed: int = 0,
                            tail_constant: float = 0.0) -> MCValue:
    """One-off tail average of `base` at a single retained point."""
    return TruncatedWeight(base, n, samples=samples, seed=seed,
                           tail_constant=tail_constant).value(xi)


@dataclass(frozen=True)
class BumpKernel:
    """Polynomial bump proportional to (1 - |eta|^2)^4 on the unit ball
    with a tensor Gauss-Legendre discretization.

    Nodes outside the ball are dropped and the remaining weights
    rescaled to sum to one, so the discrete kernel is itself a
    probability measure supported strictly inside the ball (and the
    bump's normalizing constant is never needed).
    """
    dim: int
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, dim: int, nodes_per_axis: int = 8) -> "BumpKernel":
        if dim < 1:
            raise ValueError("dim must be positive")
        if nodes_per_axis < 2:
            raise ValueError("need at least two nodes per axis")
        x, w = np.polynomial.legendre.leggauss(nodes_per_axis)
        axes = np.meshgrid(*([x] * dim), indexing="ij")
        nodes = np.stack([a.ravel() for a in axes], axis=-1)
        wts = np.ones(nodes.shape[0])
        for k in range(dim):
            wts *= np.meshgrid(*([w] * dim), indexing="ij")[k].ravel()
        r2 = np.sum(nodes * nodes, axis=-1)
        inside = r2 < 1.0
        nodes, wts, r2 = nodes[inside], wts[inside], r2[inside]
        weights = wts * (1.0 - r2) ** 4
        weights = weights / weights.sum()
        return cls(dim=dim, nodes=nodes, weights=weights)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def second_moment(self) -> float:
        """Discrete per-axis second moment of the quadrature measure."""
        r2 = np.sum(self.nodes * self.nodes, axis=-1)
        return float(np.sum(self.weights * r2) / self.dim)

    def analytic_second_moment(self) -> float:
        """Per-axis second moment of the continuous bump,
        B(n/2 + 1, 5) / (n B(n/2, 5)) = 1 / (n + 10)."""
        return 1.0 / (self.dim + 10.0)


def mollify(inner: ConvexWeight, epsilon: float,
            kernel: BumpKernel | None = None) -> ConvexWeight:
    """Convolve a convex weight with the bump kernel at scale epsilon.

    The result is convex (a convex combination of translates), coincides
    with the inner weight up to Lip(inner) * epsilon in sup norm, and is
    evaluated by the kernel's quadrature rule so repeated calls are cheap
    and deterministic.  The joint oracle eval_subgrad reads the inner
    weight's value_subgrad once at the shifted points; eval and subgrad
    alone read only the inner oracle they need.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if kernel is None:
        kernel = BumpKernel.build(inner.dim)
    if kernel.dim != inner.dim:
        raise ValueError("kernel dimension does not match the weight")
    shifts = epsilon * kernel.nodes
    wts = kernel.weights

    def ev(x):
        x = np.asarray(x, dtype=float)
        vals = inner.eval(x[..., None, :] - shifts)
        return vals @ wts

    def sg(x):
        x = np.asarray(x, dtype=float)
        g = inner.subgrad(x[..., None, :] - shifts)
        return np.einsum("...kn,k->...n", g, wts)

    def both(x):
        x = np.asarray(x, dtype=float)
        vals, g = inner.value_subgrad(x[..., None, :] - shifts)
        return vals @ wts, np.einsum("...kn,k->...n", g, wts)

    return ConvexWeight(dim=inner.dim, eval=ev, subgrad=sg,
                        grad_lip=inner.grad_lip,
                        label=f"mollified[{epsilon:g}]({inner.label})",
                        eval_subgrad=both)


def tabulate_weight(inner: ConvexWeight, radius: float, mesh: float,
                    chunk: int = 8192) -> ConvexWeight:
    """Sample an expensive low-dimensional weight once on a regular mesh
    and serve it by linear interpolation.

    One pass over the nodes k * mesh of [-radius, radius]^d reads the
    value and the subgradient together (inner.value_subgrad) into one
    (nodes, 1 + d) table; every later call is one grid.table_lookup of
    that table, which returns both.  Useful when a weight's oracles
    dominate the cost of grid assembly or importance sampling.  Linear
    interpolation keeps convexity exactly in one dimension and up to
    O(mesh^2) otherwise; queries outside the box extrapolate linearly.
    """
    d = inner.dim
    if d not in (1, 2):
        raise ValueError("tabulation is for weights of dimension 1 or 2")
    half = int(round(radius / mesh))
    ax = np.arange(-half, half + 1) * mesh
    pts = tensor_nodes(ax, d)
    table = np.empty((pts.shape[0], 1 + d))
    for lo in range(0, pts.shape[0], chunk):
        vals, grads = inner.value_subgrad(pts[lo:lo + chunk])
        table[lo:lo + chunk, 0] = vals
        table[lo:lo + chunk, 1:] = grads

    def both(x):
        x = np.asarray(x, dtype=float)
        out = table_lookup(table, ax, mesh, x.reshape(-1, d))
        # contiguous halves: a reduction over them (mollify's quadrature)
        # then sums in the same order as over any other oracle's output
        return (np.ascontiguousarray(out[:, 0]).reshape(x.shape[:-1]),
                np.ascontiguousarray(out[:, 1:]).reshape(x.shape))

    return ConvexWeight(dim=d, eval=lambda x: both(x)[0],
                        subgrad=lambda x: both(x)[1], grad_lip=inner.grad_lip,
                        label=f"tabulated({inner.label})", eval_subgrad=both)


def perturbation_residual(v, full_weight: ConvexWeight, trunc_weight: ConvexWeight,
                          lam: float, f, points: np.ndarray) -> np.ndarray:
    """Residual of the reduced elliptic equation at full-dimensional points.

    v solves (or approximately solves) the reduced problem in the first
    n = trunc_weight.dim coordinates.  At sample points x this evaluates
    the full equation's residual corrected by the drift gap,

        lam v - [sum_i d_ii v - sum_i (d_i U_full(x) + x_i) d_i v]
          - f - sum_i (d_i U_full(x) - d_i U_trunc(xi)) d_i v,

    in which the two d_i U_full terms cancel.  So the result, one value
    per sample point, is the reduced-equation residual

        lam v - sum_i d_ii v + sum_i (d_i U_trunc(xi) + xi_i) d_i v - f

    at xi = x[..., :n], up to roundoff: it does not depend on full_weight
    and measures only how far v is from solving the reduced problem.
    """
    points = np.asarray(points, dtype=float)
    n = trunc_weight.dim
    if points.shape[-1] < n:
        raise ValueError("sample points have fewer coordinates than the weight")
    xi = points[..., :n]
    val = np.asarray(v.value(xi), dtype=float)
    grad = np.asarray(v.gradient(xi), dtype=float)[..., :n]
    diag = np.asarray(v.hessian_diag(xi), dtype=float)[..., :n]
    g_full = full_weight.subgrad(points)[..., :n]
    g_trunc = trunc_weight.subgrad(xi)
    generator = diag.sum(axis=-1) - ((g_full + xi) * grad).sum(axis=-1)
    correction = ((g_full - g_trunc) * grad).sum(axis=-1)
    return lam * val - generator - np.asarray(f(xi), dtype=float) - correction


def gradient_correction_norm(full_weight: ConvexWeight, trunc_weight: ConvexWeight,
                             samples: int = 100_000, seed: int = 0) -> MCValue:
    """Weighted L^2 norm of the drift gap grad U - grad U_trunc.

    Sampling is standard Gaussian with self-normalized reweighting by
    exp(-U), so the estimate targets the weighted stationary measure
    without knowing its normalization.
    """
    m, n = full_weight.dim, trunc_weight.dim
    if n > m:
        raise ValueError("truncated weight has more coordinates than the full one")
    rng = substream(seed, NORM_TAG, m, n)
    chunk = max(1, _CHUNK_FLOATS // m)
    gaps = []
    logs = []
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        x = rng.standard_normal((b, m))
        logs.append(-full_weight.eval(x))
        g = full_weight.subgrad(x)
        g[:, :n] -= trunc_weight.subgrad(x[:, :n])
        gaps.append(np.sum(g * g, axis=-1))
        done += b
    norm, se = sn_norm(np.concatenate(gaps), np.concatenate(logs))
    return MCValue(norm, se, samples)
