"""Finite-dimensional reductions of high-dimensional convex weights.

Two reductions are provided.  Truncation freezes the coordinates beyond
the first n at Gaussian draws and averages the weight over them, which
keeps convexity in the retained variables and is deterministic for a
fixed seed.  Mollification convolves a weight with a compactly supported
bump at scale epsilon, trading an O(epsilon) sup error for smoothness.
The residual utilities quantify how far a solution of the reduced
elliptic problem is from solving the full one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn

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
        self._value_memo: dict[bytes, MCValue] = {}
        self._grad_memo: dict[bytes, list[MCValue]] = {}

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
        """Tail-averaged subgradients in the retained coordinates, (B, n)."""
        xis = np.asarray(xis, dtype=float)
        b = xis.shape[0]
        total = np.zeros((b, self.n))
        for lo, hi in self._sample_chunks(b):
            g = self.base.subgrad(self._full_points(xis, lo, hi))
            total += g[:, :, :self.n].sum(axis=1)
        return total / self.samples

    def value(self, xi: np.ndarray) -> MCValue:
        xi = np.asarray(xi, dtype=float)
        key = xi.tobytes()
        if key not in self._value_memo:
            mean, se = self.value_batch(xi[None, :])
            self._value_memo[key] = MCValue(float(mean[0]), float(se[0]),
                                            self.samples)
        return self._value_memo[key]

    def gradient(self, xi: np.ndarray) -> list[MCValue]:
        xi = np.asarray(xi, dtype=float)
        key = xi.tobytes()
        if key not in self._grad_memo:
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
            self._grad_memo[key] = [MCValue(float(m), float(e), s)
                                    for m, e in zip(mean, se)]
        return self._grad_memo[key]

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

        return ConvexWeight(dim=self.n, eval=ev, subgrad=sg,
                            grad_lip=self.base.grad_lip, label=self.label)


def conditional_expectation(base: ConvexWeight, n: int, xi: np.ndarray,
                            samples: int = 10_000, seed: int = 0,
                            tail_constant: float = 0.0) -> MCValue:
    """One-off tail average of `base` at a single retained point."""
    return TruncatedWeight(base, n, samples=samples, seed=seed,
                           tail_constant=tail_constant).value(xi)


@dataclass(frozen=True)
class BumpKernel:
    """Polynomial bump c * (1 - |eta|^2)^4 on the unit ball with a tensor
    Gauss-Legendre discretization.

    The normalizing constant is exact: integrating over the ball in polar
    coordinates gives c = Gamma(n/2) / (pi^{n/2} * B(n/2, 5)).  Nodes
    outside the ball are dropped and the remaining weights rescaled to
    sum to one, so the discrete kernel is itself a probability measure
    supported strictly inside the ball.
    """
    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    normalizer: float

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
        c = float(math.gamma(dim / 2.0)
                  / (np.pi ** (dim / 2.0) * beta_fn(dim / 2.0, 5.0)))
        weights = wts * c * (1.0 - r2) ** 4
        weights = weights / weights.sum()
        return cls(dim=dim, nodes=nodes, weights=weights, normalizer=c)

    def density(self, eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        r2 = np.sum(eta * eta, axis=-1)
        return np.where(r2 < 1.0, self.normalizer * (1.0 - r2) ** 4, 0.0)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def second_moment(self) -> float:
        """Discrete per-axis second moment of the quadrature measure."""
        r2 = np.sum(self.nodes * self.nodes, axis=-1)
        return float(np.sum(self.weights * r2) / self.dim)

    def analytic_second_moment(self) -> float:
        """Per-axis second moment of the continuous bump."""
        n = self.dim
        return float(beta_fn(n / 2.0 + 1.0, 5.0) / (n * beta_fn(n / 2.0, 5.0)))


def mollify(inner: ConvexWeight, epsilon: float,
            kernel: BumpKernel | None = None) -> ConvexWeight:
    """Convolve a convex weight with the bump kernel at scale epsilon.

    The result is convex (a convex combination of translates), coincides
    with the inner weight up to Lip(inner) * epsilon in sup norm, and is
    evaluated by the kernel's quadrature rule so repeated calls are cheap
    and deterministic.
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

    return ConvexWeight(dim=inner.dim, eval=ev, subgrad=sg,
                        grad_lip=inner.grad_lip,
                        label=f"mollified[{epsilon:g}]({inner.label})")


def tabulate_weight(inner: ConvexWeight, radius: float, mesh: float,
                    chunk: int = 8192) -> ConvexWeight:
    """Sample an expensive low-dimensional weight once on a regular mesh
    and serve it by linear interpolation.

    Useful when a weight's oracles dominate the cost of grid assembly or
    importance sampling: evaluation happens once per node here, and every
    later call is an interpolation lookup.  Linear interpolation keeps
    convexity exactly in one dimension and up to O(mesh^2) otherwise;
    queries outside [-radius, radius]^d extrapolate linearly.
    """
    from scipy.interpolate import RegularGridInterpolator

    d = inner.dim
    if d not in (1, 2):
        raise ValueError("tabulation is for weights of dimension 1 or 2")
    half = int(round(radius / mesh))
    ax = np.arange(-half, half + 1) * mesh
    pts = ax[:, None] if d == 1 else np.stack(
        np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = np.empty(pts.shape[0])
    grads = np.empty_like(pts)
    for lo in range(0, pts.shape[0], chunk):
        block = pts[lo:lo + chunk]
        vals[lo:lo + chunk] = inner.eval(block)
        grads[lo:lo + chunk] = inner.subgrad(block)
    shape = (ax.size,) * d
    axes = (ax,) * d

    def interp(arr):
        return RegularGridInterpolator(axes, arr.reshape(shape),
                                       bounds_error=False, fill_value=None)

    v_itp = interp(vals)
    g_itp = [interp(grads[:, i]) for i in range(d)]

    def ev(x):
        x = np.asarray(x, dtype=float)
        return v_itp(x.reshape(-1, d)).reshape(x.shape[:-1])

    def sg(x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, d)
        return np.stack([g(flat) for g in g_itp], axis=-1).reshape(x.shape)

    return ConvexWeight(dim=d, eval=ev, subgrad=sg, grad_lip=inner.grad_lip,
                        label=f"tabulated({inner.label})")


def perturbation_residual(v, full_weight: ConvexWeight, trunc_weight: ConvexWeight,
                          lam: float, f, points: np.ndarray) -> np.ndarray:
    """Residual of the full elliptic equation, corrected by the drift gap.

    v solves (or approximately solves) the reduced problem in the first
    n = trunc_weight.dim coordinates.  At full-dimensional sample points
    x this evaluates

        lam v - [sum_i d_ii v - sum_i (d_i U_full(x) + x_i) d_i v]
          - f - sum_i (d_i U_full(x) - d_i U_trunc(xi)) d_i v,

    which collapses to the reduced-equation residual when the reduced
    solve is exact; the result is one value per sample point.
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
