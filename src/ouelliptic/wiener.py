"""Brownian-path examples: sine basis, KL sampling, two convex weights.

The ambient space is L^2[0,1] with the Brownian covariance; its
eigenpairs are lam_i = 4 / (pi^2 (2i-1)^2) with L^2-orthonormal
eigenfunctions e_i(t) = sqrt(2) sin(t / sqrt(lam_i)).  The Cameron-Martin
frame used everywhere in this package is h_i = sqrt(lam_i) e_i, which is
orthonormal for the path-derivative inner product; in its coordinates the
Gaussian measure is a product of standard normals and the coordinate
functions are the coordinates themselves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cylinder import CylinderFunction
from .mc import MCValue
from .norms import sn_mean
from .rng import substream, MISC_TAG, NORM_TAG, TAIL_TAG
from .weights import ConvexWeight, diagonal_quadratic_weight

DEFAULT_TIME_POINTS = 2048


class WienerBasis:
    """First `modes` eigenpairs of the Brownian covariance on [0,1]."""

    def __init__(self, modes: int):
        if modes < 1:
            raise ValueError("need at least one mode")
        self.modes = modes
        i = np.arange(1, modes + 1)
        self.lam = 4.0 / (np.pi ** 2 * (2 * i - 1) ** 2)
        self.omega = (2 * i - 1) * np.pi / 2.0   # = 1/sqrt(lam_i)

    def e(self, t: np.ndarray) -> np.ndarray:
        """L^2-orthonormal eigenfunctions, shape (modes, len(t))."""
        t = np.asarray(t, dtype=float)
        return np.sqrt(2.0) * np.sin(np.outer(self.omega, t))

    def h(self, t: np.ndarray) -> np.ndarray:
        """Cameron-Martin orthonormal frame h_i = sqrt(lam_i) e_i."""
        return np.sqrt(self.lam)[:, None] * self.e(t)

    def path_values(self, coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Reconstruct sum_i coeffs_i h_i on the time grid; coeffs (..., modes)."""
        return np.asarray(coeffs, dtype=float) @ self.h(t)


def cm_norm_sq(coeffs: np.ndarray) -> float:
    """Squared path-derivative norm of sum_i c_i e_i: sum c_i^2 / lam_i."""
    coeffs = np.asarray(coeffs, dtype=float)
    return float(np.sum(coeffs ** 2 / WienerBasis(coeffs.size).lam))


@dataclass(frozen=True)
class KLPathSample:
    coeffs: np.ndarray   # standard-normal coordinates in the h-frame
    grid: np.ndarray     # evaluation points in [0, 1]
    values: np.ndarray   # W = sum_i coeffs_i sqrt(lam_i) e_i


def sample_path(basis: WienerBasis, seed: int,
                grid: Optional[np.ndarray] = None) -> KLPathSample:
    """Karhunen-Loeve draw of a Brownian path on the grid."""
    if grid is None:
        grid = np.linspace(0.0, 1.0, DEFAULT_TIME_POINTS + 1)
    coeffs = substream(seed, MISC_TAG).standard_normal(basis.modes)
    return KLPathSample(coeffs=coeffs, grid=np.asarray(grid, dtype=float),
                        values=basis.path_values(coeffs, grid))


@dataclass(frozen=True)
class MaxEndpointResult:
    value: float
    argmax: float
    gradient: np.ndarray
    tie: bool


def max_endpoint_weight(path: KLPathSample) -> MaxEndpointResult:
    """max_t W(t) + W(1) with its subgradient in the h-frame.

    The maximum is located on the sample grid with first-index
    tie-breaking; exact ties are flagged.  The gradient coefficient on
    h_i is h_i(argmax) + h_i(1).
    """
    vals = path.values
    k = int(np.argmax(vals))
    tie = bool(np.sum(vals == vals[k]) > 1)
    basis = WienerBasis(path.coeffs.size)
    tpts = np.array([path.grid[k], path.grid[-1]])
    h = basis.h(tpts)
    return MaxEndpointResult(value=float(vals[k] + vals[-1]),
                             argmax=float(path.grid[k]),
                             gradient=h[:, 0] + h[:, 1],
                             tie=tie)


def energy_convex_weight(modes: int) -> ConvexWeight:
    """The energy weight as oracles on h-frame coordinates."""
    return diagonal_quadratic_weight(WienerBasis(modes).lam, label="energy")


def max_endpoint_convex_weight(modes: int,
                               time_points: int = DEFAULT_TIME_POINTS) -> ConvexWeight:
    """The max-plus-endpoint weight as oracles on h-frame coordinates.

    Convex (a supremum of linear functionals plus a linear one) but not
    gradient-Lipschitz, so grad_lip is None.  The joint oracle
    eval_subgrad reconstructs the paths x @ hmat once for both halves.
    """
    basis = WienerBasis(modes)
    grid = np.linspace(0.0, 1.0, time_points + 1)
    hmat = basis.h(grid)          # (modes, T)
    h_end = hmat[:, -1]

    def val(x):
        paths = np.asarray(x, dtype=float) @ hmat
        return np.max(paths, axis=-1) + paths[..., -1]

    def subgrad_of(paths):
        # h(argmax) + h(1): one gathered array, h_end added in place; take
        # copies even for one path, where indexing would give a view
        g = hmat.T.take(np.argmax(paths, axis=-1), axis=0)
        g += h_end
        return g

    def grad(x):
        return subgrad_of(np.asarray(x, dtype=float) @ hmat)

    def both(x):
        paths = np.asarray(x, dtype=float) @ hmat
        return np.max(paths, axis=-1) + paths[..., -1], subgrad_of(paths)

    return ConvexWeight(dim=modes, eval=val, subgrad=grad, grad_lip=None,
                        label="max-endpoint", eval_subgrad=both)


# Points per group whose times are pruned together, and points whose
# active paths are held at once (rounded down to whole row blocks).
_PRUNE_GROUP = 64
_PRUNE_SPAN = 2048


def _compact_groups(points: np.ndarray, size: int) -> list[np.ndarray]:
    """Row indices of `points` in spatially compact groups of at most
    `size`: each set is halved at the median of its widest coordinate."""
    groups, stack = [], [np.arange(points.shape[0])]
    while stack:
        idx = stack.pop()
        if idx.size <= size:
            groups.append(idx)
            continue
        sub = points[idx]
        widest = np.argmax(np.ptp(sub, axis=0))
        order = idx[np.argsort(sub[:, widest], kind="stable")]
        stack += [order[:idx.size // 2], order[idx.size // 2:]]
    return groups


def _pruned_argmax(act: np.ndarray, tail_paths: np.ndarray,
                   groups: list[np.ndarray]) -> np.ndarray:
    """np.argmax(act[:, None, :] + tail_paths, axis=-1), bit for bit,
    without forming that (points, tails, times) array.

    Rounding is monotone, so within a group of points the sum at tail s
    and time t lies between min_p act[p, t] + tail_paths[s, t] and
    max_p act[p, t] + tail_paths[s, t].  A time whose upper bound is
    strictly below the tail's best lower bound is strictly below that
    tail's maximum at every point of the group: it is never the argmax
    and never ties it.  The argmax runs over the other times in
    ascending order, so ties keep their first index.
    """
    tails = np.arange(tail_paths.shape[0])
    idx = np.empty((act.shape[0], tails.size), dtype=np.intp)
    for g in groups:
        a = act[g]
        best = (a.min(axis=0) + tail_paths).max(axis=1, keepdims=True)
        keep = a.max(axis=0) + tail_paths >= best
        # each tail's kept times first, ascending; the padding after them
        # is dropped times, which cannot win
        cand = np.argsort(~keep, axis=1, kind="stable")[:, :keep.sum(axis=1).max()]
        j = (a[:, cand] + np.take_along_axis(tail_paths, cand, axis=1)).argmax(axis=-1)
        idx[g] = cand[tails, j]
    return idx


def max_endpoint_truncated(n: int, modes: int = 256, samples: int = 64,
                           seed: int = 0,
                           time_points: int = DEFAULT_TIME_POINTS) -> ConvexWeight:
    """Tail average of the max-plus-endpoint weight over frozen KL tails.

    The coordinates beyond the first n are frozen at `samples` Gaussian
    draws (the same draws galerkin.TruncatedWeight would use for this
    seed) and their path contributions are precomputed once, so each
    evaluation costs one small matmul plus, per tail, an argmax over the
    times that can still hold the maximum (`_pruned_argmax`, exact)
    instead of a full reconstruction in `modes` dimensions.  The value
    and the subgradient come from the same pass (the joint oracle
    eval_subgrad; eval and subgrad each return one half of it).
    Averaging over tails preserves convexity in the retained coordinates.
    """
    if not 0 < n < modes:
        raise ValueError("need 0 < n < modes")
    basis = WienerBasis(modes)
    grid = np.linspace(0.0, 1.0, time_points + 1)
    hmat = basis.h(grid)
    h_act, h_tail = hmat[:n], hmat[n:]
    tails = substream(seed, TAIL_TAG, n, modes).standard_normal((samples, modes - n))
    tail_paths = tails @ h_tail           # (samples, T)
    h_end = h_act[:, -1]
    # the active paths are formed in blocks of `chunk` rows whatever the
    # span: a BLAS may round a row differently in a block of another size
    chunk = max(1, 4_000_000 // (samples * (time_points + 1)))
    span = chunk * max(1, _PRUNE_SPAN // chunk)
    tail_ids = np.arange(samples)

    def both(x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, n)
        val = np.empty(flat.shape[0])
        grad = np.empty_like(flat)
        for lo in range(0, flat.shape[0], span):
            pts = flat[lo:lo + span]
            act = np.empty((pts.shape[0], time_points + 1))        # (b, T)
            for k in range(0, pts.shape[0], chunk):
                act[k:k + chunk] = pts[k:k + chunk] @ h_act
            idx = _pruned_argmax(act, tail_paths,                    # (b, S)
                                 _compact_groups(pts, _PRUNE_GROUP))
            top = np.take_along_axis(act, idx, axis=1) + tail_paths[tail_ids, idx]
            end = act[:, -1:] + tail_paths[:, -1]
            val[lo:lo + span] = (top + end).mean(axis=-1)
            grad[lo:lo + span] = h_act.T[idx].mean(axis=1) + h_end
        return val.reshape(x.shape[:-1]), grad.reshape(x.shape)

    return ConvexWeight(dim=n, eval=lambda x: both(x)[0],
                        subgrad=lambda x: both(x)[1], grad_lip=None,
                        label=f"max-endpoint-trunc[{n}]", eval_subgrad=both)


@dataclass(frozen=True)
class CylindricalField:
    """Vector field with finitely many active components.

    phi: (..., k) -> (..., k) component values
    dphi_diag: (..., k) -> (..., k) the diagonal partials d_i phi_i
    """
    k: int
    phi: Callable[[np.ndarray], np.ndarray]
    dphi_diag: Callable[[np.ndarray], np.ndarray]
    label: str = ""


def constant_field(vec: np.ndarray) -> CylindricalField:
    vec = np.asarray(vec, dtype=float)
    return CylindricalField(
        k=vec.size,
        phi=lambda x: np.broadcast_to(vec, np.shape(x)).copy(),
        dphi_diag=lambda x: np.zeros(np.shape(x)),
        label="constant",
    )


def gradient_field(u: CylinderFunction, k: int) -> CylindricalField:
    """The gradient of a smooth function as a cylindrical field."""
    return CylindricalField(
        k=k,
        phi=lambda x: u.gradient(x)[..., :k],
        dphi_diag=lambda x: u.hessian_diag(x)[..., :k],
        label=f"grad({u.label})",
    )


def weighted_divergence(field: CylindricalField, weight_grad: Callable,
                        xi: np.ndarray) -> np.ndarray:
    """Divergence with respect to the weighted Gaussian measure:

        sum_i ( d_i phi_i - phi_i d_i U - phi_i xi_i )

    where the last term is the coordinate function of the Gaussian in the
    h-frame.  `weight_grad` maps (..., k) to the first k components of
    the weight gradient.
    """
    xi = np.asarray(xi, dtype=float)
    squeeze = xi.ndim == 1
    xi2 = np.atleast_2d(xi)[..., :field.k]
    p = field.phi(xi2)
    out = np.sum(field.dphi_diag(xi2) - p * np.atleast_2d(weight_grad(xi2)) - p * xi2,
                 axis=-1)
    return float(out[0]) if squeeze else out


def ibp_residual(f: CylinderFunction, field: CylindricalField, weight: ConvexWeight,
                 n: int, samples: int = 100_000, seed: int = 0) -> MCValue:
    """Self-normalized check of integration by parts under the weighted measure.

    Estimates int <grad f, Phi> dnu + int f div_nu(Phi) dnu, which vanishes
    when the divergence is adapted to the same weight.  Sampling is from
    the standard Gaussian on R^n with importance weights e^{-U}.
    """
    if n < field.k or n < weight.dim:
        raise ValueError("ambient dimension too small for field or weight")
    rng = substream(seed, NORM_TAG, n, samples)
    x = rng.standard_normal((samples, n))
    logw = -np.asarray(weight.eval(x[:, :weight.dim]), dtype=float)
    pairing = np.sum(f.gradient(x)[:, :field.k] * field.phi(x[:, :field.k]), axis=1)
    div = weighted_divergence(field, lambda z: np.asarray(weight.subgrad(
        np.pad(z, ((0, 0), (0, weight.dim - field.k))) if weight.dim > field.k else z
    ))[:, :field.k], x)
    g = pairing + np.asarray(f(x), dtype=float) * div
    est, se = sn_mean(g, logw)
    return MCValue(mean=est, std_error=se, paths_used=samples)


def path_to_csv(path: KLPathSample) -> str:
    """CSV serialization of a sampled path: time, value per row."""
    lines = ["t,value"]
    for t, v in zip(path.grid, path.values):
        lines.append(f"{t:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"
