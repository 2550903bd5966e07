"""Monte Carlo evaluation of the weighted semigroup and resolvent.

The diffusion dX = -(grad phi(X) + X) dt + sqrt(2) dW has the weighted
operator as its generator; expectations of f(X_t) started at xi give the
semigroup, and an exponentially weighted time quadrature along the same
trajectories gives the resolvent.  Noise is drawn from counter-based
per-path Philox streams keyed by (seed, path index), so results are
bit-identical for a fixed (seed, config) regardless of chunking, thread
count or evaluation order, and runs from shifted starting points reuse
the same noise (common random numbers) for tight finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .rng import path_stream
from .weights import ConvexWeight

_STATE_BUDGET = 5_000_000   # floats held per chunk of path states
_NOISE_BLOCK = 256          # diffusion steps drawn per RNG call


@dataclass(frozen=True)
class DiffusionConfig:
    dt: float
    paths: int
    seed: int
    t_max: float = 8.0
    quad_nodes: int = 64

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.dt > self.t_max:
            raise ValueError("dt must not exceed t_max")
        if self.paths < 100:
            raise ValueError("need at least 100 paths")
        if self.quad_nodes < 2:
            raise ValueError("need at least 2 quadrature nodes")


@dataclass(frozen=True)
class MCValue:
    mean: float
    std_error: float
    paths_used: int

    @classmethod
    def of_paths(cls, per_path: np.ndarray, extra_error: float = 0.0) -> "MCValue":
        """Sample mean of per-path values; its standard error plus extra_error."""
        return cls(mean=float(per_path.mean()),
                   std_error=float(per_path.std(ddof=1) / np.sqrt(per_path.size)
                                   + extra_error),
                   paths_used=per_path.size)


def _drift(weight: ConvexWeight, x: np.ndarray) -> np.ndarray:
    return -(np.asarray(weight.subgrad(x)) + x)


def _step_count(t: float, dt: float) -> int:
    """Number of uniform steps of at most dt covering [0, t]."""
    return max(1, int(np.ceil(t / dt - 1e-12))) if t > 0 else 0


def _run_paths(weight: ConvexWeight, starts: np.ndarray, t_end: float,
               cfg: DiffusionConfig, snap_steps: Sequence[int],
               observer: Callable[[int, np.ndarray, slice], None]) -> None:
    """Euler-Maruyama over [0, t_end] with uniform steps <= cfg.dt.

    starts: (S, n) initial points advanced jointly under shared per-path
    noise.  observer(step_index, states (S, B, n), path_slice) fires at
    step 0 (initial states) and at every index in snap_steps.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    s_count, n = starts.shape
    steps = _step_count(t_end, cfg.dt)
    dt = t_end / steps if steps else 0.0
    snap = set(int(k) for k in snap_steps)
    chunk = max(1, min(cfg.paths, _STATE_BUDGET // max(1, s_count * n)))
    sq = np.sqrt(2.0 * dt)

    for p0 in range(0, cfg.paths, chunk):
        p1 = min(p0 + chunk, cfg.paths)
        b = p1 - p0
        x = np.repeat(starts[:, None, :], b, axis=1)
        observer(0, x, slice(p0, p1))
        if steps == 0:
            continue
        gens = [path_stream(cfg.seed, p) for p in range(p0, p1)]
        done = 0
        while done < steps:
            blk = min(_NOISE_BLOCK, steps - done)
            noise = np.stack([g.standard_normal((blk, n)) for g in gens], axis=0)
            for k in range(blk):
                x += dt * _drift(weight, x) + sq * noise[:, k, :]
                done += 1
                if done in snap:
                    observer(done, x, slice(p0, p1))


def simulate_terminal(weight: ConvexWeight, xi0: np.ndarray, t: float,
                      cfg: DiffusionConfig) -> np.ndarray:
    """Terminal points X_t of cfg.paths trajectories.

    xi0 is one start (n,), giving (paths, n), or a batch of starts (S, n)
    advanced under shared per-path noise, giving (S, paths, n).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    xi0 = np.asarray(xi0, dtype=float)
    starts = np.atleast_2d(xi0)
    out = np.empty((starts.shape[0], cfg.paths, starts.shape[1]))
    steps = _step_count(t, cfg.dt)

    def grab(step, states, sl):
        if step == steps:
            out[:, sl] = states

    _run_paths(weight, starts, t, cfg, [steps], grab)
    return out if xi0.ndim == 2 else out[0]


def semigroup_apply(weight: ConvexWeight, f: Callable, t: float, xi: np.ndarray,
                    cfg: DiffusionConfig) -> MCValue:
    """Monte Carlo estimate of T_t f(xi) = E f(X_t)."""
    if not t > 0:
        raise ValueError("t must be positive")
    term = simulate_terminal(weight, xi, t, cfg)
    return MCValue.of_paths(np.asarray(f(term), dtype=float))


def semigroup_gradient(weight: ConvexWeight, f: Callable, t: float, xi: np.ndarray,
                       cfg: DiffusionConfig, fd_step: float = 1e-2) -> list[MCValue]:
    """Central differences of T_t f with common random numbers."""
    if not t > 0:
        raise ValueError("t must be positive")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    n = xi.size
    starts = np.concatenate([xi + fd_step * np.eye(n), xi - fd_step * np.eye(n)])
    vals = np.asarray(f(simulate_terminal(weight, starts, t, cfg)), dtype=float)
    return [MCValue.of_paths((vals[i] - vals[n + i]) / (2.0 * fd_step))
            for i in range(n)]


def resolvent_apply(weight: ConvexWeight, f: Callable, lam: float, xi: np.ndarray,
                    cfg: DiffusionConfig) -> MCValue:
    """Estimate of the resolvent R(lam) f(xi) = int_0^inf e^{-lam t} T_t f dt.

    The truncated tail is bounded by sup|f| e^{-lam t_hor}/lam (using the
    declared sup_norm of f when available, else the largest |f| seen along
    the trajectories) and folded into the reported error.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    acc, tails = resolvent_batch(weight, np.reshape(xi, (1, -1)), [f], [lam], cfg)
    return MCValue.of_paths(acc[0][0][0], extra_error=tails[0][0])


def resolvent_derivatives(weight: ConvexWeight, f: Callable, lam: float,
                          xi: np.ndarray, cfg: DiffusionConfig,
                          fd_step: float = 1e-2):
    """Gradient vector and Hessian matrix of R(lam) f at xi.

    Common-random-number central differences: first order with step
    fd_step, second order with the same step on the doubled stencil.
    Returns (gradient list of MCValue, hessian (n, n) array of MCValue).
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    n = xi.size
    d = fd_step
    e = d * np.eye(n)
    starts = [xi]
    for i in range(n):
        starts += [xi + e[i], xi - e[i]]
    pair_at = {}
    for i in range(n):
        for j in range(i + 1, n):
            pair_at[(i, j)] = len(starts)
            starts += [xi + e[i] + e[j], xi + e[i] - e[j],
                       xi - e[i] + e[j], xi - e[i] - e[j]]
    acc = resolvent_batch(weight, np.array(starts), [f], [lam], cfg)[0][0][0]

    grad = [MCValue.of_paths((acc[1 + 2 * i] - acc[2 + 2 * i]) / (2.0 * d))
            for i in range(n)]
    hess = np.empty((n, n), dtype=object)
    for i in range(n):
        hess[i, i] = MCValue.of_paths(
            (acc[1 + 2 * i] - 2.0 * acc[0] + acc[2 + 2 * i]) / d ** 2)
        for j in range(i + 1, n):
            k = pair_at[(i, j)]
            hess[i, j] = hess[j, i] = MCValue.of_paths(
                (acc[k] - acc[k + 1] - acc[k + 2] + acc[k + 3]) / (4.0 * d ** 2))
    return grad, hess


def _laplace_nodes(lam: float, k_hor: int, dt_eff: float, q: int) -> dict[int, float]:
    """Quadrature for int_0^{k_hor dt_eff} e^{-lam t} g(t) dt on the step grid.

    Returns {step index: weight}.  About q nodes are geometrically spaced
    on [dt_eff, k_hor dt_eff], snapped to the step grid, with t = 0
    prepended; the weights integrate exp(-lam t) times the piecewise-linear
    interpolant of g exactly on each panel.
    """
    # kept as k_hor * dt_eff / dt_eff: its roundoff fixes where nodes snap
    raw = dt_eff * (k_hor * dt_eff / dt_eff) ** (np.arange(q) / (q - 1))
    ks = np.unique(np.clip(np.round(raw / dt_eff).astype(int), 1, k_hor))
    ks = np.concatenate([[0], ks])
    times = ks * dt_eff
    w = np.zeros(times.size)
    for i in range(times.size - 1):
        t0, t1 = times[i], times[i + 1]
        tau = t1 - t0
        e0, e1 = np.exp(-lam * t0), np.exp(-lam * t1)
        big_e = (e0 - e1) / lam
        big_t = (t0 / lam + 1.0 / lam ** 2) * e0 - (t1 / lam + 1.0 / lam ** 2) * e1
        w[i] += (t1 * big_e - big_t) / tau
        w[i + 1] += (big_t - t0 * big_e) / tau
    return {int(k): w[i] for i, k in enumerate(ks)}


def resolvent_batch(weight: ConvexWeight, starts: np.ndarray, fs: Sequence[Callable],
                    lams: Sequence[float], cfg: DiffusionConfig):
    """Per-path resolvent accumulators for many (lam, f) pairs at once.

    One trajectory ensemble serves every pair: each lam gets its own node
    set and weights on a shared step grid reaching the largest horizon
    max(8/lam, cfg.t_max).  Returns (acc, tails) with acc[i_lam][i_f] of
    shape (S, paths) and tails[i_lam][i_f] the analytic bound on the
    truncated time integral.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    t_hor_max = max(max(8.0 / lam, cfg.t_max) for lam in lams)
    total = _step_count(t_hor_max, cfg.dt)
    dt_eff = t_hor_max / total
    plans = []
    all_steps = set()
    for lam in lams:
        k_hor = int(np.round(max(8.0 / lam, cfg.t_max) / dt_eff))
        weight_of = _laplace_nodes(lam, k_hor, dt_eff, cfg.quad_nodes)
        plans.append((lam, weight_of, k_hor * dt_eff))
        all_steps |= set(weight_of.keys())
    acc = [[np.zeros((starts.shape[0], cfg.paths)) for _ in fs] for _ in lams]
    sup_seen = [0.0 for _ in fs]

    def grab(step, states, sl):
        vals = [np.asarray(f(states), dtype=float) for f in fs]
        for j, v in enumerate(vals):
            sup_seen[j] = max(sup_seen[j], float(np.max(np.abs(v))))
        for i, (_, weight_of, _) in enumerate(plans):
            w = weight_of.get(step)
            if w is not None:
                for j, v in enumerate(vals):
                    acc[i][j][:, sl] += w * v

    sub_cfg = DiffusionConfig(dt=dt_eff, paths=cfg.paths, seed=cfg.seed,
                              t_max=t_hor_max, quad_nodes=cfg.quad_nodes)
    _run_paths(weight, starts, t_hor_max, sub_cfg, sorted(all_steps), grab)
    tails = []
    for (lam, _, t_hor) in plans:
        row = []
        for j, f in enumerate(fs):
            sup_f = getattr(f, "sup_norm", None)
            if sup_f is None:
                sup_f = sup_seen[j]
            row.append(sup_f * np.exp(-lam * t_hor) / lam)
        tails.append(row)
    return acc, tails


@dataclass(frozen=True)
class MehlerFunction:
    """Test function with a closed-form unweighted semigroup.

    kind 'linear':  f = <a, xi>,        T_t f = e^{-t} <a, xi>
    kind 'cosine':  f = cos<a, xi>,     T_t f = e^{-(1-e^{-2t})|a|^2/2} cos(e^{-t}<a, xi>)
    kind 'hermite': f = He_k (dim 1),   T_t f = e^{-kt} He_k(xi)
    """
    kind: str
    a: Optional[np.ndarray] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("linear", "cosine", "hermite"):
            raise ValueError("kind must be linear, cosine or hermite")
        if self.kind in ("linear", "cosine") and self.a is None:
            raise ValueError(f"{self.kind} needs a coefficient vector")
        if self.kind == "hermite" and (self.k is None or self.k < 0):
            raise ValueError("hermite needs an order k >= 0")

    @property
    def sup_norm(self):
        return 1.0 if self.kind == "cosine" else None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "linear":
            return x @ np.asarray(self.a, dtype=float)
        if self.kind == "cosine":
            return np.cos(x @ np.asarray(self.a, dtype=float))
        ck = np.zeros(self.k + 1)
        ck[self.k] = 1.0
        return np.polynomial.hermite_e.hermeval(x[..., 0], ck)


def mehler_oracle(f_spec: MehlerFunction, t: float, xi: np.ndarray) -> float:
    """Exact unweighted semigroup T_t f(xi) for the closed-form family."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if f_spec.kind == "linear":
        return float(np.exp(-t) * (xi @ np.asarray(f_spec.a, dtype=float)))
    if f_spec.kind == "cosine":
        a = np.asarray(f_spec.a, dtype=float)
        damp = np.exp(-0.5 * (1.0 - np.exp(-2.0 * t)) * float(a @ a))
        return float(damp * np.cos(np.exp(-t) * (xi @ a)))
    ck = np.zeros(f_spec.k + 1)
    ck[f_spec.k] = 1.0
    he = np.polynomial.hermite_e.hermeval(xi[0], ck)
    return float(np.exp(-f_spec.k * t) * he)
