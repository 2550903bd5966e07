"""Monte Carlo evaluation of the weighted semigroup and resolvent.

The diffusion dX = -(grad phi(X) + X) dt + sqrt(2) dW has the weighted
operator as its generator; expectations of f(X_t) started at xi give the
semigroup, and an exponentially weighted time quadrature along the same
trajectories gives the resolvent.  Paths take the exact transition for
linear drifts, Euler otherwise; dt sets the observation grid.  A weight
that declares ``linear_grad = g`` has the drift -kappa x with
kappa = 1 + g, whose transition over any time is exactly Gaussian, so
those paths carry no time-step bias.  There X_t = e^{-kappa t} xi + N_t
with N_t independent of the start, so the resolvent observes each ridge
test function g(<a, x>) through <a, e^{-kappa t} xi> (one value per
start) plus <a, N_t> (one value per path) and never builds the
(starts, paths, n) states.  Since X_t is affine in the start, the same
pass gives the resolvent's gradient and Hessian in the start path by
path, from g' and g'' (the pathwise derivative estimator).  Noise is
drawn from counter-based per-path Philox streams keyed by (seed, path
index), one normal per coordinate per step on either path, so results
are bit-identical for a fixed (seed, config) regardless of chunking,
thread count or evaluation order, and runs from different starting
points share the same noise (common random numbers).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .cylinder import CylinderFunction
from .rng import path_stream
from .weights import ConvexWeight

# paths per chunk keep starts x paths x n under this many floats: the
# Euler states, or the exact branch's per-start observer values
_STATE_BUDGET = 5_000_000
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
        if not self.dt <= self.t_max < np.inf:
            raise ValueError("t_max must be finite and at least dt")
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


class PathJet(NamedTuple):
    """Per-path resolvent accumulators of one (lam, f) pair at S starts:
    the value (S, paths) and its gradient (k, S, paths) and Hessian
    (k, k, S, paths) in the start's coordinates f.coords, k = f.a.size.
    Paths that take Euler steps give the value only."""
    value: np.ndarray
    grad: Optional[np.ndarray] = None
    hess: Optional[np.ndarray] = None


def _step_count(t: float, dt: float) -> int:
    """Number of uniform steps of at most dt covering [0, t]."""
    return max(1, int(np.ceil(t / dt - 1e-12))) if t > 0 else 0


def ou_transition(kappa: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact transition of dX = -kappa X dt + sqrt(2) dW over time tau.

    Returns (e^{-kappa tau}, s) with X_tau = e^{-kappa tau} X_0 + s Z for a
    standard normal Z, where s^2 = (1 - e^{-2 kappa tau}) / kappa.
    """
    kappa = np.asarray(kappa, dtype=float)
    return np.exp(-kappa * tau), np.sqrt(-np.expm1(-2.0 * kappa * tau) / kappa)


def _run_paths(weight: ConvexWeight, starts: np.ndarray, t_end: float,
               cfg: DiffusionConfig, snap_steps: Sequence[int],
               observer: Callable) -> None:
    """Paths over [0, t_end] on the grid of uniform steps <= cfg.dt.

    starts: (S, n) initial points advanced jointly under shared per-path
    noise.  observer(step_index, decay, y, path_slice) fires at step 0 and
    at every index in snap_steps.  For a weight with linear_grad no state
    is built: X_t = decay * start + N_t coordinatewise, with decay =
    e^{-kappa t} of shape (n, 1) and y = N_t, the start-independent part
    (n, B) that every start shares, advanced step by step with the exact
    one-step map.  Every other weight takes Euler-Maruyama steps on all
    states and passes decay None and y the states (S, B, n).
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    s_count, n = starts.shape
    steps = _step_count(t_end, cfg.dt)
    dt = t_end / steps if steps else 0.0
    snap = set(int(k) for k in snap_steps)
    chunk = max(1, min(cfg.paths, _STATE_BUDGET // max(1, s_count * n)))
    sq = np.sqrt(2.0 * dt)
    exact = weight.linear_grad is not None
    if exact:
        # coordinate-major (n, B) noise keeps the inner loops long
        kappa = 1.0 + np.asarray(weight.linear_grad, dtype=float)[:, None]
        one_step, scale = ou_transition(kappa, dt)

    for p0 in range(0, cfg.paths, chunk):
        p1 = min(p0 + chunk, cfg.paths)
        b, sl = p1 - p0, slice(p0, p1)
        if exact:
            x = np.zeros((n, b))
            observer(0, np.ones((n, 1)), x, sl)
        else:
            x = np.repeat(starts[:, None, :], b, axis=1)
            observer(0, None, x, sl)
        if steps == 0:
            continue
        gens = [path_stream(cfg.seed, p) for p in range(p0, p1)]
        done = 0
        while done < steps:
            blk = min(_NOISE_BLOCK, steps - done)
            noise = np.stack([g.standard_normal((blk, n)) for g in gens], axis=0)
            if exact:
                noise = np.ascontiguousarray(noise.transpose(1, 2, 0))
            for k in range(blk):
                done += 1
                if exact:
                    x *= one_step
                    x += scale * noise[k]
                else:
                    x += dt * weight.drift(x) + sq * noise[:, k, :]
                if done in snap:
                    observer(done, np.exp(-kappa * (done * dt)) if exact else None,
                             x, sl)


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

    def grab(step, decay, y, sl):
        if step != steps:
            return
        if decay is None:
            out[:, sl] = y
        else:
            np.add((decay * starts.T)[:, :, None], y[:, None, :],
                   out=out[:, sl].transpose(2, 0, 1))

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
                       cfg: DiffusionConfig, h: float = 1e-2) -> list[MCValue]:
    """Central differences of T_t f at step h with common random numbers."""
    if not t > 0:
        raise ValueError("t must be positive")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    n = xi.size
    starts = np.concatenate([xi + h * np.eye(n), xi - h * np.eye(n)])
    vals = np.asarray(f(simulate_terminal(weight, starts, t, cfg)), dtype=float)
    return [MCValue.of_paths((vals[i] - vals[n + i]) / (2.0 * h))
            for i in range(n)]


def resolvent_apply(weight: ConvexWeight, f: CylinderFunction, lam: float,
                    xi: np.ndarray, cfg: DiffusionConfig) -> MCValue:
    """Estimate of the resolvent R(lam) f(xi) = int_0^inf e^{-lam t} T_t f dt.

    The truncated tail is bounded by sup|f| e^{-lam t_hor}/lam (using the
    declared sup_norm of f when available, else the largest |f| seen along
    the trajectories) and folded into the reported error.
    """
    acc, tails = resolvent_batch(weight, np.reshape(xi, (1, -1)), [f], [lam], cfg)
    return MCValue.of_paths(acc[0][0].value[0], extra_error=tails[0][0])


def resolvent_derivatives(weight: ConvexWeight, f: CylinderFunction, lam: float,
                          xi: np.ndarray, cfg: DiffusionConfig):
    """Gradient vector and Hessian matrix of R(lam) f at xi, from the
    pathwise derivatives of resolvent_batch; zero off f.coords.  Returns
    (gradient list of MCValue, hessian (n, n) array of MCValue).  Only a
    weight with linear_grad has them: elsewhere X_t is not affine in xi.
    """
    if weight.linear_grad is None:
        raise ValueError("resolvent derivatives need a weight with linear_grad")
    xi = np.asarray(xi, dtype=float).reshape(-1)
    n = xi.size
    jet = resolvent_batch(weight, xi[None, :], [f], [lam], cfg)[0][0][0]
    grad = np.zeros((n, cfg.paths))
    grad[f.coords] = jet.grad[:, 0]
    hess = np.zeros((n, n, cfg.paths))
    hess[f.coords, f.coords] = jet.hess[:, :, 0]
    return ([MCValue.of_paths(g) for g in grad],
            np.array([[MCValue.of_paths(h) for h in row] for row in hess],
                     dtype=object))


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


def resolvent_batch(weight: ConvexWeight, starts: np.ndarray,
                    fs: Sequence[CylinderFunction], lams: Sequence[float],
                    cfg: DiffusionConfig):
    """Per-path resolvent accumulators for many (lam, f) pairs at once.

    One trajectory ensemble serves every pair: each lam gets its own node
    set and weights on a shared step grid reaching the largest horizon
    max(8/lam, cfg.t_max).  Returns (acc, tails) with acc[i_lam][i_f] the
    PathJet at the S starts and tails[i_lam][i_f] the analytic bound on
    the truncated time integral.

    For a weight with linear_grad each ridge function f = g(<a, x_c>) is
    observed through its projection alpha + beta, with alpha =
    <a, e^{-kappa t} start_c> per start and beta = <a, N_t> per path.
    With d = a e^{-kappa_c t}, a node of weight w adds w g to the value,
    w d_i g' to gradient entry i and w d_i d_j g'' to Hessian entry
    (i, j): the pathwise derivatives of g(<a, X_t>) in the start
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2003,
    sec. 7.2).  A cosine profile is cos(alpha) cos(beta) - sin(alpha)
    sin(beta), and its g' and g'' are the same sum with the (cos, sin)
    of alpha turned by a quarter turn each: one transcendental per start
    and per path, summed over the nodes after the run by einsum
    contractions, which, unlike a BLAS product, add the nodes in order
    for every entry, so the sums do not depend on how the paths are
    chunked.
    """
    if not all(lam > 0 for lam in lams):
        raise ValueError("lam must be positive")
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
    node = {k: i for i, k in enumerate(sorted(all_steps))}
    exact = weight.linear_grad is not None

    def zeros(*shape):
        return np.zeros(shape + (starts.shape[0], cfg.paths))

    acc = [[PathJet(zeros(), *((zeros(f.a.size), zeros(f.a.size, f.a.size))
                               if exact else ())) for f in fs] for _ in lams]
    # e^{-kappa t} by node; per cosine, (cos, sin) of alpha by (node, start)
    # and of beta by (node, path)
    decays = np.empty((len(node), starts.shape[1]))
    angles = {j: (np.empty((2, len(node), starts.shape[0])),
                  np.empty((2, len(node), cfg.paths)))
              for j, f in enumerate(fs) if exact and f.g is np.cos}
    sup_norms = [f.sup_norm for f in fs]
    sup_seen = [1.0 if j in angles else 0.0 for j in range(len(fs))]  # |cos| <= 1

    def grab(step, decay, y, sl):
        if decay is not None:
            decays[node[step]] = decay[:, 0]
        for j, f in enumerate(fs):
            if decay is None:
                v = f(y)
            else:
                alpha = (decay[f.coords, 0] * starts[:, f.coords]) @ f.a
                beta = f.a @ y[f.coords]
                if j in angles:
                    angles[j][0][:, node[step]] = np.cos(alpha), np.sin(alpha)
                    angles[j][1][:, node[step], sl] = np.cos(beta), np.sin(beta)
                    continue
                x = alpha[:, None] + beta
                v, dv, d2v = f.g(x), f.dg(x), f.d2g(x)
                d = f.a * decay[f.coords, 0]
                dd = np.multiply.outer(d, d)
            if sup_norms[j] is None:
                sup_seen[j] = max(sup_seen[j], float(np.max(np.abs(v))))
            for i, (_, weight_of, _) in enumerate(plans):
                w = weight_of.get(step)
                if w is None:
                    continue
                jet = acc[i][j]
                jet.value[:, sl] += w * v
                if decay is not None:
                    jet.grad[..., sl] += (w * d)[:, None, None] * dv
                    jet.hess[..., sl] += (w * dd)[..., None, None] * d2v

    sub_cfg = DiffusionConfig(dt=dt_eff, paths=cfg.paths, seed=cfg.seed,
                              t_max=t_hor_max, quad_nodes=cfg.quad_nodes)
    _run_paths(weight, starts, t_hor_max, sub_cfg, sorted(all_steps), grab)
    for j, (at_start, at_path) in angles.items():
        f = fs[j]
        c, s = at_start
        # (p, q) with the m-th derivative of cos at alpha + beta equal to
        # p cos(beta) + q sin(beta)
        turns = [(c, -s), (-s, -c), (-c, s)]
        for i, (_, weight_of, _) in enumerate(plans):
            ks = [node[k] for k in weight_of]
            w = np.array(list(weight_of.values()))
            d = f.a * decays[ks][:, f.coords]
            rhs = at_path[:, ks].reshape(2 * len(ks), -1)

            def contract(coef, m):
                p, q = turns[m]
                lhs = np.concatenate([coef[:, None] * p[ks],
                                      coef[:, None] * q[ks]])
                return np.einsum("ku,kb->ub", lhs, rhs, optimize=False)

            jet = acc[i][j]
            jet.value[:] = contract(w, 0)
            for r in range(f.a.size):
                jet.grad[r] = contract(w * d[:, r], 1)
                for e in range(f.a.size):
                    jet.hess[r, e] = contract(w * (d[:, r] * d[:, e]), 2)
    tails = []
    for (lam, _, t_hor) in plans:
        row = []
        for sup_f, seen in zip(sup_norms, sup_seen):
            if sup_f is None:
                sup_f = seen
            row.append(sup_f * np.exp(-lam * t_hor) / lam)
        tails.append(row)
    return acc, tails


def mehler_oracle(f: CylinderFunction, t: float, xi: np.ndarray) -> float:
    """Exact unweighted semigroup T_t f(xi) of a ridge function.

    Under the zero weight <a, X_t> is Gaussian with mean e^{-t} <a, xi>
    and standard deviation sqrt(1 - e^{-2t}) |a|, so T_t f(xi) is one
    60-node Gauss-Hermite sum over that law: exact for polynomials of
    degree < 120, within 1e-15 of the closed forms for cos<a, x>.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if t < 0:
        raise ValueError("t must be nonnegative")
    z, w = np.polynomial.hermite_e.hermegauss(60)
    mean = np.exp(-t) * f.project(xi)
    sd = np.sqrt(-np.expm1(-2.0 * t) * float(f.a @ f.a))
    return float(w @ f.g(mean + sd * z) / np.sqrt(2.0 * np.pi))
