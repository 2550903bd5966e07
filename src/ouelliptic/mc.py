"""Monte Carlo evaluation of the weighted semigroup and resolvent.

The diffusion dX = -(grad phi(X) + X) dt + sqrt(2) dW has the weighted
operator as its generator; expectations of f(X_t) started at xi give the
semigroup, and an exponentially weighted time integral along the same
trajectories gives the resolvent.  Only a weight that declares
``linear_grad = g`` is simulated: its drift is -kappa x with kappa =
1 + g, whose transition over any time is exactly Gaussian: X_t =
e^{-kappa t} xi + N_t with N_t independent of the start (the Mehler
formula; Bogachev, Gaussian Measures, 1998, sec. 1.4).  The paths are
observed only at the times they are needed, each jump one exact
transition: the terminal time of simulate_terminal, or the TIME_NODES
lam-free nodes of the resolvent's time rule (laplace_rule), so they
carry no time-step bias and no truncated horizon.  Any other weight
raises ValueError.

The resolvent observes each ridge test function g(<a, x>) through
<a, e^{-kappa t} xi> (one value per start) plus <a, N_t> (one value per
path) and never builds the (starts, paths, n) states.  Since X_t is
affine in the start, the same pass gives the resolvent's gradient and
Hessian in the start path by path, from g' and g'' (the pathwise
derivative estimator); resolvent_oracle gives the same three exactly,
on the same time nodes.  Noise is drawn from counter-based per-path
Philox streams keyed by (seed, path index): one normal per coordinate
per observation time.  So results are bit-identical for a fixed (seed,
config) regardless of chunking, thread count or evaluation order, and
runs from different starting points share the same noise (common
random numbers).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from .cylinder import CylinderFunction
from .rng import path_stream
from .weights import ConvexWeight

# paths per chunk keep starts x paths x n, the observers' per-start
# values, under this many floats
_STATE_BUDGET = 5_000_000
# Gauss-Legendre nodes in v = e^{-t/2} of the resolvent's time rule;
# measured against a 96-node reference on the energy weight (n = 2, 4,
# tanh and step), 16 nodes err by at most 4.6e-6 relative
TIME_NODES = 16


@dataclass(frozen=True)
class DiffusionConfig:
    """Paths and seed of the Monte Carlo runs, whose paths take no step.

    dt only scales the Monte Carlo rows' allowance (harness._mc_allowance);
    it stays a field and an [mc] key because the benchmark's mc-only
    workload sets it.  t_max is a constant, not a field or a key: the
    benchmark counts path steps from cfg.t_max and cfg.dt of resolvent_batch.
    """
    paths: int
    seed: int
    dt: float = 0.02
    t_max: ClassVar[float] = 8.0

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if self.paths < 100:
            raise ValueError("need at least 100 paths")


@dataclass(frozen=True)
class MCValue:
    mean: float
    std_error: float
    paths_used: int

    @classmethod
    def of_paths(cls, per_path: np.ndarray) -> "MCValue":
        """Sample mean of per-path values and its standard error."""
        return cls(mean=float(per_path.mean()),
                   std_error=float(per_path.std(ddof=1) / np.sqrt(per_path.size)),
                   paths_used=per_path.size)


class PathJet(NamedTuple):
    """Per-path resolvent accumulators of one (lam, f) pair at S starts:
    the value (S, paths) and its gradient (k, S, paths) and Hessian
    (k, k, S, paths) in the start's coordinates f.coords, k = f.a.size."""
    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def _kappa(weight: ConvexWeight) -> np.ndarray:
    """Rates kappa = 1 + linear_grad of a linear drift, as a column (n, 1);
    a weight without linear_grad has no exact paths and raises."""
    if weight.linear_grad is None:
        raise ValueError("exact transitions need a weight with linear_grad")
    return 1.0 + np.asarray(weight.linear_grad, dtype=float)[:, None]


def ou_transition(kappa: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact transition of dX = -kappa X dt + sqrt(2) dW over time tau.

    Returns (e^{-kappa tau}, s) with X_tau = e^{-kappa tau} X_0 + s Z for a
    standard normal Z, where s^2 = (1 - e^{-2 kappa tau}) / kappa.
    """
    kappa = np.asarray(kappa, dtype=float)
    return np.exp(-kappa * tau), np.sqrt(-np.expm1(-2.0 * kappa * tau) / kappa)


def laplace_rule(lams: Sequence[float], count: int = TIME_NODES):
    """The lam-free time nodes of int_0^inf e^{-lam t} h(t) dt, and each
    lam's weights.

    With v = e^{-t/2} the integral is int_0^1 2 v^{2 lam - 1} h(-2 ln v) dv.
    Gauss-Legendre nodes v_k on (0, 1) with weights W_k give the times
    t_k = -2 ln v_k, ascending and shared by every lam, and the weights
    2 W_k v_k^{2 lam - 1}; no horizon is cut off.  The rule is exact when
    h(-2 ln v) v^{2 lam - 1} is a polynomial in v of degree < 2 count, as
    for h = e^{-k t} and 2 lam a positive integer.  Returns (times
    (count,), weights (len(lams), count)).
    """
    v, w = np.polynomial.legendre.leggauss(count)
    v, w = (1.0 - v) / 2.0, w / 2.0      # v descending, so t ascending
    return (-2.0 * np.log(v),
            np.array([2.0 * w * v ** (2.0 * lam - 1.0) for lam in lams]))


def _exact_paths(kappa: np.ndarray, times: np.ndarray, cfg: DiffusionConfig,
                 per_path: int, observer: Callable) -> None:
    """Exact paths of dX = -kappa X dt + sqrt(2) dW at the ascending times.

    kappa is a column (n, 1).  No state is built: X_t = e^{-kappa t} X_0 +
    N_t coordinatewise, and the start-free part N jumps from each time to
    the next by one ou_transition.  observer(k, y, path_slice) fires at
    times[k] with y = N_{times[k]} of those paths, (n, B).  Each path
    draws one (len(times), n) array of its path_stream.  Chunks keep
    paths x per_path, the floats the observer holds per path, under
    _STATE_BUDGET.
    """
    n = kappa.shape[0]
    jumps = [ou_transition(kappa, tau) for tau in np.diff(times, prepend=0.0)]
    chunk = max(1, min(cfg.paths, _STATE_BUDGET // max(1, per_path)))
    for p0 in range(0, cfg.paths, chunk):
        p1 = min(p0 + chunk, cfg.paths)
        sl = slice(p0, p1)
        # (times, n, B): coordinate-major noise keeps the inner loops long
        noise = np.stack([path_stream(cfg.seed, p).standard_normal((len(times), n))
                          for p in range(p0, p1)], axis=-1)
        y = np.zeros((n, p1 - p0))
        for k, (decay, scale) in enumerate(jumps):
            y *= decay
            y += scale * noise[k]
            observer(k, y, sl)


def simulate_terminal(weight: ConvexWeight, xi0: np.ndarray, t: float,
                      cfg: DiffusionConfig) -> np.ndarray:
    """Terminal points X_t of cfg.paths trajectories.

    xi0 is one start (n,), giving (paths, n), or a batch of starts (S, n)
    advanced under shared per-path noise, giving (S, paths, n), by one
    exact transition to t.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    kappa = _kappa(weight)
    xi0 = np.asarray(xi0, dtype=float)
    starts = np.atleast_2d(xi0)
    out = np.empty((starts.shape[0], cfg.paths, starts.shape[1]))
    mean = np.exp(-kappa * t) * starts.T

    def jump(k, y, sl):
        np.add(mean[:, :, None], y[:, None, :],
               out=out[:, sl].transpose(2, 0, 1))

    _exact_paths(kappa, np.array([float(t)]), cfg, starts.size, jump)
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

    The time rule of laplace_rule cuts off no horizon, so the error is
    the paths' standard error alone.
    """
    acc = resolvent_batch(weight, np.reshape(xi, (1, -1)), [f], [lam], cfg)
    return MCValue.of_paths(acc[0][0].value[0])


def resolvent_derivatives(weight: ConvexWeight, f: CylinderFunction, lam: float,
                          xi: np.ndarray, cfg: DiffusionConfig):
    """Gradient vector and Hessian matrix of R(lam) f at xi, from the
    pathwise derivatives of resolvent_batch; zero off f.coords.  Returns
    (gradient list of MCValue, hessian (n, n) array of MCValue).
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    n = xi.size
    jet = resolvent_batch(weight, xi[None, :], [f], [lam], cfg)[0][0]
    grad = np.zeros((n, cfg.paths))
    grad[f.coords] = jet.grad[:, 0]
    hess = np.zeros((n, n, cfg.paths))
    hess[f.coords, f.coords] = jet.hess[:, :, 0]
    return ([MCValue.of_paths(g) for g in grad],
            np.array([[MCValue.of_paths(h) for h in row] for row in hess],
                     dtype=object))


def resolvent_batch(weight: ConvexWeight, starts: np.ndarray,
                    fs: Sequence[CylinderFunction], lams: Sequence[float],
                    cfg: DiffusionConfig):
    """Per-path resolvent accumulators for many (lam, f) pairs at once.

    One trajectory ensemble of a weight with linear_grad serves every
    pair.  Returns acc with acc[i_lam][i_f] the PathJet at the S starts.

    The paths are observed at the lam-free nodes of laplace_rule, so
    every lam sees the same observations.  Each ridge function f =
    g(<a, x_c>) is observed through its projection alpha + beta, with
    alpha = <a, e^{-kappa t} start_c> per start and beta = <a, N_t> per
    path.  With d =
    a e^{-kappa_c t}, a node of weight w adds w g to the value, w d_i g'
    to gradient entry i and w d_i d_j g'' to Hessian entry (i, j): the
    pathwise derivatives of g(<a, X_t>) in the start (Glasserman, Monte
    Carlo Methods in Financial Engineering, 2003, sec. 7.2).  A cosine
    profile is cos(alpha) cos(beta) - sin(alpha) sin(beta), and its g'
    and g'' are the same sum with the (cos, sin) of alpha turned by a
    quarter turn each: one transcendental per start and per path, summed
    over the nodes after the run by einsum contractions, which, unlike a
    BLAS product, add the nodes in order for every entry, so the sums do
    not depend on how the paths are chunked.
    """
    if not all(lam > 0 for lam in lams):
        raise ValueError("lam must be positive")
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    kappa = _kappa(weight)
    times, node_w = laplace_rule(lams)
    decays = np.exp(-kappa[:, 0] * times[:, None])          # (nodes, n)
    s_count = starts.shape[0]

    def zeros(*shape):
        return np.zeros(shape + (s_count, cfg.paths))

    acc = [[PathJet(zeros(), zeros(f.a.size), zeros(f.a.size, f.a.size))
            for f in fs] for _ in lams]
    # alpha by (node, start) per f; per cosine, (cos, sin) of beta by
    # (node, path)
    alphas = [(decays[:, None, f.coords] * starts[:, f.coords]) @ f.a for f in fs]
    at_path = {j: np.empty((2, times.size, cfg.paths))
               for j, f in enumerate(fs) if f.g is np.cos}

    def observe(k, y, sl):
        for j, f in enumerate(fs):
            beta = f.a @ y[f.coords]
            if j in at_path:
                at_path[j][:, k, sl] = np.cos(beta), np.sin(beta)
                continue
            x = alphas[j][k][:, None] + beta
            v, dv, d2v = f.g(x), f.dg(x), f.d2g(x)
            d = f.a * decays[k, f.coords]
            dd = np.multiply.outer(d, d)
            for i, w in enumerate(node_w[:, k]):
                jet = acc[i][j]
                jet.value[:, sl] += w * v
                jet.grad[..., sl] += (w * d)[:, None, None] * dv
                jet.hess[..., sl] += (w * dd)[..., None, None] * d2v

    _exact_paths(kappa, times, cfg, s_count * starts.shape[1], observe)
    for j, cs in at_path.items():
        f = fs[j]
        c, s = np.cos(alphas[j]), np.sin(alphas[j])
        # (p, q) with the m-th derivative of cos at alpha + beta equal to
        # p cos(beta) + q sin(beta)
        turns = [(c, -s), (-s, -c), (-c, s)]
        d = f.a * decays[:, f.coords]
        rhs = cs.reshape(2 * times.size, -1)

        def contract(coef, m):
            p, q = turns[m]
            lhs = np.concatenate([coef[:, None] * p, coef[:, None] * q])
            return np.einsum("ku,kb->ub", lhs, rhs, optimize=False)

        for i, w in enumerate(node_w):
            jet = acc[i][j]
            jet.value[:] = contract(w, 0)
            for r in range(f.a.size):
                jet.grad[r] = contract(w * d[:, r], 1)
                for e in range(f.a.size):
                    jet.hess[r, e] = contract(w * (d[:, r] * d[:, e]), 2)
    return acc


def mehler_oracle(f: CylinderFunction, t, xi: np.ndarray, kappa=None,
                  order: int = 0, hermite_nodes: int = 60):
    """Exact semigroup T_t g^(order)(<a, .>) of a ridge function's profile
    or its derivative, under the linear drift -kappa x.

    kappa = 1 + linear_grad of the weight, on all n coordinates; None is
    the zero weight, kappa = 1.  <a, X_t> started at xi is Gaussian with
    mean <a, e^{-kappa t} xi_c> and variance sum_i a_i^2 (1 - e^{-2
    kappa_i t}) / kappa_i, so the expectation is one Gauss-Hermite sum
    over that law: exact for polynomials of degree < 2 hermite_nodes, and
    at 60 nodes within 1e-15 of the closed forms for cos<a, x>.  t is a
    time or times (T,), xi a point (n,) or points (P, n); the result has
    shape t.shape + xi.shape[:-1], a float for one time and one point.
    """
    t, xi = np.asarray(t, dtype=float), np.asarray(xi, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    rate = (np.ones(f.a.size) if kappa is None
            else np.asarray(kappa, dtype=float)[f.coords])
    tt = np.atleast_1d(t)[:, None]
    mean = (np.exp(-rate * tt)[:, None, :]
            * np.atleast_2d(xi)[:, f.coords]) @ f.a            # (T, P)
    sd = np.sqrt((-np.expm1(-2.0 * rate * tt) / rate) @ (f.a * f.a))
    z, w = np.polynomial.hermite_e.hermegauss(hermite_nodes)
    g = (f.g, f.dg, f.d2g)[order]
    out = g(mean[..., None] + sd[:, None, None] * z) @ w / np.sqrt(2.0 * np.pi)
    out = out.reshape(t.shape + xi.shape[:-1])
    return float(out) if out.ndim == 0 else out


def resolvent_oracle(weight: ConvexWeight, f: CylinderFunction, lam: float,
                     x: np.ndarray, time_nodes: int = TIME_NODES,
                     hermite_nodes: int = 20):
    """Value, gradient and Hessian of R(lam) f at the points x (P, n), for
    a weight with linear_grad and a ridge f = g(<a, x_c>).

    R(lam) f = int_0^inf e^{-lam t} T_t f dt on the nodes of laplace_rule,
    with T_t g, T_t g' and T_t g'' from mehler_oracle; with d =
    a e^{-kappa_c t}, the gradient integrates d_i T_t g' and the Hessian
    d_i d_j T_t g''.  These are the quadrature and the weights that
    resolvent_batch's exact paths sample, so its path means estimate the
    same numbers.  At the default nodes the relative error is at most
    about 5e-6 for tanh and step profiles.  Returns (value (P,), gradient
    (k, P), Hessian (k, k, P)) in f.coords, k = f.a.size.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    kappa = _kappa(weight)[:, 0]
    times, (w,) = laplace_rule([lam], time_nodes)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    u, du, d2u = (mehler_oracle(f, times, x, kappa, m, hermite_nodes)
                  for m in range(3))
    d = f.a * np.exp(-np.multiply.outer(times, kappa[f.coords]))
    return (w @ u, np.einsum("t,tk,tp->kp", w, d, du),
            np.einsum("t,tk,tl,tp->klp", w, d, d, d2u))
