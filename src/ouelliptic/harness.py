"""End-to-end verification of the solver estimates across weights, dims, lambda.

Each report row checks one inequality for one solved problem:

  L2_ratio         ||u|| / ||f||              against  1/lam
  grad_ratio       ||grad u|| / ||f||         against  1/sqrt(lam)
  hess_ratio       ||D2 u||_HS / ||f||        against  sqrt(2)
  sup_ratio        sup|u| / sup|f|            against  1/lam
  grad_sup_ratio   sup|grad u| / sup|f|       against  sqrt(pi/lam)
  weak_identity    |lam<u,p> + <Du,Dp> - <f,p>| / (||f|| ||p||)   against 0
  domain_equiv_ratio  graph/W22 vs 1  and  W22/graph vs 2+sqrt(2)
  dissipativity    <u, L u>                   against 0

with u = (lam - L)^{-1} f and all norms in L^2 of the normalized weighted
Gaussian.  Norms are additive where the checked inequalities are between
norm sums: graph = ||u|| + ||Lu||, W22 = ||u|| + ||Du|| + ||D2u||_HS.

A row passes when estimate <= bound + 3*std_error + allowance, where the
allowance covers deterministic discretization bias and is reported in
the CSV tables: mesh^2 for grid solves, and [mc] dt for Monte Carlo
solves.  There dt is only the allowance's scale: the paths take the
exact transition of the linear drift, never a time step, and are
observed at the 16 nodes of a time rule that errs by about 5e-6
relative.  Rows whose inequality is lambda-free carry lambda = 0.

Solutions come from the finite-difference grid for n <= 2 and from
Monte Carlo resolvents for larger n (configurable).  Every ratio row is
a node sum.  Grid rows sum over the grid nodes against the cell masses
of nu, read from the solution's node table: deterministic, with standard
error 0, so they pass on their allowance alone.  The Monte Carlo route
is restricted to coordinatewise-separable weights, for which a test
function of the first m coordinates has a solution depending on the
same m coordinates, with nu's marginal there an explicit product
Gaussian; its rows sum over a tensor Gauss-Hermite rule on those
coordinates, with the solution's value and pathwise derivatives at each
node from one path ensemble, and a standard error from the paths alone.
The domain rows are node sums too, on the grid of the at most two
coordinates their ridge test functions read, with each profile and its
derivatives in closed form; like the grid rows they carry standard
error 0 and the grid allowance.  The ladder integrates on an
importance-sampling cloud, drawn and evaluated in row blocks.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cylinder, galerkin, grid, wiener
from .config import ConfigError, ExperimentConfig, load_config
from .mc import resolvent_batch
from .norms import sn_norm
from .rng import MISC_TAG, NORM_TAG, mix64, substream
from .weights import ConvexWeight, diagonal_quadratic_weight, zero_weight

DOMAIN_CONSTANT = 2.0 + math.sqrt(2.0)
HESS_CONSTANT = math.sqrt(2.0)

_EM_REL = 1.0           # Monte Carlo allowance dt * (1 + 1/lam) per unit
                        # bound; dt is only its scale, kept until the
                        # oracle's errors set the allowance
_WEAK_COEF = 25.0       # weak-identity allowance in units of mesh^2
_LADDER_SAMPLES = 20_000
_BLOCK_ROWS = 2_048     # ladder-rung cloud rows drawn and evaluated at once
# Gauss-Hermite nodes per axis of the Monte Carlo rows' rule, by the test
# function's active dimension; against 60 nodes (resolvent_oracle, energy
# at n = 3 and 4) they err by at most 6.3e-5 relative for tanh and step
# and 4.9e-8 for cos on two coordinates
_HERMITE_NODES = {0: 1, 1: 20, 2: 8}


# ---------------------------------------------------------------------------
# registries

def separable_diagonal(cfg: ExperimentConfig, n: int):
    """Quadratic-form diagonal of the weight, or None if not separable."""
    if cfg.weight == "zero":
        return np.zeros(n)
    if cfg.weight == "quadratic":
        return np.full(n, cfg.weight_params["coeff"])
    if cfg.weight == "energy":
        return wiener.WienerBasis(n).lam.copy()
    return None


def make_weight(cfg: ExperimentConfig, n: int) -> ConvexWeight:
    """Instantiate the configured weight at dimension n."""
    diag = separable_diagonal(cfg, n)
    if diag is not None:
        if not diag.any():
            return zero_weight(n)
        return diagonal_quadratic_weight(diag, label=cfg.weight)
    p = cfg.weight_params
    return _max_endpoint_table(n, p["modes"], p["tail_samples"], cfg.seed,
                               p["time_points"], p["epsilon"],
                               cfg.grid_radius, cfg.grid_mesh)


# A run needs one entry per grid dim (1 and 2), shared by every stage.
@functools.lru_cache(maxsize=2)
def _max_endpoint_table(n, modes, tail_samples, seed, time_points, eps,
                        radius, mesh) -> ConvexWeight:
    """The max-endpoint weight at dimension n, mollified at scale eps, as
    a node table on the grid box.

    The truncated weight is tabulated once (and dropped after), on the
    grid box widened by eps and one mesh, so the mollifier's shifted
    queries stay inside it.  The mollification is evaluated, value and
    subgradient in one pass, at the grid nodes: bit-identical there, so
    the grid drift does not move, and off by one cell's bilinear error
    between them.
    """
    raw = galerkin.tabulate_weight(
        wiener.max_endpoint_truncated(n, modes=modes, samples=tail_samples,
                                      seed=seed, time_points=time_points),
        radius + eps + mesh, mesh)
    return galerkin.tabulate_weight(galerkin.mollify(raw, eps), radius, mesh)


def make_test_function(name: str, n: int) -> cylinder.CylinderFunction:
    if name == "const":
        return cylinder.constant(1.0)
    if name == "tanh":
        return cylinder.tanh_coord(1.0, coord=0)
    if name == "cos":
        a = np.array([1.0]) if n == 1 else np.array([1.0, 1.0]) / np.sqrt(2.0)
        return cylinder.cos_linear(a)
    if name == "step":
        return cylinder.smoothed_indicator(0.0, 0.5)
    raise ConfigError(f"unknown test function '{name}'")


# Smallest dimension at which each named test function stops changing
# shape.  "cos" switches from cos(x1) to a diagonal two-coordinate
# direction at n=2; a slope fit mixing the two would measure a change of
# test function rather than a change of dimension.
_STABLE_FROM = {"const": 1, "tanh": 1, "cos": 2, "step": 1}


def random_test_functions(seed: int, n: int, count: int = 10):
    """Smooth cylindrical probes with analytic derivatives."""
    rng = substream(seed, MISC_TAG, n, count)
    out = []
    for j in range(count):
        kind = j % 3
        if kind == 0:
            a = rng.standard_normal(n)
            a /= np.linalg.norm(a)
            phi = cylinder.cos_linear(a)
        elif kind == 1:
            phi = cylinder.tanh_coord(0.5 + rng.random(),
                                      coord=int(rng.integers(n)))
        else:
            phi = cylinder.hermite(int(rng.integers(1, 4)),
                                   coord=int(rng.integers(n)))
        out.append(dataclasses.replace(phi, label=f"{phi.label}#{j}"))
    return out


# ---------------------------------------------------------------------------
# report rows

@dataclass(frozen=True)
class ReportRow:
    weight: str
    n: int
    lam: float
    quantity: str
    estimate: float
    std_error: float
    bound: float
    margin: float
    passed: bool
    f_label: str = ""        # CSV detail columns, not part of the JSON schema
    allowance: float = 0.0
    route: str = ""

    def json_dict(self):
        """The JSON schema; a non-finite number (an error row's NaN
        estimate and infinite standard error) is null."""
        d = {"weight": self.weight, "n": self.n, "lambda": self.lam,
             "quantity": self.quantity, "estimate": self.estimate,
             "std_error": self.std_error, "bound": self.bound,
             "margin": self.margin, "pass": self.passed}
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in d.items()}


def make_row(weight, n, lam, quantity, estimate, std_error, bound, *,
             allowance=0.0, f_label="", route="") -> ReportRow:
    est, se, b = float(estimate), float(std_error), float(bound)
    passed = bool(np.isfinite(est) and np.isfinite(se)
                  and est <= b + 3.0 * se + allowance)
    return ReportRow(weight=weight, n=int(n), lam=float(lam), quantity=quantity,
                     estimate=est, std_error=se, bound=b, margin=b - est,
                     passed=passed, f_label=f_label,
                     allowance=float(allowance), route=route)


_CSV_FIELDS = ("weight", "n", "lambda", "quantity", "estimate", "std_error",
               "bound", "margin", "pass", "f", "allowance", "route")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@dataclass
class EstimateReport:
    rows: list

    def sorted_rows(self):
        return sorted(self.rows, key=lambda r: (r.weight, r.n, r.lam,
                                                r.quantity, r.f_label))

    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def failing(self):
        return [r for r in self.sorted_rows() if not r.passed]

    def to_json(self) -> str:
        return json.dumps([r.json_dict() for r in self.sorted_rows()],
                          indent=2, sort_keys=True, allow_nan=False)

    def to_csv(self) -> str:
        lines = [",".join(_CSV_FIELDS)]
        for r in self.sorted_rows():
            lines.append(",".join([r.weight, str(r.n), _fmt(r.lam), r.quantity,
                                   _fmt(r.estimate), _fmt(r.std_error),
                                   _fmt(r.bound), _fmt(r.margin),
                                   _fmt(r.passed), r.f_label,
                                   _fmt(r.allowance), r.route]))
        return "\n".join(lines) + "\n"

    def merged(self, other: "EstimateReport") -> "EstimateReport":
        return EstimateReport(rows=self.rows + other.rows)


# ---------------------------------------------------------------------------
# shared estimation helpers

def _grid_allowance(bound: float, cfg: ExperimentConfig) -> float:
    return 4.0 * cfg.grid_mesh ** 2 * bound


def _mc_allowance(bound: float, lam: float, cfg: ExperimentConfig) -> float:
    return _EM_REL * cfg.mc.dt * (1.0 + 1.0 / lam) * bound


def _solution_rows(cfg: ExperimentConfig, n: int, lam: float, name: str,
                   f: cylinder.CylinderFunction, ratios, sups, allowance,
                   route: str) -> list:
    """The L2, grad, hess, sup and grad_sup ratio rows of one solution.

    ratios holds (estimate, standard error) of ||u|| / ||f||,
    ||grad u|| / ||f|| and ||D2 u||_HS / ||f||, from the route's nodes.
    sups holds |u| and |grad u| at those nodes, each with its per-node
    standard error (None on the grid, whose node values are exact); the
    sup rows, written when f declares its sup norm, take the largest of
    them.  A constant f has derivatives that vanish exactly, so its
    derivative rows are 0.  allowance(bound) is the route's allowance for
    a row of that bound.
    """
    table = [("L2_ratio", 0, 1.0 / lam, ratios[0]),
             ("grad_ratio", 1, 1.0 / math.sqrt(lam), ratios[1]),
             ("hess_ratio", 2, HESS_CONSTANT, ratios[2])]
    if f.sup_norm:
        for quantity, order, bound, (vals, se) in (
                ("sup_ratio", 0, 1.0 / lam, sups[0]),
                ("grad_sup_ratio", 1, math.sqrt(math.pi / lam), sups[1])):
            k = int(np.argmax(vals))
            table.append((quantity, order, bound,
                          (vals[k] / f.sup_norm,
                           0.0 if se is None else se[k] / f.sup_norm)))
    rows = []
    for quantity, order, bound, (est, se) in table:
        if f.active_dim == 0 and order:
            est, se = 0.0, 0.0
        rows.append(make_row(cfg.weight, n, lam, quantity, est, se, bound,
                             allowance=allowance(bound),
                             f_label=name, route=route))
    return rows


# ---------------------------------------------------------------------------
# grid route

def _node_weights(weight: ConvexWeight, spec: grid.GridSpec) -> np.ndarray:
    """Normalised weights of nu on the grid nodes, in spec.points() order.

    Node x gets e^{-U(x)} times the N(0, I) mass of its cell.  As on the
    ladder's cloud, which clips its draws one mesh inside the box, the
    Gaussian tail beyond the second-outermost nodes goes to those nodes,
    and the outer ring of nodes, where the differences are one-sided,
    gets 0.
    """
    # per axis: P(Z > (j + 1/2) h) at the faces j = 0 .. m-2, then 0
    tail = [0.5 * math.erfc((j + 0.5) * spec.mesh / math.sqrt(2.0))
            for j in range(spec.half_cells - 1)] + [0.0]
    side = np.append(np.diff(-np.array(tail)), 0.0)     # nodes 1 .. m
    mass = np.concatenate([side[::-1], [1.0 - 2.0 * tail[0]], side])
    mass = functools.reduce(np.multiply.outer, [mass] * spec.dim).ravel()
    logw = -np.asarray(weight.eval(spec.points()), dtype=float)
    w = np.exp(logw - np.max(logw)) * mass
    return w / np.sum(w)


def _node_sum(values: np.ndarray, wts: np.ndarray):
    """sum_k values[..., k] wts[k], by einsum: unlike a BLAS product, it
    adds the nodes in the same order whatever the BLAS thread count."""
    return np.einsum("...k,k->...", values, wts, optimize=False)


def _weighted_nodes(weight: ConvexWeight, spec: grid.GridSpec):
    """The grid nodes that carry weight: the mask of them in spec.points()
    order, the nodes themselves and their weights of nu."""
    wts = _node_weights(weight, spec)
    live = wts > 0.0
    return live, spec.points()[live], wts[live]


def _grid_rows(cfg: ExperimentConfig, n: int) -> list:
    w = make_weight(cfg, n)
    spec = grid.GridSpec(dim=n, radius=cfg.grid_radius, mesh=cfg.grid_mesh)
    op = grid.assemble_operator(w, spec)
    # every integral is a sum over the nodes that carry weight, the points x
    live, x, wts = _weighted_nodes(w, spec)
    fs = [(name, make_test_function(name, n)) for name in cfg.test_functions]
    probes = random_test_functions(cfg.seed, n)
    # f (tests, points) and p (probes, points) at the nodes, with their
    # L2 norms; grad p (probes, points, n)
    fv = np.stack([np.asarray(f(x), dtype=float) for _, f in fs])
    fl2 = np.sqrt(_node_sum(np.square(fv), wts))
    pv = np.stack([np.asarray(p(x), dtype=float) for p in probes])
    pg = np.stack([p.gradient(x) for p in probes])
    pl2 = np.sqrt(_node_sum(np.square(pv), wts))
    rows = []
    for lam in cfg.lambdas:
        sols = grid.solve_elliptic_grid(w, [f for _, f in fs], lam, spec,
                                        operator=op)
        for i, (name, f) in enumerate(fs):
            # free each node table once read: tables held into the next
            # factorisation add to the run's peak memory
            uv, ug, uh = (a[live] for a in sols[i].nodes())
            sols[i] = None
            gsq, hsq = np.sum(ug * ug, -1), np.sum(uh * uh, (-2, -1))
            rows += _solution_rows(
                cfg, n, lam, name, f,
                [(math.sqrt(_node_sum(sq, wts)) / fl2[i], 0.0)
                 for sq in (uv * uv, gsq, hsq)],
                ((np.abs(uv), None), (np.sqrt(gsq), None)),
                lambda bound: _grid_allowance(bound, cfg), "grid")

            # the weak identity against every probe, one row per probe
            resid = _node_sum(lam * uv * pv + np.sum(ug * pg, -1) - fv[i] * pv,
                              wts)
            for p, r, l2 in zip(probes, resid, pl2):
                scale = max(fl2[i] * l2, 1e-12)
                rows.append(make_row(
                    cfg.weight, n, lam, "weak_identity", abs(r) / scale, 0.0,
                    0.0, allowance=_WEAK_COEF * cfg.grid_mesh ** 2,
                    f_label=f"{name}|{p.label}", route="grid"))
    return rows


# ---------------------------------------------------------------------------
# Monte Carlo route

def _hermite_rule(f: cylinder.CylinderFunction, kappa: np.ndarray, n: int):
    """Starts (Q^m, n) and weights (Q^m,) of the tensor Gauss-Hermite rule
    of nu's marginal on f's m = f.active_dim coordinates, N(0, 1/kappa_i)
    on each, with Q = _HERMITE_NODES[m]; the other coordinates are 0."""
    m = f.active_dim
    z, w = np.polynomial.hermite_e.hermegauss(_HERMITE_NODES[m])
    z, w = (np.array(list(itertools.product(v, repeat=m))) for v in (z, w))
    starts = np.zeros((len(z), n))
    starts[:, :m] = z / np.sqrt(kappa[:m])
    return starts, np.prod(w, axis=1) / (2.0 * math.pi) ** (m / 2.0)


def _path_ratio(per_path: np.ndarray, wts: np.ndarray, f_l2: float):
    """sqrt(sum_k wts[k] |E per_path[..., k, :]|^2) / f_l2 and its
    standard error, from the per-path values (..., K, paths) at K nodes,
    |.| summing the leading axes.

    Each squared path mean is debiased by the variance of that mean.  All
    nodes share the paths, so the standard error is the delta method per
    path: the sum's influence of path p is 2 sum_k wts[k] <mean_k, value
    of p at k>.  A sum that is not positive gives (0, inf).
    """
    paths = per_path.shape[-1]
    per_path = per_path.reshape(-1, wts.size, paths)
    mean = per_path.mean(-1)
    var = per_path.var(-1, ddof=1) / paths
    sq = float(_node_sum(np.sum(mean * mean - var, 0), wts))
    if sq <= 0.0:
        return 0.0, math.inf
    infl = np.einsum("ck,ckp->p", mean * wts, per_path, optimize=False)
    return (math.sqrt(sq) / f_l2,
            float(np.std(infl, ddof=1)) / math.sqrt(paths * sq) / f_l2)


def _mc_rows(cfg: ExperimentConfig, n: int) -> list:
    """The ratio rows of the Monte Carlo route at dimension n.

    A test function f reads only its first m = f.active_dim coordinates,
    and so does its solution under a separable weight, whose nu has the
    product marginal N(0, 1/kappa_i) there.  So every norm is a sum over
    the nodes of a tensor Gauss-Hermite rule on those coordinates
    (_hermite_rule), ||f|| included: the solution's value, gradient and
    Hessian at each node are path means from one ensemble that every
    function shares, and each row's standard error comes from the paths
    alone.  The sup rows take the largest path mean over the nodes.
    """
    w = make_weight(cfg, n)
    if w.linear_grad is None:
        raise ConfigError("Monte Carlo route requires a separable weight")
    kappa = 1.0 + np.asarray(w.linear_grad, dtype=float)
    fs = [(name, make_test_function(name, n)) for name in cfg.test_functions]
    rules = [_hermite_rule(f, kappa, n) for _, f in fs]
    mc_cfg = dataclasses.replace(cfg.mc, seed=int(mix64(cfg.seed, 7001, n)))
    acc = resolvent_batch(w, [x for x, _ in rules], [f for _, f in fs],
                          list(cfg.lambdas), mc_cfg)

    rows = []
    for j, ((name, f), (x, wts)) in enumerate(zip(fs, rules)):
        f_l2 = math.sqrt(_node_sum(np.square(np.asarray(f(x), dtype=float)),
                                   wts))
        for i, lam in enumerate(cfg.lambdas):
            jet = acc[i][j]
            u, g = jet.value.mean(-1), jet.grad.mean(-1)
            uvar, gvar = (p.var(-1, ddof=1) / mc_cfg.paths
                          for p in (jet.value, jet.grad))
            rows += _solution_rows(
                cfg, n, lam, name, f,
                [_path_ratio(p, wts, f_l2) for p in jet],
                ((np.abs(u), np.sqrt(uvar)),
                 (np.sqrt(np.sum(g * g, 0)), np.sqrt(np.sum(gvar, 0)))),
                lambda bound: _mc_allowance(bound, lam, cfg), "mc")
    return rows


# ---------------------------------------------------------------------------
# verification entry points

def _guarded(cfg: ExperimentConfig, n: int, quantity: str, stage):
    """stage() for dimension n, and its failing rows.

    A ValueError, ArithmeticError or LinAlgError raised by the stage
    gives no result and one failing row (route "failed") that names the
    error, so a failed stage still writes every artifact and exits 1.
    """
    try:
        return stage(), []
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:
        return [], [make_row(cfg.weight, n, 0.0, quantity, math.nan, math.inf,
                             0.0, f_label=f"error: {e}", route="failed")]


def verify_main_estimates(cfg: ExperimentConfig) -> EstimateReport:
    """Solution-norm ratio rows for every (n, lambda, f) of the config."""
    rows = []
    for n in cfg.dims:
        use_grid = cfg.route == "grid" or (cfg.route == "auto" and n <= 2)
        done, failed = _guarded(cfg, n, "L2_ratio", lambda: (
            _grid_rows(cfg, n) if use_grid else _mc_rows(cfg, n)))
        rows += done + failed
    return EstimateReport(rows=rows)


def verify_domain_equivalence(cfg: ExperimentConfig) -> EstimateReport:
    """Graph-norm versus Sobolev-norm rows, plus dissipativity.

    Test functions are smooth ridges with closed-form derivatives, so
    both norms and <u, Lu> are node sums on the grid of their active
    coordinates; no equation is solved and nothing is drawn.  These rows
    are lambda-free and carry lambda = 0.  They are computed once per
    active dimension m = min(n, 2) and copied to every n that shares it.
    """
    by_m, rows = {}, []
    for n in cfg.dims:
        m = min(n, 2)
        if m not in by_m:
            done, failed = _guarded(cfg, m, "domain_equiv_ratio",
                                    lambda: _domain_rows(cfg, m))
            by_m[m] = done + failed
        rows += [dataclasses.replace(r, n=n) for r in by_m[m]]
    return EstimateReport(rows=rows)


def _ridge_integrals(u: cylinder.CylinderFunction, x: np.ndarray,
                     b: np.ndarray, wts: np.ndarray):
    """The L2(nu) norms of u, grad u, D2 u and Lu, and <u, Lu>, as sums
    over the points x with weights wts; b is the weight's drift at x.

    u = g(s), s = <a, x_c>, so every per-point quantity is a (points,)
    vector in closed form:

      u = g(s)                  |grad u|^2 = g'(s)^2 |a|^2
      ||D2 u||_HS^2 = (g''(s) |a|^2)^2
      Lu = g''(s) |a|^2 + g'(s) <b(x)_c, a>,

    and no (points, n) gradient or (points, n, n) Hessian is built.
    """
    asq = float(u.a @ u.a)
    s = u.project(x)
    uv, dg, d2g = u.g(s), u.dg(s), u.d2g(s)
    lu = d2g * asq + dg * (b[:, u.coords] @ u.a)
    squares = (uv * uv, np.square(dg) * asq, np.square(d2g * asq), lu * lu)
    return ([math.sqrt(_node_sum(sq, wts)) for sq in squares],
            float(_node_sum(uv * lu, wts)))


def _domain_rows(cfg: ExperimentConfig, n: int) -> list:
    """The domain-equivalence and dissipativity rows at dimension n.

    Every test function reads at most the first m = min(n, 2)
    coordinates, and for a separable weight (the only kind run at n > 2)
    nu's marginal on them is nu at dimension m, whose drift there reads
    only them.  So each row is a sum over the weighted grid nodes of
    dimension m, as the grid rows are, with the drift evaluated once:
    standard error 0, the grid allowance, and the same rows at every
    n >= 2.  The const rows are exact: 1 against 1 and 0 against 0.
    """
    m = min(n, 2)
    w = make_weight(cfg, m)
    _, x, wts = _weighted_nodes(
        w, grid.GridSpec(dim=m, radius=cfg.grid_radius, mesh=cfg.grid_mesh))
    b = w.drift(x)
    rows = []
    for name in cfg.test_functions:
        (unorm, gnorm, hnorm, lnorm), inner = _ridge_integrals(
            make_test_function(name, n), x, b, wts)
        graph, w22 = unorm + lnorm, unorm + gnorm + hnorm
        for label, est, bound in (("graph/W22", graph / w22, 1.0),
                                  ("W22/graph", w22 / graph, DOMAIN_CONSTANT)):
            rows.append(make_row(cfg.weight, n, 0.0, "domain_equiv_ratio",
                                 est, 0.0, bound,
                                 allowance=_grid_allowance(bound, cfg),
                                 f_label=f"{name}|{label}", route="analytic"))
        rows.append(make_row(cfg.weight, n, 0.0, "dissipativity", inner, 0.0,
                             0.0, f_label=name, route="analytic"))
    return rows


def ladder_table(cfg: ExperimentConfig) -> tuple[list, list]:
    """Residual of the full equation along the truncation ladder.

    For each grid-solvable n the rung solves the reduced problem that the
    grid rows check, on make_weight(cfg, n): for max-endpoint the
    truncation mollified at the config's epsilon, and a separable weight
    as is.  || lam V - L V - f || is then estimated in L^2 of the full
    weighted measure at the master truncation; the drift gap makes it
    shrink as n grows.  For a separable weight the full drift in the
    first n coordinates reads only those coordinates, so the residual is
    the reduced one and its rung draws the exact n-coordinate marginal
    of the full measure.  The table's epsilon is the scale the rung's
    weight is mollified at, 0 for a separable weight.  Returns the table
    and the failing report rows of the rungs that raised.
    """
    table, failed = [], []
    for n in [n for n in cfg.dims if n <= 2]:
        done, bad = _guarded(cfg, n, "ladder_residual",
                             lambda: [_ladder_rung(cfg, n)])
        table += done
        failed += bad
    return table, failed


def _ladder_rung(cfg: ExperimentConfig, n: int) -> dict:
    """One rung of the ladder: the reduced solve at n, on the weight
    make_weight(cfg, n), and its residual.

    Max-endpoint draws the cloud in all modes from N(0, I), weights it
    by e^{-U} and reads the full weight's subgradient in the first n
    coordinates.  The cloud is drawn and evaluated in blocks of
    _BLOCK_ROWS rows, one after another from one generator, and a block
    keeps only its log weights, its first n coordinates and their
    subgradient columns.  The draws do not depend on the block size; the
    weight's path matrix product may, in its last bit, where the BLAS
    tiling of a block differs from that of the whole cloud (seen with
    OpenBLAS at time_points 256, not at 64 or 128).  A separable weight
    (linear_grad) has the product measure N(0, 1 / (1 + linear_grad_i))
    and a drift whose first n coordinates read only x_1..x_n, so the rung
    draws those n coordinates exactly, with log weights 0, and the
    residual it estimates is the reduced one.
    """
    lam = float(cfg.lambdas[0])
    f = make_test_function("tanh", 1)
    w = make_weight(cfg, n)
    rng = substream(cfg.seed, NORM_TAG, 4, n)
    lo, hi = -cfg.grid_radius + cfg.grid_mesh, cfg.grid_radius - cfg.grid_mesh
    if cfg.weight == "max-endpoint":
        p = cfg.weight_params
        eps = p["epsilon"]
        full = wiener.max_endpoint_convex_weight(p["modes"],
                                                 time_points=p["time_points"])
        logw = np.empty(_LADDER_SAMPLES)
        xi, g_full = np.empty((2, _LADDER_SAMPLES, n))
        for start in range(0, _LADDER_SAMPLES, _BLOCK_ROWS):
            xm = rng.standard_normal(
                (min(_BLOCK_ROWS, _LADDER_SAMPLES - start), p["modes"]))
            np.clip(xm[:, :n], lo, hi, out=xm[:, :n])
            value, grad = full.value_subgrad(xm)
            block = slice(start, start + len(xm))
            logw[block] = -np.asarray(value, dtype=float)
            xi[block], g_full[block] = xm[:, :n], grad[:, :n]
    else:
        eps = 0.0       # a separable weight is not mollified
        xi = rng.standard_normal((_LADDER_SAMPLES, n)) / np.sqrt(
            1.0 + np.asarray(w.linear_grad))
        np.clip(xi, lo, hi, out=xi)
        logw, g_full = np.zeros(_LADDER_SAMPLES), w.subgrad(xi)
    spec = grid.GridSpec(dim=n, radius=cfg.grid_radius, mesh=cfg.grid_mesh)
    [u] = grid.solve_elliptic_grid(w, [f], lam, spec)
    val, gv, hv = u.jet(xi)
    resid = (lam * val - (np.trace(hv, axis1=-2, axis2=-1)
                          - ((g_full + xi) * gv).sum(-1))
             - np.asarray(f(xi), dtype=float))
    norm, se = sn_norm(resid * resid, logw)
    return {"weight": cfg.weight, "n": n, "epsilon": eps, "lambda": lam,
            "f": "tanh", "residual_l2": norm, "std_error": se}


def nslope_table(cfg: ExperimentConfig, report: EstimateReport) -> list:
    """Least-squares slope of each ratio quantity across n.

    Constant test functions are excluded (their ratio carries no
    dimension information), each group is restricted to dimensions
    where the test function keeps the same shape, and the pass rule
    |slope| <= 2 SE gets the grid's bias allowance when the group holds
    a grid row (grid rows have no sampling error, so equal grid ratios
    differ by roundoff alone) and the Monte Carlo one as well when the
    rows mix solver routes.

    Only separable weights are probed.  For those, a problem in n
    coordinates embeds exactly into n+1 (the extra coordinate integrates
    out), so the ratios are predicted n-free and a slope is meaningful.
    A conditioned truncation like max-endpoint changes the weight itself
    from one n to the next; its drift across n belongs to the ladder
    table, not to a flatness check.
    """
    if separable_diagonal(cfg, 1) is None:
        return []
    groups = {}
    for r in report.rows:
        if r.quantity not in ("L2_ratio", "grad_ratio", "hess_ratio"):
            continue
        if r.f_label == "const" or r.route == "failed":
            continue
        if r.n < _STABLE_FROM.get(r.f_label, 1):
            continue
        key = (r.weight, r.lam, r.f_label, r.quantity)
        groups.setdefault(key, []).append(r)
    out = []
    for (weight, lam, f_label, quantity), rows in sorted(groups.items()):
        if len({r.n for r in rows}) < 2:
            continue
        ns = np.array([r.n for r in rows], dtype=float)
        es = np.array([r.estimate for r in rows])
        ses = np.array([r.std_error for r in rows])
        nbar = ns.mean()
        denom = np.sum((ns - nbar) ** 2)
        coef = (ns - nbar) / denom
        slope = float(np.sum(coef * es))
        se = float(np.sqrt(np.sum(coef ** 2 * ses ** 2)))
        routes = {r.route for r in rows}
        allow = 0.0
        if len(routes) > 1:
            allow += _mc_allowance(1.0, lam, cfg)
        if "grid" in routes:
            allow += _grid_allowance(1.0, cfg)
        allow = allow * float(np.mean(es)) / (ns.max() - ns.min())
        passed = bool(abs(slope) <= 2.0 * se + allow)
        out.append({"weight": weight, "lambda": lam, "f": f_label,
                    "quantity": quantity, "slope": slope, "std_error": se,
                    "allowance": allow, "pass": passed})
    return out


# ---------------------------------------------------------------------------
# experiment runner

def _dict_csv(rows: list, fields: list) -> str:
    lines = [",".join(fields)]
    for r in rows:
        lines.append(",".join(_fmt(r[k]) for k in fields))
    return "\n".join(lines) + "\n"


def summarize(report: EstimateReport, ladder: list, nslope: list) -> str:
    lines = []
    counts = {}
    for r in report.rows:
        ok, total = counts.get(r.quantity, (0, 0))
        counts[r.quantity] = (ok + (1 if r.passed else 0), total + 1)
    lines.append(f"rows: {len(report.rows)}  "
                 f"passing: {sum(r.passed for r in report.rows)}")
    for q in sorted(counts):
        ok, total = counts[q]
        lines.append(f"  {q}: {ok}/{total}")
    for r in report.failing():
        lines.append(f"  FAIL {r.weight} n={r.n} lambda={r.lam:g} "
                     f"{r.quantity} [{r.f_label}] estimate={r.estimate:.6g} "
                     f"bound={r.bound:.6g} se={r.std_error:.3g}")
    if ladder:
        steps = ", ".join(f"n={r['n']}: {r['residual_l2']:.4g}"
                          for r in ladder)
        lines.append(f"ladder residuals: {steps}")
    if nslope:
        bad = [r for r in nslope if not r["pass"]]
        lines.append(f"n-slope probes: {len(nslope) - len(bad)}/{len(nslope)} flat")
        for r in bad:
            lines.append(f"  SLOPE {r['weight']} lambda={r['lambda']:g} "
                         f"{r['quantity']} [{r['f']}] slope={r['slope']:.4g} "
                         f"se={r['std_error']:.3g}")
    return "\n".join(lines) + "\n"


def run_experiment(config_path=None, scope: str = "all", seed=None, out=None,
                   quiet: bool = False) -> int:
    """Run the configured verification and write report artifacts.

    Returns 0 when every report row passes, 1 when any fails, 2 on
    configuration errors.  Artifacts: report.json, tables/*.csv, and
    summary.txt under the output directory.
    """
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=int(seed))
        if out is not None:
            cfg = dataclasses.replace(cfg, output_dir=str(out))
    except (OSError, ValueError) as e:     # ConfigError is a ValueError
        print(f"config error: {e}")
        return 2

    report = EstimateReport(rows=[])
    ladder, nslope = [], []
    if scope in ("all", "main"):
        main = verify_main_estimates(cfg)
        report = report.merged(main)
        nslope = nslope_table(cfg, main)
        if scope == "all":
            ladder, failed = ladder_table(cfg)
            report = report.merged(EstimateReport(rows=failed))
    if scope in ("all", "domain"):
        report = report.merged(verify_domain_equivalence(cfg))

    outdir = Path(cfg.output_dir)
    (outdir / "tables").mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(report.to_json())
    (outdir / "tables" / "estimates.csv").write_text(report.to_csv())
    if scope in ("all", "main"):
        (outdir / "tables" / "nslope.csv").write_text(_dict_csv(
            nslope, ["weight", "lambda", "f", "quantity", "slope",
                     "std_error", "allowance", "pass"]))
    if scope == "all":
        (outdir / "tables" / "ladder.csv").write_text(_dict_csv(
            ladder, ["weight", "n", "epsilon", "lambda", "f",
                     "residual_l2", "std_error"]))
    text = summarize(report, ladder, nslope)
    (outdir / "summary.txt").write_text(text)
    if not quiet:
        print(text, end="")
    return 0 if report.all_pass() else 1
