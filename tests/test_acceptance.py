"""Desk-scale acceptance run: twelve go/no-go criteria for the package.

Each test checks one criterion end to end at its stated tolerance and
time budget, and prints a single PASS line with the measured margins
(run with ``pytest tests/test_acceptance.py -s`` to see the lines).
A failed assertion inside a test is the FAIL line for that criterion.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from ouelliptic import cylinder, galerkin, grid, harness, mc, wiener
from ouelliptic.config import default_config
from ouelliptic.cylinder import constant, coordinate, cos_linear
from ouelliptic.proximal import envelope_gradient, moreau_envelope, prox_point
from ouelliptic.weights import (abs_weight, diagonal_quadratic_weight,
                                huber_weight, quadratic_weight,
                                standard_family, zero_weight)


def _pass(num, name, t0, budget, detail=""):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    extra = f"  [{detail}]" if detail else ""
    print(f"\n[{num:2d}/12] PASS {name} ({elapsed:.1f}s / {budget:.0f}s){extra}")


def _config_path(name: str) -> str:
    return str(Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini")


@pytest.fixture(scope="module")
def energy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("energy-run")
    code = harness.run_experiment(config_path=_config_path("energy"),
                                  scope="all", out=str(out), quiet=True)
    return code, out


def test_criterion_01_proximal_closed_forms():
    t0 = time.time()
    worst = 0.0

    def check(got, want):
        nonlocal worst
        got = np.atleast_1d(np.asarray(got, dtype=float))
        want = np.atleast_1d(np.asarray(want, dtype=float))
        rel = float(np.max(np.abs(got - want) / np.abs(want)))
        worst = max(worst, rel)
        assert rel <= 1e-8

    coeffs = np.array([1.0, 2.0])
    w = quadratic_weight(np.diag(coeffs))
    x = np.array([1.5, -2.0])
    for alpha in (0.25, 1.0, 3.0):
        res = prox_point(w, x, alpha, tol=1e-10)
        shrink = 1.0 + coeffs * alpha
        check(res.minimizer, -coeffs * alpha * x / shrink)
        check(res.envelope, np.sum(0.5 * coeffs * x ** 2 / shrink))
        check(res.gradient, coeffs * x / shrink)

    # Huber, one coordinate in the quadratic region and one in the linear
    hub = huber_weight(2)
    x = np.array([0.9, -2.5])
    res = prox_point(hub, x, 0.5, tol=1e-10)
    check(res.minimizer, np.array([-0.3, 0.5]))
    check(res.envelope, 0.9 ** 2 / 3.0 + (2.5 - 0.25 - 0.5))
    check(res.gradient, np.array([0.6, -1.0]))

    _pass(1, "proximal closed forms", t0, 1.0, f"worst rel {worst:.1e}")


def test_criterion_02_prox_nonexpansive():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = -np.inf
    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        family = standard_family(dim, rng)
        w = family[int(rng.integers(len(family)))]
        x = 2.0 * rng.standard_normal(dim)
        h = rng.standard_normal(dim)
        alpha = float(rng.uniform(0.1, 2.0))
        p1 = x + prox_point(w, x, alpha).minimizer
        p2 = (x + h) + prox_point(w, x + h, alpha).minimizer
        worst = max(worst, float(np.linalg.norm(p2 - p1) - np.linalg.norm(h)))
    assert worst <= 1e-6
    _pass(2, "prox nonexpansiveness, 1000 trials", t0, 10.0,
          f"worst excess {worst:.1e}")


def test_criterion_03_envelope_monotone_gradient_exact():
    t0 = time.time()
    weights = [quadratic_weight(np.array([[0.8]])), huber_weight(1),
               abs_weight(1)]
    xs = np.linspace(-3.0, 3.0, 100)

    for w in weights:
        f_vals = np.asarray(w.eval(xs.reshape(-1, 1)), dtype=float)
        prev = None
        for alpha in (1.0, 0.5, 0.25, 0.125):   # envelopes rise as alpha drops
            vals = np.array([moreau_envelope(w, np.array([x]), alpha)
                             for x in xs])
            assert np.all(vals <= f_vals + 1e-9)
            if prev is not None:
                assert np.all(vals >= prev - 1e-9)
            prev = vals

    worst = 0.0
    step = 1e-5
    for w in weights:
        for x in (-2.2, -0.7, 0.4, 1.9):
            g = envelope_gradient(w, np.array([x]), 0.5)[0]
            num = (moreau_envelope(w, np.array([x + step]), 0.5)
                   - moreau_envelope(w, np.array([x - step]), 0.5)) / (2 * step)
            rel = abs(num - g) / max(abs(g), 1e-3)
            worst = max(worst, rel)
            assert rel <= 1e-4
    _pass(3, "envelope monotone in alpha, gradient identity", t0, 10.0,
          f"worst fd rel {worst:.1e}")


def test_criterion_04_mehler_equivalence():
    t0 = time.time()
    cfg = mc.DiffusionConfig(dt=1e-3, paths=100_000, seed=11)
    xi = np.array([3.0])
    fs = [coordinate(0), cos_linear(np.array([1.0])), cylinder.hermite(2)]
    worst_rel = 0.0
    for f in fs:
        for t in (0.25, 1.0):
            got = mc.semigroup_apply(zero_weight(1), f, t, xi, cfg)
            want = mc.mehler_oracle(f, t, xi)
            err = abs(got.mean - want)
            rel = err / abs(want)
            worst_rel = max(worst_rel, rel)
            assert err <= 3.0 * got.std_error
            assert rel <= 0.02
    _pass(4, "Mehler semigroup oracle, 1e5 paths", t0, 60.0,
          f"worst rel {worst_rel:.2%}")


def test_criterion_05_dimension_free_gradient_bound():
    t0 = time.time()
    cfg = mc.DiffusionConfig(dt=2e-3, paths=20_000, seed=3)
    slack = np.inf
    for n in (1, 2, 4, 8):
        f = cos_linear(np.ones(n) / math.sqrt(n))
        ws = {"zero": zero_weight(n),
              "quadratic": diagonal_quadratic_weight(np.full(n, 0.5)),
              "energy": diagonal_quadratic_weight(wiener.WienerBasis(n).lam)}
        for t in (0.25, 1.0):
            bound = 1.0 / math.sqrt(t)
            for w in ws.values():
                g = mc.semigroup_gradient(w, f, t, 0.3 * np.ones(n), cfg)
                norm = math.sqrt(sum(gi.mean ** 2 for gi in g))
                se = math.sqrt(sum(gi.std_error ** 2 for gi in g))
                slack = min(slack, 1.05 * bound + 3.0 * se - norm)
                assert norm <= 1.05 * bound + 3.0 * se
    _pass(5, "gradient bound sup|f|/sqrt(t), n up to 8", t0, 300.0,
          f"min slack {slack:.3f}")


def test_criterion_06_resolvent_bounds_and_hermite_scaling():
    t0 = time.time()
    lams = (0.5, 1.0, 2.0)

    # eigenfunction scaling 1/(lam + k), Monte Carlo route
    he = [cylinder.hermite(1), cylinder.hermite(2)]
    he_vals = (1.5, 1.5 ** 2 - 1.0)
    acc = mc.resolvent_batch(zero_weight(1), [np.array([[1.5]])] * len(he), he,
                             list(lams),
                             mc.DiffusionConfig(dt=2e-3, paths=40_000, seed=9))
    worst_mc = 0.0
    for i, lam in enumerate(lams):
        for j, k in enumerate((1, 2)):
            want = he_vals[j] / (lam + k)
            rel = abs(acc[i][j].value[0].mean() - want) / abs(want)
            worst_mc = max(worst_mc, rel)
            assert rel <= 0.02

    # same scaling on the grid
    spec = grid.GridSpec(dim=1, radius=6.0, mesh=1.0 / 32.0)
    worst_grid = 0.0
    for k in (1, 2):
        fk = cylinder.hermite(k, coord=0)
        for lam in lams:
            [u] = grid.solve_elliptic_grid(zero_weight(1), [fk], lam, spec)
            got = float(u.value(np.array([[1.5]]))[0])
            want = he_vals[k - 1] / (lam + k)
            rel = abs(got - want) / abs(want)
            worst_grid = max(worst_grid, rel)
            assert rel <= 1e-4

    # sup bounds 1/lam and sqrt(pi/lam) for a weighted problem
    w = diagonal_quadratic_weight(np.full(2, 0.5))
    f = cos_linear(np.array([1.0, 1.0]) / math.sqrt(2))
    pts = np.array([[0.0, 0.0], [0.8, -0.5], [-1.2, 1.0],
                    [2.0, 0.3], [-0.4, -1.6]])
    acc = mc.resolvent_batch(w, [pts], [f], list(lams),
                             mc.DiffusionConfig(dt=2e-3, paths=20_000, seed=6))
    for i, lam in enumerate(lams):
        per = acc[i][0].value
        for s in range(pts.shape[0]):
            se = per[s].std(ddof=1) / math.sqrt(per.shape[1])
            assert abs(per[s].mean()) <= 1.0 / lam + 3.0 * se
        gcfg = mc.DiffusionConfig(dt=4e-3, paths=10_000, seed=6)
        grad, _ = mc.resolvent_derivatives(w, f, lam, 0.3 * np.ones(2), gcfg)
        norm = math.sqrt(sum(g.mean ** 2 for g in grad))
        se = math.sqrt(sum(g.std_error ** 2 for g in grad))
        assert norm <= math.sqrt(math.pi / lam) + 3.0 * se + 0.02

    _pass(6, "resolvent bounds and 1/(lam+k) scaling", t0, 180.0,
          f"mc rel {worst_mc:.2%}, grid rel {worst_grid:.1e}")


def test_criterion_07_grid_mc_cross_validation():
    t0 = time.time()
    w = diagonal_quadratic_weight(np.array([0.5]))
    f = cos_linear(np.array([1.0]))
    [u] = grid.solve_elliptic_grid(w, [f], 1.0,
                                   grid.GridSpec(dim=1, radius=6.0,
                                                 mesh=1.0 / 64.0))
    pts = np.array([[-1.6], [-0.8], [0.0], [0.8], [1.6]])
    acc = mc.resolvent_batch(w, [pts], [f], [1.0],
                             mc.DiffusionConfig(dt=2e-3, paths=30_000, seed=4))
    per = acc[0][0].value
    worst = 0.0
    for i in range(pts.shape[0]):
        gv = float(u.value(pts[i:i + 1])[0])
        rel = abs(gv - per[i].mean()) / abs(gv)
        worst = max(worst, rel)
        assert rel <= 0.02
    _pass(7, "grid vs Monte Carlo at 5 interior points", t0, 60.0,
          f"worst rel {worst:.2%}")


def test_criterion_08_registered_matrix(energy_run, tmp_path):
    t0 = time.time()
    code, out = energy_run
    outputs = {"energy": (code, out)}
    for name in ("zero", "quadratic", "max-endpoint"):
        dest = tmp_path / name
        rc = harness.run_experiment(config_path=_config_path(name),
                                    scope="all", out=str(dest), quiet=True)
        outputs[name] = (rc, dest)

    total_rows, total_slopes = 0, 0
    for name, (rc, dest) in outputs.items():
        assert rc == 0, f"{name} run failed"
        rows = json.loads((dest / "report.json").read_text())
        assert rows and all(r["pass"] for r in rows), name
        total_rows += len(rows)
        nslope = (dest / "tables" / "nslope.csv").read_text().splitlines()
        for line in nslope[1:]:
            total_slopes += 1
            assert line.split(",")[-1] == "true", f"{name} slope not flat"
    _pass(8, "registered weight/dim/lambda matrix", t0, 600.0,
          f"{total_rows} rows, {total_slopes} flat slopes")


def test_criterion_09_domain_equivalence_and_divergence():
    t0 = time.time()
    base = default_config()
    for name in ("zero", "quadratic", "energy"):
        cfg = dataclasses.replace(base, weight=name)
        rep = harness.verify_domain_equivalence(cfg)
        assert len(rep.rows) == 36 and rep.all_pass(), name

    # generator as weighted divergence of the gradient, exact identity
    u = cos_linear(np.array([1.0, -0.5]))
    w = wiener.energy_convex_weight(2)
    field = wiener.gradient_field(u, 2)
    pts = np.random.default_rng(1).standard_normal((50, 2))
    div = wiener.weighted_divergence(field, lambda z: w.subgrad(z), pts)
    lap = np.sum(u.hessian_diag(pts), axis=-1)
    drift = np.sum((w.subgrad(pts) + pts) * u.gradient(pts), axis=-1)
    gap = float(np.max(np.abs(div - (lap - drift))))
    assert gap < 1e-12
    _pass(9, "domain equivalence 2+sqrt(2), dissipativity, divergence", t0,
          120.0, f"identity gap {gap:.1e}")


def test_criterion_10_wiener_module():
    t0 = time.time()
    basis = wiener.WienerBasis(12)
    t = np.linspace(0.0, 1.0, 10001)
    e = basis.e(t)
    gram = np.array([[simpson(e[i] * e[j], x=t) for j in range(12)]
                     for i in range(12)])
    ortho = float(np.max(np.abs(gram - np.eye(12))))
    assert ortho < 1e-8

    big = wiener.WienerBasis(64)
    ts = np.array([1, 2, 3, 4, 5]) / 6.0
    coeffs = np.random.default_rng(0).standard_normal((10000, 64))
    paths = coeffs @ big.h(ts)
    prods = paths[:, :, None] * paths[:, None, :]
    cov_se = prods.std(axis=0, ddof=1) / math.sqrt(paths.shape[0])
    assert np.all(np.abs(prods.mean(axis=0) - np.minimum.outer(ts, ts))
                  <= 4.0 * cov_se + 5e-3)

    w32 = wiener.energy_convex_weight(32)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 1000, 32))
    lip = float(np.max(np.linalg.norm(w32.subgrad(x) - w32.subgrad(y), axis=1)
                       / np.linalg.norm(x - y, axis=1)))
    assert lip <= (4.0 / math.pi) * 1.01

    p = wiener.sample_path(wiener.WienerBasis(16), 4)
    res = wiener.max_endpoint_weight(p)
    assert not res.tie
    g = wiener.WienerBasis(16).h(p.grid)[2]
    ends = wiener.WienerBasis(16).h(np.array([res.argmax, 1.0]))[2]
    want = ends[0] + ends[1]
    f0 = float(np.max(p.values) + p.values[-1])
    for tt in (1e-2, 1e-3, 1e-4):
        shifted = p.values + tt * g
        quot = (float(np.max(shifted) + shifted[-1]) - f0) / tt
        assert abs(quot - want) <= 10.0 * tt

    field = wiener.gradient_field(cos_linear(np.array([0.5, 1.0])), 2)
    r = wiener.ibp_residual(cos_linear(np.array([1.0, 0.5])), field,
                            wiener.energy_convex_weight(2), 4,
                            samples=100_000, seed=0)
    assert abs(r.mean) <= 3.0 * r.std_error + 1e-3
    r2 = wiener.ibp_residual(coordinate(0), wiener.constant_field(np.array([1.0])),
                             zero_weight(1), 2, samples=50_000, seed=1)
    assert abs(r2.mean) <= 3.0 * r2.std_error + 1e-3

    _pass(10, "path-space basis, weights, Gateaux, IBP", t0, 180.0,
          f"gram {ortho:.1e}, lip {lip:.4f}")


def test_criterion_11_galerkin_ladder():
    t0 = time.time()

    # conditional expectation of the energy weight, closed form
    lam = wiener.WienerBasis(4096).lam
    xi = np.array([1.0, -0.5])
    got = galerkin.conditional_expectation(wiener.energy_convex_weight(4096),
                                           2, xi, samples=20_000, seed=11)
    target = lam[0] + 0.25 * lam[1] + (0.5 - lam[0] - lam[1])
    gap = abs(got.mean - target)
    assert gap <= 3.0 * got.std_error

    # gradient-correction norm strictly decreasing along the ladder
    full = wiener.energy_convex_weight(64)
    lam64 = wiener.WienerBasis(64).lam
    prev = np.inf
    for n in (1, 2, 4, 8):
        tw = galerkin.TruncatedWeight(full, n, samples=100)
        corr = galerkin.gradient_correction_norm(full, tw.as_convex_weight(),
                                                 samples=20_000, seed=4)
        oracle = math.sqrt(float(np.sum(
            4.0 * lam64[n:] ** 2 / (1.0 + 2.0 * lam64[n:]))))
        assert abs(corr.mean - oracle) <= 3.0 * corr.std_error + 5e-4
        assert corr.mean < prev
        prev = corr.mean

    # reduced solve plugged into the full equation
    full16 = wiener.energy_convex_weight(16)
    tw = galerkin.TruncatedWeight(full16, 2, samples=200, seed=5)
    mol = galerkin.mollify(tw.as_convex_weight(), 0.5)
    f = cos_linear(np.array([1.0, 0.4]))
    [u] = grid.solve_elliptic_grid(mol, [f.value], 1.0,
                                   grid.GridSpec(dim=2, radius=6.0,
                                                 mesh=1.0 / 16.0))
    pts = np.random.default_rng(3).standard_normal((100, 16))
    pts[:, :2] = np.clip(pts[:, :2], -2.5, 2.5)
    resid = galerkin.perturbation_residual(u, full16, mol, 1.0, f.value, pts)
    worst = float(np.max(np.abs(resid)))
    assert worst <= 5e-2
    _pass(11, "truncation ladder: closed form, corrections, residual", t0,
          300.0, f"cond gap {gap:.1e}, residual {worst:.1e}")


def test_criterion_12_deterministic_report(energy_run, tmp_path):
    t0 = time.time()
    code, out = energy_run
    assert code == 0
    rerun = tmp_path / "again"
    rc = harness.run_experiment(config_path=_config_path("energy"),
                                scope="all", out=str(rerun), quiet=True)
    assert rc == 0
    first = (out / "report.json").read_bytes()
    second = (rerun / "report.json").read_bytes()
    assert first == second
    elapsed = time.time() - t0
    print(f"\n[12/12] PASS bit-identical report.json across reruns "
          f"({elapsed:.1f}s)  [{len(first)} bytes]")
