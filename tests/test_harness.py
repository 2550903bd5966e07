"""Experiment harness: config parsing, report rows, routes, CLI wiring."""

import ast
import csv
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ouelliptic import cli, galerkin, grid, harness, wiener
from ouelliptic.config import default_config, load_config
from ouelliptic.harness import ConfigError, EstimateReport, ExperimentConfig, make_row
from ouelliptic.mc import DiffusionConfig
from ouelliptic.weights import (ConvexWeight, diagonal_quadratic_weight,
                                zero_weight)


TINY_INI = """[experiment]
weight = zero
dims = 1
lambdas = 1
test_functions = const tanh
seed = 0

[mc]
dt = 0.05
paths = 400

[grid]
radius = 5
mesh = 0.125

[weight_params]
modes = 16
"""


def strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity that strict readers refuse."""
    def reject(const):
        raise ValueError(f"non-standard JSON constant {const}")

    return json.loads(text, parse_constant=reject)


def small_cfg(**overrides):
    base = dict(
        weight="zero", dims=(1,), lambdas=(1.0,), test_functions=("const",),
        mc=DiffusionConfig(dt=0.05, paths=400, seed=0), output_dir="results",
        seed=0, mc_cloud=8)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_shipped_config_spells_out_defaults():
    shipped = Path(__file__).resolve().parents[1] / "configs" / "energy.ini"
    cfg = load_config(shipped)
    assert cfg == default_config()
    assert cfg.weight == "energy" and cfg.dims == (1, 2, 4)
    assert cfg.route == "auto"
    assert cfg.weight_params["modes"] == 256


def test_config_file_overrides(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("""[experiment]
weight = quadratic
dims = 1, 2
lambdas = 0.5 2
test_functions = const, cos
seed = 7
route = grid        ; solver choice

[mc]
dt = 0.01
paths = 5000
cloud = 16

[grid]
radius = 4
mesh = 0.25
norm_samples = 3000

[weight_params]
coeff = 0.25
""")
    cfg = load_config(p)
    assert cfg.weight == "quadratic"
    assert cfg.dims == (1, 2)
    assert cfg.lambdas == (0.5, 2.0)
    assert cfg.test_functions == ("const", "cos")
    assert cfg.seed == 7 and cfg.route == "grid"
    assert cfg.mc.dt == 0.01 and cfg.mc.paths == 5000
    assert cfg.mc_cloud == 16
    assert cfg.grid_radius == 4.0 and cfg.grid_mesh == 0.25
    assert cfg.norm_samples == 3000
    assert cfg.weight_params["coeff"] == 0.25


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("no_such_file.ini")


def test_config_malformed_text(tmp_path):
    p = tmp_path / "broken.ini"
    p.write_text("this is not an ini file\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(p)


def test_config_bad_values(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[experiment]\ndims = one two\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[mc]\ndt = fast\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[mc]\ndt = -0.5\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[mc]\ndt = inf\n")
    with pytest.raises(ConfigError, match="dt must be positive and finite"):
        load_config(p)
    # the paths take no time step, so no horizon or Laplace-node key exists
    p.write_text("[mc]\nt_max = inf\n")
    with pytest.raises(ConfigError, match="unknown key 't_max'"):
        load_config(p)
    p.write_text("[mc]\nquad_nodes = 64\n")
    with pytest.raises(ConfigError, match="unknown key 'quad_nodes'"):
        load_config(p)


@pytest.mark.parametrize("overrides", [
    {"weight": "bogus"},
    {"dims": ()},
    {"dims": (0,)},
    {"dims": (1.5,)},
    {"lambdas": ()},
    {"lambdas": (0.0,)},
    {"test_functions": ()},
    {"test_functions": ("sin",)},
    {"weight": "max-endpoint", "dims": (1, 4)},
    {"route": "fast"},
    {"route": "grid", "dims": (4,)},
    {"route": "mc", "weight": "max-endpoint"},
    {"grid_mesh": 0.0},
    {"norm_samples": 10},
    {"mc_cloud": 2},
    {"lambdas": (float("nan"),)},
    {"weight": "max-endpoint", "weight_params": {"modes": 2}, "dims": (1, 2)},
    {"weight": "max-endpoint", "weight_params": {"modes": 1}, "dims": (1,)},
    {"weight": "quadratic", "weight_params": {"coeff": float("nan")}},
    {"weight": "max-endpoint", "weight_params": {"tail_samples": 0}},
    {"weight": "max-endpoint", "weight_params": {"time_points": 0}},
    {"weight": "max-endpoint", "weight_params": {"epsilon": 0.0}},
    {"weight": "max-endpoint", "weight_params": {"modes": float("inf")}},
    {"weight": "quadratic", "weight_params": {"coeff": -1.0}},
    {"grid_radius": 6.0, "grid_mesh": 7.0},
    {"grid_radius": 0.5, "grid_mesh": 0.5},
    {"grid_radius": float("inf")},
    {"grid_mesh": float("inf")},
    {"lambdas": (1.0, float("inf"))},
    {"weight": "max-endpoint", "weight_params": {"epsilon": float("nan")}},
])
def test_config_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        small_cfg(**overrides)


def test_weight_registry():
    cfg = small_cfg()
    w = harness.make_weight(cfg, 3)
    assert np.all(np.asarray(w.eval(np.zeros((4, 3)))) == 0.0)

    diag = harness.separable_diagonal(small_cfg(weight="quadratic"), 3)
    assert np.allclose(diag, 0.5)
    lam = harness.separable_diagonal(small_cfg(weight="energy"), 4)
    assert np.allclose(lam, wiener.WienerBasis(4).lam)
    assert harness.separable_diagonal(
        small_cfg(weight="max-endpoint", dims=(1,)), 1) is None

    with pytest.raises(ConfigError, match="unknown test function"):
        harness.make_test_function("bump", 1)


# ---------------------------------------------------------------------------
# report rows


def test_make_row_pass_rule():
    r = make_row("zero", 1, 1.0, "L2_ratio", 0.9, 0.01, 1.0)
    assert r.passed and r.margin == pytest.approx(0.1)

    # slack of three standard errors
    assert make_row("zero", 1, 1.0, "L2_ratio", 1.02, 0.01, 1.0).passed
    assert not make_row("zero", 1, 1.0, "L2_ratio", 1.05, 0.01, 1.0).passed

    # deterministic allowance adds on top
    assert make_row("zero", 1, 1.0, "L2_ratio", 1.04, 0.01, 1.0,
                    allowance=0.02).passed

    bad = make_row("zero", 1, 1.0, "L2_ratio", math.nan, math.inf, 1.0)
    assert not bad.passed

    # an infinite standard error cannot carry a row past its bound
    assert not make_row("zero", 1, 1.0, "grad_ratio", 0.0, math.inf, 1.0).passed


def test_json_row_schema():
    r = make_row("energy", 2, 0.5, "grad_ratio", 0.3, 0.01, 1.0,
                 f_label="tanh", route="grid", allowance=0.1)
    d = r.json_dict()
    assert sorted(d.keys()) == ["bound", "estimate", "lambda", "margin", "n",
                                "pass", "quantity", "std_error", "weight"]
    assert d["lambda"] == 0.5 and d["pass"] is True
    # presentation detail stays in the CSV, out of the JSON schema
    assert "f_label" not in d and "route" not in d and "allowance" not in d
    json.dumps(d)

    # an error row's NaN estimate and infinite SE are strict-JSON nulls
    bad = make_row("energy", 2, 0.0, "L2_ratio", math.nan, math.inf, 0.0,
                   f_label="error: x", route="failed")
    d = bad.json_dict()
    assert d["estimate"] is None and d["std_error"] is None
    assert d["margin"] is None and d["bound"] == 0.0 and d["pass"] is False
    parsed = strict_json(EstimateReport(rows=[r, bad]).to_json())
    assert [p["estimate"] for p in parsed] == [None, 0.3]    # sorted by lambda


def test_report_sorting_csv_and_merge():
    rows = [
        make_row("zero", 2, 1.0, "L2_ratio", 0.5, 0.0, 1.0, f_label="tanh"),
        make_row("zero", 1, 2.0, "grad_ratio", 0.5, 0.0, 1.0, f_label="cos"),
        make_row("zero", 1, 0.5, "L2_ratio", 0.5, 0.0, 1.0, f_label="tanh"),
        make_row("zero", 1, 0.5, "L2_ratio", 0.5, 0.0, 1.0, f_label="cos"),
    ]
    rep = EstimateReport(rows=rows)
    keys = [(r.n, r.lam, r.quantity, r.f_label) for r in rep.sorted_rows()]
    assert keys == sorted(keys)

    csv = rep.to_csv().splitlines()
    assert csv[0] == ("weight,n,lambda,quantity,estimate,std_error,"
                      "bound,margin,pass,f,allowance,route")
    assert len(csv) == len(rows) + 1
    first = csv[1].split(",")
    assert first[8] == "true"
    assert float(first[4]) == 0.5

    parsed = json.loads(rep.to_json())
    assert [p["quantity"] for p in parsed] == [r.quantity
                                               for r in rep.sorted_rows()]

    both = rep.merged(EstimateReport(rows=[
        make_row("zero", 1, 1.0, "hess_ratio", 9.0, 0.0, 1.0)]))
    assert len(both.rows) == 5
    assert not both.all_pass()
    assert [r.quantity for r in both.failing()] == ["hess_ratio"]
    assert rep.all_pass()


def test_csv_float_format_round_trips():
    val = 1.0 / 3.0
    rep = EstimateReport(rows=[make_row("zero", 1, 1.0, "L2_ratio",
                                        val, 0.0, 1.0)])
    est = rep.to_csv().splitlines()[1].split(",")[4]
    assert float(est) == val


# ---------------------------------------------------------------------------
# helpers


def test_random_probes_deterministic():
    a = harness.random_test_functions(0, 2)
    b = harness.random_test_functions(0, 2)
    assert len(a) == 10
    assert [f.label for f in a] == [f.label for f in b]
    assert len({f.label for f in a}) == 10
    x = np.linspace(-1.0, 1.0, 7).reshape(-1, 1) * np.ones((1, 2))
    for fa, fb in zip(a, b):
        assert np.array_equal(fa(x), fb(x))


# ---------------------------------------------------------------------------
# domain rows


def test_domain_rows_constant_exact():
    rep = harness.verify_domain_equivalence(small_cfg())
    assert len(rep.rows) == 3 and rep.all_pass()
    ratio_graph, ratio_w22, dissip = rep.rows
    assert ratio_graph.f_label == "const|graph/W22"
    assert ratio_graph.estimate == pytest.approx(1.0, abs=1e-12)
    assert ratio_graph.std_error == pytest.approx(0.0, abs=1e-12)
    assert ratio_graph.bound == 1.0 and ratio_graph.lam == 0.0
    assert ratio_w22.f_label == "const|W22/graph"
    assert ratio_w22.estimate == pytest.approx(1.0, abs=1e-12)
    assert ratio_w22.bound == pytest.approx(2.0 + math.sqrt(2.0))
    assert dissip.quantity == "dissipativity"
    assert dissip.estimate == pytest.approx(0.0, abs=1e-12)
    assert all(r.route == "analytic" for r in rep.rows)


def test_domain_rows_smooth_function():
    rep = harness.verify_domain_equivalence(
        small_cfg(test_functions=("const", "tanh")))
    assert len(rep.rows) == 6 and rep.all_pass()
    dissip = [r for r in rep.rows
              if r.quantity == "dissipativity" and r.f_label == "tanh"]
    # <u, Lu> = -E[(u')^2] under the Gaussian, strictly negative here
    assert dissip[0].estimate < -0.1


# ---------------------------------------------------------------------------
# grid route


@pytest.mark.parametrize("mesh", [1 / 32, 1 / 8])
@pytest.mark.parametrize("coeffs", [(), (0.5, 2.0)], ids=["zero", "quadratic"])
def test_node_weights_match_gaussian_moments(mesh, coeffs):
    """The node weights of nu sum to 1, are symmetric in every coordinate
    and give the closed-form second moments 1 / (1 + 2 c_i) of the
    weight sum_i c_i x_i^2, within h^2 / 6 relative (cell masses carry
    Sheppard's h^2 / 12)."""
    weight = (diagonal_quadratic_weight(np.array(coeffs)) if coeffs
              else zero_weight(1))
    spec = grid.GridSpec(dim=weight.dim, radius=6.0, mesh=mesh)
    wts = harness._node_weights(weight, spec)
    assert wts.sum() == pytest.approx(1.0, abs=1e-14)
    table = wts.reshape((spec.npoints,) * spec.dim)
    for k in range(spec.dim):
        assert np.array_equal(table, np.flip(table, axis=k))
    second = wts @ spec.points() ** 2
    want = 1.0 / (1.0 + 2.0 * np.array(coeffs or (0.0,)))
    np.testing.assert_allclose(second, want, rtol=mesh ** 2 / 6.0, atol=0.0)


def test_artifacts_do_not_read_norm_samples(tmp_path):
    """[grid] norm_samples is parsed and validated but read by nothing: a
    run with grid, Monte Carlo, domain and ladder stages writes the same
    bytes at two values of it."""
    text = TINY_INI.replace("weight = zero", "weight = energy").replace(
        "dims = 1", "dims = 1 3").replace("test_functions = const tanh",
                                          "test_functions = const tanh cos")
    outs = []
    for k in (2000, 3000):
        cfg = tmp_path / f"samples{k}.ini"
        cfg.write_text(text.replace("[grid]", f"[grid]\nnorm_samples = {k}"))
        assert load_config(cfg).norm_samples == k
        out = tmp_path / f"run{k}"
        assert cli.main(["verify-estimates", "--config", str(cfg), "--out",
                         str(out), "--quiet"]) == 0
        outs.append({f.relative_to(out): f.read_bytes()
                     for f in sorted(out.rglob("*")) if f.is_file()})
    assert outs[0] == outs[1] and len(outs[0]) == 5


# ---------------------------------------------------------------------------
# Monte Carlo route


def test_mc_route_rows():
    cfg = small_cfg(weight="quadratic", dims=(3,),
                    test_functions=("const", "tanh"),
                    mc=DiffusionConfig(dt=0.05, paths=800, seed=0))
    rows = harness._mc_rows(cfg, 3)
    assert len(rows) == 10
    assert all(r.route == "mc" and r.passed for r in rows)

    by = {(r.quantity, r.f_label): r for r in rows}
    # the exact paths' time rule integrates e^{-lam t} exactly and cuts
    # off no tail: the resolvent of a constant is exact
    assert by[("L2_ratio", "const")].estimate == pytest.approx(1.0, rel=1e-13)
    assert by[("L2_ratio", "const")].std_error <= 1e-15
    assert by[("grad_ratio", "const")].estimate == pytest.approx(0.0, abs=1e-9)
    assert by[("hess_ratio", "const")].estimate == pytest.approx(0.0, abs=1e-6)
    assert by[("grad_ratio", "tanh")].allowance > 0.0


def test_constant_derivative_rows_are_exact_zeros():
    mc_cfg = small_cfg(dims=(3,), route="mc", test_functions=("const", "tanh"),
                       mc=DiffusionConfig(dt=0.05, paths=200, seed=0))
    grid_cfg = small_cfg(dims=(1,), test_functions=("const", "tanh"),
                         grid_mesh=0.125, grid_radius=5.0)
    for cfg in (mc_cfg, grid_cfg):
        rows = harness.verify_main_estimates(cfg).rows
        assert rows and all(math.isfinite(r.std_error) for r in rows)
        # grid rows are exact node sums: no sampling error
        assert all(r.std_error == 0.0 for r in rows if r.route == "grid")
        flat = [r for r in rows if r.f_label == "const" and r.quantity in
                ("grad_ratio", "hess_ratio", "grad_sup_ratio")]
        assert len(flat) == 3
        assert all(r.estimate == 0.0 and r.std_error == 0.0 and r.passed
                   for r in flat)


def test_failed_solve_becomes_failing_row(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(grid, "solve_elliptic_grid", failing)
    rep = harness.verify_main_estimates(small_cfg())
    assert not rep.all_pass()
    row = rep.rows[0]
    assert row.route == "failed"
    assert math.isnan(row.estimate)
    assert row.f_label == "error: singular matrix"


# ---------------------------------------------------------------------------
# n-slope table


def test_nslope_slope_and_filtering():
    cfg = default_config()
    rows = [
        make_row("energy", 1, 1.0, "L2_ratio", 0.50, 0.01, 1.0,
                 f_label="tanh", route="grid"),
        make_row("energy", 2, 1.0, "L2_ratio", 0.50, 0.01, 1.0,
                 f_label="tanh", route="grid"),
        make_row("energy", 4, 1.0, "L2_ratio", 0.52, 0.01, 1.0,
                 f_label="tanh", route="grid"),
        # constants carry no dimension information
        make_row("energy", 1, 1.0, "L2_ratio", 0.9, 0.01, 1.0,
                 f_label="const", route="grid"),
        make_row("energy", 4, 1.0, "L2_ratio", 0.1, 0.01, 1.0,
                 f_label="const", route="grid"),
        # cos changes shape between n=1 and n=2, so n=1 is dropped
        make_row("energy", 1, 1.0, "grad_ratio", 9.0, 0.01, 1.0,
                 f_label="cos", route="grid"),
        make_row("energy", 2, 1.0, "grad_ratio", 0.40, 0.01, 1.0,
                 f_label="cos", route="grid"),
        make_row("energy", 4, 1.0, "grad_ratio", 0.41, 0.01, 1.0,
                 f_label="cos", route="grid"),
        # a single dimension cannot give a slope
        make_row("energy", 1, 1.0, "hess_ratio", 0.3, 0.01, 1.0,
                 f_label="step", route="grid"),
        # solver failures and non-ratio rows stay out
        make_row("energy", 2, 1.0, "L2_ratio", math.nan, math.inf, 0.0,
                 f_label="error: x", route="failed"),
        make_row("energy", 2, 1.0, "weak_identity", 0.0, 0.0, 0.0,
                 f_label="tanh|p", route="grid"),
        # deterministic grid rows, equal up to roundoff
        make_row("energy", 1, 1.0, "hess_ratio", 0.25, 0.0, 1.0,
                 f_label="tanh", route="grid"),
        make_row("energy", 2, 1.0, "hess_ratio", 0.25 + 1e-15, 0.0, 1.0,
                 f_label="tanh", route="grid"),
    ]
    table = harness.nslope_table(cfg, EstimateReport(rows=rows))
    assert {(r["f"], r["quantity"]) for r in table} == {
        ("tanh", "L2_ratio"), ("cos", "grad_ratio"), ("tanh", "hess_ratio")}

    tanh_row = next(r for r in table
                    if (r["f"], r["quantity"]) == ("tanh", "L2_ratio"))
    want = np.polyfit([1.0, 2.0, 4.0], [0.50, 0.50, 0.52], 1)[0]
    assert tanh_row["slope"] == pytest.approx(want, rel=1e-12)
    # a group of grid rows carries the grid's bias allowance
    assert tanh_row["allowance"] == pytest.approx(
        4.0 * cfg.grid_mesh ** 2 * np.mean([0.50, 0.50, 0.52]) / 3.0,
        rel=1e-12)
    assert tanh_row["pass"]

    # zero standard error: a roundoff slope passes on the allowance
    flat_row = next(r for r in table if r["quantity"] == "hess_ratio")
    assert flat_row["std_error"] == 0.0 and flat_row["slope"] != 0.0
    assert 0.0 < flat_row["allowance"] and flat_row["pass"]

    cos_row = next(r for r in table if r["f"] == "cos")
    want = np.polyfit([2.0, 4.0], [0.40, 0.41], 1)[0]
    assert cos_row["slope"] == pytest.approx(want, rel=1e-12)


def test_nslope_mixed_route_allowance():
    cfg = default_config()
    rows = [
        make_row("energy", 1, 1.0, "L2_ratio", 0.60, 0.005,
                 1.0, f_label="tanh", route="grid"),
        make_row("energy", 4, 1.0, "L2_ratio", 0.61, 0.005,
                 1.0, f_label="tanh", route="mc"),
    ]
    table = harness.nslope_table(cfg, EstimateReport(rows=rows))
    assert len(table) == 1
    want = (cfg.mc.dt * 2.0 + 4.0 * cfg.grid_mesh ** 2) * 0.605 / 3.0
    assert table[0]["allowance"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("weight", ["zero", "quadratic", "energy"])
def test_separable_ladder_rungs_are_resolved(weight):
    """A separable rung samples the exact marginal of the full measure,
    so its standard error is a small fraction of the residual; a cloud
    reweighted by e^{-U} over all modes has an effective size of a few
    samples for the quadratic weight, and an error of 20-35%."""
    cfg = small_cfg(weight=weight, dims=(1, 2), lambdas=(0.5,),
                    grid_radius=5.0, grid_mesh=1 / 8)
    table, failed = harness.ladder_table(cfg)
    assert not failed and [r["n"] for r in table] == [1, 2]
    for r in table:
        assert 0.0 < r["std_error"] <= 0.02 * r["residual_l2"], r


def small_max_endpoint_cfg(**overrides):
    return small_cfg(weight="max-endpoint", dims=(1, 2), lambdas=(0.5,),
                     grid_radius=5.0, grid_mesh=1 / 8, weight_params=dict(
                         modes=256, tail_samples=8, time_points=64,
                         epsilon=0.25), **overrides)


def test_cloud_stages_do_not_depend_on_block_size(monkeypatch):
    """The rung's cloud is drawn and evaluated in row blocks; 1,000-row
    blocks, with a partial last block, give the same bits as one block
    holding the whole cloud."""
    cfg = small_max_endpoint_cfg()
    harness._max_endpoint_table.cache_clear()
    results = []
    for rows in (1_000, harness._LADDER_SAMPLES):
        monkeypatch.setattr(harness, "_BLOCK_ROWS", rows)
        results.append([harness._ladder_rung(cfg, n) for n in (1, 2)])
    harness._max_endpoint_table.cache_clear()
    assert results[0] == results[1]


def _traced_peak_mb(stage) -> float:
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _domain_nodes(cfg, n):
    """The weight at min(n, 2) and the nodes and weights it sums over."""
    m = min(n, 2)
    w = harness.make_weight(cfg, m)
    spec = grid.GridSpec(dim=m, radius=cfg.grid_radius, mesh=cfg.grid_mesh)
    _, x, wts = harness._weighted_nodes(w, spec)
    return w, x, wts


@pytest.mark.parametrize("weight,n", [("energy", n) for n in (1, 2, 3, 4)]
                         + [("max-endpoint", n) for n in (1, 2)])
def test_domain_rows_match_generic_generator(weight, n):
    """The closed ridge form of the domain rows against the rows rebuilt
    from u.gradient, u.hessian and grid.apply_generator on the same node
    set: bit-identical wherever a = (1.0,) (every product by a is
    exact), and within 1e-12 relative for cos at n >= 2, whose
    a = (1, 1)/sqrt(2) rounds |a|^2."""
    names = ("const", "tanh", "cos", "step")
    if weight == "energy":
        cfg = small_cfg(weight="energy", dims=(n,), test_functions=names)
    else:
        cfg = small_max_endpoint_cfg(test_functions=names)
    harness._max_endpoint_table.cache_clear()
    closed = harness._domain_rows(cfg, n)
    w, x, wts = _domain_nodes(cfg, n)
    generic = []
    for name in cfg.test_functions:
        u = harness.make_test_function(name, n)
        uv, ug = u(x), u.gradient(x)
        lu = grid.apply_generator(w, u, x)
        unorm, lnorm = math.sqrt((uv * uv) @ wts), math.sqrt((lu * lu) @ wts)
        gnorm = math.sqrt(np.sum(ug * ug, -1) @ wts)
        hnorm = math.sqrt(np.sum(np.square(u.hessian(x)), (-2, -1)) @ wts)
        graph, w22 = unorm + lnorm, unorm + gnorm + hnorm
        generic += [graph / w22, w22 / graph, float((uv * lu) @ wts)]
    harness._max_endpoint_table.cache_clear()
    assert len(closed) == len(generic) == 12
    assert all(r.std_error == 0.0 and r.passed for r in closed)
    for row, est in zip(closed, generic):
        if row.f_label.startswith("cos") and n >= 2:
            assert row.estimate == pytest.approx(est, rel=1e-12, abs=1e-300)
        else:
            assert row.estimate == est, row.f_label


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("weight", ["zero", "quadratic", "energy"])
def test_domain_node_sums_match_gauss_hermite(weight, n):
    """The node sums at mesh 1/32 against tensor Gauss-Hermite in the
    ridge's Gaussian law: for a separable weight nu is N(0, 1/(1 + k_i))
    in each coordinate, k = linear_grad, and the drift is -(1 + k_i) x_i.
    Each norm and <u, Lu> agree within 1e-4 relative (2.4e-5 measured)."""
    cfg = small_cfg(weight=weight, dims=(n,))
    w, x, wts = _domain_nodes(cfg, n)
    rate = 1.0 + np.asarray(w.linear_grad)
    z, zw = np.polynomial.hermite_e.hermegauss(80)
    gx = grid.tensor_nodes(z, n) / np.sqrt(rate)
    gw = functools.reduce(np.multiply.outer, [zw / zw.sum()] * n).ravel()
    for name in ("tanh", "cos", "step"):
        u = harness.make_test_function(name, n)
        ug, uh = u.gradient(gx), u.hessian(gx)
        lu = np.trace(uh, axis1=-2, axis2=-1) - np.sum(rate * gx * ug, -1)
        uv = u(gx)
        want = [np.sqrt(gw @ v) for v in (uv * uv, np.sum(ug * ug, -1),
                                          np.sum(uh * uh, (-2, -1)), lu * lu)]
        norms, inner = harness._ridge_integrals(u, x, w.drift(x), wts)
        np.testing.assert_allclose(norms, want, rtol=1e-4, atol=0.0)
        assert inner == pytest.approx(gw @ (uv * lu), rel=1e-4, abs=0.0)


def test_domain_rows_do_not_depend_on_n_beyond_two():
    """A separable weight's domain rows read only the two coordinates of
    the test functions: n = 2, 3 and 4 give the same rows but for n."""
    names = ("const", "tanh", "cos", "step")
    by_n = [[dataclasses.replace(r, n=0) for r in harness._domain_rows(
        small_cfg(weight="energy", dims=(n,), test_functions=names), n)]
        for n in (2, 3, 4)]
    assert len(by_n[0]) == 12 and by_n[0] == by_n[1] == by_n[2]


def test_domain_rows_fail_on_a_flipped_drift(monkeypatch):
    """Teeth: with the drift's sign flipped, the domain rows of the energy
    weight at n = 3 and 4 (the Monte Carlo workload's dims, mesh 1/32)
    fail on dissipativity for tanh and step and on graph/W22 for cos."""
    monkeypatch.setattr(ConvexWeight, "drift",
                        lambda self, x: np.asarray(self.subgrad(x)) + x)
    cfg = small_cfg(weight="energy", dims=(3, 4), grid_radius=6.0,
                    grid_mesh=1 / 32, test_functions=("const", "tanh", "cos",
                                                      "step"))
    rows = harness.verify_domain_equivalence(cfg).rows
    assert len(rows) == 24
    assert sorted((r.n, r.f_label) for r in rows if not r.passed) == [
        (n, label) for n in (3, 4)
        for label in ("cos|graph/W22", "step", "tanh")]


def test_cloud_stages_peak_memory():
    """Neither cloud stage holds a whole-cloud array wider than n: the
    max-endpoint rung keeps n of the 256 mode columns, and the domain rows
    build no (points, n, n) Hessian on their 148,225 nodes at mesh
    1/32.  With whole-cloud arrays the two read 127 and 58 MB."""
    cfg = small_max_endpoint_cfg()
    harness._max_endpoint_table.cache_clear()
    harness._mollified_weight(cfg, 1)       # the table is not the rung's
    rung_mb = _traced_peak_mb(lambda: harness._ladder_rung(cfg, 1))
    harness._max_endpoint_table.cache_clear()
    domain_mb = _traced_peak_mb(lambda: harness._domain_rows(
        small_cfg(weight="energy", dims=(4,), grid_radius=6.0,
                  grid_mesh=1 / 32,
                  test_functions=("const", "tanh", "cos", "step")), 4))
    assert rung_mb <= 40.0 and domain_mb <= 45.0, (rung_mb, domain_mb)


# ---------------------------------------------------------------------------
# end-to-end runs


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "tiny.ini"
    cfg.write_text(TINY_INI)
    out = root / "run"
    code = cli.main(["verify-estimates", "--config", str(cfg),
                     "--out", str(out), "--quiet"])
    return code, cfg, out


def test_run_exit_zero_and_artifacts(tiny_run):
    code, _, out = tiny_run
    assert code == 0
    for rel in ("report.json", "summary.txt", "tables/estimates.csv",
                "tables/nslope.csv", "tables/ladder.csv"):
        assert (out / rel).is_file(), rel


def test_report_json_schema_on_disk(tiny_run):
    _, _, out = tiny_run
    rows = json.loads((out / "report.json").read_text())
    assert len(rows) == 36
    for r in rows:
        assert sorted(r.keys()) == ["bound", "estimate", "lambda", "margin",
                                    "n", "pass", "quantity", "std_error",
                                    "weight"]
        assert isinstance(r["n"], int) and isinstance(r["pass"], bool)
        assert r["pass"] is True
    keys = [(r["weight"], r["n"], r["lambda"], r["quantity"]) for r in rows]
    assert keys == sorted(keys)


def test_csv_tables_on_disk(tiny_run):
    _, _, out = tiny_run
    est = (out / "tables" / "estimates.csv").read_text().splitlines()
    assert est[0].split(",") == list(harness._CSV_FIELDS)
    assert len(est) == 36 + 1
    assert all(line.split(",")[8] in ("true", "false") for line in est[1:])

    # one configured dimension: slope needs two, so headers only
    nslope = (out / "tables" / "nslope.csv").read_text().splitlines()
    assert nslope == ["weight,lambda,f,quantity,slope,std_error,"
                      "allowance,pass"]

    ladder = (out / "tables" / "ladder.csv").read_text().splitlines()
    assert ladder[0] == "weight,n,epsilon,lambda,f,residual_l2,std_error"
    assert len(ladder) == 2
    fields = ladder[1].split(",")
    assert fields[0] == "zero" and fields[1] == "1"
    assert float(fields[5]) >= 0.0 and math.isfinite(float(fields[5]))


def test_summary_counts(tiny_run):
    _, _, out = tiny_run
    text = (out / "summary.txt").read_text()
    assert text.startswith("rows: 36  passing: 36")
    assert "weak_identity: 20/20" in text
    assert "ladder residuals: n=1:" in text
    assert "FAIL" not in text


def test_rerun_is_bit_identical(tiny_run):
    _, cfg, out = tiny_run
    out2 = out.parent / "again"
    code = harness.run_experiment(config_path=str(cfg), scope="all",
                                  out=str(out2), quiet=True)
    assert code == 0
    assert (out / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out / "tables" / "estimates.csv").read_bytes() == \
        (out2 / "tables" / "estimates.csv").read_bytes()


def test_seed_override_changes_estimates(tiny_run):
    _, cfg, out = tiny_run
    out3 = out.parent / "reseeded"
    code = harness.run_experiment(config_path=str(cfg), scope="all",
                                  seed=1, out=str(out3), quiet=True)
    assert code == 0
    assert (out / "report.json").read_bytes() != \
        (out3 / "report.json").read_bytes()


def test_each_weight_is_built_once_per_run(tmp_path, monkeypatch):
    """One max-endpoint table per grid dim serves every smoothing scale:
    the main and domain stages' eps = 0.25 and the ladder's eps = 1/n.
    Each scale's mollification is one node table on the grid box, which
    the main and domain stages share."""
    cfg = tmp_path / "mend.ini"
    cfg.write_text(MEND_INI)
    calls, nodes = [], []
    tabulate = galerkin.tabulate_weight

    def counting(inner, radius, mesh, *args, **kwargs):
        mollified = inner.label.startswith("mollified")
        (nodes if mollified else calls).append((inner.dim, radius))
        return tabulate(inner, radius, mesh, *args, **kwargs)

    harness._max_endpoint_table.cache_clear()
    monkeypatch.setattr(galerkin, "tabulate_weight", counting)
    code = harness.run_experiment(config_path=str(cfg), scope="all",
                                  out=str(tmp_path / "run"), quiet=True)
    harness._max_endpoint_table.cache_clear()
    assert code == 0
    # tabulation radius is grid radius + max(0.25, 1/n) + mesh
    assert sorted(calls) == [(1, 4.25), (2, 3.75)]
    # node tables on the grid radius: one per scale (0.25 and 1/n) per dim
    assert sorted(nodes) == [(1, 3.0)] * 2 + [(2, 3.0)] * 2


@pytest.mark.parametrize("n", [1, 2])
def test_shared_table_serves_every_scale_identically(n):
    """The run's mollified max-endpoint weight, read from the one table of
    dimension n, equals bit for bit the one read from a table widened by
    its own scale alone, at the config's eps and at the ladder's 1/n;
    both are served from a node table on the grid box."""
    radius, mesh = 3.0, 0.25
    cfg = small_cfg(weight="max-endpoint", dims=(1, 2), grid_radius=radius,
                    grid_mesh=mesh, weight_params=dict(
                        modes=16, tail_samples=4, time_points=32,
                        epsilon=0.25))
    raw = wiener.max_endpoint_truncated(n, modes=16, samples=4, seed=0,
                                        time_points=32)
    nodes = harness.grid.GridSpec(dim=n, radius=radius, mesh=mesh).points()
    cloud = np.random.default_rng(5).standard_normal((3000, n)) * 2.0
    np.clip(cloud, -radius + mesh, radius - mesh, out=cloud)
    harness._max_endpoint_table.cache_clear()
    for eps in (0.25, 1.0 / n):
        shared = harness._mollified_weight(cfg, n, eps)
        own = galerkin.tabulate_weight(galerkin.mollify(
            galerkin.tabulate_weight(raw, radius + eps + mesh, mesh), eps),
            radius, mesh)
        for x in (nodes, cloud):
            assert np.array_equal(shared.eval(x), own.eval(x))
            assert np.array_equal(shared.subgrad(x), own.subgrad(x))
    assert harness._max_endpoint_table.cache_info().misses == 1
    harness._max_endpoint_table.cache_clear()


def _scipy_served(table, radius, mesh):
    """A tabulated weight's node values served by scipy's interpolator,
    one per column, as tabulate_weight did before it had its own lookup."""
    from scipy.interpolate import RegularGridInterpolator

    n = table.dim
    half = int(round(radius / mesh))
    ax = np.arange(-half, half + 1) * mesh
    nodes = np.stack(np.meshgrid(*[ax] * n, indexing="ij"), -1).reshape(-1, n)
    vals, grads = table.value_subgrad(nodes)
    cols = [RegularGridInterpolator((ax,) * n, c.reshape((ax.size,) * n),
                                    bounds_error=False, fill_value=None)
            for c in [vals] + list(grads.T)]

    def ev(x):
        return cols[0](x.reshape(-1, n)).reshape(x.shape[:-1])

    def sg(x):
        flat = x.reshape(-1, n)
        return np.stack([c(flat) for c in cols[1:]], axis=-1).reshape(x.shape)

    return ConvexWeight(dim=n, eval=ev, subgrad=sg)


@pytest.mark.parametrize("n", [1, 2])
def test_node_table_matches_mollification(n):
    """The max-endpoint weight a stage reads is the mollification of the
    dimension's table, evaluated once at the grid nodes: bit-identical to
    the mollification computed on the fly at GridSpec.points() (so the
    grid drift does not move), and within c * mesh^2 of it between nodes
    (cell centres and a clipped cloud), at the config's eps and at the
    ladder's 1/n.  The on-the-fly reference reads the table through
    scipy's interpolator.  Measured on this config: at most 0.24 mesh^2
    in U and 0.72 mesh^2 in grad U."""
    radius, mesh = 3.0, 0.25
    cfg = small_cfg(weight="max-endpoint", dims=(1, 2), grid_radius=radius,
                    grid_mesh=mesh, weight_params=dict(
                        modes=16, tail_samples=4, time_points=32,
                        epsilon=0.25))
    nodes = harness.grid.GridSpec(dim=n, radius=radius, mesh=mesh).points()
    ax = np.arange(-radius, radius, mesh) + mesh / 2.0
    centres = ax[:, None] if n == 1 else np.stack(
        np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)
    cloud = np.random.default_rng(5).standard_normal((3000, n)) * 2.0
    np.clip(cloud, -radius + mesh, radius - mesh, out=cloud)
    between = np.concatenate([centres, cloud])
    wide = radius + max(0.25, 1.0 / n) + mesh
    table = galerkin.tabulate_weight(wiener.max_endpoint_truncated(
        n, modes=16, samples=4, seed=0, time_points=32), wide, mesh)
    harness._max_endpoint_table.cache_clear()
    for eps in (0.25, 1.0 / n):
        served = harness._mollified_weight(cfg, n, eps)
        fly = galerkin.mollify(_scipy_served(table, wide, mesh), eps)
        assert np.array_equal(served.eval(nodes), fly.eval(nodes))
        assert np.array_equal(served.subgrad(nodes), fly.subgrad(nodes))
        v, g = served.value_subgrad(between)
        assert np.max(np.abs(v - fly.eval(between))) <= 0.5 * mesh ** 2
        assert np.max(np.abs(g - fly.subgrad(between))) <= 2.0 * mesh ** 2
    assert harness._max_endpoint_table.cache_info().misses == 1
    harness._max_endpoint_table.cache_clear()


MEND_INI = """[experiment]
weight = max-endpoint
dims = 1 2
lambdas = 1
test_functions = const tanh
seed = 0
route = grid

[grid]
radius = 3
mesh = 0.25

[weight_params]
modes = 16
tail_samples = 4
time_points = 32
epsilon = 0.25
"""


@pytest.mark.parametrize("command", ["verify-estimates", "verify-domain"])
@pytest.mark.parametrize("fails_at, exc, error, passing", [
    ({2}, ValueError, "need 0 < n < modes", {1}),
    ({1, 2}, ZeroDivisionError, "integer division or modulo by zero", set()),
], ids=["modes-2", "no-tails"])
def test_stage_failure_is_a_failing_row(tmp_path, monkeypatch, command,
                                        fails_at, exc, error, passing):
    """When the truncation cannot be built at dimension 2 only, or at
    every dimension, each stage turns that into a failing row, writes
    every artifact and exits 1 instead of raising."""
    truncated = wiener.max_endpoint_truncated

    def failing(n, *args, **kwargs):
        if n in fails_at:
            raise exc(error)
        return truncated(n, *args, **kwargs)

    harness._max_endpoint_table.cache_clear()
    monkeypatch.setattr(wiener, "max_endpoint_truncated", failing)
    cfg = tmp_path / "mend.ini"
    cfg.write_text(MEND_INI)
    out = tmp_path / "run"
    code = cli.main([command, "--config", str(cfg), "--out", str(out),
                     "--quiet"])
    assert code == 1
    rows = strict_json((out / "report.json").read_text())
    assert {r["n"] for r in rows if r["pass"]} == passing
    with open(out / "tables" / "estimates.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == len(rows)
    failed = [r for r in table if r["route"] == "failed"]
    stages = {"domain_equiv_ratio"}
    if command == "verify-estimates":
        stages |= {"L2_ratio", "ladder_residual"}
        with open(out / "tables" / "ladder.csv", newline="") as fh:
            ladder = [int(r["n"]) for r in csv.DictReader(fh)]
        assert set(ladder) == passing
        assert (out / "tables" / "nslope.csv").is_file()
    assert {r["quantity"] for r in failed} == stages
    assert {int(r["n"]) for r in failed} == {1, 2} - passing
    assert all(r["pass"] == "false" and r["f"] == f"error: {error}"
               for r in failed)
    assert "FAIL" in (out / "summary.txt").read_text()
    harness._max_endpoint_table.cache_clear()


@pytest.mark.parametrize("edit", [("modes = 16", "modes = 2"),
                                  ("tail_samples = 4", "tail_samples = 0")],
                         ids=["modes-2", "no-tails"])
def test_bad_weight_params_exit_two(tmp_path, capsys, edit):
    """The configs that used to reach the solvers and come back as
    failing rows are config errors now: exit 2, and no run directory."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text(MEND_INI.replace(*edit))
    assert cli.main(["verify-estimates", "--config", str(cfg), "--out",
                     str(tmp_path / "run"), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().out
    assert not (tmp_path / "run").exists()


def test_modes_unread_by_separable_weights(tmp_path):
    """Only max-endpoint reads modes: an energy run at modes = 1, below a
    grid dim, is no config error and writes exactly the artifacts of the
    same run at modes = 256."""
    text = TINY_INI.replace("weight = zero", "weight = energy").replace(
        "dims = 1", "dims = 1 2")
    outs = []
    for modes in (1, 256):
        cfg = tmp_path / f"modes{modes}.ini"
        cfg.write_text(text.replace("modes = 16", f"modes = {modes}"))
        out = tmp_path / f"run{modes}"
        assert cli.main(["verify-estimates", "--config", str(cfg), "--out",
                         str(out), "--quiet"]) == 0
        outs.append({f.relative_to(out): f.read_bytes()
                     for f in sorted(out.rglob("*")) if f.is_file()})
    assert outs[0] == outs[1] and len(outs[0]) == 5


def test_narrow_domain_fails_honestly(tmp_path):
    cfg = tmp_path / "narrow.ini"
    cfg.write_text("""[experiment]
weight = zero
dims = 1
lambdas = 1
test_functions = const tanh
seed = 0

[grid]
radius = 1.2
mesh = 0.0625
""")
    out = tmp_path / "narrow"
    code = harness.run_experiment(config_path=str(cfg), scope="main",
                                  out=str(out), quiet=True)
    assert code == 1
    rows = json.loads((out / "report.json").read_text())
    fails = [r for r in rows if not r["pass"]]
    assert fails and all(r["quantity"] == "weak_identity" for r in fails)
    assert "FAIL" in (out / "summary.txt").read_text()


def test_config_problems_exit_two(tmp_path, capsys):
    assert harness.run_experiment(config_path="missing.ini", quiet=True) == 2
    assert "config error" in capsys.readouterr().out

    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nweight = max-endpoint\ndims = 1 2 4\n")
    assert cli.main(["verify-estimates", "--config", str(bad),
                     "--quiet"]) == 2

    # misspelt sections, keys and weight parameters, a fractional integer
    # and a bare % are named instead of falling back to the default
    run = tmp_path / "run"
    for text, offender in [("[weight_paramz]\nmodes = 8\n", "weight_paramz"),
                           ("[grid]\nmeshh = 0.25\n", "meshh"),
                           ("[weight_params]\nepsilonn = 3\n", "epsilonn"),
                           ("[weight_params]\nmodes = 16.7\n", "16.7"),
                           ("[mc]\nfd_step = 0.05\n", "fd_step"),
                           ("[experiment]\noutput_dir = a%1\n", "%1")]:
        bad.write_text(text)
        capsys.readouterr()
        assert cli.main(["verify-estimates", "--config", str(bad),
                         "--out", str(run), "--quiet"]) == 2
        out = capsys.readouterr().out
        assert "config error" in out and offender in out
        assert not run.exists()


# ---------------------------------------------------------------------------
# CLI demos


def test_cli_prox_soft_threshold(capsys):
    code = cli.main(["prox", "--weight", "abs", "--alpha", "1.0",
                     "--point", "2.0", "-0.3"])
    out = capsys.readouterr().out
    assert code == 0
    point = ast.literal_eval(re.search(r"prox point (\[.*\])", out).group(1))
    assert np.allclose(point, [1.0, 0.0], atol=1e-7)
    env = float(re.search(r"envelope\s+(\S+)", out).group(1))
    assert env == pytest.approx(1.545, abs=1e-6)
    grad = ast.literal_eval(re.search(r"gradient\s+(\[.*\])", out).group(1))
    assert np.allclose(grad, [1.0, -0.3], atol=1e-7)

    cli.main(["prox", "--weight", "abs", "--point", "2.0", "--quiet"])
    quiet_out = capsys.readouterr().out
    assert "weight=" not in quiet_out and "prox point" in quiet_out


def test_cli_semigroup_constant(capsys):
    code = cli.main(["semigroup", "--t", "0.5", "--point", "0.3",
                     "--weight", "zero", "--f", "const", "--paths", "300"])
    out = capsys.readouterr().out
    assert code == 0
    m = re.search(r"estimate\s+(\S+) \+- (\S+) \((\d+) paths\)", out)
    assert float(m.group(1)) == 1.0 and float(m.group(2)) == 0.0
    assert int(m.group(3)) == 300


def test_cli_resolvent_constant(capsys):
    code = cli.main(["resolvent", "--lam", "2.0", "--point", "0.0",
                     "--weight", "zero", "--f", "const", "--paths", "300",
                     "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    est = float(re.search(r"estimate\s+(\S+)", out).group(1))
    assert est == pytest.approx(0.5, abs=1e-4)


@pytest.mark.parametrize("command", ["semigroup", "resolvent"])
def test_cli_path_demos_reject_nonlinear_drift(command, capsys):
    # only weights with linear_grad have Monte Carlo paths
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--weight", "huber"])
    assert exc.value.code == 2
    assert "invalid choice: 'huber'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["resolvent", "--paths", "50"], "need at least 100 paths"),
    (["semigroup", "--t", "0"], "t must be positive"),
    (["resolvent", "--lam", "0"], "lam must be positive"),
], ids=["paths", "t", "lam"])
def test_cli_path_demos_reject_bad_values(argv, error, capsys):
    # a value the library refuses is a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"error: {error}" in err


def test_cli_wiener_demo(tmp_path, capsys):
    code = cli.main(["wiener-demo", "--modes", "16", "--seed", "3",
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "energy weight" in out and "max+endpoint" in out
    csv = (tmp_path / "path.csv").read_text().splitlines()
    assert csv[0] == "t,value"
    assert len(csv) > 10


def test_cli_domain_scope(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_INI)
    out = tmp_path / "dom"
    code = cli.main(["verify-domain", "--config", str(cfg),
                     "--out", str(out), "--quiet"])
    assert code == 0
    rows = json.loads((out / "report.json").read_text())
    assert rows and {r["quantity"] for r in rows} <= {
        "domain_equiv_ratio", "dissipativity"}
    assert (out / "tables" / "estimates.csv").is_file()
    assert not (out / "tables" / "nslope.csv").exists()
    assert not (out / "tables" / "ladder.csv").exists()


def test_cli_rejects_flags_a_subcommand_does_not_read(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["prox", "--config", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


def test_cli_import_leaves_scipy_special_out():
    # scipy.special costs about 0.04 s of set-up on every run, and the
    # package needs none of it
    code = "import sys, ouelliptic.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_mc_route_run_loads_no_scipy(tmp_path):
    # scipy.sparse costs about 0.1 s of set-up and only the grid solves
    # use it, so a run that solves no grid problem must not import it
    ini = tmp_path / "mc.ini"
    ini.write_text(TINY_INI.replace("dims = 1", "dims = 3\nroute = mc"))
    code = ("import sys; from ouelliptic import cli; "
            f"code = cli.main(['verify-estimates', '--config', {str(ini)!r}, "
            f"'--out', {str(tmp_path / 'run')!r}, '--quiet']); "
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "0 []"
    with open(tmp_path / "run" / "tables" / "estimates.csv", newline="") as fh:
        routes = {r["route"] for r in csv.DictReader(fh)}
    assert routes == {"mc", "analytic"}
