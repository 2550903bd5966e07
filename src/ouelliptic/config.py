"""INI-style configuration for the verification harness.

Sections and keys (all optional; defaults shown in configs/energy.ini):

  [experiment]  weight, dims, lambdas, test_functions, seed, output_dir, route
  [mc]          dt, paths, t_max, quad_nodes, cloud, fd_step
  [grid]        radius, mesh, norm_samples
  [weight_params]  numeric parameters handed to the weight (coeff,
                   modes, tail_samples, time_points, epsilon); the ones
                   the configured weight reads are range-checked

Lists are whitespace- or comma-separated.  Any parse or validation
problem raises ConfigError, which the CLI maps to exit code 2.
"""
from __future__ import annotations

import configparser
from pathlib import Path

from .harness import ConfigError, ExperimentConfig
from .mc import DiffusionConfig


def _split(text: str) -> list:
    return text.replace(",", " ").split()


def _numbers(text: str, kind, what: str):
    try:
        return tuple(kind(tok) for tok in _split(text))
    except ValueError:
        raise ConfigError(f"could not parse {what}: {text!r}") from None


def default_config() -> ExperimentConfig:
    """The shipped configuration (energy weight, n in 1/2/4)."""
    return ExperimentConfig(
        weight="energy",
        dims=(1, 2, 4),
        lambdas=(0.5, 1.0, 2.0),
        test_functions=("const", "tanh", "cos", "step"),
        mc=DiffusionConfig(dt=0.02, paths=2000, seed=0),
        output_dir="results",
        seed=0,
    )


def load_config(path=None) -> ExperimentConfig:
    """Read a config file, falling back to defaults for absent keys."""
    base = default_config()
    if path is None:
        return base
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(p.read_text())
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None

    exp = parser["experiment"] if parser.has_section("experiment") else {}
    mc = parser["mc"] if parser.has_section("mc") else {}
    gr = parser["grid"] if parser.has_section("grid") else {}
    wp = parser["weight_params"] if parser.has_section("weight_params") else {}

    def num(section, key, kind, fallback):
        if key not in section:
            return fallback
        try:
            return kind(section[key])
        except ValueError:
            raise ConfigError(f"bad value for {key}: {section[key]!r}") from None

    try:
        mc_cfg = DiffusionConfig(
            dt=num(mc, "dt", float, base.mc.dt),
            paths=num(mc, "paths", int, base.mc.paths),
            seed=0,
            t_max=num(mc, "t_max", float, base.mc.t_max),
            quad_nodes=num(mc, "quad_nodes", int, base.mc.quad_nodes),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None

    params = dict(base.weight_params)
    for key in wp:
        try:
            params[key] = float(wp[key])
        except ValueError:
            raise ConfigError(f"bad weight parameter {key}: {wp[key]!r}") from None

    dims = (_numbers(exp["dims"], int, "dims") if "dims" in exp else base.dims)
    lambdas = (_numbers(exp["lambdas"], float, "lambdas")
               if "lambdas" in exp else base.lambdas)
    tfs = (tuple(_split(exp["test_functions"]))
           if "test_functions" in exp else base.test_functions)

    return ExperimentConfig(
        weight=exp.get("weight", base.weight),
        dims=dims,
        lambdas=lambdas,
        test_functions=tfs,
        mc=mc_cfg,
        output_dir=exp.get("output_dir", base.output_dir),
        seed=num(exp, "seed", int, base.seed),
        weight_params=params,
        grid_radius=num(gr, "radius", float, base.grid_radius),
        grid_mesh=num(gr, "mesh", float, base.grid_mesh),
        norm_samples=num(gr, "norm_samples", int, base.norm_samples),
        mc_cloud=num(mc, "cloud", int, base.mc_cloud),
        fd_step=num(mc, "fd_step", float, base.fd_step),
        route=exp.get("route", base.route),
    )
