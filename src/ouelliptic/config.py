"""Experiment settings: which exist, their defaults, what is valid.

Every default is written once: ExperimentConfig's field defaults (with
DiffusionConfig's own for dt) and WEIGHT_PARAMS.
Together they are the shipped configuration, which configs/energy.ini
spells out but for norm_samples.  A config file is INI with these
sections and keys, all optional; an absent key keeps its default:

  [experiment]  weight, dims, lambdas, test_functions, seed, output_dir, route
  [mc]          dt, paths, cloud; the paths jump exactly to the 16
                fixed nodes of mc.laplace_rule, so dt sets no step: it
                only scales the Monte Carlo rows' allowance
  [grid]        radius, mesh, norm_samples; norm_samples is parsed and
                checked but read by nothing, and stays only because the
                benchmark's workloads (perfbench/run.py) still set it
  [weight_params]  coeff, modes, tail_samples, time_points, epsilon; the
                   ones the configured weight reads are range-checked

Lists are whitespace- or comma-separated; paths, cloud, seed,
norm_samples, modes, tail_samples and time_points are integers.
An unknown section or key, a value that does not parse and a value that
fails a check all raise ConfigError, which the CLI maps to exit code 2.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .mc import DiffusionConfig

WEIGHT_NAMES = ("zero", "quadratic", "energy", "max-endpoint")
TEST_FUNCTION_NAMES = ("const", "tanh", "cos", "step")
# [weight_params] defaults; each value is read as the type of its default
WEIGHT_PARAMS = {"coeff": 0.5, "modes": 256, "tail_samples": 64,
                 "time_points": 256, "epsilon": 0.25}


class ConfigError(ValueError):
    """Raised for invalid experiment configuration; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one run; the defaults are the shipped configuration."""
    weight: str = "energy"
    dims: tuple = (1, 2, 4)
    lambdas: tuple = (0.5, 1.0, 2.0)
    test_functions: tuple = TEST_FUNCTION_NAMES
    mc: DiffusionConfig = DiffusionConfig(paths=2000, seed=0)
    output_dir: str = "results"
    seed: int = 0
    weight_params: dict = field(default_factory=dict)
    grid_radius: float = 6.0
    grid_mesh: float = 1.0 / 32.0
    norm_samples: int = 200_000   # read by nothing; perfbench WORKLOADS set it
    mc_cloud: int = 32
    route: str = "auto"

    def __post_init__(self):
        if self.weight not in WEIGHT_NAMES:
            raise ConfigError(f"unknown weight '{self.weight}'; "
                              f"choose from {WEIGHT_NAMES}")
        if len(self.dims) == 0:
            raise ConfigError("dims nonempty")
        if any(int(n) != n or n < 1 for n in self.dims):
            raise ConfigError("dims must be positive integers")
        if len(self.lambdas) == 0 or any(not 0 < lam < math.inf
                                         for lam in self.lambdas):
            raise ConfigError("lambdas must be positive and finite")
        if len(self.test_functions) == 0:
            raise ConfigError("need at least one test function")
        for name in self.test_functions:
            if name not in TEST_FUNCTION_NAMES:
                raise ConfigError(f"unknown test function '{name}'; "
                                  f"choose from {TEST_FUNCTION_NAMES}")
        if self.weight == "max-endpoint" and max(self.dims) > 2:
            raise ConfigError("max-endpoint rows need the grid solver, "
                              "which covers dims 1 and 2 only")
        if self.route not in ("auto", "grid", "mc"):
            raise ConfigError("route must be auto, grid, or mc")
        if self.route == "grid" and max(self.dims) > 2:
            raise ConfigError("grid route covers dims 1 and 2 only")
        if self.route == "mc" and self.weight == "max-endpoint":
            raise ConfigError("max-endpoint is not separable; "
                              "Monte Carlo route unavailable")
        if not 0 < self.grid_mesh < self.grid_radius < math.inf:
            raise ConfigError("grid mesh and radius must be finite, "
                              "with 0 < mesh < radius")
        if self.norm_samples < 1000:
            raise ConfigError("norm_samples must be at least 1000")
        if self.mc_cloud < 8:
            raise ConfigError("mc_cloud must be at least 8")
        try:    # every key, absent ones at their defaults, typed as those
            p = {key: type(value)(self.weight_params.get(key, value))
                 for key, value in WEIGHT_PARAMS.items()}
        except (ValueError, OverflowError):
            raise ConfigError("weight_params must be finite") from None
        object.__setattr__(self, "weight_params", p)
        if self.weight == "max-endpoint":
            # the weight at each dim n truncates its master at modes > n
            if p["modes"] <= max(self.dims):
                raise ConfigError("weight_params modes must exceed every grid dim")
            if p["tail_samples"] < 1 or p["time_points"] < 1:
                raise ConfigError("weight_params tail_samples and time_points "
                                  "must be at least 1")
            if not p["epsilon"] > 0:
                raise ConfigError("weight_params epsilon must be positive")
        if self.weight == "quadratic" and not p["coeff"] >= 0:
            raise ConfigError("weight_params coeff must be nonnegative")


def _words(text: str) -> tuple:
    return tuple(text.replace(",", " ").split())


def _numbers(kind):
    return lambda text: tuple(kind(tok) for tok in _words(text))


# [section] key -> (ExperimentConfig field, or "mc." / "weight_params."
# and the key there, parser of the INI text)
_KEYS = {
    "experiment": {"weight": ("weight", str), "dims": ("dims", _numbers(int)),
                   "lambdas": ("lambdas", _numbers(float)),
                   "test_functions": ("test_functions", _words),
                   "seed": ("seed", int), "output_dir": ("output_dir", str),
                   "route": ("route", str)},
    "mc": {"dt": ("mc.dt", float), "paths": ("mc.paths", int),
           "cloud": ("mc_cloud", int)},
    "grid": {"radius": ("grid_radius", float), "mesh": ("grid_mesh", float),
             "norm_samples": ("norm_samples", int)},
    "weight_params": {key: (f"weight_params.{key}", type(value))
                      for key, value in WEIGHT_PARAMS.items()},
}


def default_config() -> ExperimentConfig:
    """The shipped configuration (energy weight, n in 1/2/4)."""
    return ExperimentConfig()


def load_config(path=None) -> ExperimentConfig:
    """Read a config file; absent keys keep their defaults."""
    base = ExperimentConfig()
    if path is None:
        return base
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(p.read_text())
        sections = {name: parser.items(name) for name in parser.sections()}
    except configparser.Error as e:      # interpolation errors included
        raise ConfigError(f"malformed config: {e}") from None
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")

    values = {"": {}, "mc": {}, "weight_params": dict(base.weight_params)}
    for section, items in sections.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, text in items:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            name, parse = _KEYS[section][key]
            where, _, attr = name.rpartition(".")
            try:
                values[where][attr] = parse(text)
            except ValueError:
                raise ConfigError(f"bad value for {key} in [{section}]: "
                                  f"{text!r}") from None
    try:
        mc = dataclasses.replace(base.mc, **values["mc"])
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return dataclasses.replace(base, mc=mc,
                               weight_params=values["weight_params"],
                               **values[""])
