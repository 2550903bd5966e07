"""Command-line front end.

Subcommands: prox, semigroup, resolvent, wiener-demo, verify-estimates,
verify-domain.  Each takes --quiet and only the common flags it reads.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness, mc, proximal, wiener
from .config import TEST_FUNCTION_NAMES, ExperimentConfig
from .weights import abs_weight, huber_weight

_DEMO_WEIGHTS = ("quadratic", "abs", "huber", "zero", "energy")
# weights with linear_grad, the only ones Monte Carlo paths take
_PATH_WEIGHTS = ("quadratic", "zero", "energy")


def _demo_weight(name: str, dim: int):
    """A path weight as the harness builds it (default weight_params), or
    abs or huber."""
    if name in _PATH_WEIGHTS:
        return harness.make_weight(ExperimentConfig(weight=name), dim)
    return {"abs": abs_weight, "huber": huber_weight}[name](dim)


_FLAGS = {"config": dict(metavar="PATH", help="experiment config file"),
          "seed": dict(type=int, help="master seed override"),
          "out": dict(metavar="DIR", help="output directory override"),
          "paths": dict(type=int, help="Monte Carlo path count override")}


def _subcommand(subs, name, run, text, *flags):
    """A subcommand that calls run(args), with --quiet and the named _FLAGS."""
    sub = subs.add_parser(name, help=text)
    sub.set_defaults(run=run, usage_error=sub.error)
    for flag in flags:
        sub.add_argument(f"--{flag}", **_FLAGS[flag])
    sub.add_argument("--quiet", action="store_true", help="suppress summary text")
    return sub


def _say(args, text):
    if not args.quiet:
        print(text)


def _cmd_prox(args) -> int:
    x = np.array(args.point, dtype=float)
    w = _demo_weight(args.weight, x.size)
    res = proximal.prox_point(w, x, args.alpha)
    _say(args, f"weight={args.weight}  alpha={args.alpha:g}  point={x.tolist()}")
    print(f"prox point {(x + res.minimizer).tolist()}")
    print(f"envelope   {res.envelope:.12g}")
    print(f"gradient   {res.gradient.tolist()}")
    print(f"residual   {res.residual:.3g}   iterations {res.iterations}")
    return 0


def _cmd_semigroup(args) -> int:
    x = np.array(args.point, dtype=float)
    w = _demo_weight(args.weight, x.size)
    f = harness.make_test_function(args.f, x.size)
    cfg = mc.DiffusionConfig(paths=args.paths or 10_000, seed=args.seed or 0)
    val = mc.semigroup_apply(w, f, args.t, x, cfg)
    _say(args, f"T_t f at t={args.t:g}, weight={args.weight}, f={args.f}")
    print(f"estimate   {val.mean:.8g} +- {val.std_error:.3g} "
          f"({val.paths_used} paths)")
    return 0


def _cmd_resolvent(args) -> int:
    x = np.array(args.point, dtype=float)
    w = _demo_weight(args.weight, x.size)
    f = harness.make_test_function(args.f, x.size)
    cfg = mc.DiffusionConfig(paths=args.paths or 10_000, seed=args.seed or 0)
    val = mc.resolvent_apply(w, f, args.lam, x, cfg)
    _say(args, f"R(lambda) f at lambda={args.lam:g}, weight={args.weight}, "
               f"f={args.f}")
    print(f"estimate   {val.mean:.8g} +- {val.std_error:.3g} "
          f"({val.paths_used} paths)")
    return 0


def _cmd_wiener_demo(args) -> int:
    basis = wiener.WienerBasis(args.modes)
    path = wiener.sample_path(basis, args.seed or 0)
    energy, egrad = wiener.energy_convex_weight(args.modes).value_subgrad(
        path.coeffs)
    mend = wiener.max_endpoint_weight(path)
    _say(args, f"KL path with {args.modes} modes, seed {args.seed or 0}")
    print(f"energy weight      {energy:.8g}   |gradient|_H "
          f"{float(np.linalg.norm(egrad)):.8g}")
    print(f"max+endpoint       {mend.value:.8g}   argmax t={mend.argmax:.6g}"
          f"{'   (tie)' if mend.tie else ''}")
    print("  i     xi_i      d_i energy   d_i max-endpoint")
    for i in range(min(8, args.modes)):
        print(f"{i + 1:3d}  {path.coeffs[i]:+9.5f}  {egrad[i]:+11.6f}  "
              f"{mend.gradient[i]:+11.6f}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        target = outdir / "path.csv"
        target.write_text(wiener.path_to_csv(path))
        _say(args, f"wrote {target}")
    return 0


def _cmd_verify(args, scope: str) -> int:
    return harness.run_experiment(config_path=args.config, scope=scope,
                                  seed=args.seed, out=args.out,
                                  quiet=args.quiet)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser: one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="ouelliptic",
        description="Weighted Gaussian elliptic solver toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subs, "prox", _cmd_prox, "proximal point of a demo weight")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--point", type=float, nargs="+", default=[1.0])
    p.add_argument("--weight", choices=_DEMO_WEIGHTS, default="quadratic")

    p = _subcommand(subs, "semigroup", _cmd_semigroup, "Monte Carlo T_t f",
                    "seed", "paths")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--point", type=float, nargs="+", default=[1.0])
    p.add_argument("--weight", choices=_PATH_WEIGHTS, default="zero")
    p.add_argument("--f", choices=TEST_FUNCTION_NAMES, default="cos")

    p = _subcommand(subs, "resolvent", _cmd_resolvent,
                    "Monte Carlo (lam - L)^-1 f", "seed", "paths")
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--point", type=float, nargs="+", default=[1.0])
    p.add_argument("--weight", choices=_PATH_WEIGHTS, default="zero")
    p.add_argument("--f", choices=TEST_FUNCTION_NAMES, default="cos")

    p = _subcommand(subs, "wiener-demo", _cmd_wiener_demo,
                    "KL path and weight demo", "seed", "out")
    p.add_argument("--modes", type=int, default=64)

    _subcommand(subs, "verify-estimates", lambda a: _cmd_verify(a, "all"),
                "run the estimate verification suite", "config", "seed", "out")
    _subcommand(subs, "verify-domain", lambda a: _cmd_verify(a, "domain"),
                "run the domain-equivalence checks", "config", "seed", "out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as e:     # a flag value the library refuses
        args.usage_error(str(e))


if __name__ == "__main__":
    sys.exit(main())
