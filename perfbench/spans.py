"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``ouelliptic`` modules from
outside the package: nothing under ``src/`` knows it is being traced.
Each call of a wrapped function becomes one span, kept in memory as
``[name, start, end, parent, count]`` and written out when the run ends.
``parent`` is the index of the enclosing span (-1 at top level) and
``count`` is the work the call was handed (points, samples, unknowns,
path-steps), computed from its arguments: 0 for targets without a count,
None when it could not be worked out.

A function is wrapped where it is defined *and* wherever another module
bound it by name at import time (``from .mc import resolvent_batch`` in
``harness``, ``from .rng import path_stream`` in ``mc``, the norm helpers
in ``harness``): every ``ouelliptic`` module attribute that is the
original object is replaced by the wrapper.  Classes are traced by
patching their methods in place, which every binding of the class sees.

A target the package no longer has is skipped and reported in
``missing``.  A span name none of whose targets exist is reported by
``absent()``, and the metrics built from it are left out, so a change
that deletes or renames one of these functions does not break the traced
run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

PACKAGE = "ouelliptic"

# (module, attribute, span name, count function or None)
FUNCTIONS = [
    ("harness", "run_experiment", "harness.run", None),
    ("harness", "verify_main_estimates", "harness.main", None),
    ("harness", "_grid_rows", "harness.grid_route", None),
    ("harness", "_mc_rows", "harness.mc_route", None),
    ("harness", "ladder_table", "harness.ladder", None),
    ("harness", "verify_domain_equivalence", "harness.domain", None),
    ("harness", "nslope_table", "harness.nslope", None),
    ("harness", "make_weight", "harness.make_weight", None),
    ("config", "load_config", "config.load", None),
    ("grid", "assemble_operator", "grid.assemble", None),
    ("grid", "_assemble", "grid.assemble", None),
    ("grid", "solve_elliptic_grid", "grid.solve", None),
    ("grid", "apply_generator", "grid.apply_generator", "points:xi"),
    ("galerkin", "tabulate_weight", "galerkin.tabulate", "tabulate_nodes"),
    ("galerkin", "mollify", "galerkin.mollify", None),
    ("wiener", "max_endpoint_truncated", "wiener.max_endpoint_truncated", None),
    ("mc", "resolvent_batch", "mc.resolvent", "path_steps"),
    ("rng", "path_stream", "rng.path_stream", None),
    ("norms", "sn_mean", "norms", "size:values"),
    ("norms", "sn_sqrt_ratio", "norms", "size:num_sq"),
    ("norms", "sn_norm", "norms", "size:values_sq"),
]

# Sparse factorisations, counted where scipy defines them.
SCIPY_SOLVERS = [
    ("scipy.sparse.linalg", name, "grid.factorize", "unknowns:A")
    for name in ("spsolve", "splu", "factorized")
]

# (module, class, methods, span name, count function)
METHODS = [
    ("grid", "GridFunction", ("__init__",), "grid.sample", None),
    ("grid", "GridFunction", ("value", "gradient", "hessian", "hessian_diag"),
     "grid.sample", "points:x"),
]

# Oracle fields of the package's function objects.  Every instance built
# after install() gets its fields wrapped: (module, class, {field: span}).
ORACLE_FIELDS = [
    ("weights", "ConvexWeight",
     {"eval": "weights.eval", "subgrad": "weights.subgrad"}),
    ("cylinder", "CylinderFunction",
     {"value": "cylinder.eval", "gradient": "cylinder.eval",
      "hessian": "cylinder.eval"}),
]


def _points(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


def _count(kind, args: dict):
    """Work handed to one call, from its bound arguments.

    ``kind`` is ``"<what>:<argument>"``, the argument given by name or by
    position; ``path_steps`` and ``tabulate_nodes`` combine several.
    """
    if kind is None:
        return None
    if kind == "path_steps":
        # starts x paths x Euler steps to the longest resolvent horizon
        starts, lams, cfg = args["starts"], args["lams"], args["cfg"]
        horizon = max(max(8.0 / lam, cfg.t_max) for lam in lams)
        steps = int(math.ceil(horizon / cfg.dt - 1e-12))
        n_starts = 1 if getattr(starts, "ndim", 1) < 2 else len(starts)
        return n_starts * cfg.paths * steps
    if kind == "tabulate_nodes":
        half = int(round(args["radius"] / args["mesh"]))
        return (2 * half + 1) ** args["inner"].dim
    what, arg = kind.split(":")
    value = list(args.values())[int(arg)] if arg.isdigit() else args[arg]
    if what == "points":
        return _points(value)
    if what == "size":
        return int(getattr(value, "size", 1))
    if what == "unknowns":
        return int(value.shape[0])
    raise ValueError(f"unknown count kind {kind!r}")


class Recorder:
    """In-memory spans of one process, nested by call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []
        self._installed = set()

    def wrap(self, fn, name: str, count):
        """A wrapper of fn that records one span per call."""
        if getattr(fn, "_span_name", None) is not None:
            return fn
        sig = None
        if count is not None:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                sig = None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = 0
            if count is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    work = _count(count, bound.arguments)
                except (TypeError, KeyError, AttributeError, ValueError):
                    work = None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, work]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        traced._span_name = name
        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        def module(name):
            full = name if "." in name else f"{PACKAGE}.{name}"
            try:
                return importlib.import_module(full)
            except ImportError:
                return None

        for mod_name, *_ in FUNCTIONS + METHODS + ORACLE_FIELDS:
            module(mod_name)
        own = [m for key, m in list(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]

        for mod_name, attr, name, count in FUNCTIONS + SCIPY_SOLVERS:
            mod = module(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            traced = self.wrap(fn, name, count)
            self._installed.add(name)
            setattr(mod, attr, traced)
            for other in own:
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, traced)

        for mod_name, cls_name, methods, name, count in METHODS:
            cls = getattr(module(mod_name), cls_name, None)
            for meth in methods:
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                    continue
                self._installed.add(name)
                setattr(cls, meth, self.wrap(fn, name, count))

        for mod_name, cls_name, fields in ORACLE_FIELDS:
            cls = getattr(module(mod_name), cls_name, None)
            if cls is None:
                self.missing.append(f"{mod_name}.{cls_name}")
                continue
            self._installed.update(fields.values())
            cls.__init__ = self._wrap_fields(cls.__init__, fields)

    def absent(self) -> list:
        """Span names none of whose targets exist, after install()."""
        declared = {t[2] for t in FUNCTIONS + SCIPY_SOLVERS}
        declared |= {t[3] for t in METHODS}
        declared |= {n for t in ORACLE_FIELDS for n in t[2].values()}
        return sorted(declared - self._installed)

    def _wrap_fields(self, init, fields: dict):
        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            for field, name in fields.items():
                fn = getattr(obj, field, None)
                if callable(fn):
                    # frozen dataclasses refuse plain assignment
                    object.__setattr__(obj, field,
                                       self.wrap(fn, name, "points:0"))

        return traced_init
