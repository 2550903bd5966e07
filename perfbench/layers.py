"""Per-layer metrics of the traced run, built from the recorded spans.

Each metric below is named ``<module>.<name>`` after the package module
it measures.  Times are in seconds and sum only the *outermost* span of
each name, so a wrapped function that calls another wrapped function of
the same name (a mollified weight calling its inner weight, ``sn_norm``
calling ``sn_mean``) is not counted twice.  Times are inclusive of child
spans of other names unless the kind says ``self``.

Kinds:
  time     summed duration of the outermost spans of one name
  calls    number of outermost spans of one name
  count    summed work counts of the outermost spans of one name
  self     summed self time: duration minus the time of direct children
  under    like time/count, but only spans with an ancestor of a name

Which end-to-end metric each layer should move, and on which workload,
is written in README.md next to this file.
"""
from __future__ import annotations

# metric -> (unit, kind, span name, ancestor span name or None)
LAYER_METRICS = {
    "harness.grid_route_s": ("s", "time", "harness.grid_route", None),
    "harness.mc_route_s": ("s", "time", "harness.mc_route", None),
    "harness.ladder_s": ("s", "time", "harness.ladder", None),
    "harness.domain_s": ("s", "time", "harness.domain", None),
    "harness.nslope_s": ("s", "time", "harness.nslope", None),
    "harness.write_s": ("s", "self", "harness.run", None),
    "harness.make_weight_s": ("s", "time", "harness.make_weight", None),
    "harness.make_weight_calls": ("count", "calls", "harness.make_weight", None),
    "grid.assemble_s": ("s", "time", "grid.assemble", None),
    "grid.assemble_calls": ("count", "calls", "grid.assemble", None),
    "grid.solve_s": ("s", "time", "grid.solve", None),
    "grid.solve_calls": ("count", "calls", "grid.solve", None),
    "grid.factorizations": ("count", "calls", "grid.factorize", None),
    "grid.unknowns_solved": ("count", "count", "grid.factorize", None),
    "grid.sample_s": ("s", "time", "grid.sample", None),
    "grid.sample_points": ("count", "count", "grid.sample", None),
    "grid.apply_generator_s": ("s", "time", "grid.apply_generator", None),
    "galerkin.tabulate_s": ("s", "time", "galerkin.tabulate", None),
    "galerkin.tabulate_calls": ("count", "calls", "galerkin.tabulate", None),
    "galerkin.tabulate_nodes": ("count", "count", "galerkin.tabulate", None),
    "galerkin.mollify_calls": ("count", "calls", "galerkin.mollify", None),
    "wiener.max_endpoint_truncated_calls":
        ("count", "calls", "wiener.max_endpoint_truncated", None),
    "weights.eval_s": ("s", "time", "weights.eval", None),
    "weights.eval_points": ("count", "count", "weights.eval", None),
    "weights.subgrad_s": ("s", "time", "weights.subgrad", None),
    "weights.subgrad_points": ("count", "count", "weights.subgrad", None),
    "mc.resolvent_s": ("s", "time", "mc.resolvent", None),
    "mc.resolvent_calls": ("count", "calls", "mc.resolvent", None),
    "mc.path_steps": ("count", "count", "mc.resolvent", None),
    "mc.drift_points": ("count", "under", "weights.subgrad", "mc.resolvent"),
    "mc.drift_s": ("s", "under", "weights.subgrad", "mc.resolvent"),
    "mc.observer_s": ("s", "under", "cylinder.eval", "mc.resolvent"),
    "mc.euler_self_s": ("s", "self", "mc.resolvent", None),
    "norms.calls": ("count", "calls", "norms", None),
    "norms.s": ("s", "time", "norms", None),
    "norms.samples": ("count", "count", "norms", None),
    "cylinder.eval_s": ("s", "time", "cylinder.eval", None),
    "cylinder.eval_points": ("count", "count", "cylinder.eval", None),
    "rng.path_streams": ("count", "calls", "rng.path_stream", None),
    "rng.path_stream_s": ("s", "time", "rng.path_stream", None),
    "config.load_s": ("s", "time", "config.load", None),
}


def layer_metrics(spans: list, absent) -> dict:
    """Per-layer values of one traced process.

    A metric is left out when its span name is in ``absent`` (the package
    no longer has any of the functions behind it), or when a count it
    needs could not be worked out from the call's arguments.
    """
    gone = set(absent)
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += dur[i]

    def has_ancestor(i, name):
        p = parents[i]
        while p >= 0:
            if names[p] == name:
                return True
            p = parents[p]
        return False

    outermost = [not has_ancestor(i, names[i]) for i in range(len(spans))]
    out = {}
    for metric, (unit, kind, name, ancestor) in LAYER_METRICS.items():
        if name in gone or (ancestor is not None and ancestor in gone):
            continue
        picked = [i for i in range(len(spans))
                  if names[i] == name and outermost[i]
                  and (ancestor is None or has_ancestor(i, ancestor))]
        if kind == "calls":
            value = len(picked)
        elif kind == "self":
            value = sum(dur[i] - child_time[i] for i in range(len(spans))
                        if names[i] == name)
        elif unit == "count":
            counts = [spans[i][4] for i in picked]
            if any(c is None for c in counts):
                continue
            value = sum(counts)
        else:
            value = sum(dur[i] for i in picked)
        out[metric] = value
    return out
