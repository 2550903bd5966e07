"""One measured process: run ``ouelliptic verify-estimates`` in-process.

Started by ``run.py`` as a fresh interpreter with ``PYTHONPATH`` pointing
at the checkout's ``src/``.  It imports the package, optionally installs
the span recorder, and calls ``ouelliptic.cli.main`` with the
``verify-estimates`` arguments, exactly as ``python -m ouelliptic.cli``
would.  It writes one JSON file for the parent:

  rc            exit code the CLI returned (None if it raised)
  error         the exception text when it raised
  stage_start   time.monotonic() at the first harness stage; the parent,
                which took the same clock at launch, derives setup_s
  import_s      time to import ouelliptic.cli
  spans         traced runs only: [name, start, end, parent, count]
  missing       traced runs only: targets the package no longer has
  absent        traced runs only: span names left without any target
  facts         with --facts only: library versions and BLAS threads,
                read after the run so that they cost it nothing

Usage: child.py --config INI --seed N --out DIR --result JSON
                [--trace] [--facts]
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time

# First entry into any of these counts as the end of set-up.  Several are
# listed so that removing one of them does not lose the measurement.
STAGES = ("verify_main_estimates", "verify_domain_equivalence",
          "ladder_table", "nslope_table", "_grid_rows", "_mc_rows")


def _blas_facts() -> dict:
    """BLAS library and its thread count, read from the loaded library."""
    import ctypes

    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in getters:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def _facts() -> dict:
    import numpy
    import scipy

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    out.update(_blas_facts())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--facts", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    from ouelliptic import cli, harness
    result = {"import_s": time.perf_counter() - t0, "rc": None,
              "stage_start": None}

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    def stamp(fn):
        @functools.wraps(fn)
        def first_stage(*a, **k):
            if result["stage_start"] is None:
                result["stage_start"] = time.monotonic()
            return fn(*a, **k)
        return first_stage

    for name in STAGES:
        if hasattr(harness, name):
            setattr(harness, name, stamp(getattr(harness, name)))

    try:
        result["rc"] = cli.main(["verify-estimates", "--config", args.config,
                                 "--seed", str(args.seed), "--out", args.out,
                                 "--quiet"])
    except Exception as exc:  # reported to the parent as a crashed run
        result["error"] = f"{type(exc).__name__}: {exc}"
    if args.facts:
        result["facts"] = _facts()
    if recorder is not None:
        result["spans"] = recorder.spans
        result["missing"] = recorder.missing
        result["absent"] = recorder.absent()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if result.get("error") is None else 3


if __name__ == "__main__":
    sys.exit(main())
