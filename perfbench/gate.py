"""Correctness gate for one ``verify-estimates`` process.

A process passes when
  - its exit code is 0 (every row passed) or 1 (some row failed);
  - report.json and the three CSV tables parse;
  - report.json has the number of rows the workload's config produces,
    and estimates.csv has one line per report row;
  - ladder.csv has one row per grid-solvable dimension.
Byte-identity of report.json across the processes of one run is checked
by the caller, which sees all of them.

report.json holds bare ``Infinity`` for rows whose standard error is
infinite (a row that passes without a finite error bar).  The gate
parses it leniently and counts those rows instead of rejecting the run.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REPORT_KEYS = {"weight", "n", "lambda", "quantity", "estimate", "std_error",
               "bound", "margin", "pass"}
TABLES = {
    "estimates.csv": ["weight", "n", "lambda", "quantity", "estimate",
                      "std_error", "bound", "margin", "pass", "f",
                      "allowance", "route"],
    "nslope.csv": ["weight", "lambda", "f", "quantity", "slope", "std_error",
                   "allowance", "pass"],
    "ladder.csv": ["weight", "n", "epsilon", "lambda", "f", "residual_l2",
                   "std_error"],
}


class GateError(ValueError):
    """An artifact is missing, does not parse or has the wrong shape."""


def _table(path: Path, fields: list) -> list:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as e:
        raise GateError(f"{path.name}: {e}") from None
    if reader.fieldnames != fields:
        raise GateError(f"{path.name}: header {reader.fieldnames}")
    for row in rows:
        if None in row or any(v is None for v in row.values()):
            raise GateError(f"{path.name}: ragged line {row}")
    return rows


def check(outdir: Path, rc, expected_rows: int, expected_ladder: int) -> dict:
    """Row counts of one process's artifacts; raises GateError if it fails."""
    if rc not in (0, 1):
        raise GateError(f"exit code {rc}")
    try:
        text = (outdir / "report.json").read_text()
        rows = json.loads(text)
    except (OSError, ValueError) as e:
        raise GateError(f"report.json: {e}") from None
    if not isinstance(rows, list) or len(rows) != expected_rows:
        raise GateError(f"report.json: {len(rows)} rows, "
                        f"expected {expected_rows}")
    for row in rows:
        if not isinstance(row, dict) or set(row) != REPORT_KEYS:
            raise GateError(f"report.json: bad row {row!r}")
    failed = sum(1 for r in rows if r["pass"] is not True)
    if (rc == 0) != (failed == 0):
        raise GateError(f"exit code {rc} with {failed} failing rows")
    tables = {name: _table(outdir / "tables" / name, fields)
              for name, fields in TABLES.items()}
    if len(tables["estimates.csv"]) != expected_rows:
        raise GateError(f"estimates.csv: {len(tables['estimates.csv'])} rows")
    if len(tables["ladder.csv"]) != expected_ladder:
        raise GateError(f"ladder.csv: {len(tables['ladder.csv'])} rows")
    for name in ("estimates.csv", "nslope.csv", "ladder.csv"):
        for row in tables[name]:
            for key in ("estimate", "std_error", "slope", "residual_l2"):
                if key in row:
                    try:
                        float(row[key])
                    except ValueError:
                        raise GateError(f"{name}: {key}={row[key]!r}") from None
    nonfinite = sum(1 for r in rows
                    if not math.isfinite(float(r["std_error"])))
    return {"report": text.encode(), "rows": len(rows), "failed": failed,
            "nonfinite_se": nonfinite}
