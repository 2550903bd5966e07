"""Benchmark of ``ouelliptic verify-estimates``, measured from outside.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a closed loop with one client: fresh ``child.py`` processes,
one after another, until the next one would end past ``--seconds``
(at least two processes are always run).  ``--seed`` is handed to
the harness as its master seed.

--trace 0 reports the end-to-end metrics, with tracing off:
  wall_s        launch to exit of one process, median
  setup_s       launch to the first harness stage (interpreter start,
                imports, config load), median
  rows_per_s    report rows / wall_s, median
  peak_rss_mb   peak resident memory of one process (wait4), median
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics of layers.py from the traced ones, plus
  trace.overhead_ratio  traced wall_s / untraced wall_s
  trace.spans           spans recorded in one traced process
  cli.import_s          time to import ouelliptic.cli
  harness.rows, harness.rows_failed, harness.rows_nonfinite_se

Every process must pass the correctness gate of gate.py, and
report.json must be byte-identical across all processes of a run.
``attempted`` and ``failed`` in the result count report rows; a crashed
process counts all of its expected rows as failed.  The last line of standard output is the
result object; the line before it holds the run's facts and details,
which are also written under perfbench/work/results/.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402

# name -> registered config it starts from, keys it changes, expected
# report rows and ladder rows.  The registered configs take 80-110 s per
# process on 2 vCPUs, too long for a repeated benchmark; the size keys
# shrink each workload to 9-16 s while keeping its dimensions,
# lambdas, test functions and routes (so its row count) and the stage
# that dominates it at full size.  Why each exists and what each size
# keeps: README.md.
WORKLOADS = {
    "energy": ("configs/energy.ini",
               {("grid", "mesh"): "0.0625", ("grid", "norm_samples"): "50000",
                ("mc", "paths"): "300"},
               456, 2),
    "max-endpoint": ("configs/max-endpoint.ini",
                     {("grid", "mesh"): "0.0625",
                      ("grid", "norm_samples"): "50000",
                      ("weight_params", "tail_samples"): "32",
                      ("weight_params", "time_points"): "128"},
                     384, 2),
    "mc-only": ("configs/energy.ini",
                {("experiment", "dims"): "3 4", ("experiment", "route"): "mc",
                 ("mc", "paths"): "1200", ("mc", "dt"): "0.1"},
                144, 0),
}

MIN_PROCESSES = 2
DEADLINE_S = 170.0


def write_config(workload: str, path: Path) -> None:
    base, changes, _, _ = WORKLOADS[workload]
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string((ROOT / base).read_text())
    for (section, key), value in changes.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    with open(path, "w") as fh:
        parser.write(fh)


def run_facts() -> dict:
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_lines": lines}


class Runner:
    """Launches child processes for one run and collects what they report."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload, self.seed = workload, seed
        self.work, self.deadline = work, deadline
        self.config = work / "config.ini"
        write_config(workload, self.config)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.count = 0

    def warm_up(self) -> None:
        """Import the package once, untimed.  This compiles its bytecode
        on the first run in a checkout and brings the libraries into the
        file cache, so the first measured process does not set up cold."""
        subprocess.run([sys.executable, "-c", "import ouelliptic.cli"],
                       cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=120, check=False)

    def launch(self, trace: bool = False, facts: bool = False) -> dict:
        i = self.count
        self.count += 1
        out = self.work / f"p{i}"
        result_file = self.work / f"p{i}.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--config", str(self.config), "--seed", str(self.seed),
               "--out", str(out), "--result", str(result_file)]
        cmd += ["--trace"] * trace + ["--facts"] * facts
        remaining = max(1.0, self.deadline - time.monotonic())
        with open(self.work / f"p{i}.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=log)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"trace": trace, "wall_s": t1 - t0,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "exit": proc.returncode, "out": out}
        try:
            with open(result_file) as fh:
                child = json.load(fh)
        except (OSError, ValueError) as e:
            child = {"error": f"no result from child: {e}"}
        rec.update(child)
        if child.get("stage_start") is not None:
            rec["setup_s"] = child["stage_start"] - t0
        elif child.get("error") is None:
            rec["error"] = "no harness stage was entered"
        if rec.get("error") is not None or proc.returncode != 0:
            tail = (self.work / f"p{i}.log").read_text(errors="replace")[-2000:]
            rec.setdefault("error", f"child exit {proc.returncode}")
            rec["log_tail"] = tail
        return rec


def median(values):
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> tuple[dict, dict]:
    start = time.monotonic()
    runner = Runner(workload, seed, work, start + DEADLINE_S)
    _, _, expected_rows, expected_ladder = WORKLOADS[workload]

    runner.warm_up()
    procs = []
    while True:
        traced = trace and len(procs) % 2 == 1
        rec = runner.launch(trace=traced, facts=not procs)
        procs.append(rec)
        if rec.get("error") is None:
            try:
                rec.update(gate.check(rec["out"], rec.get("rc"),
                                      expected_rows, expected_ladder))
            except gate.GateError as e:
                rec["error"] = f"gate: {e}"
        shutil.rmtree(rec["out"], ignore_errors=True)
        walls = [r["wall_s"] for r in procs]
        elapsed = time.monotonic() - start
        if len(procs) >= MIN_PROCESSES and elapsed + median(walls) > seconds:
            break
        if elapsed > DEADLINE_S / 2:
            break

    errors = [r["error"] for r in procs if r.get("error")]
    reports = {r["report"] for r in procs if "report" in r}
    if len(reports) > 1:
        errors.append("report.json differs between repeats of one seed")
    attempted = failed = 0
    for r in procs:
        attempted += r.get("rows", expected_rows)
        failed += r["failed"] if "failed" in r else expected_rows

    plain = [r for r in procs if not r["trace"]]
    metrics = {}
    if not trace:
        metrics["wall_s"] = (median([r["wall_s"] for r in plain]), "s")
        metrics["setup_s"] = (median([r["setup_s"] for r in plain
                                      if "setup_s" in r]), "s")
        metrics["rows_per_s"] = (median([r["rows"] / r["wall_s"] for r in plain
                                         if "rows" in r]), "1/s")
        metrics["peak_rss_mb"] = (median([r["peak_rss_mb"] for r in plain]),
                                  "MB")
    else:
        traced = [r for r in procs if r["trace"] and "spans" in r]
        per_process = [layers.layer_metrics(r["spans"], r["absent"])
                       for r in traced]
        for name, (unit, *_) in layers.LAYER_METRICS.items():
            values = [m[name] for m in per_process if name in m]
            if values and len(values) == len(per_process):
                metrics[name] = (median(values), unit)
        gated = [r for r in traced if "rows" in r]
        metrics["harness.rows"] = (median([r["rows"] for r in gated]), "count")
        metrics["harness.rows_failed"] = (
            median([r["failed"] for r in gated]), "count")
        metrics["harness.rows_nonfinite_se"] = (
            median([r["nonfinite_se"] for r in gated]), "count")
        metrics["cli.import_s"] = (median([r["import_s"] for r in traced]), "s")
        metrics["trace.spans"] = (median([len(r["spans"]) for r in traced]),
                                  "count")
        traced_wall = median([r["wall_s"] for r in traced])
        plain_wall = median([r["wall_s"] for r in plain])
        if traced_wall and plain_wall:
            metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")

    result = {
        "correct": not errors and all(v is not None for v, _ in metrics.values()),
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if v is not None},
    }
    facts = run_facts()
    facts.update(procs[0].get("facts", {}))
    missing = sorted({m for r in procs for m in r.get("missing", [])})
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "facts": facts, "errors": errors,
        "rows_failed_frac": failed / max(1, attempted),
        "missing_targets": missing,
        "absent_metrics": sorted(set(layers.LAYER_METRICS) - set(metrics))
        if trace else [],
        "processes": [
            {k: r.get(k) for k in ("trace", "wall_s", "cpu_s",
                                   "setup_s",
                                   "peak_rss_mb", "exit", "rc", "rows",
                                   "failed", "nonfinite_se", "import_s",
                                   "error", "log_tail")
             if r.get(k) is not None}
            for r in procs],
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    base = WORKLOADS[args.workload][0]
    needed = [ROOT / "src" / "ouelliptic" / "cli.py", ROOT / base]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"run.py: not a checkout of the repository, missing "
              f"{', '.join(absent)}", file=sys.stderr)
        return 2

    results = HERE / "work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    try:
        result, details = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
