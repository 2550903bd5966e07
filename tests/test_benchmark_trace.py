"""The traced benchmark process reports every per-layer metric.

perfbench/child.py installs span wrappers on the package and counts the
work each call was handed from its arguments (path steps from the
Monte Carlo config, tabulated nodes from the grid window).  A renamed
function or a missing config attribute does not crash that run: the
metric just drops out of the result.  Each test runs one traced child
in a subprocess, so the wrappers never touch this process, on a tiny
config, and asserts that perfbench/layers.py builds all of its metrics
from the spans.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def _layers():
    spec = importlib.util.spec_from_file_location("layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONFIGS = {
    # grid rows at n = 1, Monte Carlo rows at n = 3
    "energy": """[experiment]
weight = energy
dims = 1 3

[mc]
paths = 200

[grid]
mesh = 0.25
""",
    # tabulated, mollified weight on the grid route
    "max-endpoint": """[experiment]
weight = max-endpoint
dims = 1
route = grid

[grid]
mesh = 0.25

[weight_params]
modes = 8
""",
    # Monte Carlo rows only, and domain rows on the nodes of 2 coordinates
    "mc-only": """[experiment]
weight = energy
dims = 3
route = mc

[mc]
dt = 0.1
paths = 200

[grid]
mesh = 0.25
""",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_child_reports_every_layer_metric(name, tmp_path):
    config = tmp_path / "config.ini"
    config.write_text(CONFIGS[name])
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--config", str(config),
         "--seed", "0", "--out", str(tmp_path / "out"), "--result",
         str(result), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    child = json.loads(result.read_text())
    assert child["absent"] == []
    layers = _layers()
    got = layers.layer_metrics(child["spans"], child["absent"])
    assert sorted(set(layers.LAYER_METRICS) - set(got)) == []
