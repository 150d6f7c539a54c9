"""The benchmark's traced child reports the counts of the run it traces.

perfbench/layers.py wraps the package from outside and skips names that no
longer exist, so a rename or a change of what evolve returns can silently
zero its metrics; this runs one traced child (perfbench/child.py) on a short
fig-a run, checks its layer counts against the run's own outputs and checks
that the monitor and output spans recorded time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import neckpinch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_child_counts_match_the_run(tmp_path):
    out = tmp_path / "out"
    config_path, result_path = tmp_path / "config.json", tmp_path / "result.json"
    config = {"preset": "fig-a", "grid_n": 64, "flow": {"a_min_stop": 0.05}, "out_dir": str(out)}
    config_path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", str(config_path), str(result_path)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(neckpinch.__file__).parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["rc"] == 0 and result["error"] is None
    layers = result["layers"]
    rows = (out / "series.csv").read_text().splitlines()[1:]
    assert layers["flow.samples"] == len(rows)
    assert layers["flow.snapshots"] == 2
    assert layers["flow.summarize_state.calls"] > 0
    assert layers["flow.rhs_evals"] >= 4 * layers["flow.steps"] > 0
    for span in (
        "monitors.run_monitors",
        "monitors.type1_classifier",
        "output.write_series",
        "output.write_summary",
    ):
        assert layers[f"{span}.s"] > 0, span
