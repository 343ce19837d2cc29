"""Smoke test: every workload runs in short mode, traced and untraced.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in LISTED["workloads"]])
def test_short_run_reports_every_listed_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = LISTED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0

    record = json.loads((HERE / "out" / f"BENCH_{workload}_seed7_trace{trace}.json").read_text())
    assert record["environment"]["have_compiled"] in (True, False)
    assert len(record["fingerprint"]["sha256"]) == 64
    assert len(record["setup_s_cold"]) >= 5
