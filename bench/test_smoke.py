"""Smoke test of the benchmark.

Run with ``python -m pytest bench/test_smoke.py`` from the repository root;
the tier-1 suite does not collect it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_traced_and_untraced():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", "--seed", "3"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 2 + 1 + 4 + 16
    for name in ("band", "rc_tran", "delay", "mc_op"):
        assert result["metrics"][f"{name}.solver.dc_solve.calls"]["value"] >= 1
    assert result["metrics"]["band.fail_ratio"]["value"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "band",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
