"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_prints_every_metric_and_nothing_fails():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
