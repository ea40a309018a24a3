"""Every benchmark menu item prints what perfbench/reference.json recorded."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_outputs_match_the_reference():
    # runs each of the 61 + 36 + 18 menu items once and compares output digests
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    flagged = [line for line in proc.stdout.splitlines()
               if line.startswith(("MISMATCH", "ERROR"))]
    assert flagged == []
