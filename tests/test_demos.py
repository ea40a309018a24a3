"""The demos run end to end and print what they printed when recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each demo's standard output; it does not depend on the hash seed.
DEMO_STDOUT_SHA256 = {
    "01_exact_expressions.py": "96e1eda89eb15969d745f1b216cfc94714ce1eb63da10647dca0240a3144181d",
    "02_moving_frames.py": "d3f3d7aa764a9a24702dfeaaf810eb90b99d409f44811224acdfc137d737682a",
    "03_parallelism_reports.py": "adeb3c310ed4313ca19c8844ae4eafec62c99b7bd45a36ba1078d687ceabf531",
    "04_family_sweeps.py": "71691de1978db9c591984bacf2b3c8392c49a7011e8bd30c33d24ec070fbd8af",
    "05_proof_replay.py": "17c7c90d3a7b11ff94dd1ab2b9f75ce9e353b38fdbae0622a10d755f2dccc849",
}


def test_every_demo_is_recorded():
    assert sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py")) == \
        sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("index, name", enumerate(sorted(DEMO_STDOUT_SHA256)))
def test_demo_output_is_unchanged(index, name):
    # hash seeds 1, 2, 3 in turn across the demos
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(1 + index % 3))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
