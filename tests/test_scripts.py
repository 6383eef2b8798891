"""Smoke tests of the runnable experiments in ``scripts/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_activation_thresholds_finds_the_analytic_data_threshold():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "activation_thresholds.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    first_on = float(re.search(r"^zeta_d: first positive at (\S+) dB$", proc.stdout, re.M).group(1))
    analytic = float(re.search(r"^analytic data-phase threshold: (\S+) dB$", proc.stdout, re.M).group(1))
    # The scan steps 0.125 dB, so the first positive point is the next one up.
    assert analytic <= first_on <= analytic + 0.125
