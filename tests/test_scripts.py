"""Smoke tests of the runnable experiments in ``scripts/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

from macjam.cli import write_csv

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_activation_thresholds_finds_the_analytic_data_threshold():
    proc = _run_script("activation_thresholds.py")
    assert proc.returncode == 0, proc.stderr
    first_on = float(re.search(r"^zeta_d: first positive at (\S+) dB$", proc.stdout, re.M).group(1))
    analytic = float(re.search(r"^analytic data-phase threshold: (\S+) dB$", proc.stdout, re.M).group(1))
    # The scan steps 0.125 dB, so the first positive point is the next one up.
    assert analytic <= first_on <= analytic + 0.125


def test_run_fig_sweeps_writes_both_sweeps(tmp_path, fig_setup, fig_sweep_rows):
    out = tmp_path / "results"
    proc = _run_script("run_fig_sweeps.py", str(out))
    assert proc.returncode == 0, proc.stderr
    names = ["fig1.csv", "fig1.plot", "fig2.csv", "fig2.plot"]
    assert sorted(p.name for p in out.iterdir()) == names
    assert all((out / n).stat().st_size > 0 for n in names)
    _, cfg = fig_setup
    expected = tmp_path / "expected.csv"
    write_csv(fig_sweep_rows, cfg.n_users, expected)
    assert (out / "fig2.csv").read_bytes() == expected.read_bytes()
