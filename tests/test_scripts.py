"""Smoke tests of the runnable experiments in ``scripts/``."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

from macjam import JammerBudget, db_to_linear, linear_to_db, solve
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


def test_activation_thresholds_prints_the_exact_switch_powers(fig_setup):
    proc = _run_script("activation_thresholds.py")
    assert proc.returncode == 0, proc.stderr
    printed = re.findall(r"^(zeta_t\[(\d+)\]|zeta_d): positive above (\S+) dB$", proc.stdout, re.M)
    _, cfg = fig_setup
    k = cfg.n_users
    assert len(printed) == k + 1
    thresholds = {int(user) - 1 if user else k: float(db) for _, user, db in printed}
    # fig2's data phase switches on last, where its threshold has a closed form.
    pt, pd, tt = cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec()
    need = cfg.data_len * (1.0 + pd.sum()) - tt.sum() - (pt * tt**2).sum()
    assert abs(thresholds[k] - linear_to_db(need / cfg.block_len)) <= 1e-9
    for idx, pw_db in thresholds.items():
        if pw_db == -math.inf:
            continue
        pw = db_to_linear(pw_db)
        below, above = (solve(cfg, JammerBudget(pw * f)).alloc.as_vector()[idx] for f in (1 - 1e-6, 1 + 1e-6))
        assert below == 0.0 and above > 0.0, idx


def test_run_fig_sweeps_writes_the_fig2_sweep(tmp_path, fig_setup, fig_sweep_rows):
    out = tmp_path / "results"
    proc = _run_script("run_fig_sweeps.py", str(out))
    assert proc.returncode == 0, proc.stderr
    names = ["fig2.csv", "fig2.plot"]
    assert sorted(p.name for p in out.iterdir()) == names
    assert all((out / n).stat().st_size > 0 for n in names)
    _, cfg = fig_setup
    expected = tmp_path / "expected.csv"
    write_csv(fig_sweep_rows, cfg.n_users, expected)
    assert (out / "fig2.csv").read_bytes() == expected.read_bytes()
