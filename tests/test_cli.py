from pathlib import Path

import numpy as np
import pytest
import yaml

import macjam as mj
from macjam.cli import csv_columns, main
from macjam.optimizer import SolverError

DATA = Path(__file__).parent / "data"

TINY = """\
block_len: 10
users:
  - train_len: 1
    train_power_db: 10.0
    data_power_db: 10.0
jammer:
  sweep: {min_db: 0.0, max_db: 10.0, step_db: 5.0}
mc:
  samples: 2000
  seed: 3
output: tiny
"""

TWO_USER_POINT = """\
block_len: 20
users:
  - train_len: 1
    train_power_db: 10.0
    data_power_db: 10.0
  - train_len: 1
    train_power_db: 10.0
    data_power_db: 10.0
jammer:
  power_db: 5.0
mc:
  samples: 2000
  seed: 3
output: sym
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.scenario"
    path.write_text(TINY)
    return path


def fig2_path():
    return str(mj.bundled_scenario_path("fig2.scenario"))


def test_csv_schema_is_stable():
    assert csv_columns(2) == [
        "pw_db",
        "zeta_t_1",
        "zeta_t_2",
        "zeta_d",
        "rho_star",
        "r_lb_opt",
        "r_mc_opt",
        "r_mc_halfwidth_opt",
        "r_ub_opt",
        "r_lb_unif",
        "r_mc_unif",
        "r_mc_halfwidth_unif",
        "r_ub_unif",
        "rate_reduction_pct",
        "method",
        "kkt_residual",
    ]


def test_sweep_matches_golden_file(tiny_scenario, tmp_path, capsys):
    assert main(["sweep", str(tiny_scenario), "--outdir", str(tmp_path)]) == 0
    produced = (tmp_path / "tiny.csv").read_bytes()
    golden = (DATA / "golden_sweep.csv").read_bytes()
    assert produced == golden
    assert (tmp_path / "tiny.plot").exists()


def test_sweep_runs_are_byte_identical(tiny_scenario, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep", str(tiny_scenario), "--outdir", str(out_a)]) == 0
    assert main(["sweep", str(tiny_scenario), "--outdir", str(out_b)]) == 0
    assert (out_a / "tiny.csv").read_bytes() == (out_b / "tiny.csv").read_bytes()


def test_sweep_row_invariants(tiny_scenario, tmp_path):
    spec = mj.load_scenario(tiny_scenario)
    rows = mj.cli.run_sweep(spec)
    assert len(rows) == 3
    for row in rows:
        assert sum(row.zeta_t) + row.zeta_d == pytest.approx(1.0, abs=1e-9)
        combined = 3.0 * (row.opt.r_mc_halfwidth + row.unif.r_mc_halfwidth)
        assert row.opt.r_mc <= row.unif.r_mc + combined
        for rep in (row.opt, row.unif):
            assert rep.r_lb <= rep.r_mc + 3.0 * rep.r_mc_halfwidth
            assert rep.r_mc - 3.0 * rep.r_mc_halfwidth <= rep.r_ub


def test_optimize_low_power_concentrates_on_strongest_user(capsys):
    assert main(["optimize", fig2_path(), "--pw-db", "-10"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if "=" in line and line.startswith("zeta"):
            name, _, val = line.partition("=")
            values[name.strip()] = float(val)
    assert values["zeta_d"] == 0.0
    zts = [values[f"zeta_t[{k}]"] for k in (1, 2, 3, 4)]
    assert zts[3] > 0.9  # the 20 dB-budget user dominates
    assert zts[3] == max(zts)
    assert values["zeta_t[1]"] == 0.0 and values["zeta_t[2]"] == 0.0


def test_optimize_high_power_splits_training_and_data(capsys):
    assert main(["optimize", fig2_path(), "--pw-db", "60"]) == 0
    out = capsys.readouterr().out
    zd = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("zeta_d")))
    assert abs(zd - 0.5) < 1e-2
    assert "method: closed_form" in out


def test_optimize_symmetric_users_print_equal_shares(tmp_path, capsys):
    path = tmp_path / "sym.scenario"
    path.write_text(TWO_USER_POINT)
    out_file = tmp_path / "result.yaml"
    assert main(["optimize", str(path), "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    zt1 = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("zeta_t[1]")))
    zt2 = float(next(l.split("=")[1] for l in out.splitlines() if l.startswith("zeta_t[2]")))
    assert zt1 == pytest.approx(zt2, abs=1e-12)
    saved = yaml.safe_load(out_file.read_text())
    assert saved["zeta_t"] == [zt1, zt2]
    assert saved["method"]


def test_exit_codes(tmp_path, capsys):
    assert main(["optimize", str(tmp_path / "missing.scenario")]) == 2
    bad = tmp_path / "bad.scenario"
    bad.write_text(TINY + "\nbogus_key: 1\n")
    assert main(["optimize", str(bad)]) == 2
    # sweep scenario without --pw-db cannot define a point
    assert main(["rates", fig2_path(), "--alloc", "uniform"]) == 2
    capsys.readouterr()
    assert main(["rates", fig2_path(), "--pw-db", "0", "--alloc", "bogus"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown allocation choice 'bogus'")


def test_worker_count_below_one_is_a_configuration_error(tmp_path, capsys):
    point = tmp_path / "sym.scenario"
    point.write_text(TWO_USER_POINT)
    sweep = tmp_path / "tiny.scenario"
    sweep.write_text(TINY)
    for workers in ("0", "-3"):
        assert main(["rates", str(point), "--alloc", "uniform", "--workers", workers]) == 2
        assert "workers must be an integer >= 1" in capsys.readouterr().err
        out = tmp_path / f"out{workers}"
        assert main(["sweep", str(sweep), "--outdir", str(out), "--workers", workers]) == 2
        assert "workers must be an integer >= 1" in capsys.readouterr().err
        assert not (out / "tiny.csv").exists()


def test_rates_zero_budget_identical_for_any_allocation(tmp_path, capsys):
    scenario = tmp_path / "nojam.scenario"
    scenario.write_text(TWO_USER_POINT.replace("power_db: 5.0", "power_db: -.inf"))
    alloc_file = tmp_path / "alloc.yaml"
    alloc_file.write_text(yaml.safe_dump({"zeta_t": [0.7, 0.1], "zeta_d": 0.2}))
    assert main(["rates", str(scenario), "--alloc", "uniform"]) == 0
    uniform_out = capsys.readouterr().out
    assert main(["rates", str(scenario), "--alloc", f"file:{alloc_file}"]) == 0
    file_out = capsys.readouterr().out
    assert main(["rates", str(scenario), "--alloc", "optimal"]) == 0
    optimal_out = capsys.readouterr().out
    strip = lambda s: s.splitlines()[1:]  # drop the header naming the allocation
    assert strip(uniform_out) == strip(file_out) == strip(optimal_out)


def test_optimize_zero_budget_prints_uniform_split(tmp_path, capsys):
    scenario = tmp_path / "nojam.scenario"
    scenario.write_text(TWO_USER_POINT.replace("power_db: 5.0", "power_db: -.inf"))
    assert main(["optimize", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert "kkt_residual: 0.000e+00" in out
    zts = [float(l.split("=")[1]) for l in out.splitlines() if l.startswith("zeta_t[")]
    assert zts == [1.0 / 20.0, 1.0 / 20.0]


def test_rates_rejects_non_simplex_allocation_file(tmp_path, capsys):
    path = tmp_path / "sym.scenario"
    path.write_text(TWO_USER_POINT)
    alloc_file = tmp_path / "alloc.yaml"
    alloc_file.write_text(yaml.safe_dump({"zeta_t": [0.7, 0.7], "zeta_d": 0.2}))
    assert main(["rates", str(path), "--alloc", f"file:{alloc_file}"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "alloc",
    [
        {"zeta_t": 0.5, "zeta_d": 0.5},
        {"zeta_t": [0.4, 0.4], "zeta_d": None},
        "zeta_t: [0.5\n",  # YAML parse error
        {"zeta_t": [0.4, 0.4], "zeta_d": 0.2, "extra": 1},
        {"zeta_t": [0.5], "zeta_d": 0.5},  # one ratio for two users
    ],
)
def test_rates_rejects_malformed_allocation_file(tmp_path, capsys, alloc):
    path = tmp_path / "sym.scenario"
    path.write_text(TWO_USER_POINT)
    alloc_file = tmp_path / "alloc.yaml"
    alloc_file.write_text(alloc if isinstance(alloc, str) else yaml.safe_dump(alloc))
    assert main(["rates", str(path), "--alloc", f"file:{alloc_file}"]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())


def test_rates_near_zero_data_power_reports_zero(tmp_path, capsys):
    text = TWO_USER_POINT.replace("data_power_db: 10.0", "data_power_db: -400.0")
    path = tmp_path / "silent.scenario"
    path.write_text(text)
    assert main(["rates", str(path), "--alloc", "uniform"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith(("R_LB", "R_MC", "R_UB")):
            assert float(line.split("=")[1].split()[0]) < 1e-30


def test_rates_optimal_below_uniform_at_30db(fig_sweep_rows):
    row = next(r for r in fig_sweep_rows if r.pw_db == 30.0)
    assert row.opt.r_lb < row.unif.r_lb
    assert row.opt.r_mc < row.unif.r_mc
    assert row.opt.r_ub < row.unif.r_ub


def test_reduction_within_paper_band_over_mid_range(fig_sweep_rows):
    for row in fig_sweep_rows:
        if 5.0 <= row.pw_db <= 30.0:
            assert 35.0 <= row.rate_reduction_pct <= 90.0


def test_oracle_check_reports_small_discrepancy(tmp_path, capsys):
    path = tmp_path / "sym.scenario"
    path.write_text(TWO_USER_POINT)
    assert main(["oracle-check", str(path), "--grid", "0.002"]) == 0
    out = capsys.readouterr().out
    gap = float(next(l.split("=")[1] for l in out.splitlines() if "discrepancy" in l))
    assert abs(gap) < 1e-4


def test_plot_script_mentions_all_columns(tiny_scenario, tmp_path):
    assert main(["sweep", str(tiny_scenario), "--outdir", str(tmp_path)]) == 0
    script = (tmp_path / "tiny.plot").read_text()
    assert "tiny.csv" in script
    for col in ("r_mc_opt", "r_mc_unif", "zeta_d"):
        assert col in script
    compile(script, "tiny.plot", "exec")  # must at least be valid python


@pytest.mark.parametrize("old, new", [("max_db: 10.0", "max_db: .inf"), ("step_db: 5.0", "step_db: .nan")])
def test_sweep_rejects_non_finite_sweep_bound(tmp_path, capsys, old, new):
    path = tmp_path / "tiny.scenario"
    path.write_text(TINY.replace(old, new))
    assert main(["sweep", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert new.split(":")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stem", ["../escaped", 'a"b'])
def test_sweep_rejects_output_that_is_not_a_plain_stem(tmp_path, capsys, stem):
    path = tmp_path / "tiny.scenario"
    path.write_text(TINY.replace("output: tiny", f"output: '{stem}'"))
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--outdir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: output ")
    assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("*.plot"))


def test_solver_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(cfg, budget, tol=1e-10):
        raise SolverError("no certified candidate", 1.0)

    monkeypatch.setattr("macjam.cli.solve", fail)
    point = tmp_path / "sym.scenario"
    point.write_text(TWO_USER_POINT)
    assert main(["optimize", str(point)]) == 1
    assert capsys.readouterr().err.startswith("solver failure: no certified candidate")
    sweep = tmp_path / "tiny.scenario"
    sweep.write_text(TINY)
    assert main(["sweep", str(sweep), "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: sweep failed at P_w = 0.0 dB: no certified candidate")
    assert not (tmp_path / "out").exists()
