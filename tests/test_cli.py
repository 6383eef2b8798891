import contextlib
import copy
import io
import math
import re
import runpy
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

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


def test_optimize_prints_the_exact_switch_powers(fig_setup, capsys):
    assert main(["optimize", fig2_path(), "--pw-db", "10"]) == 0
    out = capsys.readouterr().out
    printed = re.findall(r"^activation: (zeta_t\[(\d+)\]|zeta_d) positive above (\S+) dB$", out, re.M)
    assert [(name, db) for name, _, db in printed] == [
        ("zeta_t[4]", "-inf"),
        ("zeta_t[3]", "-11.6474459345"),
        ("zeta_t[2]", "-4.6087480201"),
        ("zeta_t[1]", "0.8721206699"),
        ("zeta_d", "20.7400483368"),
    ]
    assert len(re.findall("^activation: ", out, re.M)) == 5
    _, cfg = fig_setup
    k = cfg.n_users
    thresholds = {int(user) - 1 if user else k: float(db) for _, user, db in printed}
    # fig2's data phase switches on last, where its threshold has a closed form.
    pt, pd, tt = cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec()
    need = cfg.data_len * (1.0 + pd.sum()) - tt.sum() - (pt * tt**2).sum()
    assert abs(thresholds[k] - mj.linear_to_db(need / cfg.block_len)) <= 1e-9
    for idx, pw_db in thresholds.items():
        if pw_db == -math.inf:
            continue
        pw = mj.db_to_linear(pw_db)
        below, above = (mj.solve(cfg, mj.JammerBudget(pw * f)).alloc.as_vector()[idx] for f in (1 - 1e-6, 1 + 1e-6))
        assert below == 0.0 and above > 0.0, idx


def test_optimize_prints_a_silent_user_as_never_positive(tmp_path, capsys):
    head, _, tail = TWO_USER_POINT.rpartition("data_power_db: 10.0")
    path = tmp_path / "silent.scenario"
    path.write_text(head + "data_power_db: -.inf" + tail)
    assert main(["optimize", str(path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("activation: ")]
    assert lines[0] == "activation: zeta_t[1] positive above -inf dB"
    assert lines[1].startswith("activation: zeta_d positive above ")
    assert lines[2] == "activation: zeta_t[2] never positive"


def test_optimize_prints_a_nan_switch_on_power_last(tmp_path, capsys):
    # The data phase's switch-on power overflows to NaN on a solve that succeeds.
    path = tmp_path / "nan_power.scenario"
    path.write_text(
        "block_len: 76067469712\n"
        "users:\n"
        "  - {train_len: 108, train_power_db: 43.951, data_power_db: 2982.6}\n"
        "  - {train_len: 6, train_power_db: 1512.9, data_power_db: 1005.98}\n"
        "jammer: {power_db: -.inf}\n"
        "mc: {samples: 1000, seed: 1}\n"
        "output: nan_power\n"
    )
    assert main(["optimize", str(path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("activation: ")]
    assert lines[0] == "activation: zeta_t[1] positive above -inf dB"
    assert lines[1].startswith("activation: zeta_t[2] positive above ")
    assert lines[2] == "activation: zeta_d switch-on power unknown (nan)"


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


@pytest.mark.parametrize(
    "argv", [["optimize"], ["rates", "--alloc", "optimal"], ["oracle-check", "--grid", "0.05"]]
)
def test_point_commands_accept_a_zero_budget(capsys, argv):
    assert main([argv[0], fig2_path(), "--pw-db=-inf", *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


def test_optimize_out_round_trips_through_rates_alloc_file(tmp_path, capsys):
    result = tmp_path / "result.yaml"
    assert main(["optimize", fig2_path(), "--pw-db", "20", "--out", str(result)]) == 0
    capsys.readouterr()
    rate_lines = lambda out: [line for line in out.splitlines() if line.startswith("R_")]
    assert main(["rates", fig2_path(), "--pw-db", "20", "--alloc", f"file:{result}"]) == 0
    from_file = rate_lines(capsys.readouterr().out)
    assert main(["rates", fig2_path(), "--pw-db", "20", "--alloc", "optimal"]) == 0
    assert from_file == rate_lines(capsys.readouterr().out) and len(from_file) == 3


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
        {"zeta_t": [0.4, 0.4], "rho_star": 0.1},  # zeta_d missing
        # An integer beyond the interpreter's digit limit: not a YAMLError.
        pytest.param("zeta_t: [0.4, 0.4]\nzeta_d: " + "1" * 5001 + "\n", id="digit_limit"),
    ],
)
def test_rates_rejects_malformed_allocation_file(tmp_path, capsys, alloc):
    path = tmp_path / "sym.scenario"
    path.write_text(TWO_USER_POINT)
    alloc_file = tmp_path / "alloc.yaml"
    alloc_file.write_text(alloc if isinstance(alloc, str) else yaml.safe_dump(alloc))
    assert main(["rates", str(path), "--alloc", f"file:{alloc_file}"]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and str(alloc_file) in line for line in err.splitlines())


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
    # The oracle line ends with the polish's sweep count, the result's iterations.
    spec = mj.load_scenario(path)
    oracle = mj.solve_oracle(
        mj.to_system_config(spec), mj.JammerBudget(mj.db_to_linear(spec.jammer.power_db)), grid_resolution=0.002
    )
    line = next(l for l in out.splitlines() if l.startswith("oracle rho* = "))
    assert line == f"oracle rho* = {oracle.rho_star:.12g} (grid 0.002, polish sweeps {oracle.iterations})"


def test_plot_script_mentions_all_columns(tiny_scenario, tmp_path, monkeypatch):
    assert main(["sweep", str(tiny_scenario), "--outdir", str(tmp_path)]) == 0
    script = (tmp_path / "tiny.plot").read_text()
    assert "tiny.csv" in script
    for col in ("r_mc_opt", "r_mc_unif", "zeta_d"):
        assert col in script
    # The script names CSV columns a third time (after SweepRow and
    # csv_columns): run it on its CSV with a stub pyplot, so a column it reads
    # but the CSV lacks raises KeyError here.
    curves = []

    class Stub:
        def plot(self, x, y, *args, **kwargs):
            curves.append((list(x), list(y)))

        def __getattr__(self, name):
            return lambda *args, **kwargs: None

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda **kwargs: (Stub(), Stub())
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    monkeypatch.chdir(tmp_path)
    runpy.run_path("tiny.plot", run_name="__main__")
    # Six rate curves, then zeta_t_1 and zeta_d, each over the three sweep points.
    assert len(curves) == 8
    assert all(x == [0.0, 5.0, 10.0] and len(y) == 3 for x, y in curves)


BUDGET_USER = TWO_USER_POINT.replace("train_power_db: 10.0\n    data_power_db: 10.0", "avg_power_db: 10.0", 1)
HUGE_BLOCK = TWO_USER_POINT.replace("block_len: 20", f"block_len: {10**400}")
HUGE_BLOCK_BUDGET_USER = BUDGET_USER.replace("block_len: 20", f"block_len: {10**400}")
BLOCK_LEN_LIMIT = "block_len exceeds the limit MAX_BLOCK_LEN = 2**53"


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (TWO_USER_POINT.replace("data_power_db: 10.0", "data_power_db: 4000", 1), ["optimize"],
         "users[0]: 4000.0 dB is too large"),
        (TWO_USER_POINT.replace("power_db: 5.0", "power_db: 4000"), ["optimize"], "4000.0 dB is too large"),
        (TWO_USER_POINT, ["optimize", "--pw-db", "4000"], "4000.0 dB is too large"),
        (TWO_USER_POINT, ["rates", "--alloc", "uniform", "--pw-db", "4000"], "4000.0 dB is too large"),
        (TWO_USER_POINT, ["oracle-check", "--pw-db", "4000"], "4000.0 dB is too large"),
        # Every point is converted before the first solve; 3085 dB is the first that overflows.
        (TINY.replace("max_db: 10.0", "max_db: 4000.0"), ["sweep"], "3085.0 dB is too large"),
        (BUDGET_USER.replace("train_len: 1", "train_len: 0", 1), ["optimize"],
         "users[0]: train_len and data_len must be >= 1, got 0"),
        (BUDGET_USER.replace("avg_power_db: 10.0", "avg_power_db: -1.0e+308"), ["optimize"],
         "users[0]: avg_power must be > 0, got 0.0"),
        (TINY.replace("min_db: 0.0, max_db: 10.0, step_db: 5.0", "min_db: -1.0e+308, max_db: 1.0e+308, step_db: 1.0"),
         ["sweep"], "sweep (max_db - min_db) / step_db overflows"),
        (TINY.replace("min_db: 0.0, max_db: 10.0, step_db: 5.0", "min_db: 0.0, max_db: 1.0e+12, step_db: 1.0e-3"),
         ["sweep"], "sweep has 1000000000000001 points, more than the limit 1000000"),
        # P_w T above optimizer.MAX_ENERGY: 2000 dB at T = 20, and from 1195 dB at T = 10.
        (TWO_USER_POINT, ["optimize", "--pw-db", "2000"], "P_w T = 1.9999999999999998e+201 exceeds the limit 1e+120"),
        (TWO_USER_POINT, ["rates", "--alloc", "optimal", "--pw-db", "2000"], "P_w T = 1.9999999999999998e+201"),
        (TWO_USER_POINT, ["rates", "--alloc", "uniform", "--pw-db", "2000"], "P_w T = 1.9999999999999998e+201"),
        (TWO_USER_POINT, ["oracle-check", "--pw-db", "2000"], "P_w T = 1.9999999999999998e+201"),
        (TINY.replace("max_db: 10.0", "max_db: 1300.0"), ["sweep"], "P_w T = 3.1622776601683794e+120 exceeds"),
        # A block length beyond model.MAX_BLOCK_LEN, checked before a budget-form user is split.
        (HUGE_BLOCK, ["optimize"], BLOCK_LEN_LIMIT),
        (HUGE_BLOCK, ["rates", "--alloc", "uniform"], BLOCK_LEN_LIMIT),
        (HUGE_BLOCK_BUDGET_USER, ["optimize"], BLOCK_LEN_LIMIT),
        (HUGE_BLOCK_BUDGET_USER, ["rates", "--alloc", "uniform"], BLOCK_LEN_LIMIT),
        *((TWO_USER_POINT, ["oracle-check", "--grid", grid], "grid_resolution must lie in (0, 1]")
          for grid in ("0", "-1", "2", "inf", "nan")),
    ],
    ids=["user_db", "jammer_db", "pw_db", "rates_pw_db", "oracle_pw_db", "sweep_db",
         "budget_train_len_0", "budget_tiny_avg_power", "sweep_point_count", "sweep_point_cap",
         "energy", "rates_energy", "rates_uniform_energy", "oracle_energy", "sweep_energy",
         "block_len", "rates_block_len", "budget_block_len", "rates_budget_block_len",
         "grid_0", "grid_negative", "grid_2", "grid_inf", "grid_nan"],
)
def test_out_of_range_scenario_values_are_configuration_errors(tmp_path, capsys, text, argv, message):
    path = tmp_path / "case.scenario"
    path.write_text(text)
    out = tmp_path / "out"
    extra = ["--outdir", str(out)] if argv[0] == "sweep" else []
    extra += ["--out", str(out)] if argv[0] == "optimize" else []
    assert main([argv[0], str(path), *argv[1:], *extra]) == 2
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err
    assert not out.exists()


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
    def fail(cfg, budget):
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
    # The sweep's context wraps the solver's message; the residual is printed once.
    assert err == "solver failure: sweep failed at P_w = 0.0 dB: no certified candidate (residual 1.000e+00)\n"
    assert not (tmp_path / "out").exists()


# Two users at 3,078 and 2,380 dB pilots: pt tt of the first overflows a float.
PILOT_OVERFLOW_USERS = """\
block_len: 1354
users:
  - {train_len: 3, train_power_db: 3078.023672832875, data_power_db: -20.880491868468937}
  - {train_len: 2, train_power_db: 2380.340522667818, data_power_db: 32.497754176316306}
mc: {samples: 2000, seed: 1}
"""


def test_sweep_solver_failure_prints_its_residual_once(tmp_path, capsys):
    path = tmp_path / "sweep_fail.scenario"
    path.write_text(PILOT_OVERFLOW_USERS + "jammer:\n  sweep: {min_db: 14.0, max_db: 15.0, step_db: 1.0}\noutput: fail\n")
    assert main(["sweep", str(path), "--outdir", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "solver failure: sweep failed at P_w = 14.0 dB: "
        "no candidate free set certifies the optimum (residual inf)\n"
    )


def test_rates_with_an_overflowing_pilot_prices_without_a_warning(tmp_path, capsys):
    # The first user's pt tt overflows a float; its alpha takes its limit, so
    # both bounds price the rho the Monte Carlo does.  The suite turns
    # warnings into errors, so a NumPy warning fails this test.
    path = tmp_path / "pilot_overflow.scenario"
    path.write_text(PILOT_OVERFLOW_USERS + "jammer: {power_db: 14.23650479889001}\noutput: rates\n")
    assert main(["rates", str(path), "--alloc", "uniform"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if line.startswith("R_")] == [
        "R_LB = 5.20010546695 bits/symbol",
        "R_MC = 5.3151571552 +/- 0.0713 bits/symbol",
        "R_UB = 6.01275663051 bits/symbol",
    ]


# A user whose pt tt and pd pt overflow: rho and two activation powers are NaN.
OVERFLOW_POINT = """\
block_len: 1099511627776
users:
  - {train_len: 10000000000, train_power_db: 3000.0, data_power_db: 100.0}
  - {train_len: 3, train_power_db: 10.0, data_power_db: 10.0}
jammer: {power_db: 0.0}
mc: {samples: 1000, seed: 1}
output: overflow
"""


def test_optimize_prints_nothing_before_a_solver_failure(tmp_path, capsys):
    path = tmp_path / "overflow.scenario"
    path.write_text(OVERFLOW_POINT)
    assert main(["optimize", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("solver failure: ")


# A user at 3000 dB in a short block: rho is inf in the ratio form.
RATES_INF_POINT = """\
block_len: 100
users:
  - {train_len: 3, train_power_db: 3000.0, data_power_db: 3000.0}
  - {train_len: 3, train_power_db: 10.0, data_power_db: 10.0}
jammer: {power_db: 0.0}
mc: {samples: 1000, seed: 1}
output: rates_inf
"""

# A user at 3022.6 dB over 4.9e6 symbols: rho is finite in the ratio form and
# NaN in the estimation form the Monte Carlo prices.
ESTIMATE_OVERFLOW_POINT = """\
block_len: 5894273
users:
  - {train_len: 4866104, train_power_db: 3022.6, data_power_db: -16.8}
  - {train_len: 1028163, train_power_db: 134.1, data_power_db: 1373.1}
  - {train_len: 3, train_power_db: 14.6, data_power_db: -13.4}
jammer: {power_db: -12.8}
mc: {samples: 1000, seed: 1}
output: estimate_overflow
"""


@pytest.mark.parametrize(
    "text, forms",
    [(RATES_INF_POINT, "inf (ratio form)"), (OVERFLOW_POINT, "nan (ratio form) and nan"),
     (ESTIMATE_OVERFLOW_POINT, "and nan (estimation form)")],
    ids=["ratio_inf", "both_nan", "estimate_nan"],
)
def test_rates_on_overflowing_powers_prints_one_error_line(tmp_path, capsys, text, forms):
    # The suite turns warnings into errors, so a NumPy overflow warning while
    # pricing fails this test before the error line is printed.
    path = tmp_path / "overflow.scenario"
    path.write_text(text)
    assert main(["rates", str(path), "--alloc", "uniform"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: rho of this allocation is ")
    assert forms in err and err.rstrip().endswith("the users' powers overflow a float")


# Huge data powers: at a small energy the gradient's squared factor overflows.
GRAD_OVERFLOW_POINT = """\
block_len: 5160930645
users:
  - {train_len: 9, train_power_db: 403.0557, data_power_db: 2201.01}
  - {train_len: 1189100, train_power_db: 909.73, data_power_db: 650.82}
  - {train_len: 5159740379, train_power_db: 2988.91, data_power_db: 2275.8}
jammer: {power_db: 0.0}
mc: {samples: 1000, seed: 1}
output: grad_overflow
"""


def test_optimize_gradient_overflow_is_a_solver_failure(tmp_path, capsys):
    path = tmp_path / "grad_overflow.scenario"
    path.write_text(GRAD_OVERFLOW_POINT)
    assert main(["optimize", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == "solver failure: no candidate free set certifies the optimum (residual nan)\n"


# A valid one-point scenario, with a budget-form user; each case below breaks it once.
POINT = {
    "block_len": 20,
    "users": [
        {"train_len": 1, "train_power_db": 10.0, "data_power_db": 10.0},
        {"train_len": 1, "avg_power_db": 10.0},
    ],
    "jammer": {"power_db": 5.0},
    "mc": {"samples": 2000, "seed": 3},
    "output": "point",
}
# Each is a YAML syntax or construction error after a complete document; the
# date is one that YAML's syntax accepts but Python cannot hold.
BAD_YAML_TAILS = ["users: [1, 2", "jammer: {power_db: 5.0", "output: 'point", "\tx: 1", "? [1]\n: 2",
                  "- x", ": :", "seed: 2001-13-45", "%YAML 1.1"]
NUMERIC_FIELDS = [("block_len",), ("users", 0, "train_len"), ("users", 0, "train_power_db"),
                  ("users", 0, "data_power_db"), ("users", 1, "train_len"), ("users", 1, "avg_power_db"),
                  ("jammer", "power_db"), ("mc", "samples"), ("mc", "seed")]
DB_FIELDS = [f for f in NUMERIC_FIELDS if f[-1].endswith("_db")]


def _with(path, value) -> str:
    doc = copy.deepcopy(POINT)
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    return yaml.safe_dump(doc, sort_keys=False)


def _beyond_domain():
    valid = yaml.safe_dump(POINT, sort_keys=False)
    malformed = st.one_of(
        st.sampled_from(BAD_YAML_TAILS).map(lambda tail: valid + tail + "\n"),
        # Any short text: a parse error, not a mapping, or missing keys.
        st.text(max_size=40),
    )
    # 3,100 dB and up overflow a float's linear power.
    overflowing_db = st.builds(_with, st.sampled_from(DB_FIELDS), st.floats(min_value=3100.0))
    short = st.one_of(
        st.builds(_with, st.sampled_from([("users", 0, "train_len"), ("users", 1, "train_len")]),
                  st.integers(max_value=0)),
        # Two users train for one symbol each, so no data phase is left at 2 or below.
        st.builds(_with, st.just(("block_len",)), st.integers(max_value=2)),
        st.builds(_with, st.just(("mc", "samples")), st.integers(max_value=0)),
    )
    non_numeric = st.builds(
        _with,
        st.sampled_from(NUMERIC_FIELDS),
        st.one_of(st.text(max_size=8), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)),
    )
    return st.one_of(malformed, overflowing_db, short, non_numeric)


@settings(max_examples=100, deadline=None)
@given(_beyond_domain(), st.sampled_from([["optimize"], ["rates", "--alloc", "uniform"], ["oracle-check"]]))
def test_scenario_beyond_the_domain_is_one_error_line(tmp_path_factory, text, argv):
    path = tmp_path_factory.getbasetemp() / "beyond.scenario"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    assert code == 2, (code, err.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) == 1
    assert "Traceback" not in err.getvalue()
