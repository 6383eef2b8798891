"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    done = _bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert f"of {result['attempted']} inputs" in done.stdout


def _run_in_process(name, references, tmp_path):
    wl = workloads.make(name, tmp_path, references)
    return run.run(wl, seed=3, seconds=0, trace=0, smoke=True, src=ROOT / "src")


def test_fig2_gate_rejects_a_different_csv(tmp_path):
    result = _run_in_process("fig2-sweep", {"fig2-sweep-smoke": "0" * 64}, tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert "CSV sha256" in result["failures"][result["inputs"] - 1]


def test_mc_reference_gate_rejects_a_different_digest(tmp_path):
    result = _run_in_process("mc-batch", {"mc-batch": "0" * 64}, tmp_path)
    assert not result["correct"] and result["mismatches"]


@pytest.mark.parametrize("name", ["solve-wide", "oracle-check"])
def test_every_operation_is_checked(name, tmp_path, monkeypatch):
    wl = workloads.make(name, tmp_path, {})
    monkeypatch.setattr(wl, "check", lambda inp, out: "rejected")
    result = run.run(wl, seed=3, seconds=0, trace=0, smoke=True, src=ROOT / "src")
    assert result["failed"] == result["attempted"] == result["inputs"]
    assert not result["correct"]


def test_failures_are_counted_per_input_not_per_pass(tmp_path, monkeypatch):
    wl = workloads.make("solve-wide", tmp_path, {})
    # The smoke inputs have one config per K, so this rejects one input on every pass.
    monkeypatch.setattr(wl, "check", lambda inp, out: "rejected" if inp[0].n_users == 1 else None)
    result = run.run(wl, seed=3, seconds=1, trace=0, smoke=True, src=ROOT / "src")
    assert result["passes"] > 1
    assert result["attempted"] == result["inputs"] and result["failed"] == 1


def test_solve_wide_tolerates_only_its_known_defect():
    wl = workloads.make("solve-wide", Path("."), {})
    assert not wl.incorrect(6, 480) and wl.incorrect(49, 480)
    wl.gross = True
    assert wl.incorrect(0, 480)


def test_missing_layer_is_unmeasured_not_zero():
    metrics = tracing.layer_metrics([], {"optimizer.solve_oracle"})
    assert metrics["optimizer.oracle_s"] is None and metrics["optimizer.oracle_calls"] is None
    assert metrics["optimizer.solve_s"] == 0


def test_spans_record_parents_and_originals_return():
    original = workloads.scenario.load_scenario
    tracer = tracing.Tracer()
    with tracer.installed():
        assert workloads.scenario.load_scenario is not original
        workloads.make("fig2-sweep", Path("."), {}).inputs(0, True)
    assert workloads.scenario.load_scenario is original
    assert tracer.spans[0].name == "scenario.load_scenario"
    inner = [s for s in tracer.spans if s.name == "scenario.to_system_config"]
    assert inner[0].parent == 0 and inner[-1].parent == -1
    assert all(s.end >= s.start for s in tracer.spans)


def test_speed_is_sampled_after_each_report_of_a_sweep(tmp_path):
    wl = workloads.make("fig2-sweep", tmp_path, {})
    (inp,) = wl.inputs(0, True)
    speed, tracer = run.Speed(), tracing.Tracer()
    original = workloads.cli.rate_report
    with run._sampling_inside(wl.sample_inside, speed, tracer):
        assert workloads.cli.rate_report is not original
        wl.call(inp)
    assert workloads.cli.rate_report is original
    assert [s.name for s in tracer.spans] == ["bench.speed"] * 6  # 3 points, 2 reports each
    assert sum(s.duration for s in tracer.spans) >= speed.spent > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
