"""Run the benchmark over several seeds, report the spread, and record a baseline.

From the repository root:

    python3 bench/record.py --seeds 10            # print medians and spreads
    python3 bench/record.py --seeds 10 --write    # also write bench/baseline.json

For every workload in BENCHMARK.json it makes one untraced run per seed and
one traced run (seed 0), then prints, for each end-to-end metric, the median
over seeds and the spread (interquartile distance over the median), next to a
third of the metric's bound.  ``--write`` stores the machine, the command,
the seeds, every value, and the per-layer -> end-to-end prediction map in
bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Which end-to-end metric each per-layer metric should move, and on which
# workloads; "unchanged" names the workloads where the prediction is no change.
PREDICTIONS = [
    {
        "layers": ["scenario.load_s", "scenario.to_system_config_s"],
        "moves": {"setup_s": ["fig2-sweep", "solve-wide", "mc-batch", "oracle-check"]},
        "unchanged": [],
    },
    {
        "layers": [
            "optimizer.solve_calls", "optimizer.solve_s", "optimizer.kkt_calls", "optimizer.kkt_s",
            "optimizer.closed_form_s", "optimizer.closed_form_hit_ratio",
            "optimizer.iterations_sum", "optimizer.max_kkt_residual",
        ],
        "moves": {
            "wall_s": ["fig2-sweep", "solve-wide"],
            "op_p50_ms": ["fig2-sweep", "solve-wide"],
            "op_tail_ms": ["fig2-sweep", "solve-wide"],
        },
        "unchanged": ["mc-batch"],
    },
    {
        "layers": ["optimizer.oracle_calls", "optimizer.oracle_s", "model.rho_value_calls", "model.rho_value_s"],
        "moves": {"wall_s": ["oracle-check"]},
        "unchanged": ["fig2-sweep", "solve-wide", "mc-batch"],
    },
    {
        "layers": [
            "rates.report_calls", "rates.report_s", "rates.mc_s", "rates.bounds_s",
            "rates.samples_drawn", "rates.samples_per_s", "rates.seed_reuse_ratio",
        ],
        "moves": {"wall_s": ["fig2-sweep", "mc-batch"], "peak_rss_mb": ["mc-batch"]},
        "unchanged": ["solve-wide"],
    },
    {
        "layers": ["cli.write_csv_s", "cli.write_plot_s", "cli.self_s"],
        "moves": {"wall_s": ["fig2-sweep"]},
        "unchanged": ["solve-wide", "mc-batch", "oracle-check"],
    },
    {
        "layers": ["trace.overhead_s"],
        "moves": {},
        "unchanged": [],
        "note": "traced wall_s minus untraced wall_s of the same run, per workload",
    },
]


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2].removeprefix("raw "))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def machine():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    for name in names:
        runs = []
        for seed in seeds:
            out = run_once(bench["command"], name, seed, seconds, 0)
            runs.append(out)
            print(f"{name} seed {seed}: correct={out['correct']} failed={out['failed']}/{out['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()), flush=True)
        traced = run_once(bench["command"], name, 0, seconds, 1)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            ok = "ok" if rel < bound / 3 else "WIDE"
            print(f"  {name} {metric}: median {med:.6g} IQR/median {rel:.4f} (bound/3 {bound / 3:.4f}) {ok}")
            summary[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": med, "q1": q1, "q3": q3, "iqr_over_median": rel, "values": values,
            }
            if metric in runs[0]["raw"]:
                raw_values = [r["raw"][metric] for r in runs]
                summary[metric]["raw_median"] = statistics.median(raw_values)
                summary[metric]["raw_values"] = raw_values
                print(f"  {name} {metric} raw: median {spread(raw_values)[0]:.6g} "
                      f"IQR/median {spread(raw_values)[3]:.4f}")
        results[name] = {
            "runs": [{"seed": s, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                      "speed_factors": {k: v for k, v in r["raw"].items() if "factor" in k}}
                     for s, r in zip(seeds, runs)],
            "end_to_end": summary,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_seed0_raw": traced["raw"],
        }
    if args.write:
        record = {
            "machine": machine(),
            "command": bench["command"] + ["--workload", "<name>", "--seed", "<n>", "--seconds", str(seconds),
                                           "--trace", "<0|1>"],
            "seeds": seeds,
            "time_units": (
                "Every time (s, ms) and rate (1/s) except scenario.* (raw seconds) is at a reference speed. "
                "setup_s: each rep divided by the time of a fresh-process `import numpy` over SETUP_REF_S. "
                "The others: the raw time divided by the speed factor that run.Speed measured in the same pass "
                "(1.0 = its kernel took CAL_REF_S). raw_median and raw_values hold the undivided times; each "
                "run's speed_factors the divisors."
            ),
            "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
            "predictions": PREDICTIONS,
            "baseline": results,
        }
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
