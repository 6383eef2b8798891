#!/usr/bin/env python3
"""Run the bundled fig2 jamming-power sweep and drop its CSV + plot script in results/.

Equivalent to `macjam sweep <fig2.scenario>`; prints a small summary of the
interesting landmarks afterwards.  The one sweep drives both figures: the
rate curves and the allocation curves.
"""

import sys
import time
from pathlib import Path

import macjam as mj
from macjam.cli import run_sweep, write_csv, write_plot_script


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    outdir.mkdir(parents=True, exist_ok=True)
    spec = mj.load_scenario(mj.bundled_scenario_path("fig2.scenario"))
    cfg = mj.to_system_config(spec)
    t0 = time.perf_counter()
    rows = run_sweep(spec)
    write_csv(rows, cfg.n_users, outdir / f"{spec.output}.csv")
    write_plot_script(spec.output, cfg.n_users, outdir / f"{spec.output}.plot")
    print(f"fig2.scenario: {len(rows)} points in {time.perf_counter() - t0:.1f} s")

    data_on = next(r.pw_db for r in rows if r.zeta_d > 1e-9)
    peak = max(rows, key=lambda r: r.rate_reduction_pct)
    print(f"data-phase jamming switches on at {data_on:g} dB")
    print(f"peak achievable-rate reduction {peak.rate_reduction_pct:.1f}% at {peak.pw_db:g} dB")
    print(f"allocation at 60 dB: zeta_t={rows[-1].zeta_t} zeta_d={rows[-1].zeta_d:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
