#!/usr/bin/env python3
"""Print the jamming power above which each energy ratio is positive.

The thresholds come from the solver's water-filling path
(``macjam.activation_powers``), in the order the ratios switch on.
Usage: ``activation_thresholds.py [scenario]`` (default: the bundled fig2).
"""

import math
import sys

import numpy as np

import macjam as mj


def main() -> int:
    scenario = sys.argv[1] if len(sys.argv) > 1 else mj.bundled_scenario_path("fig2.scenario")
    cfg = mj.to_system_config(mj.load_scenario(scenario))
    powers = mj.activation_powers(cfg)
    for idx in np.argsort(powers, kind="stable"):
        name = f"zeta_t[{idx + 1}]" if idx < cfg.n_users else "zeta_d"
        if powers[idx] == math.inf:
            print(f"{name}: never positive")
        else:
            pw_db = mj.linear_to_db(powers[idx]) if powers[idx] > 0.0 else -math.inf
            print(f"{name}: positive above {pw_db:.10f} dB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
