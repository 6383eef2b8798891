"""What ``import macjam`` loads, checked in a fresh interpreter.

PyYAML and ``numpy.random`` are imported by the functions that use them, so a
process that only solves never loads them.  macjam never loads
``concurrent.futures``: a threaded Monte Carlo report starts plain threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import macjam as mj

# The source tree of the macjam this suite imports, for the child's PYTHONPATH.
SRC = Path(mj.__file__).resolve().parents[1]

CHILD = """
import json, os, sys
import numpy
numpy_loads_random = "numpy.random" in sys.modules
lazy = ("yaml", "concurrent.futures", "numpy.random")
loaded = {}
import macjam.optimizer
loaded["import macjam.optimizer"] = [m for m in lazy if m in sys.modules]
import macjam as mj
loaded["import macjam"] = [m for m in lazy if m in sys.modules]
try:
    mj.parse_scenario("users: [", source="bad.scenario")
    error = None
except mj.ScenarioError as exc:
    error = str(exc)
spec = mj.load_scenario(mj.bundled_scenario_path("fig2.scenario"))
os.cpu_count = lambda: 2
cfg = mj.to_system_config(spec)
budget = mj.JammerBudget(1.0)
mj.sum_rate_mc(mj.uniform_allocation(cfg), cfg, budget, mj.MonteCarloSettings(2 * 8192), workers=2)
print(json.dumps({
    "threaded_report_loads_futures": "concurrent.futures" in sys.modules,
    "numpy_loads_random": numpy_loads_random,
    "loaded": loaded,
    "error": error,
    "round_trip": mj.parse_scenario(mj.dump_scenario(spec)) == spec,
}))
"""


def test_import_leaves_yaml_threads_and_numpy_random_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    seen = json.loads(child.stdout)
    # numpy 1.x loads numpy.random in `import numpy` itself; from 2.0 it is lazy.
    expected = ["numpy.random"] if seen["numpy_loads_random"] else []
    assert seen["loaded"] == {"import macjam.optimizer": expected, "import macjam": expected}
    # The YAML imported on first use still turns a parse failure into a
    # ScenarioError naming the source, and still writes what it reads.
    assert seen["error"] is not None and seen["error"].startswith("bad.scenario: parse error: ")
    assert seen["round_trip"]
    assert not seen["threaded_report_loads_futures"]
