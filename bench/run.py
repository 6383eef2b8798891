"""Benchmark of the macjam pipeline, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload fig2-sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): fig2-sweep, solve-wide, mc-batch, oracle-check.
Each is a closed loop with one caller: a pass runs one operation per input,
and passes repeat while another one should end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over SETUP_REPS of a fresh-process ``import macjam``
               plus building the inputs, each divided by the time of a
               fresh-process ``import numpy`` next to it over SETUP_REF_S;
  wall_s       one full pass, the median over passes;
  op_p50_ms    median over the inputs of each input's median latency;
  op_tail_ms   the highest percentile of those with TAIL_BEYOND inputs
               beyond it (the maximum when there are too few inputs);
  peak_rss_mb  peak resident memory of this process.
Other times are in seconds at the reference speed (see Speed): raw times
divided by the slowdown measured between the operations of the same pass.
The raw times and the speed factors are printed too, on the line before the
result (``raw {...}``).  setup_s has a reference of its own: import time,
mostly file reads and module loading, drifts by 20% over minutes and tracks
the bare numpy import, not the CPU kernel of Speed.

On fig2-sweep one operation is the whole sweep, so op_p50_ms and op_tail_ms
are both the median sweep latency of the run.

``--trace 1`` warms up (one pass, or WARMUP_S of one), then alternates
untraced and traced passes and reports the per-layer metrics of
tracing.PER_LAYER, each the median over traced passes, and
trace.overhead_s = traced wall_s - untraced wall_s.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  ``attempted`` is the number of inputs, each checked on
every pass; an input counts in ``failed`` when its operation raises
SolverError or ValueError, or its output fails its gate, on any pass.
``correct`` is false when a gate fails (on solve-wide, only beyond the known
defect: see workloads.SolveWide) or an output differs from one recorded at
the seed commit (reference.json).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracing import Span

WORKLOADS = ("fig2-sweep", "solve-wide", "mc-batch", "oracle-check")
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
SETUP_REPS = 9
TAIL_BEYOND = 10
WARMUP_S = 5.0  # at most this long a warm-up before a traced run's passes
CAL_SHARE = 0.05  # calibration time after each operation, as a share of its latency
CAL_REF_S = 1e-3  # calibration kernel time that defines the reference speed
SETUP_REF_S = 0.2  # fresh-process `import numpy` time that defines it for setup_s


class Speed:
    """The machine's speed relative to the reference, sampled between operations
    (and within a long one, see _sampling_inside).

    On a shared machine the same code runs tens of percent slower for seconds
    to minutes at a time.  A fixed kernel of the benchmark's own (interpreted
    Python plus small NumPy calls, like the program) run after each operation,
    for a share of its latency, measures that slowdown; times divided by
    ``factor()`` are in seconds at the reference speed and repeat from run to
    run where raw times do not.  Whatever slows the kernel as much as the
    program is divided out too, so the raw times are reported beside them.
    """

    def __init__(self):
        self._x = np.linspace(0.05, 0.95, 2048)
        self.reset()

    def reset(self):
        self._busy = 0.0
        self._runs = 0
        self.spent = 0.0  # wall time spent in sample(), kernel and loop

    def _kernel(self):
        acc = 0
        for i in range(9000):
            acc += i * i % 7
        for _ in range(60):
            acc += float(np.log1p(-self._x).sum())
        return acc

    def sample(self, after: float):
        begin = time.perf_counter()
        end = begin + CAL_SHARE * after
        while True:
            start = time.perf_counter()
            self._kernel()
            now = time.perf_counter()
            self._busy += now - start
            self._runs += 1
            if now >= end:
                self.spent += now - begin
                return

    def factor(self) -> float:
        return self._busy / self._runs / CAL_REF_S


@contextlib.contextmanager
def _sampling_inside(target, speed, tracer):
    """Sample the speed after each call of ``target`` (module, name) within an operation.

    A long operation (a whole fig2 sweep takes seconds) would otherwise be
    divided by a speed sampled only after it ends, while the machine drifts
    within seconds.  The calibration's own time is taken out of the
    operation's latency (``Speed.spent``) and, as a "bench.speed" span, out
    of the self time of the span it runs in.  Install it inside the tracer.
    """
    mod = sys.modules[f"macjam.{target[0]}"] if target else None
    original = getattr(mod, target[1], None) if target else None
    if original is None:
        yield
        return

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        span = Span("bench.speed", parent=tracer.stack[-1] if tracer.stack else -1)
        span.start = time.perf_counter()
        speed.sample(span.start - start)
        span.end = time.perf_counter()
        tracer.spans.append(span)
        return result

    setattr(mod, target[1], wrapper)
    try:
        yield
    finally:
        setattr(mod, target[1], original)


def _child_seconds(src: Path, code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND values beyond it, and its value.

    With fewer than 2 * TAIL_BEYOND values no such percentile lies above the
    median; the maximum (p100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def run(wl, seed, seconds, trace, smoke, src):
    from macjam.optimizer import SolverError
    from tracing import Tracer, layer_metrics, median_metrics, scale_times

    tracer = Tracer()
    speed = Speed()
    setup, setup_factors = [], []
    if trace:
        inputs = wl.inputs(seed, smoke)
        with tracer.installed():
            wl.inputs(seed, smoke)
        setup_spans = tracer.spans
    else:
        for _ in range(SETUP_REPS):
            reference = _child_seconds(src, "import numpy")
            imported = _child_seconds(src, "import macjam")
            start = time.perf_counter()
            inputs = wl.inputs(seed, smoke)
            setup.append(imported + time.perf_counter() - start)
            setup_factors.append(reference / SETUP_REF_S)

    latencies = [[] for _ in inputs]  # raw seconds, per input and pass
    walls = {False: [], True: []}  # raw seconds per pass
    factors = {False: [], True: []}
    layer_passes = []
    failures = {}  # input index -> reason of its first failed pass
    if trace:
        # Warm-up, not recorded: the first operations pay for first-touch
        # allocations and would bias the untraced side of trace.overhead_s.
        # Capped at WARMUP_S, so a long pass is not run three times.
        warm_end = time.perf_counter() + WARMUP_S
        for inp in inputs:
            with contextlib.suppress(SolverError, ValueError):
                wl.call(inp)
            if time.perf_counter() > warm_end:
                break
    traced = False
    begin = time.perf_counter()
    while True:
        outputs, raw = [], []
        tracer.spans = []
        speed.reset()
        with (tracer.installed() if traced else contextlib.nullcontext(),
              _sampling_inside(wl.sample_inside, speed, tracer)):
            for inp in inputs:
                spent = speed.spent
                t0 = time.perf_counter()
                try:
                    out = wl.call(inp)
                except (SolverError, ValueError) as exc:
                    out = exc
                raw.append(time.perf_counter() - t0 - (speed.spent - spent))
                outputs.append(out)
                speed.sample(raw[-1])
        factor = speed.factor()
        factors[traced].append(factor)
        for i, latency in enumerate(raw):
            latencies[i].append((latency, factor))
        walls[traced].append(sum(raw))
        if traced:
            layer_passes.append(scale_times(layer_metrics(tracer.spans, tracer.missing), factor))
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                reason = f"{type(out).__name__}: {out}"
            else:
                reason = wl.check(inputs[i], out)
            if reason is not None:
                failures.setdefault(i, reason)
        # Start another pass only if it should end within the time given.
        passes = len(walls[False]) + len(walls[True])
        if (time.perf_counter() - begin) * (passes + 1) / passes > seconds and (not trace or walls[True]):
            break
        traced = trace and not traced

    # Counted per input, not per pass: how many passes fit in the time varies
    # from run to run, the inputs of a seed do not.
    attempted, failed = len(inputs), len(failures)
    mismatches = wl.reference()
    correct = not mismatches and not wl.incorrect(failed, attempted)

    def wall(traced, scaled=True):
        return statistics.median(w / f if scaled else w for w, f in zip(walls[traced], factors[traced]))

    def per_input(scaled=True):
        return [statistics.median(t / f if scaled else t for t, f in v) for v in latencies]

    # The same figures in raw seconds, and the speed factors that divide them,
    # so the normalisation can be checked.
    raw = {"speed_factor_median": statistics.median(factors[False])}
    if trace:
        metrics = median_metrics(layer_passes)
        setup_layers = layer_metrics(setup_spans, tracer.missing)
        for name in ("scenario.load_s", "scenario.to_system_config_s"):
            metrics[name] = setup_layers[name]
        metrics["trace.overhead_s"] = wall(True) - wall(False)
        raw["traced_speed_factor_median"] = statistics.median(factors[True])
        raw["trace.overhead_s"] = wall(True, False) - wall(False, False)
        pct = None
    else:
        pct, tail = _tail(per_input())
        metrics = {
            "setup_s": statistics.median(s / f for s, f in zip(setup, setup_factors)),
            "wall_s": wall(False),
            "op_p50_ms": 1000.0 * statistics.median(per_input()),
            "op_tail_ms": 1000.0 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw["setup_speed_factor_median"] = statistics.median(setup_factors)
        raw["setup_s"] = statistics.median(setup)
        raw["wall_s"] = wall(False, False)
        raw["op_p50_ms"] = 1000.0 * statistics.median(per_input(False))
        raw["op_tail_ms"] = 1000.0 * _tail(per_input(False))[1]
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
        "failures": failures,
        "mismatches": mismatches,
        "inputs": len(inputs),
        "passes": len(walls[False]) + len(walls[True]),
        "tail_percentile": pct,
        "missing": sorted(tracer.missing),
    }


def _report(name, trace, result):
    from tracing import PER_LAYER

    units = {k: unit for k, (unit, _) in PER_LAYER.items()} if trace else END_TO_END
    print(f"workload {name}: {result['inputs']} inputs, {result['passes']} passes")
    for index, reason in sorted(result["failures"].items()):
        print(f"  gate failed on input {index}: {reason}")
    for reason in result["mismatches"]:
        print(f"  reference gate failed: {reason}")
    print(f"  failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} inputs, each checked on every pass)")
    if result["tail_percentile"] is not None:
        print(f"  op_tail_ms is p{result['tail_percentile']:.1f} of {result['inputs']} per-input median latencies")
    for missing in result["missing"]:
        print(f"  unmeasured: {missing} no longer exists")
    print("  times are at the reference speed: raw time / speed factor (see Speed)")
    metrics = {}
    for key, unit in units.items():
        value = result["metrics"][key]
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        if key in result["raw"]:
            shown += f" (raw {result['raw'][key]:.6g} {unit})"
        print(f"  {key} = {shown}")
        metrics[key] = {"value": value, "unit": unit}
    print("raw " + json.dumps(result["raw"]))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "macjam" / "__init__.py").is_file():
        print(f"error: no src/macjam under {root}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import macjam

    if not Path(macjam.__file__).resolve().is_relative_to(src):
        print(f"error: imported macjam from {macjam.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    references = json.loads((Path(__file__).parent / "reference.json").read_text())
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=root) as tmp:
        wl = workloads.make(args.workload, Path(tmp), references)
        result = run(wl, args.seed, args.seconds, args.trace, args.smoke, src)
    _report(args.workload, args.trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
