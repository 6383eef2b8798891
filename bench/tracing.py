"""Spans around the public calls of the macjam modules, and the per-layer metrics.

A :class:`Tracer` replaces each target function, in every ``macjam`` module
that binds it, with a wrapper that records a :class:`Span` (name, start, end,
parent span, and a few counts taken from the call's arguments or result).
Spans stay in memory until the run ends; :func:`layer_metrics` turns one
pass's spans into the per-layer metrics.  Untraced passes run with the
originals restored, so tracing costs nothing when it is off.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int = -1
    note: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _note_solve(args, kwargs, result):
    return {"iterations": result.iterations, "residual": result.kkt_residual, "method": result.method}


def _note_report(args, kwargs, result):
    alloc, mc = _arg(args, kwargs, 0, "alloc"), _arg(args, kwargs, 3, "mc")
    return {"key": (mc.seed, mc.samples, alloc.n_users)}


def _note_mc(args, kwargs, result):
    alloc, mc = _arg(args, kwargs, 0, "alloc"), _arg(args, kwargs, 3, "mc")
    return {"draws": mc.samples * alloc.n_users}


# (module under macjam, function, note taken from the call). The span name is
# "<module>.<function>".
TARGETS = (
    ("scenario", "load_scenario", None),
    ("scenario", "to_system_config", None),
    ("optimizer", "solve", _note_solve),
    ("optimizer", "solve_kkt", _note_solve),
    ("optimizer", "solve_closed_form", None),
    ("optimizer", "solve_oracle", None),
    ("model", "rho_value", None),
    ("rates", "rate_report", _note_report),
    ("rates", "sum_rate_mc", _note_mc),
    ("rates", "sum_rate_lb", None),
    ("rates", "sum_rate_ub", None),
    ("cli", "run_sweep", None),
    ("cli", "write_csv", None),
    ("cli", "write_plot_script", None),
)


class Tracer:
    """Records spans while installed; ``missing`` names targets that no longer exist."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.stack: list[int] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = Span(name, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target in every loaded macjam module; restore on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "macjam" or n.startswith("macjam.")]
        patched = []
        try:
            for mod_name, attr, note in TARGETS:
                original = getattr(importlib.import_module(f"macjam.{mod_name}"), attr, None)
                if original is None:
                    self.missing.add(f"{mod_name}.{attr}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", original, note)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)


# Per-layer metric -> (unit, targets it needs). A metric whose targets are
# missing is reported as unmeasured (null), never as zero.
PER_LAYER = {
    "scenario.load_s": ("s", ["scenario.load_scenario"]),
    "scenario.to_system_config_s": ("s", ["scenario.to_system_config"]),
    "optimizer.solve_calls": ("count", ["optimizer.solve"]),
    "optimizer.solve_s": ("s", ["optimizer.solve"]),
    "optimizer.kkt_calls": ("count", ["optimizer.solve_kkt"]),
    "optimizer.kkt_s": ("s", ["optimizer.solve_kkt"]),
    "optimizer.closed_form_s": ("s", ["optimizer.solve_closed_form"]),
    "optimizer.closed_form_hit_ratio": ("ratio", ["optimizer.solve"]),
    "optimizer.iterations_sum": ("count", ["optimizer.solve", "optimizer.solve_kkt"]),
    "optimizer.max_kkt_residual": ("1", ["optimizer.solve", "optimizer.solve_kkt"]),
    "optimizer.oracle_calls": ("count", ["optimizer.solve_oracle"]),
    "optimizer.oracle_s": ("s", ["optimizer.solve_oracle"]),
    "model.rho_value_calls": ("count", ["model.rho_value"]),
    "model.rho_value_s": ("s", ["model.rho_value"]),
    "rates.report_calls": ("count", ["rates.rate_report"]),
    "rates.report_s": ("s", ["rates.rate_report"]),
    "rates.mc_s": ("s", ["rates.sum_rate_mc"]),
    "rates.bounds_s": ("s", ["rates.sum_rate_lb", "rates.sum_rate_ub"]),
    "rates.samples_drawn": ("count", ["rates.sum_rate_mc"]),
    "rates.samples_per_s": ("1/s", ["rates.sum_rate_mc"]),
    "rates.seed_reuse_ratio": ("ratio", ["rates.rate_report"]),
    "cli.write_csv_s": ("s", ["cli.write_csv"]),
    "cli.write_plot_s": ("s", ["cli.write_plot_script"]),
    "cli.self_s": ("s", ["cli.run_sweep"]),
    "trace.overhead_s": ("s", []),
}


def _ratio(num, den):
    # A layer that did no work on a workload reads 0, not a division error.
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], missing: set[str]) -> dict:
    """Per-layer metrics of one pass (``trace.overhead_s`` is filled by the caller)."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration

    def busy(*names):
        return sum(s.duration for n in names for s in by_name[n])

    solves = by_name["optimizer.solve"]
    # Outermost solver calls: every solve, and solve_kkt when not called by solve.
    outer = solves + [
        s for s in by_name["optimizer.solve_kkt"]
        if s.parent < 0 or spans[s.parent].name != "optimizer.solve"
    ]
    outer = [s for s in outer if s.note is not None]
    reports = by_name["rates.rate_report"]
    # Reports whose (seed, samples, K) repeats an earlier one: the reuse a
    # shared-sample cache could get, whether or not the program reuses anything.
    seen, reused = set(), 0
    for s in reports:
        if s.note is not None:
            reused += s.note["key"] in seen
            seen.add(s.note["key"])
    draws = sum(s.note["draws"] for s in by_name["rates.sum_rate_mc"] if s.note is not None)
    mc_s = busy("rates.sum_rate_mc")
    values = {
        "scenario.load_s": busy("scenario.load_scenario"),
        "scenario.to_system_config_s": busy("scenario.to_system_config"),
        "optimizer.solve_calls": len(solves),
        "optimizer.solve_s": busy("optimizer.solve"),
        "optimizer.kkt_calls": len(by_name["optimizer.solve_kkt"]),
        "optimizer.kkt_s": busy("optimizer.solve_kkt"),
        "optimizer.closed_form_s": busy("optimizer.solve_closed_form"),
        "optimizer.closed_form_hit_ratio": _ratio(
            sum(s.note is not None and s.note["method"] == "closed_form" for s in solves), len(solves)
        ),
        "optimizer.iterations_sum": sum(s.note["iterations"] for s in outer),
        "optimizer.max_kkt_residual": max((s.note["residual"] for s in outer), default=0.0),
        "optimizer.oracle_calls": len(by_name["optimizer.solve_oracle"]),
        "optimizer.oracle_s": busy("optimizer.solve_oracle"),
        "model.rho_value_calls": len(by_name["model.rho_value"]),
        "model.rho_value_s": busy("model.rho_value"),
        "rates.report_calls": len(reports),
        "rates.report_s": busy("rates.rate_report"),
        "rates.mc_s": mc_s,
        "rates.bounds_s": busy("rates.sum_rate_lb", "rates.sum_rate_ub"),
        "rates.samples_drawn": draws,
        "rates.samples_per_s": _ratio(draws, mc_s),
        "rates.seed_reuse_ratio": _ratio(reused, len(reports)),
        "cli.write_csv_s": busy("cli.write_csv"),
        "cli.write_plot_s": busy("cli.write_plot_script"),
        "cli.self_s": sum(
            s.duration - child_time[i] for i, s in enumerate(spans) if s.name == "cli.run_sweep"
        ),
    }
    for name, (_, needs) in PER_LAYER.items():
        if any(n in missing for n in needs):
            values[name] = None
    return values


def scale_times(metrics: dict, factor: float) -> dict:
    """Convert the seconds (and per-second rates) of one pass to the reference speed."""
    out = dict(metrics)
    for name, (unit, _) in PER_LAYER.items():
        if out.get(name) is not None and unit == "s":
            out[name] /= factor
        elif out.get(name) is not None and unit == "1/s":
            out[name] *= factor
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric across passes; counts repeat exactly, times vary."""
    out = {}
    for name in per_pass[0]:
        vals = [p[name] for p in per_pass if p[name] is not None]
        out[name] = statistics.median(vals) if vals else None
    return out
