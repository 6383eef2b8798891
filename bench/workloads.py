"""The benchmark's workloads: seeded inputs, one public call per operation, gates.

Each workload builds its inputs in ``inputs(seed, smoke)`` (timed as set-up),
runs one operation per input in ``call`` (timed), and checks each output in
``check`` (untimed), which returns None or the reason the operation failed.
``incorrect`` says whether the run's gate failures make it incorrect, and
``reference`` runs fixed inputs whose outputs were recorded at the seed
commit and returns the mismatches (none by default).

Calls go through the module attributes (``optimizer.solve``, not a bound
name), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from macjam import cli, model, optimizer, rates, scenario

CERT_TOL = 1e-10
ORACLE_TOL = 1e-4


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _config(rng, k, power_db):
    """A K-user scenario with explicit dB powers, resolved by ``to_system_config``.

    Training lengths and block length follow the test suite's ``random_config``.
    """
    users = tuple(
        scenario.UserSpec(
            train_len=int(rng.integers(1, 4)),
            train_power_db=float(rng.uniform(*power_db)),
            data_power_db=float(rng.uniform(*power_db)),
        )
        for _ in range(k)
    )
    total_train = sum(u.train_len for u in users)
    spec = scenario.ScenarioSpec(
        block_len=int(rng.integers(total_train + 2, total_train + 120)),
        users=users,
        jammer=scenario.JammerSpec(power_db=0.0),
        mc=rates.MonteCarloSettings(),
        output="bench",
    )
    return scenario.to_system_config(spec)


def _budget(rng, budget_db):
    return model.JammerBudget(scenario.db_to_linear(float(rng.uniform(*budget_db))))


def _stratified_budgets(rng, budget_db, count):
    """One budget drawn from each of ``count`` equal dB strata of the range.

    Whether the closed form applies, and how long the KKT search runs, depends
    mostly on the budget; one draw per stratum keeps that mix alike across seeds.
    """
    lo, hi = budget_db
    return [
        model.JammerBudget(scenario.db_to_linear(lo + (hi - lo) * (j + float(rng.uniform())) / count))
        for j in range(count)
    ]


class Workload:
    # (module, function) of macjam after whose calls the speed is sampled
    # within an operation; None samples between operations only.
    sample_inside = None

    def reference(self) -> list[str]:
        return []

    def incorrect(self, failed: int, attempted: int) -> bool:
        """Whether the run's gate failures make it incorrect; by default any does."""
        return failed > 0


class Fig2Sweep(Workload):
    """``macjam sweep`` on the bundled fig2 scenario: one operation is the whole sweep.

    As the command runs it: ``run_sweep`` over all 71 grid points, then
    ``write_csv`` and ``write_plot_script`` into the run's temporary directory.
    Every row's residual is gated, and the CSV must match the digest recorded
    at the seed commit byte for byte.
    """

    name = "fig2-sweep"
    sample_inside = ("cli", "rate_report")  # 142 calls a sweep
    smoke_sweep = scenario.SweepRange(min_db=-10.0, max_db=60.0, step_db=35.0)

    def __init__(self, workdir: Path, references: dict):
        self.workdir = workdir
        self.references = references

    def inputs(self, seed, smoke):
        spec = scenario.load_scenario(scenario.bundled_scenario_path("fig2.scenario"))
        if smoke:
            spec = replace(
                spec,
                jammer=scenario.JammerSpec(sweep=self.smoke_sweep),
                mc=replace(spec.mc, samples=20_000),
            )
        cfg = scenario.to_system_config(spec)
        self.expected = self.references.get("fig2-sweep-smoke" if smoke else "fig2-sweep")
        return [(spec, cfg.n_users)]

    def call(self, inp):
        spec, n_users = inp
        rows = cli.run_sweep(spec)
        csv_path = self.workdir / f"{spec.output}.csv"
        cli.write_csv(rows, n_users, csv_path)
        cli.write_plot_script(spec.output, n_users, self.workdir / f"{spec.output}.plot")
        return rows, csv_path

    def check(self, inp, out):
        rows, csv_path = out
        for row in rows:
            if not row.kkt_residual <= CERT_TOL:
                return f"kkt_residual {row.kkt_residual:.3e} above {CERT_TOL:g} at P_w = {row.pw_db} dB"
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        if digest != self.expected:
            return f"CSV sha256 {digest} differs from the recorded {self.expected}"
        return None


class SolveWide(Workload):
    """``solve`` alone across the full dynamic range, K up to 32."""

    name = "solve-wide"
    ks = (1, 2, 4, 8, 16, 32)
    # 480 inputs a seed.  A solve's cost is close to all or nothing (its inner
    # fixed point converges at once or runs to its cap), so the cost of a
    # pass varies between seeds like a binomial count.  Over seeds 1-10 the
    # inner-iteration total spreads (IQR over median) 0.15 with 150 inputs,
    # 0.071 with 480 and 0.054 with 600; 600 take too long for a run.
    per_k = 80
    # Known defect at the seed commit: in most seeds a few of the 480 solves
    # return a certificate between 1e-10 and ~2.5e-6, and rarely one raises
    # SolverError.  Those count in ``failed``.  The run is incorrect beyond
    # that defect: more than a tenth of the inputs failed, or a certificate
    # above ``gross_cert``.
    max_failed_frac = 0.1
    gross_cert = 1e-4

    def __init__(self):
        self.gross = False

    def inputs(self, seed, smoke):
        rng = np.random.default_rng([seed, 1])
        out = []
        for k in self.ks:
            for budget in _stratified_budgets(rng, (-40.0, 100.0), 1 if smoke else self.per_k):
                out.append((_config(rng, k, (-30.0, 80.0)), budget))
        return out

    def call(self, inp):
        cfg, budget = inp
        return optimizer.solve(cfg, budget)

    def check(self, inp, out):
        cfg, budget = inp
        residual, _ = optimizer.evaluate_kkt(out.alloc.zeta_t, out.alloc.zeta_d, out.nu_star, cfg, budget)
        self.gross |= not residual <= self.gross_cert
        if not residual <= CERT_TOL:
            return f"KKT certificate {residual:.3e} above {CERT_TOL:g} (K={cfg.n_users}, method {out.method})"
        return None

    def incorrect(self, failed, attempted):
        return failed > self.max_failed_frac * attempted or self.gross


class McBatch(Workload):
    """``rate_report`` alone on given allocations, a distinct MC seed per report."""

    name = "mc-batch"
    # K = 8 twice per cycle, so the median report is a K = 8 report rather than
    # the boundary between two report sizes.
    ks = (2, 4, 8, 16, 8)
    count = 120
    samples = 200_000
    workers = 2
    reference_seed = 0
    reference_count = 8

    def __init__(self, references: dict):
        self.references = references

    def inputs(self, seed, smoke, count=None, samples=None):
        rng = np.random.default_rng([seed, 2])
        count = count or (8 if smoke else self.count)
        samples = samples or (20_000 if smoke else self.samples)
        first_seed = int(rng.integers(0, 2**31))
        out = []
        for i in range(count):
            k = self.ks[i % len(self.ks)]
            cfg, budget = _config(rng, k, (-30.0, 80.0)), _budget(rng, (-40.0, 100.0))
            v = rng.dirichlet(np.ones(k + 1))
            alloc = model.JammerAllocation(tuple(float(z) for z in v[:-1]), float(v[-1]))
            out.append((alloc, cfg, budget, rates.MonteCarloSettings(samples=samples, seed=first_seed + i)))
        return out

    def call(self, inp):
        return rates.rate_report(*inp, workers=self.workers)

    def check(self, inp, out):
        if not out.r_lb <= out.r_ub:
            return f"r_lb {out.r_lb} above r_ub {out.r_ub}"
        return None

    def reference(self):
        """r_mc of fixed inputs (seed 0, full sample count) against the recorded digest."""
        inputs = self.inputs(self.reference_seed, False, self.reference_count, self.samples)
        digest = _digest(float.hex(self.call(inp).r_mc) for inp in inputs)
        expected = self.references.get("mc-batch")
        if digest != expected:
            return [f"reference r_mc sha256 {digest} differs from the recorded {expected}"]
        return []


class OracleCheck(Workload):
    """``solve_kkt`` then ``solve_oracle`` on criterion-01-style configs, as ``macjam oracle-check``."""

    name = "oracle-check"
    # K = 2 twice: its 501,501-point grid is where the oracle's time goes, and
    # K = 3 (over the 2e6-point cap) exercises the Dirichlet search instead.
    ks = (2, 1, 2, 3)
    grid = 1e-3

    def inputs(self, seed, smoke):
        rng = np.random.default_rng([seed, 3])
        ks, grid = ((1, 2, 3), 1e-2) if smoke else (self.ks, self.grid)
        return [(_config(rng, k, (-10.0, 20.0)), _budget(rng, (-10.0, 40.0)), grid) for k in ks]

    def call(self, inp):
        cfg, budget, grid = inp
        kkt = optimizer.solve_kkt(cfg, budget)
        oracle = optimizer.solve_oracle(cfg, budget, grid_resolution=grid)
        return kkt, oracle

    def check(self, inp, out):
        kkt, oracle = out
        gap = abs(oracle.rho_star - kkt.rho_star)
        if not gap <= ORACLE_TOL:
            return f"|rho_oracle - rho_kkt| = {gap:.3e} above {ORACLE_TOL:g}"
        return None


def make(name: str, workdir: Path, references: dict):
    workloads = {
        "fig2-sweep": lambda: Fig2Sweep(workdir, references),
        "solve-wide": SolveWide,
        "mc-batch": lambda: McBatch(references),
        "oracle-check": OracleCheck,
    }
    return workloads[name]()
