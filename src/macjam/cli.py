"""Command-line front end: single-point solves, rate reports, and dB sweeps.

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import yaml

from .model import JammerAllocation, JammerBudget, SystemConfig, _require_count, uniform_allocation
from .optimizer import SolveResult, SolverError, _energy, activation_powers, solve, solve_kkt, solve_oracle
from .rates import MonteCarloSettings, RateReport, draw_samples, rate_report
from .scenario import (
    ScenarioError,
    ScenarioSpec,
    _as_float,
    _check_keys,
    _load_yaml,
    db_to_linear,
    linear_to_db,
    load_scenario,
    sweep_db_values,
    to_system_config,
)

__all__ = ["main", "SweepRow", "run_sweep", "write_csv", "write_plot_script", "csv_columns"]

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class SweepRow:
    """One jamming-power grid point: optimal allocation plus both rate reports.

    The field order is the sweep CSV's column order (see :func:`csv_columns`)."""

    pw_db: float
    zeta_t: tuple[float, ...]
    zeta_d: float
    rho_star: float
    opt: RateReport
    unif: RateReport
    rate_reduction_pct: float
    method: str
    kkt_residual: float


def csv_columns(n_users: int) -> list[str]:
    """The sweep CSV header: the fields of :class:`SweepRow` in order, ``zeta_t`` as one
    column per user and each report as one column per :class:`RateReport` field, suffixed
    with the report's name (``r_mc_opt``)."""
    hints = get_type_hints(SweepRow)
    cols = []
    for f in fields(SweepRow):
        if f.name == "zeta_t":
            cols += [f"zeta_t_{k + 1}" for k in range(n_users)]
        elif hints[f.name] is RateReport:
            cols += [f"{r.name}_{f.name}" for r in fields(RateReport)]
        else:
            cols.append(f.name)
    return cols


def _fmt(x: float) -> str:
    return format(x, ".17g")


# The largest sample bank (samples x K x 8 bytes) a sweep holds.  Above it each
# report draws its own samples block by block, so memory stays bounded at any K.
SWEEP_BANK_MAX_BYTES = 64 * 2**20


def run_sweep(spec: ScenarioSpec, workers: int = 1) -> list[SweepRow]:
    _require_count("workers", workers)
    # Every grid point is converted and its energy checked before the first solve, so one
    # out of range fails at once.
    points = [(pw_db, JammerBudget(db_to_linear(pw_db))) for pw_db in sweep_db_values(spec)]
    cfg = to_system_config(spec)
    for _, budget in points:
        _energy(cfg, budget)
    unif_alloc = uniform_allocation(cfg)
    # Every report of a sweep shares one seed: draw its samples once if they fit.
    bank = None
    if spec.mc.samples * cfg.n_users * 8 <= SWEEP_BANK_MAX_BYTES:
        bank = draw_samples(spec.mc, cfg.n_users)
    rows = []
    for pw_db, budget in points:
        try:
            result = solve(cfg, budget)
        except SolverError as exc:
            raise SolverError(f"sweep failed at P_w = {pw_db} dB: {exc}", exc.residual) from exc
        opt = rate_report(result.alloc, cfg, budget, spec.mc, workers=workers, bank=bank)
        unif = rate_report(unif_alloc, cfg, budget, spec.mc, workers=workers, bank=bank)
        reduction = 100.0 * (1.0 - opt.r_mc / unif.r_mc) if unif.r_mc > 0.0 else 0.0
        rows.append(
            SweepRow(
                pw_db=pw_db,
                zeta_t=result.alloc.zeta_t,
                zeta_d=result.alloc.zeta_d,
                rho_star=result.rho_star,
                opt=opt,
                unif=unif,
                rate_reduction_pct=reduction,
                method=result.method,
                kkt_residual=result.kkt_residual,
            )
        )
    return rows


def _cells(row: SweepRow) -> list[str]:
    """The CSV cells of ``row``, in the order of :func:`csv_columns`."""
    cells = []
    for f in fields(row):
        value = getattr(row, f.name)
        if isinstance(value, RateReport):
            cells += [_fmt(getattr(value, r.name)) for r in fields(RateReport)]
        elif isinstance(value, tuple):
            cells += [_fmt(v) for v in value]
        else:
            cells.append(value if isinstance(value, str) else _fmt(value))
    return cells


def write_csv(rows: list[SweepRow], n_users: int, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_columns(n_users))
        for r in rows:
            writer.writerow(_cells(r))


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
# Renders rate and allocation curves from @STEM@.csv (same directory).
# Regenerate the data with: macjam sweep <scenario>
import csv

import matplotlib.pyplot as plt

with open("@STEM@.csv") as fh:
    rows = list(csv.DictReader(fh))

pw = [float(r["pw_db"]) for r in rows]
n_users = @NUSERS@

fig, ax = plt.subplots(figsize=(7, 5))
for col, style, label in [
    ("r_ub_unif", "b--", "upper bound, uniform"),
    ("r_mc_unif", "b-", "achievable, uniform"),
    ("r_lb_unif", "b:", "lower bound, uniform"),
    ("r_ub_opt", "r--", "upper bound, optimal"),
    ("r_mc_opt", "r-", "achievable, optimal"),
    ("r_lb_opt", "r:", "lower bound, optimal"),
]:
    ax.plot(pw, [float(r[col]) for r in rows], style, label=label)
ax.set_xlabel("average jamming power P_w (dB)")
ax.set_ylabel("ergodic sum-rate (bits/symbol)")
ax.legend()
ax.grid(True)
fig.tight_layout()
fig.savefig("@STEM@_rates.png", dpi=150)

fig, ax = plt.subplots(figsize=(7, 5))
for k in range(n_users):
    ax.plot(pw, [float(r[f"zeta_t_{k + 1}"]) for r in rows], label=f"zeta_t user {k + 1}")
ax.plot(pw, [float(r["zeta_d"]) for r in rows], "k--", label="zeta_d")
ax.set_xlabel("average jamming power P_w (dB)")
ax.set_ylabel("optimal energy ratio")
ax.legend()
ax.grid(True)
fig.tight_layout()
fig.savefig("@STEM@_alloc.png", dpi=150)
print("wrote @STEM@_rates.png and @STEM@_alloc.png")
'''


def write_plot_script(stem: str, n_users: int, path: Path) -> None:
    text = _PLOT_TEMPLATE.replace("@STEM@", stem).replace("@NUSERS@", str(n_users))
    path.write_text(text)


def _print_activation(cfg: SystemConfig) -> None:
    """The P_w above which each energy ratio is positive, in switch-on order."""
    powers = activation_powers(cfg)
    for idx in sorted(range(len(powers)), key=powers.__getitem__):
        name = f"zeta_t[{idx + 1}]" if idx < cfg.n_users else "zeta_d"
        if powers[idx] == math.inf:
            print(f"activation: {name} never positive")
        else:
            pw_db = linear_to_db(powers[idx]) if powers[idx] > 0.0 else -math.inf
            print(f"activation: {name} positive above {pw_db:.10f} dB")


def _print_result(result: SolveResult) -> None:
    names = [f"zeta_t[{k + 1}]" for k in range(result.alloc.n_users)] + ["zeta_d"]
    print(f"method: {result.method}")
    print(f"iterations: {result.iterations}")
    print(f"kkt_residual: {result.kkt_residual:.3e}")
    print(f"nu_star: {result.nu_star:.12g}")
    print(f"rho_star: {result.rho_star:.12g}")
    for name, value in zip(names, result.alloc.as_vector()):
        print(f"{name} = {value:.12g}")
    pinned = [names[i] for i in result.active_set]
    print("pinned at zero: " + (", ".join(pinned) if pinned else "none"))


def _load_point(args) -> tuple[ScenarioSpec, SystemConfig, float, JammerBudget]:
    """Scenario, config and P_w (dB, linear) of a one-point command: ``--pw-db`` or ``power_db``."""
    spec = load_scenario(args.scenario)
    cfg = to_system_config(spec)
    pw_db = args.pw_db if args.pw_db is not None else spec.jammer.power_db
    if pw_db is None:
        raise ScenarioError("scenario defines a sweep; pass --pw-db to pick a single point")
    return spec, cfg, pw_db, JammerBudget(db_to_linear(pw_db))


@dataclass(frozen=True)
class _ResultFile:
    """The YAML file of ``optimize --out``, its keys in order.  ``rates --alloc file:``
    reads it back: ``zeta_t`` and ``zeta_d`` are required, the rest are optional."""

    pw_db: float
    zeta_t: list[float]
    zeta_d: float
    rho_star: float
    method: str
    kkt_residual: float


def _cmd_optimize(args) -> int:
    _, cfg, pw_db, budget = _load_point(args)
    print(f"P_w = {pw_db:g} dB")
    _print_activation(cfg)
    result = solve(cfg, budget)
    _print_result(result)
    if args.out:
        doc = _ResultFile(
            pw_db=pw_db,
            zeta_t=list(result.alloc.zeta_t),
            zeta_d=result.alloc.zeta_d,
            rho_star=result.rho_star,
            method=result.method,
            kkt_residual=result.kkt_residual,
        )
        Path(args.out).write_text(yaml.safe_dump(asdict(doc), sort_keys=False))
    return EXIT_OK


def _load_alloc_file(path: str, cfg: SystemConfig) -> JammerAllocation:
    raw = _load_yaml(Path(path).read_text(), path)
    _check_keys(_ResultFile, raw, f"allocation file {path}", required=("zeta_t", "zeta_d"))
    if not isinstance(raw["zeta_t"], list):
        raise ScenarioError(f"{path}: zeta_t must be a list of numbers, got {raw['zeta_t']!r}")
    alloc = JammerAllocation(
        tuple(_as_float(z, f"{path}: zeta_t entry") for z in raw["zeta_t"]),
        _as_float(raw["zeta_d"], f"{path}: zeta_d"),
    )
    if alloc.n_users != cfg.n_users:
        raise ScenarioError(
            f"{path}: allocation has {alloc.n_users} training ratios, config has {cfg.n_users}"
        )
    return alloc


def _cmd_rates(args) -> int:
    spec, cfg, pw_db, budget = _load_point(args)
    if args.alloc == "uniform":
        alloc = uniform_allocation(cfg)
    elif args.alloc == "optimal":
        alloc = solve(cfg, budget).alloc
    elif args.alloc.startswith("file:"):
        alloc = _load_alloc_file(args.alloc[len("file:"):], cfg)
    else:
        raise ScenarioError(f"unknown allocation choice {args.alloc!r}")
    report = rate_report(alloc, cfg, budget, spec.mc, workers=args.workers)
    print(f"P_w = {pw_db:g} dB, allocation = {args.alloc}")
    print(f"R_LB = {report.r_lb:.12g} bits/symbol")
    print(f"R_MC = {report.r_mc:.12g} +/- {report.r_mc_halfwidth:.3g} bits/symbol")
    print(f"R_UB = {report.r_ub:.12g} bits/symbol")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = load_scenario(args.scenario)
    rows = run_sweep(spec, workers=args.workers)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"{spec.output}.csv"
    plot_path = outdir / f"{spec.output}.plot"
    write_csv(rows, len(spec.users), csv_path)
    write_plot_script(spec.output, len(spec.users), plot_path)
    print(f"wrote {csv_path} ({len(rows)} rows) and {plot_path}")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    _, cfg, pw_db, budget = _load_point(args)
    kkt = solve_kkt(cfg, budget)
    oracle = solve_oracle(cfg, budget, grid_resolution=args.grid)
    gap = oracle.rho_star - kkt.rho_star
    dist = max(abs(a - b) for a, b in zip(kkt.alloc.as_vector(), oracle.alloc.as_vector()))
    print(f"P_w = {pw_db:g} dB")
    print(f"kkt    rho* = {kkt.rho_star:.12g} (residual {kkt.kkt_residual:.3e})")
    print(f"oracle rho* = {oracle.rho_star:.12g} (grid {args.grid:g})")
    print(f"rho discrepancy (oracle - kkt) = {gap:.3e}")
    print(f"allocation max |difference| = {dist:.3e}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macjam",
        description="Optimal jamming energy allocation for training-based MAC systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="solve one jamming-power point")
    p_opt.add_argument("scenario")
    p_opt.add_argument("--pw-db", type=float, default=None)
    p_opt.add_argument("--out", default=None, help="also write the result as YAML")
    p_opt.set_defaults(handler=_cmd_optimize)

    p_rates = sub.add_parser("rates", help="rate report for a chosen allocation")
    p_rates.add_argument("scenario")
    p_rates.add_argument("--alloc", required=True, help="uniform | optimal | file:PATH")
    p_rates.add_argument("--pw-db", type=float, default=None)
    p_rates.add_argument("--workers", type=int, default=1)
    p_rates.set_defaults(handler=_cmd_rates)

    p_sweep = sub.add_parser("sweep", help="sweep the jamming power and emit CSV + plot script")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--outdir", default=".")
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads that draw and reduce each rate report's samples when it draws its own; "
        "a sweep draws them once, on one thread, into one array if they take at most "
        f"{SWEEP_BANK_MAX_BYTES // 2**20} MiB (samples x K x 8 bytes) and prices each report "
        "from it in spans of at most 32 blocks, else each report draws them again",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_oracle = sub.add_parser("oracle-check", help="compare the KKT solver with the brute-force oracle")
    p_oracle.add_argument("scenario")
    p_oracle.add_argument("--grid", type=float, default=1e-3)
    p_oracle.add_argument("--pw-db", type=float, default=None)
    p_oracle.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
