"""Solvers for the jammer's energy-allocation problem.

The jammer minimizes the objective scalar rho over the simplex of energy
ratios (one per user's training window, one for the data phase).  On any
fixed set of free (nonzero) ratios the stationarity equations collapse to one
scalar: every free training ratio is set by a single proportionality
constant, which solves a linear equation when the data ratio is pinned at
zero and a quadratic when it is free.  A training ratio is free iff that
constant exceeds the user's budget-independent threshold, so the free
training set is a prefix of the users sorted by threshold.  The primary
solver screens these 2K+1 candidate free sets in one vectorized pass, with
the primal and dual sign checks relaxed by a small slack; only the survivors
(usually one) are solved again exactly and sign-checked exactly, and the best
certified one is returned (sorted-threshold water-filling), which is what
lets the returned points carry machine-precision KKT certificates.  So a
solve costs a fixed number of NumPy calls plus one exact solve per survivor,
whatever K.

Independent cross-checks: a closed-form interior solution valid at high
jamming power, the infinite-power limit, a brute-force simplex-grid oracle,
and a multi-start projected gradient descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .model import (
    JammerAllocation,
    JammerBudget,
    SystemConfig,
    UserParams,
    _golden_section,
    objective_rho,
    rho_value,
    uniform_allocation,
)

__all__ = [
    "SolveResult",
    "SolverError",
    "OrderingVerdict",
    "rho_gradient",
    "evaluate_kkt",
    "solve_kkt",
    "solve_closed_form",
    "solve_asymptotic",
    "solve",
    "solve_oracle",
    "solve_projected_descent",
    "check_corollary_orderings",
]

# Coordinates at or below ACTIVE_TOL are treated as pinned at zero.  Every
# allocation solve returns carries a KKT residual (its certificate) <= CERT_TOL.
ACTIVE_TOL = 1e-9
CERT_TOL = 1e-10

# The largest jamming energy P_w T the solvers accept; the gradient squares
# terms of its size, which overflow a float from about 1e154.
MAX_ENERGY = 1e120

# Relative slack of the sign checks in the screen (_screen_active_sets).  The
# screen rounds differently from the exact solve, so a candidate the exact
# checks accept may read slightly negative there; the slack lets it through,
# and the exact checks alone decide.  A larger slack only sends more
# candidates to the exact solve.  Over the 14,400 solve-wide benchmark inputs
# of seeds 1-30 the two differ by at most 1.2e-8 of the slack's scale, and
# with this slack 97.7% of the solves send one candidate to the exact solve.
SCREEN_SLACK = 1e-4

# Fixed settings of the two reference solvers (oracle, projected descent).
ORACLE_MAX_GRID_POINTS = 2_000_000  # larger grids switch to Dirichlet sampling
ORACLE_SEARCH_SAMPLES = 50_000
ORACLE_SEED = 12345
ORACLE_MAX_SWEEPS = 200
ORACLE_REL_TOL = 1e-13  # pair descent stops when a sweep gains less, relative to rho
DESCENT_TOL = 1e-9
DESCENT_MAX_ITER = 5000
DESCENT_SEED = 777

# The one UserParams field in which a user pair differs, per corollary.
_COROLLARY_FIELD = {1: "data_power", 2: "train_power", 3: "train_len"}

METHOD_KKT = "kkt_active_set"
METHOD_CLOSED_FORM = "closed_form"
METHOD_ASYMPTOTIC = "asymptotic"
METHOD_ORACLE = "oracle"
METHOD_DESCENT = "projected_descent"


class SolverError(RuntimeError):
    """Solver did not reach the requested residual; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SolveResult:
    """Optimal allocation with first-order optimality diagnostics.

    ``lambdas`` holds the nonnegativity multipliers, training coordinates
    first and the data coordinate last; ``active_set`` lists the coordinate
    indices pinned at zero in the same indexing (index K is the data phase).
    """

    alloc: JammerAllocation
    rho_star: float
    nu_star: float
    lambdas: tuple[float, ...]
    active_set: tuple[int, ...]
    method: str
    kkt_residual: float
    iterations: int


@dataclass(frozen=True)
class OrderingVerdict:
    """Outcome of one pairwise allocation-ordering check."""

    corollary: int
    user_hi: int
    user_lo: int
    zeta_hi: float
    zeta_lo: float
    passed: bool


class _Sys(NamedTuple):
    pt: np.ndarray
    pd: np.ndarray
    tt: np.ndarray
    T: float
    Td: float
    energy: float  # P_w * T
    S: float       # sum of data powers
    w: np.ndarray  # tt * sqrt(pd pt): free training denominators are proportional to it
    x: np.ndarray  # tt * (1 + pt tt): training denominator with no jamming


def _energy(cfg: SystemConfig, budget: JammerBudget) -> float:
    """The jamming energy ``P_w T``; above ``MAX_ENERGY`` it is a ``ValueError``."""
    energy = budget.avg_power * cfg.block_len
    if energy > MAX_ENERGY:
        raise ValueError(f"jamming energy P_w T = {energy!r} exceeds the limit {MAX_ENERGY!r}")
    return energy


def _sys(cfg: SystemConfig, budget: JammerBudget) -> _Sys:
    pt, pd, tt = cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec()
    return _Sys(
        pt=pt,
        pd=pd,
        tt=tt,
        T=float(cfg.block_len),
        Td=float(cfg.data_len),
        energy=_energy(cfg, budget),
        S=float(pd.sum()),
        w=tt * np.sqrt(pd * pt),
        x=tt * (1.0 + pt * tt),
    )


def _flat(sys: _Sys) -> bool:
    """A zero budget, or no user with data power: every allocation is then optimal."""
    return sys.energy == 0.0 or sys.S == 0.0


def _grad(sys: _Sys, zt: np.ndarray, zd: float) -> tuple[np.ndarray, float]:
    q = 1.0 + zt * sys.energy / sys.tt
    s = sys.pt * sys.tt / q
    alpha = sys.pd * s / (1.0 + s)
    beta = sys.pd / (1.0 + s)
    gamma = 1.0 / (1.0 + zd * sys.energy / sys.Td)
    e_fac = 1.0 + gamma * beta.sum()
    d_t = sys.energy * zt + sys.x
    g_t = -sys.energy * gamma * sys.pd * sys.pt * sys.tt**2 * (1.0 + gamma * sys.S) / (
        d_t**2 * e_fac**2
    )
    g_d = -sys.energy * sys.Td * alpha.sum() / ((sys.energy * zd + sys.Td) ** 2 * e_fac**2)
    return g_t, float(g_d)


def _grad_z(sys: _Sys, z: np.ndarray) -> np.ndarray:
    """The gradient at the point ``z`` (data ratio last), as one vector."""
    g_t, g_d = _grad(sys, z[:-1], float(z[-1]))
    return np.append(g_t, g_d)


def _rho_z(z: np.ndarray, cfg: SystemConfig, budget: JammerBudget):
    """The objective at the points ``z`` (data ratio last), over leading axes."""
    return rho_value(z[..., :-1], z[..., -1], cfg, budget)


def rho_gradient(zeta_t, zeta_d, cfg: SystemConfig, budget: JammerBudget):
    """Analytic gradient of the objective in the raw ratio coordinates."""
    sys = _sys(cfg, budget)
    return _grad(sys, np.asarray(zeta_t, dtype=float), float(zeta_d))


def evaluate_kkt(zeta_t, zeta_d, nu: float, cfg: SystemConfig, budget: JammerBudget):
    """First-order optimality residual at a point, for a given equality multiplier.

    Eliminates the nonnegativity multipliers as slacks, ``lambda = grad + nu``,
    and returns ``(residual, lambdas)`` where the residual is the largest
    violation among budget feasibility, ratio nonnegativity, multiplier
    nonnegativity and complementary slackness.
    """
    z = np.append(np.asarray(zeta_t, dtype=float), float(zeta_d))
    lam = _grad_z(_sys(cfg, budget), z) + nu
    return _residual(z, lam), lam


def _residual(z: np.ndarray, lam: np.ndarray) -> float:
    """Largest KKT violation at the point ``z`` (data ratio last) with multipliers ``lam``."""
    return max(
        abs(float(z.sum()) - 1.0),
        max(0.0, -float(z.min())),
        max(0.0, -float(lam.min())),
        float(np.abs(lam * z).max()),
    )


def _refine_active_set(sys: _Sys, free: np.ndarray):
    """Exact solve of the stationarity + budget system on a fixed free set.

    On the free set (mask ``free``, data last) the stationarity equations
    collapse to one scalar: every free training denominator is proportional
    to ``tt_k * sqrt(pd_k pt_k)``.  With the data ratio free the constant
    solves a quadratic, otherwise it is linear in the budget.  Returns the
    point ``z`` or None when the free set admits no solution.
    """
    w, x_thr = sys.w, sys.x
    free_t = free[:-1]
    w_free = float(w[free_t].sum())
    x_free = float(x_thr[free_t].sum())
    z = np.zeros(free.size)
    zt = z[:-1]
    if not free[-1]:
        if w_free <= 0.0:
            return None
        # Expanded form of (cp * w_k - x_k) / energy with cp = (energy + XA)/WA;
        # the direct form cancels catastrophically when energy << XA.
        zt[free_t] = w[free_t] / w_free + (w[free_t] * x_free - x_thr[free_t] * w_free) / (
            w_free * sys.energy
        )
    else:
        # a2 = sum of the pinned users' alpha at zero jamming, summed directly:
        # S - sum_free pd - sum_pinned beta cancels when a pinned pd is tiny.
        pt_tt = sys.pt * sys.tt
        a2 = float((sys.pd * pt_tt / (1.0 + pt_tt))[~free_t].sum())
        rhs = sys.energy + sys.Td * (1.0 + sys.S) + x_free
        # Positive root of a2 cp^2 + 2 w_free cp - rhs = 0, without the
        # cancellation of (-w_free + sqrt(...)) / a2 when a2 is small.
        den = w_free + math.sqrt(w_free * w_free + a2 * rhs)
        if den <= 0.0:
            return None
        cp = rhs / den
        d_d = sys.energy + sys.Td + x_free - cp * w_free
        z[-1] = (d_d - sys.Td) / sys.energy
        zt[free_t] = (cp * w[free_t] - x_thr[free_t]) / sys.energy
    return z


def _validate_candidate(sys: _Sys, z: np.ndarray, free: np.ndarray):
    """Exact sign checks for a restricted solve; returns ``(nu, lambdas)`` or None."""
    if (z[free] <= 0.0).any():
        return None
    g_all = _grad_z(sys, z)
    nu = float(-(g_all[free]).mean())
    lam = g_all + nu
    if float(lam[~free].min(initial=math.inf)) < -1e-9 * (1.0 + abs(nu)):
        return None
    return nu, lam


def _screen_active_sets(sys: _Sys, order: np.ndarray):
    """Every candidate free set at once, with relaxed sign checks.

    Row ``2m - 1`` frees the first ``m`` users of ``order`` with the data
    ratio pinned, row ``2m`` the same users with the data ratio free: the
    order in which :func:`_enumerate_active_sets` confirms them.  Each row
    repeats :func:`_refine_active_set` and :func:`_validate_candidate` on
    (2K+1) x (K+1) arrays, but with the users in ``order``, the free-set
    sums taken as running sums and the training ratios in the direct form
    ``(cp w_k - x_k) / energy``.  So the sign checks allow ``SCREEN_SLACK``
    times the size of the terms each checked value is a difference of.
    Returns ``(solvable, passed)``, two row masks: the rows whose free set
    has a solution, and those among them that pass.
    """
    pt, pd, tt, w, x = (v[order] for v in (sys.pt, sys.pd, sys.tt, sys.w, sys.x))
    k = w.size
    energy, td = sys.energy, sys.Td
    rows = np.arange(2 * k + 1)
    m = (rows + 1) // 2
    free_d = rows % 2 == 0
    free = np.concatenate([np.arange(k) < m[:, None], free_d[:, None]], axis=1)
    w_free = np.concatenate(((0.0,), w.cumsum()))[m]
    x_free = np.concatenate(((0.0,), x.cumsum()))[m]
    # The pinned users' alpha at zero jamming, summed from the last user.
    pt_tt = pt * tt
    a2 = np.concatenate(((pd * pt_tt / (1.0 + pt_tt))[::-1].cumsum()[::-1], (0.0,)))[m]
    # The proportionality constant cp = num / den: the positive root of the
    # quadratic with the data ratio free, (energy + x_free) / w_free without.
    rhs = energy + td * (1.0 + sys.S) + x_free
    den = np.where(free_d, w_free + np.sqrt(w_free * w_free + a2 * rhs), w_free)
    solvable = den > 0.0
    cp = np.where(free_d, rhs, energy + x_free) / np.where(solvable, den, 1.0)
    # Energy times each ratio, and the size of the terms it is a difference of.
    cp_w = cp[:, None] * w
    cp_wf = cp * w_free
    u = np.concatenate([cp_w - x, (energy + x_free - cp_wf)[:, None]], axis=1)
    size = np.concatenate([cp_w + x, (energy + 2.0 * td + x_free + cp_wf)[:, None]], axis=1)
    primal = (~free | (u > -SCREEN_SLACK * size)).all(axis=1)
    # _grad row by row, with the pinned ratios at zero and the free ones
    # clipped to the simplex.
    u = np.where(free, np.maximum(u, 0.0), 0.0)
    u_t, u_d = u[:, :k], u[:, k:]
    s = pt_tt * tt / (tt + u_t)
    gamma = td / (td + u_d)
    inv = 1.0 / (1.0 + s)
    e_sq = (1.0 + gamma * (pd * inv).sum(axis=1, keepdims=True)) ** 2
    g_t = (-energy * gamma * (1.0 + gamma * sys.S) / e_sq) * (pd * pt * tt**2) / (u_t + x) ** 2
    g_d = -energy * td * (pd * s * inv).sum(axis=1, keepdims=True) / ((u_d + td) ** 2 * e_sq)
    g = np.concatenate([g_t, g_d], axis=1)
    # Row r has r // 2 + 1 free coordinates.
    nu = -np.where(free, g, 0.0).sum(axis=1, keepdims=True) / (rows // 2 + 1)[:, None]
    bound = -1e-9 - (1e-9 + SCREEN_SLACK) * np.abs(nu) - SCREEN_SLACK * np.abs(g)
    dual = (free | (g + nu >= bound)).all(axis=1)
    return solvable, solvable & primal & dual


def _enumerate_active_sets(sys: _Sys):
    """Exact solve over every structurally possible free set.

    Free training ratios share one proportionality constant, so a ratio is
    positive iff that constant exceeds ``(1 + pt tt) / sqrt(pd pt)``; the free
    set is therefore a prefix of the users sorted by that threshold, leaving
    2K+1 candidates (the empty set is excluded).  :func:`_screen_active_sets`
    sign-checks all of them in one pass with a slack; only the candidates it
    passes are solved exactly and sign-checked again, in order of the number
    of free users, data pinned first.  Returns ``(best, tried)``: the
    sign-valid candidate ``(zt, zd, nu)`` with the smallest raw residual, or
    None, and the number of candidates that had a solution to sign-check.
    """
    w = sys.w
    ratio = np.where(w > 0.0, sys.x / np.where(w > 0.0, w, 1.0), math.inf)
    order = np.argsort(ratio, kind="stable")
    solvable, passed = _screen_active_sets(sys, order)
    best = None
    for row in np.flatnonzero(passed):
        free = np.zeros(w.size + 1, dtype=bool)
        free[order[: (row + 1) // 2]] = True
        free[-1] = row % 2 == 0
        z = _refine_active_set(sys, free)
        if z is None:
            continue
        checked = _validate_candidate(sys, z, free)
        if checked is None:
            continue
        nu, lam = checked
        residual = _residual(z, lam)
        if best is None or residual < best[0]:
            best = (residual, z, nu)
    return (None if best is None else best[1:]), int(solvable.sum())


def _flat_result(cfg: SystemConfig, budget: JammerBudget, method: str) -> SolveResult:
    """The duration-proportional split, certified with ``nu`` and residual 0, on a flat objective."""
    alloc = uniform_allocation(cfg)
    return SolveResult(
        alloc=alloc,
        rho_star=objective_rho(alloc, cfg, budget),
        nu_star=0.0,
        lambdas=(0.0,) * (cfg.n_users + 1),
        active_set=(),
        method=method,
        kkt_residual=0.0,
        iterations=0,
    )


def _build_result(
    cfg: SystemConfig,
    budget: JammerBudget,
    sys: _Sys,
    z: np.ndarray,
    method: str,
    iterations: int,
    nu: float | None = None,
) -> SolveResult:
    try:
        alloc = JammerAllocation(tuple(z[:-1].tolist()), float(z[-1]))
    except ValueError as exc:
        raise SolverError(f"solver produced an infeasible allocation: {exc}", math.inf)
    z = alloc.as_vector()
    g_all = _grad_z(sys, z)
    if nu is None:
        free = z > ACTIVE_TOL
        nu = max(0.0, float(-(g_all[free]).mean())) if free.any() else 0.0
    lam = g_all + nu
    residual = _residual(z, lam)
    return SolveResult(
        alloc=alloc,
        rho_star=objective_rho(alloc, cfg, budget),
        nu_star=float(nu),
        lambdas=tuple(max(0.0, v) for v in lam.tolist()),
        active_set=tuple(np.flatnonzero(z <= ACTIVE_TOL).tolist()),
        method=method,
        kkt_residual=float(residual),
        iterations=int(iterations),
    )


def solve_kkt(cfg: SystemConfig, budget: JammerBudget) -> SolveResult:
    """Primary solver: exact solves on the 2K+1 candidate free sets.

    One vectorized pass solves every candidate and applies the primal and
    dual sign checks with a slack (``SCREEN_SLACK``) that only admits extra
    candidates.  Those it passes are solved again exactly, one at a time, and
    every one that passes the exact sign checks is a KKT point; the one with
    the smallest residual is returned, with ``iterations`` counting the
    candidates that had a solution to sign-check; a flat objective returns
    :func:`_flat_result`.  Raises :class:`SolverError` when no candidate
    passes or the returned allocation does not certify to ``CERT_TOL``.
    """
    sys = _sys(cfg, budget)
    if _flat(sys):
        return _flat_result(cfg, budget, METHOD_KKT)
    best, tried = _enumerate_active_sets(sys)
    if best is None:
        raise SolverError("no candidate free set passed the sign checks", math.inf)
    z, nu = best
    result = _build_result(cfg, budget, sys, z, METHOD_KKT, tried, nu=nu)
    if result.kkt_residual > CERT_TOL:
        raise SolverError("no candidate free set certifies the optimum", result.kkt_residual)
    return result


def solve_closed_form(cfg: SystemConfig, budget: JammerBudget) -> SolveResult | None:
    """Interior closed form, valid when every computed ratio is strictly positive.

    With ``delta = sum(pt_i tt_i^2)`` and ``eta = sum(tt_i sqrt(pd_i pt_i))``:

        zeta_t_k = (w_k (PwT + T + delta + Td S) - 2 eta tt_k (1 + pt_k tt_k))
                   / (2 PwT eta),      w_k = tt_k sqrt(pd_k pt_k)
        zeta_d   = 1/2 + (Tt + delta - Td (1 + S)) / (2 PwT)

    Returns None on a flat objective and when any component is nonpositive
    ("not interior"); callers should then fall back to :func:`solve_kkt`.
    """
    sys = _sys(cfg, budget)
    w = sys.w
    eta = float(w.sum())
    if _flat(sys) or eta <= 0.0:
        return None
    delta = float((sys.pt * sys.tt**2).sum())
    t_t = float(sys.tt.sum())
    zt = (w * (sys.energy + sys.T + delta + sys.Td * sys.S) - 2.0 * eta * sys.tt * (1.0 + sys.pt * sys.tt)) / (
        2.0 * sys.energy * eta
    )
    zd = 0.5 + (t_t + delta - sys.Td * (1.0 + sys.S)) / (2.0 * sys.energy)
    if not (np.all(zt > 0.0) and zd > 0.0):
        return None
    return _build_result(cfg, budget, sys, np.append(zt, zd), METHOD_CLOSED_FORM, 0)


def solve_asymptotic(cfg: SystemConfig) -> JammerAllocation:
    """Infinite-budget limit: half the energy on data, training shares by
    ``tt_k sqrt(pt_k pd_k)``."""
    tt = cfg.train_len_vec()
    w = tt * np.sqrt(cfg.data_power_vec() * cfg.train_power_vec())
    eta = float(w.sum())
    if eta <= 0.0:
        # No user carries data; the limit is degenerate and any split works.
        return uniform_allocation(cfg)
    return JammerAllocation(tuple(w / (2.0 * eta)), 0.5)


def solve(cfg: SystemConfig, budget: JammerBudget) -> SolveResult:
    """Closed form when it is interior and certifies to ``CERT_TOL``, :func:`solve_kkt` otherwise."""
    result = solve_closed_form(cfg, budget)
    if result is not None and result.kkt_residual <= CERT_TOL:
        return result
    return solve_kkt(cfg, budget)


def _simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All points of the integer simplex grid {z >= 0, sum z = steps} / steps.

    Rows come in lexicographic order.  Built one leading coordinate at a
    time on integer counts: a partial row with ``r`` units left becomes
    ``r + 1`` rows whose next count runs 0..r; the last count takes the rest.
    """
    counts = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([steps], dtype=np.int64)
    for _ in range(dim - 1):
        reps = rest + 1
        lead = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.column_stack([np.repeat(counts, reps, axis=0), lead])
        rest = np.repeat(rest, reps) - lead
    return np.column_stack([counts, rest]) / steps


def _pair_descent(z, cfg, budget):
    """Projected coordinate descent on the simplex via pairwise transfers.

    Moving mass t from coordinate j to coordinate i keeps the simplex exact;
    each pair is line-searched by golden section.  Derivative-free, so the
    polish shares nothing with the stationarity-based solvers.
    """
    z = np.array(z, dtype=float)
    dim = z.size
    best = _rho_z(z, cfg, budget)
    for sweeps in range(1, ORACLE_MAX_SWEEPS + 1):
        start = best
        for i in range(dim):
            for j in range(i + 1, dim):
                lo, hi = -z[i], z[j]
                if hi - lo <= 1e-15:
                    continue
                trial = z.copy()

                def phi(t):
                    trial[i] = z[i] + t
                    trial[j] = z[j] - t
                    return _rho_z(trial, cfg, budget)

                _, _, c, fc, d, fd = _golden_section(phi, lo, hi, 1e-12)
                t_best, f_best = (c, fc) if fc <= fd else (d, fd)
                for t_edge in (lo, hi):
                    f_edge = phi(t_edge)
                    if f_edge < f_best:
                        t_best, f_best = t_edge, f_edge
                if f_best < best:
                    z[i] += t_best
                    z[j] -= t_best
                    z[i] = max(z[i], 0.0)
                    z[j] = max(z[j], 0.0)
                    best = f_best
        if start - best <= ORACLE_REL_TOL * max(1.0, abs(start)):
            break
    return z, best, sweeps


def solve_oracle(cfg: SystemConfig, budget: JammerBudget, grid_resolution: float = 1e-3) -> SolveResult:
    """Brute-force reference: exhaustive simplex grid plus pairwise-descent polish.

    When the grid at the requested resolution would exceed 2,000,000 points
    (``ORACLE_MAX_GRID_POINTS``) the enumeration is replaced by 50,000
    Dirichlet samples drawn from the fixed seed ``ORACLE_SEED`` (plus the
    simplex vertices and center); the polish does the precision work either
    way.  Only intended for tests and diagnostics.  ``grid_resolution`` must
    lie in (0, 1] with a finite reciprocal; any other value, NaN included, is
    a ``ValueError``.
    """
    if not (0.0 < grid_resolution <= 1.0 and math.isfinite(1.0 / grid_resolution)):
        raise ValueError(
            f"grid_resolution must lie in (0, 1] with a finite reciprocal, got {grid_resolution!r}"
        )
    sys = _sys(cfg, budget)
    dim = cfg.n_users + 1
    steps = round(1.0 / grid_resolution)
    if math.comb(steps + dim - 1, dim - 1) <= ORACLE_MAX_GRID_POINTS:
        pts = _simplex_grid(dim, steps)
    else:
        rng = np.random.default_rng(ORACLE_SEED)
        samples = rng.dirichlet(np.ones(dim), size=ORACLE_SEARCH_SAMPLES)
        pts = np.concatenate([np.eye(dim), np.full((1, dim), 1.0 / dim), samples])
    z0 = pts[int(np.argmin(_rho_z(pts, cfg, budget)))]
    z, _, sweeps = _pair_descent(z0, cfg, budget)
    return _build_result(cfg, budget, sys, z, METHOD_ORACLE, sweeps)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    r = int(idx[u - shifted / idx > 0.0][-1])
    return np.maximum(v - shifted[r - 1] / r, 0.0)


def _descend(z0, cfg, budget):
    sys = _sys(cfg, budget)
    z = _project_simplex(np.asarray(z0, dtype=float))
    f = _rho_z(z, cfg, budget)
    g = _grad_z(sys, z)
    step = 1.0
    iters = 0
    for _ in range(DESCENT_MAX_ITER):
        # Scale-free first-order test; the projected gradient inherits the
        # magnitude of the gradient, so the threshold must as well.
        pg = z - _project_simplex(z - g)
        if float(np.max(np.abs(pg))) <= DESCENT_TOL * float(np.max(np.abs(g))):
            break
        moved = False
        trial = min(step, 1e12)
        while trial > 1e-20:
            cand = _project_simplex(z - trial * g)
            decrease = float(g @ (cand - z))
            if decrease < 0.0 and _rho_z(cand, cfg, budget) <= f + 1e-4 * decrease:
                moved = True
                break
            trial *= 0.5
        iters += 1
        if not moved:
            break  # step underflow: at floating-point resolution of the optimum
        g_new = _grad_z(sys, cand)
        dz = cand - z
        dg = g_new - g
        curv = float(dz @ dg)
        # Barzilai-Borwein step for the next iteration, Armijo-safeguarded above.
        step = float(dz @ dz) / curv if curv > 0.0 else trial * 2.0
        z, f, g = cand, _rho_z(cand, cfg, budget), g_new
    return z, f, iters


def solve_projected_descent(cfg: SystemConfig, budget: JammerBudget) -> SolveResult:
    """Multi-start projected gradient descent with Armijo backtracking.

    Defense-in-depth companion to :func:`solve_kkt`: it relies only on the
    objective and its gradient, never on the stationarity rearrangement.  The
    five starts (duration-proportional, training only, data only, the
    infinite-budget limit and one seeded random point) keep a single poor
    start from deciding the result; the first of equally good ends is kept.
    """
    k = cfg.n_users
    rng = np.random.default_rng(DESCENT_SEED)
    starts = [
        uniform_allocation(cfg).as_vector(),
        np.append(np.full(k, 1.0 / k), 0.0),
        np.append(np.zeros(k), 1.0),
        solve_asymptotic(cfg).as_vector(),
        rng.dirichlet(np.ones(k + 1)),
    ]
    z, _, iters = min((_descend(z0, cfg, budget) for z0 in starts), key=lambda end: end[1])
    return _build_result(cfg, budget, _sys(cfg, budget), z, METHOD_DESCENT, iters)


def check_corollary_orderings(result: SolveResult, cfg: SystemConfig) -> list[OrderingVerdict]:
    """Pairwise sanity checks of the optimal training-jamming shares.

    For user pairs that differ in exactly one parameter (``_COROLLARY_FIELD``),
    the user with the larger data power, larger training power, or longer
    training window should receive at least as much jamming energy.  Verdicts
    allow solver-level slack of ``ACTIVE_TOL``.
    """
    zt = result.alloc.zeta_t
    verdicts = []
    for corollary, name in _COROLLARY_FIELD.items():
        same = [f.name for f in fields(UserParams) if f.name != name]
        for i, a in enumerate(cfg.users):
            for j, b in enumerate(cfg.users):
                if getattr(a, name) > getattr(b, name) and all(getattr(a, n) == getattr(b, n) for n in same):
                    passed = zt[i] >= zt[j] - ACTIVE_TOL
                    verdicts.append(OrderingVerdict(corollary, i, j, zt[i], zt[j], passed))
    return verdicts
