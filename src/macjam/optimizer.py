"""Solvers for the jammer's energy-allocation problem.

The jammer minimizes the objective scalar rho over the simplex of energy
ratios (one per user's training window, one for the data phase).  On any
fixed set of free (nonzero) ratios the stationarity equations collapse to one
scalar: every free training ratio is set by a single proportionality
constant, which solves a linear equation when the data ratio is pinned at
zero and a quadratic when it is free.  A training ratio is free iff that
constant exceeds the user's budget-independent threshold, so the free
training set is a prefix of the users sorted by threshold: water-filling.
The primary solver screens these 2K+1 candidate free sets by that rule, one
scalar check per candidate on vectors of length 2K+1: the constant against
the last free user's threshold and the first pinned user's, plus the data
coordinate's signs, each relaxed by a small slack.  Only the survivors
(usually one) are solved again exactly and built, and the one with the
smallest KKT certificate wins, so the certificate is the one acceptance test
and the returned points carry machine-precision certificates.  So a solve
costs a fixed number of NumPy calls plus one exact solve per survivor,
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
    _ratio_rho,
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
# screen rounds differently from the exact solve, so a candidate whose
# allocation certifies may read slightly negative there; the slack lets it
# through, and the certificate alone decides.  A larger slack only sends more
# candidates to the exact solve.  Over the 14,400 solve-wide benchmark inputs
# of seeds 1-30 the two differ by at most 1.2e-8 of the slack's scale, and
# with this slack 97.7% of the solves send one candidate to the exact solve.
# The dual checks also keep an absolute 1e-9 term: the certificate bounds
# each multiplier in absolute terms, so where the gradient is tiny a
# certifying candidate can read below a purely relative bound.
SCREEN_SLACK = 1e-4

# Fixed settings of the two reference solvers (oracle, projected descent).
ORACLE_MAX_GRID_POINTS = 2_000_000  # larger grids switch to Dirichlet sampling
# Grid rows the oracle evaluates at once (see _grid_blocks).  Blocks of 2**14
# rows keep each temporary array in a quarter of a megabyte; a K = 2 solve at
# grid 1e-3 ran ~15% slower with blocks of 2**16 rows on a 2-vCPU x86 VM.
ORACLE_BLOCK_ROWS = 2**14
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
    """A zero budget, or no user with ``w > 0``: every allocation is then optimal."""
    return sys.energy == 0.0 or not sys.w.any()


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


def _rho_z(z: np.ndarray, sys: _Sys):
    """The objective at the points ``z`` (data ratio last), over leading axes."""
    return _ratio_rho(z[..., :-1], z[..., -1], sys.pt, sys.pd, sys.tt, sys.energy, sys.Td)


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


def _screen_active_sets(sys: _Sys, order: np.ndarray):
    """Every candidate free set at once, screened by the water-filling rule.

    Row ``2m - 1`` frees the first ``m`` users of ``order`` with the data
    ratio pinned, row ``2m`` also the data ratio: the order in which
    :func:`solve_kkt` solves them exactly.  On a row every free
    training denominator is ``cp w_k``, so every free training gradient is
    ``-C / cp^2`` and a pinned user's ``-C (w_k / x_k)^2``.  With ``w / x``
    falling along ``order``, ``cp`` against the last free and the first
    pinned user's ``w / x`` decides the training signs; the data coordinate
    adds one check of each kind.  Each check allows ``SCREEN_SLACK`` times
    the size of the terms its value is a difference of.  Returns
    ``(solvable, passed)``, two row masks: the rows whose free set has a
    solution, and those among them that pass.
    """
    pt, pd, tt, w, x = (v[order] for v in (sys.pt, sys.pd, sys.tt, sys.w, sys.x))
    k, energy, td = w.size, sys.energy, sys.Td
    rows = np.arange(2 * k + 1)
    m = (rows + 1) // 2
    free_d = rows % 2 == 0
    w_free, x_free, pd_free = (np.concatenate(((0.0,), v.cumsum()))[m] for v in (w, x, pd))
    # The pinned users' alpha and beta at zero jamming, summed from the last user.
    pilot = 1.0 + pt * tt
    pinned = (pd * (pt * tt) / pilot, pd / pilot)
    a2, b2 = (np.concatenate((v[::-1].cumsum()[::-1], (0.0,)))[m] for v in pinned)
    # The proportionality constant cp = num / den: the positive root of the
    # quadratic with the data ratio free, (energy + x_free) / w_free without.
    rhs = energy + td * (1.0 + sys.S) + x_free
    den = np.where(free_d, w_free + np.sqrt(w_free * w_free + a2 * rhs), w_free)
    solvable = den > 0.0
    cp = np.where(free_d, rhs, energy + x_free) / np.where(solvable, den, 1.0)
    # The inverse thresholds w / x (0 if silent) of the last free and first pinned user.
    inv_thr = w / x
    last_free, first_pinned = inv_thr[np.maximum(m - 1, 0)], inv_thr[np.minimum(m, k - 1)]
    # Energy times the data ratio; its slack scales with the terms it is a difference of.
    u_d = energy + x_free - cp * w_free
    primal = (m == 0) | (cp * last_free - 1.0 > -SCREEN_SLACK * (cp * last_free + 1.0))
    primal &= ~free_d | (u_d > -SCREEN_SLACK * (energy + 2.0 * td + x_free + cp * w_free))
    # The gradient's scalars at the data ratio clipped to 0; the free alphas sum to w_free / cp.
    d_d = td + np.where(free_d, np.maximum(u_d, 0.0), 0.0)
    gamma = td / d_d
    e_sq = (1.0 + gamma * (pd_free - w_free / cp + b2)) ** 2
    c = energy * gamma * (1.0 + gamma * sys.S) / e_sq
    g_d = -energy * td * (w_free / cp + a2) / (d_d**2 * e_sq)
    # Row r has r // 2 + 1 free coordinates; m of them are training ratios.
    nu = (m * c / cp / cp - np.where(free_d, g_d, 0.0)) / (rows // 2 + 1)
    # The most negative pinned training gradient, the first pinned user's, and the data's.
    g = np.stack((-c * first_pinned**2, g_d))
    signed = g + nu >= -1e-9 - (1e-9 + SCREEN_SLACK) * np.abs(nu) - SCREEN_SLACK * np.abs(g)
    dual = ((m == k) | signed[0]) & (free_d | signed[1])
    return solvable, solvable & primal & dual


def _flat_result(cfg: SystemConfig, sys: _Sys, method: str) -> SolveResult:
    """The duration-proportional split, certified with ``nu`` and residual 0, on a flat objective."""
    alloc = uniform_allocation(cfg)
    return SolveResult(
        alloc=alloc,
        rho_star=float(_rho_z(alloc.as_vector(), sys)),
        nu_star=0.0,
        lambdas=(0.0,) * (cfg.n_users + 1),
        active_set=(),
        method=method,
        kkt_residual=0.0,
        iterations=0,
    )


def _build_result(sys: _Sys, z: np.ndarray, method: str, iterations: int, nu: float | None = None) -> SolveResult:
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
        rho_star=float(_rho_z(z, sys)),
        nu_star=float(nu),
        lambdas=tuple(max(0.0, v) for v in lam.tolist()),
        active_set=tuple(np.flatnonzero(z <= ACTIVE_TOL).tolist()),
        method=method,
        kkt_residual=float(residual),
        iterations=int(iterations),
    )


def solve_kkt(cfg: SystemConfig, budget: JammerBudget) -> SolveResult:
    """Primary solver: exact solves on the 2K+1 candidate free sets.

    Free training ratios share one proportionality constant, so a ratio is
    positive iff that constant exceeds ``(1 + pt tt) / sqrt(pd pt)``; the free
    set is therefore a prefix of the users sorted by that threshold, leaving
    2K+1 candidates (the empty set is excluded).  One vectorized pass,
    :func:`_screen_active_sets`, checks all of them by that rule with a slack
    (``SCREEN_SLACK``) that only admits extra candidates.  The survivors are
    solved exactly, in order of the number of free users, data pinned first;
    each whose free ratios are all positive is built with its own ``nu`` and
    certified, and the one with the smallest certificate, the first of equal
    ones, is returned, with ``iterations`` counting the candidates that have
    a solution.  A flat objective returns :func:`_flat_result`.  Raises
    :class:`SolverError` when no candidate certifies to ``CERT_TOL``.
    """
    sys = _sys(cfg, budget)
    if _flat(sys):
        return _flat_result(cfg, sys, METHOD_KKT)
    w = sys.w
    ratio = np.where(w > 0.0, sys.x / np.where(w > 0.0, w, 1.0), math.inf)
    order = np.argsort(ratio, kind="stable")
    solvable, passed = _screen_active_sets(sys, order)
    tried = int(solvable.sum())
    best = None
    for row in np.flatnonzero(passed):
        free = np.zeros(w.size + 1, dtype=bool)
        free[order[: (row + 1) // 2]] = True
        free[-1] = row % 2 == 0
        z = _refine_active_set(sys, free)
        # A free ratio must be positive, and at a negative one the gradient can be NaN.
        if z is None or (z[free] <= 0.0).any():
            continue
        nu = float(-(_grad_z(sys, z)[free]).mean())
        result = _build_result(sys, z, METHOD_KKT, tried, nu=nu)
        if best is None or result.kkt_residual < best.kkt_residual:
            best = result
    residual = math.inf if best is None else best.kkt_residual
    if residual > CERT_TOL:
        raise SolverError("no candidate free set certifies the optimum", residual)
    return best


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
    if _flat(sys):
        return None
    w = sys.w
    eta = float(w.sum())
    delta = float((sys.pt * sys.tt**2).sum())
    t_t = float(sys.tt.sum())
    zt = (w * (sys.energy + sys.T + delta + sys.Td * sys.S) - 2.0 * eta * sys.tt * (1.0 + sys.pt * sys.tt)) / (
        2.0 * sys.energy * eta
    )
    zd = 0.5 + (t_t + delta - sys.Td * (1.0 + sys.S)) / (2.0 * sys.energy)
    if not (np.all(zt > 0.0) and zd > 0.0):
        return None
    return _build_result(sys, np.append(zt, zd), METHOD_CLOSED_FORM, 0)


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


def _simplex_grid(dim: int, steps: int, leads: tuple[int, int] | None = None) -> np.ndarray:
    """Points of the integer simplex grid {z >= 0, sum z = steps} / steps.

    Rows come in lexicographic order, stored column by column (an ``(n, dim)``
    array in Fortran order), so an elementwise pass over a coordinate runs
    over all rows at once.  ``leads = (first, stop)`` keeps only the rows
    whose leading count lies in ``range(first, stop)``; by default all of
    them.  Built one coordinate at a time on integer counts: a partial row
    with ``r`` units left becomes ``r + 1`` rows whose next count runs 0..r;
    the last count takes the rest.
    """
    if dim == 1:
        return np.ones((1, 1))
    lead = np.arange(*(leads or (0, steps + 1)), dtype=np.int64)
    cols, rest = [lead], steps - lead
    for _ in range(dim - 2):
        reps = rest + 1
        lead = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        cols = [np.repeat(c, reps) for c in cols] + [lead]
        rest = np.repeat(rest, reps) - lead
    return (np.stack(cols + [rest]) / steps).T


def _grid_blocks(dim: int, steps: int):
    """``_simplex_grid(dim, steps)`` in order, as blocks of whole leading counts.

    Each block takes as many consecutive leading counts as fit in
    ``ORACLE_BLOCK_ROWS`` rows, and at least one, so a block is at most
    ``ORACLE_BLOCK_ROWS`` rows or one leading count's sub-grid, whichever is
    larger.  The boundaries come from the sub-grid sizes, found without a
    loop over the leading counts: leading count ``c`` heads
    ``comb(steps - c + dim - 2, dim - 2)`` rows, the (dim - 2)-fold running
    sum of ones at ``steps - c``.
    """
    sizes = np.ones(steps + 1, dtype=np.int64)
    for _ in range(dim - 2):
        sizes = sizes.cumsum()
    ends = sizes[::-1].cumsum()  # rows up to and including each leading count
    first = 0
    while first <= steps:
        start = int(ends[first - 1]) if first else 0
        stop = max(first + 1, int(np.searchsorted(ends, start + ORACLE_BLOCK_ROWS, side="right")))
        yield _simplex_grid(dim, steps, (first, stop))
        first = stop


def _first_min(blocks, sys: _Sys):
    """The first point of least objective over the point arrays ``blocks``,
    taken in order, and its value: a later block wins only when strictly lower."""
    z0 = best = None
    for pts in blocks:
        vals = _rho_z(pts, sys)
        i = int(np.argmin(vals))
        if z0 is None or vals[i] < best:
            z0, best = pts[i].copy(), vals[i]
    return z0, best


def _pair_descent(z, sys: _Sys):
    """Projected coordinate descent on the simplex via pairwise transfers.

    Moving mass t from coordinate j to coordinate i keeps the simplex exact;
    each pair is line-searched by golden section.  Derivative-free, so the
    polish shares nothing with the stationarity-based solvers.
    """
    z = np.array(z, dtype=float)
    dim = z.size
    best = _rho_z(z, sys)
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
                    return _rho_z(trial, sys)

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

    The grid's rows are generated and evaluated in lexicographic order, in
    blocks of whole leading counts (:func:`_grid_blocks`: at most
    ``ORACLE_BLOCK_ROWS`` = 16,384 rows, or one leading count's sub-grid
    where that alone is larger).  The polish starts from the first row of
    least objective, a later block winning only when strictly lower, which
    is the row one argmin over the whole grid would pick.  So a K = 2 solve
    at grid 1e-3 (501,501 rows) keeps its traced memory peak under 16 MiB
    (about 2 MiB), where one array of the whole grid took about 50 MiB.
    Each block is evaluated column by column; with K >= 8 users the
    per-point user sum may round differently from a sum along rows.  When
    the grid would exceed 2,000,000 points (``ORACLE_MAX_GRID_POINTS``) it
    is replaced by 50,000 Dirichlet samples drawn from the fixed seed
    ``ORACLE_SEED`` (plus the simplex vertices and center), evaluated as one
    column-ordered array; the polish does the precision work either
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
        blocks = _grid_blocks(dim, steps)
    else:
        rng = np.random.default_rng(ORACLE_SEED)
        samples = rng.dirichlet(np.ones(dim), size=ORACLE_SEARCH_SAMPLES)
        blocks = [np.asfortranarray(np.concatenate([np.eye(dim), np.full((1, dim), 1.0 / dim), samples]))]
    z0, _ = _first_min(blocks, sys)
    z, _, sweeps = _pair_descent(z0, sys)
    return _build_result(sys, z, METHOD_ORACLE, sweeps)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    r = int(idx[u - shifted / idx > 0.0][-1])
    return np.maximum(v - shifted[r - 1] / r, 0.0)


def _descend(z0, sys: _Sys):
    z = _project_simplex(np.asarray(z0, dtype=float))
    f = _rho_z(z, sys)
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
            if decrease < 0.0 and _rho_z(cand, sys) <= f + 1e-4 * decrease:
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
        z, f, g = cand, _rho_z(cand, sys), g_new
    return z, f, iters


def solve_projected_descent(cfg: SystemConfig, budget: JammerBudget) -> SolveResult:
    """Multi-start projected gradient descent with Armijo backtracking.

    Defense-in-depth companion to :func:`solve_kkt`: it relies only on the
    objective and its gradient, never on the stationarity rearrangement.  The
    five starts (duration-proportional, training only, data only, the
    infinite-budget limit and one seeded random point) keep a single poor
    start from deciding the result; the first of equally good ends is kept.
    """
    sys = _sys(cfg, budget)
    k = cfg.n_users
    rng = np.random.default_rng(DESCENT_SEED)
    starts = [
        uniform_allocation(cfg).as_vector(),
        np.append(np.full(k, 1.0 / k), 0.0),
        np.append(np.zeros(k), 1.0),
        solve_asymptotic(cfg).as_vector(),
        rng.dirichlet(np.ones(k + 1)),
    ]
    z, _, iters = min((_descend(z0, sys) for z0 in starts), key=lambda end: end[1])
    return _build_result(sys, z, METHOD_DESCENT, iters)


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
