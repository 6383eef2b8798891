"""Solvers for the jammer's energy-allocation problem.

The jammer minimizes the objective scalar rho over the simplex of energy
ratios (one per user's training window, one for the data phase).  On any
fixed set of free (nonzero) ratios the stationarity equations collapse to one
scalar: every free training ratio is set by a single proportionality
constant cp, which solves a linear equation when the data ratio is pinned at
zero and a quadratic when it is free.  A training ratio is free iff cp
exceeds the user's budget-independent threshold r_k = x_k / w_k, so the free
set follows a water-filling path in the energy E = P_w T: as E grows the
users switch on in threshold order and the data phase switches on once.

Why the path is nested.  With the first m users free, E = cp W_m - X_m while
the data ratio is pinned and E = A2_m cp^2 + 2 W_m cp - c0 - X_m once it is
free (W_m, X_m the sums of w and x over the free users, A2_m the sum of the
pinned users' alpha at zero jamming, c0 = T_d (1 + S)).  E increases with cp
in both regimes, and the formulas for m and m + 1 free users agree at
cp = r_{m+1} because r_k w_k = x_k and alpha0_k r_k^2 = x_k.  The data ratio
is (A2_m cp^2 + W_m cp - c0) / E, which rises with cp and is continuous at
user events.  So cp rises with E, and a ratio that is positive stays
positive: the path has at most K + 1 rows, each starting where one more
coordinate switches on (:func:`_path`).  The primary solver solves exactly
only the rows whose energy interval meets a relative ``PATH_WINDOW`` around
E (usually one), and the one with the smallest KKT certificate wins, so the
certificate is the one acceptance test.

Why a local minimum is the global one.  With alpha_k + beta_k = pd_k the
objective is rho = A / (1 + D + S - A), where A = sum_k alpha_k and
D = zeta_d E / T_d.  Each alpha_k = pd_k pt_k tt_k / (1 + pt_k tt_k +
zeta_k E / tt_k) is a nonnegative constant over a positive affine function
of zeta_k, so A is convex and nonnegative; D is linear, so the denominator is
concave, and it is at least 1 because alpha_k <= pd_k.  A convex nonnegative
function over a concave positive one is pseudoconvex (Mangasarian, Nonlinear
Programming, 1969; Schaible, Oper. Res. 24(3), 1976): every KKT point on the
simplex, and so every local minimum there, is a global minimum.  The level
sets {rho <= c} = {A - c (1 + D + S - A) <= 0}, c >= 0, are convex, which is
quasiconvexity: along a segment rho never exceeds the larger endpoint.  So
the certificate is enough, and a descent needs no global search, only a
start.

Independent cross-checks: a closed-form interior solution valid at high
jamming power, the infinite-power limit, a derivative-free multi-start
oracle, and a multi-start projected gradient descent.
"""

from __future__ import annotations

import functools
import math
import operator
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
    _ratio_terms,
    uniform_allocation,
)

__all__ = [
    "SolveResult",
    "SolverError",
    "OrderingVerdict",
    "rho_gradient",
    "evaluate_kkt",
    "solve_kkt",
    "activation_powers",
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

# Relative half-width of the energy window in which solve_kkt solves the path's
# rows: rounding in the breakpoints must not hide the row an energy at (or
# next to) a breakpoint needs.  A wider window only solves more rows.
PATH_WINDOW = 1e-6

# Fixed settings of the two reference solvers (oracle, projected descent).
ORACLE_SEARCH_SAMPLES = 50_000  # the most Dirichlet points in the oracle's start set
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
    ``iterations`` is, per method: the path rows solved (KKT), 0 (closed
    form), the polish sweeps (oracle) and the descent steps (projected
    descent).
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
    point ``z``, which exists on every row of :func:`_path` that
    :func:`solve_kkt` solves: each row but the data-only one frees a user
    with ``w > 0``, so ``w_free > 0``, and with some user of ``w > 0`` (the
    objective is not flat) ``_path`` opens the data-only row only where
    ``A2_0 r^2 >= c0 > 0``, so ``a2 > 0``.  Either way the divisors below
    are positive.
    """
    w, x_thr = sys.w, sys.x
    free_t = free[:-1]
    w_free = float(w[free_t].sum())
    x_free = float(x_thr[free_t].sum())
    z = np.zeros(free.size)
    zt = z[:-1]
    if not free[-1]:
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
        cp = rhs / (w_free + math.sqrt(w_free * w_free + a2 * rhs))
        d_d = sys.energy + sys.Td + x_free - cp * w_free
        z[-1] = (d_d - sys.Td) / sys.energy
        zt[free_t] = (cp * w[free_t] - x_thr[free_t]) / sys.energy
    return z


def _path(sys: _Sys):
    """The water-filling path of the free set in the energy E = P_w T.

    Sorts the users by threshold ``r = x / w``; users with ``w = 0`` come last
    and are never freed.  Returns ``(coords, starts, rows)``: path row ``i``
    frees the coordinates ``coords[: i + 1]`` (index K is the data phase) for
    E from ``starts[i]`` to ``starts[i + 1]``, and ``rows`` are the rows whose
    interval meets ``[E (1 - PATH_WINDOW), E (1 + PATH_WINDOW)]`` at the
    energy of ``sys``.  The first row starts at E = 0 and frees the first
    user, or the data phase where no user is free at E = 0+.
    """
    live = sys.w > 0.0
    thr = np.where(live, sys.x / np.where(live, sys.w, 1.0), math.inf)
    order = np.argsort(thr, kind="stable")
    pt_tt = sys.pt * sys.tt
    # A2_m, the pinned users' alpha at zero jamming, summed from the last user.
    a2 = np.append((sys.pd * pt_tt / (1.0 + pt_tt))[order][::-1].cumsum()[::-1], 0.0)
    order = order[: int(live.sum())]
    r = thr[order]
    w_cum, x_cum = (np.concatenate(((0.0,), v[order].cumsum())) for v in (sys.w, sys.x))
    w_m, x_m = w_cum[:-1], x_cum[:-1]
    c0 = sys.Td * (1.0 + sys.S)
    # A2_m r^2 for user m + 1's r: every pinned r_k >= r, so it is at most sum x
    # where r * r alone can overflow.
    quad = (a2[: r.size] * r) * r
    # The data ratio at cp = r has the sign of A2_m r^2 + W_m r - c0, so the data
    # phase switches on with the first m users free where that is >= 0.
    m = int(np.argmax(np.append(quad + w_m * r >= c0, True)))
    # The energy at which user m + 1 switches on, with the data ratio pinned
    # before the data event and free after it.
    user_on = np.where(np.arange(r.size) < m, r * w_m - x_m, quad + 2.0 * w_m * r - c0 - x_m)
    data_on = 0.0
    if m:
        w_d, x_d = float(w_cum[m]), float(x_cum[m])
        # The positive root of A2 cp^2 + W cp = c0, without cancellation.
        data_on = 2.0 * c0 / (w_d + math.sqrt(w_d * w_d + 4.0 * float(a2[m]) * c0)) * w_d - x_d
    starts = np.concatenate((user_on[:m], (data_on,), user_on[m:]))
    coords = np.concatenate((order[:m], (sys.w.size,), order[m:]))
    ends = np.append(starts[1:], math.inf)
    rows = range(
        int(np.searchsorted(ends, sys.energy * (1.0 - PATH_WINDOW))),
        int(np.searchsorted(starts, sys.energy * (1.0 + PATH_WINDOW), side="right")),
    )
    return coords, starts, rows


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
    """Primary solver: exact solves on the free sets of the water-filling path.

    Free training ratios share one proportionality constant, so a ratio is
    positive iff that constant exceeds ``(1 + pt tt) / sqrt(pd pt)``, and as
    the energy grows the free set runs through at most K + 1 nested rows
    (:func:`_path`).  Each row whose energy interval meets a relative
    ``PATH_WINDOW`` around the budget's energy (usually one) is solved
    exactly, in path order; each whose free ratios are all positive is built
    with its own ``nu`` and certified, and the one with the smallest
    certificate, the first of equal ones, is returned, with ``iterations``
    counting the rows solved.  A flat objective returns :func:`_flat_result`.
    Raises :class:`SolverError` when no row certifies to ``CERT_TOL``.
    """
    sys = _sys(cfg, budget)
    if _flat(sys):
        return _flat_result(cfg, sys, METHOD_KKT)
    coords, _, rows = _path(sys)
    best = None
    for row in rows:
        free = np.zeros(sys.w.size + 1, dtype=bool)
        free[coords[: row + 1]] = True
        z = _refine_active_set(sys, free)
        # A free ratio must be positive, and at a negative one the gradient can be NaN.
        if (z[free] <= 0.0).any():
            continue
        nu = float(-(_grad_z(sys, z)[free]).mean())
        result = _build_result(sys, z, METHOD_KKT, len(rows), nu=nu)
        if best is None or result.kkt_residual < best.kkt_residual:
            best = result
    residual = math.inf if best is None else best.kkt_residual
    if residual > CERT_TOL:
        raise SolverError("no candidate free set certifies the optimum", residual)
    return best


def activation_powers(cfg: SystemConfig) -> np.ndarray:
    """The jamming power ``P_w`` above which each energy ratio is positive.

    Read off the water-filling path (:func:`_path`), which does not depend on
    the budget: one value per training window, the data phase last.  The
    coordinate free at E = 0+ (the first user in threshold order, or the data
    phase where no user is) gets 0, and users with ``w = tt sqrt(pd pt) = 0``,
    never freed, get ``inf``.
    """
    sys = _sys(cfg, JammerBudget(0.0))
    coords, starts, _ = _path(sys)
    out = np.full(cfg.n_users + 1, math.inf)
    out[coords] = starts / sys.T
    return out


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


def _user_sum(values):
    """``values`` summed left to right, in user order.  Up to 7 terms that is
    the order, and so the bits, of ``ndarray.sum``; from 8 NumPy sums
    pairwise.  (Not ``sum``, which compensates from Python 3.12.)"""
    return functools.reduce(operator.add, values)


def _pair_descent(z, sys: _Sys):
    """Projected coordinate descent on the simplex via pairwise transfers.

    Moving mass t from coordinate j to coordinate i keeps the simplex exact;
    each pair is line-searched by golden section.  Derivative-free, so the
    polish shares nothing with the stationarity-based solvers.

    The search runs on Python floats.  Each user's alpha and beta, and
    gamma, are kept for the current point; a trial on the pair (i, j)
    recomputes with :func:`_ratio_terms` only the two terms it moves, user
    i's and either user j's or gamma (j the data coordinate), and forms
    ``gamma A / (1 + gamma B)`` with the user sums in user order
    (:func:`_user_sum`).  Up to 7 users every
    value is bit for bit the :func:`_rho_z` of the trial point; from 8 a
    value may round apart from it in the last bits.
    """
    z = np.asarray(z, dtype=float).tolist()
    users = len(z) - 1
    pt, pd, tt = sys.pt.tolist(), sys.pd.tolist(), sys.tt.tolist()

    def terms(k, zeta_k, zeta_d):
        return _ratio_terms(zeta_k, zeta_d, pt[k], pd[k], tt[k], sys.energy, sys.Td)

    def value(a, b, g):
        return g * _user_sum(a) / (1.0 + g * _user_sum(b))

    alphas, betas, gamma = _ratio_terms(np.array(z[:-1]), z[-1], sys.pt, sys.pd, sys.tt, sys.energy, sys.Td)
    alphas, betas = alphas.tolist(), betas.tolist()
    best = value(alphas, betas, gamma)
    for sweeps in range(1, ORACLE_MAX_SWEEPS + 1):
        start = best
        for i in range(users):
            for j in range(i + 1, users + 1):
                lo, hi = -z[i], z[j]
                if hi - lo <= 1e-15:
                    continue
                zi, zj, zd, data = z[i], z[j], z[-1], j == users
                a, b = alphas.copy(), betas.copy()

                def phi(t):
                    a[i], b[i], g = terms(i, zi + t, zj - t if data else zd)
                    if not data:
                        a[j], b[j], _ = terms(j, zj - t, zd)
                    return value(a, b, g)

                _, _, c, fc, d, fd = _golden_section(phi, lo, hi, 1e-12)
                t_best, f_best = (c, fc) if fc <= fd else (d, fd)
                for t_edge in (lo, hi):
                    f_edge = phi(t_edge)
                    if f_edge < f_best:
                        t_best, f_best = t_edge, f_edge
                if f_best < best:
                    z[i] = max(zi + t_best, 0.0)
                    z[j] = max(zj - t_best, 0.0)
                    alphas[i], betas[i], gamma = terms(i, z[i], z[-1])
                    if not data:
                        alphas[j], betas[j], _ = terms(j, z[j], z[-1])
                    best = f_best
        if start - best <= ORACLE_REL_TOL * abs(start):
            break
    return np.array(z), best, sweeps


def solve_oracle(cfg: SystemConfig, budget: JammerBudget, grid_resolution: float = 1e-3) -> SolveResult:
    """Derivative-free reference: the best of a seeded start set, then a pairwise-descent polish.

    The start set is the simplex vertices, its center and
    ``min(round(1 / grid_resolution), ORACLE_SEARCH_SAMPLES)`` Dirichlet
    points drawn from the fixed seed ``ORACLE_SEED`` on each call, so a
    finer ``grid_resolution`` means a denser start set (1e-3: 1,000 points)
    and the result is reproducible.  The polish (:func:`_pair_descent`)
    starts from the first start of least objective and does the precision
    work; it stops once a sweep gains at most ``ORACLE_REL_TOL`` of the
    objective, relative at every scale of rho.  No grid search is needed:
    rho is pseudoconvex on the simplex (module docstring), so a point that
    no pairwise transfer improves is a KKT point and a global minimum, and
    the start only sets how far the polish travels.  The polish runs on
    Python floats with the user sums in user order, so up to 7 users every
    trial value is the one ``_rho_z`` gives at the trial point; from 8 users
    NumPy sums a point pairwise, and the polish may end a few ulps from
    where one on NumPy arrays would.  ``iterations`` is the polish's sweep
    count.  Only intended for tests and diagnostics.
    ``grid_resolution`` must lie in (0, 1] with a finite reciprocal; any
    other value, NaN included, is a ``ValueError``.
    """
    if not (0.0 < grid_resolution <= 1.0 and math.isfinite(1.0 / grid_resolution)):
        raise ValueError(
            f"grid_resolution must lie in (0, 1] with a finite reciprocal, got {grid_resolution!r}"
        )
    sys = _sys(cfg, budget)
    dim = cfg.n_users + 1
    samples = min(round(1.0 / grid_resolution), ORACLE_SEARCH_SAMPLES)
    rng = np.random.default_rng(ORACLE_SEED)
    starts = np.concatenate([np.eye(dim), np.full((1, dim), 1.0 / dim), rng.dirichlet(np.ones(dim), size=samples)])
    z, _, sweeps = _pair_descent(starts[int(np.argmin(_rho_z(starts, sys)))], sys)
    return _build_result(sys, z, METHOD_ORACLE, sweeps)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    shifted = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    keep = u - shifted / idx > 0.0
    if not keep.any():
        # In exact arithmetic index 1 always qualifies; against entries of
        # ~1e16 and up rounding loses the 1.  A shift that puts the largest
        # entry at 0 keeps the projection and makes index 1 qualify exactly
        # (entries below -1 project to 0: clipping them at -2 keeps them finite).
        with np.errstate(over="ignore"):
            return _project_simplex(np.maximum(v - u[0], -2.0))
    r = int(idx[keep][-1])
    return np.maximum(v - shifted[r - 1] / r, 0.0)


def _descend(z0, sys: _Sys):
    z = _project_simplex(np.asarray(z0, dtype=float))
    f = _rho_z(z, sys)
    g = _grad_z(sys, z)
    step = 1.0
    iters = 0
    for _ in range(DESCENT_MAX_ITER):
        # Scale-free first-order test on the gradient scaled to max|g| = 1: on
        # the simplex |z - P(z - g)| is at most 1, so an unscaled test against
        # DESCENT_TOL * max|g| holds at every point once max|g| > 1 / DESCENT_TOL.
        g_max = float(np.max(np.abs(g)))
        if g_max == 0.0 or float(np.max(np.abs(z - _project_simplex(z - g / g_max)))) <= DESCENT_TOL:
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
