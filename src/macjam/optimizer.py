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

Arithmetic.  A solve is O(K) scalar work, so the primary solver (closed
form, path, exact row solves, gradient, certificate) runs on Python floats,
and so do both reference solvers: the oracle's polish and the gradient pair
descent value every line-search trial through one evaluator,
:func:`_pair_trial`, which recomputes only the two moved users' terms
(30 configs at K = 16-32: descent 6.4 s before, 2.4 s after, on a 2-core
VM; the pairwise sum in Python, below, took ~30% more off).  Only batch
evaluation over many points, the oracle's start set and
``model.rho_value``, stays on NumPy arrays; no solve, polish or descent
calls NumPy.  Two rules give the float code the bits of the same formulas
evaluated on NumPy vectors.  Sums: every sum over users is
:func:`_user_sum`, which adds from 0.0 left to right up to 7 terms and
from 8 runs NumPy's pairwise algorithm in Python (:func:`_pairwise`), so
it has the bits of ``ndarray.sum`` (a NaN sum's sign bit aside).
Squares: ``** 2`` on an array multiplies, but on a scalar (a Python float
or a NumPy scalar) it calls libm ``pow``, which can round differently; so a
per-user square is written ``x * x`` and a square of one scalar for all
users, ``(E zeta_d + T_d) ** 2`` and ``e_fac ** 2``, stays ``** 2``.

One system per solve.  Every solver builds the per-call system ``_Sys`` (the
users' powers and windows, ``w``, ``x``, their data-power sum, ``T_d`` and
the energy) once, in one pass over the users.  :func:`solve` runs the closed
form and, where that does not certify, the path on that one system, through
the private helpers that the public :func:`solve_closed_form` and
:func:`solve_kkt` wrap; so it returns their bits.  Nothing outlives a call.

Independent cross-checks: a closed-form interior solution valid at high
jamming power, the infinite-power limit, a derivative-free oracle that
polishes once, from the best point of its seeded start set, and a gradient
pair descent from one start.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
    _config_terms,
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
DESCENT_TOL = 1e-9  # descent stops once every gap g_i - min g is at most this share of |g|
DESCENT_MAX_ITER = 5000

# The one UserParams field in which a user pair differs, per corollary.
_COROLLARY_FIELD = {1: "data_power", 2: "train_power", 3: "train_len"}

METHOD_KKT = "kkt_active_set"
METHOD_CLOSED_FORM = "closed_form"
METHOD_ORACLE = "oracle"
METHOD_DESCENT = "projected_descent"


class SolverError(RuntimeError):
    """Solver did not reach the requested residual; carries the last residual.

    ``str`` of the error is ``message`` followed by ``(residual ...)``;
    ``message`` alone is kept, so a caller that adds context can wrap it
    without printing the residual twice."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.message = message
        self.residual = residual


@dataclass(frozen=True)
class SolveResult:
    """Optimal allocation with first-order optimality diagnostics.

    ``lambdas`` holds the nonnegativity multipliers, training coordinates
    first and the data coordinate last; ``active_set`` lists the coordinate
    indices pinned at zero in the same indexing (index K is the data phase).
    ``iterations`` is, per method: the path rows solved (KKT), 0 (closed
    form), the polish sweeps (oracle) and the pair transfers taken
    (projected descent).
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
    pt: tuple[float, ...]
    pd: tuple[float, ...]
    tt: tuple[float, ...]
    T: float
    Td: float
    energy: float  # P_w * T
    S: float       # sum of data powers
    w: tuple[float, ...]  # tt * sqrt(pd pt): free training denominators are proportional to it
    x: tuple[float, ...]  # tt * (1 + pt tt): training denominator with no jamming


def _energy(cfg: SystemConfig, budget: JammerBudget) -> float:
    """The jamming energy ``P_w T``; above ``MAX_ENERGY`` it is a ``ValueError``."""
    energy = budget.avg_power * cfg.block_len
    if energy > MAX_ENERGY:
        raise ValueError(f"jamming energy P_w T = {energy!r} exceeds the limit {MAX_ENERGY!r}")
    return energy


def _sys(cfg: SystemConfig, budget: JammerBudget) -> _Sys:
    """The per-solve system of ``cfg`` at ``budget``, in one pass over the users."""
    pt, pd, tt, w, x = [], [], [], [], []
    for u in cfg.users:
        p, d, t = u.train_power, u.data_power, float(u.train_len)
        pt.append(p)
        pd.append(d)
        tt.append(t)
        w.append(t * math.sqrt(d * p))
        x.append(t * (1.0 + p * t))
    return _Sys(
        pt=tuple(pt),
        pd=tuple(pd),
        tt=tuple(tt),
        T=float(cfg.block_len),
        Td=float(cfg.data_len),
        energy=_energy(cfg, budget),
        S=_user_sum(pd),
        w=tuple(w),
        x=tuple(x),
    )


def _user_sum(values) -> float:
    """The sum of the sequence ``values`` with the bits of ``ndarray.sum``,
    computed in Python: from 0.0 left to right up to 7 terms, and from 8
    NumPy's pairwise sum (:func:`_pairwise`) added to 0.0, NumPy's initial
    value.  A NaN sum may differ in its sign bit, as NumPy and Python keep
    different operands' NaN.  (Not ``sum``, which compensates from Python
    3.12.)"""
    if len(values) < 8:
        return functools.reduce(operator.add, values, 0.0)
    return 0.0 + _pairwise(values)


def _pairwise(values) -> float:
    """NumPy's pairwise sum of 8 or more terms, on Python floats: up to 128
    terms eight running sums, combined as ``((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7))``, then the terms after the last multiple of 8
    left to right; above 128 the same for each half, split at half the
    length rounded down to a multiple of 8."""
    n = len(values)
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise(values[:half]) + _pairwise(values[half:])
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
        r0 += a0
        r1 += a1
        r2 += a2
        r3 += a3
        r4 += a4
        r5 += a5
        r6 += a6
        r7 += a7
    return functools.reduce(operator.add, values[tail:], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))


def _nan_or(extreme, values) -> float:
    """``extreme`` (``min`` or ``max``) of ``values``, or NaN where any value is
    NaN, as ``ndarray.min`` and ``ndarray.max`` give."""
    return math.nan if any(map(math.isnan, values)) else extreme(values)


def _nan_last(value: float):
    """Search key of NumPy's float order, NaN after every number (inf included)."""
    return (math.isnan(value), value)


def _quotients(numerators, divisor: float) -> list[float]:
    """Each numerator over ``divisor``; a zero divisor gives NumPy's ``inf`` or
    NaN where Python would raise ``ZeroDivisionError``."""
    if divisor:
        return [a / divisor for a in numerators]
    return [a * math.copysign(math.inf, divisor) for a in numerators]


def _square(x: float) -> float:
    """``x ** 2``, or NumPy's ``inf`` where Python would raise ``OverflowError``."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _flat(sys: _Sys) -> bool:
    """A zero budget, or no user with ``w > 0``: every allocation is then optimal."""
    return sys.energy == 0.0 or not any(sys.w)


def _grad(sys: _Sys, zt, zd: float) -> tuple[list[float], float]:
    energy, pd = sys.energy, sys.pd
    s = [p * t / (1.0 + z * energy / t) for z, p, t in zip(zt, sys.pt, sys.tt)]
    gamma = 1.0 / (1.0 + zd * energy / sys.Td)
    e_fac2 = _square(1.0 + gamma * _user_sum([d / (1.0 + s_k) for d, s_k in zip(pd, s)]))
    scale, c = -energy * gamma, 1.0 + gamma * sys.S
    d_t = [energy * z + x for z, x in zip(zt, sys.x)]
    g_t = [scale * d * p * (t * t) * c / ((v * v) * e_fac2) for d, p, t, v in zip(pd, sys.pt, sys.tt, d_t)]
    alpha_sum = _user_sum([d * s_k / (1.0 + s_k) for d, s_k in zip(pd, s)])
    g_d = -energy * sys.Td * alpha_sum / ((energy * zd + sys.Td) ** 2 * e_fac2)
    return g_t, g_d


def _grad_z(sys: _Sys, z) -> list[float]:
    """The gradient at the point ``z`` (data ratio last), as one list."""
    g_t, g_d = _grad(sys, z[:-1], z[-1])
    g_t.append(g_d)
    return g_t


def _terms_z(sys: _Sys, z):
    """The users' alphas and betas at the point ``z`` (data ratio last), as two
    lists, and gamma."""
    zd, energy, t_d = z[-1], sys.energy, sys.Td
    alphas, betas = [], []
    for zk, p, d, t in zip(z, sys.pt, sys.pd, sys.tt):
        a, b, gamma = _ratio_terms(zk, zd, p, d, t, energy, t_d)
        alphas.append(a)
        betas.append(b)
    return alphas, betas, gamma


def _rho_terms(alphas, betas, gamma: float) -> float:
    return gamma * _user_sum(alphas) / (1.0 + gamma * _user_sum(betas))


def _rho_z(z, sys: _Sys) -> float:
    """The objective at the point ``z`` (data ratio last)."""
    return _rho_terms(*_terms_z(sys, z))


def _pair_trial(sys: _Sys, point, alphas, betas, up: int, down: int):
    """The function phi(t): rho at ``point`` with ``t`` moved from coordinate
    ``down`` to coordinate ``up`` (index K is the data phase).

    ``alphas`` and ``betas`` are the users' terms at ``point``.  A trial
    recomputes with :func:`_ratio_terms` only the terms of the moved users,
    taking gamma from either one, at the moved data ratio where the other
    coordinate is the data phase, and sums with :func:`_user_sum`; so
    ``phi(t)`` is bit for bit :func:`_rho_z` of the trial point, and the
    value that point has on NumPy arrays.
    """
    users = len(alphas)
    a, b = list(alphas), list(betas)
    pt, pd, tt, energy, t_d = sys.pt, sys.pd, sys.tt, sys.energy, sys.Td
    z_up, z_down, z_data = point[up], point[down], point[-1]

    def phi(t):
        new_up, new_down = z_up + t, z_down - t
        zd = new_up if up == users else new_down if down == users else z_data
        if up < users:
            a[up], b[up], gamma = _ratio_terms(new_up, zd, pt[up], pd[up], tt[up], energy, t_d)
        if down < users:
            a[down], b[down], gamma = _ratio_terms(new_down, zd, pt[down], pd[down], tt[down], energy, t_d)
        return _rho_terms(a, b, gamma)

    return phi


def _ratios(zeta_t, users: int) -> list[float]:
    """The training ratios given to a public function, as ``users`` floats."""
    return np.broadcast_to(np.asarray(zeta_t, dtype=float), (users,)).tolist()


def rho_gradient(zeta_t, zeta_d, cfg: SystemConfig, budget: JammerBudget):
    """Analytic gradient of the objective in the raw ratio coordinates.

    Ratios >= 0 keep every denominator positive; negative ratios that make
    one exactly 0 raise ``ZeroDivisionError``, as does :func:`evaluate_kkt`.
    """
    sys = _sys(cfg, budget)
    g_t, g_d = _grad(sys, _ratios(zeta_t, cfg.n_users), float(zeta_d))
    return np.array(g_t), g_d


def evaluate_kkt(zeta_t, zeta_d, nu: float, cfg: SystemConfig, budget: JammerBudget):
    """First-order optimality residual at a point, for a given equality multiplier.

    Eliminates the nonnegativity multipliers as slacks, ``lambda = grad + nu``,
    and returns ``(residual, lambdas)`` where the residual is the largest
    violation among budget feasibility, ratio nonnegativity, multiplier
    nonnegativity and complementary slackness.
    """
    z = _ratios(zeta_t, cfg.n_users) + [float(zeta_d)]
    lam = [g + nu for g in _grad_z(_sys(cfg, budget), z)]
    return _residual(z, lam), np.array(lam)


def _residual(z, lam) -> float:
    """Largest KKT violation at the point ``z`` (data ratio last) with
    multipliers ``lam``: budget, ratio signs, multiplier signs and
    complementary slackness.  NaN where any term is NaN, so a NaN never
    certifies: a NaN ratio or multiplier makes its product NaN too."""
    budget = abs(_user_sum(z) - 1.0)
    slack = [abs(g * v) for g, v in zip(lam, z)]
    if budget != budget or any(map(math.isnan, slack)):
        return math.nan
    return max(budget, -min(z), -min(lam), max(slack))


def _refine_active_set(sys: _Sys, free) -> list[float]:
    """Exact solve of the stationarity + budget system on a fixed free set.

    On the free set (the K + 1 booleans ``free``, data last) the stationarity
    equations collapse to one scalar: every free training denominator is
    proportional to ``tt_k * sqrt(pd_k pt_k)``.  With the data ratio free the
    constant solves a quadratic, otherwise it is linear in the budget.
    Returns the point ``z``, which exists on every row of :func:`_path` that
    :func:`solve_kkt` solves: each row but the data-only one frees a user
    with ``w > 0``, so ``w_free > 0``, and with some user of ``w > 0`` (the
    objective is not flat) ``_path`` opens the data-only row only where
    ``A2_0 r^2 >= c0 > 0``, so ``a2 > 0``.  Either way the divisors below
    are positive, but for ``w_free * energy``, which can underflow to 0.
    """
    w, x_thr, energy = sys.w, sys.x, sys.energy
    users = len(w)
    free_t = [k for k in range(users) if free[k]]
    w_free = _user_sum([w[k] for k in free_t])
    x_free = _user_sum([x_thr[k] for k in free_t])
    z = [0.0] * (users + 1)
    if not free[-1]:
        # Expanded form of (cp * w_k - x_k) / energy with cp = (energy + XA)/WA;
        # the direct form cancels catastrophically when energy << XA.
        corrections = _quotients([w[k] * x_free - x_thr[k] * w_free for k in free_t], w_free * energy)
        for k, correction in zip(free_t, corrections):
            z[k] = w[k] / w_free + correction
    else:
        # a2 = sum of the pinned users' alpha at zero jamming, summed directly:
        # S - sum_free pd - sum_pinned beta cancels when a pinned pd is tiny.
        a2 = _user_sum([
            d * (p * t) / (1.0 + p * t)
            for k, (p, d, t) in enumerate(zip(sys.pt, sys.pd, sys.tt))
            if not free[k]
        ])
        rhs = energy + sys.Td * (1.0 + sys.S) + x_free
        # Positive root of a2 cp^2 + 2 w_free cp - rhs = 0, without the
        # cancellation of (-w_free + sqrt(...)) / a2 when a2 is small.
        cp = rhs / (w_free + math.sqrt(w_free * w_free + a2 * rhs))
        d_d = energy + sys.Td + x_free - cp * w_free
        z[-1] = (d_d - sys.Td) / energy
        for k in free_t:
            z[k] = (cp * w[k] - x_thr[k]) / energy
    return z


def _path(sys: _Sys):
    """The water-filling path of the free set in the energy E = P_w T.

    Sorts the users by threshold ``r = x / w``; users with ``w = 0`` come last
    and are never freed.  Returns ``(coords, starts, rows)``: path row ``i``
    frees the coordinates ``coords[: i + 1]`` (index K is the data phase) for
    E from ``starts[i]`` to ``starts[i + 1]``, and ``rows`` are the rows whose
    interval meets ``[E (1 - PATH_WINDOW), E (1 + PATH_WINDOW)]`` at the
    energy of ``sys``.  The first row starts at E = 0 and frees the first
    user, or the data phase where no user is free at E = 0+.  The order and
    the searches treat a NaN (an ``inf / inf`` threshold at overflowing
    powers) as NumPy does, after every number.
    """
    w, x = sys.w, sys.x
    users = len(w)
    thr = [xk / wk if wk > 0.0 else math.inf for wk, xk in zip(w, x)]
    order = sorted([k for k in range(users) if thr[k] == thr[k]], key=thr.__getitem__)
    order += [k for k in range(users) if thr[k] != thr[k]]
    alpha0 = [d * (p * t) / (1.0 + p * t) for p, d, t in zip(sys.pt, sys.pd, sys.tt)]
    # A2_m, the pinned users' alpha at zero jamming, summed from the last user.
    a2 = [*itertools.accumulate([alpha0[k] for k in reversed(order)])][::-1]
    a2.append(0.0)
    order = order[: users - w.count(0.0)]  # w is never negative or NaN
    r = [thr[k] for k in order]
    w_cum = [0.0, *itertools.accumulate([w[k] for k in order])]
    x_cum = [0.0, *itertools.accumulate([x[k] for k in order])]
    c0 = sys.Td * (1.0 + sys.S)
    # A2_m r^2 for user m + 1's r: every pinned r_k >= r, so it is at most sum x
    # where r * r alone can overflow.
    quad = [(a * r_i) * r_i for a, r_i in zip(a2, r)]
    # The data ratio at cp = r has the sign of A2_m r^2 + W_m r - c0, so the data
    # phase switches on with the first m users free where that is >= 0.
    m = next((i for i, r_i in enumerate(r) if quad[i] + w_cum[i] * r_i >= c0), len(r))
    # The energy at which user m + 1 switches on, with the data ratio pinned
    # before the data event and free after it.
    user_on = [
        r_i * w_cum[i] - x_cum[i] if i < m else quad[i] + 2.0 * w_cum[i] * r_i - c0 - x_cum[i]
        for i, r_i in enumerate(r)
    ]
    data_on = 0.0
    if m:
        w_d, x_d = w_cum[m], x_cum[m]
        # The positive root of A2 cp^2 + W cp = c0, without cancellation.
        data_on = 2.0 * c0 / (w_d + math.sqrt(w_d * w_d + 4.0 * a2[m] * c0)) * w_d - x_d
    starts = user_on[:m] + [data_on] + user_on[m:]
    coords = order[:m] + [users] + order[m:]
    ends = starts[1:] + [math.inf]
    rows = range(
        bisect.bisect_left(ends, _nan_last(sys.energy * (1.0 - PATH_WINDOW)), key=_nan_last),
        bisect.bisect_right(starts, _nan_last(sys.energy * (1.0 + PATH_WINDOW)), key=_nan_last),
    )
    return coords, starts, rows


def _flat_result(cfg: SystemConfig, sys: _Sys, method: str) -> SolveResult:
    """The duration-proportional split, certified with ``nu`` and residual 0, on
    a flat objective; the residual is NaN where rho is not finite (a user's
    powers overflow), so that no NaN or infinite rho certifies."""
    alloc = uniform_allocation(cfg)
    rho = _rho_z([*alloc.zeta_t, alloc.zeta_d], sys)
    return SolveResult(
        alloc=alloc,
        rho_star=rho,
        nu_star=0.0,
        lambdas=(0.0,) * (cfg.n_users + 1),
        active_set=(),
        method=method,
        kkt_residual=0.0 if math.isfinite(rho) else math.nan,
        iterations=0,
    )


def _build_result(
    sys: _Sys, z, method: str, iterations: int, nu: float | None = None, grad: list[float] | None = None
) -> SolveResult:
    """The result at the point ``z`` (data ratio last), renormalized by
    :class:`JammerAllocation`.  ``grad``, the gradient at ``z``, is reused
    where the renormalization returns ``z`` unchanged, and recomputed at the
    renormalized point otherwise."""
    try:
        alloc = JammerAllocation(tuple(z[:-1]), z[-1])
    except ValueError as exc:
        raise SolverError(f"solver produced an infeasible allocation: {exc}", math.inf)
    z_alloc = [*alloc.zeta_t, alloc.zeta_d]
    g_all = grad if grad is not None and z_alloc == z else _grad_z(sys, z_alloc)
    z = z_alloc
    if nu is None:
        free = [g for g, v in zip(g_all, z) if v > ACTIVE_TOL]
        nu = max(0.0, -(_user_sum(free) / len(free))) if free else 0.0
    lam = [g + nu for g in g_all]
    return SolveResult(
        alloc=alloc,
        rho_star=_rho_z(z, sys),
        nu_star=float(nu),
        lambdas=tuple([v if v > 0.0 else 0.0 for v in lam]),  # max(0, v), NaN to 0 as well
        active_set=tuple([k for k, v in enumerate(z) if v <= ACTIVE_TOL]),
        method=method,
        kkt_residual=_residual(z, lam),
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
    counting the rows solved; a NaN certificate loses to any number.  A flat
    objective gives :func:`_flat_result`.  Raises :class:`SolverError` unless
    the result certifies to ``CERT_TOL``, so a NaN certificate raises.
    """
    return _solve_kkt(cfg, _sys(cfg, budget))


def _solve_kkt(cfg: SystemConfig, sys: _Sys) -> SolveResult:
    """:func:`solve_kkt` on the system ``sys`` of ``cfg``."""
    best = None
    if _flat(sys):
        best = _flat_result(cfg, sys, METHOD_KKT)
    else:
        coords, _, rows = _path(sys)
        for row in rows:
            free = [False] * (len(sys.pt) + 1)
            for k in coords[: row + 1]:
                free[k] = True
            z = _refine_active_set(sys, free)
            # A free ratio must be positive, and at a negative one the gradient can be NaN.
            if any(v <= 0.0 for v, f in zip(z, free) if f):
                continue
            g_all = _grad_z(sys, z)
            g_free = [g for g, f in zip(g_all, free) if f]
            nu = -(_user_sum(g_free) / len(g_free))
            result = _build_result(sys, z, METHOD_KKT, len(rows), nu=nu, grad=g_all)
            if best is None or _nan_last(result.kkt_residual) < _nan_last(best.kkt_residual):
                best = result
    residual = math.inf if best is None else best.kkt_residual
    if not residual <= CERT_TOL:
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
    out[coords] = np.array(starts) / sys.T
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
    return _solve_closed_form(_sys(cfg, budget))


def _solve_closed_form(sys: _Sys) -> SolveResult | None:
    """:func:`solve_closed_form` on the system ``sys``."""
    if _flat(sys):
        return None
    delta = _user_sum([p * (t * t) for p, t in zip(sys.pt, sys.tt)])
    zd = 0.5 + (_user_sum(sys.tt) + delta - sys.Td * (1.0 + sys.S)) / (2.0 * sys.energy)
    # The data ratio is one value: test it before building the K training ratios.
    if not zd > 0.0:
        return None
    eta = _user_sum(sys.w)
    c = sys.energy + sys.T + delta + sys.Td * sys.S
    two_eta = 2.0 * eta
    z = _quotients([w * c - two_eta * t * (1.0 + p * t) for w, p, t in zip(sys.w, sys.pt, sys.tt)], 2.0 * sys.energy * eta)
    if not all(v > 0.0 for v in z):
        return None
    z.append(zd)
    return _build_result(sys, z, METHOD_CLOSED_FORM, 0)


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
    """Closed form when it is interior and certifies to ``CERT_TOL``, :func:`solve_kkt` otherwise.

    The system ``_Sys`` is built once and both solvers run on it, through the
    private helpers that :func:`solve_closed_form` and :func:`solve_kkt` wrap;
    so the result is the one those two public solvers give, bit for bit.
    """
    sys = _sys(cfg, budget)
    result = _solve_closed_form(sys)
    if result is not None and result.kkt_residual <= CERT_TOL:
        return result
    return _solve_kkt(cfg, sys)


def _pair_descent(z, sys: _Sys):
    """Projected coordinate descent on the simplex via pairwise transfers.

    Moving mass t from coordinate j to coordinate i keeps the simplex exact;
    each pair is line-searched by golden section.  Derivative-free, so the
    polish shares nothing with the stationarity-based solvers.

    The search runs on Python floats.  The users' terms are kept for the
    current point, and every trial is valued by :func:`_pair_trial`, which
    recomputes only the two moved terms, so every value is bit for bit the
    :func:`_rho_z` of the trial point.  ``z`` is a list of floats.
    """
    z = list(z)
    users = len(z) - 1
    alphas, betas, gamma = _terms_z(sys, z)
    best = _rho_terms(alphas, betas, gamma)
    for sweeps in range(1, ORACLE_MAX_SWEEPS + 1):
        start = best
        for i in range(users):
            for j in range(i + 1, users + 1):
                lo, hi = -z[i], z[j]
                if hi - lo <= 1e-15:
                    continue
                phi = _pair_trial(sys, z, alphas, betas, i, j)
                _, _, c, fc, d, fd = _golden_section(phi, lo, hi, 1e-12)
                t_best, f_best = (c, fc) if fc <= fd else (d, fd)
                for t_edge in (lo, hi):
                    f_edge = phi(t_edge)
                    if f_edge < f_best:
                        t_best, f_best = t_edge, f_edge
                if f_best < best:
                    z[i] = max(z[i] + t_best, 0.0)
                    z[j] = max(z[j] - t_best, 0.0)
                    alphas, betas, _ = _terms_z(sys, z)
                    best = f_best
        if start - best <= ORACLE_REL_TOL * abs(start):
            break
    return z, best, sweeps


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
    the start only sets how far the polish travels.  The start set is
    valued on NumPy arrays (:func:`model._ratio_rho`), the polish on Python
    floats, every trial value the one ``_rho_z`` gives at the trial point.
    ``iterations`` is the polish's sweep count.  Only intended for tests and
    diagnostics.
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
    values = _ratio_rho(starts[:, :-1], starts[:, -1], *_config_terms(cfg, budget))
    z, _, sweeps = _pair_descent(starts[int(np.argmin(values))].tolist(), sys)
    return _build_result(sys, z, METHOD_ORACLE, sweeps)


def _descend(z0, sys: _Sys):
    """Gradient pair descent from ``z0``.  Each step moves mass to the coordinate
    ``up`` of least gradient from a positive one: the first, in order of
    first-order gain ``(g_i - g_up) z_i``, whose line search (golden section plus
    the edge that pins it at 0) lowers rho.  Returns the end as a list, its rho
    and the step count.  The step logic runs on Python floats with NumPy's NaN
    rules: ``up`` is the first NaN gradient if there is one (``argmin``), a
    NaN gap or scale is NaN (``max``), and the donors sort NaN last.  rho and
    its gradient are :func:`_rho_z` and :func:`_grad_z`, and every trial is
    valued by :func:`_pair_trial` from the step's terms, so each value is the
    ``_rho_z`` of the trial point.
    """
    z = [float(v) for v in z0]
    f = _rho_z(z, sys)
    steps = 0
    while steps < DESCENT_MAX_ITER:
        g = _grad_z(sys, z)
        up = min(range(len(g)), key=lambda k: (not math.isnan(g[k]), g[k]))
        pos = [v > 0.0 for v in z]
        gap = [gk - g[up] if p else 0.0 for gk, p in zip(g, pos)]
        # Relative to |g| over up and the positive coordinates only: a pinned
        # coordinate's gradient can be far larger and would stop it early.
        scale = max(abs(g[up]), _nan_or(max, [abs(gk) for gk, p in zip(g, pos) if p]))
        if _nan_or(max, gap) <= DESCENT_TOL * scale:
            break
        downs = sorted([k for k, v in enumerate(gap) if v > 0.0], key=lambda k: _nan_last(-(gap[k] * z[k])))
        alphas, betas, _ = _terms_z(sys, z)
        for down in downs:
            z_down = z[down]
            phi = _pair_trial(sys, z, alphas, betas, up, down)
            # 1e-12 * z_down underflows to 0 for a subnormal z_down, and at a
            # tolerance of 0 golden section need not end.
            tol = max(1e-12 * z_down, 1e-300)
            _, _, c, fc, d, fd = _golden_section(phi, 0.0, z_down, tol)
            t_best, f_best = min(((c, fc), (d, fd), (z_down, phi(z_down))), key=operator.itemgetter(1))
            if f_best < f:
                z[up] += t_best
                z[down] = z_down - t_best
                f = f_best
                steps += 1
                break
        else:
            break
    return z, f, steps


def solve_projected_descent(cfg: SystemConfig, budget: JammerBudget) -> SolveResult:
    """Gradient pair descent (:func:`_descend`) from the duration-proportional split.

    Defense in depth for :func:`solve_kkt`: it reads only rho and its gradient,
    never the path or the stationarity equations, and unlike the oracle's
    polish the gradient picks each pair and sets the stop.  One start suffices:
    rho is pseudoconvex on the simplex (module docstring).  The public name
    keeps "projected": each step follows the gradient projected onto an edge
    of the simplex, so no point needs projecting back.
    """
    sys = _sys(cfg, budget)
    z, _, steps = _descend(uniform_allocation(cfg).as_vector(), sys)
    return _build_result(sys, z, METHOD_DESCENT, steps)


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
