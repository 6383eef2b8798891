"""Domain types and closed-form building blocks for jamming a training-based MAC.

All powers are linear and normalized to unit noise variance; dB appears only at
the configuration boundary (see :mod:`macjam.scenario`).  Each user's Rayleigh
channel has unit variance and is estimated by LMMSE from that user's
non-overlapping pilot symbols, so the estimate quality depends only on the
effective pilot SNR after jamming.

The post-detection SINR is written two independent ways: from the ratio form
(:func:`objective_rho`, :func:`rho_value`) and from the estimation variances
(:func:`_sinr_coeffs`, whose per-user coefficients the Monte Carlo prices and
whose sum is :func:`rho_from_estimation`).

The input domain, each limit with the one function that enforces it:

- powers from -30 to 80 dB and jamming budgets from -40 to 100 dB, with up
  to tens of users, are the ranges the solvers are tested and certified on;
  any finite power is accepted, a training power > 0 and a data power or
  budget >= 0 (:class:`UserParams`, :class:`JammerBudget`);
- a user whose products ``pt tt`` or ``pd pt`` overflow a float (above
  ~1.8e308) makes the objective NaN; ``optimizer.solve`` then raises
  ``SolverError``, because a NaN certificate never passes
  (``optimizer._residual``);
- a block of at most ``MAX_BLOCK_LEN`` = 2**53 symbols, longer than the
  users' training windows together (:func:`_require_lengths`);
- sample, user and worker counts are integers >= 1 (:func:`_require_count`);
- a jamming energy ``P_w T`` of at most ``optimizer.MAX_ENERGY`` = 1e120
  (``optimizer._energy``);
- a jammer sweep of at most ``scenario.MAX_SWEEP_POINTS`` = 10**6 points
  (``scenario.SweepRange``);
- an oracle grid resolution, which sets its start set's size, in (0, 1]
  with a finite reciprocal (``optimizer.solve_oracle``).

Known failure inside the domain: on about 3 in 1,000 random configs with
training windows of 1 to 200 symbols, ``optimizer.solve_kkt`` raises
``SolverError``, because renormalizing its refined point breaks the
certificate (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UserParams",
    "SystemConfig",
    "JammerBudget",
    "JammerAllocation",
    "EstimationQuality",
    "phase_jam_powers",
    "lmmse_quality",
    "alpha_beta_gamma",
    "objective_rho",
    "rho_from_estimation",
    "rho_value",
    "uniform_allocation",
]

# Allocation vectors must sum to 1 within this tolerance before renormalization.
ALLOC_SUM_TOL = 1e-6

# The longest block, in symbols; every other length is shorter.  Lengths enter
# the arithmetic as floats, which hold every integer up to 2**53 exactly.
MAX_BLOCK_LEN = 2**53


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_count(name: str, value) -> int:
    """A count (samples, users, workers): an integer, not a ``bool``, at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _require_lengths(block_len: int, total_train: int) -> None:
    """The block-length rules: at most ``MAX_BLOCK_LEN`` symbols, longer than all training."""
    if block_len > MAX_BLOCK_LEN:
        raise ValueError(f"block_len exceeds the limit MAX_BLOCK_LEN = 2**53 = {MAX_BLOCK_LEN}")
    if total_train >= block_len:
        raise ValueError(f"total training length {total_train} must be smaller than block_len {block_len}")


@dataclass(frozen=True)
class UserParams:
    """Per-user transmit parameters: pilot power, data power, pilot length.

    ``train_power * train_len`` is the user's pilot energy; it must be positive,
    otherwise the user has no channel estimate and contributes pure
    interference, a regime this model does not cover.  ``data_power`` may be
    zero (a silent user).
    """

    train_power: float
    data_power: float
    train_len: int

    def __post_init__(self):
        p_t = _require_finite("train_power", self.train_power)
        p_d = _require_finite("data_power", self.data_power)
        t_t = _require_int("train_len", self.train_len)
        if p_t <= 0.0:
            raise ValueError(f"train_power must be > 0, got {p_t}")
        if p_d < 0.0:
            raise ValueError(f"data_power must be >= 0, got {p_d}")
        if t_t < 1:
            raise ValueError(f"train_len must be >= 1, got {t_t}")
        object.__setattr__(self, "train_power", p_t)
        object.__setattr__(self, "data_power", p_d)
        object.__setattr__(self, "train_len", t_t)


@dataclass(frozen=True)
class SystemConfig:
    """Block structure of the legitimate system: block length and user list.

    The block of ``block_len`` symbols starts with the users' non-overlapping
    training windows (``total_train_len`` symbols in total) and ends with the
    shared data phase of ``data_len`` symbols.
    """

    block_len: int
    users: tuple[UserParams, ...]

    def __post_init__(self):
        t = _require_int("block_len", self.block_len)
        users = tuple(self.users)
        if len(users) < 1:
            raise ValueError("users must contain at least one user")
        for u in users:
            if not isinstance(u, UserParams):
                raise ValueError(f"users entries must be UserParams, got {type(u).__name__}")
        _require_lengths(t, sum(u.train_len for u in users))
        object.__setattr__(self, "block_len", t)
        object.__setattr__(self, "users", users)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def total_train_len(self) -> int:
        return sum(u.train_len for u in self.users)

    @property
    def data_len(self) -> int:
        return self.block_len - self.total_train_len

    def train_power_vec(self) -> np.ndarray:
        return np.array([u.train_power for u in self.users], dtype=float)

    def data_power_vec(self) -> np.ndarray:
        return np.array([u.data_power for u in self.users], dtype=float)

    def train_len_vec(self) -> np.ndarray:
        return np.array([u.train_len for u in self.users], dtype=float)


@dataclass(frozen=True)
class JammerBudget:
    """Average jamming power over the whole block (linear, unit-noise scale)."""

    avg_power: float

    def __post_init__(self):
        p = _require_finite("avg_power", self.avg_power)
        if p < 0.0:
            raise ValueError(f"avg_power must be >= 0, got {p}")
        object.__setattr__(self, "avg_power", p)


@dataclass(frozen=True)
class JammerAllocation:
    """Energy-ratio split: one ratio per user's training window plus one for data.

    Construction renormalizes the nonnegative input to sum exactly to one, but
    rejects inputs whose sum is off by more than ``ALLOC_SUM_TOL`` so caller
    bugs are not silently masked.
    """

    zeta_t: tuple[float, ...]
    zeta_d: float

    def __post_init__(self):
        zt = [float(z) for z in self.zeta_t]
        zd = float(self.zeta_d)
        vals = zt + [zd]
        if len(zt) < 1:
            raise ValueError("zeta_t must contain at least one entry")
        for i, z in enumerate(vals):
            if not math.isfinite(z) or z < 0.0:
                name = "zeta_d" if i == len(zt) else f"zeta_t[{i}]"
                raise ValueError(f"{name} must be finite and >= 0, got {z!r}")
        total = math.fsum(vals)
        if abs(total - 1.0) > ALLOC_SUM_TOL:
            raise ValueError(
                f"allocation ratios must sum to 1 (got {total!r}, tolerance {ALLOC_SUM_TOL})"
            )
        vals = [z / total for z in vals]
        # Pin the largest coordinate so the renormalized sum is exactly 1.0.
        top = max(range(len(vals)), key=lambda i: vals[i])
        for _ in range(3):
            excess = math.fsum(vals) - 1.0
            if excess == 0.0:
                break
            vals[top] -= excess
        object.__setattr__(self, "zeta_t", tuple(vals[:-1]))
        object.__setattr__(self, "zeta_d", vals[-1])

    @property
    def n_users(self) -> int:
        return len(self.zeta_t)

    def zeta_t_vec(self) -> np.ndarray:
        return np.array(self.zeta_t, dtype=float)

    def as_vector(self) -> np.ndarray:
        """All ratios as one vector, training entries first, data entry last."""
        return np.array(self.zeta_t + (self.zeta_d,), dtype=float)


def uniform_allocation(cfg: SystemConfig) -> JammerAllocation:
    """Duration-proportional split: constant jamming power across the block."""
    t = cfg.block_len
    return JammerAllocation(
        tuple(u.train_len / t for u in cfg.users), cfg.data_len / t
    )


@dataclass(frozen=True)
class EstimationQuality:
    """Variance split of a unit-variance channel into estimate and error parts."""

    est_var: float
    err_var: float

    def __post_init__(self):
        est = _require_finite("est_var", self.est_var)
        err = _require_finite("err_var", self.err_var)
        # lmmse_quality gives est_var = s / (1 + s) = 1.0 once the pilot SNR s reaches 2**53.
        if not (0.0 <= est <= 1.0):
            raise ValueError(f"est_var must lie in [0, 1], got {est}")
        if not (0.0 < err <= 1.0):
            raise ValueError(f"err_var must lie in (0, 1], got {err}")
        if abs(est + err - 1.0) > 1e-12:
            raise ValueError(f"est_var + err_var must equal 1, got {est + err!r}")
        object.__setattr__(self, "est_var", est)
        object.__setattr__(self, "err_var", err)


def _require_same_users(alloc: JammerAllocation, cfg: SystemConfig) -> None:
    if alloc.n_users != cfg.n_users:
        raise ValueError(f"allocation has {alloc.n_users} training ratios but config has {cfg.n_users} users")


def phase_jam_powers(
    alloc: JammerAllocation, cfg: SystemConfig, budget: JammerBudget
) -> tuple[np.ndarray, float]:
    """Per-phase jamming powers induced by an energy-ratio allocation.

    Returns ``(train_jam_powers, data_jam_power)`` where user k's training
    window is jammed with power ``zeta_t[k] * P_w * T / T_t_k`` and the data
    phase with ``zeta_d * P_w * T / T_d``.  The phase energies always add back
    up to the total budget energy ``P_w * T``.
    """
    _require_same_users(alloc, cfg)
    energy = budget.avg_power * cfg.block_len
    p_wt = alloc.zeta_t_vec() * energy / cfg.train_len_vec()
    p_wd = alloc.zeta_d * energy / cfg.data_len
    return p_wt, p_wd


def lmmse_quality(user: UserParams, train_jam_power: float) -> EstimationQuality:
    """LMMSE estimate/error variances for a pilot observed under jamming.

    With effective pilot SNR ``s = train_power / (1 + train_jam_power) *
    train_len`` the estimate variance is ``s / (1 + s)`` and the error variance
    ``1 / (1 + s)``.
    """
    jam = _require_finite("train_jam_power", train_jam_power)
    if jam < 0.0:
        raise ValueError(f"train_jam_power must be >= 0, got {jam}")
    s = user.train_power / (1.0 + jam) * user.train_len
    return EstimationQuality(est_var=s / (1.0 + s), err_var=1.0 / (1.0 + s))


def _config_terms(cfg: SystemConfig, budget: JammerBudget):
    """The per-config arguments of :func:`_ratio_terms`: ``(p_t, p_d, T_t, P_w T, T_d)``."""
    energy = budget.avg_power * cfg.block_len
    return cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec(), energy, cfg.data_len


def _ratio_terms(zeta_t, zeta_d, p_t, p_d, t_t, energy, t_d):
    """:func:`alpha_beta_gamma` over leading axes: ``zeta_t`` is a float array of
    shape ``(..., K)``, ``zeta_d`` a float or an array of shape ``(...)``; the
    config enters as the per-user vectors ``p_t``, ``p_d``, ``t_t`` (shape
    ``(K,)``), the energy ``P_w T`` and the data length ``t_d``
    (:func:`_config_terms`), so a caller that evaluates many points builds
    them once."""
    q = 1.0 + zeta_t * energy / t_t
    pilot = 1.0 + p_t * t_t / q
    alphas = (p_d * p_t * t_t / q) / pilot
    betas = p_d / pilot
    gamma = 1.0 / (1.0 + zeta_d * energy / t_d)
    return alphas, betas, gamma


def _ratio_rho(zeta_t, zeta_d, *terms):
    """:func:`rho_value` from :func:`_ratio_terms`' arguments; the users are the last axis."""
    alphas, betas, gamma = _ratio_terms(zeta_t, zeta_d, *terms)
    return gamma * alphas.sum(axis=-1) / (1.0 + gamma * betas.sum(axis=-1))


def alpha_beta_gamma(
    alloc: JammerAllocation, cfg: SystemConfig, budget: JammerBudget
) -> tuple[np.ndarray, np.ndarray, float]:
    """Constituents of the jammer's objective, straight from the ratio form.

    For each user, with ``q_k = 1 + zeta_t_k * P_w * T / T_t_k``,

        alpha_k = (P_d_k P_t_k T_t_k / q_k) / (1 + P_t_k T_t_k / q_k)
        beta_k  = P_d_k / (1 + P_t_k T_t_k / q_k)

    and ``gamma = 1 / (1 + zeta_d * P_w * T / T_d)``.  ``alpha_k`` falls and
    ``beta_k`` rises as the training jamming share grows.
    """
    _require_same_users(alloc, cfg)
    return _ratio_terms(alloc.zeta_t_vec(), alloc.zeta_d, *_config_terms(cfg, budget))


def objective_rho(
    alloc: JammerAllocation, cfg: SystemConfig, budget: JammerBudget
) -> float:
    """Effective-SINR scalar the jammer minimizes; both rate bounds increase in it."""
    alphas, betas, gamma = alpha_beta_gamma(alloc, cfg, budget)
    return float(gamma * alphas.sum() / (1.0 + gamma * betas.sum()))


def _sinr_coeffs(alloc, cfg, budget):
    """Per-user SINR coefficients: sample rate is pref*log2(1 + coeffs @ exp)."""
    p_wt, p_wd = phase_jam_powers(alloc, cfg, budget)
    p_d_eff = cfg.data_power_vec() / (1.0 + p_wd)
    s = cfg.train_power_vec() / (1.0 + p_wt) * cfg.train_len_vec()
    est_var = s / (1.0 + s)
    err_var = 1.0 / (1.0 + s)
    denom = 1.0 + (err_var * p_d_eff).sum()
    coeffs = p_d_eff * est_var / denom
    pref = cfg.data_len / cfg.block_len
    return coeffs, pref


def rho_from_estimation(
    alloc: JammerAllocation, cfg: SystemConfig, budget: JammerBudget
) -> float:
    """Same scalar as :func:`objective_rho`, via the estimation-variance route.

    The sum of the per-user coefficients of :func:`_sinr_coeffs`, which the
    Monte Carlo of :mod:`macjam.rates` prices: each is a user's effective data
    power times its LMMSE estimate variance, over one plus the error-variance
    interference.  Kept as a deliberately independent code path; the
    algebraic identity with :func:`objective_rho` is enforced by tests.
    """
    coeffs, _ = _sinr_coeffs(alloc, cfg, budget)
    return float(coeffs.sum())


def rho_value(
    zeta_t, zeta_d, cfg: SystemConfig, budget: JammerBudget
) -> np.ndarray:
    """:func:`objective_rho` over raw ratio arrays (no allocation validation).

    ``zeta_t`` has shape ``(..., K)`` and ``zeta_d`` shape ``(...)``; the two
    broadcast together.  The optimizer's start sets and line searches
    evaluate the same function through :func:`_ratio_rho`, with the config's
    vectors built once per solve.
    """
    zt, zd = np.asarray(zeta_t, dtype=float), np.asarray(zeta_d, dtype=float)
    return _ratio_rho(zt, zd, *_config_terms(cfg, budget))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, a: float, b: float, tol: float):
    """Golden-section search for a minimum of the unimodal ``f`` on ``[a, b]``.

    Shrinks the bracket until ``b - a <= tol`` and returns the final one as
    ``(a, b, c, f(c), d, f(d))`` with ``a <= c <= d <= b``.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return a, b, c, fc, d, fd
