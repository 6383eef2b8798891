"""Ergodic sum-rate under jamming: Monte Carlo estimate and closed-form bounds.

The achievable rate averages ``log2(1 + SINR)`` over the users' channel
estimates, whose squared magnitudes are independent exponentials.  Jensen's
inequality gives the upper bound ``(T_d/T) log2(1 + rho)`` and the lower bound
``(T_d/T) log2(1 + rho * exp(-kappa))`` with the same jamming-dependent scalar
``rho`` in both, kappa being Euler's constant.  The Monte Carlo prices the
per-user SINR coefficients of :func:`macjam.model._sinr_coeffs`; their sum is
:func:`macjam.model.rho_from_estimation`, which tests tie to ``rho``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .model import (
    JammerAllocation,
    JammerBudget,
    SystemConfig,
    _require_count,
    _require_int,
    _sinr_coeffs,
    objective_rho,
)

__all__ = [
    "EULER_GAMMA",
    "MonteCarloSettings",
    "RateReport",
    "SampleBank",
    "draw_samples",
    "sum_rate_mc",
    "sum_rate_ub",
    "sum_rate_lb",
    "rate_report",
]

# Euler's constant to double precision; the coarse 0.577 of textbook tables is
# not enough for the identity checks in the test suite.
EULER_GAMMA = 0.57721566490153286

_LN2 = math.log(2.0)

# Samples are generated in fixed-size blocks, each from its own Philox stream
# keyed by (seed, block index).  Sample i therefore depends only on (seed, i),
# and worker count changes who computes a block, never its content.
_BLOCK = 8192

# A bank's report is priced in spans of at most this many blocks, so the kernel's
# temporaries stay at 2 MiB (32 x 8192 doubles) at any sample count.
_SPAN_BLOCKS = 32


@dataclass(frozen=True)
class MonteCarloSettings:
    samples: int = 200_000
    seed: int = 0
    confidence_z: float = 1.96

    def __post_init__(self):
        samples = _require_count("samples", self.samples)
        if _require_int("seed", self.seed) < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.confidence_z) or self.confidence_z <= 0.0:
            raise ValueError(f"confidence_z must be > 0, got {self.confidence_z!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "confidence_z", float(self.confidence_z))


@dataclass(frozen=True)
class RateReport:
    """Lower bound, Monte Carlo estimate with half-width, and upper bound."""

    r_lb: float
    r_mc: float
    r_mc_halfwidth: float
    r_ub: float

    def __post_init__(self):
        for name in ("r_lb", "r_mc", "r_mc_halfwidth", "r_ub"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if self.r_lb > self.r_ub:
            raise ValueError(f"r_lb {self.r_lb} exceeds r_ub {self.r_ub}")


def _block_sizes(samples: int) -> list[tuple[int, int]]:
    """``(block index, sample count)`` of every block of ``samples`` draws."""
    return [(i, min(_BLOCK, samples - i * _BLOCK)) for i in range((samples + _BLOCK - 1) // _BLOCK)]


def _draw_block(
    seed: int, block: int, count: int, n_users: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Unit-mean exponentials of one block, built in the array the generator fills.

    ``out``, if given, is that ``(count, n_users)`` C-contiguous array."""
    e = Generator(Philox(SeedSequence([seed, block]))).random((count, n_users), out=out)
    # Inverse-CDF exponentials -log1p(-u) keep the draw count per sample fixed.
    np.negative(e, out=e)
    np.log1p(e, out=e)
    np.negative(e, out=e)
    return e


def _block_sums(x: np.ndarray) -> list[float]:
    """The sum of each whole block of ``_BLOCK`` entries of ``x``, then of the shorter tail if any."""
    if len(x) <= _BLOCK:
        return [float(x.sum())]
    full = len(x) - len(x) % _BLOCK
    sums = x[:full].reshape(-1, _BLOCK).sum(axis=1).tolist()
    if full < len(x):
        sums.append(float(x[full:].sum()))
    return sums


def _reduce(e: np.ndarray, coeffs: np.ndarray, pref: float) -> tuple[list[float], list[float]]:
    """Per-block sums and sums of squares of ``pref * log2(1 + e @ coeffs)``.

    ``e``'s rows are whole blocks of ``_BLOCK`` samples, then at most one shorter
    tail.  Each row of the product depends on its own row only, and a row sum of
    the reshaped blocks is the same pairwise sum as a block's own ``sum()``, so
    every block sum has the bits of that block reduced alone."""
    x = e @ coeffs
    x += 1.0
    np.log2(x, out=x)
    x *= pref
    sums = _block_sums(x)
    x *= x
    return sums, _block_sums(x)


@dataclass(frozen=True, eq=False)
class SampleBank:
    """The exponential draws of one ``(seed, samples, n_users)`` as one array.

    Made by :func:`draw_samples` and passed to :func:`sum_rate_mc` or
    :func:`rate_report` through ``bank=``, so that reports sharing a seed
    (common random numbers) draw their samples once.  ``draws`` is a read-only,
    C-contiguous ``(samples, n_users)`` array whose rows ``[b * 8192, (b + 1) * 8192)``
    are block ``b``'s draws.  It holds ``samples * n_users * 8`` bytes: 6.4 MB
    for 200,000 samples of 4 users, 51 MB at 32 users.
    """

    seed: int
    samples: int
    n_users: int
    draws: np.ndarray


def draw_samples(mc: MonteCarloSettings, n_users: int) -> SampleBank:
    """Draw the samples that :func:`sum_rate_mc` would draw for ``mc`` and ``n_users`` users.

    Each block is generated in place into its rows of the bank, from the same
    Philox stream as a fresh draw."""
    n_users = _require_count("n_users", n_users)
    draws = np.empty((mc.samples, n_users))
    for b, m in _block_sizes(mc.samples):
        _draw_block(mc.seed, b, m, n_users, out=draws[b * _BLOCK : b * _BLOCK + m])
    draws.flags.writeable = False
    return SampleBank(mc.seed, mc.samples, n_users, draws)


def sum_rate_mc(
    alloc: JammerAllocation,
    cfg: SystemConfig,
    budget: JammerBudget,
    mc: MonteCarloSettings,
    workers: int = 1,
    bank: SampleBank | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the achievable ergodic sum-rate.

    Returns ``(estimate, halfwidth)`` in bits/symbol, where halfwidth is
    ``confidence_z`` times the standard error.  Deterministic for a fixed seed
    regardless of ``workers``: blocks are reduced in index order.

    Without ``bank`` each call draws its own samples, one block of 8192 at a
    time; with ``workers`` > 1, up to ``min(workers, blocks, os.cpu_count())``
    threads draw and reduce the blocks.  A ``bank`` from :func:`draw_samples`
    holds those same draws, so the result is the same bits; it must match
    ``(mc.seed, mc.samples, cfg.n_users)`` or this raises ``ValueError``.  A
    bank's report is priced on the calling thread, in spans of at most 32
    blocks (2 MiB of temporaries at any sample count); BLAS may use its own
    threads for the product, which changes no bit.  A bank costs
    ``samples * K * 8`` bytes of memory for as long as the caller keeps it:
    6.4 MB for the bundled fig2 sweep (200,000 samples, K = 4), 51 MB at K = 32.
    """
    _require_count("workers", workers)
    coeffs, pref = _sinr_coeffs(alloc, cfg, budget)
    if bank is None:
        k = coeffs.size
        blocks = _block_sizes(mc.samples)
        # Each submit starts a thread while none is idle, so the pool is capped
        # at what can run at once.
        threads = min(workers, len(blocks), os.cpu_count() or 1)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                stats = list(
                    pool.map(lambda b: _reduce(_draw_block(mc.seed, *b, k), coeffs, pref), blocks)
                )
        else:
            stats = [_reduce(_draw_block(mc.seed, b, m, k), coeffs, pref) for b, m in blocks]
    else:
        drawn_for, asked = (bank.seed, bank.samples, bank.n_users), (mc.seed, mc.samples, cfg.n_users)
        if drawn_for != asked:
            raise ValueError(
                f"sample bank drawn for (seed, samples, K) = {drawn_for}, asked for {asked}"
            )
        span = _SPAN_BLOCKS * _BLOCK
        stats = [_reduce(bank.draws[i : i + span], coeffs, pref) for i in range(0, mc.samples, span)]
    n = mc.samples
    total = 0.0
    total_sq = 0.0
    for sums, sums_sq in stats:
        for s1, s2 in zip(sums, sums_sq):
            total += s1
            total_sq += s2
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
    else:
        var = 0.0
    halfwidth = mc.confidence_z * math.sqrt(var / n)
    return mean, halfwidth


def sum_rate_ub(alloc: JammerAllocation, cfg: SystemConfig, budget: JammerBudget) -> float:
    """Jensen upper bound ``(T_d/T) log2(1 + rho)`` in bits/symbol."""
    rho = objective_rho(alloc, cfg, budget)
    return cfg.data_len / cfg.block_len * math.log1p(rho) / _LN2


def sum_rate_lb(alloc: JammerAllocation, cfg: SystemConfig, budget: JammerBudget) -> float:
    """Lower bound ``(T_d/T) log2(1 + rho * exp(-kappa))`` in bits/symbol.

    The log of an exponential variate with mean ``v`` averages to
    ``log(v) - kappa``, which collapses the per-user convexity bound to a
    single ``exp(-kappa)`` discount on rho.
    """
    rho = objective_rho(alloc, cfg, budget)
    return cfg.data_len / cfg.block_len * math.log1p(rho * math.exp(-EULER_GAMMA)) / _LN2


def rate_report(
    alloc: JammerAllocation,
    cfg: SystemConfig,
    budget: JammerBudget,
    mc: MonteCarloSettings,
    workers: int = 1,
    bank: SampleBank | None = None,
) -> RateReport:
    """Both bounds and the Monte Carlo estimate; ``workers`` and ``bank`` as in :func:`sum_rate_mc`."""
    estimate, halfwidth = sum_rate_mc(alloc, cfg, budget, mc, workers=workers, bank=bank)
    return RateReport(
        r_lb=sum_rate_lb(alloc, cfg, budget),
        r_mc=estimate,
        r_mc_halfwidth=halfwidth,
        r_ub=sum_rate_ub(alloc, cfg, budget),
    )
