import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import macjam as mj
from macjam import cli
from _support import random_alloc, random_budget, random_config

# Single user, P_t = P_d = 10, T_t = 1, T = 10, no jamming: rho = 100/21.
K1 = mj.SystemConfig(10, (mj.UserParams(10.0, 10.0, 1),))
K1_ALLOC = mj.JammerAllocation((0.5,), 0.5)
NO_JAM = mj.JammerBudget(0.0)
K1_RHO = 100.0 / 21.0


def test_euler_constant_pinned_to_double_precision():
    assert mj.EULER_GAMMA == 0.57721566490153286
    assert mj.EULER_GAMMA == float(np.euler_gamma)


def test_upper_bound_hand_value():
    expected = 0.9 * math.log2(1.0 + K1_RHO)
    assert mj.sum_rate_ub(K1_ALLOC, K1, NO_JAM) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.273891233046251, rel=1e-14)


def test_lower_bound_hand_value():
    expected = 0.9 * math.log2(1.0 + K1_RHO * math.exp(-mj.EULER_GAMMA))
    assert mj.sum_rate_lb(K1_ALLOC, K1, NO_JAM) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.689480955537358, rel=1e-14)


def test_lower_bound_matches_per_user_sum_form():
    # Evaluate the bound through the per-user route: each user contributes
    # exp(E{log |h_hat|^2}) = est_var * exp(-kappa) inside the log.
    users = (mj.UserParams(8.0, 6.0, 1), mj.UserParams(8.0, 6.0, 1))
    cfg = mj.SystemConfig(12, users)
    alloc = mj.JammerAllocation((0.2, 0.2), 0.6)
    budget = mj.JammerBudget(2.5)
    p_wt, p_wd = mj.phase_jam_powers(alloc, cfg, budget)
    p_d_eff = cfg.data_power_vec() / (1.0 + p_wd)
    qualities = [mj.lmmse_quality(u, float(p_wt[k])) for k, u in enumerate(users)]
    denom = 1.0 + sum(p_d_eff[k] * q.err_var for k, q in enumerate(qualities))
    total = sum(
        p_d_eff[k] * math.exp(math.log(q.est_var) - mj.EULER_GAMMA)
        for k, q in enumerate(qualities)
    )
    per_user_form = cfg.data_len / cfg.block_len * math.log2(1.0 + total / denom)
    assert mj.sum_rate_lb(alloc, cfg, budget) == pytest.approx(per_user_form, rel=1e-12)


def test_all_zero_data_power_gives_exactly_zero():
    cfg = mj.SystemConfig(10, (mj.UserParams(5.0, 0.0, 1), mj.UserParams(5.0, 0.0, 1)))
    alloc = mj.JammerAllocation((0.25, 0.25), 0.5)
    budget = mj.JammerBudget(3.0)
    estimate, halfwidth = mj.sum_rate_mc(alloc, cfg, budget, mj.MonteCarloSettings(2000, 1))
    assert estimate == 0.0
    assert halfwidth == 0.0
    assert mj.sum_rate_ub(alloc, cfg, budget) == 0.0
    assert mj.sum_rate_lb(alloc, cfg, budget) == 0.0


def _exp_e1(x: float) -> float:
    """``e^x E1(x)`` from the power series of the exponential integral, for 0 < x <= 1."""
    series = math.fsum((-1) ** (k + 1) * x**k / (k * math.factorial(k)) for k in range(1, 21))
    return math.exp(x) * (-mj.EULER_GAMMA - math.log(x) + series)


def test_mc_matches_exact_value_single_user():
    # e E1(1) is the Gompertz constant.
    assert _exp_e1(1.0) == pytest.approx(0.59634736232319407434, rel=1e-15)
    # R = 0.9 * E[log2(1 + rho X)] with X ~ Exp(1), which is 0.9 e^(1/rho) E1(1/rho) / ln 2.
    oracle = 0.9 * _exp_e1(1.0 / K1_RHO) / math.log(2.0)
    mc = mj.MonteCarloSettings(samples=200_000, seed=2)
    estimate, halfwidth = mj.sum_rate_mc(K1_ALLOC, K1, NO_JAM, mc)
    assert abs(estimate - oracle) <= 3.0 * halfwidth


def test_bound_sandwich_over_random_configs():
    rng = np.random.default_rng(17)
    mc = mj.MonteCarloSettings(samples=20_000, seed=5)
    for _ in range(200):
        cfg = random_config(rng)
        alloc = random_alloc(rng, cfg.n_users)
        budget = random_budget(rng)
        report = mj.rate_report(alloc, cfg, budget, mc)
        slack = 3.0 * report.r_mc_halfwidth
        assert report.r_lb <= report.r_mc + slack
        assert report.r_mc - slack <= report.r_ub


def test_gap_identity():
    rng = np.random.default_rng(29)
    for _ in range(200):
        cfg = random_config(rng)
        alloc = random_alloc(rng, cfg.n_users)
        budget = random_budget(rng)
        rho = mj.objective_rho(alloc, cfg, budget)
        gap = mj.sum_rate_ub(alloc, cfg, budget) - mj.sum_rate_lb(alloc, cfg, budget)
        pref = cfg.data_len / cfg.block_len
        expected = pref * math.log2((1.0 + rho) / (1.0 + rho * math.exp(-mj.EULER_GAMMA)))
        assert gap == pytest.approx(expected, abs=1e-12)


def test_bounds_strictly_decrease_with_budget_under_uniform():
    rng = np.random.default_rng(31)
    for _ in range(25):
        cfg = random_config(rng)
        alloc = mj.uniform_allocation(cfg)
        powers = [0.0, 0.5, 2.0, 8.0, 32.0]
        ubs = [mj.sum_rate_ub(alloc, cfg, mj.JammerBudget(p)) for p in powers]
        lbs = [mj.sum_rate_lb(alloc, cfg, mj.JammerBudget(p)) for p in powers]
        assert all(a > b for a, b in zip(ubs, ubs[1:]))
        assert all(a > b for a, b in zip(lbs, lbs[1:]))


def test_mc_reproducible_and_worker_invariant():
    cfg = mj.SystemConfig(40, (mj.UserParams(5.0, 8.0, 2), mj.UserParams(3.0, 2.0, 1)))
    alloc = mj.JammerAllocation((0.3, 0.2), 0.5)
    budget = mj.JammerBudget(4.0)
    mc = mj.MonteCarloSettings(samples=50_000, seed=99)
    first = mj.sum_rate_mc(alloc, cfg, budget, mc)
    again = mj.sum_rate_mc(alloc, cfg, budget, mc)
    threaded = mj.sum_rate_mc(alloc, cfg, budget, mc, workers=3)
    assert first == again
    assert first == threaded


def _old_kernel_estimate(alloc, cfg, budget, mc):
    """The block kernel as first written, with a temporary per step: the bit reference."""
    coeffs, pref = mj.rates._sinr_coeffs(alloc, cfg, budget)
    total = total_sq = 0.0
    for b, m in mj.rates._block_sizes(mc.samples):
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence([mc.seed, b]))).random(
            (m, coeffs.size)
        )
        x = pref * np.log2(1.0 + (-np.log1p(-u)) @ coeffs)
        total += float(x.sum())
        total_sq += float((x * x).sum())
    return total, total_sq


def _setup(k, seed=7):
    rng = np.random.default_rng(seed + k)
    cfg = random_config(rng, k=k)
    return random_alloc(rng, k), cfg, random_budget(rng)


@pytest.mark.parametrize("k", [1, 4, 32])
def test_in_place_kernel_keeps_the_bits_of_the_temporary_kernel(k):
    alloc, cfg, budget = _setup(k)
    mc = mj.MonteCarloSettings(samples=20_001, seed=11)
    coeffs, pref = mj.rates._sinr_coeffs(alloc, cfg, budget)
    blocks = [mj.rates._draw_block(mc.seed, b, m, k) for b, m in mj.rates._block_sizes(mc.samples)]
    # One call over every block and the tail gives each block's sums, as one call per block does.
    sums, sums_sq = mj.rates._reduce(np.concatenate(blocks), coeffs, pref)
    one_by_one = [mj.rates._reduce(e, coeffs, pref) for e in blocks]
    assert sums == [s for s1, _ in one_by_one for s in s1]
    assert sums_sq == [s for _, s2 in one_by_one for s in s2]
    total = total_sq = 0.0
    for s1, s2 in zip(sums, sums_sq):
        total += s1
        total_sq += s2
    assert (total, total_sq) == _old_kernel_estimate(alloc, cfg, budget, mc)


@pytest.mark.parametrize("k", [1, 4, 8, 32])
@pytest.mark.parametrize(
    "samples",
    # A one-sample tail, no tail, and one span of 32 blocks plus more.
    [1, 8191, 8192, 8193, 16_384, 3 * 8192 + 1, 20_001, 33 * 8192 + 5],
)
def test_bank_gives_the_bits_of_a_fresh_draw(k, samples):
    alloc, cfg, budget = _setup(k)
    mc = mj.MonteCarloSettings(samples=samples, seed=5)
    bank = mj.draw_samples(mc, k)
    assert bank.draws.shape == (samples, k)
    assert bank.draws.flags.c_contiguous
    assert bank.draws.nbytes == samples * k * 8
    fresh = mj.sum_rate_mc(alloc, cfg, budget, mc)
    for workers in (1, 2, 3, 1_000_000):
        assert mj.sum_rate_mc(alloc, cfg, budget, mc, workers=workers) == fresh
        assert mj.sum_rate_mc(alloc, cfg, budget, mc, workers=workers, bank=bank) == fresh
    report = mj.rate_report(alloc, cfg, budget, mc, bank=bank)
    assert report == mj.rate_report(alloc, cfg, budget, mc)


def test_bank_is_read_only():
    bank = mj.draw_samples(mj.MonteCarloSettings(samples=10, seed=1), 2)
    with pytest.raises(ValueError):
        bank.draws[0, 0] = 1.0


def test_bank_report_temporaries_stay_within_one_span():
    # 40 blocks of one user: priced in one pass, the temporaries would take 2.5 MiB.
    alloc, cfg, budget = _setup(1)
    mc = mj.MonteCarloSettings(samples=40 * 8192, seed=3)
    bank = mj.draw_samples(mc, 1)
    before = bank.draws.tobytes()
    span_bytes = mj.rates._SPAN_BLOCKS * 8192 * 8
    tracemalloc.start()
    try:
        mj.sum_rate_mc(alloc, cfg, budget, mc, bank=bank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert span_bytes == 2 * 2**20
    assert peak < span_bytes + 2**18
    assert bank.draws.tobytes() == before


class _CountedThread(threading.Thread):
    """A ``threading.Thread`` that counts its starts in ``started``."""

    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize(
    "cpus, samples, threads",
    [(64, 3 * 8192, 3), (2, 3 * 8192, 2), (None, 3 * 8192, None), (64, 8192, None)],
)
def test_thread_pool_is_capped_at_blocks_and_cpus(monkeypatch, cpus, samples, threads):
    # The caller is one of the threads: it starts the others, none where one
    # thread runs.  A banked report runs on the caller alone.
    alloc, cfg, budget = _setup(4)
    mc = mj.MonteCarloSettings(samples=samples, seed=8)
    expected = mj.sum_rate_mc(alloc, cfg, budget, mc)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    for bank, helpers in ((None, (threads or 1) - 1), (mj.draw_samples(mc, 4), 0)):
        monkeypatch.setattr(_CountedThread, "started", 0)
        before = threading.active_count()
        assert mj.sum_rate_mc(alloc, cfg, budget, mc, workers=1_000_000, bank=bank) == expected
        assert _CountedThread.started == helpers
        assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 3, 1_000_000])
def test_banked_report_starts_no_thread(monkeypatch, workers):
    # Two spans of K = 2: the first of 32 blocks, then one block and a tail.
    alloc, cfg, budget = _setup(2)
    mc = mj.MonteCarloSettings(samples=33 * 8192 + 5, seed=6)
    bank = mj.draw_samples(mc, 2)
    expected = mj.sum_rate_mc(alloc, cfg, budget, mc, bank=bank)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    before = threading.active_count()
    assert mj.sum_rate_mc(alloc, cfg, budget, mc, workers=workers, bank=bank) == expected
    assert _CountedThread.started == 0
    assert threading.active_count() == before


class _Boom(Exception):
    pass


@pytest.mark.parametrize("banked", [False, True], ids=["fresh", "bank"])
@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_an_error_in_any_thread_is_raised_after_every_helper_ends(monkeypatch, failing, banked):
    alloc, cfg, budget = _setup(4)
    mc = mj.MonteCarloSettings(samples=6 * 8192, seed=9)
    bank = mj.draw_samples(mc, 4) if banked else None
    expected = mj.sum_rate_mc(alloc, cfg, budget, mc)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    caller = threading.current_thread()
    entered = {"caller": threading.Event(), "helper": threading.Event()}
    priced, helpers = [], []
    reduce = mj.rates._reduce

    def flaky(*args):
        role = "caller" if threading.current_thread() is caller else "helper"
        other = "helper" if role == "caller" else "caller"
        priced.append(role)
        if banked:
            # A banked report starts no helper: its one span fails on the caller.
            raise _Boom(failing)
        if role == "helper":
            helpers.append(threading.current_thread())
        entered[role].set()
        # Each thread waits for the other to take a block, so both price one.
        assert entered[other].wait(timeout=30)
        if role == failing:
            raise _Boom(role)
        if role == "caller":
            # Returns once the failed helper has ended: no block may be taken after that.
            helpers[0].join(timeout=30)
            assert not helpers[0].is_alive()
        return reduce(*args)

    before = threading.active_count()
    assert mj.sum_rate_mc(alloc, cfg, budget, mc, workers=2, bank=bank) == expected
    assert threading.active_count() == before
    monkeypatch.setattr(mj.rates, "_reduce", flaky)
    with pytest.raises(_Boom, match=failing):
        mj.sum_rate_mc(alloc, cfg, budget, mc, workers=2, bank=bank)
    assert threading.active_count() == before
    if banked:
        assert priced == ["caller"]
    elif failing == "helper":
        assert sorted(priced) == ["caller", "helper"]


def test_concurrent_callers_get_the_serial_bits():
    alloc, cfg, budget = _setup(4)
    mc = mj.MonteCarloSettings(samples=6 * 8192 + 7, seed=4)
    bank = mj.draw_samples(mc, 4)
    expected = mj.sum_rate_mc(alloc, cfg, budget, mc)
    results = [[] for _ in range(4)]

    def call(out):
        for _ in range(5):
            out.append(mj.sum_rate_mc(alloc, cfg, budget, mc, workers=2))
            out.append(mj.sum_rate_mc(alloc, cfg, budget, mc, workers=2, bank=bank))

    callers = [threading.Thread(target=call, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == [[expected] * 10] * 4


FORK_CHILD = """
import json, os
import macjam as mj
os.cpu_count = lambda: 2
cfg = mj.SystemConfig(40, (mj.UserParams(5.0, 8.0, 2), mj.UserParams(3.0, 2.0, 1)))
alloc, budget = mj.JammerAllocation((0.3, 0.2), 0.5), mj.JammerBudget(4.0)
mc = mj.MonteCarloSettings(samples=4 * 8192, seed=3)
serial = mj.sum_rate_mc(alloc, cfg, budget, mc)
assert mj.sum_rate_mc(alloc, cfg, budget, mc, workers=2) == serial
pid = os.fork()
if pid == 0:
    same = all(mj.sum_rate_mc(alloc, cfg, budget, mc, workers=2) == serial for _ in range(5))
    print(json.dumps({"same": same}), flush=True)
    os._exit(0)
os.waitpid(pid, 0)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_the_serial_bits_on_threads():
    # A child forked after a threaded report starts helpers of its own for its reports.
    env = dict(os.environ, PYTHONPATH=str(Path(mj.__file__).resolve().parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", FORK_CHILD], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert json.loads(child.stdout) == {"same": True}


def test_bank_for_other_draws_is_rejected():
    alloc, cfg, budget = _setup(4)
    mc = mj.MonteCarloSettings(samples=9000, seed=5)
    others = [
        mj.draw_samples(mj.MonteCarloSettings(samples=9000, seed=6), 4),
        mj.draw_samples(mj.MonteCarloSettings(samples=8999, seed=5), 4),
        mj.draw_samples(mc, 3),
    ]
    for bank in others:
        with pytest.raises(ValueError, match="sample bank drawn for"):
            mj.sum_rate_mc(alloc, cfg, budget, mc, bank=bank)
        with pytest.raises(ValueError, match="sample bank drawn for"):
            mj.rate_report(alloc, cfg, budget, mc, bank=bank)


@pytest.mark.parametrize("workers", [0, -3, 1.5, True])
def test_worker_count_below_one_is_rejected(workers):
    mc = mj.MonteCarloSettings(samples=100, seed=1)
    with pytest.raises(ValueError, match="workers"):
        mj.sum_rate_mc(K1_ALLOC, K1, NO_JAM, mc, workers=workers)


# The tiny sweep's bank: 9000 samples x 2 users x 8 bytes.
TINY_BANK_BYTES = 9000 * 2 * 8


@pytest.mark.parametrize(
    "max_bytes, draws", [(TINY_BANK_BYTES, 1), (TINY_BANK_BYTES - 1, 0)]
)
def test_sweep_draws_its_samples_once_if_they_fit(tmp_path, monkeypatch, max_bytes, draws):
    scenario = tmp_path / "tiny.scenario"
    scenario.write_text(
        "block_len: 10\n"
        "users:\n"
        "  - {train_len: 1, train_power_db: 10.0, data_power_db: 10.0}\n"
        "  - {train_len: 2, train_power_db: 6.0, data_power_db: 8.0}\n"
        "jammer: {sweep: {min_db: 0.0, max_db: 10.0, step_db: 5.0}}\n"
        "mc: {samples: 9000, seed: 3}\n"
        "output: tiny\n"
    )
    spec = mj.load_scenario(scenario)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return mj.draw_samples(*args, **kwargs)

    monkeypatch.setattr(cli, "draw_samples", counting)
    monkeypatch.setattr(cli, "SWEEP_BANK_MAX_BYTES", max_bytes)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    monkeypatch.setattr(_CountedThread, "started", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rows = cli.run_sweep(spec, workers=2)
    assert len(rows) == 3
    assert calls == [(spec.mc, 2)] * draws
    # Each of the 6 reports that draws its own samples starts one helper for its
    # second block; a report priced from the bank starts none.
    assert _CountedThread.started == 6 * (1 - draws)
    # With or without the shared bank, each report equals one that drew its own samples.
    cfg = mj.to_system_config(spec)
    for row in rows:
        budget = mj.JammerBudget(mj.db_to_linear(row.pw_db))
        assert row.opt == mj.rate_report(mj.solve(cfg, budget).alloc, cfg, budget, spec.mc)
        assert row.unif == mj.rate_report(mj.uniform_allocation(cfg), cfg, budget, spec.mc)


def test_mc_seed_changes_estimate():
    mc_a = mj.MonteCarloSettings(samples=5_000, seed=1)
    mc_b = mj.MonteCarloSettings(samples=5_000, seed=2)
    a = mj.sum_rate_mc(K1_ALLOC, K1, NO_JAM, mc_a)
    b = mj.sum_rate_mc(K1_ALLOC, K1, NO_JAM, mc_b)
    assert a != b


def test_monte_carlo_settings_validation():
    for samples in (0, 1.5, True):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            mj.MonteCarloSettings(samples=samples)
    assert type(mj.MonteCarloSettings(samples=np.int64(10)).samples) is int
    with pytest.raises(ValueError, match="n_users must be an integer >= 1"):
        mj.draw_samples(mj.MonteCarloSettings(samples=10), 0)
    with pytest.raises(ValueError):
        mj.MonteCarloSettings(samples=10, seed=-1)
    with pytest.raises(ValueError):
        mj.MonteCarloSettings(samples=10, confidence_z=0.0)


def test_rate_report_validation():
    with pytest.raises(ValueError):
        mj.RateReport(r_lb=1.0, r_mc=0.5, r_mc_halfwidth=0.0, r_ub=0.5)
    with pytest.raises(ValueError):
        mj.RateReport(r_lb=-0.1, r_mc=0.5, r_mc_halfwidth=0.0, r_ub=0.5)
