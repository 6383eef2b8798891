import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import macjam as mj
from macjam.model import MAX_BLOCK_LEN, _ratio_terms
from _support import random_alloc, random_budget, random_config


def test_user_params_validation():
    with pytest.raises(ValueError):
        mj.UserParams(train_power=0.0, data_power=1.0, train_len=1)
    with pytest.raises(ValueError):
        mj.UserParams(train_power=-1.0, data_power=1.0, train_len=1)
    with pytest.raises(ValueError):
        mj.UserParams(train_power=1.0, data_power=-0.5, train_len=1)
    with pytest.raises(ValueError):
        mj.UserParams(train_power=1.0, data_power=1.0, train_len=0)
    with pytest.raises(ValueError):
        mj.UserParams(train_power=1.0, data_power=1.0, train_len=1.5)
    with pytest.raises(ValueError, match="train_power must be finite"):
        mj.UserParams(train_power=math.inf, data_power=1.0, train_len=1)
    # a silent user (no data power) is allowed
    mj.UserParams(train_power=1.0, data_power=0.0, train_len=1)


def test_system_config_requires_data_phase():
    u5 = mj.UserParams(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        mj.SystemConfig(5, (u5,))
    with pytest.raises(ValueError):
        mj.SystemConfig(10, (u5, u5))
    with pytest.raises(ValueError):
        mj.SystemConfig(10, ())
    with pytest.raises(ValueError, match="users entries must be UserParams, got tuple"):
        mj.SystemConfig(10, ((1.0, 1.0, 1),))
    cfg = mj.SystemConfig(11, (u5, u5))
    assert cfg.n_users == 2
    assert cfg.total_train_len == 10
    assert cfg.data_len == 1


def test_system_config_rejects_block_len_beyond_the_limit():
    u1 = mj.UserParams(1.0, 1.0, 1)
    assert mj.SystemConfig(MAX_BLOCK_LEN, (u1,)).data_len == MAX_BLOCK_LEN - 1
    for block_len in (MAX_BLOCK_LEN + 1, 10**400):
        with pytest.raises(ValueError, match=r"block_len exceeds the limit MAX_BLOCK_LEN = 2\*\*53"):
            mj.SystemConfig(block_len, (u1,))


def test_jammer_budget_validation():
    mj.JammerBudget(0.0)
    with pytest.raises(ValueError):
        mj.JammerBudget(-1e-9)


def test_allocation_renormalizes_to_exact_unit_sum():
    a = mj.JammerAllocation((0.25, 0.25 + 3e-7), 0.5)
    assert math.fsum(list(a.zeta_t) + [a.zeta_d]) == 1.0


def _pinned_at_the_first_largest(raw):
    """The renormalization with the coordinate it pins chosen as
    ``max(range(n), key=...)`` does: the first of equal largest ratios."""
    total = math.fsum(raw)
    vals = [z / total for z in raw]
    top = max(range(len(vals)), key=lambda i: vals[i])
    for _ in range(3):
        excess = math.fsum(vals) - 1.0
        if excess == 0.0:
            break
        vals[top] -= excess
    return vals


def test_allocation_pins_the_first_of_equal_largest_ratios():
    # Ratios whose largest value ties at two or three set positions, drawn
    # until dividing by their sum leaves an excess: only the first tied
    # coordinate absorbs it.  Seeded draws then tie the largest ratios at
    # random positions in about a third of the cases; every input pins as
    # ``max(range(n), key=...)`` did, bit for bit.
    rng = np.random.default_rng(515)
    for tied in [(0, 1), (1, 3), (0, 2, 4), (2, 3, 4)]:
        for _ in range(1000):
            raw = rng.uniform(0.01, 0.2, 5)
            raw[list(tied)] = 0.3
            raw *= (1.0 + rng.uniform(-9e-7, 9e-7)) / raw.sum()
            total = math.fsum(raw)
            if math.fsum([v / total for v in raw]) != 1.0:
                break
        else:
            pytest.fail(f"no draw tied at {tied} left an excess")
        got = mj.JammerAllocation(tuple(raw[:-1]), raw[-1]).as_vector().tolist()
        assert [v.hex() for v in got] == [v.hex() for v in _pinned_at_the_first_largest(raw.tolist())]
        first, *rest = tied
        assert all(got[k] == raw[k] / total != got[first] for k in rest)
        assert math.fsum(got) == 1.0
    for _ in range(2000):
        k = int(rng.integers(1, 9))
        raw = rng.dirichlet(np.ones(k + 1))
        if rng.uniform() < 0.3:
            raw[rng.choice(k + 1, 2, replace=False)] = raw.max()
        raw *= (1.0 + rng.uniform(-9e-7, 9e-7)) / raw.sum()
        a = mj.JammerAllocation(tuple(raw[:-1]), raw[-1])
        assert [v.hex() for v in a.as_vector().tolist()] == [v.hex() for v in _pinned_at_the_first_largest(raw.tolist())]


def test_allocation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mj.JammerAllocation((0.3, 0.3), 0.3)  # sum 0.9, off by > 1e-6
    with pytest.raises(ValueError):
        mj.JammerAllocation((-0.1, 0.6), 0.5)
    with pytest.raises(ValueError):
        mj.JammerAllocation((), 1.0)


@given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6), st.floats(-9e-7, 9e-7))
def test_allocation_unit_sum_property(raw, wiggle):
    total = math.fsum(raw)
    scaled = [(1.0 + wiggle) * v / total for v in raw]
    a = mj.JammerAllocation(tuple(scaled[:-1]), scaled[-1])
    assert math.fsum(list(a.zeta_t) + [a.zeta_d]) == 1.0
    assert all(z >= 0.0 for z in a.as_vector())


def test_phase_jam_powers_zero_budget():
    cfg = mj.SystemConfig(10, (mj.UserParams(10.0, 10.0, 1),))
    p_wt, p_wd = mj.phase_jam_powers(mj.JammerAllocation((0.5,), 0.5), cfg, mj.JammerBudget(0.0))
    assert p_wt.tolist() == [0.0]
    assert p_wd == 0.0


def test_phase_jam_powers_hand_values():
    # Single user, everything on its four-symbol training window.
    cfg = mj.SystemConfig(100, (mj.UserParams(1.0, 1.0, 4),))
    p_wt, p_wd = mj.phase_jam_powers(mj.JammerAllocation((1.0,), 0.0), cfg, mj.JammerBudget(1.0))
    assert p_wt[0] == pytest.approx(25.0, rel=1e-15)
    assert p_wd == 0.0
    # Two users, half the energy on data.
    cfg = mj.SystemConfig(10, (mj.UserParams(1.0, 1.0, 1), mj.UserParams(1.0, 1.0, 1)))
    p_wt, p_wd = mj.phase_jam_powers(
        mj.JammerAllocation((0.25, 0.25), 0.5), cfg, mj.JammerBudget(2.0)
    )
    assert p_wt[0] == pytest.approx(5.0, rel=1e-15)
    assert p_wt[1] == pytest.approx(5.0, rel=1e-15)
    assert p_wd == pytest.approx(1.25, rel=1e-15)


def test_phase_jam_powers_energy_identity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        cfg = random_config(rng)
        alloc = random_alloc(rng, cfg.n_users)
        budget = random_budget(rng)
        p_wt, p_wd = mj.phase_jam_powers(alloc, cfg, budget)
        lhs = float((p_wt * cfg.train_len_vec()).sum()) + p_wd * cfg.data_len
        rhs = budget.avg_power * cfg.block_len
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_phase_jam_powers_dimension_mismatch():
    cfg = mj.SystemConfig(10, (mj.UserParams(1.0, 1.0, 1),))
    with pytest.raises(ValueError):
        mj.phase_jam_powers(mj.JammerAllocation((0.25, 0.25), 0.5), cfg, mj.JammerBudget(1.0))


def test_lmmse_quality_hand_value():
    q = mj.lmmse_quality(mj.UserParams(10.0, 1.0, 1), 0.0)
    assert q.est_var == pytest.approx(10.0 / 11.0, rel=1e-15)
    assert q.err_var == pytest.approx(1.0 / 11.0, rel=1e-15)


def test_lmmse_quality_limits():
    weak = mj.lmmse_quality(mj.UserParams(1e-12, 1.0, 1), 0.0)
    assert weak.est_var < 1e-11
    assert weak.err_var > 1.0 - 1e-11
    jammed = mj.lmmse_quality(mj.UserParams(10.0, 1.0, 1), 1e12)
    assert jammed.est_var < 1e-10
    with pytest.raises(ValueError):
        mj.lmmse_quality(mj.UserParams(1.0, 1.0, 1), -1.0)
    # From a pilot SNR of 2**53 up, est_var = s / (1 + s) rounds to 1.0.
    for train_power in (1e16, 2**53):
        strong = mj.lmmse_quality(mj.UserParams(train_power, 1.0, 1), 0.0)
        assert strong.est_var == 1.0
        assert 0.0 < strong.err_var < 2e-16


@given(
    p_t=st.floats(1e-6, 1e6),
    t_t=st.integers(1, 50),
    jam=st.floats(0.0, 1e12),
)
def test_estimate_and_error_variance_sum_to_one(p_t, t_t, jam):
    q = mj.lmmse_quality(mj.UserParams(p_t, 1.0, t_t), jam)
    assert q.est_var + q.err_var == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= q.est_var < 1.0
    assert 0.0 < q.err_var <= 1.0


def test_estimation_quality_validation():
    with pytest.raises(ValueError):
        mj.EstimationQuality(est_var=0.6, err_var=0.6)
    for est, err in ((1.0, 0.0), (0.5, -0.5), (0.0, 1.5)):
        with pytest.raises(ValueError, match="err_var must lie in"):
            mj.EstimationQuality(est_var=est, err_var=err)


def test_alpha_beta_gamma_jam_free_training():
    # All energy on data: training windows see no jamming.
    cfg = mj.SystemConfig(10, (mj.UserParams(10.0, 5.0, 1),))
    alphas, betas, gamma = mj.alpha_beta_gamma(
        mj.JammerAllocation((0.0,), 1.0), cfg, mj.JammerBudget(3.0)
    )
    assert alphas[0] == pytest.approx(5.0 * 10.0 * 1 / 11.0, rel=1e-15)
    assert betas[0] == pytest.approx(5.0 / 11.0, rel=1e-15)
    assert gamma == pytest.approx(1.0 / (1.0 + 1.0 * 3.0 * 10.0 / 9.0), rel=1e-15)


def test_alpha_beta_gamma_heavy_training_jamming_limit():
    cfg = mj.SystemConfig(10, (mj.UserParams(10.0, 5.0, 1),))
    alphas, betas, _ = mj.alpha_beta_gamma(
        mj.JammerAllocation((1.0,), 0.0), cfg, mj.JammerBudget(1e12)
    )
    assert alphas[0] < 1e-9
    assert betas[0] == pytest.approx(5.0, rel=1e-9)


def test_gamma_is_one_without_data_jamming():
    cfg = mj.SystemConfig(10, (mj.UserParams(1.0, 1.0, 1),))
    _, _, gamma = mj.alpha_beta_gamma(
        mj.JammerAllocation((1.0,), 0.0), cfg, mj.JammerBudget(7.0)
    )
    assert gamma == 1.0


def test_rho_hand_value():
    cfg = mj.SystemConfig(10, (mj.UserParams(10.0, 10.0, 1),))
    rho = mj.objective_rho(mj.JammerAllocation((0.3,), 0.7), cfg, mj.JammerBudget(0.0))
    assert rho == pytest.approx(100.0 / 21.0, rel=1e-14)


def test_rho_two_independent_paths_agree():
    # rho_from_estimation sums the per-user SINR coefficients the Monte Carlo
    # prices, so this also ties those coefficients to objective_rho.
    rng = np.random.default_rng(123)
    for _ in range(1000):
        cfg = random_config(rng)
        alloc = random_alloc(rng, cfg.n_users)
        budget = random_budget(rng, -20.0, 40.0)
        direct = mj.objective_rho(alloc, cfg, budget)
        via_estimation = mj.rho_from_estimation(alloc, cfg, budget)
        assert via_estimation == pytest.approx(direct, rel=1e-12)


def test_an_overflowing_pilot_term_takes_its_limit():
    # The first user's pt tt (a 3,078 dB pilot) overflows a float, so its
    # pilot term is inf and the ratio form's quotient for alpha reads 0: alpha
    # takes its limit pd instead, on arrays and on one user's floats, without
    # a NumPy warning, and rho agrees with the estimation form.  Where pd pt
    # overflows as well, alpha stays NaN (the objective's NaN domain) and
    # NumPy still warns of the invalid inf / inf.
    u0 = mj.UserParams(6.344060022589307e307, 0.008164898930072719, 3)
    cfg = mj.SystemConfig(1354, (u0, mj.UserParams(1.0815641083136576e238, 1777.360063892929, 2)))
    budget = mj.JammerBudget(26.524699954244138)
    rng = np.random.default_rng(77)
    for alloc in [mj.uniform_allocation(cfg), *(random_alloc(rng, 2) for _ in range(20))]:
        alphas, _, _ = mj.alpha_beta_gamma(alloc, cfg, budget)
        assert alphas[0] == u0.data_power
        one = _ratio_terms(
            alloc.zeta_t[0], alloc.zeta_d, u0.train_power, u0.data_power, 3.0,
            budget.avg_power * cfg.block_len, float(cfg.data_len),
        )
        assert one[0] == u0.data_power
        rho = mj.objective_rho(alloc, cfg, budget)
        assert float(mj.rho_value(alloc.zeta_t_vec(), alloc.zeta_d, cfg, budget)) == rho
        assert rho == pytest.approx(mj.rho_from_estimation(alloc, cfg, budget), rel=1e-12)
    nan_cfg = mj.SystemConfig(2**40, (mj.UserParams(1e300, 1e10, 10**10), mj.UserParams(10.0, 10.0, 3)))
    with pytest.warns(RuntimeWarning, match="invalid value"):
        alphas, _, _ = mj.alpha_beta_gamma(mj.uniform_allocation(nan_cfg), nan_cfg, mj.JammerBudget(1.0))
    assert math.isnan(alphas[0]) and math.isfinite(alphas[1])


def test_rho_constant_when_budget_is_zero():
    rng = np.random.default_rng(7)
    cfg = random_config(rng, k=3)
    budget = mj.JammerBudget(0.0)
    values = {mj.objective_rho(random_alloc(rng, 3), cfg, budget) for _ in range(100)}
    assert max(values) - min(values) < 1e-12


def test_rho_strictly_decreasing_per_coordinate():
    # Un-normalized probe: bumping any single ratio with a positive budget
    # must strictly lower the objective.
    rng = np.random.default_rng(42)
    for _ in range(100):
        cfg = random_config(rng)
        k = cfg.n_users
        budget = random_budget(rng, -10.0, 30.0)
        z = rng.dirichlet(np.ones(k + 1))
        base = float(mj.rho_value(z[:k], z[k], cfg, budget))
        h = 1e-4
        for i in range(k):
            bumped = z[:k].copy()
            bumped[i] += h
            assert float(mj.rho_value(bumped, z[k], cfg, budget)) < base
        assert float(mj.rho_value(z[:k], z[k] + h, cfg, budget)) < base


def test_rho_value_broadcasts():
    rng = np.random.default_rng(3)
    cfg = random_config(rng, k=2)
    budget = mj.JammerBudget(5.0)
    pts = rng.dirichlet(np.ones(3), size=40)
    batch = mj.rho_value(pts[:, :2], pts[:, 2], cfg, budget)
    assert batch.shape == (40,)
    one = float(mj.rho_value(pts[0, :2], pts[0, 2], cfg, budget))
    assert batch[0] == pytest.approx(one, rel=1e-15)


def test_rho_value_is_objective_rho_bit_for_bit():
    # Both combine the same alpha/beta/gamma terms, so they agree exactly,
    # over the full range of K, powers and budgets.
    rng = np.random.default_rng(11)
    for _ in range(2000):
        k = int(rng.integers(1, 33))
        cfg = random_config(rng, k=k, p_lo=1e-3, p_hi=1e8)
        budget = random_budget(rng, -40.0, 100.0)
        a = random_alloc(rng, k)
        assert float(mj.rho_value(a.zeta_t_vec(), a.zeta_d, cfg, budget)) == mj.objective_rho(a, cfg, budget)
