import math

import numpy as np
import pytest

import macjam as mj
from macjam.optimizer import _simplex_grid
from _support import random_config, rate_reduction_limit

T100 = 100


def two_users(pt, pd, tt):
    users = tuple(mj.UserParams(pt[i], pd[i], tt[i]) for i in range(2))
    return mj.SystemConfig(T100, users)


def interior_power(cfg):
    """Smallest budget (times two) at which the closed form is fully interior."""
    pt, pd, tt = cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec()
    t, td = cfg.block_len, cfg.data_len
    s = pd.sum()
    delta = float((pt * tt**2).sum())
    w = tt * np.sqrt(pd * pt)
    eta = float(w.sum())
    need_d = td * (1.0 + s) - tt.sum() - delta
    need_t = float(np.max(2.0 * eta * tt * (1.0 + pt * tt) / w - (t + delta + td * s)))
    return 2.0 * max(need_d, need_t, t) / t


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(30):
        cfg = random_config(rng)
        k = cfg.n_users
        budget = mj.JammerBudget(float(10 ** rng.uniform(-1, 3)))
        z = rng.dirichlet(np.ones(k + 1))
        g_t, g_d = mj.rho_gradient(z[:k], z[k], cfg, budget)
        h = 1e-7
        for i in range(k):
            zp, zm = z[:k].copy(), z[:k].copy()
            zp[i] += h
            zm[i] -= h
            fd = (
                float(mj.rho_value(zp, z[k], cfg, budget))
                - float(mj.rho_value(zm, z[k], cfg, budget))
            ) / (2 * h)
            assert fd == pytest.approx(g_t[i], rel=1e-5)
        fd_d = (
            float(mj.rho_value(z[:k], z[k] + h, cfg, budget))
            - float(mj.rho_value(z[:k], z[k] - h, cfg, budget))
        ) / (2 * h)
        assert fd_d == pytest.approx(g_d, rel=1e-5)


def test_solve_kkt_rejects_zero_budget():
    cfg = two_users((10.0, 10.0), (10.0, 10.0), (1, 1))
    with pytest.raises(ValueError):
        mj.solve_kkt(cfg, mj.JammerBudget(0.0))


def test_solve_kkt_symmetric_users_get_equal_shares():
    cfg = two_users((10.0, 10.0), (10.0, 10.0), (1, 1))
    for pw in (0.5, 5.0, 500.0):
        res = mj.solve_kkt(cfg, mj.JammerBudget(pw))
        assert res.alloc.zeta_t[0] == pytest.approx(res.alloc.zeta_t[1], abs=1e-14)


def test_solve_kkt_certificate_on_random_suite():
    rng = np.random.default_rng(404)
    for _ in range(60):
        cfg = random_config(rng)
        budget = mj.JammerBudget(float(10 ** rng.uniform(-1, 4)))
        res = mj.solve_kkt(cfg, budget)
        residual, lam = mj.evaluate_kkt(
            res.alloc.zeta_t_vec(), res.alloc.zeta_d, res.nu_star, cfg, budget
        )
        assert residual < 1e-8
        assert res.kkt_residual < 1e-8
        assert res.nu_star >= 0.0
        assert all(v >= 0.0 for v in res.lambdas)
        assert 1 <= res.iterations <= 2 * cfg.n_users + 1
        # complementary slackness directly on the stored multipliers
        z = res.alloc.as_vector()
        assert max(abs(l * zi) for l, zi in zip(res.lambdas, z)) < 1e-8


def test_solve_kkt_data_free_with_tiny_pinned_data_power():
    # The pinned user's pd is 7 decades below the free user's; the data-free
    # quadratic must not lose it to cancellation in its constant term.
    cfg = mj.SystemConfig(
        101, (mj.UserParams(0.0217, 0.00275, 2), mj.UserParams(8.94e4, 1.396e4, 3))
    )
    for pw in (1e4, 1.695e4, 3e4):
        res = mj.solve(cfg, mj.JammerBudget(pw))
        assert res.method == "kkt_active_set"
        assert res.active_set == (0,)
        assert res.kkt_residual <= 1e-10


def test_solve_zero_budget_is_flat_uniform():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    res = mj.solve(cfg, mj.JammerBudget(0.0))
    assert res.alloc == mj.uniform_allocation(cfg)
    assert res.nu_star == 0.0
    assert res.kkt_residual == 0.0
    with pytest.raises(ValueError):
        mj.solve_closed_form(cfg, mj.JammerBudget(0.0))


def test_interior_ratio_identity_two_users():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    budget = mj.JammerBudget(50.0)
    res = mj.solve_kkt(cfg, budget)
    zt = res.alloc.zeta_t_vec()
    assert np.all(zt > 1e-6)
    e = budget.avg_power * cfg.block_len
    pt, pd, tt = cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec()
    vals = pd * pt * tt**2 / (e * zt + (pt * tt + 1.0) * tt) ** 2
    assert vals[0] == pytest.approx(vals[1], rel=1e-8)


def test_closed_form_matches_kkt_when_interior():
    rng = np.random.default_rng(512)
    for _ in range(20):
        cfg = random_config(rng)
        budget = mj.JammerBudget(interior_power(cfg))
        cf = mj.solve_closed_form(cfg, budget)
        assert cf is not None
        kkt = mj.solve_kkt(cfg, budget)
        assert float(np.max(np.abs(cf.alloc.as_vector() - kkt.alloc.as_vector()))) < 1e-4
        assert cf.rho_star == pytest.approx(kkt.rho_star, abs=1e-6)
        assert cf.kkt_residual < 1e-8


def test_closed_form_not_interior_at_low_power():
    cfg = two_users((10.0, 10.0), (10.0, 10.0), (1, 1))
    assert mj.solve_closed_form(cfg, mj.JammerBudget(0.1)) is None


def test_closed_form_data_share_crosses_zero_at_predicted_power():
    cfg = two_users((10.0, 20.0), (5.0, 15.0), (1, 1))
    pt, pd, tt = cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec()
    td = cfg.data_len
    delta = float((pt * tt**2).sum())
    crossing = (td * (1.0 + pd.sum()) - tt.sum() - delta) / cfg.block_len
    # analytic data share at the crossing: 1/2 + (Tt + delta - Td(1+S)) / (2 Pw T) = 0
    zd_at = 0.5 + (tt.sum() + delta - td * (1.0 + pd.sum())) / (2.0 * crossing * cfg.block_len)
    assert zd_at == pytest.approx(0.0, abs=1e-12)
    assert mj.solve_closed_form(cfg, mj.JammerBudget(crossing * (1.0 - 1e-6))) is None
    above = mj.solve_closed_form(cfg, mj.JammerBudget(crossing * 1.001))
    assert above is not None
    assert 0.0 < above.alloc.zeta_d < 1e-3
    kkt_at = mj.solve_kkt(cfg, mj.JammerBudget(crossing))
    assert kkt_at.alloc.zeta_d <= 1e-9


def test_asymptotic_allocation():
    cfg = two_users((10.0, 10.0), (10.0, 40.0), (1, 1))
    alloc = mj.solve_asymptotic(cfg)
    assert alloc.zeta_d == 0.5
    assert alloc.zeta_t[0] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert alloc.zeta_t[1] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_kkt_approaches_asymptotic_at_60db():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    res = mj.solve_kkt(cfg, mj.JammerBudget(1e6))
    asym = mj.solve_asymptotic(cfg)
    assert float(np.max(np.abs(res.alloc.as_vector() - asym.as_vector()))) < 1e-2


def test_rate_reduction_limit_closed_form():
    # At 140 dB the asymptotic split and the solver both realize the limit;
    # compared as the ratio 1 - L = rho*/rho_unif, which stays away from 0.
    rng = np.random.default_rng(140)
    budget = mj.JammerBudget(mj.db_to_linear(140.0))
    for _ in range(40):
        cfg = random_config(rng, kmax=6)
        limit = rate_reduction_limit(cfg)
        rho_unif = mj.objective_rho(mj.uniform_allocation(cfg), cfg, budget)
        rho_asym = mj.objective_rho(mj.solve_asymptotic(cfg), cfg, budget)
        assert rho_asym / rho_unif == pytest.approx(1.0 - limit, rel=1e-9, abs=0.0)
        rho_star = mj.solve(cfg, budget).rho_star
        assert rho_star / rho_unif == pytest.approx(1.0 - limit, rel=1e-9, abs=0.0)


def test_oracle_grid_single_user():
    cfg = mj.SystemConfig(10, (mj.UserParams(10.0, 10.0, 1),))
    budget = mj.JammerBudget(4.0)
    kkt = mj.solve_kkt(cfg, budget)
    oracle = mj.solve_oracle(cfg, budget, grid_resolution=1e-3)
    assert abs(oracle.rho_star - kkt.rho_star) < 1e-4
    assert oracle.method == "oracle"


def test_oracle_never_beaten_beyond_grid_error_two_users():
    rng = np.random.default_rng(9)
    for _ in range(8):
        cfg = random_config(rng, k=2)
        budget = mj.JammerBudget(float(10 ** rng.uniform(-1, 3)))
        kkt = mj.solve_kkt(cfg, budget)
        oracle = mj.solve_oracle(cfg, budget, grid_resolution=1e-3)
        assert oracle.rho_star >= kkt.rho_star - 1e-4
        assert abs(oracle.rho_star - kkt.rho_star) < 1e-4


@pytest.mark.parametrize("dim, steps", [(1, 5), (2, 7), (3, 10), (4, 6)])
def test_simplex_grid_lists_every_composition_in_lexicographic_order(dim, steps):
    grid = _simplex_grid(dim, steps)
    assert grid.shape == (math.comb(steps + dim - 1, dim - 1), dim)
    counts = grid * steps
    assert np.array_equal(counts, np.rint(counts))
    counts = counts.astype(int)
    assert counts.min() >= 0
    assert np.all(counts.sum(axis=1) == steps)
    diff = np.diff(counts, axis=0)
    first = np.argmax(diff != 0, axis=1)
    assert np.all(diff[np.arange(diff.shape[0]), first] > 0)


def test_oracle_agrees_with_solve_over_extreme_range():
    # Powers -30..80 dB, budgets -40..100 dB; at K = 3 the grid is over the
    # cap, so the oracle starts from its seeded Dirichlet sample instead.
    rng = np.random.default_rng(2012)
    for i in range(30):
        cfg = random_config(rng, k=[1, 2, 3][i % 3], p_lo=1e-3, p_hi=1e8)
        budget = mj.JammerBudget(float(10 ** rng.uniform(-4.0, 10.0)))
        rho = mj.solve(cfg, budget).rho_star
        oracle = mj.solve_oracle(cfg, budget, grid_resolution=1e-3)
        assert abs(oracle.rho_star - rho) <= 1e-6 * rho, (i, cfg, budget)


def test_oracle_reports_flat_objective_at_zero_budget():
    cfg = two_users((10.0, 10.0), (10.0, 10.0), (1, 1))
    budget = mj.JammerBudget(0.0)
    pts = np.random.default_rng(0).dirichlet(np.ones(3), size=100)
    vals = mj.rho_value(pts[:, :2], pts[:, 2], cfg, budget)
    assert float(vals.max() - vals.min()) < 1e-12
    res = mj.solve_oracle(cfg, budget, grid_resolution=0.05)
    assert res.kkt_residual == 0.0
    assert res.nu_star == 0.0


def test_descent_agrees_with_kkt():
    rng = np.random.default_rng(88)
    for _ in range(10):
        cfg = random_config(rng)
        budget = mj.JammerBudget(float(10 ** rng.uniform(-1, 4)))
        kkt = mj.solve_kkt(cfg, budget)
        desc = mj.solve_projected_descent(cfg, budget)
        assert desc.rho_star == pytest.approx(kkt.rho_star, rel=1e-6, abs=1e-12)
        assert float(np.max(np.abs(desc.alloc.as_vector() - kkt.alloc.as_vector()))) < 1e-4


def test_descent_from_optimum_stops_immediately():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    budget = mj.JammerBudget(25.0)
    kkt = mj.solve_kkt(cfg, budget)
    desc = mj.solve_projected_descent(cfg, budget, starts=[kkt.alloc.as_vector()])
    assert desc.iterations <= 2


def test_descent_rejects_zero_budget():
    cfg = two_users((10.0, 10.0), (10.0, 10.0), (1, 1))
    with pytest.raises(ValueError):
        mj.solve_projected_descent(cfg, mj.JammerBudget(0.0))


def test_interior_gradient_components_equalized():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    budget = mj.JammerBudget(1000.0)
    res = mj.solve_projected_descent(cfg, budget)
    assert not res.active_set  # fully interior at this power
    g_t, g_d = mj.rho_gradient(res.alloc.zeta_t_vec(), res.alloc.zeta_d, cfg, budget)
    g = np.append(g_t, g_d)
    spread = float(g.max() - g.min())
    assert spread <= 1e-6 * abs(float(g.mean()))


def test_solve_dispatch_prefers_closed_form():
    cfg = two_users((10.0, 10.0), (10.0, 10.0), (1, 1))
    low = mj.solve(cfg, mj.JammerBudget(1.0))
    assert low.method == "kkt_active_set"
    high = mj.solve(cfg, mj.JammerBudget(interior_power(cfg)))
    assert high.method == "closed_form"


def test_all_silent_users_is_flat_and_uniform():
    cfg = two_users((10.0, 10.0), (0.0, 0.0), (1, 1))
    res = mj.solve_kkt(cfg, mj.JammerBudget(5.0))
    assert res.kkt_residual == 0.0
    assert res.rho_star == 0.0
    assert res.alloc.zeta_d == pytest.approx(cfg.data_len / cfg.block_len)


def test_corollary_ordering_more_data_power():
    cfg = two_users((10.0, 10.0), (5.0, 50.0), (1, 1))
    res = mj.solve_kkt(cfg, mj.JammerBudget(10.0))
    assert res.alloc.zeta_t[1] >= res.alloc.zeta_t[0]
    verdicts = mj.check_corollary_orderings(res, cfg)
    assert all(v.passed for v in verdicts)
    assert {v.corollary for v in verdicts} == {1}


def test_corollary_ordering_more_training_power():
    cfg = two_users((2.0, 20.0), (10.0, 10.0), (1, 1))
    res = mj.solve_kkt(cfg, mj.JammerBudget(10.0))
    assert res.alloc.zeta_t[1] >= res.alloc.zeta_t[0]
    verdicts = mj.check_corollary_orderings(res, cfg)
    assert all(v.passed for v in verdicts)
    assert {v.corollary for v in verdicts} == {2}


def test_corollary_ordering_longer_training():
    cfg = two_users((10.0, 10.0), (10.0, 10.0), (1, 3))
    res = mj.solve_kkt(cfg, mj.JammerBudget(10.0))
    assert res.alloc.zeta_t[1] >= res.alloc.zeta_t[0]
    verdicts = mj.check_corollary_orderings(res, cfg)
    assert all(v.passed for v in verdicts)
    assert {v.corollary for v in verdicts} == {3}


def test_ordering_reversal_in_low_energy_regime():
    # With little jamming energy, concentrating on the SHORT training window
    # is optimal (higher per-symbol jamming power), so the pairwise ordering
    # that holds at high power genuinely reverses here.  The brute-force
    # oracle confirms the reversed point is the true optimum.
    cfg = two_users((10.0, 10.0), (10.0, 10.0), (3, 1))
    low = mj.JammerBudget(0.4)
    res = mj.solve_kkt(cfg, low)
    assert res.alloc.zeta_t[0] > 1e-6 and res.alloc.zeta_t[1] > 1e-6
    assert res.alloc.zeta_t[0] < res.alloc.zeta_t[1]
    verdicts = mj.check_corollary_orderings(res, cfg)
    assert [v.passed for v in verdicts] == [False]
    oracle = mj.solve_oracle(cfg, low, grid_resolution=1e-3)
    assert oracle.alloc.zeta_t[0] < oracle.alloc.zeta_t[1]
    assert abs(oracle.rho_star - res.rho_star) < 1e-6
    # plenty of energy restores the ordering
    high = mj.solve_kkt(cfg, mj.JammerBudget(100.0))
    assert high.alloc.zeta_t[0] >= high.alloc.zeta_t[1]


def test_activation_monotone_and_in_budget_order(fig_sweep_rows):
    active_prev = None
    for row in fig_sweep_rows:
        active = [z > 1e-9 for z in row.zeta_t]
        # lower-budget user active only if every higher-budget user is too
        for k in range(3):
            if active[k]:
                assert all(active[k + 1:]), f"budget order broken at {row.pw_db} dB"
        if active_prev is not None:
            for k in range(4):
                assert not (active_prev[k] and not active[k]), (
                    f"training ratio {k} deactivated at {row.pw_db} dB"
                )
        active_prev = active


def test_optimal_never_worse_than_uniform(fig_setup, fig_sweep_rows):
    spec, cfg = fig_setup
    for row in fig_sweep_rows:
        budget = mj.JammerBudget(mj.db_to_linear(row.pw_db))
        uniform_rho = mj.objective_rho(mj.uniform_allocation(cfg), cfg, budget)
        assert row.rho_star <= uniform_rho
        assert row.rho_star < uniform_rho  # strict for every positive budget


def test_hessian_positive_on_simplex_tangent_space():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        cfg = random_config(rng)
        k = cfg.n_users
        budget = mj.JammerBudget(float(10 ** rng.uniform(-1, 3)))
        _, _, vh = np.linalg.svd(np.ones((1, k + 1)))
        basis = vh[1:].T
        for _ in range(5):
            z = rng.dirichlet(np.full(k + 1, 2.0))
            h = 1e-6
            hess = np.empty((k + 1, k + 1))
            for i in range(k + 1):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                gp = np.append(*mj.rho_gradient(zp[:k], zp[k], cfg, budget))
                gm = np.append(*mj.rho_gradient(zm[:k], zm[k], cfg, budget))
                hess[:, i] = (gp - gm) / (2 * h)
            hess = 0.5 * (hess + hess.T)
            reduced = basis.T @ hess @ basis
            assert float(np.linalg.eigvalsh(reduced).min()) > -1e-8
