import hashlib
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import macjam as mj
from macjam import optimizer as opt
from macjam.model import _golden_section, _ratio_rho
from _support import random_budget, random_config, rate_reduction_limit

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


def _sign_checked(sys, z, free):
    """Exact sign checks for a restricted solve; returns ``(nu, lambdas)`` or None."""
    if (z[free] <= 0.0).any():
        return None
    g_all = np.array(opt._grad_z(sys, z.tolist()))
    nu = float(-(g_all[free]).mean())
    lam = g_all + nu
    if float(lam[~free].min(initial=math.inf)) < -1e-9 * (1.0 + abs(nu)):
        return None
    return nu, lam


def _reference_solve_kkt(cfg, budget):
    """``solve_kkt`` with every candidate free set solved and checked exactly.

    No screen, and a stricter acceptance rule than ``solve_kkt``'s
    certificate alone: exact sign checks (:func:`_sign_checked`), then the
    smallest raw residual, then the certificate of that one candidate, so
    equal results show that the two rules agree.  Returns the result and
    the free coordinates of the row it picks (data last).
    """
    sys = opt._sys(cfg, budget)
    w = np.array(sys.w)
    ratio = np.where(w > 0.0, np.array(sys.x) / np.where(w > 0.0, w, 1.0), math.inf)
    order = np.argsort(ratio, kind="stable")
    best, tried = None, 0
    for m in range(w.size + 1):
        for free_d in (False, True):
            if m == 0 and not free_d:
                continue
            free = np.zeros(w.size + 1, dtype=bool)
            free[order[:m]] = True
            free[-1] = free_d
            z = np.array(opt._refine_active_set(sys, free))
            tried += 1
            checked = _sign_checked(sys, z, free)
            if checked is None:
                continue
            nu = checked[0]
            residual, _ = mj.evaluate_kkt(z[:-1], z[-1], nu, cfg, budget)
            if best is None or residual < best[0]:
                best = (residual, z, nu, tuple(np.flatnonzero(free).tolist()))
    if best is None:
        raise mj.SolverError("no candidate free set certifies the optimum", math.inf)
    _, z, nu, row = best
    result = opt._build_result(sys, z.tolist(), opt.METHOD_KKT, tried, nu=nu)
    if result.kkt_residual > opt.CERT_TOL:
        raise mj.SolverError("no candidate free set certifies the optimum", result.kkt_residual)
    return result, row


def _hex_fields(res):
    """Every field of a result but ``iterations``, floats as ``float.hex``."""
    return (
        tuple(float.hex(v) for v in res.alloc.as_vector()),
        float.hex(res.rho_star),
        float.hex(res.nu_star),
        tuple(float.hex(v) for v in res.lambdas),
        res.active_set,
        res.method,
        float.hex(res.kkt_residual),
    )


def _transition_budgets(cfg):
    """Budgets a relative 1e-9 either side of each energy at which, with the
    data ratio pinned, the next user's pilot window switches on: with the
    users sorted by threshold ``x / w`` and ``W_m``, ``X_m`` the sums of ``w``
    and ``x`` over the first ``m``, that is ``E_m = (x/w)_{m+1} W_m - X_m``."""
    pt, pd, tt = cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec()
    w, x = tt * np.sqrt(pd * pt), tt * (1.0 + pt * tt)
    thr = np.where(w > 0.0, x / np.where(w > 0.0, w, 1.0), math.inf)
    order = np.argsort(thr, kind="stable")
    energies = thr[order][1:] * np.cumsum(w[order])[:-1] - np.cumsum(x[order])[:-1]
    return [
        mj.JammerBudget(float(e) * f / cfg.block_len)
        for e in energies
        if 0.0 < e < math.inf
        for f in (1.0 - 1e-9, 1.0 + 1e-9)
    ]


def test_path_keeps_the_reference_row_and_every_bit():
    rng = np.random.default_rng(2718)
    ks = (1, 2, 4, 8, 16, 32)
    cases = []
    for i in range(300):
        cfg = random_config(rng, k=ks[i % len(ks)], p_lo=1e-3, p_hi=1e8)
        if i % 10 == 9:
            silent = replace(cfg.users[0], data_power=0.0)
            cfg = mj.SystemConfig(cfg.block_len, (silent,) + cfg.users[1:])
        cases.append((cfg, random_budget(rng, -40.0, 100.0)))
        if i % 25 == 0:
            # Where the active set changes, the path's window is pressed hardest.
            cases += [(cfg, budget) for budget in _transition_budgets(cfg)]
    for cfg, budget in cases:
        try:
            ref, row = _reference_solve_kkt(cfg, budget)
        except mj.SolverError as exc:
            with pytest.raises(mj.SolverError) as got:
                mj.solve_kkt(cfg, budget)
            assert str(got.value) == str(exc)
            continue
        assert _hex_fields(mj.solve_kkt(cfg, budget)) == _hex_fields(ref)
        coords, _, rows = opt._path(opt._sys(cfg, budget))
        assert row in [tuple(sorted(coords[: i + 1])) for i in rows]


U = mj.UserParams
EXTREME_CONFIGS = {
    "nan_threshold_first": mj.SystemConfig(2**40, (U(1e300, 1e10, 10**10), U(10.0, 10.0, 3))),
    "nan_threshold_after_a_silent_user": mj.SystemConfig(
        2**40, (U(10.0, 0.0, 3), U(1e300, 1e10, 10**10), U(5.0, 5.0, 2))
    ),
    "subnormal_w_alone": mj.SystemConfig(100, (U(10.0, 5e-324, 1),)),
    "subnormal_w_twice": mj.SystemConfig(100, (U(10.0, 5e-324, 1), U(1e-3, 1e-300, 2))),
    "subnormal_w_and_a_normal_user": mj.SystemConfig(
        100, (U(1e-3, 1e-300, 2), U(10.0, 5e-324, 1), U(3.0, 20.0, 2))
    ),
}


def _pinned_cases():
    """2,000 seeded configs over the domain, each with a budget and two random
    points, plus ``_transition_budgets`` of every 40th config.  K runs 1-32,
    powers -30..80 dB, budgets -40..100 dB (every 50th zero), windows 1-200
    symbols; every 9th config has a silent user and every 11th a user whose
    ``w = tt sqrt(pd pt)`` underflows to 0 with ``pd > 0``."""
    rng = np.random.default_rng(2424)
    cases = []
    for i in range(2000):
        k = 1 + i % 32
        cfg = random_config(rng, k=k, p_lo=1e-3, p_hi=1e8, max_train_len=200)
        users = list(cfg.users)
        if i % 9 == 4:
            users[i % k] = replace(users[i % k], data_power=0.0)
        if i % 11 == 5:
            users[(i + 1) % k] = replace(users[(i + 1) % k], train_power=1e-3, data_power=5e-324)
        cfg = mj.SystemConfig(cfg.block_len, tuple(users))
        budgets = [mj.JammerBudget(0.0) if i % 50 == 7 else random_budget(rng, -40.0, 100.0)]
        if i % 40 == 0:
            budgets += _transition_budgets(cfg)
        cases += [(cfg, budget, rng.dirichlet(np.ones(k + 1), size=2)) for budget in budgets]
    # Beyond the tested domain: thresholds x / w = inf / inf = NaN, and budgets
    # so small that P_w T times a subnormal w underflows to a zero divisor.
    for cfg in EXTREME_CONFIGS.values():
        center = np.full((1, cfg.n_users + 1), 1.0 / (cfg.n_users + 1))
        cases += [(cfg, mj.JammerBudget(pw), center) for pw in (5e-324, 1e-320, 1e-3, 1.0, 1e8)]
    return cases


def _pinned_lines(cfg, budget, points):
    """``float.hex`` of every field that ``solve``, ``solve_kkt``,
    ``solve_closed_form`` and ``activation_powers`` return at one input, and
    ``evaluate_kkt`` and ``rho_gradient`` at each point and at ``solve``'s
    optimum, or the message of the ``SolverError`` or ``ValueError`` raised."""

    def hexes(values):
        return " ".join(float.hex(float(v)) for v in values)

    def fields(res):
        if res is None:
            return "None"
        return " ".join(
            (hexes(res.alloc.as_vector()), hexes((res.rho_star, res.nu_star, res.kkt_residual)),
             hexes(res.lambdas), repr(res.active_set), res.method, str(res.iterations))
        )

    def at(z, nu):
        residual, lam = mj.evaluate_kkt(z[:-1], z[-1], nu, cfg, budget)
        return hexes([residual, *lam, *np.append(*mj.rho_gradient(z[:-1], z[-1], cfg, budget))])

    def line(name, call):
        try:
            return f"{name}: {call()}"
        except (mj.SolverError, ValueError) as exc:
            return f"{name}: {type(exc).__name__}: {exc}"

    lines = [
        line("solve_kkt", lambda: fields(mj.solve_kkt(cfg, budget))),
        line("solve_closed_form", lambda: fields(mj.solve_closed_form(cfg, budget))),
        line("activation_powers", lambda: hexes(mj.activation_powers(cfg))),
        *(line("point", lambda: at(z, 0.5)) for z in points),
    ]
    try:
        res = mj.solve(cfg, budget)
    except (mj.SolverError, ValueError) as exc:
        return lines + [f"solve: {type(exc).__name__}: {exc}"]
    return lines + [f"solve: {fields(res)}", line("optimum", lambda: at(res.alloc.as_vector(), res.nu_star))]


# sha256 of _pinned_lines over _pinned_cases, recorded from the NumPy-vector
# solver that the Python-float one replaced, then re-recorded once the
# certificate became NaN-propagating: only the ten inputs of the two
# "nan_threshold" configs changed, where solve used to return rho* = NaN with
# residual 0 and now raises SolverError, and their points' residuals read NaN.
PINNED_SHA256 = "c49427dd46f8320ded8a9c3d3589f85b5397b722cef5789eb1c34ad5cb49e5ee"


def test_primary_solver_keeps_every_recorded_bit():
    # test_path_keeps_the_reference_row_and_every_bit builds its reference from
    # the same private primitives, so it cannot see their arithmetic drift; this
    # digest can, down to a scalar ``x ** 2`` written as ``x * x``.
    cases = _pinned_cases()
    assert len(cases) >= 2000
    lines = [line for case in cases for line in _pinned_lines(*case)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_SHA256


@pytest.mark.parametrize("case", [name for name in EXTREME_CONFIGS if name.startswith("nan")])
@pytest.mark.parametrize("pw", [0.0, 1.0])
def test_a_nan_objective_never_certifies(case, pw):
    # A user whose pt tt and pd pt overflow makes rho NaN.  A certificate that
    # takes Python's max drops a NaN (max(0.0, nan) is 0.0), and solve then
    # returned rho* = NaN with residual 0, at a zero budget (the flat path)
    # as well as at a positive one.
    cfg = EXTREME_CONFIGS[case]
    budget = mj.JammerBudget(pw)
    with pytest.raises(mj.SolverError, match=r"residual nan"):
        mj.solve(cfg, budget)
    center = [1.0 / (cfg.n_users + 1)] * cfg.n_users
    residual, lam = mj.evaluate_kkt(center, center[0], 0.5, cfg, budget)
    assert np.isnan(lam).any() and math.isnan(residual)


def test_an_infinite_objective_never_certifies():
    # pt tt and pd pt overflow to inf, not NaN: at a zero budget the flat
    # result's rho is inf, and its certificate used to read 0.
    db = mj.db_to_linear
    cfg = mj.SystemConfig(743937848, (U(db(1573.4285), db(1563.55), 437237856), U(db(836.348), db(188.657), 58)))
    budget = mj.JammerBudget(0.0)
    with np.errstate(over="ignore"):
        assert mj.objective_rho(mj.uniform_allocation(cfg), cfg, budget) == math.inf
    with pytest.raises(mj.SolverError, match=r"residual nan"):
        mj.solve(cfg, budget)


def test_a_nan_certificate_loses_to_a_finite_one(monkeypatch):
    # A relative 1e-9 past the second user's switch-on energy, solve_kkt builds
    # two rows; the first row's certificate is made NaN here.
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    budget = _transition_budgets(cfg)[1]
    expected = mj.solve_kkt(cfg, budget)
    build, built = opt._build_result, []

    def first_nan(*args, **kwargs):
        res = build(*args, **kwargs)
        built.append(res if built else replace(res, kkt_residual=math.nan))
        return built[-1]

    monkeypatch.setattr(opt, "_build_result", first_nan)
    assert mj.solve_kkt(cfg, budget) == expected
    assert len(built) == 2 and math.isnan(built[0].kkt_residual)


@pytest.mark.parametrize("case", [name for name in EXTREME_CONFIGS if name.startswith("nan")])
@pytest.mark.parametrize("pw", [1e-3, 1.0, 1e3])
def test_path_sorts_and_searches_a_nan_threshold_as_numpy_does(case, pw):
    # NumPy's stable argsort puts a NaN after every number, inf included, and
    # its searchsorted ranks a NaN above any energy; Python's own comparisons
    # do neither, so the path must not lean on them.
    cfg = EXTREME_CONFIGS[case]
    sys = opt._sys(cfg, mj.JammerBudget(pw))
    thr = np.array([x / w if w > 0.0 else math.inf for w, x in zip(sys.w, sys.x)])
    assert np.isnan(thr).any()
    coords, starts, rows = opt._path(sys)
    live = sum(w > 0.0 for w in sys.w)
    assert [k for k in coords if k < cfg.n_users] == np.argsort(thr, kind="stable")[:live].tolist()
    ends = np.append(starts[1:], math.inf)
    assert rows == range(
        int(np.searchsorted(ends, sys.energy * (1.0 - opt.PATH_WINDOW))),
        int(np.searchsorted(starts, sys.energy * (1.0 + opt.PATH_WINDOW), side="right")),
    )


def test_solve_certifies_a_tiny_budget_with_one_user_free():
    # At -150.71 dB the data-free row with no user free rounds to a point that
    # sums to 1 + 1e-6, past JammerAllocation's tolerance; the optimum frees
    # the first user only and certifies with residual 0.
    users = (
        mj.UserParams(float.fromhex("0x1.92847d500278ep+8"), float.fromhex("0x1.162bba6ba3a4bp+10"), 1),
        mj.UserParams(float.fromhex("0x1.28f05cc3d8173p+20"), float.fromhex("0x1.7ab793c4550c2p+0"), 3),
    )
    res = mj.solve(mj.SystemConfig(67, users), mj.JammerBudget(float.fromhex("0x1.e912fab1bbef5p-51")))
    assert res.kkt_residual <= opt.CERT_TOL
    assert res.active_set == (1, 2)


def test_activation_powers_bracket_each_switch():
    rng = np.random.default_rng(31)
    for i in range(12):
        cfg = random_config(rng, k=(1, 3, 8)[i % 3], p_lo=1e-3, p_hi=1e8)
        if i % 4 == 3:
            silent = replace(cfg.users[0], data_power=0.0)
            cfg = mj.SystemConfig(cfg.block_len, (silent,) + cfg.users[1:])
        powers = mj.activation_powers(cfg)
        # One coordinate is free from E = 0; a user with w = 0 is never freed.
        assert min(powers) == 0.0 and (i % 4 != 3 or powers[0] == math.inf)
        for idx, pw in enumerate(powers):
            if 0.0 < pw < math.inf:
                below, above = (
                    mj.solve(cfg, mj.JammerBudget(pw * f)).alloc.as_vector()[idx] for f in (1 - 1e-6, 1 + 1e-6)
                )
                assert below == 0.0 and above > 0.0, (i, idx)


def test_solve_certifies_with_subnormal_data_power():
    # The first user's data power is subnormal, so its threshold x / w is about
    # 1e155-1e162 and its square overflows a float; no step may overflow.
    for tiny in (5e-324, 1e-310):
        users = (mj.UserParams(10.0, tiny, 1), mj.UserParams(3.0, 20.0, 2), mj.UserParams(40.0, 0.5, 1))
        cfg = mj.SystemConfig(60, users)
        for power in (1e-4, 1.0, 1e6, 1e100):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = mj.solve(cfg, mj.JammerBudget(power))
            assert res.kkt_residual <= opt.CERT_TOL, (tiny, power)


def test_solve_zero_budget_is_flat_uniform():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    res = mj.solve(cfg, mj.JammerBudget(0.0))
    assert res.alloc == mj.uniform_allocation(cfg)
    assert res.nu_star == 0.0
    assert res.kkt_residual == 0.0
    assert mj.solve_closed_form(cfg, mj.JammerBudget(0.0)) is None


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


def test_oracle_single_user():
    cfg = mj.SystemConfig(10, (mj.UserParams(10.0, 10.0, 1),))
    budget = mj.JammerBudget(4.0)
    kkt = mj.solve_kkt(cfg, budget)
    oracle = mj.solve_oracle(cfg, budget, grid_resolution=1e-3)
    assert abs(oracle.rho_star - kkt.rho_star) <= 1e-13 * kkt.rho_star
    assert oracle.method == "oracle"


def test_oracle_never_beaten_beyond_rounding_two_users():
    rng = np.random.default_rng(9)
    for _ in range(8):
        cfg = random_config(rng, k=2)
        budget = mj.JammerBudget(float(10 ** rng.uniform(-1, 3)))
        kkt = mj.solve_kkt(cfg, budget)
        oracle = mj.solve_oracle(cfg, budget, grid_resolution=1e-3)
        assert abs(oracle.rho_star - kkt.rho_star) <= 1e-13 * kkt.rho_star


def test_oracle_gives_the_same_bits_twice_in_a_row():
    cfg = random_config(np.random.default_rng(21), k=3)
    budget = mj.JammerBudget(30.0)
    first = mj.solve_oracle(cfg, budget, grid_resolution=1e-3)
    second = mj.solve_oracle(cfg, budget, grid_resolution=1e-3)
    assert [v.hex() for v in second.alloc.as_vector()] == [v.hex() for v in first.alloc.as_vector()]
    assert second.rho_star.hex() == first.rho_star.hex()
    assert second.iterations == first.iterations


# float.hex of (allocation..., rho*, nu*, residual) and iterations: the
# oracle's as it returns them polishing from its seeded start set with the
# relative stop, the descent's as its gradient pair descent returns them from
# the duration-proportional split.  Each rho* lies within 1e-15 relative of
# solve's (checked below).
RECORDED = {
    1: (mj.SystemConfig(10, (U(10.0, 10.0, 1),)), 100.0, {
        "oracle": (["0x1.16872b42799bap-1", "0x1.d2f1a97b0cc8dp-2", "0x1.8018018018018p-9",
                    "0x1.5b0b6010f6bedp-8", "0x1.3abd208000000p-34"], 2),
        "descent": (["0x1.16872b06c80bcp-1", "0x1.d2f1a9f26fe89p-2", "0x1.8018018018016p-9",
                     "0x1.5b0b6010f6beap-8", "0x1.71fad40000000p-38"], 1),
    }),
    2: (mj.SystemConfig(40, (U(3.0, 20.0, 1), U(15.0, 5.0, 2))), 8.0, {
        "oracle": (["0x1.70e5d5d08b9ffp-2", "0x1.478d1517ba300p-1", "0x0.0p+0", "0x1.11913fc6d0cf4p-4",
                    "0x1.e3e0a6f1eba2cp-5", "0x1.2161e10000000p-31"], 3),
        "descent": (["0x1.70e5d5e568041p-2", "0x1.478d150d4bfe0p-1", "0x0.0p+0", "0x1.11913fc6d0cf4p-4",
                     "0x1.e3e0a6e34d451p-5", "0x1.ba78710000000p-31"], 4),
    }),
    3: (mj.SystemConfig(60, (U(3.0, 20.0, 1), U(15.0, 5.0, 2), U(40.0, 0.5, 3))), 30.0, {
        "oracle": (["0x1.9e8c3f532f6cfp-3", "0x1.b14bb6eea77d1p-2", "0x1.38e327cdecedep-3",
                    "0x1.c5f92b0194ab5p-3", "0x1.90d07c87fa53dp-6", "0x1.93e36b4d8027cp-6",
                    "0x1.6f392bc000000p-31"], 3),
        "descent": (["0x1.9e8c3ec813d5fp-3", "0x1.b14bb645d9c6fp-2", "0x1.38e328a982d02p-3",
                     "0x1.c5f92c02b5cc5p-3", "0x1.90d07c87fa53bp-6", "0x1.93e36b6a50d73p-6",
                     "0x1.8307410000000p-32"], 33),
    }),
}


@pytest.mark.parametrize("k", RECORDED)
def test_reference_solvers_reproduce_recorded_bits(k):
    cfg, power, expected = RECORDED[k]
    budget = mj.JammerBudget(power)
    results = {
        "oracle": mj.solve_oracle(cfg, budget, grid_resolution=1e-3),
        "descent": mj.solve_projected_descent(cfg, budget),
    }
    for name, res in results.items():
        values = [*res.alloc.as_vector(), res.rho_star, res.nu_star, res.kkt_residual]
        assert ([v.hex() for v in values], res.iterations) == expected[name], name
    rho = mj.solve(cfg, budget).rho_star
    for name, res in results.items():
        assert abs(res.rho_star - rho) <= 1e-15 * rho, name


def _reference_pair_descent(z, sys):
    """The oracle's polish on NumPy arrays: every trial point is a copy of
    ``z`` with two coordinates moved, valued whole by ``model._ratio_rho``."""
    z = np.array(z, dtype=float)
    dim = z.size
    vectors = (np.array(sys.pt), np.array(sys.pd), np.array(sys.tt), sys.energy, sys.Td)

    def rho(point):
        return float(_ratio_rho(point[:-1], point[-1], *vectors))

    best = rho(z)
    for sweeps in range(1, opt.ORACLE_MAX_SWEEPS + 1):
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
                    return rho(trial)

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
        if start - best <= opt.ORACLE_REL_TOL * abs(start):
            break
    return z.tolist(), best, sweeps


def _oracle_pair(cfg, budget, grid_resolution, monkeypatch):
    """``solve_oracle``, then the same solve polished by :func:`_reference_pair_descent`."""
    res = mj.solve_oracle(cfg, budget, grid_resolution=grid_resolution)
    with monkeypatch.context() as m:
        m.setattr(opt, "_pair_descent", _reference_pair_descent)
        ref = mj.solve_oracle(cfg, budget, grid_resolution=grid_resolution)
    return res, ref


def _oracle_bits(res):
    return [v.hex() for v in res.alloc.as_vector()], res.rho_star.hex(), res.iterations


def _oracle_cases(rng, ks, silent_every):
    """Random configs over the full range, each with a grid resolution that
    alternates between a small start set and the capped one (1e-7:
    ``ORACLE_SEARCH_SAMPLES`` Dirichlet points)."""
    cases = []
    for i, k in enumerate(ks):
        cfg = random_config(rng, k=k, p_lo=1e-3, p_hi=1e8)
        if i % silent_every == silent_every - 1:
            silent = replace(cfg.users[-1], data_power=0.0)
            cfg = mj.SystemConfig(cfg.block_len, cfg.users[:-1] + (silent,))
        grid = 1e-7 if i % 2 else (0.01 if k <= 2 else 0.1)
        cases.append((cfg, random_budget(rng, -40.0, 100.0), grid))
    return cases


def test_float_polish_keeps_every_bit_of_the_array_polish_up_to_seven_users(monkeypatch):
    # _user_sum is ndarray.sum's sum, so the float polish must retrace the
    # array polish exactly: same point, rho* and sweeps.
    cases = _oracle_cases(np.random.default_rng(1953), [1 + i % 7 for i in range(70)], silent_every=9)
    for cfg, budget, grid in cases:
        res, ref = _oracle_pair(cfg, budget, grid, monkeypatch)
        assert _oracle_bits(res) == _oracle_bits(ref), (cfg, budget, grid)


def test_float_polish_keeps_every_bit_of_the_array_polish_from_eight_users(monkeypatch):
    # From 8 terms NumPy sums pairwise, and so does _user_sum.
    for cfg, budget, grid in _oracle_cases(np.random.default_rng(1953), [8, 9, 10, 11, 12], silent_every=5):
        res, ref = _oracle_pair(cfg, budget, grid, monkeypatch)
        assert _oracle_bits(res) == _oracle_bits(ref), (cfg, budget, grid)


def _assert_user_sum_is_ndarray_sum(n, draws):
    # Magnitudes from 1e-300 to 1e300 of both signs, with NaN, +-inf,
    # subnormals and signed zeros mixed in, as a list and as a tuple.
    # float.hex reads every NaN as "nan": the sign bit of a NaN sum is not
    # pinned, because NumPy's and Python's float add keep different operands'
    # NaN.
    rng = np.random.default_rng(n)
    specials = np.array([math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e-308])
    # Only -0.0 terms: the one case where the pairwise sum alone is -0.0.
    assert opt._user_sum([-0.0] * n).hex() == float(np.full(n, -0.0).sum()).hex() == "0x0.0p+0"
    for _ in range(draws):
        scale = 10.0 ** rng.uniform(-300.0, 300.0, size=1 if rng.random() < 0.5 else n)
        v = rng.uniform(1.0, 10.0, size=n) * scale * rng.choice([-1.0, 1.0], size=n)
        # Signed zeros too: NumPy sums from +0.0, so -0.0 alone sums to +0.0.
        v[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
        mixed = rng.random(n) < rng.choice([0.0, 0.0, 0.01, 0.1])
        v[mixed] = rng.choice(specials, size=int(mixed.sum()))
        with np.errstate(invalid="ignore"):  # inf - inf
            expected = float(v.sum()).hex()
        assert opt._user_sum(v.tolist()).hex() == expected, v.tolist()
        assert opt._user_sum(tuple(v.tolist())).hex() == expected, v.tolist()


@pytest.mark.parametrize("n", range(1, 8))
def test_user_order_sum_is_ndarray_sum_up_to_seven_terms(n):
    # Up to 7 terms ndarray.sum adds from 0.0 left to right, as _user_sum does
    # on Python floats; every bit the solvers share with NumPy rests on this.
    _assert_user_sum_is_ndarray_sum(n, 3000)


@pytest.mark.parametrize("n", [*range(8, 301), 511, 1025])
def test_user_sum_is_ndarray_sum_from_eight_terms(n):
    # From 8 terms NumPy sums pairwise, and so does _user_sum, in Python.
    # Above 128 terms NumPy splits the sum in two, at half the length rounded
    # down to a multiple of 8: 511 and 1,025 split twice and three times.
    _assert_user_sum_is_ndarray_sum(n, 300 if n <= 64 else 20)


class _NoNumPy:
    """Stands in for ``optimizer.np``: any use of NumPy fails."""

    def __getattr__(self, name):
        raise AssertionError(f"the float solvers called numpy.{name}")


def _solver_fields(solver, cfg, budget):
    try:
        res = solver(cfg, budget)
    except opt.SolverError as exc:
        return str(exc)
    if res is None:
        return None
    values = [*res.alloc.zeta_t, res.alloc.zeta_d, res.rho_star, res.nu_star, *res.lambdas, res.kkt_residual]
    return [v.hex() for v in values], res.active_set, res.method, res.iterations


def test_float_solvers_make_no_numpy_call(monkeypatch):
    # K 1-32 over the full range, one config with a silent user and one zero
    # budget; every field keeps its bits without NumPy.
    rng = np.random.default_rng(4096)
    cases = [
        (random_config(rng, k=k, p_lo=1e-3, p_hi=1e8), random_budget(rng, -40.0, 100.0))
        for k in (1, 2, 3, 4, 7, 8, 9, 12, 16, 24, 32) for _ in range(6)
    ]
    cfg = random_config(rng, k=12, p_lo=1e-3, p_hi=1e8)
    silent = replace(cfg.users[3], data_power=0.0)
    cases.append((mj.SystemConfig(cfg.block_len, cfg.users[:3] + (silent,) + cfg.users[4:]), mj.JammerBudget(50.0)))
    cases.append((random_config(rng, k=9), mj.JammerBudget(0.0)))
    solvers = (mj.solve, mj.solve_closed_form, mj.solve_kkt)
    expected = [[_solver_fields(s, cfg, budget) for s in solvers] for cfg, budget in cases]
    descent_case = (random_config(rng, k=16, p_lo=1e-3, p_hi=1e8, max_train_len=3), mj.JammerBudget(30.0))
    descent = _solver_fields(mj.solve_projected_descent, *descent_case)
    # The draw reaches the closed form, a closed form that is not interior
    # (None), path solves and, at the zero budget, the flat result.
    results = [f for row in expected for f in row]
    assert {f[2] for f in results if isinstance(f, tuple)} == {opt.METHOD_KKT, opt.METHOD_CLOSED_FORM}
    assert None in results
    assert expected[-1][2][1:] == ((), opt.METHOD_KKT, 0)
    monkeypatch.setattr(opt, "np", _NoNumPy())
    assert [[_solver_fields(s, cfg, budget) for s in solvers] for cfg, budget in cases] == expected
    assert _solver_fields(mj.solve_projected_descent, *descent_case) == descent


def test_build_result_reuses_the_gradient_only_where_the_point_is_unchanged():
    rng = np.random.default_rng(77)
    for k in (2, 9, 20):
        cfg = random_config(rng, k=k)
        sys = opt._sys(cfg, mj.JammerBudget(30.0))
        point = mj.solve_kkt(cfg, mj.JammerBudget(30.0)).alloc
        z = [*point.zeta_t, point.zeta_d]
        wrong = [g + 1.0 for g in opt._grad_z(sys, z)]
        for nu in (None, 0.25):
            def certificate(z, grad=None):
                res = opt._build_result(sys, z, opt.METHOD_KKT, 1, nu=nu, grad=grad)
                return [v.hex() for v in (*res.lambdas, res.nu_star, res.kkt_residual)]

            # Ratios that sum to 1 + 1e-9 are renormalized, so a gradient
            # passed in is not theirs and must not be used.
            moved = [v * (1.0 + 1e-9) for v in z]
            assert certificate(moved, grad=wrong) == certificate(moved), (k, nu)
            # At a point the renormalization returns unchanged, it is used.
            assert certificate(z, grad=opt._grad_z(sys, z)) == certificate(z), (k, nu)
            assert certificate(z, grad=wrong) != certificate(z), (k, nu)


def test_oracle_memory_peak_stays_bounded():
    cfg, power, _ = RECORDED[2]
    tracemalloc.start()
    try:
        mj.solve_oracle(cfg, mj.JammerBudget(power), grid_resolution=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_oracle_agrees_with_solve_over_extreme_range():
    # Powers -30..80 dB, budgets -40..100 dB, windows of 1-50 symbols.  The
    # polish's stop is relative, so rho* far below 1 is polished as far as
    # rho* near it.
    rng = np.random.default_rng(2)
    for i in range(100):
        cfg = random_config(rng, k=1 + i % 7, p_lo=1e-3, p_hi=1e8, max_train_len=50)
        budget = mj.JammerBudget(float(10 ** rng.uniform(-4.0, 10.0)))
        rho = mj.solve(cfg, budget).rho_star
        oracle = mj.solve_oracle(cfg, budget, grid_resolution=1e-3)
        assert abs(oracle.rho_star - rho) <= 1e-13 * rho, (i, cfg, budget)


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


def test_descent_agrees_with_solve_over_extreme_range():
    # K 1-8, powers -30..80 dB, budgets -40..100 dB, windows of 1-50 symbols.
    rng = np.random.default_rng(5)
    for i in range(40):
        cfg = random_config(rng, k=1 + i % 8, p_lo=1e-3, p_hi=1e8, max_train_len=50)
        budget = random_budget(rng, -40.0, 100.0)
        rho = mj.solve(cfg, budget).rho_star
        desc = mj.solve_projected_descent(cfg, budget)
        assert abs(desc.rho_star - rho) <= 1e-9 * rho, (i, cfg, budget)


# sha256 over the ends of the first 10 configs of this draw, one
# repr(([alloc float.hex...], rho*.hex(), iterations)) per line, recorded when
# every line-search trial of the descent recomputed all K users' terms.
TENS_OF_USERS_SHA256 = "432076e92b5236f1194b2271c3634ef983208021bb698016e8a0c0f58c9d3f0d"


def test_descent_at_tens_of_users_agrees_with_solve_and_keeps_every_bit():
    # K 16/24/32, powers -30..80 dB, budgets -40..100 dB, windows of 1-3 symbols.
    rng = np.random.default_rng(8)
    lines = []
    for i in range(10):
        cfg = random_config(rng, k=(16, 24, 32)[i % 3], p_lo=1e-3, p_hi=1e8, max_train_len=3)
        budget = random_budget(rng, -40.0, 100.0)
        res = mj.solve_projected_descent(cfg, budget)
        rho = mj.solve(cfg, budget).rho_star
        assert abs(res.rho_star - rho) <= 1e-9 * rho, (i, cfg, budget)
        lines.append(repr(([v.hex() for v in res.alloc.as_vector()], res.rho_star.hex(), res.iterations)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TENS_OF_USERS_SHA256


def test_pair_trial_gives_the_bits_of_rho_z_at_the_moved_point():
    # The data coordinate (index K) as up, as down and as neither; t at 0, at
    # both edges of the segment and inside it; K up to 12, so from 8 users the
    # sums are NumPy's pairwise ones.
    rng = np.random.default_rng(26)
    for i in range(48):
        k = 1 + i % 12
        cfg = random_config(rng, k=k, p_lo=1e-3, p_hi=1e8, max_train_len=50)
        sys = opt._sys(cfg, random_budget(rng, -40.0, 100.0))
        point = rng.dirichlet(np.ones(k + 1)).tolist()
        alphas, betas, _ = opt._terms_z(sys, point)
        pairs = [(k, int(rng.integers(k))), (int(rng.integers(k)), k)]
        if k > 1:
            pairs.append(tuple(rng.choice(k, size=2, replace=False).tolist()))
        for up, down in pairs:
            phi = opt._pair_trial(sys, point, alphas, betas, up, down)
            lo, hi = -point[up], point[down]
            for t in (0.0, lo, hi, *rng.uniform(lo, hi, size=3).tolist()):
                trial = list(point)
                trial[up] += t
                trial[down] = point[down] - t
                assert phi(t).hex() == opt._rho_z(trial, sys).hex(), (i, up, down, t)


def test_descent_from_optimum_stops_immediately():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    budget = mj.JammerBudget(25.0)
    kkt = mj.solve_kkt(cfg, budget)
    _, _, iterations = opt._descend(kkt.alloc.as_vector(), opt._sys(cfg, budget))
    assert iterations <= 2


def test_descent_line_search_keeps_a_positive_tolerance_for_a_subnormal_amount(monkeypatch):
    # 1e-12 * 1e-320 underflows to 0, and golden section need not stop at a
    # tolerance of 0: _golden_section(lambda t: t, 0.0, 1e-323, 0.0) never does.
    cfg, power, _ = RECORDED[2]
    budget = mj.JammerBudget(power)
    kkt = mj.solve_kkt(cfg, budget)
    assert kkt.active_set == (2,)
    z = kkt.alloc.as_vector()
    z[2] = 1e-320
    searches = []

    def golden(f, a, b, tol):
        searches.append((b - a, tol))
        return _golden_section(f, a, b, tol)

    monkeypatch.setattr(opt, "_golden_section", golden)
    _, rho, _ = opt._descend(z, opt._sys(cfg, budget))
    assert 1e-320 in [width for width, _ in searches]
    assert all(tol > 0.0 for _, tol in searches)
    assert rho == kkt.rho_star


def test_descent_returns_a_simplex_point_with_a_user_at_200_db():
    # max|g| ~ 1e18 here: a stop test against DESCENT_TOL * max|g| held at
    # every start and left (0.5, 0.5, 0), rho 9.30e18, after 0 steps.
    cfg = mj.SystemConfig(10, (mj.UserParams(1e20, 1e20, 1), mj.UserParams(10.0, 10.0, 1)))
    budget = mj.JammerBudget(1.0)
    res = mj.solve_projected_descent(cfg, budget)
    assert res.alloc.as_vector().tolist() == [1.0, 0.0, 0.0]
    assert res.rho_star == mj.solve_kkt(cfg, budget).rho_star


FLAT_CASES = {
    "zero_budget": (two_users((10.0, 20.0), (30.0, 10.0), (1, 2)), 0.0),
    "all_silent": (two_users((10.0, 20.0), (0.0, 0.0), (1, 2)), 5.0),
    # Every pd * pt underflows, so every w is 0 and rho is 0 everywhere, with S > 0.
    "data_power_underflows": (two_users((0.1, 0.2), (5e-324, 5e-324), (1, 2)), 5.0),
}
SOLVERS = {
    "solve": mj.solve,
    "solve_kkt": mj.solve_kkt,
    "solve_oracle": lambda cfg, budget: mj.solve_oracle(cfg, budget, grid_resolution=0.05),
    "solve_projected_descent": mj.solve_projected_descent,
}


@pytest.mark.parametrize("case", FLAT_CASES)
@pytest.mark.parametrize("solver", SOLVERS)
def test_every_solver_certifies_a_flat_objective(solver, case):
    cfg, pw = FLAT_CASES[case]
    budget = mj.JammerBudget(pw)
    res = SOLVERS[solver](cfg, budget)
    assert res.kkt_residual <= opt.CERT_TOL
    assert res.rho_star == mj.objective_rho(mj.uniform_allocation(cfg), cfg, budget)
    if solver in ("solve", "solve_kkt"):
        # The flat result: the duration-proportional split with nu 0 and residual 0.
        assert (res.alloc, res.nu_star, res.kkt_residual) == (mj.uniform_allocation(cfg), 0.0, 0.0)
    assert mj.solve_closed_form(cfg, budget) is None


def test_solvers_reject_energy_above_the_limit():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    below = mj.JammerBudget(0.5 * opt.MAX_ENERGY / cfg.block_len)
    assert mj.solve(cfg, below).kkt_residual <= opt.CERT_TOL
    above = mj.JammerBudget(2.0 * opt.MAX_ENERGY / cfg.block_len)
    message = re.escape(f"P_w T = {above.avg_power * cfg.block_len!r} exceeds the limit 1e+120")
    for solver in [*SOLVERS.values(), mj.solve_closed_form]:
        with pytest.raises(ValueError, match=message):
            solver(cfg, above)
    with pytest.raises(ValueError, match=message):
        mj.rho_gradient((0.5, 0.5), 0.0, cfg, above)


def test_interior_gradient_components_equalized():
    cfg = two_users((10.0, 20.0), (30.0, 10.0), (1, 2))
    budget = mj.JammerBudget(1000.0)
    res = mj.solve_projected_descent(cfg, budget)
    assert not res.active_set  # fully interior at this power
    g_t, g_d = mj.rho_gradient(res.alloc.zeta_t_vec(), res.alloc.zeta_d, cfg, budget)
    g = np.append(g_t, g_d)
    spread = float(g.max() - g.min())
    assert spread <= 1e-6 * abs(float(g.mean()))


def test_solve_is_its_closed_form_or_its_kkt_solve_bit_for_bit(monkeypatch):
    # solve builds its system once and runs the closed form and the path on it
    # through private helpers; the public solvers build their own.  solve must
    # give the closed form's fields where that certifies, else solve_kkt's
    # fields or its SolverError message (the closed form's, where it raises).
    # K 1-32 over the full range, a silent user, a zero budget and an
    # overflowing user (NaN rho).
    rng = np.random.default_rng(3131)
    cases = [
        (random_config(rng, k=k, p_lo=1e-3, p_hi=1e8), random_budget(rng, -40.0, 100.0))
        for k in (1, 2, 3, 4, 7, 8, 9, 16, 32) for _ in range(10)
    ]
    cfg = random_config(rng, k=5, p_lo=1e-3, p_hi=1e8)
    silent = replace(cfg.users[2], data_power=0.0)
    cases.append((mj.SystemConfig(cfg.block_len, cfg.users[:2] + (silent,) + cfg.users[3:]), mj.JammerBudget(20.0)))
    cases.append((random_config(rng, k=6), mj.JammerBudget(0.0)))
    cases += [(EXTREME_CONFIGS["nan_threshold_first"], mj.JammerBudget(pw)) for pw in (0.0, 1.0)]
    builds = []
    build = opt._sys
    monkeypatch.setattr(opt, "_sys", lambda *args: builds.append(args) or build(*args))
    seen = set()
    for cfg, budget in cases:
        closed = _solver_fields(mj.solve_closed_form, cfg, budget)
        final = isinstance(closed, str) or isinstance(closed, tuple) and float.fromhex(closed[0][-1]) <= opt.CERT_TOL
        expected = closed if final else _solver_fields(mj.solve_kkt, cfg, budget)
        builds.clear()
        assert _solver_fields(mj.solve, cfg, budget) == expected, (cfg, budget)
        assert len(builds) == 1
        seen.add(expected[2] if isinstance(expected, tuple) else "error")
        seen.add("not interior" if closed is None else "closed form ran")
    assert seen == {opt.METHOD_CLOSED_FORM, opt.METHOD_KKT, "error", "not interior", "closed form ran"}


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


@pytest.mark.parametrize(
    "pt, pd, tt, corollary",
    [
        ((10.0, 10.0), (5.0, 50.0), (1, 1), 1),
        ((2.0, 20.0), (10.0, 10.0), (1, 1), 2),
        ((10.0, 10.0), (10.0, 10.0), (1, 3), 3),
    ],
    ids=["more_data_power", "more_training_power", "longer_training"],
)
def test_corollary_ordering(pt, pd, tt, corollary):
    cfg = two_users(pt, pd, tt)
    res = mj.solve_kkt(cfg, mj.JammerBudget(10.0))
    assert res.alloc.zeta_t[1] >= res.alloc.zeta_t[0]
    verdicts = mj.check_corollary_orderings(res, cfg)
    assert all(v.passed for v in verdicts)
    assert {v.corollary for v in verdicts} == {corollary}


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


def test_activation_monotone_and_in_budget_order(fig_setup, fig_sweep_rows):
    powers = mj.activation_powers(fig_setup[1])
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
        # Each ratio is positive at exactly the grid points above its exact threshold.
        pw = mj.db_to_linear(row.pw_db)
        assert [z > 0.0 for z in row.zeta_t + (row.zeta_d,)] == [pw > p for p in powers], row.pw_db


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


@st.composite
def _simplex_segments(draw):
    """A config over the stated domain (K 1-8, powers -30..80 dB, windows of
    1-200 symbols, T = total training + 1..400), a budget of -40..100 dB and
    two simplex points."""
    k = draw(st.integers(1, 8))
    db = st.floats(-30.0, 80.0)
    users = tuple(
        mj.UserParams(mj.db_to_linear(draw(db)), mj.db_to_linear(draw(db)), draw(st.integers(1, 200)))
        for _ in range(k)
    )
    cfg = mj.SystemConfig(sum(u.train_len for u in users) + draw(st.integers(1, 400)), users)
    budget = mj.JammerBudget(mj.db_to_linear(draw(st.floats(-40.0, 100.0))))
    weights = st.lists(st.floats(0.0, 1.0), min_size=k + 1, max_size=k + 1).filter(lambda v: sum(v) > 0.0)
    ends = [np.array(draw(weights)) for _ in range(2)]
    return cfg, budget, [v / v.sum() for v in ends]


@settings(max_examples=200, deadline=None)
@given(_simplex_segments())
def test_rho_is_quasiconvex_along_simplex_segments(case):
    # Quasiconvexity, which the pseudoconvexity the oracle relies on implies:
    # rho along a segment never exceeds the larger endpoint beyond rounding.
    cfg, budget, (a, b) = case
    t = np.linspace(0.0, 1.0, 65)[:, None]
    z = (1.0 - t) * a + t * b
    rho = mj.rho_value(z[:, :-1], z[:, -1], cfg, budget)
    assert rho.max() <= max(rho[0], rho[-1]) * (1.0 + 1e-14)


# Two solve-wide benchmark inputs (seed 11 input 181, seed 20 input 174) on
# which solve_kkt finds no certified candidate: in the data-pinned branch the
# free training ratios sum to 1 off by ~1e-10, and renormalization rescales
# them in proportion to zeta rather than to w.  Every value is exact.
UNCERTIFIED_CASES = {
    "seed11_input181": (68, "0x1.f879e341bf57cp-2", [
        ("0x1.610ac5cdd7ce5p+23", "0x1.f6067f49f4b91p+22", 2),
        ("0x1.35cfaf39fd361p-10", "0x1.eda4f13efb84bp-9", 3),
        ("0x1.dd8b88ad35d58p-7", "0x1.920971464a108p-1", 1),
        ("0x1.cffa1c494c188p-6", "0x1.2ce27e17deb7bp+7", 3),
    ]),
    "seed20_input174": (122, "0x1.39a49ddd1cfabp-5", [
        ("0x1.a2888b1427728p+21", "0x1.a9335c8190eebp+1", 3),
        ("0x1.b9760c266f20cp-9", "0x1.16035be9c8ffcp+6", 2),
        ("0x1.e05f4c9ed89bep+20", "0x1.9feb606ce2998p+20", 3),
        ("0x1.e818b989da112p+15", "0x1.115a8aa2ee142p+0", 2),
    ]),
}


@pytest.mark.xfail(strict=True, raises=mj.SolverError, reason="known data-pinned certificate defect")
@pytest.mark.parametrize("case", UNCERTIFIED_CASES)
def test_known_uncertified_solve_wide_inputs(case):
    block_len, pw, users = UNCERTIFIED_CASES[case]
    cfg = mj.SystemConfig(
        block_len, tuple(mj.UserParams(float.fromhex(pt), float.fromhex(pd), tt) for pt, pd, tt in users)
    )
    assert mj.solve(cfg, mj.JammerBudget(float.fromhex(pw))).kkt_residual <= opt.CERT_TOL
