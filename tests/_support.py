"""Shared random generators and reference helpers for the test suites."""

import numpy as np

import macjam as mj


def random_user(rng, p_lo=0.1, p_hi=100.0, max_train_len=3):
    log_lo, log_hi = np.log10(p_lo), np.log10(p_hi)
    return mj.UserParams(
        train_power=float(10 ** rng.uniform(log_lo, log_hi)),
        data_power=float(10 ** rng.uniform(log_lo, log_hi)),
        train_len=int(rng.integers(1, max_train_len + 1)),
    )


def random_config(rng, k=None, kmax=4, **user_kw):
    if k is None:
        k = int(rng.integers(1, kmax + 1))
    users = tuple(random_user(rng, **user_kw) for _ in range(k))
    total_train = sum(u.train_len for u in users)
    block = int(rng.integers(total_train + 2, total_train + 120))
    return mj.SystemConfig(block, users)


def random_alloc(rng, k):
    v = rng.dirichlet(np.ones(k + 1))
    return mj.JammerAllocation(tuple(v[:-1]), float(v[-1]))


def random_budget(rng, db_lo=-10.0, db_hi=40.0):
    return mj.JammerBudget(float(10 ** rng.uniform(db_lo / 10.0, db_hi / 10.0)))


def rate_reduction_limit(cfg):
    """Closed-form P_w -> inf limit L of the reduction ``1 - rho*/rho_unif``.

    With ``w_k = T_t_k sqrt(p_d_k p_t_k)`` and block energy ``E = P_w T``,
    ``rho -> T_d sum_k(w_k^2 / zeta_t_k) / (zeta_d E^2)`` as ``E -> inf``.
    On the simplex that is least at ``zeta_d = 1/2``, ``zeta_t_k`` proportional
    to ``w_k`` (the asymptotic optimum), giving ``4 T_d (sum_k w_k)^2 / E^2``;
    the uniform split ``zeta_t_k = T_t_k / T``, ``zeta_d = T_d / T`` gives
    ``T^2 sum_k T_t_k p_d_k p_t_k / E^2``.  Their ratio is ``1 - L``.  Built
    from the config alone, so it checks the solvers rather than reusing them.
    """
    pt, pd, tt = cfg.train_power_vec(), cfg.data_power_vec(), cfg.train_len_vec()
    w = tt * np.sqrt(pd * pt)
    return 1.0 - 4.0 * cfg.data_len * w.sum() ** 2 / (
        cfg.block_len**2 * (tt * pd * pt).sum()
    )

