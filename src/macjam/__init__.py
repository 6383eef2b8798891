"""Jamming energy allocation against training-based multiple access channels.

The jammer splits a fixed energy budget between each user's pilot window and
the shared data phase to minimize closed-form bounds on the legitimate
ergodic sum-rate.  :mod:`macjam.model` holds the statistics, ``rates`` the
Monte Carlo evaluator and bounds, ``optimizer`` the solvers, ``scenario`` the
configuration layer, and ``cli`` the command-line front end.
"""

from .model import (
    EstimationQuality,
    JammerAllocation,
    JammerBudget,
    SystemConfig,
    UserParams,
    alpha_beta_gamma,
    lmmse_quality,
    objective_rho,
    phase_jam_powers,
    rho_from_estimation,
    rho_value,
    uniform_allocation,
)
from .optimizer import (
    OrderingVerdict,
    SolveResult,
    SolverError,
    activation_powers,
    check_corollary_orderings,
    evaluate_kkt,
    rho_gradient,
    solve,
    solve_asymptotic,
    solve_closed_form,
    solve_kkt,
    solve_oracle,
    solve_projected_descent,
)
from .rates import (
    EULER_GAMMA,
    MonteCarloSettings,
    RateReport,
    SampleBank,
    draw_samples,
    rate_report,
    sum_rate_lb,
    sum_rate_mc,
    sum_rate_ub,
)
from .scenario import (
    ScenarioError,
    ScenarioSpec,
    budget_split,
    bundled_scenario_path,
    db_to_linear,
    dump_scenario,
    linear_to_db,
    load_scenario,
    save_scenario,
    split_for_fraction,
    to_system_config,
)

__version__ = "0.1.0"
