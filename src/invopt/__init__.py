"""invopt: stochastic inventory policy simulation and optimization.

Models daily product demand as a Bernoulli-thinned lognormal order stream,
simulates periodic-review (order-up-to) and continuous-review (r, Q)
policies with seeded Monte-Carlo replication, computes closed-form
order-quantity and risk analytics, and tunes policy parameters with a
Gaussian-process optimizer using an expected-improvement acquisition.
"""

__version__ = "0.1.0"

from .catalog import (
    Catalog,
    ProductSpec,
    ReconciliationReport,
    ReconciliationWarning,
    load_catalog,
    reconcile,
    write_catalog,
)
from .eoq import (
    EoqReport,
    build_eoq_report,
    continuous_q_star,
    eoq,
    expected_lost_order_proportion,
    reorder_point,
    safety_stock,
    total_annual_cost,
    total_annual_profit,
)
from .errors import (
    ConfigError,
    DomainError,
    InvoptError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .gpbo import (
    BoConfig,
    BoResult,
    ConditioningFn,
    GpModel,
    Kernel,
    ObjectiveError,
    bo_run,
    condition_mvn,
    expected_improvement,
    gp_fit,
    gp_posterior,
    probability_of_improvement,
    propose_next,
)
from .objectives import ProfitObjective, policy_profit_objective
from .riskmetrics import (
    RiskReport,
    build_risk_report,
    expected_backorder_cost,
    expected_fill_rate,
    holding_cost_risk,
    inventory_holding_cost,
    service_level,
    supplier_performance_rank,
)
from .sensitivity import (
    BaselineOutputs,
    SensitivityRow,
    SensitivitySpec,
    policy_safety_stock,
    sensitivity_linear,
    sensitivity_resim,
)
from .simengine import (
    ContinuousReview,
    DayRecord,
    PeriodicReview,
    PolicyComparison,
    ReplicationStats,
    RunSamples,
    SimConfig,
    catalog_cases,
    compare_policies,
    demand_model,
    replicate,
    replication_samples,
    simulate_cases,
    simulate_once,
    sweep_oup,
)
from .stochastic import (
    RNG_ALGORITHM,
    DemandModel,
    Deterministic,
    LeadTimeModel,
    MeetOrDelay,
    RngStream,
    demand_series,
    fit_lognormal,
    lead_time_series,
)
