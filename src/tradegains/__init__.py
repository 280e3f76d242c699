"""Gains-from-trade analysis of the random proposer bilateral-trade mechanism.

The package computes, exactly on discrete and piecewise-linear-quantile
priors: the first-best gains from trade, the best-response posted-price
equilibrium, the geometric area decomposition behind the constant-factor
guarantees, the optimal scaling parameter of the ratio bound, Monte Carlo
cross-checks, and an adversarial worst-case instance search.
"""

from .distributions import (
    DiscreteDistribution,
    Distribution,
    PiecewiseLinearDistribution,
    ValidationReport,
    distribution_from_json,
    expect,
    point,
    uniform,
    validate,
)
from .errors import DomainError, InvariantViolation, ValidationError
from .geometry import (
    AggregateDecomposition,
    BoundReport,
    Decomposition,
    aggregate_decomposition,
    buyer_deviation_bound,
    decompose_fixed_v,
    key_lemma_margin,
    key_lemma_margins,
    seller_scaling_utility,
    sweep_bounds,
    verify_bounds,
)
from .mechanism import (
    BestResponse,
    EquilibriumReport,
    TradeInstance,
    acceptance_prob,
    buyer_best_response,
    buyer_best_response_many,
    equilibrium,
    first_best,
    role_swap,
    seller_best_response,
    trade_instance_from_json,
    trade_instance_to_json,
)
from .montecarlo import MechanismSimReport, SimEstimate, simulate_fb, simulate_mechanism
from .ratio import (
    GuaranteeMargins,
    LambdaOptimum,
    guarantee_check,
    optimize_lambda,
    ratio_bound,
)
from .search import (
    SearchConfig,
    SearchResult,
    canonical_uniform_instance,
    equal_revenue_instance,
    random_instance,
    worst_case_search,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateDecomposition",
    "BestResponse",
    "BoundReport",
    "Decomposition",
    "DiscreteDistribution",
    "Distribution",
    "DomainError",
    "EquilibriumReport",
    "GuaranteeMargins",
    "InvariantViolation",
    "LambdaOptimum",
    "MechanismSimReport",
    "PiecewiseLinearDistribution",
    "SearchConfig",
    "SearchResult",
    "SimEstimate",
    "TradeInstance",
    "ValidationError",
    "ValidationReport",
    "acceptance_prob",
    "aggregate_decomposition",
    "buyer_best_response",
    "buyer_best_response_many",
    "buyer_deviation_bound",
    "canonical_uniform_instance",
    "decompose_fixed_v",
    "distribution_from_json",
    "equal_revenue_instance",
    "equilibrium",
    "expect",
    "first_best",
    "guarantee_check",
    "key_lemma_margin",
    "key_lemma_margins",
    "optimize_lambda",
    "point",
    "random_instance",
    "ratio_bound",
    "role_swap",
    "seller_best_response",
    "seller_scaling_utility",
    "simulate_fb",
    "simulate_mechanism",
    "sweep_bounds",
    "trade_instance_from_json",
    "trade_instance_to_json",
    "uniform",
    "validate",
    "verify_bounds",
    "worst_case_search",
]
