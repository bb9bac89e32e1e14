"""Delay impact of IEEE 802.11 frame aggregation.

Analytic chain (per-frame mean delay under k-frame batching), break-even
solver, and a seeded Monte Carlo simulator that serves as an independent
oracle for the closed forms.
"""

from .model import (
    BOTH_UNSTABLE,
    UNBOUNDED,
    PayloadFamily,
    PKForm,
    QueueMetrics,
    TrafficSpec,
    erlang_wait,
    evaluate,
    gain,
    queue_wait,
    service_time,
    service_variance,
    system_time,
)
from .phy import (
    OverheadBreakdown,
    PhyProfile,
    Standard,
    UnsupportedRateError,
    backoff_moments,
    overhead_gamma,
    profile_for,
)
from .sim import (
    SimConfig,
    SimMode,
    SimResult,
    ValidationReport,
    replications,
    simulate,
    validate_against_model,
)
from .solver import (
    SearchParams,
    ThresholdResult,
    gain_grid,
    k1_stability_limit,
    lambda_threshold,
    lambda_thresholds,
    optimal_k,
)

__version__ = "0.1.0"

__all__ = [
    "BOTH_UNSTABLE",
    "UNBOUNDED",
    "OverheadBreakdown",
    "PayloadFamily",
    "PhyProfile",
    "PKForm",
    "QueueMetrics",
    "SearchParams",
    "SimConfig",
    "SimMode",
    "SimResult",
    "Standard",
    "ThresholdResult",
    "TrafficSpec",
    "UnsupportedRateError",
    "ValidationReport",
    "backoff_moments",
    "erlang_wait",
    "evaluate",
    "gain",
    "gain_grid",
    "k1_stability_limit",
    "lambda_threshold",
    "lambda_thresholds",
    "optimal_k",
    "overhead_gamma",
    "profile_for",
    "queue_wait",
    "replications",
    "service_time",
    "service_variance",
    "simulate",
    "system_time",
    "validate_against_model",
]
