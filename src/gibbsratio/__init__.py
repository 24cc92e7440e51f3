"""Estimation of ln(Z(beta_min)/Z(beta_max)) for Gibbs energy models.

Exact count-instance analytics, sampling oracles with optional corruption,
TPA cooling-schedule generation, the paired product estimator with principled
parameter selection, adversarial product-form instances, and a reproducible
trial harness with a CLI.
"""

from .estimator import (
    EstimateResult,
    EstimatorConfig,
    build_config,
    detect_case,
    epsilon_tilde,
    estimate,
    median_boost,
    min_m,
    paired_product,
    tau_rho,
)
from .harness import (
    ExperimentConfig,
    TrialBatch,
    TrialRecord,
    run_suite,
    run_trials,
    verify_lemma10,
)
from .instance import (
    CountInstance,
    Schedule,
    energy_variance,
    load_instance,
    log_partition,
    log_ratio_true,
    mean_energy,
    paired_moments,
    save_instance,
    schedule_delta,
    singleton_instance,
    two_level_instance,
)
from .lowerbound import (
    LowerBoundInstance,
    build_from_grid,
    curvature_sup,
    perturb,
    sensitivity,
)
from .models import (
    GraphSpec,
    enumerate_colorings,
    enumerate_ising,
    enumerate_matchings,
    load_graph,
)
from .oracle import Corruption, SamplingOracle
from .tpa import (
    TpaOutput,
    generate_schedule,
    ppp_reference,
    tpa_multi,
    tpa_step,
)

__version__ = "0.1.0"

__all__ = [
    "CountInstance",
    "Schedule",
    "SamplingOracle",
    "Corruption",
    "TpaOutput",
    "EstimatorConfig",
    "EstimateResult",
    "ExperimentConfig",
    "TrialBatch",
    "TrialRecord",
    "GraphSpec",
    "LowerBoundInstance",
    "log_partition",
    "log_ratio_true",
    "mean_energy",
    "energy_variance",
    "schedule_delta",
    "paired_moments",
    "singleton_instance",
    "two_level_instance",
    "save_instance",
    "load_instance",
    "enumerate_ising",
    "enumerate_colorings",
    "enumerate_matchings",
    "load_graph",
    "tpa_step",
    "tpa_multi",
    "generate_schedule",
    "ppp_reference",
    "epsilon_tilde",
    "tau_rho",
    "min_m",
    "build_config",
    "detect_case",
    "paired_product",
    "estimate",
    "median_boost",
    "build_from_grid",
    "perturb",
    "sensitivity",
    "curvature_sup",
    "verify_lemma10",
    "run_trials",
    "run_suite",
]
