"""Simulation-based inference for stochastic hybrid growth models.

The package pairs an adaptive ABC sequential Monte Carlo engine with an
auxiliary linear-Gaussian summary of trajectory batches, and ships a
two-state growth-inhibition culture model as its reference application.
"""

from ._version import __version__
from .distance import DistanceSpec, auxiliary_distance, information_weight, naive_distance
from .evaluate import (
    PredictiveSample,
    confidence_interval,
    ks_statistic,
    run_cell,
    run_replication,
    sample_posterior_predictive,
    sample_true_predictive,
)
from .lgdbn import (
    AuxiliaryFit,
    SummaryLayout,
    SummaryStatistics,
    fit_mle,
    flatten,
    joint_distribution,
    summarize,
)
from .model import (
    Dataset,
    ErythroblastModel,
    Prior,
    SimulationError,
    erythroblast_prior,
    generate_dataset,
)
from .smc import (
    PerturbationKernel,
    Population,
    PosteriorApproximation,
    SmcSettings,
    adapt_kernel,
    adapt_tolerance,
    compute_weight,
    perturb,
    resample_index,
    run_abc_smc,
    run_inference,
)

__all__ = [
    "__version__",
    "AuxiliaryFit",
    "Dataset",
    "DistanceSpec",
    "ErythroblastModel",
    "PerturbationKernel",
    "Population",
    "PosteriorApproximation",
    "PredictiveSample",
    "Prior",
    "SimulationError",
    "SmcSettings",
    "SummaryLayout",
    "SummaryStatistics",
    "adapt_kernel",
    "adapt_tolerance",
    "auxiliary_distance",
    "compute_weight",
    "confidence_interval",
    "erythroblast_prior",
    "fit_mle",
    "flatten",
    "generate_dataset",
    "information_weight",
    "joint_distribution",
    "ks_statistic",
    "naive_distance",
    "perturb",
    "resample_index",
    "run_abc_smc",
    "run_cell",
    "run_inference",
    "run_replication",
    "sample_posterior_predictive",
    "sample_true_predictive",
    "summarize",
]
