"""Pollux core: goodput modeling, job-level and cluster-wide optimization."""

from .adascale import (
    AdaScaleState,
    adascale_gain,
    adascale_lr,
    linear_scale_lr,
    sqrt_scale_lr,
)
from .agent import AgentReport, PolluxAgent, optimistic_params
from .autoscale import AutoscaleConfig, AutoscaleDecision, UtilityAutoscaler
from .efficiency import EfficiencyModel, GradientStats, efficiency, gradient_noise_scale
from .genetic import (
    GA_ENGINES,
    AllocationProblem,
    GAConfig,
    GeneticOptimizer,
    GeneticOptimizerV2,
    JobGAInfo,
    make_optimizer,
)
from .goldensection import golden_section_search, golden_section_search_int
from .goodput import BatchSizeLimits, GoodputModel, batch_size_grid
from .sched import PolluxSched, PolluxSchedConfig, SchedJobInfo, job_weight
from .speedup import (
    best_batch_size_table,
    build_speedup_table,
    build_surfaces,
    build_surfaces_batch,
    build_typed_speedup_table,
    build_typed_surfaces,
    speedup,
)
from .surfacecache import CacheStats, SurfaceCache
from .throughput import (
    ExplorationState,
    ProfileEntry,
    ThroughputModel,
    ThroughputParams,
    fit_throughput_params,
    project_throughput_params,
    t_iter_scalar,
    throughput_scalar,
)

__all__ = [
    "AdaScaleState",
    "adascale_gain",
    "adascale_lr",
    "linear_scale_lr",
    "sqrt_scale_lr",
    "AgentReport",
    "PolluxAgent",
    "optimistic_params",
    "AutoscaleConfig",
    "AutoscaleDecision",
    "UtilityAutoscaler",
    "EfficiencyModel",
    "GradientStats",
    "efficiency",
    "gradient_noise_scale",
    "AllocationProblem",
    "GAConfig",
    "GA_ENGINES",
    "GeneticOptimizer",
    "GeneticOptimizerV2",
    "JobGAInfo",
    "make_optimizer",
    "golden_section_search",
    "golden_section_search_int",
    "BatchSizeLimits",
    "GoodputModel",
    "batch_size_grid",
    "PolluxSched",
    "PolluxSchedConfig",
    "SchedJobInfo",
    "job_weight",
    "best_batch_size_table",
    "build_speedup_table",
    "build_surfaces",
    "build_surfaces_batch",
    "build_typed_speedup_table",
    "build_typed_surfaces",
    "speedup",
    "CacheStats",
    "SurfaceCache",
    "ExplorationState",
    "ProfileEntry",
    "ThroughputModel",
    "ThroughputParams",
    "fit_throughput_params",
    "project_throughput_params",
    "t_iter_scalar",
    "throughput_scalar",
]
