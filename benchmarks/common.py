"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's evaluation
(Sec. 5).  Because the full paper scale (16 nodes x 4 GPUs, 160 jobs, 8-hour
submission window, GA with population 100 x 100 generations, 8 seeds) takes
hours in pure Python, benchmarks default to a reduced scale that preserves
the *shape* of every result (orderings, ratios, crossovers).  Set

    REPRO_BENCH_SCALE=paper

to run the full-scale configuration, ``REPRO_BENCH_SCALE=smoke`` for a
<60 s CI smoke run (tiny trace, shape assertions relaxed), and
``REPRO_BENCH_SEEDS=<n>`` to average over more trace seeds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.sim import SimConfig, SimResult, Simulator
from repro.workload import TraceConfig, generate_trace

__all__ = [
    "BenchScale",
    "SCALE",
    "DEFAULT_POLICIES",
    "run_policy",
    "run_all_policies",
    "print_header",
    "load_baseline",
]


@dataclass(frozen=True)
class BenchScale:
    """One benchmark scale preset."""

    name: str
    num_nodes: int
    gpus_per_node: int
    num_jobs: int
    duration_hours: float
    ga_population: int
    ga_generations: int
    seeds: Sequence[int]
    max_hours: float

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node


# The reduced preset keeps the paper's load *ratios*: 2.5 jobs per GPU
# (160 jobs / 64 GPUs) and the same arrival rate per GPU (the 8-hour
# diurnal window), on a 24-GPU cluster with a smaller GA budget.
_REDUCED = BenchScale(
    name="reduced",
    num_nodes=6,
    gpus_per_node=4,
    num_jobs=60,
    duration_hours=8.0,
    ga_population=24,
    ga_generations=10,
    seeds=(1,),
    max_hours=120.0,
)

_PAPER = BenchScale(
    name="paper",
    num_nodes=16,
    gpus_per_node=4,
    num_jobs=160,
    duration_hours=8.0,
    ga_population=100,
    ga_generations=100,
    seeds=tuple(range(8)),
    max_hours=200.0,
)

# CI smoke preset: finishes in well under a minute; the shape assertions in
# the benchmarks are relaxed at this scale (too small to be meaningful).
_SMOKE = BenchScale(
    name="smoke",
    num_nodes=2,
    gpus_per_node=4,
    num_jobs=8,
    duration_hours=1.0,
    ga_population=10,
    ga_generations=5,
    seeds=(1,),
    max_hours=30.0,
)

_SCALES = {"paper": _PAPER, "smoke": _SMOKE, "reduced": _REDUCED}


def _select_scale() -> BenchScale:
    scale = _SCALES.get(os.environ.get("REPRO_BENCH_SCALE", "reduced"), _REDUCED)
    seeds_env = os.environ.get("REPRO_BENCH_SEEDS")
    if seeds_env:
        scale = BenchScale(
            **{
                **scale.__dict__,
                "seeds": tuple(range(int(seeds_env))),
            }
        )
    return scale


SCALE = _select_scale()


def make_cluster(scale: BenchScale = SCALE) -> ClusterSpec:
    return ClusterSpec.homogeneous(scale.num_nodes, scale.gpus_per_node)


def make_scheduler(policy: str, cluster: ClusterSpec, scale: BenchScale = SCALE,
                   seed: int = 0, **pollux_kwargs):
    """Instantiate a scheduling policy via the :mod:`repro.policy` registry.

    ``policy`` is any registered name or alias (``repro.policy.
    available()``); unknown names raise ``ValueError`` from the registry.
    Benchmark-scale tuning rides along as registry kwargs: Pollux gets the
    scale's GA budget (with ``pollux_kwargs`` overriding further
    ``PolluxSchedConfig`` fields), Optimus gets the cluster-wide GPU cap.
    """
    kwargs: Dict[str, object] = {"cluster": cluster, "seed": seed}

    def pollux_config():
        return {
            "config": PolluxSchedConfig(
                ga=GAConfig(
                    population_size=scale.ga_population,
                    generations=scale.ga_generations,
                ),
                **pollux_kwargs,
            )
        }

    scale_kwargs = {
        "pollux": pollux_config,
        "pollux-sharded": pollux_config,
        "optimus": lambda: {"max_gpus_per_job": cluster.total_gpus},
    }
    extra = scale_kwargs.get(repro.policy.canonical(policy))
    if extra is not None:
        kwargs.update(extra())
    return repro.policy.create(policy, **kwargs)


def run_policy(
    policy: str,
    seed: int,
    scale: BenchScale = SCALE,
    user_configured_fraction: float = 0.0,
    num_jobs: Optional[int] = None,
    duration_hours: Optional[float] = None,
    interference_slowdown: float = 0.0,
    pollux_kwargs: Optional[Dict] = None,
    cluster: Optional[ClusterSpec] = None,
) -> SimResult:
    """Run one policy on one generated trace.

    ``cluster`` overrides the scale's homogeneous cluster (used by the
    heterogeneous benchmark to run the same trace on a typed fleet).
    """
    if cluster is None:
        cluster = make_cluster(scale)
    trace = generate_trace(
        TraceConfig(
            num_jobs=num_jobs if num_jobs is not None else scale.num_jobs,
            duration_hours=(
                duration_hours if duration_hours is not None
                else scale.duration_hours
            ),
            seed=seed,
            max_gpus=cluster.total_gpus,
            gpus_per_node=cluster.max_gpus_per_node,
            user_configured_fraction=user_configured_fraction,
        )
    )
    scheduler = make_scheduler(policy, cluster, scale, **(pollux_kwargs or {}))
    sim = Simulator(
        cluster,
        scheduler,
        trace,
        SimConfig(
            seed=seed + 1000,
            max_hours=scale.max_hours,
            interference_slowdown=interference_slowdown,
        ),
    )
    return sim.run()


#: Registry names of the policies the Table-2-style comparisons run.
DEFAULT_POLICIES = ("pollux", "optimus+oracle", "tiresias")


def run_all_policies(
    seed: int,
    scale: BenchScale = SCALE,
    policies: Sequence[str] = DEFAULT_POLICIES,
    **kwargs,
) -> Dict[str, SimResult]:
    return {
        policy: run_policy(policy, seed, scale, **kwargs)
        for policy in policies
    }


def mean_over_seeds(
    fn: Callable[[int], Dict[str, float]], scale: BenchScale = SCALE
) -> Dict[str, float]:
    """Average a per-seed metric dict over the configured seeds."""
    accum: Dict[str, List[float]] = {}
    for seed in scale.seeds:
        for key, value in fn(seed).items():
            accum.setdefault(key, []).append(value)
    return {key: sum(vals) / len(vals) for key, vals in accum.items()}


def print_header(title: str, scale: BenchScale = SCALE) -> None:
    print(f"\n=== {title} ===")
    print(
        f"[scale={scale.name}: {scale.num_nodes}x{scale.gpus_per_node} GPUs, "
        f"{scale.num_jobs} jobs / {scale.duration_hours:.0f}h, "
        f"GA {scale.ga_population}x{scale.ga_generations}, "
        f"seeds={list(scale.seeds)}]"
    )


def load_baseline(path: Path, key: str) -> Optional[Dict[str, object]]:
    """The ``key`` entry of a committed baseline file, or None if absent.

    ``--check`` gates read it before writing their fresh result: run from
    the repo root, the default output path is the baseline file itself.
    """
    if not path.exists():
        print(f"no baseline at {path}; skipping check")
        return None
    entry = json.loads(path.read_text()).get(key)
    if entry is None:
        print(f"baseline {path} has no entry for {key!r}; skipping check")
    return entry
