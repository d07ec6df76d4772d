"""replay-pollux: the full Pollux path a user runs, replayed to completion.

``PolicyHost`` + ``ReplayBackend(compression=inf)`` runs the ``pollux``
policy on the reduced preset of ``benchmarks/common.py`` (6x4 GPUs, 60
jobs over 8 h, GA 24x10): trace -> engine tick -> agent fits -> snapshot
-> GA -> apply -> tune.  The replay host's decision stream is the
simulator's, bit for bit.

The trace is drawn from the workload seed, stratified so that every seed
carries the same load: the model mix is the reduced preset's 60 jobs
split by ``WORKLOAD_FRACTIONS`` (largest remainder), arrival times are
one per equal-probability slice of the diurnal submission curve, and the
seed picks the order of models, each arrival's place in its slice and the
GPU request.  Independent sampling (``generate_trace``) lets one seed
draw three XLarge jobs and the next none, which moved average JCT 4x and
replay time 2x between seeds.
"""

from __future__ import annotations

import importlib
import time
from typing import List, Sequence

import numpy as np

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.host import HostMetrics, PolicyHost, ReplayBackend
from repro.sim import SimConfig, decision_digest
from repro.workload import MODEL_ZOO, JobSpec
from repro.workload.configs import sample_tuned_config
from repro.workload.models import WORKLOAD_FRACTIONS
from repro.workload.trace import hourly_submission_weights

from perfbench.common import (
    Outcome,
    cpu_seconds,
    median_setup,
    peak_rss_mb,
    percentile,
    span,
)
from perfbench.tracing import Tracer

NUM_NODES, GPUS_PER_NODE = 6, 4
NUM_JOBS, DURATION_HOURS = 60, 8.0
GA_POPULATION, GA_GENERATIONS = 24, 10
MAX_HOURS = 120.0

ROOT = "bench.replay"
#: A build takes a few milliseconds; more repeats steady its median.
SETUP_REPEATS = 11


def make_trace(seed: int, num_jobs: int = NUM_JOBS) -> List[JobSpec]:
    """The seed's stratified trace (see the module docstring)."""
    rng = np.random.default_rng(seed)
    names = sorted(WORKLOAD_FRACTIONS)
    exact = np.array([WORKLOAD_FRACTIONS[n] for n in names]) * num_jobs
    counts = np.floor(exact).astype(int)
    short = num_jobs - int(counts.sum())
    for idx in np.argsort(-(exact - counts), kind="stable")[:short]:
        counts[idx] += 1
    models = [name for name, count in zip(names, counts) for _ in range(count)]
    models = [models[i] for i in rng.permutation(num_jobs)]
    weights = hourly_submission_weights(DURATION_HOURS)
    cdf = np.concatenate([[0.0], np.cumsum(weights) / weights.sum()])
    quantiles = (np.arange(num_jobs) + rng.uniform(size=num_jobs)) / num_jobs
    times = np.interp(quantiles, cdf, np.arange(len(cdf)) * 3600.0)
    max_gpus = NUM_NODES * GPUS_PER_NODE
    trace = []
    for idx, (name, when) in enumerate(zip(models, times)):
        model = MODEL_ZOO[name]
        num_gpus, batch_size = sample_tuned_config(model, rng, max_gpus, GPUS_PER_NODE)
        trace.append(
            JobSpec(
                name=f"job-{idx:04d}",
                model=model,
                submission_time=float(when),
                fixed_num_gpus=num_gpus,
                fixed_batch_size=batch_size,
            )
        )
    return trace


def build(seed: int, num_jobs: int = NUM_JOBS) -> PolicyHost:
    cluster = ClusterSpec.homogeneous(NUM_NODES, GPUS_PER_NODE)
    policy = repro.policy.create(
        "pollux",
        cluster=cluster,
        seed=0,
        config=PolluxSchedConfig(
            ga=GAConfig(population_size=GA_POPULATION, generations=GA_GENERATIONS)
        ),
    )
    backend = ReplayBackend(
        cluster,
        make_trace(seed, num_jobs),
        SimConfig(seed=seed + 1000, max_hours=MAX_HOURS),
    )
    host = PolicyHost(policy, backend)
    # Keep every round: the default history drops rounds past 4096.
    host.metrics = HostMetrics(history_limit=1 << 20)
    return host


def _check_decisions(backend: ReplayBackend, errors: List[str]) -> None:
    """Check every applied decision against capacity and the active set."""
    apply = backend.apply_allocations

    def checked(allocations, jobs: Sequence) -> None:
        active = {job.name for job in jobs if not job.complete}
        used = np.zeros(backend.cluster().num_nodes, dtype=np.int64)
        for name, alloc in allocations.items():
            if np.any(alloc) and name not in active:
                errors.append(f"GPUs allocated to inactive job {name}")
            used += np.asarray(alloc, dtype=np.int64)
        over = used > backend.cluster().capacities()
        if np.any(over):
            errors.append(f"node capacity exceeded at t={backend.now():.0f}")
        apply(allocations, jobs)

    backend.apply_allocations = checked


def _install_probes(tracer: Tracer, host: PolicyHost, phases: dict) -> None:
    host_module = importlib.import_module("repro.host.service")
    agent_module = importlib.import_module("repro.core.agent")
    policy = host.policy

    def read_phases(_decision) -> None:
        for key, value in policy.last_phase_timings.items():
            phases[key] = phases.get(key, 0.0) + float(value)

    tracer.wrap(agent_module, "fit_throughput_params", "core.throughput.fit")
    tracer.wrap(host_module, "build_cluster_state", "policy.dispatch.snapshot")
    tracer.wrap(host_module, "apply_decision", "policy.dispatch.apply")
    tracer.wrap(host_module, "tune_batch_sizes", "core.agent.tune")
    tracer.wrap(policy, "schedule", "core.sched", after=read_phases)
    tracer.wrap(host.backend, "advance", "sim.engine")


def run(seed: int, seconds: float, tracer: Tracer = None, num_jobs: int = NUM_JOBS) -> Outcome:
    """Replay the seed's trace once; ``seconds`` does not shorten it."""
    del seconds
    out = Outcome()
    setup_s, host = median_setup(
        lambda: build(seed, num_jobs), lambda h: h.policy.close(), SETUP_REPEATS
    )
    _check_decisions(host.backend, out.errors)
    phases: dict = {}
    try:
        if tracer is not None:
            _install_probes(tracer, host, phases)
        t0 = time.perf_counter()
        with span(tracer, ROOT):
            result = host.run()
        sim_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    out.wall_s = sim_s

    names = [r.name for r in result.records]
    expected = [job.name for job in host.backend.engine.jobs]
    if sorted(names) != sorted(expected) or len(set(names)) != len(names):
        out.errors.append("trace jobs and completion records differ")
    out.attempted = len(expected)
    out.failed = result.num_unfinished
    if out.failed:
        out.errors.append(f"{out.failed} trace jobs did not complete")
    out.digest = decision_digest(result)

    rounds = list(host.metrics.rounds)
    sched_ms = [r.latency_s * 1e3 for r in rounds if r.scheduled]
    out.metrics = {
        "setup_s": setup_s,
        "cpu_s": cpu_seconds(),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": percentile(sched_ms, 50),
        "ops_per_s": len(sched_ms) / sim_s,
    }
    out.detail = {
        "sim_s": (sim_s, "s"),
        "avg_jct_h": (result.avg_jct() / 3600.0, "h"),
        "round_p50_ms": (percentile(sched_ms, 50), "ms"),
        "round_p99_ms": (percentile(sched_ms, 99), "ms"),
        "round_samples": (len(sched_ms), "count"),
        "failed_frac": (out.failed / max(out.attempted, 1), "ratio"),
    }

    if tracer is not None:
        fits = tracer.durations_ms("core.throughput.fit")
        table = tracer.layers()
        out.layer_table = table
        cache = host.policy.sched.surface_cache.stats
        dispatch_ms = [r.latency_s * 1e3 for r in rounds]

        def layer(name: str, key: str) -> float:
            return table.get(name, {}).get(key, 0.0)

        out.layers = {
            "core.throughput.fit_calls": len(fits),
            "core.throughput.fit_ms": sum(fits),
            "core.throughput.fit_p50_ms": percentile(fits, 50),
            "policy.dispatch.snapshot_ms": layer("policy.dispatch.snapshot", "self_ms"),
            "policy.dispatch.snapshot_calls": layer("policy.dispatch.snapshot", "count"),
            "policy.dispatch.apply_ms": layer("policy.dispatch.apply", "self_ms"),
            "core.agent.tune_calls": layer("core.agent.tune", "count"),
            "core.agent.tune_ms": layer("core.agent.tune", "self_ms"),
            "core.sched.schedule_ms": layer("core.sched", "busy_ms"),
            "core.sched.table_ms": phases.get("table_ms", 0.0),
            "core.genetic.repair_ms": phases.get("repair_ms", 0.0),
            "core.genetic.fitness_ms": phases.get("fitness_ms", 0.0),
            "core.genetic.select_ms": phases.get("select_ms", 0.0),
            "core.genetic.mutate_ms": phases.get("mutate_ms", 0.0),
            "core.surfacecache.cells_hit_ratio": cache.cells_hits
            / max(cache.cells_hits + cache.cells_misses, 1),
            "core.surfacecache.table_hit_ratio": cache.hits / max(cache.hits + cache.misses, 1),
            "core.surfacecache.evictions": cache.evictions,
            "sim.engine.advance_ms": layer("sim.engine", "self_ms"),
            "sim.engine.restarts": sum(r.num_restarts for r in result.records),
            "host.rounds": len(rounds),
            "host.dispatch_p50_ms": percentile(dispatch_ms, 50),
            "host.dispatch_max_ms": max(dispatch_ms, default=0.0),
        }
    return out


ROOTS = (ROOT,)
UNATTRIBUTED_GAP = "the host run loop between dispatch rounds and engine ticks"
