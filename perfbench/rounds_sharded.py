"""rounds-sharded: the sharded policy layer alone, on typed rounds with churn.

``pollux-sharded`` with ``execution="process"`` (default worker count,
default ``TypeCellPartitioner``) schedules a 512-GPU cluster of three GPU
types (a100 16x8, v100 16x8, t4 32x8: three cells).  256 jobs carry
already-fitted synthetic reports from ``bench_scale``'s generator, so no
fits and no engine ticks run: the figures time the policy layer only.
Every round feeds the decision's allocations back and drifts phi; about
2% of jobs get a new theta each round; every 10th round about 5% of jobs
leave and as many arrive.  All of it is drawn from the workload seed.
The GA budget is ``bench_scale``'s scale preset.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Dict, List

import numpy as np

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.policy.views import ClusterState

from benchmarks.bench_scale import _SCALE, _digest_decision, _synthetic_state

from perfbench.common import (
    Outcome,
    cpu_seconds,
    median_setup,
    peak_rss_mb,
    percentile,
    span,
)
from perfbench.tracing import Tracer

CLUSTER_GROUPS = (("a100", 16, 8), ("v100", 16, 8), ("t4", 32, 8))
NUM_JOBS = 256
#: Steady rounds measured at least, whatever ``--seconds`` says.
MIN_ROUNDS = 200
REFIT_FRACTION = 0.02
CHURN_EVERY, CHURN_FRACTION = 10, 0.05
SETUP_REPEATS = 5

ROOT = "bench.rounds"


class RoundInputs:
    """The seed's sequence of cluster states, one per round."""

    def __init__(self, seed: int, cluster: ClusterSpec, num_jobs: int = NUM_JOBS):
        self.cluster = cluster
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.first = _synthetic_state(cluster, num_jobs, seed=seed)
        self.base_phi = {
            s.name: s.agent_report.grad_noise_scale for s in self.first.jobs
        }
        self.phase = {s.name: float(self.rng.uniform(0, 2 * np.pi)) for s in self.first.jobs}
        self.arrivals = 0

    def _arrive(self, count: int, round_idx: int) -> List:
        fresh = _synthetic_state(self.cluster, count, seed=self.seed * 7919 + round_idx)
        snaps = []
        for snap in fresh.jobs:
            name = f"arrival-{self.arrivals}"
            self.arrivals += 1
            self.base_phi[name] = snap.agent_report.grad_noise_scale
            self.phase[name] = float(self.rng.uniform(0, 2 * np.pi))
            snaps.append(dataclasses.replace(snap, name=name))
        return snaps

    def next(self, state: ClusterState, decision, round_idx: int) -> ClusterState:
        jobs = list(state.jobs)
        refit = set(
            self.rng.choice(len(jobs), size=max(1, round(REFIT_FRACTION * len(jobs))), replace=False)
        )
        out = []
        for idx, snap in enumerate(jobs):
            report = snap.agent_report
            theta = report.throughput_params
            if idx in refit:
                theta = dataclasses.replace(
                    theta,
                    alpha_grad=theta.alpha_grad * float(self.rng.uniform(0.9, 1.1)),
                    beta_grad=theta.beta_grad * float(self.rng.uniform(0.9, 1.1)),
                )
            phi = self.base_phi[snap.name] * (
                1.0 + 0.25 * np.sin(round_idx / 8.0 + self.phase[snap.name])
            )
            out.append(
                dataclasses.replace(
                    snap,
                    allocation=decision.allocations[snap.name],
                    gputime=snap.gputime + float(decision.allocations[snap.name].sum()) * 60.0,
                    agent_report=dataclasses.replace(
                        report, throughput_params=theta, grad_noise_scale=float(phi)
                    ),
                )
            )
        if round_idx % CHURN_EVERY == 0:
            leave = max(1, round(CHURN_FRACTION * len(out)))
            gone = set(self.rng.choice(len(out), size=leave, replace=False))
            out = [snap for idx, snap in enumerate(out) if idx not in gone]
            out.extend(self._arrive(leave, round_idx))
        return ClusterState(cluster=state.cluster, jobs=tuple(out))


def _check(policy, state: ClusterState, decision) -> List[str]:
    """Capacity, active-set and own-cell checks for one decision."""
    errors = []
    names = {snap.name for snap in state.jobs}
    if set(decision.allocations) != names:
        errors.append("decision does not cover exactly the active jobs")
    used = np.zeros(state.cluster.num_nodes, dtype=np.int64)
    assignment = policy.assignment
    for name, alloc in decision.allocations.items():
        used += alloc
        cell_nodes = policy.cells[assignment[name]].node_indices
        outside = np.ones(len(alloc), dtype=bool)
        outside[list(cell_nodes)] = False
        if np.any(alloc[outside]):
            errors.append(f"job {name} holds GPUs outside its cell")
    if np.any(used > state.cluster.capacities()):
        errors.append("node capacity exceeded")
    return errors


def build(seed: int, num_jobs: int = NUM_JOBS):
    """Policy (workers spawned), first state and the cold first round."""
    cluster = ClusterSpec.heterogeneous(CLUSTER_GROUPS)
    policy = repro.policy.create(
        "pollux-sharded",
        cluster=cluster,
        seed=0,
        execution="process",
        config=PolluxSchedConfig(
            ga=GAConfig(
                population_size=_SCALE.ga_population,
                generations=_SCALE.ga_generations,
            )
        ),
    )
    inputs = RoundInputs(seed, cluster, num_jobs)
    decision = policy.schedule(0.0, inputs.first)
    return policy, inputs, decision


def run(
    seed: int,
    seconds: float,
    tracer: Tracer = None,
    num_jobs: int = NUM_JOBS,
    min_rounds: int = MIN_ROUNDS,
) -> Outcome:
    out = Outcome()
    setup_s, (policy, inputs, decision) = median_setup(
        lambda: build(seed, num_jobs), lambda built: built[0].close(), SETUP_REPEATS
    )
    state = inputs.first
    digest = hashlib.sha1()
    round_ms: List[float] = []
    utilities: List[float] = []
    report_sum: Dict[str, float] = {}
    cell_max_ms = cell_sum_ms = 0.0
    cells = len(policy.cells)
    rounds = failed = 0
    try:
        if tracer is not None:
            tracer.wrap(policy, "schedule", "shard.policy")
            tracer.wrap(policy._executor, "run_rounds", "shard.executor")
        t0 = time.perf_counter()
        with span(tracer, ROOT):
            while rounds < min_rounds or time.perf_counter() - t0 < seconds:
                rounds += 1
                with span(tracer, "bench.feed"):
                    state = inputs.next(state, decision, rounds)
                start = time.perf_counter()
                try:
                    decision = policy.schedule(rounds * 60.0, state)
                except Exception as exc:  # counted as a failed round
                    failed += 1
                    out.errors.append(f"round {rounds} raised {exc!r}")
                    break
                round_ms.append((time.perf_counter() - start) * 1e3)
                errors = _check(policy, state, decision)
                if errors:
                    failed += 1
                    out.errors.extend(f"round {rounds}: {e}" for e in errors)
                # Only the guaranteed rounds: the digest must not depend on
                # how many rounds a machine fits into ``seconds``.
                if rounds <= min_rounds:
                    _digest_decision(digest, decision)
                utilities.append(policy.last_utility)
                report = policy.last_round_report
                for key, value in report["sum"].items():
                    report_sum[key] = report_sum.get(key, 0.0) + value
                cell_max_ms += report["max"].get("total_ms", 0.0)
                cell_sum_ms += report["sum"].get("total_ms", 0.0)
        out.wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
        fallbacks = policy.fallback_rounds
        migrations = policy.migrations
        policy.close()
    out.attempted, out.failed = rounds, failed
    out.digest = digest.hexdigest()
    out.metrics = {
        "setup_s": setup_s,
        "cpu_s": cpu_seconds(),
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_ms": percentile(round_ms, 50),
        "ops_per_s": len(round_ms) / (sum(round_ms) / 1e3) if round_ms else 0.0,
    }
    out.detail = {
        "round_p50_ms": (percentile(round_ms, 50), "ms"),
        "round_p95_ms": (percentile(round_ms, 95), "ms"),
        "round_samples": (len(round_ms), "count"),
        "mean_utility": (sum(utilities) / max(len(utilities), 1), "ratio"),
        "failed_frac": (failed / max(rounds, 1), "ratio"),
    }
    if tracer is not None:
        table = tracer.layers()
        out.layer_table = table
        out.layers = {
            "core.sched.schedule_ms": report_sum.get("total_ms", 0.0),
            "core.sched.table_ms": report_sum.get("table_ms", 0.0),
            "core.genetic.repair_ms": report_sum.get("repair_ms", 0.0),
            "core.genetic.fitness_ms": report_sum.get("fitness_ms", 0.0),
            "core.genetic.select_ms": report_sum.get("select_ms", 0.0),
            "core.genetic.mutate_ms": report_sum.get("mutate_ms", 0.0),
            "shard.cell_compute_ms_max": cell_max_ms,
            "shard.cell_compute_ms_sum": cell_sum_ms,
            "shard.straggler_ratio": cell_max_ms / (cell_sum_ms / cells) if cell_sum_ms else 0.0,
            "shard.executor.ipc_ms": report_sum.get("ipc_ms", 0.0),
            "shard.executor.fallback_rounds": fallbacks,
            "shard.policy.stitch_ms": table.get("shard.policy", {}).get("self_ms", 0.0),
            "shard.policy.migrations": migrations,
        }
    return out


ROOTS = (ROOT,)
UNATTRIBUTED_GAP = "the benchmark loop's own checks and digest between rounds"
