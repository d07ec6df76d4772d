"""Host-agreement check: paced vs unpaced replay, thread vs process executor.

Every simulation runs through the one dispatch loop,
:class:`~repro.host.PolicyHost` over a :class:`~repro.host.ReplayBackend`
at infinite time compression (:class:`~repro.sim.Simulator` is a facade
over exactly that), so a simulator-vs-host comparison would compare a run
with itself.  Two things can still make one trace's decision stream
differ, and this benchmark checks both with the decision digest
(:func:`repro.sim.decision_digest`):

- pacing: for every scenario, a replay paced against the wall clock (a
  finite ``compression``) must reproduce the unpaced simulation;
- execution: ``pollux-sharded`` with the process executor (worker
  processes, delta wire path) must reproduce the thread executor.

Scenarios: every registered policy on a shared trace (Or et al. on its
single-job cloud trace with autoscaling), the sharded policy under its
process executor, and autoscaling Pollux (the cadenced ``decide_resize``
path).  Any divergence exits non-zero, and the ``host-smoke`` CI job
fails.  The pinned digests of the simulation itself live in
``BENCH_perf.json`` (``bench_perf.py --check``).

Run modes:

    pytest benchmarks/bench_host_agreement.py -q -s   # assertion mode
    python benchmarks/bench_host_agreement.py         # exit 1 on divergence

``REPRO_BENCH_SCALE=smoke|reduced|paper`` selects the workload size and
``REPRO_BENCH_HOST_OUT`` the JSON report path (default
``BENCH_host_agreement.json``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

if __name__ == "__main__":  # script mode: make src/ and benchmarks/ importable
    _repo = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_repo / "src"))
    sys.path.insert(0, str(_repo))

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import AutoscaleConfig, GAConfig, PolluxSchedConfig
from repro.host import PolicyHost, ReplayBackend
from repro.sim import SimConfig, decision_digest
from repro.workload import MODEL_ZOO, JobSpec, TraceConfig, generate_trace

from benchmarks.common import SCALE, make_cluster, make_scheduler, print_header

#: One agreement scenario: (label, policy factory kwargs, cluster, trace).
Scenario = Tuple[str, str, Dict[str, object], ClusterSpec, List[JobSpec]]

#: Virtual seconds per wall second of the paced replay: a 30 s tick
#: sleeps 0.1 ms, so every tick takes the pacing path while the smoke
#: scale stays a few seconds.
PACED_COMPRESSION = 3.0e5

#: The scenarios whose digests must match across cell executors.
EXECUTOR_PAIR = ("pollux-sharded", "pollux-sharded+process")


def _scenarios() -> Iterator[Scenario]:
    """Every registered policy on the shared trace, plus autoscaling."""
    cluster = make_cluster()
    trace = generate_trace(
        TraceConfig(
            num_jobs=SCALE.num_jobs,
            duration_hours=SCALE.duration_hours,
            seed=1,
            max_gpus=cluster.total_gpus,
            gpus_per_node=SCALE.gpus_per_node,
        )
    )
    single_node = ClusterSpec.homogeneous(1, SCALE.gpus_per_node)
    cloud_trace = [
        JobSpec(
            name="cloud-job",
            model=MODEL_ZOO["resnet18-cifar10"],
            submission_time=0.0,
            fixed_num_gpus=SCALE.gpus_per_node,
            fixed_batch_size=512,
        )
    ]
    for name in repro.policy.available():
        if name == "orelastic":
            # Or et al. is the paper's single-large-job cloud scenario;
            # run it with its throughput-based autoscaling enabled.
            yield (
                name,
                name,
                {
                    "autoscale": True,
                    "min_nodes": 1,
                    "max_nodes": SCALE.num_nodes,
                    "gpus_per_node": SCALE.gpus_per_node,
                },
                single_node,
                cloud_trace,
            )
        else:
            yield name, name, {}, cluster, trace
    # The sharded policy's process executor must match the thread
    # executor: worker lifecycle (spawn at construction, teardown via the
    # host's policy.close()) and the delta wire path both ride this
    # scenario.
    yield (
        "pollux-sharded+process",
        "pollux-sharded",
        {"execution": "process"},
        cluster,
        trace,
    )
    # Goodput-utility autoscaling exercises the cadenced decide_resize
    # dispatch (pacing must not move its schedule either).
    yield (
        "pollux+autoscale",
        "pollux",
        {
            "autoscale": AutoscaleConfig(min_nodes=1, max_nodes=SCALE.num_nodes * 2),
            "autoscale_interval": 600.0,
        },
        cluster,
        trace,
    )


def _make_policy(policy: str, cluster: ClusterSpec, kwargs: Dict[str, object]):
    """Fresh registry-constructed policy (one per run, identical seeds).

    Built through ``make_scheduler`` so every scenario gets the benchmark
    scale's tuning (Pollux GA budget, Optimus GPU cap) — the kwargs
    scenarios (autoscaling) must not silently fall back to the
    paper-default 100x100 GA.
    """
    if repro.policy.canonical(policy) == "pollux-sharded" and kwargs:
        # Same construction make_scheduler would do (scale GA budget),
        # plus the executor kwargs — so this scenario's decisions line up
        # with the plain pollux-sharded one apart from the backend.
        return repro.policy.create(
            policy,
            cluster=cluster,
            seed=0,
            config=PolluxSchedConfig(
                ga=GAConfig(
                    population_size=SCALE.ga_population,
                    generations=SCALE.ga_generations,
                )
            ),
            **kwargs,
        )
    if repro.policy.canonical(policy) == "pollux":
        # make_scheduler only forwards extra kwargs into PolluxSchedConfig;
        # autoscale/autoscale_interval are registry kwargs, so construct
        # directly with the scale's GA budget.
        return repro.policy.create(
            policy,
            cluster=cluster,
            seed=0,
            config=PolluxSchedConfig(
                ga=GAConfig(
                    population_size=SCALE.ga_population,
                    generations=SCALE.ga_generations,
                )
            ),
            **kwargs,
        )
    if kwargs:
        return repro.policy.create(policy, cluster=cluster, seed=0, **kwargs)
    return make_scheduler(policy, cluster, seed=0)


def _replay(policy, cluster, trace, config, compression: float):
    """One replay of ``trace``; returns (result, host, wall seconds)."""
    host = PolicyHost(policy, ReplayBackend(cluster, trace, config, compression))
    t0 = time.perf_counter()
    result = host.run()
    return result, host, time.perf_counter() - t0


def run_bench() -> Dict[str, object]:
    sim_config = SimConfig(seed=1001, max_hours=SCALE.max_hours)
    runs: Dict[str, object] = {}
    for label, policy, kwargs, cluster, trace in _scenarios():
        unpaced, host, unpaced_s = _replay(
            _make_policy(policy, cluster, kwargs),
            cluster,
            trace,
            sim_config,
            float("inf"),
        )
        paced, _, paced_s = _replay(
            _make_policy(policy, cluster, kwargs),
            cluster,
            trace,
            sim_config,
            PACED_COMPRESSION,
        )
        digest = decision_digest(unpaced)
        paced_digest = decision_digest(paced)
        summary = host.metrics.summary()
        runs[label] = {
            "digest": digest,
            "paced_digest": paced_digest,
            "match": digest == paced_digest,
            "unpaced_wall_s": round(unpaced_s, 3),
            "paced_wall_s": round(paced_s, 3),
            "avg_jct_hours": round(unpaced.avg_jct() / 3600.0, 6),
            "host_rounds": summary["rounds"],
            "host_mean_latency_s": round(summary["mean_latency_s"], 6),
        }
    thread, process = (runs[label]["digest"] for label in EXECUTOR_PAIR)
    executors_agree = thread == process
    return {
        "scale": SCALE.name,
        "paced_compression": PACED_COMPRESSION,
        "executors_agree": executors_agree,
        "agree": executors_agree and all(r["match"] for r in runs.values()),
        "runs": runs,
    }


def _print_report(data: Dict[str, object]) -> None:
    print_header("Host agreement: paced vs unpaced replay, thread vs process")
    for label, run in data["runs"].items():
        status = "MATCH   " if run["match"] else "DIVERGED"
        print(
            f"{label:22s} {status} unpaced {run['unpaced_wall_s']:7.2f}s  "
            f"paced {run['paced_wall_s']:7.2f}s  "
            f"rounds {run['host_rounds']:4d}  "
            f"digest {run['digest'][:12]}"
        )
    executors = "MATCH" if data["executors_agree"] else "DIVERGED"
    print(f"pollux-sharded thread vs process executor: {executors}")
    verdict = "bit-for-bit agreement" if data["agree"] else "DIGEST DIVERGENCE"
    print(f"=> {verdict} across {len(data['runs'])} scenarios")


def test_host_agreement() -> None:
    data = run_bench()
    _print_report(data)
    for label, run in data["runs"].items():
        assert run["match"], (
            f"{label}: paced replay diverged from the unpaced run "
            f"({run['paced_digest'][:12]} vs {run['digest'][:12]})"
        )
    assert data["executors_agree"], (
        "pollux-sharded: process executor diverged from the thread executor"
    )


def main(argv: Optional[List[str]] = None) -> int:
    del argv
    data = run_bench()
    _print_report(data)
    out_path = Path(os.environ.get("REPRO_BENCH_HOST_OUT", "BENCH_host_agreement.json"))
    out_path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0 if data["agree"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
