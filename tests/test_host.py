"""Tests for the scheduling host (repro.host).

A simulation is PolicyHost + ReplayBackend at infinite compression, so
the guarantee left to pin is that pacing does not change decisions: a
replay paced against the wall clock reproduces the unpaced decision
stream bit-for-bit — same snapshot-build schedule, agent reports only for
``needs_agent`` policies, same RNG streams — for every registered policy,
including autoscaling, idle gaps, heterogeneous clusters, interference,
and the max-hours cutoff.  Plus service-lifecycle and live-threaded-backend
behavior.
"""

import time

import numpy as np
import pytest

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import AutoscaleConfig, GAConfig, PolluxSchedConfig
from repro.host import (
    HostConfig,
    PolicyHost,
    ReplayBackend,
    ThreadedBackend,
    ThreadedConfig,
)
from repro.sim import SimConfig, Simulator, decision_digest
from repro.workload import MODEL_ZOO, JobSpec, TraceConfig, generate_trace

QUICK_GA = PolluxSchedConfig(ga=GAConfig(population_size=8, generations=4))


def quick_policy(name: str, cluster: ClusterSpec, **kwargs):
    all_kwargs = {"cluster": cluster, "seed": 0}
    if repro.policy.canonical(name) == "pollux":
        all_kwargs["config"] = QUICK_GA
    all_kwargs.update(kwargs)
    return repro.policy.create(name, **all_kwargs)


def small_trace(cluster: ClusterSpec, count: int = 6, seed: int = 1):
    return generate_trace(
        TraceConfig(
            num_jobs=count,
            duration_hours=0.5,
            seed=seed,
            max_gpus=cluster.total_gpus,
            gpus_per_node=cluster.max_gpus_per_node,
        )
    )


#: Paced-replay speed for the agreement checks: a 30 s tick sleeps 0.1 ms
#: of wall clock, so every tick goes through the pacing path cheaply.
PACED = 3.0e5


def run_pair(cluster, trace, config, make_policy):
    """(unpaced simulation, paced replay) results, fresh policy each."""
    unpaced = Simulator(cluster, make_policy(), trace, config).run()
    backend = ReplayBackend(cluster, trace, config, compression=PACED)
    paced = PolicyHost(make_policy(), backend).run()
    return unpaced, paced


def digests_for(cluster, trace, config, make_policy):
    """(unpaced digest, paced digest) with fresh policies each."""
    unpaced, paced = run_pair(cluster, trace, config, make_policy)
    return decision_digest(unpaced), decision_digest(paced)


# ----------------------------------------------------------------------
# Replay agreement: pacing a replay does not change its decisions
# ----------------------------------------------------------------------


class TestReplayAgreement:
    @pytest.mark.parametrize(
        "name", sorted(set(repro.policy.available()) - {"orelastic"})
    )
    def test_every_policy_agrees(self, name):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster)
        unpaced, paced = digests_for(
            cluster,
            trace,
            SimConfig(seed=1001, max_hours=30.0),
            lambda: quick_policy(name, cluster),
        )
        assert unpaced == paced

    def test_orelastic_cloud_agrees(self):
        cluster = ClusterSpec.homogeneous(1, 4)
        trace = [
            JobSpec(
                name="cloud-job",
                model=MODEL_ZOO["resnet18-cifar10"],
                submission_time=0.0,
                fixed_num_gpus=4,
                fixed_batch_size=512,
            )
        ]
        unpaced, paced = digests_for(
            cluster,
            trace,
            SimConfig(seed=5, max_hours=30.0),
            lambda: quick_policy(
                "orelastic",
                cluster,
                autoscale=True,
                min_nodes=1,
                max_nodes=8,
                gpus_per_node=4,
            ),
        )
        assert unpaced == paced

    def test_pollux_autoscaling_agrees(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster)
        unpaced, paced = digests_for(
            cluster,
            trace,
            SimConfig(seed=1001, max_hours=30.0),
            lambda: quick_policy(
                "pollux",
                cluster,
                autoscale=AutoscaleConfig(min_nodes=1, max_nodes=4),
                autoscale_interval=600.0,
            ),
        )
        assert unpaced == paced

    def test_idle_gap_agrees(self):
        # Idle fast-forward must re-align the host timers the same way
        # whether or not the replay is paced.
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [
            JobSpec("early", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256),
            JobSpec("late", MODEL_ZOO["neumf-movielens"], 4 * 3600.0, 2, 256),
        ]
        unpaced, paced = digests_for(
            cluster,
            trace,
            SimConfig(seed=7, max_hours=30.0),
            lambda: quick_policy("pollux", cluster),
        )
        assert unpaced == paced

    def test_leading_idle_gap_agrees(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [JobSpec("only", MODEL_ZOO["resnet18-cifar10"], 7245.0, 2, 256)]
        unpaced, paced = digests_for(
            cluster,
            trace,
            SimConfig(seed=7, max_hours=30.0),
            lambda: quick_policy("pollux", cluster),
        )
        assert unpaced == paced

    def test_heterogeneous_with_interference_agrees(self):
        cluster = ClusterSpec.heterogeneous((("t4", 2, 4), ("v100", 2, 4)))
        trace = small_trace(cluster, count=8, seed=3)
        unpaced, paced = digests_for(
            cluster,
            trace,
            SimConfig(seed=11, max_hours=30.0, interference_slowdown=0.5),
            lambda: quick_policy("pollux", cluster),
        )
        assert unpaced == paced

    def test_max_hours_cutoff_agrees(self):
        cluster = ClusterSpec.homogeneous(1, 2)
        trace = small_trace(cluster, count=6)
        unpaced, paced = digests_for(
            cluster,
            trace,
            SimConfig(seed=1, max_hours=0.25),
            lambda: quick_policy("tiresias", cluster),
        )
        assert unpaced == paced

    def test_result_accounting_matches(self):
        # Beyond the digest: node-seconds, end time, and record fields.
        cluster = ClusterSpec.homogeneous(2, 4)
        unpaced, paced = run_pair(
            cluster,
            small_trace(cluster),
            SimConfig(seed=1001, max_hours=30.0),
            lambda: quick_policy("pollux", cluster),
        )
        assert paced.node_seconds == unpaced.node_seconds
        assert paced.end_time == unpaced.end_time
        assert len(paced.timeline) == len(unpaced.timeline)
        assert paced.records == unpaced.records


# ----------------------------------------------------------------------
# PolicyHost service behavior
# ----------------------------------------------------------------------


class TestPolicyHost:
    def test_round_metrics_recorded(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=3)
        host = PolicyHost(
            quick_policy("tiresias", cluster),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=10.0)),
        )
        host.run()
        summary = host.metrics.summary()
        assert summary["scheduling_rounds"] > 0
        assert summary["decisions_applied"] > 0
        assert summary["max_latency_s"] >= summary["mean_latency_s"] >= 0.0
        times = [r.time for r in host.metrics.rounds]
        assert times == sorted(times)

    def test_restart_accounting_in_metrics(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=6)
        host = PolicyHost(
            quick_policy("pollux", cluster),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=30.0)),
        )
        result = host.run()
        metric_restarts = sum(r.restarts_triggered for r in host.metrics.rounds)
        total_restarts = sum(r.num_restarts for r in result.records)
        assert metric_restarts == total_restarts

    def test_background_start_and_result(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=3)
        host = PolicyHost(
            quick_policy("tiresias", cluster),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=10.0)),
        )
        host.start()
        with pytest.raises(RuntimeError, match="already started"):
            host.start()
        result = host.drain(timeout=60.0)
        assert result is not None
        assert not host.running
        assert result is host.result

    def test_stop_halts_early(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=4)
        # Real-time pacing guarantees the run is still in flight at stop().
        backend = ReplayBackend(
            cluster, trace, SimConfig(seed=1, max_hours=30.0), compression=60.0
        )
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        time.sleep(0.2)
        host.stop(timeout=30.0)
        assert not host.running
        assert host.result is not None
        assert host.result.end_time < 30.0 * 3600.0

    def test_config_defaults_from_backend(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        config = SimConfig(seed=1, scheduling_interval=120.0, agent_interval=60.0)
        host = PolicyHost(
            quick_policy("tiresias", cluster),
            ReplayBackend(cluster, [], config),
        )
        assert host.config.scheduling_interval == 120.0
        assert host.config.agent_interval == 60.0

    def test_host_config_validation(self):
        with pytest.raises(ValueError):
            HostConfig(scheduling_interval=0.0)
        with pytest.raises(ValueError):
            HostConfig(agent_interval=-1.0)
        with pytest.raises(ValueError):
            HostConfig(batch_tuning="golden_section")  # typo must not pass
        with pytest.raises(ValueError):
            HostConfig(tuning_points_per_octave=0)

    def test_bundled_resize_counted_in_metrics(self):
        cluster = ClusterSpec.homogeneous(2, 4)

        class BundlingPolicy(repro.policy.Policy):
            name = "bundling"
            capabilities = repro.policy.PolicyCapabilities(autoscales=True)

            def schedule(self, now, state):
                return repro.policy.ScheduleDecision(
                    resize=repro.policy.ClusterResizeRequest(4)
                )

        trace = [JobSpec("j0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256)]
        host = PolicyHost(
            BundlingPolicy(),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=0.25)),
        )
        host.run()
        assert host.metrics.summary()["resizes"] >= 1

    def test_agent_only_rounds_recorded(self):
        # With agent_interval < scheduling_interval, agent-cadence rounds
        # must appear in the metrics too (a round is any due timer).
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=3)
        host = PolicyHost(
            quick_policy("pollux", cluster),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=10.0)),
        )
        host.run()
        summary = host.metrics.summary()
        assert summary["rounds"] > summary["scheduling_rounds"]

    def test_stop_interrupts_paced_replay_promptly(self):
        cluster = ClusterSpec.homogeneous(1, 2)
        trace = [JobSpec("slow", MODEL_ZOO["resnet50-imagenet"], 0.0, 2, 512)]
        # compression=3: a 30 s tick sleeps ~10 s of wall clock; stop()
        # must interrupt the sleep, not wait it out.
        backend = ReplayBackend(
            cluster, trace, SimConfig(seed=1, max_hours=30.0), compression=3.0
        )
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        time.sleep(0.3)
        t0 = time.perf_counter()
        host.stop(timeout=30.0)
        assert time.perf_counter() - t0 < 2.0
        assert not host.running

    def test_replay_compression_paces_wall_clock(self):
        cluster = ClusterSpec.homogeneous(1, 2)
        trace = [JobSpec("j0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256)]
        # 10 virtual minutes at 3600x compression: >= ~0.17 s wall.
        backend = ReplayBackend(
            cluster,
            trace,
            SimConfig(seed=1, max_hours=1.0 / 6.0),
            compression=3600.0,
        )
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        t0 = time.perf_counter()
        host.run()
        assert time.perf_counter() - t0 >= 0.15

    def test_replay_rejects_bad_compression(self):
        cluster = ClusterSpec.homogeneous(1, 2)
        with pytest.raises(ValueError):
            ReplayBackend(cluster, [], SimConfig(), compression=0.0)


# ----------------------------------------------------------------------
# ThreadedBackend: the live in-process cluster
# ----------------------------------------------------------------------


def fast_threaded(cluster, **kwargs):
    defaults = dict(time_scale=2400.0, quantum_seconds=0.01)
    defaults.update(kwargs)
    return ThreadedBackend(cluster, ThreadedConfig(**defaults))


class TestThreadedBackend:
    def test_live_submission_to_completion(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)
        host = PolicyHost(quick_policy("pollux", cluster), backend)
        host.start()
        backend.submit(JobSpec("live-0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256))
        backend.submit(JobSpec("live-1", MODEL_ZOO["neumf-movielens"], 120.0, 2, 256))
        result = host.drain(timeout=120.0)
        assert result is not None
        assert len(result.records) == 2
        assert all(r.finish_time is not None for r in result.records)
        assert host.metrics.summary()["scheduling_rounds"] > 0

    def test_trace_preload_honors_submission_times(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [
            JobSpec("t-0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256),
            JobSpec("t-1", MODEL_ZOO["neumf-movielens"], 300.0, 2, 256),
        ]
        backend = ThreadedBackend(
            cluster,
            ThreadedConfig(time_scale=2400.0, quantum_seconds=0.01),
            trace=trace,
        )
        submitted = []

        class Recorder(repro.policy.Policy):
            name = "recorder"
            capabilities = repro.policy.PolicyCapabilities()

            def on_job_submitted(self, now, job):
                submitted.append((job.name, now))

            def schedule(self, now, state):
                allocations = {
                    snap.name: np.array([snap.fixed_num_gpus, 0])
                    for snap in state.jobs
                }
                return repro.policy.ScheduleDecision(allocations=allocations)

        host = PolicyHost(Recorder(), backend)
        host.start()
        result = host.drain(timeout=120.0)
        assert result is not None
        names = [name for name, _ in submitted]
        assert names == ["t-0", "t-1"]
        # The late job was admitted no earlier than its recorded time.
        assert dict(submitted)["t-1"] >= 300.0

    def test_non_adaptive_policy_keeps_fixed_batch_size(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        backend.submit(JobSpec("fixed", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 192))
        # Grab the live job while it runs (completed jobs are compacted to
        # records); the reference stays valid after completion.
        job = None
        for _ in range(500):
            jobs = backend.jobs()
            if jobs:
                job = jobs[0]
                break
            time.sleep(0.01)
        assert job is not None, "job never admitted"
        result = host.drain(timeout=120.0)
        assert result is not None
        assert job.batch_size == 192.0

    def test_stop_without_drain(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster, time_scale=60.0)
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        backend.submit(JobSpec("slow", MODEL_ZOO["resnet50-imagenet"], 0.0, 4, 512))
        time.sleep(0.3)
        host.stop(timeout=30.0)
        assert not host.running
        result = host.result
        assert result is not None
        assert len(result.records) == 1
        assert result.records[0].finish_time is None  # abandoned in flight
