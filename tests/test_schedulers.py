"""Tests for the concrete scheduling policies (Pollux + baselines).

Policies are exercised through the Policy API (snapshot states in,
ScheduleDecision out).
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, validate_allocation_matrix
from repro.core import GAConfig, PolluxSchedConfig
from repro.policy import (
    OptimusPolicy,
    OrElasticPolicy,
    Policy,
    PolluxPolicy,
    TiresiasPolicy,
    snapshot_state,
)
from repro.sim.job import SimJob
from repro.workload import MODEL_ZOO, JobSpec


def make_sim_job(
    name,
    model="resnet18-cifar10",
    submit=0.0,
    gpus=2,
    bs=256,
    num_nodes=4,
    progress_frac=0.0,
    gputime=0.0,
) -> SimJob:
    spec = JobSpec(
        name=name,
        model=MODEL_ZOO[model],
        submission_time=submit,
        fixed_num_gpus=gpus,
        fixed_batch_size=bs,
    )
    job = SimJob(spec, num_nodes)
    job.progress = progress_frac * job.target
    job.gputime = gputime
    return job


def run_schedule(policy: Policy, jobs, cluster, now=0.0):
    """Dispatch one scheduling event through the Policy API."""
    state = snapshot_state(
        cluster, jobs, with_reports=policy.capabilities.needs_agent
    )
    return policy.schedule(now, state)


def allocations_of(policy: Policy, jobs, cluster, now=0.0):
    return dict(run_schedule(policy, jobs, cluster, now).allocations)


@pytest.fixture
def cluster() -> ClusterSpec:
    return ClusterSpec.homogeneous(4, 4)


class TestTiresias:
    def test_allocates_fixed_gpu_counts(self, cluster):
        sched = TiresiasPolicy()
        jobs = [make_sim_job("a", gpus=3), make_sim_job("b", gpus=2)]
        allocations = allocations_of(sched, jobs, cluster)
        assert allocations["a"].sum() == 3
        assert allocations["b"].sum() == 2

    def test_las_priority_prefers_low_service(self, cluster):
        sched = TiresiasPolicy(queue_thresholds_gpu_hours=(1.0,))
        # Cluster with room for only one of the two 16-GPU jobs.
        heavy = make_sim_job("old", gpus=16, gputime=20 * 3600.0)
        light = make_sim_job("new", gpus=16, gputime=0.0)
        allocations = allocations_of(sched, [heavy, light], cluster)
        assert allocations["new"].sum() == 16
        assert allocations["old"].sum() == 0

    def test_fifo_within_queue(self, cluster):
        sched = TiresiasPolicy()
        first = make_sim_job("first", submit=0.0, gpus=16)
        second = make_sim_job("second", submit=10.0, gpus=16)
        allocations = allocations_of(sched, [second, first], cluster)
        assert allocations["first"].sum() == 16
        assert allocations["second"].sum() == 0

    def test_keeps_running_allocation_stable(self, cluster):
        sched = TiresiasPolicy()
        job = make_sim_job("a", gpus=4)
        job.allocation = np.array([0, 4, 0, 0])
        allocations = allocations_of(sched, [job], cluster)
        np.testing.assert_array_equal(allocations["a"], [0, 4, 0, 0])

    def test_consolidates_replicas(self, cluster):
        sched = TiresiasPolicy()
        jobs = [make_sim_job("a", gpus=4)]
        allocations = allocations_of(sched, jobs, cluster)
        assert (allocations["a"] > 0).sum() == 1

    def test_requests_capped_to_cluster(self, cluster):
        sched = TiresiasPolicy()
        jobs = [make_sim_job("a", gpus=64)]
        allocations = allocations_of(sched, jobs, cluster)
        assert allocations["a"].sum() == cluster.total_gpus

    def test_feasible_matrix(self, cluster):
        sched = TiresiasPolicy()
        jobs = [make_sim_job(f"j{i}", gpus=3) for i in range(8)]
        allocations = allocations_of(sched, jobs, cluster)
        matrix = np.stack([allocations[j.name] for j in jobs])
        assert not validate_allocation_matrix(matrix, cluster)


class TestOptimus:
    def test_min_gpus_for_large_batch(self, cluster):
        sched = OptimusPolicy()
        # Batch 2048 needs 2 GPUs at max_local_bsz=1024.
        job = make_sim_job("big-batch", bs=2048)
        allocations = allocations_of(sched, [job], cluster)
        assert allocations["big-batch"].sum() >= 2

    def test_gives_spare_gpus_to_scalable_job(self, cluster):
        sched = OptimusPolicy()
        job = make_sim_job("only", bs=512)
        allocations = allocations_of(sched, [job], cluster)
        assert allocations["only"].sum() > 1

    def test_short_jobs_not_starved(self, cluster):
        sched = OptimusPolicy()
        big = make_sim_job("imagenet", model="resnet50-imagenet", bs=256)
        smalls = [make_sim_job(f"s{i}", bs=256) for i in range(4)]
        allocations = allocations_of(sched, [big] + smalls, cluster)
        for small in smalls:
            assert allocations[small.name].sum() >= 1

    def test_reallocation_interval_damping(self, cluster):
        sched = OptimusPolicy(reallocation_interval=600.0)
        job = make_sim_job("a", bs=512)
        first = allocations_of(sched, [job], cluster, now=0.0)
        job.allocation = first["a"]
        job.progress = 0.5 * job.target  # would normally change the counts
        second = allocations_of(sched, [job], cluster, now=60.0)
        np.testing.assert_array_equal(second["a"], first["a"])
        # After the interval, reallocation happens again.
        third = allocations_of(sched, [job], cluster, now=700.0)
        assert third["a"].sum() > 0

    def test_new_job_triggers_fresh_allocation(self, cluster):
        sched = OptimusPolicy(reallocation_interval=600.0)
        job_a = make_sim_job("a", bs=512)
        allocations_of(sched, [job_a], cluster, now=0.0)
        job_b = make_sim_job("b", bs=512)
        allocations = allocations_of(sched, [job_a, job_b], cluster, now=60.0)
        assert allocations["b"].sum() >= 1

    def test_feasible_matrix(self, cluster):
        sched = OptimusPolicy()
        jobs = [make_sim_job(f"j{i}", bs=256) for i in range(6)]
        allocations = allocations_of(sched, jobs, cluster)
        matrix = np.stack([allocations[j.name] for j in jobs])
        assert not validate_allocation_matrix(matrix, cluster)


class TestPolluxPolicy:
    def test_schedules_and_respects_constraints(self, cluster):
        sched = PolluxPolicy(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=16, generations=8)),
        )
        jobs = [make_sim_job(f"j{i}") for i in range(3)]
        for job in jobs:
            job.agent.record_iteration(1, 1, 128, 0.1)
        allocations = allocations_of(sched, jobs, cluster)
        matrix = np.stack([allocations[j.name] for j in jobs])
        assert not validate_allocation_matrix(
            matrix, cluster, forbid_interference=True
        )

    def test_current_utility_bounds(self, cluster):
        sched = PolluxPolicy(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=16, generations=8)),
        )
        jobs = [make_sim_job("a")]
        jobs[0].allocation = np.array([1, 0, 0, 0])
        state = snapshot_state(cluster, jobs, with_reports=True)
        util = sched.current_utility(state.jobs)
        assert 0.0 <= util <= 1.0
        assert sched.current_utility([]) == 0.0

    def test_requires_agent_reports(self, cluster):
        sched = PolluxPolicy(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=8, generations=4)),
        )
        state = snapshot_state(cluster, [make_sim_job("a")], with_reports=False)
        with pytest.raises(ValueError, match="no agent report"):
            sched.schedule(0.0, state)


class TestOrElastic:
    def test_single_job_gets_everything(self, cluster):
        sched = OrElasticPolicy()
        job = make_sim_job("solo", model="resnet50-imagenet", bs=256)
        decision = run_schedule(sched, [job], cluster)
        assert decision.allocations["solo"].sum() == cluster.total_gpus
        # Batch size fixed at the throughput-optimal (memory-capped) value,
        # via the decision (the Policy API replaces in-place mutation).
        assert decision.batch_sizes["solo"] == min(
            job.model.limits.max_batch_size,
            cluster.total_gpus * job.model.limits.max_local_bsz,
        )

    def test_multi_job_rejected(self, cluster):
        sched = OrElasticPolicy()
        jobs = [make_sim_job("a"), make_sim_job("b")]
        with pytest.raises(ValueError):
            run_schedule(sched, jobs, cluster)

    def test_autoscaler_scales_out_for_scalable_model(self, cluster):
        sched = OrElasticPolicy(autoscale=True, max_nodes=16, marginal_efficiency=0.5)
        job = make_sim_job("solo", model="resnet50-imagenet", bs=256)
        state = snapshot_state(cluster, [job])
        request = sched.decide_resize(0.0, state)
        assert request.num_nodes > 4  # ImageNet scales well on throughput alone

    def test_autoscaler_is_progress_independent(self, cluster):
        # Throughput-based scaling ignores statistical efficiency: the
        # decision is identical early and late in training (Fig. 10a).
        sched = OrElasticPolicy(autoscale=True, max_nodes=16)
        early = make_sim_job("e", model="resnet50-imagenet", progress_frac=0.01)
        late = make_sim_job("l", model="resnet50-imagenet", progress_frac=0.95)
        early_req = sched.decide_resize(0.0, snapshot_state(cluster, [early]))
        late_req = sched.decide_resize(0.0, snapshot_state(cluster, [late]))
        assert early_req.num_nodes == late_req.num_nodes

    def test_empty_decide_returns_min(self, cluster):
        sched = OrElasticPolicy(autoscale=True, min_nodes=2, max_nodes=8)
        request = sched.decide_resize(0.0, snapshot_state(cluster, []))
        assert request.num_nodes == 2
