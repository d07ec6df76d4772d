"""Discrete-time cluster simulator (Sec. 5.3).

Reproduces the paper's simulator semantics:

- jobs progress at their ground-truth goodput (throughput x statistical
  efficiency, with phi_true evolving over each job's lifetime);
- the scheduling policy is invoked at a fixed interval (60 s in the paper)
  and each job's agent re-tunes its batch size at a fixed interval (30 s);
- every re-allocation pauses the job for a checkpoint-restart delay (30 s);
- optional network interference slows down distributed jobs sharing a node
  (Sec. 5.3.2);
- autoscaling policies grow/shrink the cluster (Sec. 4.2.2/5.3.3),
  optionally with a chosen GPU type on heterogeneous clusters;
- on typed clusters, ground-truth goodput runs at the compute speed of the
  job's slowest allocated node, and agents record each measurement's device
  speed so fitted models project across GPU types.

There is one dispatch loop in the repo: :class:`~repro.host.PolicyHost`.
A simulation is that loop replaying the trace through
:class:`~repro.host.ReplayBackend` at infinite time compression, so
:class:`Simulator` is a thin facade that wires the two together.  The
mechanism (job state, admission, ground-truth advancement, allocation and
resize mechanics) is :class:`~repro.sim.engine.ClusterEngine`; dispatch
speaks only :class:`~repro.policy.base.Policy`.

Completion times are interpolated within a tick, so tick granularity does
not quantize JCTs.
"""

from __future__ import annotations

from typing import List, Sequence

from ..cluster.spec import ClusterSpec
from ..policy.base import Policy
from ..workload.trace import JobSpec
from .job import SimJob
from .metrics import SimResult
from .simconfig import SimConfig

__all__ = ["SimConfig", "Simulator"]


class Simulator:
    """Drives a workload trace through a scheduling policy.

    ``scheduler`` is a :class:`repro.policy.base.Policy` (construct one
    with :func:`repro.policy.create`); anything else raises ``TypeError``.
    It is kept as :attr:`policy`.  :attr:`host` is the
    :class:`~repro.host.PolicyHost` that runs the simulation;
    :attr:`jobs`, :attr:`cluster` and :attr:`now` read its replay engine.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        scheduler: Policy,
        jobs: Sequence[JobSpec],
        config: SimConfig = SimConfig(),
    ):
        # Imported here: repro.host imports repro.sim (engine, metrics),
        # so a module-level import would make the two packages cyclic.
        from ..host.replay import ReplayBackend
        from ..host.service import PolicyHost

        self.policy = scheduler
        self.host = PolicyHost(scheduler, ReplayBackend(cluster, jobs, config))

    @property
    def jobs(self) -> List[SimJob]:
        """Every trace job's runtime state, in submission order."""
        return self.host.backend.engine.jobs

    @property
    def cluster(self) -> ClusterSpec:
        """The current (possibly autoscaled) cluster."""
        return self.host.backend.engine.cluster

    @property
    def now(self) -> float:
        """Simulated time, in seconds since the trace start."""
        return self.host.backend.engine.now

    def run(self) -> SimResult:
        """Run to completion (or the ``max_hours`` safety cap)."""
        return self.host.run()
