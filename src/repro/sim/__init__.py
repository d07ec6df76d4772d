"""Discrete-time cluster simulation (Sec. 5.3).

:class:`ClusterEngine` is the mechanism: job state, admission, noisy
profiling, ground-truth progress, allocation and resize mechanics.
:class:`Simulator` runs a trace on it through the repo's one dispatch
loop, :class:`repro.host.PolicyHost` over :class:`repro.host.ReplayBackend`
at infinite time compression; :func:`decision_digest` fingerprints the
resulting decision stream.
"""

from .engine import ClusterEngine
from .job import JobPhase, SimJob
from .metrics import (
    JobRecord,
    SimResult,
    TimelineSample,
    average_summaries,
    decision_digest,
)
from .simconfig import SimConfig
from .simulator import Simulator

__all__ = [
    "JobPhase",
    "SimJob",
    "JobRecord",
    "SimResult",
    "TimelineSample",
    "average_summaries",
    "decision_digest",
    "ClusterEngine",
    "SimConfig",
    "Simulator",
]
