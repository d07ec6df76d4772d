"""Helpers shared by the three workloads: percentiles, resource use, host shape."""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: Thread-count variables OpenBLAS/OpenMP read at import.
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Outcome:
    """What one pass of a workload measured.

    ``metrics`` holds the end-to-end metrics by BENCHMARK.json name;
    ``detail`` the workload's own named figures (value, unit); ``layers``
    and ``layer_table`` the per-layer metrics and span table of a traced
    pass; ``errors`` every failed output check.  ``wall_s`` is the time
    the tracing overhead is computed from: the measured phase's wall time,
    or the summed base-rung latency for the service.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    wall_s: float = 0.0
    layer_table: Dict[str, Dict[str, float]] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median_setup(
    build: Callable[[], object], close: Callable[[object], None], repeats: int
):
    """Build ``repeats`` times; return (median seconds, last build).

    ``setup_s`` is the median, so one slow construction does not move it.
    Every build but the last is closed; the caller measures on the last.
    """
    times = []
    built = None
    for _ in range(repeats):
        if built is not None:
            close(built)
            built = None
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), built


def span(tracer, name: str):
    """``tracer.span(name)``, or a no-op context on an untraced pass."""
    return nullcontext() if tracer is None else tracer.span(name)


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def host_shape() -> Dict[str, object]:
    """The machine facts a timing depends on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {name: os.environ[name] for name in _BLAS_ENV if name in os.environ}
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # OpenBLAS uses one thread per CPU unless one of these is set.
        "blas_threads": env or f"default ({os.cpu_count()})",
        "mp_start_method": (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        ),
    }
