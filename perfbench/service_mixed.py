"""service-mixed: the multi-tenant HTTP service under an open-loop mix.

``SchedulerService`` + ``ServiceServer`` front a ``PolicyHost`` on a
``ThreadedBackend`` running ``tiresias`` on 8x8 GPUs at 2000x time
compression, with 4 tenants and no quota.  ``tiresias`` has no agents,
so no fits and no GA run: the figures cover the service, tenancy,
transport and host-lock layers.

Load is an open loop from one generator process (``loadgen.py``): 2
threads, each holding one persistent HTTP/1.1 connection, send requests on
a fixed schedule (request ``i`` is due at a seeded point in the first half
of its ``1 / rate`` slot; even and odd requests go to the two
connections; ladder rungs are strictly periodic).  Each request is timed from its due time, so a stalled
connection charges its wait to every request queued behind it.  The mix,
drawn from the workload seed, is 40% ``POST /v1/jobs``, 10% ``DELETE`` of
an earlier job, 40% ``GET`` of an earlier job and 10% ``GET /metrics``.

A base rung at 20 req/s gives the latency figures.  A ladder then doubles
the rate from 40 req/s, stopping at the first rung that misses the limit
(p95 <= 100 ms, with every failed request counted as a miss) or at
640 req/s.  A request unfinished at its rung's deadline counts as
failed; 5xx responses, transport errors and time-outs are failures; 404
and 409 (cancelling a finished job) are expected outcomes.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.policy
from repro.cluster import ClusterSpec
from repro.host import PolicyHost, ThreadedBackend, ThreadedConfig
from repro.service import SchedulerService, ServiceServer
from repro.service import server as server_module

from benchmarks.bench_service import _SCHED_INTERVAL, _TIME_SCALE

from perfbench.common import (
    Outcome,
    cpu_seconds,
    median_setup,
    peak_rss_mb,
    percentile,
)
from perfbench.loadgen import SPAN_HEADER, LoadGenerator
from perfbench.tracing import Tracer

NUM_NODES, GPUS_PER_NODE = 8, 8
NUM_TENANTS = 4
BASE_RATE = 20.0
#: At least 200 writes and 200 reads at the base rung.
BASE_REQUESTS = 440
LADDER_START, LADDER_CAP = 40.0, 640.0
LADDER_RUNG_S = 3.0
LATENCY_LIMIT_MS = 100.0
#: How long after its last due time a rung waits for stragglers.
GRACE_S = 1.0
#: Earlier requests a GET/DELETE may target: far enough back that the
#: target's POST has normally been answered.
TARGET_LAG = (8, 40)
#: Base-rung requests are due at a seeded point in the first half of
#: their slot: strictly periodic arrivals phase-lock with the backend's
#: 50 ms worker quantum and the host's dispatch cadence, which made the
#: base-rung p95 swing 2x from run to run.  Ladder rungs stay periodic:
#: jitter shortens some gaps on a connection below the ~50 ms at which
#: the keep-alive stall starts, which would move the capacity probe.
BASE_JITTER = 0.5

ROOT = "bench.request"
LADDER_ROOT = "bench.ladder_request"
#: Setups of the service stack measured per run (each close waits for
#: the HTTP server's 0.5 s shutdown poll).
SETUP_REPEATS = 7

WRITE_OPS = ("submit", "cancel")


@dataclass
class Request:
    op: str  # submit | cancel | status | metrics
    tenant: str
    job: str  # job name (submit) or target job id (cancel/status)
    model: str = ""
    #: Seeded offset into the request's slot, as a fraction of 1 / rate.
    jitter: float = 0.0
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: failed (transport error, time-out, unsent)

    def wire(self) -> tuple:
        return (self.op, self.tenant, self.job, self.model, self.jitter)


@dataclass
class Rung:
    rate: float
    requests: List[Request] = field(default_factory=list)

    def latencies_ms(self, ops=None) -> List[float]:
        """Due-to-done latency; failures count as infinitely late."""
        return [
            (r.done - r.due) * 1e3 if r.status else float("inf")
            for r in self.requests
            if ops is None or r.op in ops
        ]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.requests if not r.status or r.status >= 500)

    @property
    def passed(self) -> bool:
        return not self.failed and percentile(self.latencies_ms(), 95) <= LATENCY_LIMIT_MS

    def achieved_rate(self) -> float:
        done = [r.done for r in self.requests if r.status]
        span = max(done) - self.requests[0].due if done else 0.0
        return len(done) / span if span > 0 else 0.0


def make_schedule(
    seed: int, rate: float, count: int, tag: str, jitter: float = 0.0
) -> List[Request]:
    """The seed's request mix for one rung.

    Ops follow an exact 40/10/40/10 submit/cancel/status/metrics split,
    except that a cancel or status drawn before any submit becomes one.
    """
    rng = np.random.default_rng([seed, int(rate)])
    ops = np.array(["submit"] * 4 + ["cancel"] + ["status"] * 4 + ["metrics"])
    ops = np.resize(ops, count)[rng.permutation(count)]
    requests: List[Request] = []
    submits: List[int] = []
    for i, op in enumerate(ops):
        tenant = f"team-{int(rng.integers(NUM_TENANTS))}"
        if op == "submit" or not submits and op != "metrics":
            model = "resnet18-cifar10" if rng.random() < 0.2 else "neumf-movielens"
            requests.append(Request("submit", tenant, f"{tag}-{i:05d}", model))
            submits.append(i)
        elif op == "metrics":
            requests.append(Request("metrics", "", ""))
        else:
            back = [j for j in submits if TARGET_LAG[0] <= i - j <= TARGET_LAG[1]] or submits
            target = requests[back[int(rng.integers(len(back)))]]
            requests.append(Request(str(op), target.tenant, f"{target.tenant}/{target.job}"))
    for req, offset in zip(requests, rng.uniform(0.0, jitter, size=count)):
        req.jitter = float(offset)
    return requests


class Stack:
    """Host, service and server: everything a client talks to."""

    def __init__(self) -> None:
        cluster = ClusterSpec.homogeneous(NUM_NODES, GPUS_PER_NODE)
        self.backend = ThreadedBackend(
            cluster,
            ThreadedConfig(
                time_scale=_TIME_SCALE,
                scheduling_interval=_SCHED_INTERVAL,
                agent_interval=_SCHED_INTERVAL,
            ),
        )
        self.host = PolicyHost(
            repro.policy.create("tiresias", cluster=cluster, seed=0), self.backend
        )
        self.host.start()
        self.service = SchedulerService(self.host)
        self.server = ServiceServer(self.service).start()
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            if conn.getresponse().status != 200:
                raise RuntimeError("service not healthy after start")
        except BaseException:
            self.close()
            raise
        finally:
            conn.close()

    def close(self) -> None:
        self.server.close()
        self.host.stop(timeout=10.0)


def run_rung(
    gen: LoadGenerator, port: int, rung: Rung, tracer: Optional[Tracer], root: str, index: int
) -> None:
    """Send the rung from the generator process; record its client spans."""
    span_base = (index + 1) << 32 if tracer is not None else 0
    timings = gen.run_rung(port, rung.rate, [r.wire() for r in rung.requests], GRACE_S, span_base)
    for i, (req, (due, sent, done, status)) in enumerate(zip(rung.requests, timings)):
        req.due, req.sent, req.done, req.status = due, sent, done, status
        if tracer is not None and status:
            root_id = span_base + 2 * i
            tracer.record(root, due, done, span_id=root_id)
            tracer.record("gen.wait", due, sent, parent=root_id)
            tracer.record(
                "service.server.transport", sent, done, parent=root_id, span_id=root_id + 1
            )


def _install_probes(
    tracer: Tracer, stack: Stack, queue_depth: List[int], pages: List[int]
) -> None:
    handler = server_module._Handler
    original = handler._dispatch

    def traced_dispatch(self) -> None:
        parent = int(self.headers.get(SPAN_HEADER) or 0)
        with tracer.span("service.server.handler", parent=parent):
            original(self)

    for verb in ("do_GET", "do_POST", "do_DELETE"):
        tracer.patch(handler, verb, traced_dispatch)

    service = stack.service
    tracer.wrap(service, "submit", "service.api.submit")
    tracer.wrap(service, "job_status", "service.api.status")
    tracer.wrap(service, "cancel", "service.api.cancel")
    tracer.wrap(
        server_module,
        "render_metrics",
        "service.metrics_export.render",
        after=lambda page: pages.append(len(page.encode("utf-8"))),
    )
    queue = service._queue
    tenants = [f"team-{t}" for t in range(NUM_TENANTS)]

    def depth(_result) -> None:
        queue_depth.append(sum(queue.pending(t) for t in tenants))

    tracer.wrap(queue, "push", "service.tenants.push", after=depth)

    backend = stack.backend
    lock = backend.dispatch_lock()

    class TimedLock:
        """The backend's dispatch lock; service threads record their wait."""

        def __enter__(self):
            if threading.current_thread().name == "policy-host":
                lock.acquire()
                return self
            t0 = time.perf_counter()
            lock.acquire()
            tracer.record("host.lock_wait", t0, time.perf_counter(), parent=tracer.current())
            return self

        def __exit__(self, *exc) -> None:
            lock.release()

    tracer.patch(backend, "dispatch_lock", TimedLock)


def _check_landing(stack: Stack, rungs: List[Rung], errors: List[str]) -> None:
    """Accepted submits land once in backend records and tenant ledgers."""
    result = stack.backend.collect_result("tiresias")
    counts: Dict[str, int] = {}
    for record in result.records:
        counts[record.name] = counts.get(record.name, 0) + 1
    accepted = [
        f"{r.tenant}/{r.job}"
        for rung in rungs
        for r in rung.requests
        if r.op == "submit" and r.status == 201
    ]
    lost = [job for job in accepted if counts.get(job) != 1]
    if lost:
        errors.append(f"{len(lost)} accepted submits not in backend records exactly once")
    ledgers = sum(
        stack.service.tenant_usage(f"team-{t}")["submitted_total"]
        for t in range(NUM_TENANTS)
    )
    server_201 = stack.service.http_requests().get(("POST", "201"), 0)
    if not (ledgers == server_201 == len(counts)) or len(accepted) > ledgers:
        errors.append(
            f"ledgers {ledgers}, server 201s {server_201}, backend jobs "
            f"{len(counts)}, client 201s {len(accepted)} disagree"
        )
    fivexx = sum(1 for rung in rungs for r in rung.requests if r.status >= 500)
    if fivexx:
        errors.append(f"{fivexx} 5xx responses")


def run(
    seed: int,
    seconds: float,
    tracer: Tracer = None,
    base_requests: int = BASE_REQUESTS,
    ladder_cap: float = LADDER_CAP,
    rung_s: float = LADDER_RUNG_S,
) -> Outcome:
    """Base rung (at least ``0.75 * seconds`` long) then the rate ladder."""
    out = Outcome()
    setup_s, stack = median_setup(Stack, Stack.close, SETUP_REPEATS)
    gen: Optional[LoadGenerator] = None
    queue_depth: List[int] = []
    pages: List[int] = []
    count = max(base_requests, int(0.75 * seconds * BASE_RATE))
    base = Rung(BASE_RATE, make_schedule(seed, BASE_RATE, count, "base", BASE_JITTER))
    rungs = [base]
    try:
        gen = LoadGenerator()
        if tracer is not None:
            _install_probes(tracer, stack, queue_depth, pages)
        run_rung(gen, stack.server.port, base, tracer, ROOT, 0)
        rate = LADDER_START
        best: Optional[Rung] = None
        while rate <= ladder_cap:
            rung = Rung(rate, make_schedule(seed, rate, int(rate * rung_s), f"r{int(rate)}"))
            run_rung(gen, stack.server.port, rung, tracer, LADDER_ROOT, len(rungs))
            rungs.append(rung)
            if not rung.passed:
                break
            best = rung
            rate *= 2
        if best is None and base.passed:
            best = base
        _check_landing(stack, rungs, out.errors)
    finally:
        if tracer is not None:
            tracer.restore()
        summary = stack.host.metrics.summary()
        dispatch_ms = [r.latency_s * 1e3 for r in stack.host.metrics.rounds]
        if gen is not None:
            gen.close()
        stack.close()

    out.attempted = len(base.requests)
    out.failed = base.failed
    if out.failed:
        out.errors.append(f"{out.failed} base-rung requests failed")
    out.wall_s = sum(r.done - r.due for r in base.requests if r.status)
    write_ms = base.latencies_ms(WRITE_OPS)
    read_ms = base.latencies_ms(("status", "metrics"))
    max_rate = best.achieved_rate() if best is not None else 0.0
    out.metrics = {
        "setup_s": setup_s,
        "cpu_s": cpu_seconds(),
        "peak_rss_mb": peak_rss_mb(),
        # Writes and reads are each half of the mix.  The all-request
        # median falls in the tail of the faster class and swung 17%
        # between runs; the mean of the two class medians held within 7%.
        "op_p50_ms": (percentile(write_ms, 50) + percentile(read_ms, 50)) / 2,
        "ops_per_s": max_rate,
    }
    out.detail = {
        "write_p50_ms": (percentile(write_ms, 50), "ms"),
        "write_p95_ms": (percentile(write_ms, 95), "ms"),
        "read_p50_ms": (percentile(read_ms, 50), "ms"),
        "read_p95_ms": (percentile(read_ms, 95), "ms"),
        "write_samples": (len(write_ms), "count"),
        "read_samples": (len(read_ms), "count"),
        "max_rate_rps": (best.rate if best is not None else 0.0, "req/s"),
        "failed_frac": (out.failed / max(out.attempted, 1), "ratio"),
    }
    for rung in rungs:
        lat = rung.latencies_ms()
        out.detail[f"rung_{int(rung.rate)}_p95_ms"] = (percentile(lat, 95), "ms")
        out.detail[f"rung_{int(rung.rate)}_failed"] = (rung.failed, "count")
    late_ms = [(r.sent - r.due) * 1e3 for r in base.requests if r.status]

    if tracer is not None:
        table = tracer.layers()
        out.layer_table = table
        statuses = [r.status for rung in rungs for r in rung.requests]

        def layer(name: str, key: str) -> float:
            return table.get(name, {}).get(key, 0.0)

        out.layers = {
            "host.rounds": summary["rounds"],
            "host.dispatch_p50_ms": percentile(dispatch_ms, 50),
            "host.dispatch_max_ms": max(dispatch_ms, default=0.0),
            "host.lock_wait_ms": layer("host.lock_wait", "busy_ms"),
            "service.api.submit_ms": layer("service.api.submit", "self_ms"),
            "service.api.status_ms": layer("service.api.status", "self_ms"),
            "service.api.cancel_ms": layer("service.api.cancel", "self_ms"),
            "service.tenants.admission_queue_max": max(queue_depth, default=0),
            "service.metrics_export.render_ms": layer("service.metrics_export.render", "busy_ms"),
            "service.metrics_export.page_bytes": max(pages, default=0),
            "service.server.transport_ms": layer("service.server.transport", "self_ms"),
            "service.server.http_4xx": sum(1 for s in statuses if 400 <= s < 500),
            "service.server.http_5xx": sum(1 for s in statuses if s >= 500),
            "gen.late_ms_max": max(late_ms, default=0.0),
        }
    return out


ROOTS = (ROOT,)
UNATTRIBUTED_GAP = "request time outside the generator wait and the transport span"
