"""Open-loop HTTP load generator that runs in its own process.

The generator lives in a child process so that its threads never wait on
the server's interpreter lock: a request is late or slow because of the
service, not because the client shared a lock with it.  Stdlib only, so
the child starts without importing numpy or the program.

Each rung is a list of ``(op, tenant, job, model, jitter)`` tuples sent
at ``rate`` requests per second: request ``i`` is due at
``start + (i + jitter) / rate``, and requests alternate between
``GENERATORS`` threads that each hold one persistent HTTP/1.1
connection.  A request still unsent, or unanswered, at the rung's
deadline (last due time + ``grace_s``) fails with status 0, as does a
transport error.  Times are ``time.perf_counter()`` values, which on
Linux read the same monotonic clock in every process.

The child is a plain ``subprocess`` running this file, fed pickled rungs
on its stdin and answering on its stdout.  ``multiprocessing`` is not
used: its spawn start method launches a resource-tracker process that
outlives the benchmark for a moment after it exits.
"""

from __future__ import annotations

import http.client
import json
import pickle
import subprocess
import sys
import threading
import time
from typing import List, Sequence, Tuple

GENERATORS = 2
SPAN_HEADER = "X-Bench-Span"

#: (due, sent, done, status) per request; status 0 marks a failure.
Timing = Tuple[float, float, float, int]


def _send(conn: http.client.HTTPConnection, req, headers) -> int:
    op, tenant, job, model, _ = req
    if op == "submit":
        body = json.dumps({"model": model, "num_gpus": 1, "name": job})
        conn.request("POST", "/v1/jobs", body=body, headers={"X-Tenant": tenant, **headers})
    elif op == "metrics":
        conn.request("GET", "/metrics", headers=headers)
    else:
        method = "DELETE" if op == "cancel" else "GET"
        conn.request(method, f"/v1/jobs/{job}", headers={"X-Tenant": tenant, **headers})
    response = conn.getresponse()
    response.read()
    return response.status


def run_rung(
    port: int, rate: float, requests: Sequence, grace_s: float, span_base: int = 0
) -> List[Timing]:
    """Send one rung; ``span_base > 0`` tags request ``i`` with span id
    ``span_base + 2 * i + 1`` for the server-side tracer."""
    start = time.perf_counter() + 0.05
    timings = [(start + (i + req[4]) / rate, 0.0, 0.0, 0) for i, req in enumerate(requests)]
    deadline = timings[-1][0] + grace_s

    def generator(first: int) -> None:
        conn = None
        for i in range(first, len(requests), GENERATORS):
            due = timings[i][0]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                continue
            if conn is None:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=remaining)
            elif conn.sock is not None:
                conn.sock.settimeout(remaining)
            headers = {SPAN_HEADER: str(span_base + 2 * i + 1)} if span_base else {}
            sent = time.perf_counter()
            try:
                status = _send(conn, requests[i], headers)
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = None
                continue
            timings[i] = (due, sent, time.perf_counter(), status)
        if conn is not None:
            conn.close()

    threads = [
        threading.Thread(target=generator, args=(k,), name=f"loadgen-{k}")
        for k in range(GENERATORS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return timings


def _serve(stdin, stdout) -> None:
    """Child main: run each rung received until ``None`` or end of input."""
    while True:
        try:
            job = pickle.load(stdin)
        except EOFError:
            return
        if job is None:
            return
        pickle.dump(run_rung(*job), stdout)
        stdout.flush()


class LoadGenerator:
    """Owns the generator process; :meth:`close` stops and reaps it."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def run_rung(
        self, port: int, rate: float, requests: Sequence, grace_s: float, span_base: int = 0
    ) -> List[Timing]:
        pickle.dump((port, rate, list(requests), grace_s, span_base), self._process.stdin)
        self._process.stdin.flush()
        return pickle.load(self._process.stdout)

    def close(self) -> None:
        try:
            pickle.dump(None, self._process.stdin)
            self._process.stdin.close()
        except OSError:
            pass
        try:
            self._process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


if __name__ == "__main__":
    _serve(sys.stdin.buffer, sys.stdout.buffer)
