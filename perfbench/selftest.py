"""Quick self-tests of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They check that inputs follow the seed, that digests repeat, that every
metric BENCHMARK.json declares is printed with its unit in both modes, that
the traced run's accounting closes, and that the service's open-loop
timing sees a stall the handler adds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from perfbench import replay_pollux, rounds_sharded, run, service_mixed  # noqa: E402


def _trace_key(trace):
    return [
        (s.name, s.model.name, s.submission_time, s.fixed_num_gpus, s.fixed_batch_size)
        for s in trace
    ]


def test_seed_fixes_inputs():
    assert _trace_key(replay_pollux.make_trace(3)) == _trace_key(replay_pollux.make_trace(3))
    assert _trace_key(replay_pollux.make_trace(3)) != _trace_key(replay_pollux.make_trace(4))

    def schedule(seed):
        return [(r.op, r.tenant, r.job, r.model, r.jitter)
                for r in service_mixed.make_schedule(seed, 20.0, 60, "t", 0.5)]

    assert schedule(3) == schedule(3) and schedule(3) != schedule(4)

    cluster = rounds_sharded.ClusterSpec.heterogeneous(rounds_sharded.CLUSTER_GROUPS)

    def first_round(seed):
        state = rounds_sharded.RoundInputs(seed, cluster, 16).first
        return [(s.name, s.agent_report.grad_noise_scale, s.gputime) for s in state.jobs]

    assert first_round(3) == first_round(3) and first_round(3) != first_round(4)


def test_same_seed_same_digest():
    replays = [replay_pollux.run(5, 0, num_jobs=6) for _ in range(2)]
    assert replays[0].digest == replays[1].digest and not replays[0].errors
    assert replay_pollux.run(6, 0, num_jobs=6).digest != replays[0].digest
    rounds = [rounds_sharded.run(5, 0, num_jobs=12, min_rounds=12) for _ in range(2)]
    assert rounds[0].digest == rounds[1].digest and not rounds[0].errors


def _cli(workload, argv):
    """run.main on a small workload; returns the parsed last stdout line."""
    module = sys.modules[run.WORKLOADS[workload]]
    real = module.run
    module.run = workload_sizes[workload](real)
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = run.main(["--workload", workload, "--seed", "2", "--seconds", "1", *argv])
    finally:
        module.run = real
    lines = buffer.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    result["checks"] = [line for line in lines if line.startswith("CHECK FAILED")]
    return code, result


workload_sizes = {
    "replay-pollux": lambda real: functools.partial(real, num_jobs=6),
    "rounds-sharded": lambda real: functools.partial(real, num_jobs=12, min_rounds=12),
    "service-mixed": lambda real: functools.partial(
        real, base_requests=40, ladder_cap=40.0, rung_s=1.0
    ),
}


def test_every_declared_metric_printed_with_unit():
    e2e, layers = run.declared_metrics()
    for workload in run.WORKLOADS:
        for trace, declared in (("0", e2e), ("1", layers)):
            code, result = _cli(workload, ["--trace", trace])
            assert code == 0 and result["correct"], (workload, trace, result["checks"])
            assert set(result) == {"correct", "attempted", "failed", "metrics", "checks"}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == declared, (workload, trace)
            if trace == "1":
                metrics = result["metrics"]
                assert metrics["trace.wall_ms"]["value"] > 0


def test_stalled_handler_shows_in_latency():
    stall_s = 0.15
    stack = service_mixed.Stack()
    gen = service_mixed.LoadGenerator()
    try:
        def measure(tag):
            rung = service_mixed.Rung(
                20.0, service_mixed.make_schedule(1, 20.0, 40, tag)
            )
            service_mixed.run_rung(gen, stack.server.port, rung, None, service_mixed.ROOT, 0)
            return rung.latencies_ms(("status",))

        calm = measure("calm")
        real = stack.service.job_status

        def stalled(*args, **kwargs):
            time.sleep(stall_s)
            return real(*args, **kwargs)

        stack.service.job_status = stalled
        slow = measure("slow")
    finally:
        gen.close()
        stack.close()
    assert min(slow) >= stall_s * 1e3
    assert sorted(slow)[len(slow) // 2] >= sorted(calm)[len(calm) // 2] + stall_s * 1e3


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            t0 = time.perf_counter()
            try:
                test()
                print(f"ok   {name} ({time.perf_counter() - t0:.1f} s)")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    raise SystemExit(1 if failures else 0)
