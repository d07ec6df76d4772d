"""The repository's benchmark: one workload per call, checked and measured.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-pollux --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload once with tracing off and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs it once
untraced and once with the layer probes installed, and reports the
per-layer metrics: each layer's figures, the split of the traced wall
time into layer self times plus ``trace.unattributed_ms``, and the
tracing overhead against the untraced pass.  Spans are written to
``perfbench/out/`` when the run ends.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

WORKLOADS = {
    "replay-pollux": "perfbench.replay_pollux",
    "rounds-sharded": "perfbench.rounds_sharded",
    "service-mixed": "perfbench.service_mixed",
}

#: ROADMAP's bar for the part of a traced run no layer span covers.
UNATTRIBUTED_LIMIT = 0.05


def declared_metrics():
    """(end-to-end, per-layer) name -> unit maps from BENCHMARK.json."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def traced_layers(workload, seed: int, seconds: float, out_dir: Path):
    """Untraced pass, traced pass, and the traced pass's layer metrics."""
    from perfbench.tracing import Tracer

    base = workload.run(seed, seconds, None)
    tracer = Tracer()
    out = workload.run(seed, seconds, tracer)
    out.errors = base.errors + out.errors
    if base.digest != out.digest:
        out.errors.append("traced and untraced passes decided differently")
    acct = tracer.accounting(workload.ROOTS)
    wall = acct["wall_ms"]
    if abs(acct["residual_ms"]) > 1e-6 * max(wall, 1.0):
        out.errors.append(
            f"layer self times + unattributed differ from wall by "
            f"{acct['residual_ms']:.3f} ms"
        )
    untraced_ms = base.wall_s * 1e3
    out.layers.update(
        {
            "trace.wall_ms": wall,
            "trace.unattributed_ms": acct["unattributed_ms"],
            "trace.unattributed_frac": acct["unattributed_ms"] / wall if wall else 0.0,
            "trace.untraced_wall_ms": untraced_ms,
            "trace.overhead_ms": wall - untraced_ms,
            "trace.overhead_ratio": (wall - untraced_ms) / untraced_ms,
        }
    )
    tracer.dump(out_dir / f"spans-{workload.__name__.rsplit('.', 1)[-1]}-{seed}.json")
    return out


def reap_children() -> int:
    """Stop and wait for every ``multiprocessing`` child still running.

    Returns how many there were.  The workloads close what they start
    (``LoadGenerator.close`` waits for its own subprocess); this is the
    safety net for shard workers whose close timed out or was cut short.
    """
    import multiprocessing

    stopped = 0
    for child in multiprocessing.active_children():
        stopped += 1
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    return stopped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # OpenBLAS otherwise starts one spinning thread per CPU in this process
    # and in every shard worker; on a 2-CPU host that doubled replay CPU
    # time and slowed sharded rounds by a third.  A caller's own setting
    # wins; the host line reports whichever is in effect.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        e2e_units, layer_units = declared_metrics()
        workload = importlib.import_module(WORKLOADS[args.workload])
        from perfbench.common import host_shape
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    print("host " + json.dumps(host_shape(), sort_keys=True))
    try:
        if args.trace:
            out = traced_layers(workload, args.seed, args.seconds, REPO / "perfbench" / "out")
            units = layer_units
            values = {name: 0.0 for name in layer_units}
            values.update(out.layers)
        else:
            out = workload.run(args.seed, args.seconds, None)
            units = e2e_units
            values = dict(out.metrics)
    finally:
        stopped = reap_children()
    if stopped:
        out.errors.append(f"{stopped} child processes were still running after the workload")
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        out.errors.append(f"metrics missing {missing}, undeclared {extra}")

    print(f"workload {args.workload} seed {args.seed} digest {out.digest or '-'}")
    for name, (value, unit) in out.detail.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    for name, row in sorted(out.layer_table.items()):
        print(
            f"  span {name:<29} count {int(row['count']):>7}  busy {row['busy_ms']:>11.1f} ms"
            f"  self {row['self_ms']:>11.1f} ms"
        )
    if args.trace and values["trace.unattributed_frac"] > UNATTRIBUTED_LIMIT:
        print(
            f"  note: {values['trace.unattributed_frac']:.1%} of the traced wall time "
            f"is outside every layer span ({workload.UNATTRIBUTED_GAP})"
        )
    for error in out.errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not out.errors,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
