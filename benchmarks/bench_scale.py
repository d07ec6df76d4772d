"""Scale sweep: sharded vs unsharded scheduling rounds at 10k-GPU scale.

The paper runs Pollux on 64 GPUs; this benchmark measures what it takes to
run the *same decision quality machinery* at two orders of magnitude more
capacity (Sec. 7 discusses scalability).  At each swept point it times one
steady-state scheduling round through the Policy API for three series:

- ``unsharded``: the default ``pollux`` policy (v2 GA over the full
  cluster matrix) — the baseline whose cost grows ~quadratically with
  scale (jobs x nodes).
- ``sharded``: ``pollux-sharded`` with a :class:`~repro.shard.partition.
  UniformCellPartitioner` — one warm-started per-cell GA, so each round
  does ~1/C of the matrix work even on a single core (and overlaps cells
  via threads when cores allow).
- ``incremental``: ``pollux-sharded`` with ``PolluxSchedConfig(
  incremental=True)`` — steady rounds where nothing a cell can act on
  has moved are skipped entirely (allocations replayed), the common case
  between arrival/departure bursts at scale.
- ``process`` (``--execution process``/``both``): ``pollux-sharded``
  with ``execution="process"`` — persistent worker processes own the
  warm cell schedulers and receive per-round deltas, swept over worker
  counts.  Its decision stream is compared digest-for-digest against the
  threaded series (they must be bit-for-bit identical at the shared
  seed; any divergence fails the run), and the per-phase timings split
  the round into worker compute vs serialization/IPC so the recorded
  speedup names its own bottleneck.

Rounds are driven through ``Policy.schedule`` with the decision's
allocations fed back into the next round's snapshots and a per-round phi
drift (phi alone is deliberately clean for the incremental tracker), so
the measured round is the recurring one, not an artificial cold start.

Run modes::

    python benchmarks/bench_scale.py --scale smoke          # CI job, <60 s
    python benchmarks/bench_scale.py --scale smoke --check  # + regression gate
    python benchmarks/bench_scale.py --scale scale          # the full sweep
    python benchmarks/bench_scale.py --execution thread     # skip process series
    python benchmarks/bench_scale.py --parity               # nightly JCT parity

Results merge into ``BENCH_scale.json`` keyed by preset (override the path
with ``REPRO_BENCH_SCALE_OUT``).  The committed file is the baseline:
``--check`` gates the sharded round time calibration-normalized (same
scheme as ``bench_perf.py``), and at the ``scale`` preset additionally
asserts the sweep's acceptance shape — >= 4x sharded speedup at the
largest point and clean incremental rounds under 10% of a full GA round.

``--parity`` runs a reduced end-to-end simulation (multi-cell sharded vs
unsharded on the same trace) and gates the avg-JCT delta: sharding trades
a bounded amount of packing flexibility for round-time scalability, and
the nightly job pins that the trade stays bounded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

if __name__ == "__main__":  # script mode: make src/ and benchmarks/ importable
    _repo = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_repo / "src"))
    sys.path.insert(0, str(_repo))

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import AgentReport, GAConfig, PolluxSchedConfig
from repro.policy.views import ClusterState, JobSnapshot
from repro.shard import UniformCellPartitioner
from repro.sim import SimConfig, Simulator
from repro.workload import MODEL_ZOO, TraceConfig, generate_trace

from benchmarks.bench_perf import _calibration_ms
from benchmarks.common import load_baseline

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: --check fails when a sharded round exceeds baseline * this factor
#: (calibration-normalized; same headroom rationale as bench_perf).
REGRESSION_FACTOR = 2.0

#: Acceptance shape at the ``scale`` preset's largest point.
MIN_SHARDED_SPEEDUP = 4.0
MAX_CLEAN_FRACTION = 0.10

#: --parity fails when sharded avg JCT exceeds unsharded by more than this
#: fraction.  Multi-cell sharding partitions capacity (a job cannot span
#: cells), so a small JCT cost is expected; measured at the parity preset
#: the delta is ~2-6% across seeds, and this bound is the regression
#: tripwire well outside that band.
PARITY_JCT_BOUND = 0.15


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScalePoint:
    """One swept cluster/workload size."""

    num_nodes: int
    gpus_per_node: int
    num_jobs: int
    num_cells: int
    repeats: int

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def key(self) -> str:
        return f"{self.total_gpus}gpus_{self.num_jobs}jobs"


@dataclass(frozen=True)
class SweepPreset:
    name: str
    ga_population: int
    ga_generations: int
    points: Tuple[ScalePoint, ...]


_SMOKE = SweepPreset(
    name="smoke",
    ga_population=8,
    ga_generations=4,
    points=(
        ScalePoint(16, 4, 40, 4, repeats=3),
        ScalePoint(32, 4, 80, 4, repeats=3),
    ),
)

# The full sweep: up to 10,000 GPUs / 5,000 jobs — the paper's cluster
# (64 GPUs, Sec. 5.1) scaled ~156x, with the job:GPU ratio held at the
# paper's 2.5 jobs/GPU-hour submission density shape (0.5 jobs per GPU
# resident).  Cell counts grow with the cluster so per-cell matrices stay
# near a constant (~80 nodes x ~310 jobs at the largest point).
_SCALE = SweepPreset(
    name="scale",
    ga_population=16,
    ga_generations=8,
    points=(
        ScalePoint(64, 8, 256, 4, repeats=3),
        ScalePoint(256, 8, 1024, 8, repeats=3),
        ScalePoint(1250, 8, 5000, 16, repeats=2),
    ),
)

_PRESETS = {"smoke": _SMOKE, "scale": _SCALE}


# ----------------------------------------------------------------------
# Synthetic steady-state rounds through the Policy API
# ----------------------------------------------------------------------

def _synthetic_state(
    cluster: ClusterSpec, num_jobs: int, seed: int = 0
) -> ClusterState:
    """A cluster state with fitted-looking reports at mixed moments.

    ``max_gpus_seen`` is capped at 64: the paper's largest job class.  At
    10k GPUs the cap is what keeps per-job goodput tables bounded — the
    cluster scales out, individual jobs do not.
    """
    rng = np.random.default_rng(seed)
    names = sorted(MODEL_ZOO)
    cap = min(64, cluster.total_gpus)
    snaps = []
    for i in range(num_jobs):
        profile = MODEL_ZOO[names[i % len(names)]]
        report = AgentReport(
            throughput_params=profile.theta_true,
            grad_noise_scale=float(
                profile.gns.phi_scalar(float(rng.uniform(0.0, 1.0)))
            ),
            init_batch_size=float(profile.init_batch_size),
            limits=profile.limits,
            max_gpus_seen=int(rng.integers(1, cap + 1)),
        )
        snaps.append(
            JobSnapshot(
                name=f"job-{i}",
                submission_time=0.0,
                allocation=np.zeros(cluster.num_nodes, dtype=np.int64),
                batch_size=0,
                gputime=float(rng.uniform(0, 8 * 3600.0)),
                agent_report=report,
            )
        )
    return ClusterState(cluster=cluster, jobs=tuple(snaps))


def _next_state(state: ClusterState, decision, round_idx: int) -> ClusterState:
    """Feed the decision back and drift phi: the steady-state round.

    Allocation feedback is what makes the round *steady* (and what lets
    the incremental tracker prove a job clean); the 1%/round phi drift
    keeps reports realistic without dirtying anything (phi is excluded
    from the incremental signature by design).
    """
    jobs = tuple(
        dataclasses.replace(
            snap,
            allocation=decision.allocations[snap.name],
            agent_report=dataclasses.replace(
                snap.agent_report,
                grad_noise_scale=snap.agent_report.grad_noise_scale
                * (1.0 + 0.01 * round_idx),
            ),
        )
        for snap in state.jobs
    )
    return ClusterState(cluster=state.cluster, jobs=jobs)


def _digest_decision(digest, decision) -> None:
    """Fold one decision's allocations into a running digest."""
    for name in sorted(decision.allocations):
        digest.update(name.encode())
        digest.update(
            np.ascontiguousarray(
                decision.allocations[name], dtype=np.int64
            ).tobytes()
        )


def _measure_series(
    policy, state: ClusterState, repeats: int
) -> Dict[str, object]:
    """Cold round + median steady round for one policy at one point.

    Also folds every round's decision into a sha1 ``digest`` (the
    thread-vs-process equality gate compares these) and, for sharded
    policies, splits the last steady round into worker-side compute vs
    serialization/IPC from ``last_round_report``.  The policy is closed
    on the way out (worker processes must not outlive their series).
    """
    digest = hashlib.sha1()
    t0 = time.perf_counter()
    decision = policy.schedule(0.0, state)
    cold_ms = (time.perf_counter() - t0) * 1000.0
    _digest_decision(digest, decision)
    steady: List[float] = []
    skipped_rounds = 0
    for round_idx in range(1, repeats + 1):
        state = _next_state(state, decision, round_idx)
        t0 = time.perf_counter()
        decision = policy.schedule(float(round_idx) * 60.0, state)
        steady.append((time.perf_counter() - t0) * 1000.0)
        _digest_decision(digest, decision)
        if policy.last_phase_timings.get("skipped", 0.0) > 0.0:
            skipped_rounds += 1
    report = getattr(policy, "last_round_report", {}) or {}
    phase_sum = report.get("sum", {})
    policy.close()
    return {
        "cold_ms": round(cold_ms, 3),
        "steady_ms": round(float(np.median(steady)), 3),
        "skipped_rounds": skipped_rounds,
        "digest": digest.hexdigest(),
        "compute_ms": round(float(phase_sum.get("total_ms", 0.0)), 3),
        "ipc_ms": round(float(phase_sum.get("ipc_ms", 0.0)), 3),
    }


def _worker_counts(num_cells: int) -> List[int]:
    """Worker-process counts swept for the process series.

    Always 1 (serialization cost with zero parallelism) and the cell
    count (full width), plus the host's core count when it lands between
    — the point where adding workers stops buying anything on this
    machine.
    """
    cores = os.cpu_count() or 1
    return sorted({1, min(cores, num_cells), num_cells})


def _bench_point(
    point: ScalePoint, preset: SweepPreset, execution: str
) -> Dict[str, object]:
    cluster = ClusterSpec.homogeneous(point.num_nodes, point.gpus_per_node)
    ga = GAConfig(
        population_size=preset.ga_population,
        generations=preset.ga_generations,
    )
    base_config = PolluxSchedConfig(ga=ga)

    def unsharded():
        return repro.policy.create(
            "pollux", cluster=cluster, config=base_config, seed=0
        )

    def sharded(config: PolluxSchedConfig, **kwargs):
        # migrate_every=0: the timed series measures the recurring cell
        # rounds, not balancer churn (migration cost is the moved job's
        # restart, charged by the host, not round time).
        return repro.policy.create(
            "pollux-sharded",
            cluster=cluster,
            config=config,
            seed=0,
            partitioner=UniformCellPartitioner(point.num_cells),
            migrate_every=0,
            **kwargs,
        )

    series: Dict[str, Dict[str, object]] = {}
    series["unsharded"] = _measure_series(
        unsharded(), _synthetic_state(cluster, point.num_jobs), point.repeats
    )
    series["sharded"] = _measure_series(
        sharded(base_config),
        _synthetic_state(cluster, point.num_jobs),
        point.repeats,
    )
    incremental_config = dataclasses.replace(
        base_config, incremental=True, incremental_refresh_every=0
    )
    series["incremental"] = _measure_series(
        sharded(incremental_config),
        _synthetic_state(cluster, point.num_jobs),
        point.repeats,
    )

    sharded_ms = series["sharded"]["steady_ms"]
    clean_ms = series["incremental"]["steady_ms"]
    out: Dict[str, object] = {
        "num_nodes": point.num_nodes,
        "gpus_per_node": point.gpus_per_node,
        "total_gpus": point.total_gpus,
        "num_jobs": point.num_jobs,
        "num_cells": point.num_cells,
        "repeats": point.repeats,
        "unsharded_round_ms": series["unsharded"]["steady_ms"],
        "unsharded_cold_ms": series["unsharded"]["cold_ms"],
        "sharded_round_ms": sharded_ms,
        "sharded_cold_ms": series["sharded"]["cold_ms"],
        "sharded_speedup": round(
            series["unsharded"]["steady_ms"] / sharded_ms, 3
        ),
        "incremental_clean_ms": clean_ms,
        # All steady rounds of the incremental series must actually have
        # been clean skips (allocation feedback + phi-only drift); a 0
        # here means the tracker dirtied something it should not have.
        "incremental_skipped_rounds": series["incremental"]["skipped_rounds"],
        "clean_round_fraction": round(clean_ms / sharded_ms, 4),
    }

    if execution != "thread" and point.num_cells > 1:
        # Process-executor sweep over worker counts.  Every run's decision
        # digest must equal the threaded series' — the two backends are
        # pinned bit-for-bit at a shared seed, so a mismatch is a bug, not
        # noise.
        sweep: Dict[str, float] = {}
        digest_match = True
        best: Optional[Dict[str, object]] = None
        for workers in _worker_counts(point.num_cells):
            result = _measure_series(
                sharded(base_config, execution="process", max_workers=workers),
                _synthetic_state(cluster, point.num_jobs),
                point.repeats,
            )
            sweep[str(workers)] = result["steady_ms"]
            if result["digest"] != series["sharded"]["digest"]:
                digest_match = False
            if workers == point.num_cells:
                best = result
        assert best is not None
        compute_ms = float(best["compute_ms"])
        ipc_ms = float(best["ipc_ms"])
        out.update(
            {
                "process_round_ms": best["steady_ms"],
                "process_cold_ms": best["cold_ms"],
                "process_worker_sweep": sweep,
                "process_speedup_vs_thread": round(
                    sharded_ms / float(best["steady_ms"]), 3
                ),
                # Last steady round, summed over cells: worker-side GA
                # compute vs everything the pipe adds on top.
                "process_compute_ms": round(compute_ms, 3),
                "process_ipc_ms": round(ipc_ms, 3),
                "process_bottleneck": (
                    "ipc" if ipc_ms > compute_ms else "compute"
                ),
                "digest_match": digest_match,
            }
        )
    return out


def run_sweep(preset: SweepPreset, execution: str = "both") -> Dict[str, object]:
    points = []
    for point in preset.points:
        print(
            f"[{preset.name}] {point.total_gpus} GPUs "
            f"({point.num_nodes}x{point.gpus_per_node}), "
            f"{point.num_jobs} jobs, {point.num_cells} cells ...",
            flush=True,
        )
        result = _bench_point(point, preset, execution)
        print(
            f"    unsharded {result['unsharded_round_ms']:10.1f} ms   "
            f"sharded {result['sharded_round_ms']:10.1f} ms "
            f"({result['sharded_speedup']:.1f}x)   "
            f"clean {result['incremental_clean_ms']:8.1f} ms "
            f"({result['clean_round_fraction'] * 100:.1f}% of full)",
            flush=True,
        )
        if "process_round_ms" in result:
            print(
                f"    process   {result['process_round_ms']:10.1f} ms "
                f"({result['process_speedup_vs_thread']:.2f}x vs thread, "
                f"workers {result['process_worker_sweep']}, "
                f"bottleneck {result['process_bottleneck']}, "
                f"digests {'match' if result['digest_match'] else 'DIVERGED'})",
                flush=True,
            )
        points.append(result)
    largest = points[-1]
    summary = {
        "total_gpus": largest["total_gpus"],
        "num_jobs": largest["num_jobs"],
        "num_cells": largest["num_cells"],
        "sharded_speedup": largest["sharded_speedup"],
        "clean_round_fraction": largest["clean_round_fraction"],
    }
    if "process_round_ms" in largest:
        summary["process_speedup_vs_thread"] = largest[
            "process_speedup_vs_thread"
        ]
        summary["process_bottleneck"] = largest["process_bottleneck"]
    return {
        "preset": preset.name,
        "numpy_version": np.__version__,
        "cpu_count": os.cpu_count(),
        "calibration_ms": round(_calibration_ms(), 3),
        "ga": {
            "population": preset.ga_population,
            "generations": preset.ga_generations,
        },
        "points": points,
        "largest": summary,
    }


# ----------------------------------------------------------------------
# Nightly parity: sharded vs unsharded end-to-end JCT
# ----------------------------------------------------------------------

def run_parity(seed: int = 1) -> Dict[str, object]:
    """Reduced-scale simulation: multi-cell sharded vs unsharded JCT.

    Single-cell equivalence is pinned bit-for-bit in ``tests/
    test_shard.py``; this is the *multi*-cell decision-quality check —
    same trace, same simulator seed, 2 cells — which can only be
    benchmarked (cells partition capacity, so decisions legitimately
    differ).  Runs in minutes, sized for the nightly workflow.
    """
    cluster = ClusterSpec.homogeneous(6, 4)
    trace = generate_trace(
        TraceConfig(
            num_jobs=40,
            duration_hours=6.0,
            seed=seed,
            max_gpus=cluster.total_gpus,
            gpus_per_node=cluster.max_gpus_per_node,
        )
    )
    config = PolluxSchedConfig(
        ga=GAConfig(population_size=24, generations=10)
    )
    results = {}
    for name, kwargs in (
        ("pollux", {}),
        (
            "pollux-sharded",
            {"partitioner": UniformCellPartitioner(2)},
        ),
    ):
        scheduler = repro.policy.create(
            name, cluster=cluster, config=config, seed=0, **kwargs
        )
        sim = Simulator(
            cluster,
            scheduler,
            trace,
            SimConfig(seed=seed + 1000, max_hours=100.0),
        )
        result = sim.run()
        results[name] = result
        print(
            f"[parity] {name:15s} avg JCT {result.avg_jct() / 3600.0:.4f} h  "
            f"unfinished {result.num_unfinished}",
            flush=True,
        )
    unsharded_jct = results["pollux"].avg_jct()
    sharded_jct = results["pollux-sharded"].avg_jct()
    delta = sharded_jct / unsharded_jct - 1.0
    return {
        "num_cells": 2,
        "num_jobs": 40,
        "unsharded_avg_jct_hours": round(unsharded_jct / 3600.0, 6),
        "sharded_avg_jct_hours": round(sharded_jct / 3600.0, 6),
        "jct_delta": round(delta, 4),
        "bound": PARITY_JCT_BOUND,
    }


# ----------------------------------------------------------------------
# Baseline check
# ----------------------------------------------------------------------

def _check_sweep(
    data: Dict[str, object], entry: Optional[Dict[str, object]]
) -> int:
    """Regression + acceptance gates; returns a process exit code."""
    exit_code = 0
    for point in data["points"]:
        if point.get("digest_match") is False:
            print(
                f"EXECUTOR DIVERGENCE: process-executor decision stream at "
                f"{point['total_gpus']} GPUs does not match the threaded "
                "stream bit-for-bit"
            )
            exit_code = 1
    if data["preset"] == "scale":
        largest = data["largest"]
        if float(largest["sharded_speedup"]) < MIN_SHARDED_SPEEDUP:
            print(
                f"SCALE REGRESSION: sharded speedup "
                f"{largest['sharded_speedup']:.2f}x at the largest point "
                f"is below the {MIN_SHARDED_SPEEDUP:.0f}x floor"
            )
            exit_code = 1
        if float(largest["clean_round_fraction"]) > MAX_CLEAN_FRACTION:
            print(
                f"SCALE REGRESSION: clean incremental round costs "
                f"{largest['clean_round_fraction'] * 100:.1f}% of a full "
                f"round (floor: {MAX_CLEAN_FRACTION * 100:.0f}%)"
            )
            exit_code = 1
    for point in data["points"]:
        if int(point["incremental_skipped_rounds"]) == 0:
            print(
                f"INCREMENTAL REGRESSION: no steady round was skipped at "
                f"{point['total_gpus']} GPUs — the dirty tracker dirtied "
                "a clean round"
            )
            exit_code = 1
    if entry is None:
        return exit_code
    base_points = {
        (p["total_gpus"], p["num_jobs"]): p for p in entry["points"]
    }
    base_cal = float(entry.get("calibration_ms", 0.0))
    now_cal = float(data.get("calibration_ms", 0.0))
    for point in data["points"]:
        base = base_points.get((point["total_gpus"], point["num_jobs"]))
        if base is None:
            continue
        base_ms = float(base["sharded_round_ms"])
        now_ms = float(point["sharded_round_ms"])
        if base_cal > 0 and now_cal > 0:
            base_ratio = base_ms / base_cal
            now_ratio = now_ms / now_cal
            limit = base_ratio * REGRESSION_FACTOR
            print(
                f"sharded round @ {point['total_gpus']} GPUs: "
                f"{now_ratio:.1f}x calibration vs baseline "
                f"{base_ratio:.1f}x (limit {limit:.1f}x)"
            )
            regressed = now_ratio > limit
        else:
            limit = base_ms * REGRESSION_FACTOR
            print(
                f"sharded round @ {point['total_gpus']} GPUs: "
                f"{now_ms:.2f} ms vs baseline {base_ms:.2f} ms "
                f"(limit {limit:.2f} ms, absolute compare)"
            )
            regressed = now_ms > limit
        if regressed:
            print(
                "PERF REGRESSION: sharded scheduling round exceeds 2x the "
                "calibration-normalized baseline"
            )
            exit_code = 1
    return exit_code


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _merge_out(key: str, data: Dict[str, object]) -> Path:
    out_path = Path(
        os.environ.get("REPRO_BENCH_SCALE_OUT", "BENCH_scale.json")
    )
    existing: Dict[str, object] = {}
    if out_path.exists():
        try:
            existing = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing[key] = data
    out_path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return out_path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=sorted(_PRESETS),
        default="smoke",
        help="sweep preset (default: smoke)",
    )
    parser.add_argument(
        "--execution",
        choices=("thread", "process", "both"),
        default="both",
        help=(
            "cell-round backends to sweep: 'thread' skips the process "
            "series; 'process'/'both' add the process-executor worker "
            "sweep and the thread-vs-process digest equality gate "
            "(default: both)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate against the committed BENCH_scale.json baseline",
    )
    parser.add_argument(
        "--parity",
        action="store_true",
        help="run the nightly sharded-vs-unsharded JCT parity check instead",
    )
    args = parser.parse_args(argv)

    if args.parity:
        data = run_parity()
        _merge_out("parity", data)
        if float(data["jct_delta"]) > PARITY_JCT_BOUND:
            print(
                f"PARITY REGRESSION: sharded avg JCT is "
                f"{data['jct_delta'] * 100:.1f}% worse than unsharded "
                f"(bound: {PARITY_JCT_BOUND * 100:.0f}%)"
            )
            return 1
        print(
            f"parity OK: sharded avg JCT delta "
            f"{data['jct_delta'] * 100:+.1f}% "
            f"(bound {PARITY_JCT_BOUND * 100:.0f}%)"
        )
        return 0

    preset = _PRESETS[args.scale]
    data = run_sweep(preset, execution=args.execution)
    baseline = load_baseline(BASELINE_PATH, preset.name) if args.check else None
    _merge_out(preset.name, data)
    if args.check:
        return _check_sweep(data, baseline)
    # Digest divergence is a correctness bug, not a perf regression:
    # fail even without --check.
    if any(p.get("digest_match") is False for p in data["points"]):
        print("EXECUTOR DIVERGENCE: thread and process decision streams differ")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
