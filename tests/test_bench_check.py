"""The benchmarks' ``--check`` gates compare a fresh run with the baseline.

Run from the repo root, ``bench_perf.py`` and ``bench_scale.py`` write
their fresh result to the committed baseline file by default; the gate
must read the baseline before that write, or it compares a run with
itself.  These tests point the output at the baseline path and feed a
regressed result through ``main``.
"""

import copy
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from benchmarks import bench_perf, bench_scale  # noqa: E402


def _baseline(tmp_path, name, key):
    """A one-entry copy of a committed baseline file, and that entry."""
    entry = json.loads((REPO / name).read_text())[key]
    path = tmp_path / name
    path.write_text(json.dumps({key: entry}))
    return path, entry


def _run_perf(monkeypatch, path, fresh):
    # The committed entry predates some report rows; the gate is under test.
    monkeypatch.setattr(bench_perf, "_print_report", lambda data: None)
    monkeypatch.setattr(bench_perf, "BASELINE_PATH", path)
    monkeypatch.setattr(bench_perf, "run_bench", lambda: copy.deepcopy(fresh))
    monkeypatch.setenv("REPRO_BENCH_OUT", str(path))
    return bench_perf.main(["--check"])


def _run_scale(monkeypatch, path, fresh):
    monkeypatch.setattr(bench_scale, "BASELINE_PATH", path)
    monkeypatch.setattr(
        bench_scale, "run_sweep", lambda preset, execution: copy.deepcopy(fresh)
    )
    monkeypatch.setenv("REPRO_BENCH_SCALE_OUT", str(path))
    return bench_scale.main(["--scale", "smoke", "--check"])


class TestPerfCheck:
    def test_moved_legacy_digest_fails_when_output_is_baseline(
        self, tmp_path, monkeypatch
    ):
        path, entry = _baseline(tmp_path, "BENCH_perf.json", "smoke")
        fresh = copy.deepcopy(entry)  # same numpy/scipy versions
        fresh["sim_pollux_legacy"]["decision_digest"] = "0" * 64
        assert _run_perf(monkeypatch, path, fresh) == 1
        # The fresh result is still written after the check read the file.
        written = json.loads(path.read_text())["smoke"]
        assert written["sim_pollux_legacy"]["decision_digest"] == "0" * 64

    def test_unchanged_result_passes(self, tmp_path, monkeypatch):
        path, entry = _baseline(tmp_path, "BENCH_perf.json", "smoke")
        assert _run_perf(monkeypatch, path, entry) == 0


class TestScaleCheck:
    def test_slow_round_fails_when_output_is_baseline(
        self, tmp_path, monkeypatch
    ):
        path, entry = _baseline(tmp_path, "BENCH_scale.json", "smoke")
        fresh = copy.deepcopy(entry)
        for point in fresh["points"]:
            point["sharded_round_ms"] *= 3.0  # past the 2x regression bar
        assert _run_scale(monkeypatch, path, fresh) == 1

    def test_unchanged_sweep_passes(self, tmp_path, monkeypatch):
        path, entry = _baseline(tmp_path, "BENCH_scale.json", "smoke")
        assert _run_scale(monkeypatch, path, entry) == 0
