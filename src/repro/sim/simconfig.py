"""Run configuration of a trace replay (every simulation is one)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimConfig"]


@dataclass(frozen=True)
class SimConfig:
    """Simulator parameters (defaults follow Sec. 5.1).

    Consumed by :class:`~repro.host.ReplayBackend` (and so by
    :class:`~repro.sim.simulator.Simulator`, which runs one) and its
    :class:`~repro.sim.engine.ClusterEngine` mechanism layer.

    ``batch_tuning`` selects how Pollux jobs re-tune their batch size each
    agent interval: ``"table"`` (default) is an O(1) lookup from the
    agent's memoized argmax batch-size table on a
    ``tuning_points_per_octave`` geometric grid; ``"golden"`` (alias
    ``"search"``) is the paper's golden-section maximization of Eqn. 13,
    kept as the escape hatch.  At the default grid density the two choose
    batch sizes within one ~2% grid step of each other, and the
    seed-averaged end-to-end avg-JCT delta is statistically
    indistinguishable from zero at the trace-noise level: -0.4% over 6
    seeds at full paper scale, point estimates within +-2% either way at
    reduced scale (quantified in ``benchmarks/bench_ga_engines.py`` /
    ``BENCH_ga_engines.json``) — table mode became the default because it
    is ~6x cheaper per tuning tick at equivalent decisions.
    """

    tick_seconds: float = 30.0
    scheduling_interval: float = 60.0
    agent_interval: float = 30.0
    restart_delay: float = 30.0
    interference_slowdown: float = 0.0
    max_hours: float = 200.0
    profile_noise: float = 0.03
    gns_noise: float = 0.10
    seed: int = 0
    batch_tuning: str = "table"
    tuning_points_per_octave: int = 32

    def __post_init__(self) -> None:
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if self.scheduling_interval < self.tick_seconds:
            raise ValueError("scheduling_interval must be >= tick_seconds")
        if not (0.0 <= self.interference_slowdown < 1.0):
            raise ValueError("interference_slowdown must be in [0, 1)")
        if self.max_hours <= 0:
            raise ValueError("max_hours must be positive")
        if self.batch_tuning not in ("table", "golden", "search"):
            raise ValueError(
                f"batch_tuning must be 'table', 'golden', or 'search', got "
                f"{self.batch_tuning!r}"
            )
        if self.tuning_points_per_octave < 1:
            raise ValueError("tuning_points_per_octave must be >= 1")
