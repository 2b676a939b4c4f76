"""Progress and stats reporting for campaign runs.

The engine drives a :class:`ProgressReporter` through the lifecycle of
a run (plan → shards → merge); :class:`CampaignStats` accumulates what
the hooks observe — shards done, sites/sec throughput, and per-phase
wall-clock — so callers can read the numbers afterwards regardless of
which reporter was attached.

Wall-clock reads live in :class:`~repro.telemetry.profile.PhaseTimer`
(re-exported here for compatibility), telemetry's quarantined
self-profiling side: the orchestrator itself never touches a clock, and
REP006 enforces that timer values feed operator-facing display only —
never a serialized dataset, checkpoint, or metrics dump.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, TextIO

from repro.telemetry.profile import PhaseTimer

__all__ = [
    "CampaignStats",
    "ConsoleProgress",
    "NullProgress",
    "PhaseTimer",
    "ProgressReporter",
]


@dataclass
class CampaignStats:
    """What a finished (or aborted) run looked like."""

    shards_total: int = 0
    shards_skipped: int = 0  # satisfied from checkpoints
    shards_done: int = 0  # measured this run
    sites_total: int = 0
    sites_done: int = 0  # measured this run (excludes checkpointed)
    workers: int = 1
    phase_seconds: dict[str, float] = field(default_factory=dict)
    _timer: Optional[PhaseTimer] = None
    _phase_mark: float = 0.0  # ``elapsed`` when the running phase began

    def start(self) -> None:
        self._timer = PhaseTimer()
        self._phase_mark = 0.0

    def finish_phase(self, name: str, progress: ProgressReporter) -> None:
        """Close the running phase: add its seconds, start the next."""
        now = self.elapsed
        seconds = now - self._phase_mark
        self._phase_mark = now
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        progress.on_phase(name, seconds, self)

    @property
    def elapsed(self) -> float:
        return 0.0 if self._timer is None else self._timer.elapsed()

    @property
    def measure_seconds(self) -> float:
        return self.phase_seconds.get("measure", 0.0)

    @property
    def sites_per_sec(self) -> float:
        """Measurement throughput (sites measured this run only)."""
        seconds = self.measure_seconds
        return self.sites_done / seconds if seconds > 0 else 0.0


class ProgressReporter:
    """No-op base: subclass and override what you want to observe."""

    def on_plan(self, stats: CampaignStats) -> None:  # pragma: no cover
        pass

    def on_shard_done(
        self, shard_id: int, n_sites: int, stats: CampaignStats
    ) -> None:  # pragma: no cover
        pass

    def on_phase(
        self, name: str, seconds: float, stats: CampaignStats
    ) -> None:  # pragma: no cover
        pass

    def on_finish(self, stats: CampaignStats) -> None:  # pragma: no cover
        pass


class NullProgress(ProgressReporter):
    """Explicitly silent."""


class ConsoleProgress(ProgressReporter):
    """Human-readable progress lines (stderr by default, so dataset JSON
    on stdout stays clean)."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr

    def _say(self, message: str) -> None:
        print(message, file=self._stream, flush=True)

    def on_plan(self, stats: CampaignStats) -> None:
        skipped = (
            f" ({stats.shards_skipped} already checkpointed)"
            if stats.shards_skipped
            else ""
        )
        self._say(
            f"[engine] plan: {stats.sites_total} sites in "
            f"{stats.shards_total} shards, {stats.workers} worker(s){skipped}"
        )

    def on_shard_done(
        self, shard_id: int, n_sites: int, stats: CampaignStats
    ) -> None:
        finished = stats.shards_done + stats.shards_skipped
        self._say(
            f"[engine] shard {shard_id:04d} done ({n_sites} sites) — "
            f"{finished}/{stats.shards_total} shards"
        )

    def on_phase(self, name: str, seconds: float, stats: CampaignStats) -> None:
        self._say(f"[engine] phase {name}: {seconds:.2f}s")

    def on_finish(self, stats: CampaignStats) -> None:
        self._say(
            f"[engine] finished: {stats.sites_done} sites measured in "
            f"{stats.measure_seconds:.2f}s ({stats.sites_per_sec:.0f} sites/s), "
            f"total {stats.elapsed:.2f}s"
        )
