"""Live sweep progress: bounded gauges, rate/ETA, optional stderr line.

A long exhaustive sweep used to be a black box until the final table
printed.  :class:`SweepProgress` turns per-chunk completions (posted by
:func:`repro.analysis.parallel.parallel_map` as workers finish — not at
merge time) into a fixed, bounded set of registry metrics a scraper can
watch advance through ``GET /metrics``:

- ``sweep.progress.patterns_done`` — units completed so far (gauge,
  monotone during a process's lifetime: chunk completions only add).
- ``sweep.progress.total_patterns`` — units planned so far (gauge).
- ``sweep.progress.eta_seconds`` — remaining-work estimate from the
  observed completion rate (gauge; 0 once done).
- ``sweep.chunks_completed`` — chunk completions (counter).

Metric names are fixed regardless of how many benchmarks or chunks a
run sweeps, respecting the registry's bounded-cardinality rule.  With a
*stream* the tracker also renders a single-line ``\\r`` progress bar
with rate and ETA (the CLI's ``--progress`` flag passes stderr).

Constructing a tracker marks the start of a new sweep session: the
``sweep.progress.*`` gauges, ``sweep.last_wall_seconds``, and the
``sweep.last_benchmark`` info metric are reset to zero/empty so a
scraper watching a long-lived process (normal under the recovery
service) never reads the *previous* run's totals or ETA during the new
run's ramp-up.  ``sweep.chunks_completed`` is a counter and keeps its
process-lifetime total.
"""

from __future__ import annotations

import time
from typing import TextIO

from repro.obs import metrics as obs_metrics

__all__ = ["SweepProgress"]


class SweepProgress:
    """Fold chunk completions into progress metrics and an ETA.

    Updates the process registry current at construction.

    Parameters
    ----------
    stream:
        Optional text stream for a live one-line progress display.
    unit:
        Noun used by the rendered line (``patterns``, ``trials``...).
    """

    def __init__(
        self, stream: TextIO | None = None, unit: str = "patterns"
    ) -> None:
        registry = obs_metrics.get_registry()
        self._g_done = registry.gauge(
            "sweep.progress.patterns_done",
            help="Sweep units completed so far (live; advances per chunk)",
        )
        self._g_total = registry.gauge(
            "sweep.progress.total_patterns",
            help="Sweep units planned so far",
        )
        self._g_eta = registry.gauge(
            "sweep.progress.eta_seconds",
            help="Estimated seconds until the current sweep finishes",
        )
        self._c_chunks = registry.counter(
            "sweep.chunks_completed",
            help="Sweep chunks completed (serial runs count one per run)",
        )
        # A new tracker is a new sweep session: scrub the per-run state
        # a previous sweep in this process left behind, so scrapers
        # don't read stale totals/ETA (or last-run identity) while this
        # run ramps up.  Counters above are cumulative and stay.
        self._g_done.set(0.0)
        self._g_total.set(0.0)
        self._g_eta.set(0.0)
        for stale_name in ("sweep.last_wall_seconds", "sweep.last_benchmark"):
            stale = registry.get(stale_name)
            if stale is not None:  # only a prior sweep registers these
                stale.reset()
        self._stream = stream
        self._unit = unit
        self._started_at: float | None = None
        self._done = 0
        self._total = 0
        self._success_sum = 0.0
        self._wrote_line = False

    @property
    def done(self) -> int:
        """Units this tracker has seen complete."""
        return self._done

    @property
    def total(self) -> int:
        """Units this tracker has been told to expect."""
        return self._total

    def add_total(self, units: int) -> None:
        """Announce *units* of upcoming work (callable repeatedly)."""
        if self._started_at is None:
            self._started_at = time.monotonic()
        self._total += units
        self._g_total.inc(units)

    def on_chunk(
        self,
        units: int,
        wall_seconds: float | None = None,
        success_sum: float = 0.0,
    ) -> None:
        """Record one completed chunk of *units* sweep units.

        *wall_seconds* is the worker-side duration (informational;
        rate/ETA use the tracker's own elapsed wall clock so overlapping
        workers don't overcount).  *success_sum* accumulates partial
        success mass for the rendered line.
        """
        if self._started_at is None:
            self._started_at = time.monotonic()
        self._done += units
        self._success_sum += success_sum
        self._g_done.inc(units)
        self._c_chunks.inc()
        self._g_eta.set(self.eta_seconds())
        if self._stream is not None:
            self._stream.write("\r" + self.render_line())
            self._stream.flush()
            self._wrote_line = True

    def rate(self) -> float:
        """Observed units/second since the tracker started."""
        if self._started_at is None or not self._done:
            return 0.0
        elapsed = time.monotonic() - self._started_at
        return self._done / elapsed if elapsed > 0 else 0.0

    def eta_seconds(self) -> float:
        """Estimated seconds of work remaining (0 when unknown/done)."""
        remaining = max(self._total - self._done, 0)
        if not remaining:
            return 0.0
        rate = self.rate()
        return remaining / rate if rate > 0 else 0.0

    def render_line(self) -> str:
        """The one-line progress display (also used by tests)."""
        total = max(self._total, self._done)
        percent = 100.0 * self._done / total if total else 0.0
        parts = [
            f"sweep: {self._done}/{total} {self._unit} ({percent:5.1f}%)",
            f"{self.rate():8.1f} {self._unit}/s",
        ]
        if self._done and self._unit == "patterns":
            parts.append(f"mean success {self._success_sum / self._done:.3f}")
        remaining = max(total - self._done, 0)
        parts.append("done" if not remaining else f"eta {self.eta_seconds():.0f}s")
        return " | ".join(parts)

    def finish(self) -> None:
        """Zero the ETA and terminate the progress line, if any."""
        self._g_eta.set(0.0)
        if self._stream is not None and self._wrote_line:
            self._stream.write("\r" + self.render_line() + "\n")
            self._stream.flush()
            self._wrote_line = False
