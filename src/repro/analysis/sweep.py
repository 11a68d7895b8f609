"""Exhaustive DUE sweeps: the paper's evaluation methodology (Sec. IV-A).

The paper examines *all* C(39, 2) = 741 double-bit error patterns
applied to each of the first 100 instructions of each benchmark, runs
the recovery heuristic, and reports per-pattern success rates.  This
module runs that sweep for any (code, strategy, images) combination.

Success is measured with
:meth:`repro.core.swdecc.SwdEcc.sweep_patterns` — per word, the exact
probability that the strategy picks the original message — rather
than a single sampled tie-break, so sweep output is deterministic and
equals the expectation of the paper's sampled procedure.

Two things make the sweep fast (see ``docs/performance.md``): one
engine call sweeps a whole chunk of patterns from the code's decode
table (a score row per message, a C-level gather per word), and
``jobs > 1`` fans pattern chunks out over worker processes with a
deterministic merge — parallel results are bit-identical to serial
ones, and worker metrics are folded back into the parent registry.
"""

from __future__ import annotations

import enum
import logging
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.metrics import PatternOutcome
from repro.analysis.parallel import chunk_evenly, parallel_map
from repro.core.filters import InstructionLegalityFilter
from repro.core.rankers import FrequencyRanker, UniformRanker
from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc.channel import ErrorPattern, double_bit_patterns
from repro.ecc.code import LinearBlockCode
from repro.errors import AnalysisError
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs.progress import SweepProgress
from repro.obs.trace import span
from repro.program.image import ProgramImage
from repro.program.stats import FrequencyTable

_log = obs_logging.get_logger("analysis.sweep")

__all__ = ["RecoveryStrategy", "BenchmarkSweepResult", "DueSweep"]


class RecoveryStrategy(enum.Enum):
    """The three candidate-selection strategies evaluated in Sec. IV-B."""

    RANDOM_CANDIDATE = "random-candidate"
    """Choose uniformly among all candidate codewords (no side info)."""

    FILTER_ONLY = "filter-only"
    """Filter illegal instructions, then choose uniformly (Fig. 6)."""

    FILTER_AND_RANK = "filter-and-rank"
    """Filter, then rank by mnemonic frequency (Fig. 8, the paper's
    final strategy)."""


def _engine_for(
    strategy: RecoveryStrategy, code: LinearBlockCode, cache: bool = True
) -> SwdEcc:
    # The sweep consumes exact probabilities, so the tie-break RNG is
    # never sampled; a fixed instance keeps construction cheap.
    rng = random.Random(0)
    if strategy is RecoveryStrategy.RANDOM_CANDIDATE:
        return SwdEcc(
            code, filters=(), ranker=UniformRanker(), rng=rng, cache=cache
        )
    if strategy is RecoveryStrategy.FILTER_ONLY:
        return SwdEcc(
            code,
            filters=(InstructionLegalityFilter(),),
            ranker=UniformRanker(),
            rng=rng,
            cache=cache,
        )
    return SwdEcc(
        code,
        filters=(InstructionLegalityFilter(),),
        ranker=FrequencyRanker(),
        tie_break=TieBreak.RANDOM,
        rng=rng,
        cache=cache,
    )


@dataclass(frozen=True)
class BenchmarkSweepResult:
    """Per-benchmark sweep output.

    Attributes
    ----------
    benchmark:
        Image name.
    strategy:
        The strategy swept.
    num_instructions:
        Evaluation window size (100 in the paper).
    outcomes:
        One :class:`~repro.analysis.metrics.PatternOutcome` per error
        pattern, in the paper's pattern order.
    """

    benchmark: str
    strategy: RecoveryStrategy
    num_instructions: int
    outcomes: tuple[PatternOutcome, ...]

    @property
    def mean_success_rate(self) -> float:
        """Mean recovery rate over all patterns and instructions."""
        return sum(o.success_rate for o in self.outcomes) / len(self.outcomes)

    def success_series(self) -> list[float]:
        """Per-pattern success rates, indexed by pattern number (Fig. 8)."""
        return [o.success_rate for o in self.outcomes]


class DueSweep:
    """Exhaustive 2-bit-DUE sweep over program images.

    Parameters
    ----------
    code:
        The SECDED code under evaluation.
    strategy:
        Candidate-selection strategy.
    num_instructions:
        How many leading instructions of each image to corrupt (the
        paper uses 100).
    patterns:
        Error patterns to apply; defaults to all C(n, 2) double-bit
        patterns in paper order.
    cache:
        Sweep on the code's decode table (default); ``False`` runs the
        engine's reference oracle word by word (see :class:`SwdEcc`).
        Results are bit-identical either way.
    """

    def __init__(
        self,
        code: LinearBlockCode,
        strategy: RecoveryStrategy = RecoveryStrategy.FILTER_AND_RANK,
        num_instructions: int = 100,
        patterns: Sequence[ErrorPattern] | None = None,
        cache: bool = True,
    ) -> None:
        if num_instructions < 1:
            raise AnalysisError(
                f"num_instructions must be >= 1, got {num_instructions}"
            )
        self._code = code
        self._strategy = strategy
        self._num_instructions = num_instructions
        self._cache = cache
        self._patterns = (
            tuple(patterns) if patterns is not None
            else tuple(double_bit_patterns(code.n))
        )
        for pattern in self._patterns:
            if pattern.width != code.n:
                raise AnalysisError(
                    f"pattern width {pattern.width} != code length {code.n}"
                )
        self._engine = _engine_for(strategy, code, cache=cache)

    @property
    def patterns(self) -> tuple[ErrorPattern, ...]:
        """The error patterns the sweep applies."""
        return self._patterns

    @property
    def engine(self) -> SwdEcc:
        """The engine configured for the sweep's strategy."""
        return self._engine

    def _outcomes_for(
        self, image: ProgramImage, patterns: Sequence[ErrorPattern]
    ) -> list[PatternOutcome]:
        """Per-pattern outcomes over the image's leading window.

        This is the sweep kernel both the serial path and the parallel
        workers run, one :meth:`~repro.core.swdecc.SwdEcc.sweep_patterns`
        call per chunk; it must stay a pure function of (engine config,
        image, patterns) so chunked results concatenate into exactly
        the serial output.
        """
        window = min(self._num_instructions, len(image))
        context = RecoveryContext.for_instructions(
            FrequencyTable.from_image(image)
        )
        originals = image.words[:window]
        outcomes = []
        swept = self._engine.sweep_patterns(
            originals, [pattern.vector for pattern in patterns], context
        )
        for pattern, stats in zip(patterns, swept):
            success_total = 0.0
            candidates_total = 0
            valid_total = 0
            # Sequential float addition: from Python 3.12 on, sum()
            # compensates rounding, which would move the rates.
            for probability, num_candidates, num_valid in stats:
                success_total += probability
                candidates_total += num_candidates
                valid_total += num_valid
            outcomes.append(
                PatternOutcome(
                    index=pattern.index,
                    positions=pattern.positions,
                    success_rate=success_total / window,
                    mean_candidates=candidates_total / window,
                    mean_valid=valid_total / window,
                )
            )
        return outcomes

    def run(
        self,
        image: ProgramImage,
        jobs: int = 1,
        progress: SweepProgress | None = None,
    ) -> BenchmarkSweepResult:
        """Sweep one benchmark image.

        The frequency table is computed over the *whole* image (as in
        the paper: "the relative frequency that their mnemonics appear
        in the entire program image") while errors are injected only
        into the leading window.

        With ``jobs > 1`` the pattern list is split into contiguous
        chunks swept by the process's shared worker pool (started by
        the first parallel call and reused by every later one, so a
        sweep of many images forks its workers once); the merged result
        is bit-identical to the serial one, and worker metrics
        (recovery and op counters, histograms) plus a digest of worker
        DUE events are aggregated into this process's registry and
        event log.

        Progress is live either way: the ``sweep.progress.*`` gauges
        advance as each chunk *completes* (a serial run is one chunk),
        so a scraper watching ``/metrics`` sees patterns_done climb
        during the run.  Pass a :class:`SweepProgress` to share one
        rate/ETA estimate across several benchmarks (``run_many``
        does); otherwise the sweep creates its own.
        """
        if jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {jobs}")
        owns_progress = progress is None
        if progress is None:
            progress = SweepProgress()
        progress.add_total(len(self._patterns))

        def _chunk_done(
            chunk_index: int,
            chunk_outcomes: Sequence[PatternOutcome],
            wall_seconds: float,
        ) -> None:
            success_sum = sum(o.success_rate for o in chunk_outcomes)
            progress.on_chunk(
                len(chunk_outcomes), wall_seconds, success_sum
            )
            obs_logging.emit(
                _log, logging.INFO, "sweep chunk completed",
                benchmark=image.name,
                chunk=chunk_index,
                patterns=len(chunk_outcomes),
                wall_seconds=round(wall_seconds, 6),
                mean_success=(
                    round(success_sum / len(chunk_outcomes), 6)
                    if chunk_outcomes else None
                ),
                done=progress.done,
                total=progress.total,
            )

        start_ns = time.perf_counter_ns()
        with obs_logging.bind(
            benchmark=image.name, strategy=self._strategy.value
        ), span(f"sweep.run[{image.name}]"):
            if jobs > 1 and len(self._patterns) > 1:
                payloads = [
                    (self._code, self._strategy, self._num_instructions,
                     self._cache, image, chunk)
                    for chunk in chunk_evenly(self._patterns, jobs)
                ]
                outcomes = [
                    outcome
                    for chunk_outcomes in parallel_map(
                        _sweep_chunk_worker, payloads, jobs,
                        on_result=_chunk_done,
                    )
                    for outcome in chunk_outcomes
                ]
            else:
                outcomes = self._outcomes_for(image, self._patterns)
                elapsed = (time.perf_counter_ns() - start_ns) / 1e9
                _chunk_done(0, outcomes, elapsed)
        elapsed_seconds = (time.perf_counter_ns() - start_ns) / 1e9
        if owns_progress:
            progress.finish()
        registry = obs_metrics.get_registry()
        registry.counter("sweep.benchmarks").inc()
        registry.counter("sweep.patterns_swept").inc(len(self._patterns))
        registry.histogram("sweep.benchmark_wall_seconds").observe(
            elapsed_seconds
        )
        # Identity goes in an info metric, not a per-image gauge name:
        # minting one gauge per benchmark would grow the registry without
        # bound on user-supplied image names.
        registry.gauge("sweep.last_wall_seconds").set(elapsed_seconds)
        registry.info("sweep.last_benchmark").set(image.name)
        return BenchmarkSweepResult(
            benchmark=image.name,
            strategy=self._strategy,
            num_instructions=min(self._num_instructions, len(image)),
            outcomes=tuple(outcomes),
        )

    def run_many(
        self,
        images: Sequence[ProgramImage],
        jobs: int = 1,
        progress: SweepProgress | None = None,
    ) -> list[BenchmarkSweepResult]:
        """Sweep several benchmark images.

        Images are swept in order, each fanning its patterns out over
        *jobs* workers, so per-benchmark wall-time metrics keep their
        serial meaning and results stay deterministic.  One shared
        :class:`SweepProgress` (created here when not supplied) spans
        all the images, so the rendered rate/ETA covers the whole run.
        """
        if not images:
            raise AnalysisError("no images supplied to sweep")
        owns_progress = progress is None
        if progress is None:
            progress = SweepProgress()
        results = [
            self.run(image, jobs=jobs, progress=progress)
            for image in images
        ]
        if owns_progress:
            progress.finish()
        return results


def _sweep_chunk_worker(payload) -> list[PatternOutcome]:
    """Sweep one pattern chunk in a worker process.

    Module-level so it pickles; rebuilds the sweep (and its engine)
    from plain data because engines hold process-local metric objects
    that must bind to the task's registry.  The code arrives without
    its decode table, which the worker rebuilds on first use.
    """
    code, strategy, num_instructions, cache, image, patterns = payload
    sweep = DueSweep(
        code, strategy, num_instructions, patterns=patterns, cache=cache
    )
    return sweep._outcomes_for(image, patterns)
