"""Experiment drivers: one entry point per figure/table of the paper.

Each ``run_*`` function computes the data behind one figure of the
evaluation (Sec. IV) and returns a result object with a ``render()``
method for human-readable output.  The benchmark harness under
``benchmarks/`` is a thin wrapper around these drivers; the test suite
asserts on their structured fields.

The default workload is the synthetic SPEC CPU2006 stand-in suite
(DESIGN.md substitution table): five images generated from the Fig. 7
mix profiles with a pinned seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.heatmap import (
    render_heatmap,
    render_histogram,
    render_series,
    render_table,
)
from repro.analysis.metrics import (
    BitRegion,
    arithmetic_mean,
    mean_series,
    rate_histogram,
    region_means,
)
from repro.analysis.parallel import chunk_evenly, parallel_map
from repro.analysis.sweep import BenchmarkSweepResult, DueSweep, RecoveryStrategy
from repro.core.sideinfo import RecoveryContext
from repro.ecc.candidates import CandidateCountProfile, candidate_count_profile
from repro.ecc.channel import double_bit_patterns
from repro.ecc.code import LinearBlockCode
from repro.ecc.matrices import canonical_secded_39_32
from repro.isa.opcodes import COP1_FMTS, LEGAL_OPCODES, SPECIAL_FUNCTS
from repro.obs.progress import SweepProgress
from repro.program.image import ProgramImage
from repro.program.profiles import BENCHMARK_NAMES
from repro.program.stats import FrequencyTable, power_law_fit
from repro.program.synth import synthesize_benchmark

__all__ = [
    "default_code",
    "default_images",
    "Fig4Result",
    "run_fig4",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "run_fig8",
    "IsaLegalityResult",
    "run_isa_legality",
    "CodePropertiesResult",
    "run_code_properties",
]

_DEFAULT_IMAGE_LENGTH = 4096
_DEFAULT_SEED = 2016


def default_code() -> LinearBlockCode:
    """The evaluation's (39, 32) SECDED code."""
    return canonical_secded_39_32()


def default_images(
    length: int = _DEFAULT_IMAGE_LENGTH, seed: int = _DEFAULT_SEED
) -> list[ProgramImage]:
    """The five synthetic SPEC stand-in images, pinned seed."""
    return [
        synthesize_benchmark(name, length=length, seed=seed)
        for name in BENCHMARK_NAMES
    ]


# ---------------------------------------------------------------------------
# Fig. 4 — candidate-count heatmap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig4Result:
    """Candidate codeword counts per 2-bit error position pair."""

    code_name: str
    profile: CandidateCountProfile

    def render(self) -> str:
        matrix = self.profile.as_matrix(width=39)
        header = (
            f"Fig. 4 | {self.code_name}: candidate codewords per 2-bit DUE\n"
            f"patterns={self.profile.num_patterns} "
            f"min={self.profile.minimum} max={self.profile.maximum} "
            f"mean={self.profile.mean:.2f} "
            f"(paper: 741 patterns, 8..15, mean ~12)"
        )
        return header + "\n" + render_heatmap(matrix)


def run_fig4(code: LinearBlockCode | None = None) -> Fig4Result:
    """Compute the Fig. 4 heatmap for *code* (canonical by default)."""
    code = code or default_code()
    return Fig4Result(code_name=code.name, profile=candidate_count_profile(code))


# ---------------------------------------------------------------------------
# Fig. 5 — candidates vs legality-filtered valid messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig5Result:
    """Per-(pattern, instruction) candidate and valid-message counts.

    Matrices are indexed ``[pattern_index][instruction_index]``.
    """

    benchmark: str
    candidate_matrix: tuple[tuple[int, ...], ...]
    valid_matrix: tuple[tuple[int, ...], ...]

    @property
    def mean_candidates(self) -> float:
        """Grand mean of candidate counts (message independent)."""
        return _matrix_mean(self.candidate_matrix)

    @property
    def mean_valid(self) -> float:
        """Grand mean of legality-filtered counts."""
        return _matrix_mean(self.valid_matrix)

    @property
    def candidates_message_independent(self) -> bool:
        """Linearity check: each pattern row is constant (Fig. 5a)."""
        return all(len(set(row)) == 1 for row in self.candidate_matrix)

    @property
    def single_valid_fraction(self) -> float:
        """Fraction of cases filtered down to exactly one valid message
        (recovery is then certain, the paper's best case)."""
        cells = [cell for row in self.valid_matrix for cell in row]
        return sum(1 for cell in cells if cell == 1) / len(cells)

    def render(self) -> str:
        reduction = self.mean_candidates - self.mean_valid
        parts = [
            f"Fig. 5 | {self.benchmark}: filtering candidate messages",
            f"(a) mean candidates            = {self.mean_candidates:.2f} "
            f"(message-independent: {self.candidates_message_independent})",
            f"(b) mean valid after filtering = {self.mean_valid:.2f}",
            f"    mean reduction             = {reduction:.2f} "
            "(paper: ~2 fewer on average)",
            f"    cases with a single valid message = "
            f"{self.single_valid_fraction:.3%} (recovery certain)",
        ]
        # The paper's 5(b) surface: pattern x instruction valid counts,
        # down-sampled to a terminal-sized character grid (dark = many
        # surviving candidates, light = few = easy recovery).
        parts.append("(b) valid messages, pattern (rows, bucketed) x instruction (cols):")
        parts.append(render_heatmap(self._bucketed_valid(), legend=True))
        return "\n".join(parts)

    def _bucketed_valid(self, rows: int = 24) -> list[list[float]]:
        bucket = max(1, len(self.valid_matrix) // rows)
        grid = []
        for start in range(0, len(self.valid_matrix), bucket):
            chunk = self.valid_matrix[start : start + bucket]
            columns = len(chunk[0])
            grid.append([
                sum(row[col] for row in chunk) / len(chunk)
                for col in range(columns)
            ])
        return grid


def run_fig5(
    code: LinearBlockCode | None = None,
    image: ProgramImage | None = None,
    num_instructions: int = 100,
) -> Fig5Result:
    """Compute Fig. 5 for *image* (synthetic mcf by default).

    One call of the sweep kernel
    (:meth:`~repro.core.swdecc.SwdEcc.sweep_patterns`) covers every
    pattern over the whole window: its per-word ``(num_candidates,
    num_valid)`` are the counts
    :meth:`~repro.core.swdecc.SwdEcc.recover` reports, with
    ``num_valid`` 0 when the filter fell back.
    """
    code = code or default_code()
    image = image or synthesize_benchmark("mcf", length=_DEFAULT_IMAGE_LENGTH)
    window = min(num_instructions, len(image))
    sweep = DueSweep(code, RecoveryStrategy.FILTER_ONLY, window)
    context = RecoveryContext.for_instructions(FrequencyTable.from_image(image))
    candidate_matrix = []
    valid_matrix = []
    for stats in sweep.engine.sweep_patterns(
        image.words[:window],
        [pattern.vector for pattern in sweep.patterns],
        context,
    ):
        candidate_matrix.append(tuple(count for _, count, _ in stats))
        valid_matrix.append(tuple(valid for _, _, valid in stats))
    return Fig5Result(
        benchmark=image.name,
        candidate_matrix=tuple(candidate_matrix),
        valid_matrix=tuple(valid_matrix),
    )


# ---------------------------------------------------------------------------
# Fig. 6 — filtering-only histogram (bzip2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig6Result:
    """Per-pattern success-rate distributions for the baseline strategies.

    ``random_rates`` and ``filter_rates`` hold the per-pattern mean
    success rate over the instruction window; ``filter_best_rates``
    holds, per pattern, the rate of the single most recoverable
    instruction (the paper's red "best case" curve).
    """

    benchmark: str
    random_rates: tuple[float, ...]
    filter_rates: tuple[float, ...]
    filter_best_rates: tuple[float, ...]

    def render(self, num_bins: int = 20) -> str:
        sections = [f"Fig. 6 | {self.benchmark}: filtering-only strategy"]
        for label, rates in (
            ("random choice among candidates", self.random_rates),
            ("filtering-only (average case)", self.filter_rates),
            ("filtering-only (best case)", self.filter_best_rates),
        ):
            sections.append(render_histogram(
                rate_histogram(rates, num_bins),
                title=f"-- {label}: mean={arithmetic_mean(rates):.4f} "
                f"min={min(rates):.3f} max={max(rates):.3f}",
            ))
        return "\n".join(sections)


def _fig6_pattern_rates(payload) -> list[tuple[float, float, float]]:
    """Fig. 6 rates for one chunk of patterns (parallel-map worker).

    One :meth:`~repro.core.swdecc.SwdEcc.sweep_patterns` call per
    engine covers the chunk.  Returns ``(random_rate, filter_rate,
    filter_best)`` per pattern.
    Module-level and driven by plain data so it pickles into worker
    processes; the serial path runs the same code in-process.
    """
    code, image, window, patterns = payload
    context = RecoveryContext.for_instructions(FrequencyTable.from_image(image))
    originals = image.words[:window]
    random_engine = DueSweep(code, RecoveryStrategy.RANDOM_CANDIDATE, window).engine
    filter_engine = DueSweep(code, RecoveryStrategy.FILTER_ONLY, window).engine
    vectors = [pattern.vector for pattern in patterns]
    rows = []
    for random_stats, filter_stats in zip(
        random_engine.sweep_patterns(originals, vectors, context),
        filter_engine.sweep_patterns(originals, vectors, context),
    ):
        random_total = 0.0
        filter_total = 0.0
        best = 0.0
        for (p_random, _, _), (p_filter, _, _) in zip(
            random_stats, filter_stats
        ):
            random_total += p_random
            filter_total += p_filter
            best = max(best, p_filter)
        rows.append((random_total / window, filter_total / window, best))
    return rows


def run_fig6(
    code: LinearBlockCode | None = None,
    image: ProgramImage | None = None,
    num_instructions: int = 100,
    jobs: int = 1,
    progress: SweepProgress | None = None,
) -> Fig6Result:
    """Compute Fig. 6 for *image* (synthetic bzip2 by default).

    With ``jobs > 1`` the pattern sweep fans out over worker processes;
    results are bit-identical to the serial run.  The
    ``sweep.progress.*`` gauges advance as each pattern chunk completes
    (live through a ``--serve`` endpoint); pass *progress* to also
    render a console line.
    """
    code = code or default_code()
    image = image or synthesize_benchmark("bzip2", length=_DEFAULT_IMAGE_LENGTH)
    window = min(num_instructions, len(image))
    chunks = chunk_evenly(tuple(double_bit_patterns(code.n)), jobs)
    payloads = [(code, image, window, chunk) for chunk in chunks]
    if progress is None:
        progress = SweepProgress()
    progress.add_total(sum(len(chunk) for chunk in chunks))

    def _chunk_done(index, chunk_rows, wall_seconds):
        progress.on_chunk(
            len(chunk_rows), wall_seconds,
            sum(row[1] for row in chunk_rows),
        )

    rows = [
        row
        for chunk_rows in parallel_map(
            _fig6_pattern_rates, payloads, jobs, on_result=_chunk_done
        )
        for row in chunk_rows
    ]
    progress.finish()
    random_rates = [row[0] for row in rows]
    filter_rates = [row[1] for row in rows]
    filter_best = [row[2] for row in rows]
    return Fig6Result(
        benchmark=image.name,
        random_rates=tuple(random_rates),
        filter_rates=tuple(filter_rates),
        filter_best_rates=tuple(filter_best),
    )


# ---------------------------------------------------------------------------
# Fig. 7 — instruction-mix distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig7Result:
    """Mnemonic frequency tables and power-law fits per benchmark."""

    tables: Mapping[str, FrequencyTable]
    fits: Mapping[str, tuple[float, float]]

    def render(self, top: int = 12) -> str:
        rows = []
        for name, table in self.tables.items():
            alpha, r_squared = self.fits[name]
            head = ", ".join(
                f"{mnemonic}={frequency:.3f}"
                for mnemonic, frequency in table.most_common(5)
            )
            rows.append([name, len(table.counts), f"{alpha:.2f}",
                         f"{r_squared:.2f}", head])
        table_text = render_table(
            ["benchmark", "mnemonics", "alpha", "r^2", "top-5 frequencies"],
            rows,
            title="Fig. 7 | instruction mixes (paper: power law, lw ~0.20)",
        )
        return table_text

    def lw_frequencies(self) -> dict[str, float]:
        """The ``lw`` share per benchmark (paper: ~20% everywhere)."""
        return {
            name: table.frequency("lw") for name, table in self.tables.items()
        }


def run_fig7(images: list[ProgramImage] | None = None) -> Fig7Result:
    """Compute Fig. 7 over *images* (all five stand-ins by default)."""
    images = images or default_images()
    tables = {image.name: FrequencyTable.from_image(image) for image in images}
    fits = {name: power_law_fit(table) for name, table in tables.items()}
    return Fig7Result(tables=tables, fits=fits)


# ---------------------------------------------------------------------------
# Fig. 8 — filtering-and-ranking recovery across benchmarks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig8Result:
    """The headline experiment: per-pattern recovery rates, all benchmarks."""

    sweeps: tuple[BenchmarkSweepResult, ...]

    @property
    def overall_mean(self) -> float:
        """Grand arithmetic mean (the paper's 0.3403)."""
        return arithmetic_mean([s.mean_success_rate for s in self.sweeps])

    def mean_curve(self) -> list[float]:
        """Cross-benchmark mean success per pattern index."""
        return mean_series([s.success_series() for s in self.sweeps])

    def region_summary(self) -> dict[BitRegion, float]:
        """Mean success by bit region, pooled over benchmarks."""
        pooled = [o for sweep in self.sweeps for o in sweep.outcomes]
        return region_means(pooled)

    def render(self) -> str:
        rows = [
            [s.benchmark, s.num_instructions, f"{s.mean_success_rate:.4f}"]
            for s in self.sweeps
        ]
        parts = [render_table(
            ["benchmark", "instructions", "mean recovery rate"],
            rows,
            title="Fig. 8 | filtering-and-ranking recovery "
            "(paper: arithmetic mean = 0.3403)",
        )]
        parts.append(f"overall arithmetic mean = {self.overall_mean:.4f}")
        regions = self.region_summary()
        region_rows = [
            [region.value, f"{rate:.4f}"]
            for region, rate in sorted(regions.items(), key=lambda kv: -kv[1])
        ]
        parts.append(render_table(
            ["bit region", "mean recovery rate"],
            region_rows,
            title="(paper: up to 0.99 in decode fields, ~0.15 in low-order bits)",
        ))
        parts.append(render_series(
            self.mean_curve(),
            title="mean recovery rate vs 2-bit error pattern index",
        ))
        return "\n".join(parts)


def run_fig8(
    code: LinearBlockCode | None = None,
    images: list[ProgramImage] | None = None,
    num_instructions: int = 100,
    jobs: int = 1,
    progress: SweepProgress | None = None,
) -> Fig8Result:
    """Run the headline sweep (Fig. 8) over *images*.

    With ``jobs > 1`` each image's pattern sweep fans out over worker
    processes (see :meth:`~repro.analysis.sweep.DueSweep.run`); output
    is bit-identical to the serial run.  One shared progress tracker
    spans all the images, so live rate/ETA reflects the whole figure.
    """
    code = code or default_code()
    images = images or default_images()
    sweep = DueSweep(code, RecoveryStrategy.FILTER_AND_RANK, num_instructions)
    if progress is None:
        progress = SweepProgress()
    result = Fig8Result(
        sweeps=tuple(sweep.run_many(images, jobs=jobs, progress=progress))
    )
    progress.finish()
    return result


# ---------------------------------------------------------------------------
# ISA legality counts and code properties (Sec. III-B / IV-B tables)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IsaLegalityResult:
    """The three legality counts the paper reports for MIPS-I."""

    legal_opcodes: int
    legal_functs: int
    legal_fmts: int

    def render(self) -> str:
        return render_table(
            ["field", "legal", "total", "paper"],
            [
                ["opcode", self.legal_opcodes, 64, "41/64"],
                ["funct (opcode 0x00)", self.legal_functs, 64, "37/64"],
                ["fmt (opcode 0x11)", self.legal_fmts, 32, "3/32"],
            ],
            title="ISA legality (Sec. III-B)",
        )


def run_isa_legality() -> IsaLegalityResult:
    """Count the legal opcode/funct/fmt values of the decoder."""
    return IsaLegalityResult(
        legal_opcodes=len(LEGAL_OPCODES),
        legal_functs=len(SPECIAL_FUNCTS),
        legal_fmts=len(COP1_FMTS),
    )


@dataclass(frozen=True)
class CodePropertiesResult:
    """SECDED guarantees and candidate statistics of the code."""

    code_name: str
    n: int
    k: int
    distance_at_least_4: bool
    distance_at_least_5: bool
    profile: CandidateCountProfile

    def render(self) -> str:
        return render_table(
            ["property", "value", "paper"],
            [
                ["code", f"({self.n},{self.k})", "(39,32)"],
                ["min distance >= 4 (SECDED)", self.distance_at_least_4, "yes"],
                ["min distance >= 5", self.distance_at_least_5, "no"],
                ["2-bit patterns", self.profile.num_patterns, 741],
                ["min candidates", self.profile.minimum, 8],
                ["max candidates", self.profile.maximum, 15],
                ["mean candidates", f"{self.profile.mean:.2f}", "~12"],
            ],
            title=f"Code properties | {self.code_name}",
        )


def run_code_properties(
    code: LinearBlockCode | None = None,
) -> CodePropertiesResult:
    """Verify the SECDED properties the evaluation relies on."""
    code = code or default_code()
    return CodePropertiesResult(
        code_name=code.name,
        n=code.n,
        k=code.k,
        distance_at_least_4=code.verify_minimum_distance(4),
        distance_at_least_5=code.verify_minimum_distance(5),
        profile=candidate_count_profile(code),
    )


def _matrix_mean(matrix: tuple[tuple[int, ...], ...]) -> float:
    cells = [cell for row in matrix for cell in row]
    return sum(cells) / len(cells)
