"""Tests for the DUE sweep harness and the per-figure drivers.

These use reduced windows (a handful of instructions, subsets of the
741 patterns) so the suite stays fast; the full paper-scale runs live
in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    run_code_properties,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_isa_legality,
)
from repro.analysis.metrics import BitRegion
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.core.sideinfo import RecoveryContext
from repro.ecc.channel import double_bit_patterns
from repro.errors import AnalysisError
from repro.program.image import ProgramImage
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark


@pytest.fixture(scope="module")
def small_images():
    return [
        synthesize_benchmark(name, length=256)
        for name in ("bzip2", "mcf")
    ]


@pytest.fixture(scope="module")
def subset_patterns(code):
    return double_bit_patterns(code.n)[::25]  # 30 of 741


class TestDueSweep:
    def test_outcomes_cover_requested_patterns(self, code, small_images, subset_patterns):
        sweep = DueSweep(
            code, RecoveryStrategy.FILTER_AND_RANK,
            num_instructions=10, patterns=subset_patterns,
        )
        result = sweep.run(small_images[0])
        assert len(result.outcomes) == len(subset_patterns)
        assert result.num_instructions == 10
        for outcome in result.outcomes:
            assert 0.0 <= outcome.success_rate <= 1.0
            assert 8 <= outcome.mean_candidates <= 15

    def test_strategy_ordering(self, code, small_images, subset_patterns):
        """filter+rank >= filter-only >= random on average (the paper's
        central comparison)."""
        means = {}
        for strategy in RecoveryStrategy:
            sweep = DueSweep(code, strategy, 10, patterns=subset_patterns)
            means[strategy] = sweep.run(small_images[0]).mean_success_rate
        assert (
            means[RecoveryStrategy.FILTER_AND_RANK]
            >= means[RecoveryStrategy.FILTER_ONLY]
            >= means[RecoveryStrategy.RANDOM_CANDIDATE]
        )

    def test_random_strategy_matches_reciprocal_candidates(
        self, code, small_images, subset_patterns
    ):
        sweep = DueSweep(
            code, RecoveryStrategy.RANDOM_CANDIDATE, 5, patterns=subset_patterns
        )
        result = sweep.run(small_images[0])
        for outcome in result.outcomes:
            assert outcome.success_rate == pytest.approx(
                1.0 / outcome.mean_candidates, rel=0.25
            )

    def test_run_many(self, code, small_images, subset_patterns):
        sweep = DueSweep(code, num_instructions=5, patterns=subset_patterns)
        results = sweep.run_many(small_images)
        assert [r.benchmark for r in results] == ["bzip2", "mcf"]

    def test_validation(self, code, subset_patterns):
        with pytest.raises(AnalysisError):
            DueSweep(code, num_instructions=0)
        sweep = DueSweep(code, num_instructions=5, patterns=subset_patterns)
        with pytest.raises(AnalysisError):
            sweep.run_many([])

    def test_pattern_width_checked(self, code):
        from repro.ecc.channel import pattern_from_positions

        with pytest.raises(AnalysisError):
            DueSweep(code, patterns=[pattern_from_positions((0, 1), 45)])

    def test_window_clamped_to_image(self, code, subset_patterns):
        image = synthesize_benchmark("mcf", length=64)
        sweep = DueSweep(code, num_instructions=1000, patterns=subset_patterns)
        assert sweep.run(image).num_instructions == 64


class TestFigureDrivers:
    def test_fig4_matches_paper(self, code):
        result = run_fig4(code)
        assert result.profile.num_patterns == 741
        assert result.profile.minimum == 8
        assert result.profile.maximum == 15
        assert "Fig. 4" in result.render()

    def test_fig5_filtering_reduces_candidates(self, code):
        image = synthesize_benchmark("mcf", length=128)
        result = run_fig5(code, image, num_instructions=6)
        assert result.candidates_message_independent
        assert result.mean_valid < result.mean_candidates
        assert 0.0 <= result.single_valid_fraction <= 1.0
        assert "mcf" in result.render()

    def test_fig5_matrices_match_per_word_oracle_recoveries(self, code):
        """Fig. 5 runs the sweep kernel; its counts equal recovering
        each corrupted word alone with the uncached engine."""
        # An all-ones data word is no legal instruction, so some of its
        # patterns leave no legal candidate and the filter falls back.
        mcf = synthesize_benchmark("mcf", length=128)
        image = ProgramImage.from_words("mcf", mcf.words[:5] + (0xFFFFFFFF,))
        window = len(image)
        result = run_fig5(code, image, num_instructions=window)
        oracle = DueSweep(
            code, RecoveryStrategy.FILTER_ONLY, window, cache=False
        ).engine
        context = RecoveryContext.for_instructions(
            FrequencyTable.from_image(image)
        )
        candidates, valid = [], []
        for pattern in double_bit_patterns(code.n):
            results = [
                oracle.recover(pattern.apply(code.encode(word)), context)
                for word in image.words[:window]
            ]
            candidates.append(tuple(r.num_candidates for r in results))
            valid.append(tuple(
                0 if r.filter_fell_back else r.num_valid for r in results
            ))
        assert result.candidate_matrix == tuple(candidates)
        assert result.valid_matrix == tuple(valid)
        assert any(0 in row for row in valid)  # fallbacks are covered

    def test_fig6_strategies_ordered(self, code):
        image = synthesize_benchmark("bzip2", length=128)
        result = run_fig6(code, image, num_instructions=6)
        assert len(result.random_rates) == 741
        from repro.analysis.metrics import arithmetic_mean

        assert arithmetic_mean(result.filter_rates) >= arithmetic_mean(
            result.random_rates
        )
        # Best case dominates the average case pointwise (allowing for
        # float summation noise when all instructions tie).
        assert all(
            best >= avg - 1e-9
            for best, avg in zip(result.filter_best_rates, result.filter_rates)
        )
        assert "Fig. 6" in result.render()

    def test_fig7_power_law_and_lw(self, small_images):
        result = run_fig7(small_images)
        for name, (alpha, _) in result.fits.items():
            assert alpha < -0.8, name
        for name, lw in result.lw_frequencies().items():
            assert 0.1 <= lw <= 0.35, name
        assert "Fig. 7" in result.render()

    def test_fig8_shape(self, code, small_images):
        result = run_fig8(code, small_images, num_instructions=8)
        assert 0.1 <= result.overall_mean <= 0.6
        regions = result.region_summary()
        # The paper's qualitative ordering: decode fields recover far
        # better than operand fields.
        assert (
            regions[BitRegion.DECODE_FIELDS]
            > 2 * regions[BitRegion.OPERAND_FIELDS]
        )
        curve = result.mean_curve()
        assert len(curve) == 741
        assert max(curve) > 0.8  # near-certain recovery exists (99% claim)
        assert "Fig. 8" in result.render()

    def test_isa_legality_counts(self):
        result = run_isa_legality()
        assert (result.legal_opcodes, result.legal_functs, result.legal_fmts) == (
            41, 37, 3,
        )
        assert "41" in result.render()

    def test_code_properties(self, code):
        result = run_code_properties(code)
        assert result.distance_at_least_4
        assert not result.distance_at_least_5
        assert result.profile.mean == pytest.approx(12.0, abs=0.5)
        assert "(39,32)" in result.render()


class TestFig5Rendering:
    def test_render_includes_bucketed_heatmap(self, code):
        image = synthesize_benchmark("mcf", length=128)
        result = run_fig5(code, image, num_instructions=4)
        text = result.render()
        assert "valid messages, pattern (rows, bucketed)" in text
        assert "light=" in text  # the heatmap legend rendered

    def test_bucketing_preserves_column_count(self, code):
        image = synthesize_benchmark("mcf", length=128)
        result = run_fig5(code, image, num_instructions=4)
        grid = result._bucketed_valid(rows=10)
        assert all(len(row) == 4 for row in grid)
        assert len(grid) <= 11
