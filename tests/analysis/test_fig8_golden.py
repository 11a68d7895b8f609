"""Golden Fig. 8: the paper-scale sweep's recovery rates, pinned exactly.

The full evaluation of Sec. IV-A — five images of 4,096 words (seed
2016), the first 100 instructions of each, all 741 double-bit patterns
— under each of the three strategies.  Every rate is an exact
probability (ties are averaged, not sampled), so the means are fixed
numbers: any change to enumeration, filtering, ranking, tie handling
or the images moves them.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import default_code, default_images, run_fig8
from repro.analysis.sweep import DueSweep, RecoveryStrategy

TOLERANCE = 1e-12

FIG8_MEAN = 0.2945341322644969
FIG8_IMAGE_MEANS = {
    "bzip2": 0.3150452589845299,
    "h264ref": 0.2978345275582107,
    "mcf": 0.28872217791954796,
    "perlbench": 0.27327203382162973,
    "povray": 0.29779666303856617,
}
FILTER_ONLY_MEAN = 0.12070889813440419
RANDOM_CANDIDATE_MEAN = 0.0850202429149805


@pytest.fixture(scope="module")
def paper_images():
    return default_images(length=4096, seed=2016)


def test_fig8_filter_and_rank_golden(paper_images):
    result = run_fig8(default_code(), paper_images, num_instructions=100, jobs=1)
    assert [len(sweep.outcomes) for sweep in result.sweeps] == [741] * 5
    assert result.overall_mean == pytest.approx(FIG8_MEAN, rel=0, abs=TOLERANCE)
    means = {sweep.benchmark: sweep.mean_success_rate for sweep in result.sweeps}
    assert means.keys() == FIG8_IMAGE_MEANS.keys()
    for name, expected in FIG8_IMAGE_MEANS.items():
        assert means[name] == pytest.approx(expected, rel=0, abs=TOLERANCE), name


@pytest.mark.parametrize(
    "strategy, expected",
    [
        (RecoveryStrategy.FILTER_ONLY, FILTER_ONLY_MEAN),
        (RecoveryStrategy.RANDOM_CANDIDATE, RANDOM_CANDIDATE_MEAN),
    ],
)
def test_baseline_strategies_golden(paper_images, strategy, expected):
    sweep = DueSweep(default_code(), strategy, num_instructions=100)
    results = sweep.run_many(paper_images, jobs=1)
    mean = sum(result.mean_success_rate for result in results) / len(results)
    assert mean == pytest.approx(expected, rel=0, abs=TOLERANCE)
