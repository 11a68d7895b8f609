"""Golden Fig. 8: the paper-scale sweep's recovery rates, pinned exactly.

The full evaluation of Sec. IV-A — five images of 4,096 words (seed
2016), the first 100 instructions of each, all 741 double-bit patterns
— under each of the three strategies.  Every rate is an exact
probability (ties are averaged, not sampled), so the outputs are fixed
numbers: any change to enumeration, filtering, ranking, tie handling
or the images moves them.  Beside the means, a sha256 pins every
per-pattern outcome bit for bit, and the filter-and-rank sweep's
``swdecc.*`` and ``ops.*`` totals are pinned too.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.experiments import default_code, default_images, run_fig8
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.obs import metrics as obs_metrics

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

#: sha256 over ``repr((index, success_rate, mean_candidates,
#: mean_valid))`` of every outcome, images in paper order.
OUTCOME_SHA256 = {
    RecoveryStrategy.FILTER_AND_RANK:
        "e91d4175542a254e45b171f45cb3389bdd2d53b418ad5b6d1d211f3b20197be1",
    RecoveryStrategy.FILTER_ONLY:
        "529bf5599be1f98ae5830bf6dabd70a5df00955500509954f5a4f3e5239e74ac",
    RecoveryStrategy.RANDOM_CANDIDATE:
        "b2c4a312b74164bc4a665088f8aa74afc0db40b1543ef7ced9096508ba79d744",
}

#: The filter-and-rank sweep's counters (5 x 741 x 100 words).
FIG8_COUNTERS = {
    "ops.and": 0,
    "ops.candidate_enumerations": 370_500,
    "ops.filter_evals": 4_459_500,
    "ops.ranker_evals": 3_934_284,
    "ops.syndrome_computes": 0,
    "ops.xor": 4_459_500,
    "swdecc.filter_fallbacks": 0,
    "swdecc.radius_escalations": 0,
    "swdecc.recoveries": 370_500,
    "swdecc.tie_breaks": 180_701,
}
#: Its histograms: count, sum, min, max and the non-empty buckets
#: (upper bound -> count).
FIG8_HISTOGRAMS = {
    "swdecc.candidates": (
        370_500, 4_459_500, 8, 15, {8: 12_000, 12: 212_500, 16: 146_000},
    ),
    "swdecc.valid_messages": (
        370_500, 3_934_284, 1, 15,
        {1: 6_506, 2: 5_873, 4: 9_487, 8: 33_840, 12: 216_620, 16: 98_174},
    ),
}


@pytest.fixture(scope="module")
def paper_images():
    return default_images(length=4096, seed=2016)


def _outcome_sha256(sweeps) -> str:
    digest = hashlib.sha256()
    for sweep in sweeps:
        for outcome in sweep.outcomes:
            digest.update(repr((
                outcome.index,
                outcome.success_rate,
                outcome.mean_candidates,
                outcome.mean_valid,
            )).encode())
    return digest.hexdigest()


def test_fig8_filter_and_rank_golden(paper_images):
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        result = run_fig8(
            default_code(), paper_images, num_instructions=100, jobs=1
        )
    finally:
        obs_metrics.set_registry(previous)
    assert [len(sweep.outcomes) for sweep in result.sweeps] == [741] * 5
    assert result.overall_mean == pytest.approx(FIG8_MEAN, rel=0, abs=TOLERANCE)
    means = {sweep.benchmark: sweep.mean_success_rate for sweep in result.sweeps}
    assert means.keys() == FIG8_IMAGE_MEANS.keys()
    for name, expected in FIG8_IMAGE_MEANS.items():
        assert means[name] == pytest.approx(expected, rel=0, abs=TOLERANCE), name
    assert _outcome_sha256(result.sweeps) == (
        OUTCOME_SHA256[RecoveryStrategy.FILTER_AND_RANK]
    )

    snapshot = {
        name: data
        for name, data in registry.as_dict().items()
        if name.startswith(("swdecc.", "ops."))
    }
    assert snapshot.keys() == FIG8_COUNTERS.keys() | FIG8_HISTOGRAMS.keys()
    for name, expected in FIG8_COUNTERS.items():
        assert snapshot[name]["value"] == expected, name
    for name, (count, total, low, high, buckets) in FIG8_HISTOGRAMS.items():
        data = snapshot[name]
        assert (data["count"], data["sum"], data["min"], data["max"]) == (
            count, total, low, high,
        ), name
        assert {
            bucket["le"]: bucket["count"]
            for bucket in data["buckets"]
            if bucket["count"]
        } == buckets, name


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
    assert _outcome_sha256(results) == OUTCOME_SHA256[strategy]
