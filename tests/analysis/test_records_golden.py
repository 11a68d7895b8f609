"""Golden MBU study and Pareto points, at the parameters their records use.

``BENCH_sweep.json`` records ``repro resilience --mbu --trials 3
--epochs 24 --seed 0`` and ``BENCH_energy.json`` records ``repro
pareto --benchmark mcf --instructions 25 --length 2048 --seed 2016``.
Both studies are deterministic apart from wall time, so every other
number they print is pinned here.  The MBU study recovers its DUEs
through ``SwdEcc.recover()``'s table path and prices each fault from
``op_counts`` deltas, so a change to what a table-served word charges
moves its joules; the Pareto points come from the sweep kernel.

Pareto frontier membership is pinned over the (recovery rate, joules)
plane, the only frontier ``pareto_front`` takes.
A change that moves a pinned number updates it here, regenerates the
record with the command's ``--record``, and says why.
"""

from __future__ import annotations

import pytest

from repro.analysis.mbu import MbuConfig, mbu_study
from repro.analysis.pareto import pareto_front, sweep_pareto

REL = 1e-12

#: ``repro resilience --mbu --trials 3 --epochs 24 --seed 0``.
MBU_STUDY = {
    "adjacent-bursts": {
        "adaptive": {
            "joules_per_fault": 2.1874992726270146e-06,
            "mean_heuristic_correct": 10.333333333333334,
            "mean_hw_corrected": 20.666666666666668,
            "mean_regions_upgraded": 4.0,
            "mean_silent_corruptions": 33.333333333333336,
            "mean_switches": 4.0,
            "recovery_rate": 0.48147730405794925,
        },
        "static-daec-41-32": {
            "joules_per_fault": 9.57888789534691e-07,
            "mean_heuristic_correct": 0.0,
            "mean_hw_corrected": 52.666666666666664,
            "mean_regions_upgraded": 4.0,
            "mean_silent_corruptions": 11.666666666666666,
            "mean_switches": 0.0,
            "recovery_rate": 0.8174366616989568,
        },
        "static-secded-39-32": {
            "joules_per_fault": 2.5756143770429064e-06,
            "mean_heuristic_correct": 17.333333333333332,
            "mean_hw_corrected": 0.3333333333333333,
            "mean_regions_upgraded": 0.0,
            "mean_silent_corruptions": 46.666666666666664,
            "mean_switches": 0.0,
            "recovery_rate": 0.2761012089614977,
        },
    },
    "mixed": {
        "adaptive": {
            "joules_per_fault": 2.4220914087570804e-06,
            "mean_heuristic_correct": 17.666666666666668,
            "mean_hw_corrected": 5.0,
            "mean_regions_upgraded": 2.3333333333333335,
            "mean_silent_corruptions": 45.0,
            "mean_switches": 2.3333333333333335,
            "recovery_rate": 0.33685684133445326,
        },
        "static-daec-41-32": {
            "joules_per_fault": 1.0596883541295307e-06,
            "mean_heuristic_correct": 21.333333333333332,
            "mean_hw_corrected": 26.333333333333332,
            "mean_regions_upgraded": 4.0,
            "mean_silent_corruptions": 19.666666666666668,
            "mean_switches": 0.0,
            "recovery_rate": 0.7081105169340463,
        },
        "static-secded-39-32": {
            "joules_per_fault": 2.4779792297979798e-06,
            "mean_heuristic_correct": 17.0,
            "mean_hw_corrected": 0.3333333333333333,
            "mean_regions_upgraded": 0.0,
            "mean_silent_corruptions": 48.666666666666664,
            "mean_switches": 0.0,
            "recovery_rate": 0.2635546642899584,
        },
    },
    "random-doubles": {
        "adaptive": {
            "joules_per_fault": 1.3373984159787146e-06,
            "mean_heuristic_correct": 17.0,
            "mean_hw_corrected": 0.0,
            "mean_regions_upgraded": 0.0,
            "mean_silent_corruptions": 48.0,
            "mean_switches": 0.0,
            "recovery_rate": 0.2617231303798468,
        },
        "static-daec-41-32": {
            "joules_per_fault": 9.30071393034826e-07,
            "mean_heuristic_correct": 44.666666666666664,
            "mean_hw_corrected": 0.0,
            "mean_regions_upgraded": 4.0,
            "mean_silent_corruptions": 20.333333333333332,
            "mean_switches": 0.0,
            "recovery_rate": 0.687422263681592,
        },
        "static-secded-39-32": {
            "joules_per_fault": 1.3293984159787146e-06,
            "mean_heuristic_correct": 17.0,
            "mean_hw_corrected": 0.0,
            "mean_regions_upgraded": 0.0,
            "mean_silent_corruptions": 48.0,
            "mean_switches": 0.0,
            "recovery_rate": 0.2617231303798468,
        },
    },
}


def _ops(xor, filter_evals, ranker_evals):
    return {
        "ops.and": 0,
        "ops.candidate_enumerations": 18525,
        "ops.filter_evals": filter_evals,
        "ops.ranker_evals": ranker_evals,
        "ops.syndrome_computes": 0,
        "ops.xor": xor,
    }


#: ``repro pareto --benchmark mcf --instructions 25 --length 2048
#: --seed 2016``: (code, strategy) -> (recovery rate, op deltas,
#: joules, joules per recovery, on the rate/joules frontier).  Every
#: point measures 18,525 recoveries (741 patterns x 25 words).
PARETO_POINTS = {
    ("secded-39-32", "random-candidate"): (
        0.08502024291498052, _ops(222975, 0, 222975),
        0.00547764, 2.9568906882591094e-07, True,
    ),
    ("secded-39-32", "filter-only"): (
        0.12011958516816805, _ops(222975, 222975, 197067),
        0.010207247999999999, 5.509985425101214e-07, False,
    ),
    ("secded-39-32", "filter-and-rank"): (
        0.2985155195681538, _ops(222975, 222975, 197067),
        0.010207247999999999, 5.509985425101214e-07, True,
    ),
    ("hsiao-39-32", "random-candidate"): (
        0.08502024291498052, _ops(222975, 0, 222975),
        0.00547764, 2.9568906882591094e-07, True,
    ),
    ("hsiao-39-32", "filter-only"): (
        0.12011958516816805, _ops(222975, 222975, 197067),
        0.010207247999999999, 5.509985425101214e-07, False,
    ),
    ("hsiao-39-32", "filter-and-rank"): (
        0.2985155195681538, _ops(222975, 222975, 197067),
        0.010207247999999999, 5.509985425101214e-07, True,
    ),
    ("ext-hamming-39-32", "random-candidate"): (
        0.08502024291498046, _ops(255975, 0, 255975),
        0.0062828400000000005, 3.391546558704454e-07, False,
    ),
    ("ext-hamming-39-32", "filter-only"): (
        0.11349632153888205, _ops(255975, 255975, 226137),
        0.011710128, 6.321256680161943e-07, False,
    ),
    ("ext-hamming-39-32", "filter-and-rank"): (
        0.30008097165991765, _ops(255975, 255975, 226137),
        0.011710128, 6.321256680161943e-07, True,
    ),
}


def test_mbu_study_matches_its_record():
    study = mbu_study(trials=3, base_config=MbuConfig(epochs=24, seed=0))
    assert study.keys() == MBU_STUDY.keys()
    for profile, arms in MBU_STUDY.items():
        assert study[profile].keys() == arms.keys(), profile
        for arm, fields in arms.items():
            assert study[profile][arm] == pytest.approx(fields, rel=REL), (
                profile, arm,
            )


def test_pareto_points_match_their_record():
    points = sweep_pareto(
        benchmark="mcf", num_instructions=25, length=2048, seed=2016
    )
    frontier = {
        (point.code, point.strategy)
        for point in pareto_front(points)
    }
    measured = {(point.code, point.strategy): point for point in points}
    assert measured.keys() == PARETO_POINTS.keys()
    for key, pinned in PARETO_POINTS.items():
        rate, ops, joules, per_recovery, on_frontier = pinned
        point = measured[key]
        assert point.recoveries == 18525, key
        assert dict(point.ops) == ops, key
        assert point.recovery_rate == pytest.approx(rate, rel=REL), key
        assert point.joules == pytest.approx(joules, rel=REL), key
        assert point.joules_per_recovery == pytest.approx(
            per_recovery, rel=REL
        ), key
        assert (key in frontier) == on_frontier, key
