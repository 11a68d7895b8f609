"""Pareto frontier mechanics, decoupled from real sweeps.

The end-to-end measurement path (real DueSweep, real counters) is
exercised by ``scripts/pareto_smoke.py`` in CI; these tests pin the
dominance logic and the bench-record format on synthetic points, where
every edge (ties, timing-only differences, corrupt history files) is
cheap to construct.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.pareto import (
    PARETO_CODES,
    ParetoPoint,
    append_energy_record,
    pareto_front,
    sweep_pareto,
)
from repro.errors import AnalysisError


def _point(code, rate, joules, seconds=1.0):
    return ParetoPoint(
        code=code,
        strategy="filter-and-rank",
        recovery_rate=rate,
        joules_per_recovery=joules,
        seconds_per_recovery=seconds,
        recoveries=100,
        joules=joules * 100,
        ops={"ops.xor": 1},
    )


class TestParetoFront:
    def test_dominated_point_is_dropped(self):
        cheap_good = _point("a", rate=0.9, joules=1.0)
        pricey_bad = _point("b", rate=0.5, joules=2.0)
        front = pareto_front([cheap_good, pricey_bad])
        assert front == [cheap_good]

    def test_trade_off_points_all_survive_sorted_by_energy(self):
        cheap_weak = _point("a", rate=0.2, joules=1.0)
        pricey_strong = _point("b", rate=0.9, joules=3.0)
        front = pareto_front([pricey_strong, cheap_weak])
        assert front == [cheap_weak, pricey_strong]

    def test_latency_never_decides_membership(self):
        slow_strong = _point("a", rate=0.9, joules=1.0, seconds=9.0)
        fast_equal = _point("b", rate=0.9, joules=1.0, seconds=1.0)
        # Coincident on the (rate, joules) plane: both non-dominated.
        both = pareto_front([slow_strong, fast_equal])
        assert set(p.code for p in both) == {"a", "b"}

    def test_identical_points_are_both_kept(self):
        twin_a = _point("a", rate=0.5, joules=1.0)
        twin_b = _point("b", rate=0.5, joules=1.0)
        assert len(pareto_front([twin_a, twin_b])) == 2

    def test_single_point_is_its_own_frontier(self):
        only = _point("a", rate=0.1, joules=5.0)
        assert pareto_front([only]) == [only]


class TestSweepParetoValidation:
    def test_empty_codes_rejected(self):
        with pytest.raises(AnalysisError):
            sweep_pareto(codes={})

    def test_empty_strategies_rejected(self):
        with pytest.raises(AnalysisError):
            sweep_pareto(strategies=())

    def test_default_code_set_is_secded_family(self):
        assert len(PARETO_CODES) >= 3
        for factory in PARETO_CODES.values():
            code = factory()
            assert (code.n, code.k) == (39, 32)


class TestEnergyRecord:
    def test_appends_and_marks_frontier(self, tmp_path):
        path = tmp_path / "BENCH_energy.json"
        points = [
            _point("a", rate=0.9, joules=1.0),
            _point("b", rate=0.5, joules=2.0),  # dominated
        ]
        depth = append_energy_record(path, points, "2026-01-01T00:00:00")
        assert depth == 1
        (record,) = json.loads(path.read_text())
        assert record["timestamp"] == "2026-01-01T00:00:00"
        flags = {p["code"]: p["on_frontier"] for p in record["points"]}
        assert flags == {"a": True, "b": False}
        assert "dollars_per_kwh=" in record["energy_model"]

    def test_survives_corrupt_history(self, tmp_path):
        path = tmp_path / "BENCH_energy.json"
        path.write_text("{not json")
        depth = append_energy_record(
            path, [_point("a", 0.5, 1.0)], "2026-01-01T00:00:00"
        )
        assert depth == 1
        assert len(json.loads(path.read_text())) == 1

    def test_history_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_energy.json"
        append_energy_record(path, [_point("a", 0.5, 1.0)], "t1")
        depth = append_energy_record(path, [_point("a", 0.6, 1.1)], "t2")
        assert depth == 2
        history = json.loads(path.read_text())
        assert [record["timestamp"] for record in history] == ["t1", "t2"]
