#!/usr/bin/env python3
"""CI smoke test: energy accounting end to end, small but real.

Runs a tiny Pareto sweep (2 codes x 2 strategies), then asserts:

- every combination actually measured work: positive op deltas,
  recoveries, and modeled joules;
- the 2-D (recovery rate, joules/recovery) frontier is monotone:
  sorted by energy ascending, recovery rates strictly increase —
  a dominated point sneaking onto the frontier breaks this loudly;
- the derived energy/cost gauges are live on ``/metrics`` and the
  exposition parses with the strict round-trip parser
  (:func:`repro.obs.promtext.parse_exposition`), including the
  ``energy_joules_per_recovery`` and
  ``cost_dollars_per_million_requests`` families;
- ``energy_joules_per_recovery`` agrees with total-joules /
  total-recoveries from the raw counters;
- the record appends cleanly to a ``BENCH_energy.json``-style file.

Exits nonzero (with a message) on any violation, so CI fails loudly.
Run from the repository root: ``PYTHONPATH=src python scripts/pareto_smoke.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import urllib.request
from pathlib import Path

from repro.analysis.pareto import (
    PARETO_CODES,
    append_energy_record,
    pareto_front,
    sweep_pareto,
)
from repro.analysis.sweep import RecoveryStrategy
from repro.obs import energy as obs_energy
from repro.obs import metrics as obs_metrics
from repro.obs import promtext
from repro.obs.server import ObsServer
from repro.program import synthesize_benchmark

CODES = {
    name: PARETO_CODES[name] for name in ("secded-39-32", "hsiao-39-32")
}
STRATEGIES = (
    RecoveryStrategy.RANDOM_CANDIDATE,
    RecoveryStrategy.FILTER_AND_RANK,
)
WINDOW = 3
IMAGE_LENGTH = 256


def main() -> int:
    failures: list[str] = []
    image = synthesize_benchmark("mcf", length=IMAGE_LENGTH)
    points = sweep_pareto(
        codes=CODES, strategies=STRATEGIES, image=image,
        num_instructions=WINDOW,
    )

    if len(points) != len(CODES) * len(STRATEGIES):
        failures.append(
            f"expected {len(CODES) * len(STRATEGIES)} points, "
            f"got {len(points)}"
        )
    for point in points:
        if point.recoveries <= 0:
            failures.append(f"{point.code}/{point.strategy}: no recoveries")
        if point.joules <= 0 or point.joules_per_recovery <= 0:
            failures.append(
                f"{point.code}/{point.strategy}: no modeled energy "
                f"(joules={point.joules})"
            )
        if not any(delta > 0 for delta in point.ops.values()):
            failures.append(
                f"{point.code}/{point.strategy}: all op deltas zero"
            )

    # 2-D frontier monotonicity: by construction of non-dominance,
    # strictly cheaper frontier points must recover strictly less, and
    # coincident-energy points must tie on rate (else one dominates).
    frontier = pareto_front(points)
    if not frontier:
        failures.append("empty Pareto frontier")
    rates = [point.recovery_rate for point in frontier]
    joules = [point.joules_per_recovery for point in frontier]
    if joules != sorted(joules):
        failures.append(f"frontier not sorted by energy: {joules}")
    for (ja, ra), (jb, rb) in zip(
        zip(joules, rates), zip(joules[1:], rates[1:])
    ):
        if (ja < jb and ra >= rb) or (ja == jb and ra != rb):
            failures.append(
                "frontier not monotone: "
                f"({ja}, {ra}) then ({jb}, {rb})"
            )

    # Derived gauges live on /metrics, strict-parser valid.
    with ObsServer(port=0) as server:
        with urllib.request.urlopen(
            server.url + "/metrics", timeout=5
        ) as response:
            families = promtext.parse_exposition(
                response.read().decode("utf-8")
            )
    for family in (
        "energy_joules_total",
        "energy_joules_per_recovery",
        "cost_dollars_per_million_requests",
        "carbon_grams_co2_total",
    ):
        if family not in families:
            failures.append(f"/metrics is missing the {family} family")
    if "energy_joules_per_recovery" in families:
        served = families["energy_joules_per_recovery"].sample_value()
        registry = obs_metrics.get_registry()
        model = obs_energy.get_energy_model()
        expected = model.joules(obs_energy.op_counts(registry, model)) / (
            registry.counter("swdecc.recoveries").value
        )
        if abs(served - expected) > 1e-12 + 1e-6 * expected:
            failures.append(
                f"energy_joules_per_recovery {served} != "
                f"recomputed {expected}"
            )

    # Trajectory record round-trips.
    with tempfile.TemporaryDirectory() as tmp:
        bench_path = Path(tmp) / "BENCH_energy.json"
        depth = append_energy_record(
            bench_path, points, "1970-01-01T00:00:00+00:00"
        )
        history = json.loads(bench_path.read_text())
        if depth != 1 or len(history) != 1:
            failures.append(f"bench record depth {depth}/{len(history)}")
        recorded = history[0]["points"]
        if len(recorded) != len(points):
            failures.append("bench record dropped points")
        if not any(entry["on_frontier"] for entry in recorded):
            failures.append("bench record marked no frontier points")

    print(
        f"pareto smoke: {len(points)} points, "
        f"frontier {[(p.code, p.strategy) for p in frontier]}, "
        f"rates {rates[:1]} -> {rates[-1:]}"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("pareto smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
