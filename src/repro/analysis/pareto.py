"""Recovery-rate vs. energy vs. latency Pareto frontiers.

SWD-ECC trades software work for DUE recovery; this module prices that
trade.  For each (code, strategy) combination it runs the exhaustive
2-bit-DUE sweep of :class:`~repro.analysis.sweep.DueSweep`, reads the
op-level counters the decode hot paths maintain (see
:mod:`repro.obs.energy`), and reduces each combination to one
:class:`ParetoPoint`: mean recovery rate, modeled joules per recovery,
and wall seconds per recovery.  :func:`pareto_front` then extracts the
non-dominated set — the only configurations worth deploying.

Counter deltas are measured around the sweep in the process registry;
``DueSweep.run(jobs > 1)`` folds worker-process snapshots back into the
parent, so the deltas are correct for parallel sweeps too.

The default code list is the three SECDED-family (39, 32) constructions
the repo ships — double-bit errors must still be *DUEs* for a recovery
sweep to make sense, which rules the DEC/DECTED codes out of the
default comparison (their 2-bit patterns are plain CEs).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.records import append_record
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.ecc import (
    canonical_secded_39_32,
    extended_hamming_secded,
    hsiao_39_32,
)
from repro.ecc.code import LinearBlockCode
from repro.errors import AnalysisError
from repro.obs import energy as obs_energy
from repro.obs import metrics as obs_metrics
from repro.program.image import ProgramImage
from repro.program.synth import synthesize_benchmark

__all__ = [
    "PARETO_CODES",
    "ParetoPoint",
    "sweep_pareto",
    "pareto_front",
    "append_energy_record",
]

#: Code factories compared by default: the SECDED-family (39, 32)
#: constructions, under which every double-bit pattern is a DUE.
PARETO_CODES: dict[str, Callable[[], LinearBlockCode]] = {
    "secded-39-32": canonical_secded_39_32,
    "hsiao-39-32": hsiao_39_32,
    "ext-hamming-39-32": lambda: extended_hamming_secded(32),
}


@dataclass(frozen=True)
class ParetoPoint:
    """One (code, strategy) combination reduced to its trade-off axes.

    Attributes
    ----------
    code / strategy:
        The combination's identifiers.
    recovery_rate:
        Mean exact recovery probability over all patterns and words.
    joules_per_recovery:
        Modeled energy per heuristic recovery during the sweep.
    seconds_per_recovery:
        Wall time per recovery (includes sweep bookkeeping; comparable
        across combinations measured by the same call).
    recoveries:
        Recoveries measured (the delta of ``swdecc.recoveries``).
    joules:
        Total modeled energy of the combination's sweep.
    ops:
        Op-counter deltas attributed to the sweep.
    """

    code: str
    strategy: str
    recovery_rate: float
    joules_per_recovery: float
    seconds_per_recovery: float
    recoveries: int
    joules: float
    ops: Mapping[str, int | float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "code": self.code,
            "strategy": self.strategy,
            "recovery_rate": self.recovery_rate,
            "joules_per_recovery": self.joules_per_recovery,
            "seconds_per_recovery": self.seconds_per_recovery,
            "recoveries": self.recoveries,
            "joules": self.joules,
            "ops": dict(self.ops),
        }


def sweep_pareto(
    codes: Mapping[str, Callable[[], LinearBlockCode]] | None = None,
    strategies: Sequence[RecoveryStrategy] | None = None,
    benchmark: str = "mcf",
    num_instructions: int = 25,
    length: int = 2048,
    seed: int = 2016,
    jobs: int = 1,
    image: ProgramImage | None = None,
    on_point: Callable[[ParetoPoint], None] | None = None,
) -> list[ParetoPoint]:
    """Measure every (code, strategy) combination with one sweep each.

    *codes* maps display ids to code factories (default:
    :data:`PARETO_CODES`); *strategies* defaults to all three paper
    strategies.  Supplying *image* skips benchmark synthesis (tests
    pass a tiny image); *on_point* is called after each combination
    (the CLI uses it for progress lines).
    """
    codes = dict(codes) if codes is not None else dict(PARETO_CODES)
    if not codes:
        raise AnalysisError("no codes supplied to sweep_pareto")
    strategies = (
        tuple(strategies) if strategies is not None
        else tuple(RecoveryStrategy)
    )
    if not strategies:
        raise AnalysisError("no strategies supplied to sweep_pareto")
    if image is None:
        image = synthesize_benchmark(benchmark, length=length, seed=seed)
    registry = obs_metrics.get_registry()
    model = obs_energy.get_energy_model()
    points: list[ParetoPoint] = []
    for code_id, factory in codes.items():
        code = factory()
        for strategy in strategies:
            sweep = DueSweep(code, strategy, num_instructions)
            ops_before = obs_energy.op_counts(registry, model)
            recoveries_before = registry.counter("swdecc.recoveries").value
            started = time.perf_counter()
            result = sweep.run(image, jobs=jobs)
            elapsed = time.perf_counter() - started
            ops_after = obs_energy.op_counts(registry, model)
            recoveries = int(
                registry.counter("swdecc.recoveries").value
                - recoveries_before
            )
            deltas = {
                name: ops_after[name] - ops_before[name]
                for name in ops_after
            }
            joules = model.joules(deltas)
            point = ParetoPoint(
                code=code_id,
                strategy=strategy.value,
                recovery_rate=result.mean_success_rate,
                joules_per_recovery=joules / recoveries if recoveries else 0.0,
                seconds_per_recovery=(
                    elapsed / recoveries if recoveries else 0.0
                ),
                recoveries=recoveries,
                joules=joules,
                ops=deltas,
            )
            points.append(point)
            if on_point is not None:
                on_point(point)
    return points


def _dominates(
    a: ParetoPoint, b: ParetoPoint, include_latency: bool
) -> bool:
    """True when *a* is at least as good as *b* on every axis and
    strictly better on one (rate up; joules and latency down)."""
    at_least = (
        a.recovery_rate >= b.recovery_rate
        and a.joules_per_recovery <= b.joules_per_recovery
        and (
            not include_latency
            or a.seconds_per_recovery <= b.seconds_per_recovery
        )
    )
    strictly = (
        a.recovery_rate > b.recovery_rate
        or a.joules_per_recovery < b.joules_per_recovery
        or (
            include_latency
            and a.seconds_per_recovery < b.seconds_per_recovery
        )
    )
    return at_least and strictly


def pareto_front(
    points: Sequence[ParetoPoint], include_latency: bool = True
) -> list[ParetoPoint]:
    """The non-dominated subset of *points*, sorted by energy.

    With ``include_latency=False`` the frontier is taken over the
    (recovery rate, joules) plane only — sorted by joules ascending,
    its recovery rates are strictly increasing, which is the invariant
    the CI smoke check asserts (the 3-D frontier has no such 2-D
    monotonicity).
    """
    frontier = [
        point
        for point in points
        if not any(
            _dominates(other, point, include_latency)
            for other in points
            if other is not point
        )
    ]
    return sorted(
        frontier,
        key=lambda p: (p.joules_per_recovery, -p.recovery_rate, p.code),
    )


def append_energy_record(
    path: str | Path,
    points: Sequence[ParetoPoint],
    timestamp: str,
    meta: Mapping[str, object] | None = None,
) -> int:
    """Append one energy-frontier record to the JSON list at *path*.

    The record carries its configuration (*meta*) next to the measured
    points plus their 2-D frontier membership; the file is read and
    written by :func:`repro.analysis.records.append_record`.  Returns
    the new record count.
    """
    frontier = pareto_front(points, include_latency=False)
    frontier_keys = {(p.code, p.strategy) for p in frontier}
    record = {
        "timestamp": timestamp,
        "energy_model": obs_energy.get_energy_model().describe(),
        "points": [
            {
                **point.as_dict(),
                "on_frontier": (point.code, point.strategy)
                in frontier_keys,
            }
            for point in points
        ],
    }
    if meta:
        record.update(dict(meta))
    return append_record(path, record)
