"""Energy & cost accounting derived from op-level counters.

The decode hot paths count their abstract work — GF(2) XOR/AND word
operations, syndrome computations, candidate enumerations, and
filter/ranker evaluations — as plain ``ops.*`` counters (see
:mod:`repro.ecc.code`, :mod:`repro.ecc.candidates`, and
:mod:`repro.core.swdecc`).  This module converts those counts into the
figures operators actually compare deployments by:

- ``energy.joules_total`` — modeled energy of all counted ops,
- ``energy.joules_per_recovery`` — energy per heuristic recovery,
- ``cost.dollars_per_million_requests`` — electricity cost per million
  recoveries at the configured $/kWh,
- ``carbon.grams_co2_total`` — CO2-equivalent at the configured
  regional carbon intensity,
- ``energy.model`` — an info metric carrying the model configuration.

All four are *derived at snapshot time* by a registry collector (the
same idiom as the cache-hit-rate gauges): hot paths pay only the
counter increments, and every ``/metrics`` scrape sees fresh figures.

The per-op joule constants are a deliberately simple software cost
model (order-of-magnitude CPU energy per counted operation class, in
the spirit of the XOR/AND-count energy models used by sustainability
benchmarks), and everything is pluggable: construct an
:class:`EnergyModel` with your own constants, region carbon intensity
(g CO2/kWh), and electricity price, then :func:`set_energy_model` it —
or set ``REPRO_CARBON_G_PER_KWH`` / ``REPRO_DOLLARS_PER_KWH`` in the
environment before the process starts.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs import metrics as obs_metrics

__all__ = [
    "DEFAULT_JOULES_PER_OP",
    "EnergyModel",
    "get_energy_model",
    "set_energy_model",
    "op_counts",
    "joules_of_counts",
]

#: Joules per counted operation, by counter name.  Word-level GF(2)
#: ops are modeled as single ALU operations of a ~1 GHz-class core
#: (~0.4 nJ whole-core energy each).  A syndrome compute is one AND
#: plus one parity-XOR per parity-check row — those row ops are folded
#: into its constant (sized for the ~7-row SECDED regime plus dispatch)
#: so the hot path pays a single counter inc.  Candidate enumerations
#: carry a small dispatch overhead on top of the XORs they also count;
#: filter/ranker evaluations decode an instruction word (dozens of ALU
#: ops plus table lookups).
DEFAULT_JOULES_PER_OP: dict[str, float] = {
    "ops.xor": 4.0e-10,
    "ops.and": 4.0e-10,
    "ops.syndrome_computes": 8.0e-9,
    "ops.candidate_enumerations": 2.0e-9,
    "ops.filter_evals": 2.4e-8,
    "ops.ranker_evals": 2.4e-8,
}

#: Joules in one kilowatt-hour.
JOULES_PER_KWH = 3.6e6

#: Environment overrides honoured by :meth:`EnergyModel.from_env`.
ENV_CARBON = "REPRO_CARBON_G_PER_KWH"
ENV_DOLLARS = "REPRO_DOLLARS_PER_KWH"


@dataclass(frozen=True)
class EnergyModel:
    """Pluggable op-count -> joules/dollars/CO2 conversion.

    Parameters
    ----------
    joules_per_op:
        Joules charged per increment of each ``ops.*`` counter.
        Counters absent from the mapping cost nothing; mapping entries
        with no counter contribute nothing.
    carbon_intensity_g_per_kwh:
        Grams of CO2-equivalent per kWh of the deployment region
        (default 400, roughly a mixed grid).
    dollars_per_kwh:
        Electricity price (default $0.12/kWh).
    """

    joules_per_op: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_JOULES_PER_OP)
    )
    carbon_intensity_g_per_kwh: float = 400.0
    dollars_per_kwh: float = 0.12

    def __post_init__(self) -> None:
        for name, joules in self.joules_per_op.items():
            if joules < 0:
                raise ObservabilityError(
                    f"joules_per_op[{name!r}] must be >= 0, got {joules}"
                )
        if self.carbon_intensity_g_per_kwh < 0:
            raise ObservabilityError(
                "carbon_intensity_g_per_kwh must be >= 0, "
                f"got {self.carbon_intensity_g_per_kwh}"
            )
        if self.dollars_per_kwh < 0:
            raise ObservabilityError(
                f"dollars_per_kwh must be >= 0, got {self.dollars_per_kwh}"
            )

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "EnergyModel":
        """Default model with region/price overrides from the environment."""
        environ = environ if environ is not None else os.environ
        kwargs: dict[str, float] = {}
        for key, env_name in (
            ("carbon_intensity_g_per_kwh", ENV_CARBON),
            ("dollars_per_kwh", ENV_DOLLARS),
        ):
            raw = environ.get(env_name)
            if raw is None:
                continue
            try:
                kwargs[key] = float(raw)
            except ValueError:
                raise ObservabilityError(
                    f"{env_name}={raw!r} is not a number"
                )
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def joules(self, counts: Mapping[str, int | float]) -> float:
        """Modeled energy of an op-count mapping."""
        return sum(
            count * self.joules_per_op.get(name, 0.0)
            for name, count in counts.items()
        )

    def dollars(self, joules: float) -> float:
        """Electricity cost of *joules* at the configured price."""
        return joules / JOULES_PER_KWH * self.dollars_per_kwh

    def grams_co2(self, joules: float) -> float:
        """CO2-equivalent of *joules* at the configured intensity."""
        return joules / JOULES_PER_KWH * self.carbon_intensity_g_per_kwh

    def describe(self) -> str:
        """One-line configuration summary (the ``energy.model`` info)."""
        ops = " ".join(
            f"{name}={self.joules_per_op[name]:.3g}"
            for name in sorted(self.joules_per_op)
        )
        return (
            f"carbon_g_per_kwh={self.carbon_intensity_g_per_kwh:g} "
            f"dollars_per_kwh={self.dollars_per_kwh:g} {ops}"
        )


_model: EnergyModel = EnergyModel.from_env()


def get_energy_model() -> EnergyModel:
    """The process-wide energy model."""
    return _model


def set_energy_model(model: EnergyModel) -> EnergyModel:
    """Replace the process-wide energy model; returns the previous one."""
    global _model
    previous = _model
    _model = model
    return previous


def op_counts(
    registry: obs_metrics.MetricsRegistry | None = None,
    model: EnergyModel | None = None,
) -> dict[str, int | float]:
    """Current values of the model's op counters in *registry*.

    Missing counters read as 0, so deltas between two calls are valid
    even when instrumented objects have not been constructed yet.
    """
    registry = registry if registry is not None else obs_metrics.get_registry()
    model = model if model is not None else _model
    return registry.counter_values(model.joules_per_op)


def joules_of_counts(
    counts: Mapping[str, int | float], model: EnergyModel | None = None
) -> float:
    """Convenience: modeled joules of an op-count mapping."""
    model = model if model is not None else _model
    return model.joules(counts)


def _energy_collector() -> None:
    """Derive the energy/cost/carbon metrics at snapshot time.

    Runs against the *current* default registry (like the cache-hit-rate
    collector): the ops counters live wherever the instrumented objects
    were constructed, and the derived gauges are written next to them so
    one ``/metrics`` scrape carries both.
    """
    registry = obs_metrics.get_registry()
    model = _model
    total = model.joules(op_counts(registry, model))
    registry.gauge(
        "energy.joules_total",
        help="Modeled energy of all counted decode ops (derived at snapshot time)",
    ).set(total)
    recoveries_metric = registry.get("swdecc.recoveries")
    recoveries = (
        recoveries_metric.value
        if isinstance(recoveries_metric, obs_metrics.Counter)
        else 0
    )
    per_recovery = total / recoveries if recoveries else 0.0
    registry.gauge(
        "energy.joules_per_recovery",
        help="Modeled energy per heuristic recovery (derived at snapshot time)",
    ).set(per_recovery)
    registry.gauge(
        "cost.dollars_per_million_requests",
        help="Electricity cost per million recovery requests at the "
        "configured $/kWh (derived at snapshot time)",
    ).set(model.dollars(per_recovery) * 1e6)
    registry.gauge(
        "carbon.grams_co2_total",
        help="CO2-equivalent of all counted decode ops at the configured "
        "regional intensity (derived at snapshot time)",
    ).set(model.grams_co2(total))
    registry.info(
        "energy.model",
        help="Energy-model configuration (per-op joules, carbon intensity, $/kWh)",
    ).set(model.describe())


obs_metrics.add_collector(_energy_collector)
