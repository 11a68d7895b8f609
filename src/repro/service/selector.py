"""Adaptive per-region ECC code selection from observed DUE traffic.

The "Adaptive ECC Switching" idea (see PAPERS.md): different memory
regions see different fault populations — a row neighbouring a noisy
aggressor takes *adjacent* multi-bit upsets, the rest mostly takes
isolated singles/doubles — so the protecting code should be chosen per
region from what is actually observed, not fixed at design time.

:class:`AdaptiveCodeSelector` watches the bounded DUE event log
(:class:`repro.obs.events.EventLog`), classifies each DUE by whether
its syndrome is *consistent with an adjacent double* under the
region's current code (:func:`repro.ecc.daec.adjacent_syndrome_set`),
and switches a region between a base SECDED code and a SEC-DED-DAEC
code when the observed adjacent fraction crosses a hysteresis band:

- fraction >= ``upgrade_threshold`` over at least ``min_samples``
  recent DUEs -> upgrade the region to the DAEC code;
- fraction <= ``downgrade_threshold`` -> downgrade back to SECDED.

The two thresholds straddle the classifier's noise floor: a uniformly
random double on the canonical (39, 32) code lands on an
adjacent-consistent syndrome ~31% of the time, while genuine adjacent
bursts do so always, so the default 0.65 / 0.35 band separates the two
populations with margin on both sides.  Hysteresis (plus clearing a
region's window on every switch) is what prevents flapping: after an
upgrade, adjacent doubles are corrected in hardware and stop appearing
as DUEs, so the DAEC-region window only refills — and only triggers a
downgrade — if *non-adjacent* DUE traffic actually dominates again.

The selector is **advisory**: it maintains assignments, counters, and
gauges, and notifies ``on_switch``; the caller (the MBU resilience
study, an operator watching /metrics) applies the decision by
re-encoding the region.  The recovery service never rewrites a
request's code id — served answers stay bit-identical to serial
engines regardless of selector state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from threading import Lock
from typing import Callable

from repro.bits import bit_mask
from repro.ecc.code import LinearBlockCode
from repro.ecc.daec import adjacent_syndrome_set
from repro.errors import ServiceError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics

__all__ = ["SelectorPolicy", "AdaptiveCodeSelector", "CodeSwitch"]


@dataclass(frozen=True)
class SelectorPolicy:
    """Hysteresis policy of the adaptive selector.

    Attributes
    ----------
    upgrade_threshold:
        Adjacent-consistent DUE fraction at or above which a base-code
        region upgrades to the DAEC code.
    downgrade_threshold:
        Fraction at or below which an upgraded region reverts.  Must be
        strictly below ``upgrade_threshold`` (the hysteresis band).
    min_samples:
        DUEs a region must accumulate in its window before either
        decision is taken.
    window:
        Sliding-window length of per-region observations; on every
        switch the window clears (old observations described the old
        code's DUE population).
    region_bytes:
        Address granularity of one region (``address // region_bytes``);
        events without an address all land in region 0.
    """

    upgrade_threshold: float = 0.65
    downgrade_threshold: float = 0.35
    min_samples: int = 12
    window: int = 128
    region_bytes: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.upgrade_threshold <= 1.0:
            raise ServiceError(
                f"upgrade_threshold must be in (0, 1], "
                f"got {self.upgrade_threshold}"
            )
        if not 0.0 <= self.downgrade_threshold < self.upgrade_threshold:
            raise ServiceError(
                "downgrade_threshold must satisfy 0 <= downgrade < upgrade, "
                f"got {self.downgrade_threshold} vs {self.upgrade_threshold}"
            )
        if self.min_samples < 1 or self.window < self.min_samples:
            raise ServiceError(
                f"need 1 <= min_samples <= window, "
                f"got min_samples={self.min_samples} window={self.window}"
            )
        if self.region_bytes < 1:
            raise ServiceError(
                f"region_bytes must be >= 1, got {self.region_bytes}"
            )


@dataclass(frozen=True)
class CodeSwitch:
    """One region's code change, as reported by :meth:`poll`."""

    region: int
    old_code_id: str
    new_code_id: str
    adjacent_fraction: float
    samples: int


class AdaptiveCodeSelector:
    """Watch DUE events and pick per-region codes with hysteresis.

    It polls the process's bounded DUE event log and records its
    ``selector.*`` families to the process registry, both as current
    at construction — the same log the catalog engines record to.
    Polling is non-destructive: the selector tracks how many events it
    has seen via ``total_recorded`` and only ingests the tail, so
    ``/events`` consumers are unaffected.

    Parameters
    ----------
    base_code / upgrade_code:
        The two codes a region can run, with their catalog ids.  DUEs
        are classified against the *region's current* code: its width
        gates which events can even belong to it, and its adjacent
        syndrome set defines "consistent with an adjacent double".
    policy:
        The hysteresis parameters (:class:`SelectorPolicy`).
    on_switch:
        Callback invoked with each :class:`CodeSwitch` as it is
        decided, while the selector lock is held — keep it short.
    """

    def __init__(
        self,
        base_code: LinearBlockCode | None = None,
        upgrade_code: LinearBlockCode | None = None,
        base_code_id: str = "secded-39-32",
        upgrade_code_id: str = "daec-41-32",
        policy: SelectorPolicy | None = None,
        on_switch: Callable[[CodeSwitch], None] | None = None,
    ) -> None:
        if base_code is None:
            from repro.ecc.matrices import canonical_secded_39_32

            base_code = canonical_secded_39_32()
        if upgrade_code is None:
            from repro.ecc.daec import daec_code

            upgrade_code = daec_code()
        self._log = obs_events.get_event_log()
        self._policy = policy if policy is not None else SelectorPolicy()
        self._codes: dict[str, LinearBlockCode] = {
            base_code_id: base_code,
            upgrade_code_id: upgrade_code,
        }
        self._adjacent = {
            code_id: adjacent_syndrome_set(code)
            for code_id, code in self._codes.items()
        }
        self._word_masks = {
            code_id: bit_mask(code.n) for code_id, code in self._codes.items()
        }
        self._base_id = base_code_id
        self._upgrade_id = upgrade_code_id
        self._on_switch = on_switch
        self._lock = Lock()
        self._seen = 0
        self._assignments: dict[int, str] = {}
        self._windows: dict[int, deque[bool]] = {}

        registry = obs_metrics.get_registry()
        self._c_polls = registry.counter(
            "selector.polls", help="Event-log polls by the adaptive selector"
        )
        self._c_samples = registry.counter(
            "selector.samples", help="DUE events classified by the selector"
        )
        self._c_adjacent = registry.counter(
            "selector.adjacent_samples",
            help="DUEs whose syndrome was adjacent-consistent for their "
            "region's current code",
        )
        self._c_mismatches = registry.counter(
            "selector.width_mismatches",
            help="DUEs skipped because the word did not fit the region's "
            "current code",
        )
        self._c_evicted = registry.counter(
            "selector.evicted_events",
            help="Events that left the bounded log before a poll saw them",
        )
        self._c_switches = registry.counter(
            "selector.switches", help="Per-region code switches decided"
        )
        self._c_upgrades = registry.counter(
            "selector.upgrades", help="Base -> DAEC region upgrades"
        )
        self._c_downgrades = registry.counter(
            "selector.downgrades", help="DAEC -> base region downgrades"
        )
        self._g_regions_observed = registry.gauge(
            "selector.regions_observed",
            help="Regions with at least one classified DUE",
        )
        self._g_regions_upgraded = registry.gauge(
            "selector.regions_upgraded",
            help="Regions currently assigned the DAEC code",
        )
        self._g_fraction = registry.gauge(
            "selector.adjacent_fraction",
            help="Adjacent-consistent fraction over all regions' current "
            "windows",
        )
        registry.info(
            "selector.config",
            help="Adaptive-selector configuration",
        ).set(
            f"base={base_code_id} upgrade={upgrade_code_id} "
            f"up>={self._policy.upgrade_threshold:g} "
            f"down<={self._policy.downgrade_threshold:g} "
            f"min_samples={self._policy.min_samples} "
            f"window={self._policy.window} "
            f"region_bytes={self._policy.region_bytes}"
        )

    @property
    def policy(self) -> SelectorPolicy:
        """The hysteresis policy in force."""
        return self._policy

    @property
    def base_code_id(self) -> str:
        """Catalog id of the default (SECDED) code."""
        return self._base_id

    @property
    def upgrade_code_id(self) -> str:
        """Catalog id of the burst-correcting (DAEC) code."""
        return self._upgrade_id

    def code_for(self, region: int) -> str:
        """The code id currently assigned to *region*."""
        with self._lock:
            return self._assignments.get(region, self._base_id)

    def assignments(self) -> dict[int, str]:
        """Current non-default region assignments (region -> code id)."""
        with self._lock:
            return dict(self._assignments)

    def region_of(self, address: int | None) -> int:
        """The region an event address belongs to (None -> region 0)."""
        if address is None:
            return 0
        return address // self._policy.region_bytes

    def _fraction(self, window: deque[bool]) -> float:
        return sum(window) / len(window)

    def poll(self) -> list[CodeSwitch]:
        """Ingest new DUE events and return any switches decided.

        Safe to call from multiple threads and cheap when idle: cost is
        proportional to the number of events recorded since the last
        poll (plus one syndrome computation per new event).
        """
        with self._lock:
            return self._poll_locked()

    def _poll_locked(self) -> list[CodeSwitch]:
        self._c_polls.inc()
        log = self._log
        retained = log.events()
        total = log.total_recorded
        new = total - self._seen
        if new <= 0:
            self._refresh_gauges()
            return []
        if new > len(retained):
            self._c_evicted.inc(new - len(retained))
            new = len(retained)
        self._seen = total
        policy = self._policy
        for event in retained[len(retained) - new:]:
            region = self.region_of(event.address)
            code_id = self._assignments.get(region, self._base_id)
            if event.received > self._word_masks[code_id]:
                self._c_mismatches.inc()
                continue
            syndrome = self._codes[code_id].syndrome(event.received)
            adjacent = syndrome in self._adjacent[code_id]
            window = self._windows.get(region)
            if window is None:
                window = deque(maxlen=policy.window)
                self._windows[region] = window
            window.append(adjacent)
            self._c_samples.inc()
            if adjacent:
                self._c_adjacent.inc()
        switches = []
        for region, window in self._windows.items():
            if len(window) < policy.min_samples:
                continue
            current = self._assignments.get(region, self._base_id)
            fraction = self._fraction(window)
            if (
                current == self._base_id
                and fraction >= policy.upgrade_threshold
            ):
                new_id = self._upgrade_id
                self._c_upgrades.inc()
            elif (
                current == self._upgrade_id
                and fraction <= policy.downgrade_threshold
            ):
                new_id = self._base_id
                self._c_downgrades.inc()
            else:
                continue
            self._assignments[region] = new_id
            switch = CodeSwitch(
                region=region,
                old_code_id=current,
                new_code_id=new_id,
                adjacent_fraction=fraction,
                samples=len(window),
            )
            window.clear()
            self._c_switches.inc()
            switches.append(switch)
            if self._on_switch is not None:
                self._on_switch(switch)
        self._refresh_gauges()
        return switches

    def _refresh_gauges(self) -> None:
        self._g_regions_observed.set(len(self._windows))
        self._g_regions_upgraded.set(
            sum(
                1
                for code_id in self._assignments.values()
                if code_id == self._upgrade_id
            )
        )
        total = sum(len(w) for w in self._windows.values())
        adjacent = sum(sum(w) for w in self._windows.values())
        self._g_fraction.set(adjacent / total if total else 0.0)
