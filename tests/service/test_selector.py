"""Adaptive code selector: classification, hysteresis, and metrics."""

from __future__ import annotations

import pytest

from repro.ecc import canonical_secded_39_32, daec_code
from repro.ecc.daec import adjacent_syndrome_set
from repro.errors import ServiceError
from repro.obs import events as obs_events
from repro.obs.events import DueEvent, EventLog
from repro.service.selector import (
    AdaptiveCodeSelector,
    CodeSwitch,
    SelectorPolicy,
)

SECDED = canonical_secded_39_32()
DAEC = daec_code()

# Selectors watch the process event log and record to the process
# registry, both as current at construction.
pytestmark = pytest.mark.usefixtures("obs_swap")


def make_event(received: int, address: int | None = None) -> DueEvent:
    return DueEvent(
        received=received,
        num_candidates=2,
        num_valid=1,
        filter_fell_back=False,
        chosen_message=0,
        chosen_codeword=0,
        tied=1,
        latency_ns=0,
        address=address,
    )


def adjacent_due(code, message: int, start: int) -> int:
    top = 1 << (code.n - 1)
    return code.encode(message) ^ ((top >> start) | (top >> (start + 1)))


def non_adjacent_dues(code, count: int) -> list[int]:
    """DUE words whose syndromes are NOT adjacent-consistent."""
    adjacent = adjacent_syndrome_set(code)
    words = []
    top = 1 << (code.n - 1)
    for i in range(code.n):
        for j in range(i + 2, code.n):
            received = code.encode(0xABCD1234 + i) ^ (top >> i) ^ (top >> j)
            if code.syndrome(received) not in adjacent:
                words.append(received)
                if len(words) == count:
                    return words
    raise AssertionError("not enough non-adjacent-syndrome DUEs")


def build(policy=None, **kwargs):
    selector = AdaptiveCodeSelector(
        base_code=SECDED,
        upgrade_code=DAEC,
        policy=policy or SelectorPolicy(min_samples=4, window=16),
        **kwargs,
    )
    return obs_events.get_event_log(), selector


class TestPolicyValidation:
    def test_defaults_valid(self):
        SelectorPolicy()

    def test_upgrade_threshold_bounds(self):
        with pytest.raises(ServiceError, match="upgrade_threshold"):
            SelectorPolicy(upgrade_threshold=0.0)

    def test_hysteresis_band_required(self):
        with pytest.raises(ServiceError, match="downgrade"):
            SelectorPolicy(upgrade_threshold=0.5, downgrade_threshold=0.5)

    def test_min_samples_window(self):
        with pytest.raises(ServiceError, match="min_samples"):
            SelectorPolicy(min_samples=64, window=32)

    def test_region_bytes(self):
        with pytest.raises(ServiceError, match="region_bytes"):
            SelectorPolicy(region_bytes=0)


class TestUpgrade:
    def test_adjacent_bursts_upgrade_the_region(self):
        log, selector = build()
        for i in range(8):
            log.record(make_event(adjacent_due(SECDED, 0x1000 + i, i)))
        switches = selector.poll()
        assert len(switches) == 1
        switch = switches[0]
        assert isinstance(switch, CodeSwitch)
        assert switch.region == 0
        assert switch.old_code_id == "secded-39-32"
        assert switch.new_code_id == "daec-41-32"
        assert switch.adjacent_fraction == 1.0
        assert selector.code_for(0) == "daec-41-32"
        assert selector.assignments() == {0: "daec-41-32"}

    def test_below_min_samples_no_decision(self):
        log, selector = build()
        for i in range(3):  # min_samples=4
            log.record(make_event(adjacent_due(SECDED, i, i)))
        assert selector.poll() == []
        assert selector.assignments() == {}

    def test_non_adjacent_dues_do_not_upgrade(self):
        log, selector = build()
        for received in non_adjacent_dues(SECDED, 12):
            log.record(make_event(received))
        assert selector.poll() == []
        assert selector.code_for(0) == "secded-39-32"

    def test_regions_partition_by_address(self):
        policy = SelectorPolicy(min_samples=4, window=16, region_bytes=256)
        log, selector = build(policy=policy)
        # Region 2 takes bursts; region 5 takes non-adjacent doubles.
        for i in range(6):
            log.record(
                make_event(adjacent_due(SECDED, i, i), address=512 + 4 * i)
            )
        for received in non_adjacent_dues(SECDED, 6):
            log.record(make_event(received, address=1280))
        switches = selector.poll()
        assert [s.region for s in switches] == [2]
        assert selector.code_for(2) == "daec-41-32"
        assert selector.code_for(5) == "secded-39-32"

    def test_on_switch_callback(self):
        seen = []
        log, selector = build(on_switch=seen.append)
        for i in range(5):
            log.record(make_event(adjacent_due(SECDED, i, i)))
        switches = selector.poll()
        assert seen == switches


class TestHysteresis:
    def _upgraded(self):
        log, selector = build()
        for i in range(6):
            log.record(make_event(adjacent_due(SECDED, i, i)))
        assert selector.poll()
        return log, selector

    def test_window_clears_on_switch(self):
        log, selector = self._upgraded()
        # No new events: the cleared window must not re-trigger.
        assert selector.poll() == []
        assert selector.code_for(0) == "daec-41-32"

    def test_non_adjacent_traffic_downgrades(self):
        log, selector = self._upgraded()
        # Under DAEC, adjacent doubles are corrected in hardware; the
        # DUEs that remain are non-adjacent.  By the DAEC uniqueness
        # property their syndromes are never adjacent-consistent.
        for received in non_adjacent_dues(DAEC, 6):
            log.record(make_event(received))
        switches = selector.poll()
        assert [s.new_code_id for s in switches] == ["secded-39-32"]
        assert selector.code_for(0) == "secded-39-32"

    def test_daec_adjacent_syndromes_never_collide(self):
        # The property the downgrade test leans on.
        adjacent = adjacent_syndrome_set(DAEC)
        assert len(adjacent) == DAEC.n - 1
        for received in non_adjacent_dues(DAEC, 50):
            assert DAEC.syndrome(received) not in adjacent


class TestBookkeeping:
    def test_width_mismatch_skipped_and_counted(self):
        log, selector = build()
        log.record(make_event(1 << 40))  # 41-bit word, region on (39, 32)
        assert selector.poll() == []
        metrics = selector._c_mismatches
        assert metrics.value == 1
        assert selector._c_samples.value == 0

    def test_evicted_events_counted(self):
        log = EventLog(capacity=4)
        obs_events.set_event_log(log)  # obs_swap restores the process log
        selector = AdaptiveCodeSelector(
            base_code=SECDED,
            upgrade_code=DAEC,
            policy=SelectorPolicy(min_samples=4, window=16),
        )
        for i in range(10):
            log.record(make_event(adjacent_due(SECDED, i, i % 38)))
        selector.poll()
        assert selector._c_evicted.value == 6
        assert selector._c_samples.value == 4

    def test_idle_poll_returns_nothing(self):
        log, selector = build()
        assert selector.poll() == []
        assert selector.poll() == []
        assert selector._c_polls.value == 2

    def test_events_ingested_once(self):
        log, selector = build()
        log.record(make_event(adjacent_due(SECDED, 1, 0)))
        selector.poll()
        selector.poll()
        assert selector._c_samples.value == 1

    def test_metric_families_registered(self, obs_swap):
        AdaptiveCodeSelector(base_code=SECDED, upgrade_code=DAEC)
        snapshot = obs_swap.registry.as_dict()
        for name in (
            "selector.polls", "selector.samples",
            "selector.adjacent_samples", "selector.width_mismatches",
            "selector.evicted_events", "selector.switches",
            "selector.upgrades", "selector.downgrades",
            "selector.regions_observed", "selector.regions_upgraded",
            "selector.adjacent_fraction", "selector.config",
        ):
            assert name in snapshot, name
