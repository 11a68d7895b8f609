"""Shared fixtures: codes, images, and engines reused across the suite.

Expensive objects (the canonical code, synthetic benchmark images) are
session scoped; they are immutable, so sharing is safe.
"""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest

from repro.core import RecoveryContext, SwdEcc
from repro.ecc import canonical_secded_39_32, hsiao_39_32
from repro.ecc.candidates import CandidateEnumerator
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.program import FrequencyTable, synthesize_benchmark


class ObsSwap(NamedTuple):
    """The fresh process registry and event log a swap fixture installed."""

    registry: obs_metrics.MetricsRegistry
    log: obs_events.EventLog


def _swap_obs():
    swap = ObsSwap(obs_metrics.MetricsRegistry(), obs_events.EventLog())
    previous_registry = obs_metrics.set_registry(swap.registry)
    previous_log = obs_events.set_event_log(swap.log)
    try:
        yield swap
    finally:
        obs_metrics.set_registry(previous_registry)
        obs_events.set_event_log(previous_log)


@pytest.fixture()
def obs_swap():
    """Install an empty process registry and event log for one test.

    Components record to the registry and log current when they are
    built, so build everything the test's assertions read inside it.
    """
    yield from _swap_obs()


@pytest.fixture(scope="module")
def module_obs_swap():
    """:func:`obs_swap` for module-scoped fixtures (e.g. one live
    service shared by a module's tests)."""
    yield from _swap_obs()


@pytest.fixture(scope="session")
def code():
    """The canonical (39, 32) SECDED code used by the evaluation."""
    return canonical_secded_39_32()


@pytest.fixture(scope="session")
def hsiao_code_39():
    """The parametric Hsiao (39, 32) construction."""
    return hsiao_39_32()


@pytest.fixture(scope="session")
def enumerator(code):
    """Candidate enumerator over the canonical code."""
    return CandidateEnumerator(code)


@pytest.fixture(scope="session")
def mcf_image():
    """A small synthetic mcf image (session scoped: generation costs)."""
    return synthesize_benchmark("mcf", length=512)


@pytest.fixture(scope="session")
def bzip2_image():
    """A small synthetic bzip2 image."""
    return synthesize_benchmark("bzip2", length=512)


@pytest.fixture(scope="session")
def mcf_table(mcf_image):
    """Frequency table of the mcf image."""
    return FrequencyTable.from_image(mcf_image)


@pytest.fixture(scope="session")
def instruction_context(mcf_table):
    """Instruction-memory recovery context with mcf statistics."""
    return RecoveryContext.for_instructions(mcf_table)


@pytest.fixture()
def engine(code):
    """A fresh default SWD-ECC engine with a seeded tie-break RNG."""
    return SwdEcc(code, rng=random.Random(1234))
