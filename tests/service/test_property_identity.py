"""Property: service-batched recovery is bit-identical to serial runs.

The service's whole batching apparatus — coalescing across batch
boundaries, whole-job granularity, (code, context) grouping, the
single-consumer worker — must be invisible in the answers: every
per-word payload must equal what a fresh engine produces by calling
:meth:`SwdEcc.recover` serially in request order.  Hypothesis drives
random word mixes (true DUEs, correctable words, clean words), random
request shapes (1..5 words), and mixed contexts, with ``max_batch``
small enough that examples routinely straddle batch boundaries.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32
from repro.errors import ReproError
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark
from repro.service import RecoveryService, ServiceCatalog
from repro.service.api import RecoveryRequest, error_payload, result_payload
from repro.service.catalog import (
    _CONTEXT_IMAGE_LENGTH,
    _CONTEXT_SEED,
    DEFAULT_CODE_ID,
)

CONTEXT_IDS = ("none", "mcf", "bzip2")


@pytest.fixture(scope="module")
def live_service(module_obs_swap):
    """One service for the whole module; tiny batches force boundaries."""
    with RecoveryService(port=0, max_batch=3) as service:
        yield service


@pytest.fixture(scope="module")
def reference():
    """A fresh serial engine + contexts, configured like the catalog."""
    code = canonical_secded_39_32()
    engine = SwdEcc(
        code, tie_break=TieBreak.FIRST, rng=random.Random(0), cache=True
    )
    contexts = {"none": RecoveryContext()}
    for name in ("mcf", "bzip2"):
        image = synthesize_benchmark(
            name, length=_CONTEXT_IMAGE_LENGTH, seed=_CONTEXT_SEED
        )
        contexts[name] = RecoveryContext.for_instructions(
            FrequencyTable.from_image(image)
        )
    return code, engine, contexts


def _word_strategy(code_n: int):
    """One received word: a codeword with 0, 1, or 2 bits flipped.

    Two flips are the true DUEs the service exists for; zero and one
    flips exercise the per-word error path (not a DUE) without failing
    neighbouring words.
    """
    message = st.integers(min_value=0, max_value=(1 << 32) - 1)
    flips = st.lists(
        st.integers(min_value=0, max_value=code_n - 1),
        min_size=0,
        max_size=2,
        unique=True,
    )
    return st.tuples(message, flips)


def _requests_strategy(code_n: int):
    word = _word_strategy(code_n)
    request = st.tuples(
        st.lists(word, min_size=1, max_size=5),
        st.sampled_from(CONTEXT_IDS),
    )
    return st.lists(request, min_size=1, max_size=6)


CODE_N = canonical_secded_39_32().n


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=_requests_strategy(CODE_N))
def test_batched_identical_to_serial(spec, live_service, reference):
    code, serial_engine, contexts = reference

    # Materialize the received words from (message, flips) specs.
    requests = []
    for word_specs, context_id in spec:
        words = []
        for message, flips in word_specs:
            received = code.encode(message)
            for bit in flips:
                received ^= 1 << bit
            words.append(received)
        requests.append(
            RecoveryRequest(words=tuple(words), context_id=context_id)
        )

    # Service side: submit everything back-to-back so jobs coalesce
    # and straddle the max_batch=3 boundary.
    futures = [
        live_service.batcher.submit(request) for request in requests
    ]
    service_payloads = [
        [
            json.loads(fragment)
            for fragment in future.result(timeout=30.0)["fragments"]
        ]
        for future in futures
    ]

    # Reference side: strictly serial, request order, fresh state.
    for request, payloads in zip(requests, service_payloads):
        context = contexts[request.context_id]
        assert len(payloads) == len(request.words)
        for word, payload in zip(request.words, payloads):
            try:
                result = serial_engine.recover(word, context)
            except ReproError as error:
                expected = error_payload(word, error)
            else:
                expected = result_payload(word, result)
            assert payload == expected


def test_service_catalog_contexts_match_reference(reference):
    """The catalog's lazily-built contexts equal the reference ones."""
    _, _, contexts = reference
    catalog = ServiceCatalog()
    for name in ("mcf", "bzip2"):
        built = catalog.context(name)
        assert built.kind == contexts[name].kind
        expected = contexts[name].frequency_table
        assert built.frequency_table.ranked() == expected.ranked()


def test_repeat_submission_is_deterministic(live_service):
    """The same DUE answered twice gives the same bytes, any batch."""
    code = live_service.catalog.code(DEFAULT_CODE_ID)
    due = code.encode(0x1234_5678) ^ 0b11
    request = RecoveryRequest(words=(due,), context_id="mcf")
    first = live_service.batcher.submit(request).result(timeout=30.0)
    second = live_service.batcher.submit(request).result(timeout=30.0)
    assert first == second
