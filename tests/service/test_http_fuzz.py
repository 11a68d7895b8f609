"""Fuzz the recovery service's HTTP surface.

Hypothesis drives one in-process service, over one keep-alive
connection, with raw request bytes, JSON junk, nesting up to 200,000
levels deep, valid DUE batches, and valid batches with a bad id, a
junk ``timeout_ms`` or an unknown field.  Every answer must be a
defined status (200, 400, 404 or 429, never the handler's catch-all
500), and every word of a non-degraded 200 must equal the payload of a
cache-free FIRST oracle.  The oracle skips the DEC/DECTED codes: their
reference path costs ~50 ms per word, so the generated batches never
name them.  Budget: 15 s in tier-1; 300 examples take about 3 s on a
2-vCPU VM.
"""

from __future__ import annotations

import http.client
import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.swdecc import SwdEcc, TieBreak
from repro.errors import ReproError
from repro.service import RecoveryService, ServiceCatalog
from repro.service.api import error_payload, result_payload

CODE_IDS = ("secded-39-32", "hsiao-39-32", "daec-41-32")
CONTEXT_IDS = ("none", "mcf", "bzip2")
DEFINED_STATUSES = {200, 400, 404, 429}
ENDPOINTS = st.sampled_from(["/recover", "/recover/batch"])
PATHS = ENDPOINTS | st.sampled_from(["/recover/", "/nope"])
DEEP = b"[" * 100_000 + b"]" * 100_000

#: Codes the strategies encode with (never shared with the service).
CODES = {code_id: ServiceCatalog().code(code_id) for code_id in CODE_IDS}

json_junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def words_of(draw, code):
    """Double-bit errors (DUEs for SECDED/Hsiao, some corrected by
    DAEC) and arbitrary words, spelled as integers or hex strings."""
    first = draw(st.integers(0, code.n - 1))
    second = draw(st.integers(0, code.n - 1).filter(lambda b: b != first))
    double = code.encode(draw(st.integers(0, (1 << code.k) - 1)))
    double ^= (1 << first) | (1 << second)
    word = draw(st.just(double) | st.integers(0, (1 << code.n) - 1))
    return draw(st.sampled_from([word, hex(word)]))


@st.composite
def valid_requests(draw):
    """A well-formed ``(path, body dict)`` over the oracle-checked codes."""
    code_id = draw(st.sampled_from(CODE_IDS))
    received = draw(st.lists(words_of(CODES[code_id]), min_size=1,
                             max_size=8))
    body = {"code": code_id, "context": draw(st.sampled_from(CONTEXT_IDS))}
    if draw(st.booleans()):
        return "/recover/batch", {**body, "received": received}
    return "/recover", {**body, "received": received[0]}


@st.composite
def damaged_requests(draw):
    """A valid request with one bad id, junk timeout or unknown field."""
    path, body = draw(valid_requests())
    key = draw(st.sampled_from(
        ["code", "context", "timeout_ms", "received", "extra"]
    ))
    if key == "timeout_ms":
        body[key] = draw(
            st.floats() | st.integers(-(1 << 70), 1 << 70)
            | st.sampled_from([1e-300, 0.5, True, "5", None])
        )
    elif key == "extra":
        body[draw(st.text(max_size=8))] = draw(json_junk)
    else:
        body[key] = draw(json_junk)
    return path, body


@st.composite
def nested_bodies(draw):
    """Arrays or objects nested up to 200,000 deep, bare or as the
    ``received`` field."""
    depth = draw(st.integers(1, 2_000) | st.integers(1, 200_000))
    if draw(st.booleans()):
        nested = "[" * depth + "]" * depth
    else:
        nested = '{"a": ' * depth + "1" + "}" * depth
    if draw(st.booleans()):
        nested = f'{{"received": {nested}}}'
    return nested.encode()


def encoded(request):
    path, body = request
    return path, json.dumps(body).encode()


requests_strategy = st.one_of(
    st.tuples(PATHS, st.binary(max_size=200)),
    st.tuples(
        ENDPOINTS, json_junk.map(lambda value: json.dumps(value).encode())
    ),
    st.tuples(ENDPOINTS, nested_bodies()),
    valid_requests().map(encoded),
    damaged_requests().map(encoded),
)


@pytest.fixture(scope="module")
def connection(module_obs_swap):
    """A keep-alive connection to a live service (http.client opens a
    fresh one whenever the service answers ``Connection: close``)."""
    with RecoveryService(port=0) as service:
        connection = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30
        )
        try:
            yield connection
        finally:
            connection.close()


@pytest.fixture(scope="module")
def oracle(module_obs_swap):
    """Cache-free FIRST engines by code id, and the catalog whose
    identically synthesized contexts they recover under."""
    catalog = ServiceCatalog()
    engines = {
        code_id: SwdEcc(
            catalog.code(code_id), tie_break=TieBreak.FIRST,
            rng=random.Random(0), cache=False,
        )
        for code_id in CODE_IDS
    }
    return engines, catalog


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(request=requests_strategy)
@example(request=("/recover", DEEP))
@example(request=("/recover/batch", b'{"received": ' + DEEP + b"}"))
@example(request=("/nope", b'{"received": 5}'))
def test_every_answer_is_defined_and_oracle_exact(
    connection, oracle, request
):
    path, body = request
    connection.request(
        "POST", path, body=body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    status, raw = response.status, response.read()
    assert status in DEFINED_STATUSES, (status, raw[:200])
    payload = json.loads(raw)
    if status != 200 or payload["degraded"]:
        return
    engines, catalog = oracle
    engine = engines.get(payload["code"])
    if engine is None:  # a DEC/DECTED word from junk: not oracle-checked
        return
    context = catalog.context(payload["context"])
    results = payload["results"] if "results" in payload else [
        payload["result"]
    ]
    for result in results:
        word = result["received"]
        try:
            expected = result_payload(word, engine.recover(word, context))
        except ReproError as error:
            expected = error_payload(word, error)
        assert result == expected
