"""Multi-process shards: bit-identity, metrics completeness, respawn.

The shard pool moves recovery across a process boundary; nothing
observable may change when it does.  Three contracts are pinned here:

- **Bit-identity** — every per-word payload a sharded service answers
  equals what a fresh serial engine produces, across mixed contexts,
  batch splits (``max_batch=3``), the served-answer cache, and a
  worker killed mid-run (the respawned shard rebuilds the identical
  deterministic engine).
- **Metrics completeness** — the parent registry's ``service.*``
  engine counters equal the *sum* of the per-shard cumulative
  snapshots: the diff-shipping protocol neither drops nor
  double-counts; and a pool charges the ``swdecc.*`` and ``ops.*``
  totals one in-process engine charges for the same stream.
- **Failure policy** — a killed worker costs one respawn and zero
  lost or duplicated words.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32
from repro.errors import ReproError, ServiceError
from repro.isa.decoder import ALL_SELECTOR_FIELDS
from repro.obs import metrics as obs_metrics
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark
from repro.service import RecoveryService, ServiceCatalog
from repro.service.api import RecoveryRequest, error_payload, result_payload
from repro.service.catalog import (
    _CONTEXT_IMAGE_LENGTH,
    _CONTEXT_SEED,
    DEFAULT_CODE_ID,
)
from repro.service import shards
from repro.service.shards import (
    RESULT_CACHE_WORDS,
    BatchEngine,
    ShardPool,
    ShardSpec,
    route_key,
)

CONTEXT_IDS = ("none", "mcf", "bzip2")
#: Encodes test words; built at import, so its op counters are not those
#: of any registry a test swaps in.
WORD_CODE = canonical_secded_39_32()
CODE_N = WORD_CODE.n


@pytest.fixture(scope="module")
def sharded_service(module_obs_swap):
    """A 2-shard service; tiny batches force batch-boundary splits."""
    with RecoveryService(port=0, workers=2, max_batch=3) as service:
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


def _requests_strategy():
    word = st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.lists(
            st.integers(min_value=0, max_value=CODE_N - 1),
            min_size=0, max_size=2, unique=True,
        ),
    )
    request = st.tuples(
        st.lists(word, min_size=1, max_size=5),
        st.sampled_from(CONTEXT_IDS),
    )
    return st.lists(request, min_size=1, max_size=6)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=_requests_strategy())
def test_sharded_identical_to_serial(spec, sharded_service, reference):
    """Process-boundary batching is invisible in the answers."""
    code, serial_engine, contexts = reference

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

    futures = [
        sharded_service.batcher.submit(request) for request in requests
    ]
    service_payloads = [
        [
            json.loads(fragment)
            for fragment in future.result(timeout=60.0)["fragments"]
        ]
        for future in futures
    ]

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


def test_identity_survives_worker_kill(sharded_service, module_obs_swap):
    """A killed worker costs a respawn, never a changed answer."""
    code = sharded_service.catalog.code(DEFAULT_CODE_ID)
    dues = tuple(code.encode(0x1234_5678 + i) ^ 0b11 for i in range(5))
    request = RecoveryRequest(words=dues, context_id="mcf")

    before = sharded_service.batcher.submit(request).result(timeout=60.0)
    pool = sharded_service.shard_pool
    index = pool.route(DEFAULT_CODE_ID, "mcf")
    victim = pool.worker_pids()[index]
    registry = module_obs_swap.registry
    respawns_before = registry.counter("service.shard.respawns").value
    os.kill(victim, signal.SIGKILL)
    time.sleep(0.1)

    after = sharded_service.batcher.submit(request).result(timeout=60.0)
    assert after["fragments"] == before["fragments"]
    assert len(after["fragments"]) == len(dues)  # none lost, none doubled
    assert pool.worker_pids()[index] not in (None, victim)
    assert pool.states()[index] == "ok"
    assert (
        registry.counter("service.shard.respawns").value > respawns_before
    )


def test_healthz_names_lost_worker(sharded_service):
    """/healthz degrades to 503 naming the dead shard, then recovers."""
    pool = sharded_service.shard_pool
    victim_index = 0
    os.kill(pool.worker_pids()[victim_index], signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    status = 200
    while time.monotonic() < deadline:
        status, _, body = sharded_service.healthz()
        if status != 200:
            break
        time.sleep(0.05)
    assert status == 503
    parsed = json.loads(body)
    assert parsed["status"] == "degraded"
    assert str(victim_index) in parsed["unhealthy_shards"]

    # Traffic to the dead shard triggers the respawn; health returns.
    code_id, context_id = DEFAULT_CODE_ID, None
    for candidate in CONTEXT_IDS:
        if pool.route(DEFAULT_CODE_ID, candidate) == victim_index:
            context_id = candidate
            break
    assert context_id is not None, "no context routes to shard 0"
    code = sharded_service.catalog.code(code_id)
    request = RecoveryRequest(
        words=(code.encode(0xBEEF) ^ 0b11,), context_id=context_id
    )
    sharded_service.batcher.submit(request).result(timeout=60.0)
    status, _, body = sharded_service.healthz()
    assert status == 200
    assert json.loads(body)["status"] == "ok"


def test_parent_metrics_equal_sum_of_shard_snapshots(obs_swap):
    """Diff-shipped deltas reassemble the exact per-shard totals.

    For every engine-owned ``service.*`` counter, the parent registry
    (built purely from per-batch deltas) must equal the sum of the
    shards' own cumulative snapshots — the protocol neither drops nor
    double-counts, even across batches that split work unevenly.
    """
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    spec = ShardSpec.from_catalog(catalog, preload=("mcf",))
    counters = (
        "service.recoveries",
        "service.recovery_errors",
        "service.result.cache_hits",
        "service.result.cache_misses",
    )
    with ShardPool(2, spec) as pool:
        for round_index in range(3):
            for context_id in CONTEXT_IDS:
                words = tuple(
                    code.encode(round_index * 100 + offset) ^ 0b11
                    for offset in range(4)
                )
                # Repeat one word so cache hits occur; include a
                # non-DUE so the error counter moves too.
                words = words + (words[0], code.encode(7))
                index = pool.route(DEFAULT_CODE_ID, context_id)
                outcomes = pool.execute(
                    index,
                    [RecoveryRequest(words=words, context_id=context_id)],
                )
                assert len(outcomes[0]["fragments"]) == len(words)

        snapshots = pool.snapshots()

    parent = obs_swap.registry.as_dict()
    for name in counters:
        shard_total = sum(
            snapshot.get(name, {}).get("value", 0)
            for snapshot in snapshots
        )
        assert parent[name]["value"] == shard_total, name
        assert shard_total > 0, f"{name} never moved; test is vacuous"
    # Histograms reassemble too: the engines' candidate counts are
    # committed from a tally when the shard snapshots its registry, ship
    # as bucket deltas and must sum exactly.
    shard_candidates = [
        s["swdecc.candidates"] for s in snapshots if "swdecc.candidates" in s
    ]
    assert parent["swdecc.candidates"]["count"] == sum(
        h["count"] for h in shard_candidates
    ) > 0
    assert parent["swdecc.candidates"]["sum"] == sum(
        h["sum"] for h in shard_candidates
    )


def _engine_totals(registry):
    """Every non-zero ``swdecc.*`` and ``ops.*`` total of *registry*:
    counter values, and histogram counts, sums and buckets."""
    totals = {}
    for name, data in registry.as_dict().items():
        if not name.startswith(("swdecc.", "ops.")):
            continue
        if data["type"] == "counter" and data["value"]:
            totals[name] = data["value"]
        elif data["type"] == "histogram" and data["count"]:
            totals[name] = (data["count"], data["sum"], data["buckets"])
    return totals


def _class_repeating_requests(context_ids, words_per_request=16):
    """One request per context id in *context_ids*, whose words are
    distinct but fall into eight decision classes: each word is one of
    eight (message, pattern) seeds with only non-selector message bits
    changed, so it keeps its seed's syndrome and selector base."""
    rng = random.Random(31)
    free_bits = ~ALL_SELECTOR_FIELDS & 0xFFFFFFFF
    seeds = [
        (rng.getrandbits(32), (1 << a) | (1 << b))
        for a, b in (rng.sample(range(CODE_N), 2) for _ in range(8))
    ]
    requests, seen = [], set()
    for context_id in context_ids:
        words = []
        while len(words) < words_per_request:
            message, pattern = rng.choice(seeds)
            message ^= rng.getrandbits(32) & free_bits
            word = WORD_CODE.encode(message) ^ pattern
            if word not in seen:
                seen.add(word)
                words.append(word)
        requests.append(
            RecoveryRequest(words=tuple(words), context_id=context_id)
        )
    return requests


def test_shard_pool_charges_what_one_engine_charges(obs_swap):
    """A 2-shard pool and an in-process ``BatchEngine`` serve one stream
    whose requests alternate between two contexts on different shards:
    each shard sees a run of one context, with classes repeating across
    its requests, while the in-process engine switches context every
    request.  Both end with equal ``swdecc.*`` and ``ops.*`` totals."""
    assert route_key(DEFAULT_CODE_ID, "mcf", 2) == route_key(
        DEFAULT_CODE_ID, "bzip2", 2
    ) != route_key(DEFAULT_CODE_ID, "perlbench", 2) == route_key(
        DEFAULT_CODE_ID, "povray", 2
    )
    requests = _class_repeating_requests(
        ["mcf", "perlbench"] * 3 + ["bzip2", "povray"] * 3
    )
    spec = ShardSpec.from_catalog(ServiceCatalog())
    with ShardPool(2, spec) as pool:
        for request in requests:
            index = pool.route(request.code_id, request.context_id)
            pool.execute(index, [request])
    sharded = _engine_totals(obs_swap.registry)

    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        engine = BatchEngine(ServiceCatalog())
        for request in requests:
            engine.execute([request])
    finally:
        obs_metrics.set_registry(previous)
    in_process = _engine_totals(registry)
    assert in_process["ops.filter_evals"] > 0
    assert sharded == in_process


def test_route_key_is_stable_and_in_range():
    for shards in (1, 2, 3, 8):
        seen = set()
        for context_id in CONTEXT_IDS:
            index = route_key(DEFAULT_CODE_ID, context_id, shards)
            assert 0 <= index < shards
            assert index == route_key(DEFAULT_CODE_ID, context_id, shards)
            seen.add(index)
        if shards == 1:
            assert seen == {0}


def test_batch_engine_cost_mode_bypasses_cache(obs_swap):
    """Cost attribution measures real engine work, never dict probes."""
    registry = obs_swap.registry
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    engine = BatchEngine(catalog, report_cost=True)
    request = RecoveryRequest(
        words=(code.encode(0x1234) ^ 0b11,), context_id="none"
    )
    first = engine.execute([request])[0]
    second = engine.execute([request])[0]
    assert first["cost"] is not None and first["cost"]["joules"] > 0
    assert first["fragments"] == second["fragments"]
    assert registry.counter("service.result.cache_hits").value == 0
    assert registry.counter("service.result.cache_misses").value == 0


def test_batch_engine_cache_cap_clears_and_stays_correct(obs_swap):
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    engine = BatchEngine(catalog)
    words = tuple(
        code.encode(i) ^ 0b11 for i in range(RESULT_CACHE_WORDS + 2)
    )
    request = RecoveryRequest(words=words, context_id="none")
    first = engine.execute([request])[0]
    second = engine.execute([request])[0]
    assert first["fragments"] == second["fragments"]


def test_batch_engine_answer_cache_is_bounded(obs_swap):
    """Words that never repeat cannot grow the cache past its bound,
    and every answer still equals the cache-free oracle's."""
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    engine = BatchEngine(catalog)
    words = tuple(
        code.encode(i) ^ 0b101 for i in range(RESULT_CACHE_WORDS + 1)
    )
    request = RecoveryRequest(words=words, context_id="mcf")
    fragments = engine.execute([request])[0]["fragments"]
    cached = sum(len(entries) for entries in engine._cache.values())
    assert 1 <= cached <= RESULT_CACHE_WORDS

    oracle = SwdEcc(
        code, tie_break=TieBreak.FIRST, rng=random.Random(0), cache=False
    )
    context = catalog.context("mcf")
    assert len(fragments) == len(words)
    for word, fragment in zip(words, fragments):
        try:
            expected = result_payload(word, oracle.recover(word, context))
        except ReproError as error:
            expected = error_payload(word, error)
        assert fragment == json.dumps(expected, sort_keys=True)


#: Codes whose DUEs the catalog engines serve from decode tables.
MIXED_CODE_IDS = ("secded-39-32", "hsiao-39-32", "daec-41-32")


def _mixed_requests(catalog, seed, count=36, words_per_request=12):
    """Seeded requests over three codes and three contexts: 2-bit DUEs
    with codewords, 1-bit CEs, 3-bit errors (some escalate), words out
    of range and repeats, within and across requests."""
    rng = random.Random(seed)
    requests = []
    seen: list[int] = []
    for index in range(count):
        code_id = MIXED_CODE_IDS[index % len(MIXED_CODE_IDS)]
        code = catalog.code(code_id)
        words = []
        for _ in range(words_per_request):
            word = code.encode(rng.getrandbits(32))
            kind = rng.random()
            if kind < 0.1 and seen:
                word = rng.choice(seen)
            elif kind < 0.14:
                pass  # a codeword
            elif kind < 0.18:
                word ^= 1 << rng.randrange(code.n)
            elif kind < 0.2:
                word |= 1 << code.n
            else:
                for position in rng.sample(
                    range(code.n), 3 if kind < 0.26 else 2
                ):
                    word ^= 1 << position
            words.append(word)
            seen.append(word)
        requests.append(RecoveryRequest(
            words=tuple(words),
            code_id=code_id,
            context_id=CONTEXT_IDS[index // 3 % len(CONTEXT_IDS)],
        ))
    return requests


def _serve_in_batches(engine, requests, batch=4):
    """Every request's fragments, executing *batch* requests at a time."""
    fragments = []
    for start in range(0, len(requests), batch):
        for outcome in engine.execute(requests[start:start + batch]):
            fragments.append(outcome["fragments"])
    return fragments


def test_batch_engine_words_equal_oracle_fragments(obs_swap):
    """Every word of mixed requests, error words mid-request included,
    is the cache-free oracle's fragment, whether the engine ran it or
    the answer cache replayed it."""
    catalog = ServiceCatalog()
    requests = _mixed_requests(catalog, seed=20)
    engine = BatchEngine(catalog)
    served = _serve_in_batches(engine, requests)
    registry = obs_swap.registry
    assert registry.counter("service.result.cache_hits").value > 0
    assert registry.counter("service.recovery_errors").value > 0
    oracles = {
        code_id: SwdEcc(
            catalog.code(code_id), tie_break=TieBreak.FIRST, cache=False
        )
        for code_id in MIXED_CODE_IDS
    }
    for request, fragments in zip(requests, served):
        oracle = oracles[request.code_id]
        context = catalog.context(request.context_id)
        assert len(fragments) == len(request.words)
        for word, fragment in zip(request.words, fragments):
            try:
                expected = result_payload(word, oracle.recover(word, context))
            except ReproError as error:
                expected = error_payload(word, error)
            assert fragment == json.dumps(expected, sort_keys=True)


def test_batch_engine_repeated_word_is_one_miss_and_one_hit(obs_swap):
    """A word repeated within one request is recovered once; its repeat
    is served from the answer cache."""
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    word = code.encode(0x8FBF0018) ^ 0b101
    request = RecoveryRequest(words=(word, word), context_id="mcf")
    (outcome,) = BatchEngine(catalog).execute([request])
    first, repeat = outcome["fragments"]
    assert first == repeat
    registry = obs_swap.registry
    assert registry.counter("service.result.cache_misses").value == 1
    assert registry.counter("service.result.cache_hits").value == 1
    assert registry.counter("service.recoveries").value == 2
    assert registry.counter("swdecc.recoveries").value == 1


def test_batch_engine_cache_clear_mid_request_forgets_its_words(
    obs_swap, monkeypatch
):
    """The answer cache clears when full, also between two copies of a
    word in one request: the second copy then misses and is recovered
    again, as a word-by-word store would have it."""
    monkeypatch.setattr(shards, "RESULT_CACHE_WORDS", 4)
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    words = tuple(code.encode(value) ^ 0b11 for value in range(5))
    request = RecoveryRequest(words=words + words[:1], context_id="none")
    engine = BatchEngine(catalog)
    (outcome,) = engine.execute([request])
    assert outcome["fragments"][0] == outcome["fragments"][-1]
    registry = obs_swap.registry
    assert registry.counter("service.result.cache_misses").value == 6
    assert registry.counter("service.result.cache_hits").value == 0
    assert registry.counter("swdecc.recoveries").value == 6
    # The cache holds the words stored since the clear: the fifth word
    # and the repeat.
    assert sorted(engine._cache[(DEFAULT_CODE_ID, "none")]) == sorted(
        (words[4], words[0])
    )


#: sha256 of :func:`_mixed_requests` (seed 2016) served four requests
#: per batch, each fragment followed by a newline: any change to the
#: served bytes, error words included, changes it.
GOLDEN_FRAGMENTS_SHA256 = (
    "fdf028eadfb87b6ff5cc7698568b445c1f901682d9a457194b09ab4232cbc333"
)


def test_batch_engine_fragments_match_golden_digest(obs_swap):
    catalog = ServiceCatalog()
    digest = hashlib.sha256()
    for fragments in _serve_in_batches(
        BatchEngine(catalog), _mixed_requests(catalog, seed=2016)
    ):
        for fragment in fragments:
            digest.update(fragment.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_FRAGMENTS_SHA256


def test_shard_pool_rejects_bad_worker_counts():
    spec = ShardSpec.from_catalog(ServiceCatalog())
    with pytest.raises(ServiceError):
        ShardPool(0, spec)


@pytest.mark.usefixtures("obs_swap")
class TestCatalogFreeze:
    """Late registrations must fail fast once shard workers snapshot."""

    def test_late_registration_fails_fast_across_process_boundary(self):
        catalog = ServiceCatalog()
        catalog.register_code("pre-start", canonical_secded_39_32())
        service = RecoveryService(port=0, workers=1, catalog=catalog)
        with service:
            assert catalog.frozen
            with pytest.raises(ServiceError, match="frozen"):
                catalog.register_code(
                    "too-late", canonical_secded_39_32()
                )
            with pytest.raises(ServiceError, match="workers=0"):
                catalog.register_context("too-late", RecoveryContext())
            # The pre-start registration still resolves through the
            # worker, so the snapshot semantics are intact end-to-end.
            code = canonical_secded_39_32()
            due = code.encode(0x1234) ^ 0b101
            payload = _post(
                service.url + "/recover",
                {"received": due, "code": "pre-start"},
            )
            assert payload["result"]["status"] == "recovered"
        # stop() thaws: a fresh registration is allowed again.
        assert not catalog.frozen
        catalog.register_code("post-stop", canonical_secded_39_32())

    def test_workers_zero_never_freezes(self):
        service = RecoveryService(port=0)
        with service:
            assert not service.catalog.frozen
            service.catalog.register_code(
                "mid-flight", canonical_secded_39_32()
            )

    def test_freeze_error_is_descriptive(self):
        catalog = ServiceCatalog()
        catalog.freeze("2 shard worker(s) forked")
        with pytest.raises(ServiceError) as error:
            catalog.register_code("late", canonical_secded_39_32())
        message = str(error.value)
        assert "late" in message
        assert "2 shard worker(s) forked" in message
        assert "before starting the service" in message
        catalog.thaw()
        catalog.register_code("late", canonical_secded_39_32())


def _serve_and_stop(pids) -> None:
    """Child body: start a one-shard service, report its shard's pid,
    stop it."""
    with RecoveryService(port=0, workers=1) as service:
        pids.put(service.shard_pool.worker_pids()[0])


def _pid_alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return False
    return stat[stat.rfind(b")") + 2:][:1] != b"Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_service_stopped_in_a_multiprocessing_child_exits():
    """Stopping the pool waits for its workers, so a multiprocessing
    child that ran a sharded service exits and leaves no shard behind."""
    mp = multiprocessing.get_context("spawn")
    pids = mp.Queue()
    child = mp.Process(target=_serve_and_stop, args=(pids,))
    child.start()
    shard_pid = None
    try:
        shard_pid = pids.get(timeout=120.0)
        child.join(timeout=20.0)
        assert not child.is_alive(), "the child did not exit within 20 s"
        assert child.exitcode == 0
        assert not _pid_alive(shard_pid), "the shard outlived its parent"
    finally:
        # Leave neither a hung child nor an orphaned shard behind.
        if child.is_alive():
            child.kill()
            child.join()
        if shard_pid is not None and _pid_alive(shard_pid):
            os.kill(shard_pid, signal.SIGKILL)


@pytest.mark.usefixtures("obs_swap")
class TestNewCodeFamilies:
    def test_catalog_resolves_daec_dec_dected(self):
        catalog = ServiceCatalog()
        for code_id, n in (
            ("daec-41-32", 41), ("dec-44-32", 44), ("dected-45-32", 45)
        ):
            code = catalog.code(code_id)
            assert (code.n, code.k) == (n, 32), code_id
            assert code_id in catalog.code_ids()

    def test_shard_worker_rebuilds_daec_factory_code(self):
        """Factory codes need no forwarding: a worker serves daec-41-32."""
        from repro.ecc import daec_code

        service = RecoveryService(port=0, workers=1)
        code = daec_code()
        # A non-adjacent double: a DUE even for the DAEC decoder.
        due = code.encode(0xDEADBEEF) ^ (1 << 40) ^ (1 << 2)
        with service:
            payload = _post(
                service.url + "/recover",
                {"received": due, "code": "daec-41-32"},
            )
        assert payload["result"]["status"] == "recovered"


def _post(url: str, payload: dict, timeout: float = 15.0) -> dict:
    import urllib.request

    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)
