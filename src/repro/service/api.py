"""Wire types for the DUE-recovery service.

JSON in, JSON out, stdlib only.  A request names the received word(s),
a code id, and a side-info context id (see
:mod:`repro.service.catalog`); a response reports per-word outcomes
with the ranked recovery targets, or the detect-only degradation
payload when the service sheds load.

Words accept either JSON integers or ``"0x..."`` strings (codewords
are wider than 32 bits, so hex is the ergonomic spelling).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.core.swdecc import RecoveryResult
from repro.errors import ServiceError
from repro.obs.trace import TraceContext
from repro.service.catalog import DEFAULT_CODE_ID, DEFAULT_CONTEXT_ID

__all__ = [
    "RecoveryRequest",
    "parse_word",
    "result_payload",
    "result_fragment",
    "error_payload",
    "detect_only_payload",
    "MAX_BATCH_WORDS",
]

#: Hard per-request word ceiling: a single request may not exceed the
#: whole queue; oversized batches are a malformed request (413), not
#: backpressure.
MAX_BATCH_WORDS = 4096

#: Longest per-request wait: a future's wait raises OverflowError past
#: the platform's lock-timeout limit (about 292 years).
MAX_TIMEOUT_MS = threading.TIMEOUT_MAX * 1000.0


def parse_word(raw: Any, width_bits: int) -> int:
    """Validate one received word (int or ``0x``-prefixed string)."""
    if isinstance(raw, bool):
        raise ServiceError(f"received word must be an integer, got {raw!r}")
    if isinstance(raw, str):
        try:
            word = int(raw, 0)
        except ValueError:
            raise ServiceError(f"received word {raw!r} is not an integer")
    elif isinstance(raw, int):
        word = raw
    else:
        raise ServiceError(f"received word must be an integer, got {raw!r}")
    if not 0 <= word < (1 << width_bits):
        raise ServiceError(
            f"received word 0x{word:x} does not fit the code's "
            f"{width_bits}-bit codewords"
        )
    return word


@dataclass(frozen=True)
class RecoveryRequest:
    """One parsed recovery job: N received words under one (code,
    context) pair.

    ``timeout_s`` bounds how long the HTTP handler waits for the
    batcher before degrading to detect-only; ``None`` means the
    server's default.

    ``trace`` is the request's sampled trace context, attached by the
    HTTP layer when a collector is recording; it rides the request
    through the batcher and across the shard process boundary (the
    tuple pickles) so worker-side spans re-parent correctly.  It is
    excluded from equality so identical recovery jobs still compare
    equal regardless of trace identity.
    """

    words: tuple[int, ...]
    code_id: str = DEFAULT_CODE_ID
    context_id: str = DEFAULT_CONTEXT_ID
    timeout_s: float | None = None
    raw_words: tuple[Any, ...] = field(default=(), repr=False)
    trace: TraceContext | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_json(
        cls,
        body: Any,
        *,
        batch: bool,
        width_for: "Any",
    ) -> "RecoveryRequest":
        """Parse and validate one request body.

        *width_for* maps a code id to its codeword width in bits (the
        server passes ``lambda code_id: catalog.code(code_id).n``, so
        an unknown code id surfaces here as a 400, before queueing).
        """
        if not isinstance(body, dict):
            raise ServiceError("request body must be a JSON object")
        known = {"received", "code", "context", "timeout_ms"}
        unknown = set(body) - known
        if unknown:
            raise ServiceError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        code_id = body.get("code", DEFAULT_CODE_ID)
        context_id = body.get("context", DEFAULT_CONTEXT_ID)
        if not isinstance(code_id, str) or not isinstance(context_id, str):
            raise ServiceError("'code' and 'context' must be strings")
        timeout_s: float | None = None
        if "timeout_ms" in body:
            raw_timeout = body["timeout_ms"]
            if (
                isinstance(raw_timeout, bool)
                or not isinstance(raw_timeout, (int, float))
                or not 0 < raw_timeout < math.inf  # also rejects NaN
            ):
                raise ServiceError("'timeout_ms' must be a positive number")
            if raw_timeout > MAX_TIMEOUT_MS:
                raise ServiceError(
                    f"'timeout_ms' must be at most {MAX_TIMEOUT_MS:.0f}"
                )
            timeout_s = float(raw_timeout) / 1000.0
        raw = body.get("received")
        if raw is None:
            raise ServiceError("request needs a 'received' field")
        width = width_for(code_id)
        if batch:
            if not isinstance(raw, list) or not raw:
                raise ServiceError(
                    "'received' must be a non-empty list of words"
                )
            if len(raw) > MAX_BATCH_WORDS:
                raise ServiceError(
                    f"batch of {len(raw)} words exceeds the per-request "
                    f"ceiling of {MAX_BATCH_WORDS}"
                )
            words = tuple(parse_word(entry, width) for entry in raw)
        else:
            words = (parse_word(raw, width),)
        return cls(
            words=words,
            code_id=code_id,
            context_id=context_id,
            timeout_s=timeout_s,
            raw_words=tuple(raw) if isinstance(raw, list) else (raw,),
        )


def result_payload(received: int, result: RecoveryResult) -> dict:
    """Per-word success payload: the chosen target plus the ranked list.

    Targets are the filter-surviving candidates (or, on filter
    fallback, all candidates) sorted best-first: score descending,
    message ascending as the deterministic tie order — the same order
    the FIRST tie-break picks from.

    The reference for :func:`result_fragment`, which the service uses
    to write the same payload as JSON text.
    """
    chosen = result.chosen_message
    return {
        "status": "recovered",
        "received": received,
        "chosen_message": chosen,
        "chosen_codeword": result.chosen_codeword,
        "num_candidates": result.num_candidates,
        "num_valid": result.num_valid,
        "filter_fell_back": result.filter_fell_back,
        "tied": result.tied,
        "targets": [
            {"message": message, "score": score, "chosen": message == chosen}
            for message, score in result.ranked_targets()
        ],
    }


def _json_value(value: Any) -> str:
    """``json.dumps(value)``, with plain ints, finite floats and bools
    written directly (as the encoder writes them)."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and value - value == 0.0:  # NaN and ±inf give NaN
        return float.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(value)


def result_fragment(received: int, result: RecoveryResult) -> str:
    """The JSON text of :func:`result_payload`, written directly.

    Byte-identical to ``json.dumps(result_payload(received, result),
    sort_keys=True)`` — keys in sorted order, the encoder's default
    separators — without building the payload dict or running the
    encoder.
    """
    chosen = result.chosen_message
    targets = ", ".join([
        f'{{"chosen": {"true" if message == chosen else "false"}, '
        f'"message": {_json_value(message)}, '
        f'"score": {_json_value(score)}}}'
        for message, score in result.ranked_targets()
    ])
    return (
        f'{{"chosen_codeword": {_json_value(result.chosen_codeword)}, '
        f'"chosen_message": {_json_value(chosen)}, '
        f'"filter_fell_back": {_json_value(result.filter_fell_back)}, '
        f'"num_candidates": {_json_value(result.num_candidates)}, '
        f'"num_valid": {_json_value(result.num_valid)}, '
        f'"received": {_json_value(received)}, '
        f'"status": "recovered", "targets": [{targets}], '
        f'"tied": {_json_value(result.tied)}}}'
    )


def error_payload(received: int, error: Exception) -> dict:
    """Per-word failure payload (not-a-DUE, no candidates, ...)."""
    return {
        "status": "error",
        "received": received,
        "error": type(error).__name__,
        "detail": str(error),
    }


def detect_only_payload(received: Any, reason: str) -> dict:
    """The degradation payload: the DUE is *reported*, never guessed.

    Mirrors the paper's framing that a crash (machine check) is the
    baseline a conventional system provides: under overload or timeout
    the service still tells the caller a DUE happened, it just skips
    the heuristic recovery instead of queueing without bound.
    """
    return {
        "status": "detect-only",
        "received": received,
        "reason": reason,
    }
