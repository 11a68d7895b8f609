"""Online DUE-recovery service: batching, backpressure, HTTP API.

The paper's recovery path is *on demand* — invoked when the memory
controller reports a detected-but-uncorrectable error.  This package
turns the offline engine into that long-lived service:

- :mod:`repro.service.catalog` — id-addressed codes, engines, and
  side-info contexts with stable identity.
- :mod:`repro.service.api` — JSON wire types and payload builders.
- :mod:`repro.service.batcher` — bounded-queue micro-batching with
  explicit backpressure, single-queue or sharded-router flavours.
- :mod:`repro.service.shards` — pre-forked worker-process shards
  (the batch engine, placement hash, and respawn policy).
- :mod:`repro.service.server` — the HTTP frontend, a
  :class:`repro.obs.server.ObsServer` that adds the recovery routes.
"""

from repro.service.api import (
    MAX_BATCH_WORDS,
    RecoveryRequest,
    detect_only_payload,
    error_payload,
    result_fragment,
    result_payload,
)
from repro.service.batcher import RecoveryBatcher, ShardedBatcher
from repro.service.catalog import (
    DEFAULT_CODE_ID,
    DEFAULT_CONTEXT_ID,
    ServiceCatalog,
)
from repro.service.selector import (
    AdaptiveCodeSelector,
    CodeSwitch,
    SelectorPolicy,
)
from repro.service.server import RecoveryService
from repro.service.shards import BatchEngine, ShardPool, ShardSpec

__all__ = [
    "MAX_BATCH_WORDS",
    "RecoveryRequest",
    "detect_only_payload",
    "error_payload",
    "result_payload",
    "result_fragment",
    "RecoveryBatcher",
    "ShardedBatcher",
    "BatchEngine",
    "ShardPool",
    "ShardSpec",
    "DEFAULT_CODE_ID",
    "DEFAULT_CONTEXT_ID",
    "ServiceCatalog",
    "RecoveryService",
    "AdaptiveCodeSelector",
    "CodeSwitch",
    "SelectorPolicy",
]
