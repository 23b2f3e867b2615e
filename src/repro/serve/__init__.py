"""repro.serve — the async scan service.

A long-lived daemon (``python -m repro serve``) owning named
:class:`~repro.stream.ScanSession` objects, fed by many concurrent
clients over a length-prefixed binary protocol (TCP or unix socket).
Concurrent feeds from different sessions are coalesced into batched
kernel dispatches (:func:`feed_batch` over a
:class:`~repro.kernels.BatchedLaneKernel`); the whole session registry
checkpoints atomically so a killed server restarts bit-identically.

Layers:

* :mod:`repro.serve.protocol` — the frame format and verbs.
* :mod:`repro.serve.errors` — typed service errors (wire round-trip).
* :mod:`repro.serve.batch` — ``feed_batch``: B session feeds in
  ``order`` kernel dispatches, bit-identical to sequential ``feed``.
* :mod:`repro.serve.registry` — named session pool + checkpoint.
* :mod:`repro.serve.server` — the asyncio daemon (backpressure,
  dispatcher rounds, durability).
* :mod:`repro.serve.client` — blocking :class:`ScanClient` with
  pipelined ``feed_many``.
"""

from repro.serve.batch import batch_key, feed_batch
from repro.serve.client import ScanClient, parse_address
from repro.serve.errors import (
    FeedRejectedError,
    ProtocolError,
    ServeError,
    ServerClosedError,
    SessionExistsError,
    UnknownSessionError,
)
from repro.serve.registry import SessionRegistry
from repro.serve.server import ScanServer

__all__ = [
    "ScanClient",
    "ScanServer",
    "SessionRegistry",
    "batch_key",
    "feed_batch",
    "parse_address",
    "ServeError",
    "ProtocolError",
    "UnknownSessionError",
    "SessionExistsError",
    "FeedRejectedError",
    "ServerClosedError",
]
