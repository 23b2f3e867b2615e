"""repro.stream — out-of-core, resumable streaming scan sessions.

The subsystem has three layers:

* :class:`ScanSession` (``session.py``) — the O(1) carry state of the
  paper's single-pass algorithm, persisted across ``feed(chunk)``
  calls; bit-identical to a one-shot scan of the concatenation for
  every op / dtype / order / tuple size, inclusive and exclusive.
* Checkpoints (``checkpoint.py``) — atomic, integrity-hashed snapshots
  of a session (carry state + offset + config hash + counters).
* :func:`scan_file` (``driver.py``) — the out-of-core driver: one
  read, one in-place scan and one write per chunk through any inner
  engine, chunk i+1 prefetched while chunk i scans (a one-chunk job
  starts no thread), durable checkpoints every k chunks,
  ``resume=True`` continuation after interruption.
* :func:`scan_file_sharded` (``sharded.py``) — the sharded driver as
  reduce-then-scan: S contiguous shards reduced read-only, their
  aggregates spliced on the host, then every shard scanned from its
  exact carry and written once; per-shard manifest checkpoints resume
  only the unfinished shards.

Quickstart::

    from repro.stream import ScanSession, scan_file

    session = ScanSession(op="add", order=2, tuple_size=3)
    for chunk in chunks:                # arbitrary boundaries
        out.append(session.feed(chunk))

    scan_file("huge.bin", "scanned.bin", dtype="int64",
              chunk_bytes=32 << 20, checkpoint="job.ckpt", resume=True)
"""

from repro.stream.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    MANIFEST_KIND,
    MANIFEST_VERSION,
    build_checkpoint,
    build_shard_manifest,
    read_checkpoint,
    read_shard_manifest,
    write_checkpoint,
)
from repro.stream.counters import StreamCounters
from repro.stream.driver import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_CHUNK_BYTES,
    StreamResult,
    scan_file,
)
from repro.stream.errors import (
    CheckpointError,
    CheckpointMismatchError,
    InjectedFailureError,
    SessionStateError,
    StreamError,
)
from repro.stream.session import ScanSession, hash_config
from repro.stream.sharded import (
    ShardedResult,
    plan_shards,
    scan_file_sharded,
)

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointMismatchError",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_CHUNK_BYTES",
    "InjectedFailureError",
    "MANIFEST_KIND",
    "MANIFEST_VERSION",
    "ScanSession",
    "SessionStateError",
    "ShardedResult",
    "StreamCounters",
    "StreamError",
    "StreamResult",
    "build_checkpoint",
    "build_shard_manifest",
    "hash_config",
    "plan_shards",
    "read_checkpoint",
    "read_shard_manifest",
    "scan_file",
    "scan_file_sharded",
    "write_checkpoint",
]
