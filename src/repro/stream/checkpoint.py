"""Durable checkpoints for out-of-core streaming scans.

A checkpoint is a small JSON document holding everything needed to
continue an interrupted job: the session's byte-exact carry state and
stream offset (:meth:`ScanSession.state_dict`), the input's element
count (so a checkpoint cannot be replayed against the wrong file), the
cumulative counters, and a configuration hash that both proves the
file's integrity and identifies the job it belongs to.

Writes are **atomic and durable**: the document is written to a
same-directory temporary file, flushed, fsync'd, ``os.replace``'d over
the target, and finally the *containing directory* is fsync'd — the
rename itself is metadata held by the directory, so without the
directory fsync a crash immediately after ``os.replace`` could roll
the rename back and resurrect the previous checkpoint (or none at
all).  A crash at any point therefore leaves either the previous
checkpoint or the new one — never a torn file, and never an
un-renamed one claimed as written.  The driver additionally fsyncs the
*output* file before every checkpoint write, so a checkpoint never
claims more progress than is durably on disk.

The same machinery persists the **per-shard manifest** of the sharded
driver (:mod:`repro.stream.sharded`): a manifest is a checkpoint-like
document recording the shard plan, the current phase (``"reduce"`` or
``"scan"``), which shards of it are done, and the reduce aggregates —
enough for a killed sharded job to resume only its unfinished shards.
Version 2 is the reduce-then-scan layout; a version-1 manifest (the
scan/fold layout) is rejected.
"""

from __future__ import annotations

import json
import os
import stat

from repro.stream.errors import CheckpointError
from repro.stream.session import hash_config

CHECKPOINT_KIND = "repro-stream-checkpoint"
CHECKPOINT_VERSION = 1

MANIFEST_KIND = "repro-stream-shard-manifest"
MANIFEST_VERSION = 2


def build_checkpoint(
    session_state: dict,
    input_elements: int,
    counters: dict,
    io: dict = None,
) -> dict:
    """Assemble the checkpoint document for one progress point.

    ``io`` is the optional compressed-streaming record — input/output
    container formats plus the blocked writer's cursor — absent for
    raw-byte jobs, so their checkpoints are unchanged from version 1.
    """
    payload = {
        "kind": CHECKPOINT_KIND,
        "version": CHECKPOINT_VERSION,
        "input_elements": int(input_elements),
        "session": session_state,
        "counters": counters,
    }
    if io is not None:
        payload["io"] = dict(io)
    return payload


def _fsync_directory(path: str) -> None:
    """fsync the directory holding ``path`` so a rename into it is durable.

    Directory fds are a POSIX affordance; on platforms that cannot open
    a directory for reading (notably Windows) this silently degrades to
    the pre-fsync behavior rather than failing the checkpoint.
    """
    directory = os.path.dirname(path) or "."
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        dir_fd = os.open(directory, flags)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        if stat.S_ISDIR(os.fstat(dir_fd).st_mode):
            os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(dir_fd)


def write_checkpoint(path, payload: dict) -> None:
    """Atomically and durably persist ``payload`` to ``path``
    (tmp + fsync + rename + directory fsync)."""
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    blob = json.dumps(payload, indent=2, sort_keys=True)
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(blob + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    # The rename lives in the directory's metadata: without this fsync
    # a crash can durably keep the tmp write yet lose the rename.
    _fsync_directory(path)


def read_checkpoint(path) -> dict:
    """Load and structurally validate a checkpoint document.

    Raises :class:`CheckpointError` on unreadable/foreign/corrupt
    files; configuration *mismatches* against the resuming job are the
    driver's to detect (it knows the job).
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(f"{path!r} is not a repro stream checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has version {payload.get('version')!r}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    session = payload.get("session")
    if not isinstance(session, dict):
        raise CheckpointError(f"checkpoint {path!r} lacks a session state")
    for key in ("offset", "carry", "config", "config_hash"):
        if key not in session:
            raise CheckpointError(
                f"checkpoint {path!r} session state lacks {key!r}"
            )
    if hash_config(session["config"]) != session["config_hash"]:
        raise CheckpointError(
            f"checkpoint {path!r} failed its integrity check "
            f"(config hash does not match the stored configuration)"
        )
    return payload


def build_shard_manifest(
    config: dict,
    input_elements: int,
    shards: list,
    state: dict,
    io: dict = None,
) -> dict:
    """Assemble the sharded driver's manifest document.

    ``state`` is the sharded driver's progress record (current phase,
    per-shard done flags, reduce aggregates); the manifest wraps it
    with the identity fields every resume must validate first.  ``io``
    (optional) records the input container format for compressed-input
    jobs.
    """
    payload = {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "input_elements": int(input_elements),
        "config": dict(config),
        "config_hash": hash_config(config),
        "shards": [[int(lo), int(hi)] for lo, hi in shards],
        "state": state,
    }
    if io is not None:
        payload["io"] = dict(io)
    return payload


def read_shard_manifest(path) -> dict:
    """Load and structurally validate a shard manifest document."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read shard manifest {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != MANIFEST_KIND:
        raise CheckpointError(f"{path!r} is not a repro shard manifest")
    if payload.get("version") != MANIFEST_VERSION:
        raise CheckpointError(
            f"shard manifest {path!r} has version {payload.get('version')!r}, "
            f"this build reads version {MANIFEST_VERSION}"
        )
    for key in ("input_elements", "config", "config_hash", "shards", "state"):
        if key not in payload:
            raise CheckpointError(f"shard manifest {path!r} lacks {key!r}")
    if hash_config(payload["config"]) != payload["config_hash"]:
        raise CheckpointError(
            f"shard manifest {path!r} failed its integrity check "
            f"(config hash does not match the stored configuration)"
        )
    return payload
