"""The server's pool of named scan sessions, checkpointable as a whole.

A :class:`SessionRegistry` maps client-chosen names to live
:class:`~repro.stream.ScanSession` objects.  It is the unit of server
persistence: :meth:`state_dict` snapshots every session's byte-exact
carry state (via the existing ``ScanSession.state_dict`` machinery)
plus its counters, and :meth:`save`/:meth:`load` persist that snapshot
with the same atomic-and-durable tmp/fsync/rename/dir-fsync writer the
stream checkpoints use — so a SIGKILL'd server restarted with
``--restore`` resumes every session exactly at its last checkpointed
offset, and clients continue bit-identically from there.

The registry is deliberately synchronous and lock-free: the server
serializes all access through its own asyncio lock (one dispatcher
mutates sessions; control verbs share the lock), so the registry never
needs to defend itself.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.serve.errors import SessionExistsError, UnknownSessionError
from repro.stream.checkpoint import write_checkpoint
from repro.stream.counters import StreamCounters
from repro.stream.errors import CheckpointError, CheckpointMismatchError
from repro.stream.session import ScanSession

REGISTRY_KIND = "repro-serve-registry"
REGISTRY_VERSION = 1


class SessionRegistry:
    """Named, restorable pool of :class:`ScanSession` objects."""

    def __init__(self):
        self._sessions: Dict[str, ScanSession] = {}
        #: Counters of sessions that were explicitly closed, kept so
        #: aggregate stats stay cumulative across session lifetimes.
        self._retired = StreamCounters()
        self.restores = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def names(self):
        return sorted(self._sessions)

    # -- lifecycle -------------------------------------------------------

    def open(
        self,
        name: str,
        *,
        op="add",
        order: int = 1,
        tuple_size: int = 1,
        inclusive: bool = True,
        dtype="int64",
        threads=None,
        float_mode=None,
    ) -> Tuple[ScanSession, bool]:
        """Get-or-create the named session; returns ``(session, created)``.

        OPEN is idempotent for an identical configuration (the client
        reconnecting after a server restart just gets the live session
        and its current offset back); a conflicting configuration
        raises :class:`SessionExistsError` — names are an exactness
        contract, never silently rebound.  ``dtype`` is required up
        front: the wire protocol decodes FEED payloads with it.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"session name must be a non-empty string, got {name!r}")
        if dtype is None:
            raise ValueError("serve sessions need an explicit dtype at OPEN")
        candidate = ScanSession(
            op=op,
            order=order,
            tuple_size=tuple_size,
            inclusive=inclusive,
            dtype=dtype,
            threads=threads,
            float_mode=float_mode,
        )
        existing = self._sessions.get(name)
        if existing is not None:
            if existing.config() != candidate.config():
                raise SessionExistsError(
                    f"session {name!r} already exists with a different "
                    f"configuration (existing {existing.config()!r}, "
                    f"requested {candidate.config()!r})"
                )
            return existing, False
        self._sessions[name] = candidate
        return candidate, True

    def get(self, name: str) -> ScanSession:
        session = self._sessions.get(name)
        if session is None:
            raise UnknownSessionError(
                f"no session named {name!r} (open it first, or the server "
                f"restarted without a checkpoint that contained it)"
            )
        return session

    def close(self, name: str) -> StreamCounters:
        """Forget the named session; returns its final counters."""
        session = self.get(name)
        del self._sessions[name]
        self._retired = StreamCounters.aggregate(
            [self._retired, session.counters], engine_used=self._retired.engine_used
        )
        return session.counters

    def restore_session(
        self, name: str, state: dict, counters: Optional[dict] = None, threads=None
    ) -> ScanSession:
        """Create (or replace) ``name`` from a ``state_dict`` snapshot.

        The session is rebuilt with the configuration recorded *in the
        state* and the state loaded through
        :meth:`ScanSession.load_state_dict`, which re-validates the
        config hash — a tampered or mismatched snapshot raises the
        typed :class:`~repro.stream.errors.CheckpointMismatchError`
        before the registry is touched.  RESTORE is authoritative: an
        existing session under the same name is replaced.
        """
        config = state.get("config")
        if not isinstance(config, dict):
            raise CheckpointError("session state lacks its config record")
        try:
            session = ScanSession(
                op=config.get("op", "add"),
                order=config.get("order", 1),
                tuple_size=config.get("tuple_size", 1),
                inclusive=config.get("inclusive", True),
                dtype=config.get("dtype"),
                threads=threads,
                float_mode=config.get("float_mode"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointMismatchError(
                f"session state records an unusable config {config!r}: {exc}"
            ) from exc
        session.load_state_dict(state)
        if counters:
            session.counters = StreamCounters.from_dict(counters)
        session.counters.resumes += 1
        self._sessions[name] = session
        self.restores += 1
        return session

    # -- whole-registry persistence --------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every session (state + counters)."""
        return {
            "sessions": {
                name: {
                    "state": session.state_dict(),
                    "counters": session.counters.to_dict(),
                }
                for name, session in sorted(self._sessions.items())
            }
        }

    def load_state_dict(self, doc: dict) -> None:
        """Restore every session recorded by :meth:`state_dict`."""
        sessions = doc.get("sessions")
        if not isinstance(sessions, dict):
            raise CheckpointError("registry snapshot lacks its sessions map")
        for name, record in sessions.items():
            self.restore_session(
                name, record["state"], counters=record.get("counters")
            )

    def save(self, path) -> None:
        """Atomically and durably persist the registry to ``path``."""
        payload = {
            "kind": REGISTRY_KIND,
            "version": REGISTRY_VERSION,
            "saved_at": time.time(),
            "registry": self.state_dict(),
        }
        write_checkpoint(path, payload)

    def load(self, path) -> int:
        """Restore the registry persisted at ``path``; returns the
        number of sessions restored.  Raises
        :class:`~repro.stream.errors.CheckpointError` on foreign or
        corrupt files (each session state's config hash is re-validated
        on the way in)."""
        import json
        import os

        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"cannot read registry checkpoint {path!r}: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("kind") != REGISTRY_KIND:
            raise CheckpointError(f"{path!r} is not a repro serve registry")
        if payload.get("version") != REGISTRY_VERSION:
            raise CheckpointError(
                f"registry checkpoint {path!r} has version "
                f"{payload.get('version')!r}, this build reads "
                f"version {REGISTRY_VERSION}"
            )
        self.load_state_dict(payload.get("registry", {}))
        return len(self._sessions)

    # -- stats ------------------------------------------------------------

    def aggregate_counters(self) -> StreamCounters:
        """Cumulative counters over live *and* closed sessions."""
        return StreamCounters.aggregate(
            [self._retired, *(s.counters for s in self._sessions.values())]
        )

    def stats(self) -> dict:
        """Per-session stats map (config, offset, counters)."""
        return {
            name: {
                "config": session.config(),
                "offset": session.offset,
                "counters": session.counters.to_dict(),
            }
            for name, session in sorted(self._sessions.items())
        }
