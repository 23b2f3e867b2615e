"""The asyncio scan server: many connections, batched kernel dispatches.

:class:`ScanServer` owns a :class:`~repro.serve.registry.SessionRegistry`
and listens on TCP or a unix socket for the framing protocol in
:mod:`repro.serve.protocol`.  Its architecture is one dispatcher, many
readers:

* Each connection gets a reader coroutine that parses frames.  Control
  verbs (OPEN/SNAPSHOT/RESTORE/CLOSE/STATS) are answered inline under
  the registry lock.  FEED frames are *enqueued* — the reader replies
  nothing yet — and the connection's inflight-byte budget is charged.
* A single dispatcher coroutine drains the queue in rounds.  Per round
  it takes at most one pending feed per session (feeds to the same
  session must stay ordered), groups the taken feeds by batch key, and
  services each group with one :func:`repro.serve.batch.feed_batch`
  call — B sessions, ``order`` kernel dispatches — falling back to
  per-session ``feed`` for singleton or unbatchable sessions.  DATA
  replies (scanned bytes + new offset) are written as each round
  completes, refunding the inflight budget.
* Backpressure is explicit: a FEED that would push the connection past
  ``max_inflight_bytes`` is answered with a BUSY frame immediately and
  never enqueued; the client retries after draining pending replies.

Durability: with a checkpoint path configured the dispatcher persists
the whole registry (atomic tmp/fsync/rename) every
``checkpoint_every`` feeds and at graceful shutdown, so a SIGKILL'd
server restarted with ``--restore`` resumes every session at its last
checkpointed offset, bit-identically.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve import protocol
from repro.serve.batch import batch_key, feed_batch, feeds_solo
from repro.serve.errors import ProtocolError, error_to_header
from repro.serve.registry import SessionRegistry
from repro.stream.errors import SessionStateError
from repro.kernels import BatchedLaneKernel

#: Dispatcher takes at most this many feeds per round by default.
DEFAULT_BATCH_MAX = 64

#: Per-connection inflight FEED budget before BUSY replies (bytes).
DEFAULT_MAX_INFLIGHT_BYTES = 8 << 20

DEFAULT_CHECKPOINT_EVERY = 256


class _Connection:
    """Per-connection bookkeeping shared by reader and dispatcher."""

    __slots__ = (
        "reader",
        "writer",
        "write_lock",
        "inflight_bytes",
        "busy_until_drained",
        "name",
    )

    def __init__(self, reader, writer, name: str):
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.inflight_bytes = 0
        # Once a feed is rejected BUSY, every later feed from this
        # connection is rejected too until its inflight drains to zero.
        # Otherwise a pipelined feed *behind* the rejected one could be
        # accepted as the budget refunds, scanning chunks out of order.
        self.busy_until_drained = False
        self.name = name

    async def send(self, verb: int, header: dict, payload: bytes = b"") -> None:
        async with self.write_lock:
            await protocol.write_frame(self.writer, verb, header, payload)


class _PendingFeed:
    """One enqueued FEED awaiting a dispatcher round."""

    __slots__ = ("conn", "session_name", "chunk", "request_id", "nbytes")

    def __init__(self, conn, session_name, chunk, request_id, nbytes):
        self.conn = conn
        self.session_name = session_name
        self.chunk = chunk
        self.request_id = request_id
        self.nbytes = nbytes


class ScanServer:
    """Async scan service over a session registry.

    Parameters mirror the ``repro serve`` CLI: listen on ``host:port``
    or ``unix_path``; ``checkpoint`` + ``checkpoint_every`` control
    registry durability; ``batch_max`` bounds feeds per dispatcher
    round; ``max_inflight_bytes`` is the per-connection FEED budget
    before BUSY replies.
    """

    def __init__(
        self,
        registry: Optional[SessionRegistry] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        checkpoint: Optional[str] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        batch_max: int = DEFAULT_BATCH_MAX,
        max_inflight_bytes: int = DEFAULT_MAX_INFLIGHT_BYTES,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
    ):
        self.registry = registry if registry is not None else SessionRegistry()
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.checkpoint = checkpoint
        self.checkpoint_every = max(1, int(checkpoint_every))
        self.batch_max = max(1, int(batch_max))
        self.max_inflight_bytes = max(1, int(max_inflight_bytes))
        self.max_frame_bytes = max_frame_bytes

        self._server: Optional[asyncio.AbstractServer] = None
        self._lock = asyncio.Lock()
        self._queue: deque = deque()
        self._queue_event = asyncio.Event()
        self._stopping = asyncio.Event()
        self._dispatcher_task: Optional[asyncio.Task] = None
        self._kernels: Dict[Tuple, BatchedLaneKernel] = {}
        self._conn_seq = 0
        self._feeds_since_checkpoint = 0

        # Gauges reported by STATS.
        self.feeds_dispatched = 0
        self.batch_dispatches = 0
        self.solo_dispatches = 0
        self.busy_rejections = 0
        self.max_queue_depth = 0
        self.checkpoint_writes = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> str:
        """The bound address, e.g. ``127.0.0.1:4915`` or ``unix:/tmp/s``."""
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind, start listening, and start the dispatcher."""
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self._dispatcher_task = asyncio.create_task(self._dispatch_loop())

    def request_stop(self) -> None:
        """Ask the server to shut down (signal-handler and test safe)."""
        self._stopping.set()
        self._queue_event.set()

    async def stop(self) -> None:
        """Stop listening, flush a final checkpoint, close connections."""
        self.request_stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher_task is not None:
            await self._dispatcher_task
            self._dispatcher_task = None
        async with self._lock:
            self._save_checkpoint(force=True)

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (or the task is cancelled)."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()

    # -- connection reader ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._conn_seq += 1
        conn = _Connection(reader, writer, f"conn-{self._conn_seq}")
        try:
            while not self._stopping.is_set():
                try:
                    frame = await protocol.read_frame(reader, self.max_frame_bytes)
                except ProtocolError:
                    break
                if frame is None:
                    break
                verb, header, payload = frame
                request_id = header.get("id")
                try:
                    await self._handle_frame(conn, verb, header, payload)
                except Exception as exc:  # typed errors cross as ERROR frames
                    try:
                        await conn.send(
                            protocol.ERROR,
                            {**error_to_header(exc), "id": request_id},
                        )
                    except (ConnectionError, OSError):
                        break
        except asyncio.CancelledError:
            # Event-loop shutdown while parked on a read: exit quietly
            # so the streams machinery doesn't log a cancelled task.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_frame(self, conn, verb, header, payload) -> None:
        request_id = header.get("id")
        if verb == protocol.FEED:
            await self._enqueue_feed(conn, header, payload)
            return
        async with self._lock:
            if verb == protocol.OPEN:
                threads = header.get("threads")
                planned_threads = threads is None
                if planned_threads:
                    # No pin from the client: ask the planner whether this
                    # host/dtype/op combination profits from slab threads
                    # (threads= is excluded from the session config hash,
                    # so the answer cannot conflict an OPEN or a restore).
                    from repro.plan import session_threads

                    threads = session_threads(
                        header.get("dtype", "int64"),
                        header.get("op", "add"),
                        float_mode=header.get("float_mode"),
                        order=header.get("order", 1),
                        tuple_size=header.get("tuple_size", 1),
                    )
                session, created = self.registry.open(
                    header.get("session"),
                    op=header.get("op", "add"),
                    order=header.get("order", 1),
                    tuple_size=header.get("tuple_size", 1),
                    inclusive=header.get("inclusive", True),
                    dtype=header.get("dtype", "int64"),
                    threads=threads,
                    float_mode=header.get("float_mode"),
                )
                if created and planned_threads and threads is not None:
                    session.counters.planner_strategy = f"session_threads:{threads}"
                reply = {
                    "id": request_id,
                    "created": created,
                    "offset": session.offset,
                    "config": session.config(),
                }
                await conn.send(protocol.OK, reply)
            elif verb == protocol.SNAPSHOT:
                session = self.registry.get(header.get("session"))
                reply = {
                    "id": request_id,
                    "state": session.state_dict(),
                    "counters": session.counters.to_dict(),
                }
                await conn.send(protocol.DATA, reply)
            elif verb == protocol.RESTORE:
                state = header.get("state")
                if not isinstance(state, dict):
                    raise ProtocolError("RESTORE needs a state object")
                session = self.registry.restore_session(
                    header.get("session"), state, counters=header.get("counters")
                )
                await conn.send(
                    protocol.OK, {"id": request_id, "offset": session.offset}
                )
            elif verb == protocol.CLOSE:
                counters = self.registry.close(header.get("session"))
                await conn.send(
                    protocol.OK, {"id": request_id, "counters": counters.to_dict()}
                )
            elif verb == protocol.STATS:
                await conn.send(protocol.DATA, self._stats_reply(request_id))
            else:
                raise ProtocolError(
                    f"unknown request verb 0x{verb:02x}"
                )

    async def _enqueue_feed(self, conn, header, payload) -> None:
        request_id = header.get("id")
        name = header.get("session")
        async with self._lock:
            session = self.registry.get(name)  # raises UnknownSessionError
            claimed = header.get("dtype")
            if claimed is not None and np.dtype(claimed) != session.dtype:
                raise SessionStateError(
                    f"session {name!r} is locked to dtype "
                    f"{session.dtype.name}, FEED carries {claimed}"
                )
            if len(payload) % session.dtype.itemsize:
                raise ProtocolError(
                    f"FEED payload of {len(payload)} bytes is not a "
                    f"multiple of the {session.dtype.itemsize}-byte "
                    f"{session.dtype.name} itemsize"
                )
            if (
                conn.busy_until_drained
                and conn.inflight_bytes == 0
                and header.get("retry")
            ):
                # The client drained every pending reply and is
                # explicitly resending from the rejected chunk — only
                # that clears the latch.  A merely-later pipelined
                # chunk (no retry flag) stays rejected even at zero
                # inflight, else it would scan ahead of the rejected
                # one and break session order.
                conn.busy_until_drained = False
            if conn.busy_until_drained or (
                conn.inflight_bytes + len(payload) > self.max_inflight_bytes
                and conn.inflight_bytes > 0
            ):
                conn.busy_until_drained = True
                self.busy_rejections += 1
                await conn.send(
                    protocol.BUSY,
                    {
                        "id": request_id,
                        "inflight_bytes": conn.inflight_bytes,
                        "max_inflight_bytes": self.max_inflight_bytes,
                    },
                )
                return
            chunk = np.frombuffer(payload, dtype=session.dtype)
            conn.inflight_bytes += len(payload)
            self._queue.append(
                _PendingFeed(conn, name, chunk, request_id, len(payload))
            )
            self.max_queue_depth = max(self.max_queue_depth, len(self._queue))
        self._queue_event.set()

    # -- dispatcher -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._queue_event.wait()
            self._queue_event.clear()
            while self._queue:
                async with self._lock:
                    round_feeds = self._take_round()
                    replies = self._run_round(round_feeds)
                for conn, verb, header, payload in replies:
                    try:
                        await conn.send(verb, header, payload)
                    except (ConnectionError, OSError):
                        pass
                # Checkpoint strictly AFTER the replies: the durable
                # offset must never run ahead of what clients have
                # received.  A crash between reply and checkpoint only
                # re-feeds already-delivered chunks (bit-identical
                # rewrites); the other order would leave a gap no
                # client could ever fill.
                async with self._lock:
                    self._save_checkpoint()
                # Yield so readers can enqueue the next wave — that is
                # what lets pipelined feeds from many clients coalesce
                # into the following round.
                await asyncio.sleep(0)
            if self._stopping.is_set():
                return

    def _take_round(self) -> List[_PendingFeed]:
        """Dequeue up to ``batch_max`` feeds, at most one per session
        (same-session feeds stay FIFO across rounds)."""
        taken: List[_PendingFeed] = []
        deferred: deque = deque()
        seen = set()
        while self._queue and len(taken) < self.batch_max:
            feed = self._queue.popleft()
            if feed.session_name in seen:
                deferred.append(feed)
            else:
                seen.add(feed.session_name)
                taken.append(feed)
        while deferred:
            self._queue.appendleft(deferred.pop())
        return taken

    def _run_round(self, round_feeds: List[_PendingFeed]):
        """Service one round; returns the DATA/ERROR replies to write."""
        groups: Dict[object, List[_PendingFeed]] = {}
        order: List[object] = []
        dropped: List[Tuple[_PendingFeed, BaseException]] = []
        for feed in round_feeds:
            try:
                session = self.registry.get(feed.session_name)
            except Exception as exc:
                dropped.append((feed, exc))
                continue
            key = batch_key(session)
            if key is None or feeds_solo(session, feed.nbytes):
                group_key = ("solo", id(session))
            else:
                group_key = ("batch",) + key
            if group_key not in groups:
                groups[group_key] = []
                order.append(group_key)
            groups[group_key].append(feed)

        replies = []
        for feed, exc in dropped:
            feed.conn.inflight_bytes -= feed.nbytes
            replies.append(
                (
                    feed.conn,
                    protocol.ERROR,
                    {**error_to_header(exc), "id": feed.request_id},
                    b"",
                )
            )
        for group_key in order:
            feeds = groups[group_key]
            sessions = [self.registry.get(f.session_name) for f in feeds]
            try:
                if len(feeds) > 1 and group_key[0] == "batch":
                    kernel = self._kernels.get(group_key)
                    if kernel is None:
                        first = sessions[0]
                        kernel = BatchedLaneKernel(
                            first.op, first.dtype, first.tuple_size
                        )
                        self._kernels[group_key] = kernel
                    outs = feed_batch(sessions, [f.chunk for f in feeds], kernel)
                    self.batch_dispatches += 1
                else:
                    outs = [s.feed(f.chunk) for s, f in zip(sessions, feeds)]
                    self.solo_dispatches += len(feeds)
            except Exception as exc:
                for feed in feeds:
                    feed.conn.inflight_bytes -= feed.nbytes
                    replies.append(
                        (
                            feed.conn,
                            protocol.ERROR,
                            {**error_to_header(exc), "id": feed.request_id},
                            b"",
                        )
                    )
                continue
            for feed, session, out in zip(feeds, sessions, outs):
                feed.conn.inflight_bytes -= feed.nbytes
                self.feeds_dispatched += 1
                self._feeds_since_checkpoint += 1
                replies.append(
                    (
                        feed.conn,
                        protocol.DATA,
                        {"id": feed.request_id, "offset": session.offset},
                        np.ascontiguousarray(out).tobytes(),
                    )
                )
        return replies

    # -- durability and stats ---------------------------------------------

    def _save_checkpoint(self, force: bool = False) -> None:
        if self.checkpoint is None:
            return
        if not force and self._feeds_since_checkpoint < self.checkpoint_every:
            return
        self.registry.save(self.checkpoint)
        self.checkpoint_writes += 1
        self._feeds_since_checkpoint = 0

    def _stats_reply(self, request_id) -> dict:
        kernels = list(self._kernels.values())
        streams_fed = sum(k.streams_fed for k in kernels)
        dispatches = sum(k.dispatches for k in kernels)
        occupancy = (streams_fed / dispatches) if dispatches else 0.0
        return {
            "id": request_id,
            "sessions": self.registry.stats(),
            "aggregate": self.registry.aggregate_counters().to_dict(),
            "gauges": {
                "feeds_dispatched": self.feeds_dispatched,
                "batch_dispatches": self.batch_dispatches,
                "solo_dispatches": self.solo_dispatches,
                "batch_occupancy": occupancy,
                "queue_depth": len(self._queue),
                "max_queue_depth": self.max_queue_depth,
                "busy_rejections": self.busy_rejections,
                "checkpoint_writes": self.checkpoint_writes,
                "connections_seen": self._conn_seq,
                "restores": self.registry.restores,
            },
        }
