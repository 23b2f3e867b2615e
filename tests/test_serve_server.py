"""ScanServer end to end: concurrency, batching, backpressure, restarts.

The in-process fixture runs the asyncio server on a background thread
with a unix socket in ``tmp_path``; clients are the real blocking
:class:`~repro.serve.ScanClient`.  The kill test runs the server as a
``python -m repro serve`` subprocess, SIGKILLs it mid-stream, restarts
with ``--restore``, and verifies byte-identity across every op/dtype/
order/tuple-size in the grid — the PR's restart contract.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import make_int_array
from repro.serve import (
    ScanClient,
    ScanServer,
    SessionExistsError,
    UnknownSessionError,
)
from repro.stream.errors import SessionStateError
from repro.stream.session import ScanSession

GRID = [
    ("add", 1, 1, True, "int64"),
    ("add", 2, 4, True, "int64"),
    ("max", 1, 5, True, "int64"),
    ("xor", 2, 2, False, "uint64"),
    ("mul", 1, 4, True, "int32"),
    ("min", 2, 1, False, "int64"),
]


def _chunks_for(rng, dtype, s, count=5, max_rows=20):
    lo, hi = (0, 100) if dtype.startswith("u") else (-50, 50)
    return [
        make_int_array(
            rng, int(rng.integers(0, max_rows)) * s, dtype=np.dtype(dtype),
            lo=lo, hi=hi,
        )
        for _ in range(count)
    ]


class ServerThread:
    """Run a ScanServer on its own event loop in a daemon thread."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs
        self.server = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.server = ScanServer(**self.kwargs)
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_forever()
            await self.server.stop()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(10), "server never started"
        return self

    def __exit__(self, *exc_info):
        self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=10)


@pytest.fixture
def serve(tmp_path):
    sock = str(tmp_path / "serve.sock")
    with ServerThread(unix_path=sock) as st:
        yield st, f"unix:{sock}"


def test_concurrent_clients_bit_identical(serve, rng):
    _, address = serve
    streams = {}
    for idx, (op, order, s, inclusive, dtype) in enumerate(GRID):
        streams[f"s{idx}"] = (op, order, s, inclusive, dtype,
                              _chunks_for(rng, dtype, s))
    results, errors = {}, []

    def worker(name):
        try:
            op, order, s, inclusive, dtype, chunks = streams[name]
            with ScanClient(address) as client:
                client.open(name, op=op, order=order, tuple_size=s,
                            inclusive=inclusive, dtype=dtype)
                outs = client.feed_many(name, chunks, window=4)
                results[name] = outs
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((name, repr(exc)))

    threads = [threading.Thread(target=worker, args=(n,)) for n in streams]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors

    for name, (op, order, s, inclusive, dtype, chunks) in streams.items():
        oracle = ScanSession(op=op, order=order, tuple_size=s,
                             inclusive=inclusive, dtype=dtype)
        for got, chunk in zip(results[name], chunks):
            np.testing.assert_array_equal(
                got.astype(np.dtype(dtype)), oracle.feed(chunk.copy())
            )


def test_batched_dispatch_engages_and_stays_exact(tmp_path, rng):
    sock = str(tmp_path / "b.sock")
    with ServerThread(unix_path=sock) as st:
        address = f"unix:{sock}"
        n_clients = 6
        chunk_sets = {
            f"c{i}": [make_int_array(rng, 64, dtype=np.int64) for _ in range(12)]
            for i in range(n_clients)
        }
        results, errors = {}, []
        barrier = threading.Barrier(n_clients)

        def worker(name):
            try:
                with ScanClient(address) as client:
                    client.open(name, op="add", dtype="int64")
                    barrier.wait(timeout=10)
                    results[name] = client.feed_many(
                        name, chunk_sets[name], window=6
                    )
            except Exception as exc:  # pragma: no cover
                errors.append((name, repr(exc)))

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in chunk_sets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        for name, chunks in chunk_sets.items():
            oracle = ScanSession(op="add", dtype="int64")
            for got, chunk in zip(results[name], chunks):
                np.testing.assert_array_equal(got, oracle.feed(chunk.copy()))
        with ScanClient(address) as client:
            gauges = client.stats()["gauges"]
        assert gauges["batch_dispatches"] > 0
        assert gauges["batch_occupancy"] > 1.0


def test_auto_threaded_feed_above_cutover_goes_solo(monkeypatch, rng):
    # Planner-threaded ("auto") sessions batch their small feeds; a feed
    # at or above the threaded cutover is dispatched on its own, and a
    # pinned thread count never batches.
    import repro.serve.batch
    from repro.serve.server import _PendingFeed

    monkeypatch.setattr(repro.serve.batch, "_tuned_cutover", lambda dtype: 1024)

    class Conn:
        inflight_bytes = 0

    server = ScanServer()
    chunks = {
        "small0": make_int_array(rng, 64, dtype=np.int64),
        "small1": make_int_array(rng, 64, dtype=np.int64),
        "big": make_int_array(rng, 128, dtype=np.int64),
        "pinned": make_int_array(rng, 64, dtype=np.int64),
    }
    for name in chunks:
        server.registry.open(
            name, order=2, dtype="int64",
            threads=2 if name == "pinned" else "auto",
        )
    conn = Conn()
    feeds = [
        _PendingFeed(conn, name, chunk, i, chunk.nbytes)
        for i, (name, chunk) in enumerate(chunks.items())
    ]
    replies = server._run_round(feeds)
    assert server.batch_dispatches == 1  # small0 + small1
    assert server.solo_dispatches == 2   # big (above cutover) + pinned
    by_id = {header["id"]: (header, payload) for _, _, header, payload in replies}
    for i, chunk in enumerate(chunks.values()):
        header, payload = by_id[i]
        oracle = ScanSession(op="add", order=2, dtype="int64")
        assert header["offset"] == chunk.size
        np.testing.assert_array_equal(
            np.frombuffer(payload, dtype=np.int64), oracle.feed(chunk.copy())
        )


def test_open_plans_threads_without_the_tuner(serve, rng, monkeypatch):
    # An unpinned OPEN decides threads= from the core count and the
    # configuration alone: a first-use tuner measurement must never run
    # on the serve loop.
    import repro.core.tuning
    from repro.plan.workload import _reset_machine_memo

    calls = []

    def no_tuner(*args, **kwargs):
        calls.append(args)
        raise AssertionError("serve OPEN consulted the kernel tuner")

    monkeypatch.setattr(repro.core.tuning, "kernel_tuning", no_tuner)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _reset_machine_memo()
    st, address = serve
    with ScanClient(address) as client:
        client.open("planned", op="add", dtype="int64", order=2)
        assert calls == []
        chunk = make_int_array(rng, 64, dtype=np.int64)
        got = client.feed("planned", chunk)
    session = st.server.registry.get("planned")
    assert session.counters.planner_strategy == "session_threads:auto"
    oracle = ScanSession(op="add", order=2, dtype="int64")
    np.testing.assert_array_equal(got, oracle.feed(chunk.copy()))


def test_open_errors_and_unknown_session(serve, rng):
    _, address = serve
    with ScanClient(address) as client:
        reply = client.open("x", op="add", dtype="int64")
        assert reply["created"] and reply["offset"] == 0
        reply = client.open("x", op="add", dtype="int64")
        assert not reply["created"]
        with pytest.raises(SessionExistsError):
            client.open("x", op="max", dtype="int64")
        with pytest.raises(UnknownSessionError):
            client.feed("ghost", make_int_array(rng, 4, dtype=np.int64))


def test_wrong_dtype_feed_is_typed_error(serve, rng):
    _, address = serve
    with ScanClient(address) as client:
        client.open("d", op="add", dtype="int64")
        with pytest.raises(SessionStateError):
            client.feed("d", make_int_array(rng, 4, dtype=np.int32))
        # session still usable afterwards
        out = client.feed("d", np.arange(4, dtype=np.int64))
        np.testing.assert_array_equal(out, [0, 1, 3, 6])


def test_snapshot_restore_round_trip(serve, rng):
    _, address = serve
    with ScanClient(address) as client:
        client.open("snap", op="add", order=2, dtype="int64")
        client.feed("snap", make_int_array(rng, 100, dtype=np.int64))
        snap = client.snapshot("snap")
        extra = make_int_array(rng, 33, dtype=np.int64)
        first = client.feed("snap", extra.copy())
        offset = client.restore("snap", snap["state"], snap["counters"])
        assert offset == 100
        second = client.feed("snap", extra.copy())
        np.testing.assert_array_equal(first, second)


def test_restore_frame_with_bad_state_is_typed_error(serve, rng):
    from repro.stream.errors import CheckpointMismatchError

    _, address = serve
    with ScanClient(address) as client:
        client.open("bad", op="add", tuple_size=3, dtype="int64")
        client.feed("bad", make_int_array(rng, 10, dtype=np.int64))
        snap = client.snapshot("bad")
        state = dict(snap["state"], offset=-4)
        with pytest.raises(CheckpointMismatchError, match="offset"):
            client.restore("bad", state)
        for config in ({"order": "x"}, {"op": "nope"}, {"dtype": "nope"}):
            broken = dict(snap["state"], config=dict(state["config"], **config))
            del broken["config_hash"]
            with pytest.raises(CheckpointMismatchError, match="config"):
                client.restore("bad", broken)
        # The live session was not replaced.
        out = client.feed("bad", np.ones(2, dtype=np.int64))
        assert client.stats()["sessions"]["bad"]["offset"] == 12
        assert out.size == 2


def test_stats_shape(serve, rng):
    _, address = serve
    with ScanClient(address) as client:
        client.open("st", op="add", dtype="int64")
        client.feed("st", make_int_array(rng, 8, dtype=np.int64))
        stats = client.stats()
    assert stats["sessions"]["st"]["offset"] == 8
    assert stats["sessions"]["st"]["counters"]["chunks"] == 1
    assert stats["aggregate"]["elements"] == 8
    gauges = stats["gauges"]
    for key in (
        "feeds_dispatched", "batch_dispatches", "solo_dispatches",
        "batch_occupancy", "queue_depth", "max_queue_depth",
        "busy_rejections", "checkpoint_writes",
    ):
        assert key in gauges
    assert gauges["feeds_dispatched"] == 1


def test_busy_backpressure_preserves_order(tmp_path, rng):
    sock = str(tmp_path / "busy.sock")
    with ServerThread(unix_path=sock, max_inflight_bytes=1 << 14) as st:
        address = f"unix:{sock}"
        chunks = [make_int_array(rng, 2000, dtype=np.int64) for _ in range(8)]
        with ScanClient(address) as client:
            client.open("busy", op="add", dtype="int64")
            outs = client.feed_many("busy", chunks, window=8)
        oracle = ScanSession(op="add", dtype="int64")
        for got, chunk in zip(outs, chunks):
            np.testing.assert_array_equal(got, oracle.feed(chunk.copy()))
        assert st.server.busy_rejections > 0


def test_registry_checkpoint_written_on_feed_cadence(tmp_path, rng):
    sock = str(tmp_path / "ck.sock")
    ckpt = tmp_path / "registry.json"
    with ServerThread(
        unix_path=sock, checkpoint=str(ckpt), checkpoint_every=1
    ):
        with ScanClient(f"unix:{sock}") as client:
            client.open("ck", op="add", dtype="int64")
            client.feed("ck", make_int_array(rng, 16, dtype=np.int64))
            deadline = time.time() + 5
            while not ckpt.exists() and time.time() < deadline:
                time.sleep(0.01)
    assert ckpt.exists()
    from repro.serve import SessionRegistry

    registry = SessionRegistry()
    assert registry.load(ckpt) == 1
    assert registry.get("ck").offset == 16


def test_sigkill_restore_bit_identical_across_grid(tmp_path, rng):
    """Kill -9 the serving daemon mid-stream, restart with --restore,
    re-feed from the server's restored offsets: every session's final
    state must be byte-identical to an uninterrupted in-process run."""
    sock = str(tmp_path / "kill.sock")
    ckpt = str(tmp_path / "registry.json")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)

    def start_server(restore=False):
        cmd = [sys.executable, "-m", "repro", "serve", "--unix", sock,
               "--checkpoint", ckpt, "--checkpoint-every", "1"]
        if restore:
            cmd.append("--restore")
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        deadline = time.time() + 15
        while time.time() < deadline:
            if os.path.exists(sock):
                return proc
            if proc.poll() is not None:
                raise AssertionError(f"server died: {proc.communicate()[0]}")
            time.sleep(0.05)
        raise AssertionError("server never bound its socket")

    streams = {}
    for idx, (op, order, s, inclusive, dtype) in enumerate(GRID):
        streams[f"g{idx}"] = (op, order, s, inclusive, dtype,
                              _chunks_for(rng, dtype, s, count=8, max_rows=12))

    proc = start_server()
    try:
        # Feed a prefix of every stream, checkpointing every feed.
        with ScanClient(f"unix:{sock}") as client:
            for name, (op, order, s, inclusive, dtype, chunks) in streams.items():
                client.open(name, op=op, order=order, tuple_size=s,
                            inclusive=inclusive, dtype=dtype)
                for chunk in chunks[:4]:
                    client.feed(name, chunk)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        os.unlink(sock)

        proc = start_server(restore=True)
        tails, consumed_at = {}, {}
        with ScanClient(f"unix:{sock}") as client:
            for name, (op, order, s, inclusive, dtype, chunks) in streams.items():
                reply = client.open(name, op=op, order=order, tuple_size=s,
                                    inclusive=inclusive, dtype=dtype)
                consumed = reply["offset"]
                # The durable offset may trail the last replied feed
                # (the checkpoint lands after replies, at-least-once),
                # but never run ahead of it, and always sits on a
                # chunk boundary of what was fed.
                prefix = sum(c.size for c in chunks[:4])
                assert 0 <= consumed <= prefix, name
                flat = np.concatenate(chunks)
                consumed_at[name] = consumed
                tails[name] = client.feed(name, flat[consumed:])
    finally:
        proc.kill()
        proc.wait(timeout=10)

    for name, (op, order, s, inclusive, dtype, chunks) in streams.items():
        oracle = ScanSession(op=op, order=order, tuple_size=s,
                             inclusive=inclusive, dtype=dtype)
        flat = np.concatenate(chunks)
        consumed = consumed_at[name]
        if consumed:
            oracle.feed(flat[:consumed].copy())
        np.testing.assert_array_equal(
            tails[name].astype(np.dtype(dtype)),
            oracle.feed(flat[consumed:].copy()),
            err_msg=name,
        )
