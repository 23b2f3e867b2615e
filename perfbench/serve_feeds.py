"""``serve_feeds``: a closed loop against ``python -m repro serve --unix``
running in its own process.

This process is the one client.  It opens two connections that share
64 int64 add sessions (32 each); each connection keeps 32 feeds of
1 KiB in flight through ``repro.serve.protocol`` frames and sends the
next feed only when a reply comes back.  The event loop, protocol and
dispatch dominate; the kernel does little.
"""

from __future__ import annotations

import os
import selectors
import socket
import subprocess
import sys
import time

import numpy as np

from common import (
    Ops,
    own_cpu_seconds,
    proc_cpu_seconds,
    proc_peak_rss_mib,
)

SESSIONS = 64
CONNECTIONS = 2
IN_FLIGHT = 32
FEED_ELEMENTS = 128  # 1 KiB of int64
POOL = 256  # distinct feed payloads
WARM_FEEDS = 2  # per session, in setup
START_TIMEOUT = 60.0

#: Length of the slices the timed window is cut into (see ``Ops``).
SLICE_SECONDS = 1.0

#: Feeds behind the in-process and kernel-level per-layer figures.
LOCAL_FEEDS = 2000
BATCH_ROUNDS = 100


class ServeFeeds:
    name = "serve_feeds"
    dtypes = ("int64",)
    round_weights = {"feed": 1}

    def __init__(self, ctx, probe: bool = False):
        self.ctx = ctx  # a probe feeds the same sessions, for less time
        self.proc = None
        self.socks = []
        self.window = None
        rng = ctx.rng(4)
        self.pool = rng.integers(-1000, 1000, (POOL, FEED_ELEMENTS),
                                 dtype=np.int64)

    # -- server lifecycle ------------------------------------------------

    def _start(self) -> None:
        from repro.serve import protocol

        sock_path = os.path.relpath(self.ctx.path("serve", "s.sock"),
                                    self.ctx.root)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(self.ctx.root, "src"),
                        env.get("PYTHONPATH")) if p
        )
        with open(self.ctx.path("serve", "server.log"), "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--unix", sock_path],
                cwd=self.ctx.root, env=env, stdout=log, stderr=log,
                stdin=subprocess.DEVNULL,
            )
        deadline = time.monotonic() + START_TIMEOUT
        while len(self.socks) < CONNECTIONS:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} during start"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server did not start listening")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(sock_path)
            except OSError:
                sock.close()
                time.sleep(0.01)
                continue
            self.socks.append(sock)
        for j in range(SESSIONS):
            verb, header = self._request(self.socks[j % CONNECTIONS],
                                         protocol.OPEN, {
                "session": f"s{j}", "op": "add", "order": 1,
                "tuple_size": 1, "inclusive": True, "dtype": "int64",
            })
            if verb != protocol.OK:
                raise RuntimeError(f"OPEN s{j} refused: {header}")
        self.fed = [0] * SESSIONS
        self.replies = [[] for _ in range(SESSIONS)]
        self.refused = [0] * SESSIONS
        self.latencies = []  # (session, feed index, sent, done)
        for _ in range(WARM_FEEDS):
            self._drive(time.perf_counter() + 1e9, once=True)

    def _stop(self) -> None:
        for sock in self.socks:
            sock.close()
        self.socks = []
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None

    def _request(self, sock, verb, header):
        from repro.serve import protocol

        protocol.send_frame(sock, verb, dict(header, id=0))
        reply, header, _ = protocol.recv_frame(sock)
        return reply, header

    def _stats(self) -> dict:
        from repro.serve import protocol

        return self._request(self.socks[0], protocol.STATS, {})[1]["gauges"]

    def setup(self) -> None:
        """Server start (a fresh process with a cold tuning cache, so it
        pays first-use kernel tuning), connections, OPENs and warm-up
        feeds."""
        from repro.core.tuning import kernel_tuning

        self._stop()
        for cache in ("REPRO_TUNE_CACHE", "REPRO_PLAN_CACHE"):
            if os.path.exists(os.environ[cache]):
                os.remove(os.environ[cache])
        for dtype in self.dtypes:
            kernel_tuning(dtype, refresh=True)
        self._start()

    # -- the closed loop -------------------------------------------------

    def _drive(self, deadline: float, once: bool = False, tracer=None):
        """Feed until ``deadline`` and collect every reply, on this one
        thread.  A selector multiplexes the connections; each wake-up
        reads every reply that has arrived and sends their replacements
        in one write, so the client spends little of the two processes'
        shared CPU.  With ``once``, each session gets exactly one
        untimed feed."""
        from repro.serve import protocol

        conns = [{"sock": sock, "pending": {}, "turn": 0, "inbox": bytearray(),
                  "outbox": bytearray(),
                  "mine": list(range(c, SESSIONS, CONNECTIONS))}
                 for c, sock in enumerate(self.socks)]

        def send(conn):
            j = conn["mine"][conn["turn"] % len(conn["mine"])]
            conn["turn"] += 1
            i = self.fed[j]
            self.fed[j] += 1
            rid = conn["turn"]
            conn["pending"][rid] = (j, i, time.perf_counter())
            conn["outbox"] += protocol.encode_frame(
                protocol.FEED,
                {"id": rid, "session": f"s{j}", "dtype": "int64"},
                self.pool[(j * 31 + i) % POOL].tobytes(),
            )

        def replies(conn):
            inbox = conn["inbox"]
            while len(inbox) >= 4:
                body_len = int.from_bytes(inbox[:4], "big")
                if len(inbox) < 4 + body_len:
                    return
                body = bytes(inbox[4 : 4 + body_len])
                del inbox[: 4 + body_len]
                yield protocol.decode_body(body)

        with selectors.DefaultSelector() as selector:
            for conn in conns:
                selector.register(conn["sock"], selectors.EVENT_READ, conn)
                for _ in range(len(conn["mine"]) if once else IN_FLIGHT):
                    send(conn)
                conn["sock"].sendall(conn["outbox"])
                conn["outbox"].clear()
            while any(conn["pending"] for conn in conns):
                for key, _ in selector.select():
                    conn = key.data
                    data = conn["sock"].recv(1 << 16)
                    if not data:
                        raise RuntimeError("server closed the connection")
                    conn["inbox"] += data
                    for verb, header, payload in replies(conn):
                        done = time.perf_counter()
                        j, i, sent = conn["pending"].pop(header["id"])
                        if verb == protocol.DATA:
                            self.replies[j].append(payload)
                            if not once:
                                self.latencies.append((j, i, sent, done))
                                tracer.record("serve.feed", sent, done,
                                              op=f"s{j}.{i}")
                        else:
                            self.refused[j] += 1
                        if not once and done < deadline:
                            send(conn)
                    if conn["outbox"]:
                        conn["sock"].sendall(conn["outbox"])
                        conn["outbox"].clear()

    def run(self, seconds: float, tracer) -> Ops:
        self.latencies = []
        before = self._stats()
        server_cpu, client_cpu = proc_cpu_seconds(self.proc.pid), own_cpu_seconds()
        start = time.perf_counter()
        self._drive(start + seconds, tracer=tracer)
        feeds = len(self.latencies)
        self.window = {
            "feeds": feeds,
            "server_cpu": proc_cpu_seconds(self.proc.pid) - server_cpu,
            "client_cpu": own_cpu_seconds() - client_cpu,
            "before": before,
            "after": self._stats(),
        }
        good = self._verify()
        ops = Ops(self.round_weights, window=SLICE_SECONDS)
        for j, i, sent, done in self.latencies:
            ops.add("feed", done - sent, FEED_ELEMENTS * 8, good[j][i],
                    done=done - start)
        for j, refused in enumerate(self.refused):
            for _ in range(refused):
                ops.add("feed", 0.0, 0, False, done=0.0)
        self.refused = [0] * SESSIONS
        return ops

    def _verify(self):
        """Per session, per feed: does the reply equal the running sum of
        every payload fed to the session so far?"""
        good = []
        for j in range(SESSIONS):
            fed = np.concatenate([
                self.pool[(j * 31 + i) % POOL] for i in range(self.fed[j])
            ])
            got = np.frombuffer(b"".join(self.replies[j]), dtype=np.int64)
            rows = np.zeros(self.fed[j], dtype=bool)
            n = min(got.size, fed.size)
            match = (np.cumsum(fed)[:n] == got[:n]).reshape(-1, FEED_ELEMENTS)
            rows[: match.shape[0]] = match.all(axis=1)
            good.append(rows)
        return good

    def peak_rss_mib(self) -> float:
        return proc_peak_rss_mib(self.proc.pid)

    # -- per-layer -------------------------------------------------------

    def layers(self, ops: Ops) -> dict:
        from repro.plan import session_threads
        from repro.serve import feed_batch
        from repro.kernels import BatchedLaneKernel
        from repro.ops import ADD
        from repro.stream import ScanSession

        w, m = self.window, {}
        after, before = w["after"], w["before"]
        m["serve.batch_occupancy"] = after["batch_occupancy"]
        for gauge in ("batch_dispatches", "solo_dispatches", "busy_rejections"):
            m[f"serve.{gauge}"] = after[gauge] - before[gauge]
        m["serve.max_queue_depth"] = after["max_queue_depth"]
        m["serve.server_cpu_ms_per_feed"] = w["server_cpu"] * 1e3 / w["feeds"]
        m["serve.client_cpu_ms_per_feed"] = w["client_cpu"] * 1e3 / w["feeds"]
        m["serve.feed_ms_p99"] = ops.op_ms(99)

        # The in-process ScanSession.feed the server runs per chunk, with
        # the thread setting an unpinned OPEN gets.
        tracer = self.ctx.tracer
        session = ScanSession(dtype="int64",
                              threads=session_threads("int64", "add"))
        chunks = [self.pool[i % POOL] for i in range(LOCAL_FEEDS)]
        times, outs = [], []
        for chunk in chunks:
            t0 = time.perf_counter()
            with tracer.span("stream.session.feed"):
                outs.append(session.feed(chunk))
            times.append(time.perf_counter() - t0)
        self.ctx.checked(np.array_equal(np.concatenate(outs),
                                        np.cumsum(np.concatenate(chunks))))
        m["serve.rtt_minus_kernel_ms"] = ops.op_ms(50) - float(
            np.median(times)) * 1e3

        # One batched dispatch per round of 64 x 1 KiB feeds against the
        # same feeds one session at a time.
        def timed(batched: bool):
            sessions = [ScanSession(dtype="int64") for _ in range(SESSIONS)]
            kernel = BatchedLaneKernel(ADD, np.dtype("int64"), 1)
            outs = []
            t0 = time.perf_counter()
            for r in range(BATCH_ROUNDS):
                round_chunks = [self.pool[(j + r) % POOL]
                                for j in range(SESSIONS)]
                if batched:
                    with tracer.span("kernels.feed_batch"):
                        outs.append(feed_batch(sessions, round_chunks, kernel))
                else:
                    with tracer.span("stream.session.feed_solo"):
                        outs.append([s.feed(c)
                                     for s, c in zip(sessions, round_chunks)])
            return time.perf_counter() - t0, outs

        solo_s, solo = timed(False)
        batch_s, batched = timed(True)
        self.ctx.checked(all(
            np.array_equal(a, b)
            for ra, rb in zip(solo, batched) for a, b in zip(ra, rb)
        ))
        feeds = SESSIONS * BATCH_ROUNDS
        m["kernels.solo.feeds_per_s"] = feeds / solo_s
        m["kernels.batched.feeds_per_s"] = feeds / batch_s
        return m

    def close(self) -> None:
        self._stop()
