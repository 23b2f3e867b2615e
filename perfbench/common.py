"""Shared pieces of the benchmark: spans, operation records, process
statistics and the per-run context.

Nothing here imports ``repro``: the run's state directory and cache
environment are set up before the program is first imported.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

MIB = 1 << 20


# -- spans -------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op]``: ``parent`` is the
    index of the enclosing span (``None`` at top level) and ``op`` the
    id of the operation the span belongs to.  ``span`` nests on the
    calling thread's stack; ``record`` adds an already-timed span, for
    requests that overlap (pipelined serve feeds) and so cannot nest.
    Spans wrap calls into the program's public functions from the
    benchmark's own files; they are written out when the run ends.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._overlapping = set()

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, op]
        self.spans.append(rec)
        self._stack.append(index)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, op=None) -> None:
        self._overlapping.add(len(self.spans))
        self.spans.append([name, start, end, None, op])

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer (the span name's first dotted part): each
        nested span's duration minus the time its child spans cover.
        Overlapping spans count the wall time any of them was open, not
        the sum of their durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: Dict[str, float] = {}
        open_at: Dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if i in self._overlapping:
                open_at.setdefault(layer, []).append((start, end))
                continue
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child[i]
        for layer, intervals in open_at.items():
            covered, reach = 0.0, float("-inf")
            for start, end in sorted(intervals):
                covered += max(0.0, end - max(start, reach))
                reach = max(reach, end)
            totals[layer] = totals.get(layer, 0.0) + covered
        return totals

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NullTracer:
    """The untraced run's tracer: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str, op=None):
        return self._null

    def record(self, name: str, start: float, end: float, op=None) -> None:
        pass


# -- operations ----------------------------------------------------------


@dataclass
class Ops:
    """Timed operations of one workload run.

    Every operation is checked against an oracle outside its timed
    window; ``ok`` is False when it failed, was refused, or computed a
    wrong answer.  ``round_weights`` says how many operations of each
    kind make up one round of the workload's mix; ``mib_s`` is the
    bytes of one round over the time of one round, each kind timed at
    its median, so one stalled operation cannot swing it.

    A closed-loop workload sets ``window`` and gives each operation the
    time it completed, counted from the start of the timed window.  The
    window is then cut into slices of ``window`` seconds (a last,
    partial slice is dropped); ``mib_s`` is the median over slices of
    the bytes completed correctly in a slice over its length, and each
    latency percentile the median over slices of that slice's
    percentile, so a burst of CPU stolen by other tenants moves one
    slice, not the run.
    """

    round_weights: Dict[str, int]
    kinds: List[str] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    nbytes: List[int] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    window: Optional[float] = None
    done: List[float] = field(default_factory=list)

    def add(self, kind: str, seconds: float, nbytes: int, ok: bool,
            done: float = 0.0) -> None:
        self.kinds.append(kind)
        self.seconds.append(seconds)
        self.nbytes.append(nbytes)
        self.ok.append(bool(ok))
        self.done.append(done)

    def _slices(self) -> List[np.ndarray]:
        """Operation indices per full slice of the timed window."""
        slot = (np.array(self.done) // self.window).astype(int)
        full = int(max(self.done) // self.window)
        return [np.flatnonzero(slot == k) for k in range(max(1, full))]

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def of_kind(self, kind: str) -> np.ndarray:
        return np.array([s for k, s in zip(self.kinds, self.seconds) if k == kind])

    def mib_s(self) -> float:
        if self.window is not None:
            good = np.array(self.nbytes) * np.array(self.ok)
            return float(np.median([good[i].sum() for i in self._slices()])
                         ) / MIB / self.window
        num = den = 0.0
        for kind, weight in self.round_weights.items():
            times = self.of_kind(kind)
            size = next(b for k, b in zip(self.kinds, self.nbytes) if k == kind)
            num += weight * size
            den += weight * float(np.median(times))
        return num / MIB / den

    def op_ms(self, q: float) -> float:
        ms = np.array(self.seconds) * 1e3
        if self.window is not None:
            return float(np.median([np.percentile(ms[i], q)
                                    for i in self._slices()]))
        return float(np.percentile(ms, q))


def strategy_family(label: str) -> str:
    """A planner strategy label without its parameter (``threaded:2`` is
    ``threaded``), so metric names do not depend on the core count."""
    return label.split(":", 1)[0]


def median_time(fn, repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


# -- process statistics ----------------------------------------------------


def self_peak_rss_mib() -> float:
    """Peak RSS of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of another process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


class SkippedFsync:
    """Stands in for ``os.fsync`` in the benchmark process, counting
    calls instead of flushing.

    The file workloads model a RAM-backed directory, where fsync costs
    nothing; on the checkout's shared disk every job's fsync would
    instead time the neighbours' disk traffic.  Durable-write cost is
    left out until it can be measured on dedicated hardware.
    """

    def __init__(self):
        self.calls = 0
        self._real = None

    def __call__(self, fd) -> None:
        self.calls += 1

    def __enter__(self) -> "SkippedFsync":
        self._real, os.fsync = os.fsync, self
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real


# -- run context -----------------------------------------------------------


@dataclass
class Context:
    """What a workload needs from the run: the checkout root, the run's
    private state directory, the seed, the tracer and the fsync
    counter."""

    root: str
    state: str
    seed: int
    tracer: object
    fsyncs: SkippedFsync
    checks: int = 0
    bad: int = 0

    def checked(self, ok: bool) -> None:
        """Count one oracle check of an output outside a workload's own
        operations (per-layer calls); a failed one fails the run."""
        self.checks += 1
        self.bad += not ok

    def path(self, *parts: str) -> str:
        path = os.path.join(self.state, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def rng(self, *stream: int) -> np.random.Generator:
        """A generator for one input stream: the same seed and stream
        ids give the same inputs whatever else the run did first."""
        return np.random.default_rng([self.seed, *stream])
