"""Auto-tuning of items per thread (StreamScan-style, Section 3.1).

The paper: "SAM adopts all of these ideas, including the auto-tuner,
which runs when SAM is installed and determines the optimal number of
input elements to allocate to each thread for different ranges of
problem sizes."

Three entry points:

* :func:`tune_items_per_thread` — the default heuristic used when no
  tuning run has happened: give each thread at least one element, grow
  the per-thread count with the problem size (larger chunks mean fewer
  carries to communicate, Section 2.2 enhancement #4), and cap it at
  half the register file (Section 2.5: ``e = t * O(r)`` because some
  registers are needed for computation).
* :class:`AutoTuner` — an actual tuner: measure a user-supplied cost
  function over candidate values for representative sizes and build a
  lookup table of size ranges, exactly like the install-time tuner the
  paper describes.
* :func:`kernel_tuning` — the host-kernel analogue of the paper's
  install-time tuner: the cache-block byte budget, the minimum lane
  stride that takes the blocked path, and the threaded kernel's
  parallel-cutover size are *measured on this machine* at first use
  (the constants committed in PR 5 were measured on one box), cached
  on disk, and overridable per value by environment variable.
"""

from __future__ import annotations

import bisect
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.spec import GPUSpec

#: Candidate per-thread element counts (powers of two up to r/2).
DEFAULT_CANDIDATES = (1, 2, 4, 8, 16)


def tune_items_per_thread(
    n: int, spec: GPUSpec, threads_per_block: Optional[int] = None
) -> int:
    """Default items-per-thread heuristic for an ``n``-element scan."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    t = threads_per_block or spec.threads_per_block
    resident_threads = spec.persistent_blocks * t
    if resident_threads <= 0:
        raise ValueError("spec yields no resident threads")
    per_thread = max(1, n // resident_threads)
    cap = max(1, int(spec.registers_per_thread) // 2)
    chosen = DEFAULT_CANDIDATES[0]
    for candidate in DEFAULT_CANDIDATES:
        if candidate > cap:
            break
        chosen = candidate
        if candidate >= per_thread:
            break
    return chosen


class AutoTuner:
    """Build an items-per-thread table by measuring a cost function.

    Parameters
    ----------
    cost_fn:
        ``(n, items_per_thread) -> float``; lower is better.  Wall-clock
        time of a host run, simulated traffic, or the analytic model's
        predicted time all work.
    candidates:
        Items-per-thread values to try.
    repeats:
        Cost evaluations per point (the minimum is kept, the standard
        defense against timing noise).
    """

    def __init__(
        self,
        cost_fn: Callable[[int, int], float],
        candidates: Sequence[int] = DEFAULT_CANDIDATES,
        repeats: int = 1,
    ):
        if not candidates:
            raise ValueError("need at least one candidate")
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.cost_fn = cost_fn
        self.candidates = tuple(candidates)
        self.repeats = repeats
        self._breakpoints: List[int] = []
        self._choices: List[int] = []

    def tune(self, sizes: Sequence[int]) -> Dict[int, int]:
        """Measure every candidate at every size; build the lookup table.

        Returns the raw ``{size: best_candidate}`` measurements (useful
        for reports); the table itself is stored for :meth:`lookup`.
        """
        best: Dict[int, int] = {}
        for n in sorted(sizes):
            scores: List[Tuple[float, int]] = []
            for candidate in self.candidates:
                cost = min(
                    self.cost_fn(n, candidate) for _ in range(self.repeats)
                )
                scores.append((cost, candidate))
            best[n] = min(scores)[1]
        self._breakpoints = sorted(best)
        self._choices = [best[n] for n in self._breakpoints]
        return best

    def lookup(self, n: int) -> int:
        """Items per thread for problem size ``n`` from the tuned table.

        Sizes between measured points use the nearest measured size at
        or above ``n`` (ranges are right-closed); sizes beyond the table
        use the largest measurement.
        """
        if not self._breakpoints:
            raise RuntimeError("AutoTuner.lookup called before tune()")
        index = bisect.bisect_left(self._breakpoints, n)
        if index == len(self._breakpoints):
            index -= 1
        return self._choices[index]


def wall_clock_cost(run: Callable[[], None]) -> float:
    """Helper: wall-clock seconds of one call (for host-engine tuning)."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


# -- host-kernel geometry tuning -----------------------------------------
#
# ``repro.kernels.lane`` needs three machine-dependent numbers:
#
# * ``block_bytes`` — the row-block byte budget of the cache-blocked
#   wide-stride integer path (one block should fit in a core's private
#   cache together with the source rows),
# * ``min_stride_bytes`` — the narrowest lane stride for which the
#   blocked path beats the plain single-call accumulate,
# * ``parallel_cutover_bytes`` — the smallest buffer for which the
#   threaded kernel's dispatch/splice overhead is worth paying.
#
# PR 5 committed one-box constants; this tuner measures them per dtype
# the first time a process asks, persists the result to a small JSON
# cache so later processes skip the measurement, and honors environment
# overrides for reproducible runs:
#
# * ``REPRO_TUNE_DISABLE=1`` — skip measuring, use the built-in defaults
#   (plus any per-value overrides below),
# * ``REPRO_TUNE_CACHE=path`` — cache file location,
# * ``REPRO_BLOCK_BYTES`` / ``REPRO_BLOCKED_MIN_STRIDE_BYTES`` /
#   ``REPRO_PARALLEL_CUTOVER_BYTES`` — pin individual values.

#: Fallback geometry (the PR 5 one-box constants) used when tuning is
#: disabled, the measurement fails, or a dtype has no blocked path.
DEFAULT_BLOCK_BYTES = 128 << 10
DEFAULT_BLOCKED_MIN_STRIDE_BYTES = 64
DEFAULT_PARALLEL_CUTOVER_BYTES = 4 << 20

#: Candidate row-block budgets: from half an L1 up to typical L2 sizes.
BLOCK_BYTES_CANDIDATES = (32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10)

#: Candidate minimum lane strides for the blocked path (bytes).
MIN_STRIDE_CANDIDATES = (32, 64, 128)

_TUNING_CACHE_VERSION = 1


@dataclass(frozen=True)
class KernelTuning:
    """Machine-tuned kernel geometry for one dtype.

    ``source`` records where the numbers came from — ``"measured"``,
    ``"cached"``, ``"default"``, or ``"env"`` — so benchmarks can report
    what they actually ran with.
    """

    block_bytes: int = DEFAULT_BLOCK_BYTES
    min_stride_bytes: int = DEFAULT_BLOCKED_MIN_STRIDE_BYTES
    parallel_cutover_bytes: int = DEFAULT_PARALLEL_CUTOVER_BYTES
    source: str = "default"


def _tuning_cache_path() -> str:
    override = os.environ.get("REPRO_TUNE_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "kernel_tuning.json")


def _dtype_key(dtype: np.dtype) -> str:
    return f"{dtype.kind}{dtype.itemsize}"


def _best_of(fn: Callable[[], None], repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _blocked_accumulate_seconds(src, out, block_bytes: int) -> float:
    """Time one cache-blocked 2-D accumulate (the lane kernel's inner
    loop shape, reproduced here with plain numpy to avoid importing
    :mod:`repro.kernels` from its own tuner)."""
    m, s = src.shape
    stride = s * src.dtype.itemsize
    rows = max(1, block_bytes // stride)

    def run():
        prev = None
        for i in range(0, m, rows):
            blk = out[i : i + rows]
            np.add.accumulate(src[i : i + rows], axis=0, out=blk)
            if prev is not None:
                np.add(prev, blk, out=blk)
            prev = blk[-1]

    return _best_of(run)


def measure_kernel_tuning(dtype) -> KernelTuning:
    """Measure the kernel geometry for ``dtype`` on this machine.

    Costs a few tens of milliseconds; callers should go through
    :func:`kernel_tuning`, which memoizes and disk-caches the result.
    """
    dtype = np.dtype(dtype)
    itemsize = dtype.itemsize
    budget_bytes = 2 << 20  # small enough to be quick, big enough to time

    # Throughput probe (any dtype): one contiguous accumulate.
    flat = np.ones(budget_bytes // itemsize, dtype=dtype)
    flat_out = np.empty_like(flat)
    flat_seconds = _best_of(lambda: np.add.accumulate(flat, out=flat_out))
    bytes_per_second = flat.nbytes / max(flat_seconds, 1e-9)

    block_bytes = DEFAULT_BLOCK_BYTES
    min_stride_bytes = DEFAULT_BLOCKED_MIN_STRIDE_BYTES
    if dtype.kind in "iu":
        # Block budget: wide-stride matrix, best candidate wins.
        s = max(1, 256 // itemsize)
        m = max(2, budget_bytes // (s * itemsize))
        src = np.ones((m, s), dtype=dtype)
        out = np.empty_like(src)
        scores = [
            (_blocked_accumulate_seconds(src, out, candidate), candidate)
            for candidate in BLOCK_BYTES_CANDIDATES
        ]
        block_bytes = min(scores)[1]

        # Narrowest stride where the blocked path still wins.
        min_stride_bytes = MIN_STRIDE_CANDIDATES[-1] * 2
        for stride in sorted(MIN_STRIDE_CANDIDATES):
            s2 = max(1, stride // itemsize)
            m2 = max(2, budget_bytes // (s2 * itemsize))
            src2 = np.ones((m2, s2), dtype=dtype)
            out2 = np.empty_like(src2)
            plain = _best_of(
                lambda: np.add.accumulate(src2, axis=0, out=out2)
            )
            blocked = _blocked_accumulate_seconds(src2, out2, block_bytes)
            if blocked < plain:
                min_stride_bytes = stride
                break

    # Parallel cutover: the threaded kernel pays ~2 dispatch barriers
    # of pool overhead; demand the serial scan time dwarf it so slab
    # parallelism has something to win.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=2)
    try:
        pool.submit(lambda: None).result()  # exclude thread spawn cost
        dispatch = _best_of(
            lambda: [f.result() for f in [pool.submit(lambda: None) for _ in range(8)]]
        ) / 8.0
    finally:
        pool.shutdown(wait=False)
    cutover = int(32 * dispatch * bytes_per_second)
    cutover = max(1 << 20, min(32 << 20, cutover))

    return KernelTuning(
        block_bytes=int(block_bytes),
        min_stride_bytes=int(min_stride_bytes),
        parallel_cutover_bytes=int(cutover),
        source="measured",
    )


def _load_tuning_cache(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if data.get("version") != _TUNING_CACHE_VERSION:
        return {}
    entries = data.get("entries")
    return entries if isinstance(entries, dict) else {}


def _store_tuning_cache(path: str, entries: dict) -> None:
    payload = {"version": _TUNING_CACHE_VERSION, "entries": entries}
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        os.replace(tmp, path)
    except OSError:
        pass  # the cache is an optimization; tuning still works per process


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _apply_env_overrides(tuning: KernelTuning) -> KernelTuning:
    block = _env_int("REPRO_BLOCK_BYTES")
    stride = _env_int("REPRO_BLOCKED_MIN_STRIDE_BYTES")
    cutover = _env_int("REPRO_PARALLEL_CUTOVER_BYTES")
    if block is None and stride is None and cutover is None:
        return tuning
    return KernelTuning(
        block_bytes=block if block is not None else tuning.block_bytes,
        min_stride_bytes=stride if stride is not None else tuning.min_stride_bytes,
        parallel_cutover_bytes=(
            cutover if cutover is not None else tuning.parallel_cutover_bytes
        ),
        source="env",
    )


_KERNEL_TUNING_MEMO: Dict[str, KernelTuning] = {}


def kernel_tuning(dtype, *, refresh: bool = False) -> KernelTuning:
    """The tuned kernel geometry for ``dtype`` (measured at first use).

    Resolution order: per-value environment overrides always win; with
    ``REPRO_TUNE_DISABLE=1`` the remaining values are the built-in
    defaults; otherwise the disk cache is consulted and a miss triggers
    a one-time measurement that is memoized and written back (best
    effort — an unwritable cache just re-measures per process).
    ``refresh=True`` forces a re-measurement.
    """
    dtype = np.dtype(dtype)
    key = _dtype_key(dtype)
    if not refresh and key in _KERNEL_TUNING_MEMO:
        return _KERNEL_TUNING_MEMO[key]

    if os.environ.get("REPRO_TUNE_DISABLE"):
        tuning = _apply_env_overrides(KernelTuning())
        _KERNEL_TUNING_MEMO[key] = tuning
        return tuning

    path = _tuning_cache_path()
    entries = _load_tuning_cache(path)
    cached = entries.get(key)
    if cached is not None and not refresh:
        try:
            tuning = KernelTuning(
                block_bytes=int(cached["block_bytes"]),
                min_stride_bytes=int(cached["min_stride_bytes"]),
                parallel_cutover_bytes=int(cached["parallel_cutover_bytes"]),
                source="cached",
            )
        except (KeyError, TypeError, ValueError):
            cached = None
        else:
            tuning = _apply_env_overrides(tuning)
            _KERNEL_TUNING_MEMO[key] = tuning
            return tuning

    measured = measure_kernel_tuning(dtype)
    entry = asdict(measured)
    entry.pop("source", None)
    entries[key] = entry
    _store_tuning_cache(path, entries)
    tuning = _apply_env_overrides(measured)
    _KERNEL_TUNING_MEMO[key] = tuning
    return tuning
