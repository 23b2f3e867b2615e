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
* :func:`kernel_tuning` — the host kernels' geometry: the cache-block
  byte budget and minimum blocked lane stride of
  :mod:`repro.kernels.lane` and the parallel cutover of
  :mod:`repro.kernels.threaded`.  Like the paper's tuner these were
  measured once, ahead of use (crossover tables in CHANGES.md), and
  are committed constants; nothing is measured at run time.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


# -- host-kernel geometry -----------------------------------------------


@dataclass(frozen=True)
class KernelTuning:
    """The host kernels' geometry constants, for reports."""

    block_bytes: int
    min_stride_bytes: int
    parallel_cutover_bytes: int


def kernel_tuning(dtype=None, *, refresh: bool = False) -> KernelTuning:
    """The kernel constants :data:`repro.kernels.BLOCK_BYTES`,
    :data:`repro.kernels.BLOCKED_MIN_STRIDE_BYTES` and
    :data:`repro.kernels.threaded.PARALLEL_CUTOVER_BYTES`.

    The same for every dtype; reads no environment and writes no file.
    ``dtype`` and ``refresh`` are accepted for callers written against
    the former per-process tuner: there is nothing left to refresh.
    """
    from repro.kernels import lane, threaded

    return KernelTuning(
        block_bytes=lane.BLOCK_BYTES,
        min_stride_bytes=lane.BLOCKED_MIN_STRIDE_BYTES,
        parallel_cutover_bytes=threaded.PARALLEL_CUTOVER_BYTES,
    )
