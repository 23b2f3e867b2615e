"""What the planner plans over: a workload and a machine.

The paper's thesis is that the right scan structure is a function of
*measurable* parameters — element width, tuple size, order, problem
size, memory hierarchy — not of user folklore.  This module names the
inputs the planner's gates read, so that :mod:`repro.plan.planner` can
make each decision from them.

* :class:`Workload` — one scan job: payload size, dtype, operator,
  order, tuple size, inclusive flavor, where the bytes live (in memory
  vs on disk), whether they are contiguous, and the caller's float
  contract.  :attr:`Workload.kind` names the carry kind a parallel run
  would use (:mod:`repro.kernels.splice`).
* :class:`Machine` — this host: its core count.  A snapshot is taken
  once per process; tests inject their own.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.ops import get_op

#: Where a workload's bytes live.
SOURCE_MEMORY = "memory"
SOURCE_FILE = "file"
SOURCE_COMPRESSED = "compressed-file"


@dataclass(frozen=True)
class Workload:
    """One scan job, described by the parameters the gates read.

    ``nbytes`` is always the *logical* payload (elements × itemsize);
    a :data:`SOURCE_COMPRESSED` workload additionally carries
    ``compressed_nbytes``, the container bytes on disk.

    ``float_mode`` is the caller's float contract and is part of the
    workload, not a tunable: under ``"compensated"`` every strategy —
    serial included — produces the error-free-carry result, so the
    planner's bit-identity guarantee holds *within* the mode.  ``None``
    (and ``"exact"``) keep the promise that a float plan equals the
    sequential left fold bit for bit, which only the serial path can
    honor.
    """

    nbytes: int
    dtype: str
    op: str = "add"
    order: int = 1
    tuple_size: int = 1
    inclusive: bool = True
    source: str = SOURCE_MEMORY
    contiguous: bool = True
    compressed_nbytes: int = 0
    float_mode: Optional[str] = None

    def __post_init__(self):
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")
        if self.order < 1 or self.tuple_size < 1:
            raise ValueError("order and tuple_size must be >= 1")
        if self.source not in (SOURCE_MEMORY, SOURCE_FILE, SOURCE_COMPRESSED):
            raise ValueError(f"unknown workload source {self.source!r}")
        if self.float_mode not in (None, "exact", "compensated", "regrouped"):
            raise ValueError(f"unknown float_mode {self.float_mode!r}")

    @classmethod
    def from_array(
        cls,
        values,
        op="add",
        order: int = 1,
        tuple_size: int = 1,
        inclusive: bool = True,
        float_mode=None,
    ) -> "Workload":
        """Describe an in-memory array scan (the ``repro.scan(x)`` shape)."""
        array = np.asarray(values)
        resolved = get_op(op)
        return cls(
            nbytes=int(array.nbytes),
            dtype=resolved.check_dtype(array.dtype).name,
            op=resolved.name,
            order=int(order),
            tuple_size=int(tuple_size),
            inclusive=bool(inclusive),
            source=SOURCE_MEMORY,
            contiguous=bool(array.flags.c_contiguous or array.ndim != 1),
            float_mode=float_mode,
        )

    @classmethod
    def from_file(
        cls,
        path,
        dtype,
        op="add",
        order: int = 1,
        tuple_size: int = 1,
        inclusive: bool = True,
        float_mode=None,
    ) -> "Workload":
        """Describe an out-of-core file scan (the ``repro.scan_file`` shape)."""
        resolved = get_op(op)
        return cls(
            nbytes=int(os.path.getsize(path)),
            dtype=resolved.check_dtype(dtype).name,
            op=resolved.name,
            order=int(order),
            tuple_size=int(tuple_size),
            inclusive=bool(inclusive),
            source=SOURCE_FILE,
            contiguous=True,
            float_mode=float_mode,
        )

    @classmethod
    def from_blocked_file(
        cls,
        path,
        op="add",
        order: int = 1,
        tuple_size: int = 1,
        inclusive: bool = True,
    ) -> "Workload":
        """Describe a scan over a blocked ``.samb`` container.  The
        container header is authoritative for dtype and element count;
        ``nbytes`` is the logical payload and ``compressed_nbytes`` the
        container size on disk."""
        from repro.compression.stream import read_index

        index = read_index(path)
        resolved = get_op(op)
        dtype = resolved.check_dtype(index.dtype)
        return cls(
            nbytes=int(index.count) * dtype.itemsize,
            dtype=dtype.name,
            op=resolved.name,
            order=int(order),
            tuple_size=int(tuple_size),
            inclusive=bool(inclusive),
            source=SOURCE_COMPRESSED,
            contiguous=True,
            compressed_nbytes=int(index.container_bytes),
        )

    # -- derived ----------------------------------------------------------

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def elements(self) -> int:
        return self.nbytes // self.itemsize

    @property
    def on_disk(self) -> bool:
        """Whether the payload crosses the filesystem (raw or
        compressed) — the out-of-core drivers apply either way."""
        return self.source in (SOURCE_FILE, SOURCE_COMPRESSED)

    @property
    def integer(self) -> bool:
        """Fixed-width integer payloads are truly associative: every
        parallel regrouping (slabs, shards, process chunks) stays
        bit-identical.  Everything else is planned onto the exact
        serial path."""
        return np.dtype(self.dtype).kind in "iu"

    @property
    def compensable(self) -> bool:
        """Whether this workload runs under the compensated float
        contract: the caller asked for ``float_mode="compensated"`` and
        the kernels support it (float ``add`` with a real ufunc) on a
        contiguous buffer.  Every strategy, serial included, then
        produces the same error-free-carry bits."""
        if self.float_mode != "compensated" or not self.contiguous:
            return False
        from repro.kernels import compensated_supported

        return compensated_supported(self.op, self.dtype)

    @property
    def vectorized(self) -> bool:
        """Whether the operator has a GIL-releasing ufunc inner loop
        (looped operators serialize threads, so slab parallelism cannot
        win on them).  Unregistered custom operators — whose name
        cannot be resolved back to an op — count as looped: the planner
        then plans the serial path, which takes the original op object
        verbatim."""
        try:
            return get_op(self.op).ufunc is not None
        except (KeyError, TypeError):
            return False

    @property
    def kind(self) -> str:
        """The carry kind a parallel run would use
        (:mod:`repro.kernels.splice`): ``"compensated"`` for a
        compensable float, ``"fused"`` inside the fused order-``q`` gate
        (:func:`repro.kernels.fused_supported`: integer ADD at
        ``order >= 2`` with ``tuple_size >= 2``), ``"row"`` otherwise."""
        if self.compensable:
            return "compensated"
        from repro.kernels import fused_supported

        try:
            if fused_supported(self.op, self.dtype, self.order, self.tuple_size):
                return "fused"
        except (KeyError, TypeError):
            pass
        return "row"


@dataclass(frozen=True)
class Machine:
    """This host, reduced to what the gates read."""

    cpu_count: int

    @property
    def multicore(self) -> bool:
        return self.cpu_count > 1


_MACHINE: Optional[Machine] = None


def machine_snapshot() -> Machine:
    """The memoized :class:`Machine`: this host's core count."""
    global _MACHINE
    if _MACHINE is None:
        _MACHINE = Machine(cpu_count=os.cpu_count() or 1)
    return _MACHINE


def _reset_machine_memo() -> None:
    """Test hook: forget the memoized snapshot."""
    global _MACHINE
    _MACHINE = None
