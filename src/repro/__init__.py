"""repro — reproduction of "Higher-Order and Tuple-Based
Massively-Parallel Prefix Sums" (Maleki, Yang, Burtscher; PLDI 2016).

Quickstart
----------
>>> import numpy as np, repro
>>> a = np.array([1, 2, 3, 4, 5, 2, 4, 6, 8, 10], dtype=np.int32)
>>> d = repro.delta_encode(a)                 # the paper's Section 1 example
>>> d.tolist()
[1, 1, 1, 1, 1, -3, 2, 2, 2, 2]
>>> repro.prefix_sum(d).tolist()              # delta decoding == prefix sum
[1, 2, 3, 4, 5, 2, 4, 6, 8, 10]

The generalizations compose freely::

    repro.prefix_sum(a, order=3, tuple_size=2)
    repro.scan(a, op="max", inclusive=False)

Engines are selectable by name — ``"threaded"`` runs the scan on
slab-parallel threads over the caller's buffers::

    repro.prefix_sum(d, engine="threaded")

Inputs too big for one call stream through a session (chunk boundaries
are arbitrary; outputs concatenate bit-identically), and whole files
scan out of core with resumable checkpoints::

    session = repro.open_session(order=2)
    parts = [session.feed(chunk) for chunk in chunks]
    repro.scan_file("huge.bin", "out.bin", dtype="int64",
                    checkpoint="job.ckpt", resume=True)

For the simulated-GPU engines (SAM, the baselines, traffic counters)::

    from repro.core import SamScan
    from repro.gpusim import TITAN_X
    result = SamScan(spec=TITAN_X).run(a, order=2)
    result.values, result.stats.global_words_total
"""

from repro.api import (
    ENGINE_NAMES,
    connect,
    delta_decode,
    delta_encode,
    explain,
    open_session,
    prefix_sum,
    resolve_engine,
    scan,
    scan_file,
)

__version__ = "1.0.0"

__all__ = [
    "ENGINE_NAMES",
    "connect",
    "delta_decode",
    "delta_encode",
    "explain",
    "open_session",
    "prefix_sum",
    "resolve_engine",
    "scan",
    "scan_file",
    "__version__",
]
