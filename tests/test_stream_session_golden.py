"""Golden ``ScanSession`` checkpoints: the state format is frozen.

``tests/data/session_state_golden.json`` holds ``state_dict()`` snapshots
taken mid-stream, one per carry kind: fused integer, pass-per-order
integer, exact float, compensated float and a stream younger than one
tuple stride.  Each case feeds a fixed, formula-built input in a fixed
chunk pattern, so a session built today must reach byte-equal JSON at
the same point, and loading each snapshot into a fresh session must
finish the stream exactly like a one-shot scan.  The fixture also pins
a SHA-256 of the outputs emitted before the snapshot.

Regenerate (only for a deliberate format change) with::

    PYTHONPATH=src python tests/test_stream_session_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.kernels import compensated_scan_into
from repro.reference import prefix_sum_serial
from repro.stream import ScanSession

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "session_state_golden.json"
)

#: name -> (ScanSession kwargs, total elements, snapshot offset).
CASES = {
    "int64_order2_s3_fused": (
        dict(order=2, tuple_size=3, dtype="int64"), 9001, 4444,
    ),
    "int32_order3_s1_exclusive": (
        dict(order=3, tuple_size=1, dtype="int32", inclusive=False), 5000, 2999,
    ),
    "float64_exact_order2_s2": (
        dict(order=2, tuple_size=2, dtype="float64"), 3001, 1501,
    ),
    "float64_compensated_order2": (
        dict(order=2, tuple_size=1, dtype="float64", float_mode="compensated"),
        12000, 5003,
    ),
    "int64_order2_s5_below_stride": (
        dict(order=2, tuple_size=5, dtype="int64", inclusive=False), 400, 3,
    ),
}

#: Chunk lengths, cycled, for both halves of every stream.
PATTERN = (1, 7, 64, 2, 300, 13, 1000, 5, 2500)


def make_values(dtype: str, n: int) -> np.ndarray:
    """Formula-built input: no RNG, so the bits never depend on numpy."""
    k = np.arange(n, dtype=np.int64)
    ints = (k * 2654435761) % 2001 - 1000
    if np.dtype(dtype).kind != "f":
        return ints.astype(dtype)
    # Quarter-steps riding a +-1e16 cancellation pattern.
    big = np.select([k % 4 == 0, k % 4 == 2], [1e16, -1e16], 0.0)
    return (ints / 4.0 + big).astype(dtype)


def feed_pattern(session: ScanSession, values: np.ndarray) -> np.ndarray:
    outs, lo, i = [], 0, 0
    while lo < values.size:
        hi = min(values.size, lo + PATTERN[i % len(PATTERN)])
        outs.append(session.feed(values[lo:hi]))
        lo, i = hi, i + 1
    return np.concatenate(outs) if outs else values[:0].copy()


def one_shot(kwargs: dict, values: np.ndarray) -> np.ndarray:
    order = kwargs["order"]
    s = kwargs["tuple_size"]
    inclusive = kwargs.get("inclusive", True)
    if kwargs.get("float_mode") == "compensated":
        return compensated_scan_into(
            values, np.empty_like(values), "add", order, s, inclusive
        )
    return prefix_sum_serial(values, order=order, tuple_size=s, inclusive=inclusive)


def snapshot(name: str):
    """``(state_dict, sha256 of the pre-snapshot outputs)`` for a case."""
    kwargs, total, split = CASES[name]
    values = make_values(kwargs["dtype"], total)
    session = ScanSession(**kwargs)
    head = feed_pattern(session, values[:split])
    return session.state_dict(), hashlib.sha256(head.tobytes()).hexdigest()


def _encode(state: dict) -> str:
    return json.dumps(state, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_state_dict_byte_matches_golden(golden, name):
    state, head_sha = snapshot(name)
    assert _encode(state) == _encode(golden[name]["state"])
    assert head_sha == golden[name]["head_sha256"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_state_resumes_bit_identically(golden, name):
    kwargs, total, split = CASES[name]
    values = make_values(kwargs["dtype"], total)
    session = ScanSession(**kwargs)
    session.load_state_dict(json.loads(_encode(golden[name]["state"])))
    assert session.offset == split
    tail = feed_pattern(session, values[split:])
    expected = one_shot(kwargs, values)[split:]
    assert tail.tobytes() == expected.tobytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_stream_session_golden.py --write")
    doc = {}
    for case in sorted(CASES):
        state, head_sha = snapshot(case)
        doc[case] = {"state": state, "head_sha256": head_sha}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
