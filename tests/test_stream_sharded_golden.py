"""Golden shard manifests: the sharded driver's on-disk progress format
is frozen.

``tests/data/shard_manifest_golden.json`` holds the manifest a killed
:func:`repro.stream.scan_file_sharded` job leaves behind, one job per
order-2 carry kind (the fused ``(q, s)`` matrix at ``s == 1`` and at
``s == 3``) and the compensated segment chain, each killed once at the
end of the reduce phase (before the splice) and once mid-scan.  Every
job runs one worker with fixed chunks, and completions are recorded in
shard order, so the crash point and the manifest are a pure function
of the input; only the per-phase ``seconds_*`` timings vary between
runs, and they are zeroed before comparing.  A job run today must leave byte-equal JSON at the
same crash point, and a job resumed from each stored manifest must
finish exactly like a one-shot scan.

Regenerate (only for a deliberate format change) with::

    PYTHONPATH=src python tests/test_stream_sharded_golden.py --write
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np
import pytest

from repro.kernels import compensated_scan_into
from repro.reference import prefix_sum_serial
from repro.stream import InjectedFailureError, scan_file_sharded

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "shard_manifest_golden.json"
)

#: name -> (scan_file_sharded kwargs, total elements, {crash point:
#: shard completions before the injected failure}).  Four shards
#: complete three reduce shards, then four scan shards: the reduce
#: crash comes after the last reduce, the scan crash after two scans.
CASES = {
    "int32_order2_passes": (
        dict(dtype="int32", order=2, tuple_size=1, inclusive=False),
        33_001, {"reduce": 3, "scan": 5},
    ),
    "int64_order2_s3_fused": (
        dict(dtype="int64", order=2, tuple_size=3, inclusive=False),
        20_003, {"reduce": 3, "scan": 5},
    ),
    "float64_compensated_order1": (
        dict(dtype="float64", order=1, tuple_size=1, float_mode="compensated"),
        5 * 4096 + 77, {"reduce": 3, "scan": 5},
    ),
}

#: Options shared by every job: one worker and fixed chunks keep the
#: completion order and every chunk boundary deterministic.
JOB = dict(shards=4, workers=1, chunk_bytes=4096, adaptive_chunks=False)


def make_values(dtype: str, n: int) -> np.ndarray:
    """Formula-built input: no RNG, so the bits never depend on numpy."""
    k = np.arange(n, dtype=np.int64)
    ints = (k * 2654435761) % 2001 - 1000
    if np.dtype(dtype).kind != "f":
        return ints.astype(dtype)
    # Quarter-steps riding a +-1e16 cancellation pattern.
    big = np.select([k % 4 == 0, k % 4 == 2], [1e16, -1e16], 0.0)
    return (ints / 4.0 + big).astype(dtype)


def one_shot(kwargs: dict, values: np.ndarray) -> np.ndarray:
    order = kwargs["order"]
    s = kwargs["tuple_size"]
    inclusive = kwargs.get("inclusive", True)
    if kwargs.get("float_mode") == "compensated":
        return compensated_scan_into(
            values, np.empty_like(values), "add", order, s, inclusive
        )
    return prefix_sum_serial(values, order=order, tuple_size=s, inclusive=inclusive)


def normalized(manifest: dict) -> dict:
    """``manifest`` with its wall-clock counters zeroed."""
    counters = manifest["state"]["counters"]
    for key in counters:
        if key.startswith("seconds_"):
            counters[key] = 0.0
    return manifest


def crash(tmp: str, name: str, point: str):
    """Run a case's job until its injected failure; returns the input
    path, output path, job kwargs and the normalized manifest."""
    kwargs, total, points = CASES[name]
    raw = os.path.join(tmp, "in.bin")
    out = os.path.join(tmp, "out.bin")
    make_values(kwargs["dtype"], total).tofile(raw)
    job = dict(JOB, checkpoint=os.path.join(tmp, "job.manifest"), **kwargs)
    with pytest.raises(InjectedFailureError):
        scan_file_sharded(raw, out, fail_after_shards=points[point], **job)
    with open(job["checkpoint"], "r", encoding="utf-8") as fh:
        return raw, out, job, normalized(json.load(fh))


def _encode(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True)


POINTS = [(name, point) for name in sorted(CASES) for point in ("reduce", "scan")]


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    for name in CASES:
        assert sorted(golden[name]) == ["reduce", "scan"]


@pytest.mark.parametrize("name,point", POINTS)
def test_manifest_byte_matches_golden(tmp_path, golden, name, point):
    _, _, _, manifest = crash(str(tmp_path), name, point)
    assert manifest["state"]["phase"] == point
    assert _encode(manifest) == _encode(golden[name][point])


@pytest.mark.parametrize("name,point", POINTS)
def test_golden_manifest_resumes_bit_identically(tmp_path, golden, name, point):
    # The crash leaves the output file; the stored manifest then
    # replaces the one the crash wrote.
    raw, out, job, _ = crash(str(tmp_path), name, point)
    with open(job["checkpoint"], "w", encoding="utf-8") as fh:
        json.dump(golden[name][point], fh)
    result = scan_file_sharded(raw, out, resume=True, **job)
    assert result.counters.resumes == 1
    kwargs, total, _ = CASES[name]
    expected = one_shot(kwargs, make_values(kwargs["dtype"], total))
    assert np.fromfile(out, dtype=expected.dtype).tobytes() == expected.tobytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_stream_sharded_golden.py --write")
    doc = {}
    for case, crash_point in POINTS:
        with tempfile.TemporaryDirectory() as scratch:
            doc.setdefault(case, {})[crash_point] = crash(
                scratch, case, crash_point
            )[3]
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
