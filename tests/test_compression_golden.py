"""Golden container bytes: the ``.samb`` and ``SAMD`` encoders are frozen.

``tests/data/samb_golden.json`` holds SHA-256 digests of
:class:`BlockedDeltaCodec` and :class:`DeltaCodec` output over int32 /
int64, order ``None`` / 1 / 2 / 3 and tuple size 1 / 3, on six
formula-built signals (a random walk, uniform +-2**16, the full dtype
range, empty, one element, and a length that is not a multiple of the
block), plus one ``scan_file(output_format="blocked")`` container.
Encoding is deterministic, so any encoder rewrite must land on the same
bytes; this is also what lets a streaming writer started by one version
resume under another (:meth:`BlockedStreamWriter.resume` re-encodes its
tail blocks), which the crashed-then-resumed case checks.

Regenerate (only for a deliberate format change) with::

    PYTHONPATH=src python tests/test_compression_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.compression import BlockedDeltaCodec, DeltaCodec
from repro.stream import InjectedFailureError, scan_file

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "samb_golden.json"
)

#: Elements per block of the blocked codec (tuple size 3 aligns it to 1023).
BLOCK_ELEMENTS = 1024

DTYPES = ("int32", "int64")
ORDERS = (None, 1, 2, 3)
TUPLE_SIZES = (1, 3)
SIGNALS = ("random_walk", "uniform_16", "full_range", "empty", "one", "ragged")

#: The ``scan_file`` case: input elements, chunk budget, block size.
FILE_ELEMENTS = 25_000
FILE_CHUNK_BYTES = 8192
FILE_BLOCK_ELEMENTS = 512


def _mix(n: int) -> np.ndarray:
    """``n`` well-mixed uint64 words (splitmix64 finalizer over the
    index): no RNG, so the bits never depend on numpy's generators."""
    z = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def make_signal(name: str, dtype: str) -> np.ndarray:
    dtype = np.dtype(dtype)
    if name == "random_walk":
        steps = (_mix(4096) % np.uint64(101)).astype(np.int64) - 50
        return np.cumsum(steps).astype(dtype)
    if name == "uniform_16":
        span = np.uint64(2 * (1 << 16) + 1)
        return ((_mix(4096) % span).astype(np.int64) - (1 << 16)).astype(dtype)
    if name == "full_range":
        words = _mix(4096)
        if dtype.itemsize == 4:
            words = words >> np.uint64(32)
        return words.astype(f"u{dtype.itemsize}").view(dtype)
    if name == "empty":
        return np.zeros(0, dtype=dtype)
    if name == "one":
        return np.array([-123456789], dtype=dtype)
    if name == "ragged":
        steps = (_mix(3001) % np.uint64(2001)).astype(np.int64) - 1000
        return np.cumsum(steps).astype(dtype)
    raise KeyError(name)


def case_key(codec: str, dtype: str, order, tuple_size: int, signal: str) -> str:
    return f"{codec}/{dtype}/q{order}/s{tuple_size}/{signal}"


def codec_digests() -> dict:
    """Digest of every codec case, keyed by :func:`case_key`."""
    codecs = {
        "blocked": BlockedDeltaCodec(block_elements=BLOCK_ELEMENTS),
        "single": DeltaCodec(),
    }
    doc = {}
    for name, codec in codecs.items():
        for dtype in DTYPES:
            for signal in SIGNALS:
                values = make_signal(signal, dtype)
                for order in ORDERS:
                    for s in TUPLE_SIZES:
                        data = codec.compress(values, order=order, tuple_size=s).data
                        doc[case_key(name, dtype, order, s, signal)] = (
                            hashlib.sha256(data).hexdigest()
                        )
    return doc


def _file_job(raw, out, **extra):
    return scan_file(
        raw, out, dtype=np.int64, chunk_bytes=FILE_CHUNK_BYTES,
        output_format="blocked", output_block_elements=FILE_BLOCK_ELEMENTS,
        **extra,
    )


def _file_input(directory) -> str:
    raw = os.path.join(str(directory), "in.bin")
    steps = (_mix(FILE_ELEMENTS) % np.uint64(201)).astype(np.int64) - 100
    np.cumsum(steps).tofile(raw)
    return raw


def file_digest(directory) -> str:
    """Digest of the one-shot ``scan_file`` raw -> blocked container."""
    raw = _file_input(directory)
    out = os.path.join(str(directory), "oneshot.samb")
    _file_job(raw, out)
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def digests():
    return codec_digests()


def test_fixture_covers_every_case(golden, digests):
    assert sorted(golden["codecs"]) == sorted(digests)
    assert len(digests) == 2 * len(DTYPES) * len(SIGNALS) * len(ORDERS) * len(TUPLE_SIZES)


@pytest.mark.parametrize("codec", ("blocked", "single"))
@pytest.mark.parametrize("dtype", DTYPES)
def test_codec_bytes_match_golden(golden, digests, codec, dtype):
    mismatched = [
        key for key in sorted(digests)
        if key.startswith(f"{codec}/{dtype}/")
        and digests[key] != golden["codecs"][key]
    ]
    assert not mismatched


def test_golden_containers_round_trip():
    codec = BlockedDeltaCodec(block_elements=BLOCK_ELEMENTS)
    for dtype in DTYPES:
        for signal in SIGNALS:
            values = make_signal(signal, dtype)
            for s in TUPLE_SIZES:
                blob = codec.compress(values, order=None, tuple_size=s)
                assert np.array_equal(codec.decompress(blob.data), values)


def test_scan_file_blocked_output_matches_golden(golden, tmp_path):
    assert file_digest(tmp_path) == golden["scan_file_blocked"]


def test_scan_file_blocked_output_resumes_to_golden(golden, tmp_path):
    raw = _file_input(tmp_path)
    out = os.path.join(str(tmp_path), "resumed.samb")
    ckpt = os.path.join(str(tmp_path), "job.ckpt")
    with pytest.raises(InjectedFailureError):
        _file_job(raw, out, checkpoint=ckpt, checkpoint_every=1,
                  fail_after_chunks=2)
    result = _file_job(raw, out, checkpoint=ckpt, checkpoint_every=1,
                       resume=True)
    assert result.resumed_from
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == golden["scan_file_blocked"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_compression_golden.py --write")
    with tempfile.TemporaryDirectory() as scratch:
        doc = {"codecs": codec_digests(), "scan_file_blocked": file_digest(scratch)}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
