"""SessionRegistry: lifecycle, independence, and whole-registry durability."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import make_int_array
from repro.serve import SessionExistsError, SessionRegistry, UnknownSessionError
from repro.stream.errors import CheckpointError, CheckpointMismatchError
from repro.stream.session import ScanSession


def test_open_creates_then_reattaches():
    registry = SessionRegistry()
    session, created = registry.open("a", op="add", dtype="int64")
    assert created and len(registry) == 1
    again, created = registry.open("a", op="add", dtype="int64")
    assert not created and again is session


def test_open_conflicting_config_is_typed_error():
    registry = SessionRegistry()
    registry.open("a", op="add", dtype="int64")
    with pytest.raises(SessionExistsError):
        registry.open("a", op="max", dtype="int64")
    with pytest.raises(SessionExistsError):
        registry.open("a", op="add", dtype="int32")


def test_open_requires_name_and_dtype():
    registry = SessionRegistry()
    with pytest.raises(ValueError):
        registry.open("", dtype="int64")
    with pytest.raises(ValueError):
        registry.open("a", dtype=None)


def test_get_and_close_unknown_session(rng):
    registry = SessionRegistry()
    with pytest.raises(UnknownSessionError):
        registry.get("ghost")
    session, _ = registry.open("a", dtype="int64")
    session.feed(make_int_array(rng, 10, dtype=np.int64))
    counters = registry.close("a")
    assert counters.chunks == 1
    with pytest.raises(UnknownSessionError):
        registry.get("a")


def test_identical_config_sessions_do_not_share_carry(rng):
    """Two sessions opened with the same configuration are independent
    streams: feeding one must not move the other's carry or offset."""
    registry = SessionRegistry()
    a, _ = registry.open("a", op="add", order=2, tuple_size=3, dtype="int64")
    b, _ = registry.open("b", op="add", order=2, tuple_size=3, dtype="int64")
    assert a is not b
    chunk = make_int_array(rng, 30, dtype=np.int64)
    out_a = a.feed(chunk.copy())
    assert b.offset == 0
    np.testing.assert_array_equal(
        b.kernel.carry, np.zeros_like(b.kernel.carry)
    )  # add identity
    # b's first feed must equal a fresh session's first feed, not a
    # continuation of a's stream.
    fresh = ScanSession(op="add", order=2, tuple_size=3, dtype="int64")
    np.testing.assert_array_equal(b.feed(chunk.copy()), fresh.feed(chunk.copy()))
    assert out_a is not None


def test_registry_save_load_round_trip(rng, tmp_path):
    registry = SessionRegistry()
    grid = [
        ("a", "add", 1, 1, True, "int64"),
        ("b", "max", 2, 3, True, "int32"),
        ("c", "xor", 1, 2, False, "uint64"),
    ]
    feeds = {}
    for name, op, order, s, inclusive, dtype in grid:
        session, _ = registry.open(
            name, op=op, order=order, tuple_size=s,
            inclusive=inclusive, dtype=dtype,
        )
        lo, hi = (0, 100) if dtype.startswith("u") else (-50, 50)
        chunk = make_int_array(rng, 6 * s, dtype=np.dtype(dtype), lo=lo, hi=hi)
        session.feed(chunk.copy())
        feeds[name] = make_int_array(rng, 4 * s, dtype=np.dtype(dtype), lo=lo, hi=hi)

    path = tmp_path / "registry.json"
    registry.save(path)
    expected = {
        name: registry.get(name).feed(feeds[name].copy()) for name in feeds
    }

    restored = SessionRegistry()
    assert restored.load(path) == len(grid)
    for name in feeds:
        session = restored.get(name)
        np.testing.assert_array_equal(
            session.feed(feeds[name].copy()), expected[name]
        )
        assert session.counters.resumes == 1


def test_registry_load_rejects_foreign_and_corrupt(tmp_path):
    registry = SessionRegistry()
    missing = tmp_path / "nope.json"
    with pytest.raises(CheckpointError):
        registry.load(missing)
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(CheckpointError):
        registry.load(foreign)
    truncated = tmp_path / "bad.json"
    truncated.write_text("{not json")
    with pytest.raises(CheckpointError):
        registry.load(truncated)


def test_registry_load_rejects_wrong_version(tmp_path, rng):
    registry = SessionRegistry()
    session, _ = registry.open("a", dtype="int64")
    session.feed(make_int_array(rng, 4, dtype=np.int64))
    path = tmp_path / "registry.json"
    registry.save(path)
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError):
        SessionRegistry().load(path)


def test_registry_load_revalidates_session_hashes(tmp_path, rng):
    """A snapshot whose recorded config was edited after the fact must
    be rejected with the typed mismatch error, not applied."""
    registry = SessionRegistry()
    session, _ = registry.open("a", op="add", dtype="int64")
    session.feed(make_int_array(rng, 4, dtype=np.int64))
    path = tmp_path / "registry.json"
    registry.save(path)
    doc = json.loads(path.read_text())
    doc["registry"]["sessions"]["a"]["state"]["config"]["op"] = "max"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointMismatchError):
        SessionRegistry().load(path)


def test_aggregate_counters_survive_close(rng):
    registry = SessionRegistry()
    a, _ = registry.open("a", dtype="int64")
    b, _ = registry.open("b", dtype="int64")
    a.feed(make_int_array(rng, 10, dtype=np.int64))
    b.feed(make_int_array(rng, 20, dtype=np.int64))
    before = registry.aggregate_counters()
    registry.close("a")
    after = registry.aggregate_counters()
    assert after.chunks == before.chunks == 2
    assert after.elements == before.elements == 30
