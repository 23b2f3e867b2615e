"""Split-point equivalence for ``repro.stream.ScanSession``.

The session's contract: for ANY partition of an input into chunks —
empty chunks, single elements, edges inside a tuple stride — the
concatenation of ``feed`` outputs is bit-identical to a one-shot scan
of the concatenation, for every op / dtype / order / tuple size and
both inclusive and exclusive.  These tests check the contract
property-style against the host engine and the serial oracle, plus the
session-state (checkpoint) machinery.
"""

import itertools

import numpy as np
import pytest

from conftest import make_int_array, small_sam
from repro.core.host import host_prefix_sum
from repro.reference import prefix_sum_serial
from repro.stream import (
    CheckpointMismatchError,
    ScanSession,
    SessionStateError,
)


def feed_partition(session, values, bounds):
    """Feed ``values`` split at ``bounds``; returns the concatenation."""
    parts = [session.feed(values[a:b]) for a, b in zip(bounds, bounds[1:])]
    parts = [p for p in parts if p.size]
    if not parts:
        return values[:0].copy()
    return np.concatenate(parts)


def random_bounds(rng, n, pieces=6):
    """A random partition of ``range(n)`` — repeats make empty chunks."""
    cuts = sorted(int(c) for c in rng.integers(0, n + 1, pieces))
    return [0] + cuts + [n]


class TestSplitPointEquivalence:
    @pytest.mark.parametrize("op", ["add", "max", "xor", "mul"])
    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("tuple_size", [1, 3])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_random_partitions_match_one_shot(self, rng, op, order,
                                              tuple_size, inclusive):
        values = make_int_array(rng, 257)
        expected = host_prefix_sum(
            values, order=order, tuple_size=tuple_size, op=op,
            inclusive=inclusive,
        )
        for _ in range(5):
            session = ScanSession(
                op=op, order=order, tuple_size=tuple_size, inclusive=inclusive
            )
            got = feed_partition(session, values, random_bounds(rng, len(values)))
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint64])
    def test_dtypes_with_wraparound(self, rng, dtype):
        # Values near the dtype limits force overflow wraparound in the
        # carries themselves, not only in the outputs.
        info = np.iinfo(dtype)
        values = rng.integers(
            info.min // 2 if info.min else 0, info.max // 2, 300
        ).astype(dtype)
        expected = host_prefix_sum(values, order=3, tuple_size=2)
        session = ScanSession(order=3, tuple_size=2)
        got = feed_partition(session, values, random_bounds(rng, len(values)))
        assert got.dtype == dtype
        assert np.array_equal(got, expected)

    def test_exhaustive_small_partitions(self, rng):
        # Every one of the 2^5 partitions of a 6-element input, against
        # the serial oracle (not the host engine), both flavors.
        values = make_int_array(rng, 6)
        for inclusive in (True, False):
            expected = prefix_sum_serial(
                values, order=2, tuple_size=2, inclusive=inclusive
            )
            for mask in range(32):
                bounds = (
                    [0]
                    + [i + 1 for i in range(5) if mask & (1 << i)]
                    + [6]
                )
                session = ScanSession(order=2, tuple_size=2, inclusive=inclusive)
                got = feed_partition(session, values, bounds)
                assert np.array_equal(got, expected), (bounds, inclusive)

    def test_single_element_chunks(self, rng):
        values = make_int_array(rng, 50)
        expected = host_prefix_sum(values, order=3, tuple_size=3)
        session = ScanSession(order=3, tuple_size=3)
        got = np.concatenate([session.feed(values[i:i + 1]) for i in range(50)])
        assert np.array_equal(got, expected)

    def test_chunk_edges_inside_tuple_stride(self, rng):
        # Chunk size 7 against tuple stride 4: every chunk boundary
        # falls mid-tuple, so lane phase tracking is load-bearing.
        values = make_int_array(rng, 98)
        expected = host_prefix_sum(values, tuple_size=4, inclusive=False)
        session = ScanSession(tuple_size=4, inclusive=False)
        got = feed_partition(session, values, list(range(0, 98, 7)) + [98])
        assert np.array_equal(got, expected)

    def test_empty_chunks_are_noops(self, rng):
        values = make_int_array(rng, 40)
        session = ScanSession(order=2)
        out = []
        for i in range(0, 40, 10):
            assert session.feed(values[0:0]).size == 0
            out.append(session.feed(values[i:i + 10]))
        assert np.array_equal(
            np.concatenate(out), host_prefix_sum(values, order=2)
        )
        # Empty feeds are scan no-ops but real feed calls: chunks must
        # equal the number of feed calls (8 here: 4 empty + 4 real).
        assert session.counters.chunks == 8
        assert session.counters.elements == 40
        assert session.counters.bytes_in == values.nbytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["add", "max", "mul"])
    def test_float_bit_identity(self, rng, dtype, op):
        # Floats are only pseudo-associative, so folding the carry over
        # a scanned chunk would round differently; the session's head
        # fold must reproduce the one-shot rounding exactly, bit for bit.
        values = ((rng.random(301) * 2 - 1) * 1000).astype(dtype)
        expected = host_prefix_sum(values, order=2, tuple_size=2, op=op)
        session = ScanSession(op=op, order=2, tuple_size=2)
        got = feed_partition(session, values, random_bounds(rng, len(values)))
        assert got.tobytes() == expected.tobytes()

    def test_order_and_exclusive_interact_across_chunks(self, rng):
        # Exclusive applies only to the final pass; interior passes must
        # keep inclusive carries even when output is exclusive.
        values = make_int_array(rng, 100)
        expected = host_prefix_sum(values, order=3, tuple_size=2, inclusive=False)
        session = ScanSession(order=3, tuple_size=2, inclusive=False)
        got = feed_partition(session, values, [0, 1, 3, 50, 51, 100])
        assert np.array_equal(got, expected)


class TestDelegatedEngines:
    def test_configured_inner_engine(self, rng):
        values = make_int_array(rng, 3_000, dtype=np.int64)
        engine = small_sam()
        session = ScanSession(op="add", order=2, tuple_size=3, engine=engine)
        got = feed_partition(session, values, [0, 7, 7, 1_100, 2_001, 3_000])
        expected = host_prefix_sum(values, order=2, tuple_size=3)
        assert np.array_equal(got, expected)
        assert session.counters.delegated_stage_scans > 0

    def test_delegated_stream_younger_than_a_stride(self, rng):
        # Chunks shorter than the tuple stride leave some lanes unseen:
        # the delegated fold must touch only the live ones.
        values = make_int_array(rng, 600, dtype=np.int64)
        session = ScanSession(
            order=2, tuple_size=4, inclusive=False, engine=small_sam()
        )
        got = feed_partition(session, values, [0, 1, 2, 2, 5, 11, 600])
        expected = host_prefix_sum(values, order=2, tuple_size=4, inclusive=False)
        assert np.array_equal(got, expected)
        assert session.counters.delegated_stage_scans == 2 * 5

    def test_engine_by_name(self, rng):
        values = make_int_array(rng, 2000)
        session = ScanSession(op="max", tuple_size=2, engine="sam")
        got = feed_partition(session, values, [0, 501, 1000, 2000])
        expected = host_prefix_sum(values, tuple_size=2, op="max")
        assert np.array_equal(got, expected)
        assert session.counters.engine_used == "sam"
        assert session.counters.delegated_stage_scans == 3

    def test_floats_bypass_delegation(self, rng):
        # Engines only guarantee bit-identity for integers; float
        # chunks must silently take the exact host continuation.
        values = rng.random(5000).astype(np.float64)
        session = ScanSession(engine="sam")
        got = feed_partition(session, values, [0, 1234, 5000])
        assert got.tobytes() == host_prefix_sum(values).tobytes()
        assert session.counters.delegated_stage_scans == 0


class TestSessionState:
    def test_snapshot_and_restore_continues_identically(self, rng):
        values = make_int_array(rng, 200)
        expected = host_prefix_sum(values, order=2, tuple_size=3, inclusive=False)

        first = ScanSession(order=2, tuple_size=3, inclusive=False)
        head = first.feed(values[:77])
        state = first.state_dict()

        second = ScanSession(
            order=2, tuple_size=3, inclusive=False, dtype=np.int32
        )
        second.load_state_dict(state)
        tail = second.feed(values[77:])
        assert np.array_equal(np.concatenate([head, tail]), expected)
        assert second.offset == 200

    def test_state_roundtrips_through_json(self, rng):
        import json

        values = make_int_array(rng, 64, dtype=np.uint64, lo=0, hi=2**40)
        session = ScanSession(dtype=np.uint64, tuple_size=3)
        session.feed(values[:41])
        state = json.loads(json.dumps(session.state_dict()))
        clone = ScanSession(dtype=np.uint64, tuple_size=3)
        clone.load_state_dict(state)
        a = session.feed(values[41:])
        b = clone.feed(values[41:])
        assert np.array_equal(a, b)

    def test_mismatched_config_rejected(self, rng):
        session = ScanSession(order=2, dtype=np.int32)
        session.feed(make_int_array(rng, 10))
        state = session.state_dict()
        other = ScanSession(order=3, dtype=np.int32)
        with pytest.raises(CheckpointMismatchError, match="order"):
            other.load_state_dict(state)

    def test_snapshot_before_dtype_known_rejected(self):
        with pytest.raises(SessionStateError, match="dtype"):
            ScanSession().state_dict()

    def test_dtype_locked_after_first_feed(self, rng):
        session = ScanSession()
        session.feed(make_int_array(rng, 8, dtype=np.int32))
        with pytest.raises(SessionStateError, match="locked"):
            session.feed(make_int_array(rng, 8, dtype=np.int64))

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            ScanSession(order=0)
        with pytest.raises(ValueError, match="tuple_size"):
            ScanSession(tuple_size=0)
        with pytest.raises(ValueError, match="1-D"):
            ScanSession().feed(np.zeros((2, 2), dtype=np.int32))

    def test_counters_shape(self, rng):
        values = make_int_array(rng, 100)
        session = ScanSession()
        session.feed(values[:60])
        session.feed(values[60:])
        c = session.counters
        assert c.chunks == 2
        assert c.elements == 100
        assert c.bytes_in == values.nbytes
        assert c.seconds_scan > 0
        data = c.as_dict()
        assert data["engine_used"] == "host"
        assert "seconds_total" in data
        assert "chunks=2" in str(c)


class TestCountersRoundTrip:
    def test_to_dict_from_dict_is_exact(self, rng):
        session = ScanSession(op="add", dtype=np.int64)
        session.feed(make_int_array(rng, 100, dtype=np.int64))
        session.feed(make_int_array(rng, 50, dtype=np.int64))
        c = session.counters
        back = type(c).from_dict(c.to_dict())
        assert back == c

    def test_to_dict_is_json_stable(self, rng):
        import json

        session = ScanSession(op="add", dtype=np.int64)
        session.feed(make_int_array(rng, 10, dtype=np.int64))
        c = session.counters
        restored = type(c).from_dict(json.loads(json.dumps(c.to_dict())))
        assert restored == c

    def test_from_dict_accepts_as_dict_and_unknown_keys(self):
        from repro.stream.counters import StreamCounters

        c = StreamCounters(chunks=3, elements=7, batched_feeds=2)
        assert StreamCounters.from_dict(c.as_dict()) == c
        data = c.to_dict()
        data["a_future_field"] = 123
        assert StreamCounters.from_dict(data) == c

    def test_to_dict_excludes_derived_fields(self):
        from repro.stream.counters import StreamCounters

        data = StreamCounters().to_dict()
        assert "seconds_total" not in data
        assert "batched_feeds" in data


class TestStateIntegrity:
    def test_tampered_config_hash_is_typed_error(self, rng):
        """A snapshot whose recorded config no longer matches its own
        hash must raise the typed mismatch error, not be applied (and
        not a bare ValueError)."""
        session = ScanSession(op="add", dtype=np.int64, tuple_size=2)
        session.feed(make_int_array(rng, 20, dtype=np.int64))
        state = session.state_dict()
        state["config_hash"] = "0" * len(state["config_hash"])
        clone = ScanSession(op="add", dtype=np.int64, tuple_size=2)
        with pytest.raises(CheckpointMismatchError):
            clone.load_state_dict(state)

    def test_legacy_state_without_hash_still_loads(self, rng):
        values = make_int_array(rng, 60, dtype=np.int64)
        session = ScanSession(op="add", dtype=np.int64)
        session.feed(values[:37].copy())
        state = session.state_dict()
        del state["config_hash"]
        clone = ScanSession(op="add", dtype=np.int64)
        clone.load_state_dict(state)
        assert np.array_equal(
            clone.feed(values[37:].copy()), session.feed(values[37:].copy())
        )


class TestRestoredStateValidation:
    """Restored state is outside input (checkpoint files, serve RESTORE
    frames): every malformed field is a typed mismatch error that
    leaves the session untouched."""

    def _state(self, rng, **kwargs):
        session = ScanSession(dtype=np.int64, tuple_size=3, **kwargs)
        session.feed(make_int_array(rng, 10, dtype=np.int64))
        return session.state_dict()

    def _assert_rejected(self, state, **kwargs):
        clone = ScanSession(dtype=np.int64, tuple_size=3, **kwargs)
        with pytest.raises(CheckpointMismatchError):
            clone.load_state_dict(state)
        # Nothing was applied: the session still starts a fresh stream.
        assert clone.offset == 0
        ones = np.ones(4, dtype=np.int64)
        assert clone.feed(ones).tolist() == [1, 1, 1, 2]

    @pytest.mark.parametrize("offset", [-4, "7", 1.5, True, None])
    def test_offset_must_be_a_non_negative_int(self, rng, offset):
        state = self._state(rng)
        state["offset"] = offset
        self._assert_rejected(state)

    @pytest.mark.parametrize("blob", ["not base64!", "AAA", 12, None])
    def test_bad_carry_encoding(self, rng, blob):
        state = self._state(rng)
        state["carry"] = blob
        self._assert_rejected(state)

    @pytest.mark.parametrize("key", ["offset", "carry", "config"])
    def test_missing_key(self, rng, key):
        state = self._state(rng)
        del state[key]
        self._assert_rejected(state)

    def test_missing_or_bad_comp_blob(self, rng):
        session = ScanSession(dtype=np.float64, float_mode="compensated")
        session.feed(rng.normal(size=10))
        state = session.state_dict()
        for bad in (None, "%%%", state["carry"]):
            broken = dict(state, comp=bad)
            if bad is None:
                del broken["comp"]
            clone = ScanSession(dtype=np.float64, float_mode="compensated")
            with pytest.raises(CheckpointMismatchError):
                clone.load_state_dict(broken)
            assert clone.offset == 0

    def test_non_mapping_state(self):
        with pytest.raises(CheckpointMismatchError):
            ScanSession(dtype=np.int64).load_state_dict(["offset", 3])
