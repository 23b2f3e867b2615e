"""Tests for the engine= routing in the public API."""

import numpy as np
import pytest

import repro
from conftest import make_int_array, small_sam
from repro.baselines import DecoupledLookbackScan, StreamScan
from repro.reference import prefix_sum_serial


class TestEngineParameter:
    def test_prefix_sum_through_sam(self, rng):
        values = make_int_array(rng, 3000)
        host = repro.prefix_sum(values, order=2, tuple_size=2)
        via_engine = repro.prefix_sum(
            values, order=2, tuple_size=2, engine=small_sam()
        )
        assert np.array_equal(host, via_engine)

    def test_scan_through_baseline(self, rng):
        values = make_int_array(rng, 2000)
        engine = StreamScan(threads_per_block=64, items_per_thread=2)
        assert np.array_equal(
            repro.scan(values, op="max", engine=engine),
            repro.scan(values, op="max"),
        )

    def test_exclusive_through_engine(self, rng):
        values = make_int_array(rng, 1500)
        engine = DecoupledLookbackScan(threads_per_block=64, items_per_thread=2)
        assert np.array_equal(
            repro.prefix_sum(values, inclusive=False, engine=engine),
            prefix_sum_serial(values, inclusive=False),
        )

    def test_delta_decode_through_engine(self, rng):
        values = make_int_array(rng, 2500)
        deltas = repro.delta_encode(values, order=3, tuple_size=2)
        decoded = repro.delta_decode(
            deltas, order=3, tuple_size=2, engine=small_sam()
        )
        assert np.array_equal(decoded, values)

    def test_custom_op_object_through_engine(self, rng):
        from repro.ops import MAX

        values = make_int_array(rng, 800)
        got = repro.scan(values, op=MAX, engine=small_sam())
        assert np.array_equal(got, prefix_sum_serial(values, op="max"))

    def test_none_engine_is_host_path(self, rng):
        values = make_int_array(rng, 100)
        assert np.array_equal(
            repro.prefix_sum(values, engine=None), prefix_sum_serial(values)
        )


class TestApiRouting:
    def test_engine_by_name(self, rng):
        values = make_int_array(rng, 2000, dtype=np.int64)
        got = repro.prefix_sum(values, order=2, engine="threaded")
        assert np.array_equal(got, prefix_sum_serial(values, order=2))

    def test_scan_by_name(self, rng):
        values = make_int_array(rng, 2000, dtype=np.int64)
        got = repro.scan(values, op="max", engine="threaded")
        assert np.array_equal(got, prefix_sum_serial(values, op="max"))

    def test_host_name_is_host_path(self, rng):
        values = make_int_array(rng, 100, dtype=np.int32)
        assert np.array_equal(
            repro.prefix_sum(values, engine="host"), prefix_sum_serial(values)
        )

    def test_engine_names_all_resolve(self):
        assert len(repro.ENGINE_NAMES) == 9
        for name in repro.ENGINE_NAMES:
            engine = repro.resolve_engine(name)
            assert engine is None or hasattr(engine, "run")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            repro.resolve_engine("warp_drive")

    def test_process_pool_name_rejected(self, rng):
        # Not an engine name: it must fail loudly, never fall back to
        # another engine.
        values = make_int_array(rng, 100, dtype=np.int64)
        with pytest.raises(ValueError, match="unknown engine"):
            repro.prefix_sum(values, engine="parallel")

    def test_engine_object_passthrough(self):
        engine = small_sam()
        assert repro.resolve_engine(engine) is engine
