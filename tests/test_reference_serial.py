"""Tests of the serial reference oracle itself, anchored on the paper's
worked examples (Sections 1 and 2.4)."""

import numpy as np
import pytest

from repro.ops import ADD, MAX, XOR
from repro.reference import (
    exclusive_scan_serial,
    higher_order_prefix_sum_serial,
    inclusive_scan_serial,
    prefix_sum_serial,
    tuple_prefix_sum_serial,
)

#: Section 1's running example.
PAPER_INPUT = np.array([1, 2, 3, 4, 5, 2, 4, 6, 8, 10], dtype=np.int32)
PAPER_DIFFS = np.array([1, 1, 1, 1, 1, -3, 2, 2, 2, 2], dtype=np.int32)


class TestPaperExamples:
    def test_prefix_sum_of_differences_recovers_input(self):
        assert np.array_equal(inclusive_scan_serial(PAPER_DIFFS), PAPER_INPUT)

    def test_second_order_decode(self):
        # Section 2.4: the 2nd-order diff sequence of the example input.
        second_order = np.array([1, 0, 0, 0, 0, -4, 5, 0, 0, 0], dtype=np.int32)
        decoded = prefix_sum_serial(second_order, order=2)
        assert np.array_equal(decoded, PAPER_INPUT)


class TestInclusiveScan:
    def test_singleton(self):
        assert np.array_equal(
            inclusive_scan_serial(np.array([7], dtype=np.int32)),
            np.array([7], dtype=np.int32),
        )

    def test_all_ones(self):
        out = inclusive_scan_serial(np.ones(10, dtype=np.int64))
        assert np.array_equal(out, np.arange(1, 11, dtype=np.int64))

    def test_max_scan(self):
        values = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int32)
        out = inclusive_scan_serial(values, op=MAX)
        assert np.array_equal(out, np.array([3, 3, 4, 4, 5, 9, 9, 9], dtype=np.int32))

    def test_xor_scan_self_cancels(self):
        values = np.array([5, 5, 7, 7], dtype=np.int32)
        out = inclusive_scan_serial(values, op=XOR)
        assert np.array_equal(out, np.array([5, 0, 7, 0], dtype=np.int32))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            inclusive_scan_serial(np.zeros((2, 2), dtype=np.int32))

    def test_int32_wraparound(self):
        values = np.full(3, 2**30, dtype=np.int32)
        out = inclusive_scan_serial(values)
        assert out[2] == np.int32(3 * 2**30 - 2**32)


class TestExclusiveScan:
    def test_basic(self):
        values = np.array([1, 2, 3, 4], dtype=np.int32)
        out = exclusive_scan_serial(values)
        assert np.array_equal(out, np.array([0, 1, 3, 6], dtype=np.int32))

    def test_relates_to_inclusive(self, rng):
        values = rng.integers(-50, 50, 100).astype(np.int64)
        inc = inclusive_scan_serial(values)
        exc = exclusive_scan_serial(values)
        assert np.array_equal(exc[1:], inc[:-1])
        assert exc[0] == 0

    def test_max_exclusive_starts_at_identity(self):
        values = np.array([5, 1], dtype=np.int32)
        out = exclusive_scan_serial(values, op=MAX)
        assert out[0] == np.iinfo(np.int32).min

    def test_tuple_exclusive(self):
        values = np.array([1, 10, 2, 20, 3, 30], dtype=np.int32)
        out = exclusive_scan_serial(values, tuple_size=2)
        assert np.array_equal(out, np.array([0, 0, 1, 10, 3, 30], dtype=np.int32))

    def test_leading_negative_zero_survives(self):
        # Each lane starts from its first element, not identity + first:
        # 0.0 + -0.0 is 0.0, which would lose the sign one stride later.
        from repro.core.host import host_prefix_sum

        values = np.array([-0.0, -0.0, 1.0, 2.0])
        out = exclusive_scan_serial(values, tuple_size=2)
        want = host_prefix_sum(values, tuple_size=2, inclusive=False)
        assert np.array_equal(np.signbit(out), [False, False, True, True])
        assert out.tobytes() == want.tobytes()


class TestTupleScan:
    def test_lanes_are_independent(self):
        values = np.array([1, 100, 2, 200, 3, 300], dtype=np.int32)
        out = inclusive_scan_serial(values, tuple_size=2)
        assert np.array_equal(out, np.array([1, 100, 3, 300, 6, 600], dtype=np.int32))

    def test_strided_equals_reorder_formulation(self, rng):
        for s in (1, 2, 3, 4, 7):
            values = rng.integers(-20, 20, 85).astype(np.int32)
            strided = inclusive_scan_serial(values, tuple_size=s)
            reordered = tuple_prefix_sum_serial(values, tuple_size=s)
            assert np.array_equal(strided, reordered), s

    def test_length_not_multiple_of_tuple(self):
        values = np.array([1, 10, 2, 20, 3], dtype=np.int32)
        out = inclusive_scan_serial(values, tuple_size=2)
        assert np.array_equal(out, np.array([1, 10, 3, 30, 6], dtype=np.int32))

    def test_tuple_larger_than_input_is_copy(self):
        values = np.array([4, 5, 6], dtype=np.int32)
        out = inclusive_scan_serial(values, tuple_size=10)
        assert np.array_equal(out, values)


class TestHigherOrder:
    def test_matches_iterated_first_order(self, rng):
        values = rng.integers(-30, 30, 64).astype(np.int64)
        for q in (1, 2, 3, 5):
            iterated = values
            for _ in range(q):
                iterated = inclusive_scan_serial(iterated)
            assert np.array_equal(
                higher_order_prefix_sum_serial(values, order=q), iterated
            ), q

    def test_order2_of_ones_is_triangular(self):
        values = np.ones(6, dtype=np.int64)
        out = prefix_sum_serial(values, order=2)
        assert np.array_equal(out, np.array([1, 3, 6, 10, 15, 21], dtype=np.int64))

    def test_order3_of_ones_is_tetrahedral(self):
        values = np.ones(5, dtype=np.int64)
        out = prefix_sum_serial(values, order=3)
        assert np.array_equal(out, np.array([1, 4, 10, 20, 35], dtype=np.int64))

    def test_two_implementations_agree(self, rng):
        values = rng.integers(-9, 9, 50).astype(np.int32)
        for q in (1, 2, 4):
            assert np.array_equal(
                prefix_sum_serial(values, order=q),
                higher_order_prefix_sum_serial(values, order=q),
            )


class TestValidation:
    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="order"):
            prefix_sum_serial(PAPER_INPUT, order=0)

    def test_tuple_zero_rejected(self):
        with pytest.raises(ValueError, match="tuple_size"):
            prefix_sum_serial(PAPER_INPUT, tuple_size=0)

    def test_exclusive_higher_order_shifts_last_pass_only(self, rng):
        values = rng.integers(-9, 9, 40).astype(np.int32)
        expected = inclusive_scan_serial(values)
        expected = exclusive_scan_serial(expected)
        got = prefix_sum_serial(values, order=2, inclusive=False)
        assert np.array_equal(got, expected)
