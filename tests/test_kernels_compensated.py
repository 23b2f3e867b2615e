"""The compensated float kernel layer and its parallel decompositions.

The compensated contract (:mod:`repro.kernels.compensated`) has two
halves, and both are tested here:

* **Determinism** — under ``float_mode="compensated"`` the output is a
  pure function of the input: bit-identical for any slab thread count,
  any shard count, any chunk split, and any session feed boundary,
  because per-segment error-free totals are always folded through the
  same fixed 4096-row segment grid in the same canonical order.
* **Accuracy** — the rendered result is *faithful* (within one ulp of
  the true sum), so on cancellation-heavy inputs — where the naive
  left fold loses whole digits — the compensated scan must beat the
  naive serial error against a float128 oracle.  That inequality is
  the paper-level claim that makes the mode worth its 3x arithmetic.

Special values are part of the contract too: NaN/±inf poisoning must
be deterministic (same bits on every decomposition), ``-0.0`` is the
canonical additive identity and must survive where IEEE says it does,
and denormals must not flush through the two-sum.
"""

import os

import numpy as np
import pytest

from repro import kernels
from repro.kernels import (
    CompensatedCollectKernel,
    compensated_scan_into,
    compensated_supported,
    fresh_state,
    lane_scan_compensated,
    resolve_float_mode,
    segment_span,
)
from repro.kernels.compensated import check_compensated
from repro.kernels.splice import CompensatedCarry, splice
from repro.ops import get_op

OP = get_op("add")
THREADS = [1, 2, 3, 8]
SHARDS = [1, 2, 4]


def _bits(array):
    a = np.asarray(array)
    return a.view(np.uint32 if a.dtype.itemsize == 4 else np.uint64)


def _assert_bitwise(got, want, msg=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, msg
    assert np.array_equal(_bits(got), _bits(want)), msg


def _oneshot(x, s=1, threads=None):
    state = fresh_state(x.dtype, s)
    return lane_scan_compensated(x, OP, s, state, 0, threads=threads)


def _split_scan(x, s, cuts):
    state = fresh_state(x.dtype, s)
    outs, pos = [], 0
    for part in np.split(x, cuts):
        outs.append(lane_scan_compensated(part, OP, s, state, pos))
        pos += part.size
    return np.concatenate(outs) if outs else x.copy()


def _cancellation_corpus(rng, n, dtype=np.float64):
    """Large alternating terms whose partial sums repeatedly cancel:
    the naive fold's absorbed low-order digits never come back.  The
    sign flip is per *group* so the +big/-big pair still annihilates —
    per-element signs would random-walk the true prefix up to ~1e18,
    where even a correctly-rounded result carries a huge absolute
    error and the comparison says nothing."""
    big = 1e7 if np.dtype(dtype) == np.float32 else 1e16
    groups = n // 4 + 1
    base = np.tile(np.array([big, 1.0, -big, 1.0]), groups)
    base *= np.repeat(rng.choice([1.0, -1.0], groups), 4)
    return base[:n].astype(dtype)


def _oracle(x):
    """Extended-precision inclusive cumsum (float128/float80)."""
    return np.cumsum(x.astype(np.longdouble))


# -- accuracy: the reason the mode exists ------------------------------------


def test_compensated_beats_naive_on_cancellation(rng):
    """Acceptance criterion: max |error| vs the float128 oracle must
    not exceed the serial naive fold's on a cancellation corpus —
    and on this corpus it must beat it outright."""
    x = _cancellation_corpus(rng, 200_000)
    oracle = _oracle(x)
    naive_err = np.max(np.abs(np.cumsum(x).astype(np.longdouble) - oracle))
    comp_err = np.max(np.abs(_oneshot(x).astype(np.longdouble) - oracle))
    assert comp_err <= naive_err
    # Not a tie: the compensated result sits at the faithful-rounding
    # floor (prefixes near 1e16 round with error ~1; ulp there is 2)
    # while the naive fold's absorbed units accumulate linearly.
    assert comp_err < naive_err / 100
    # Faithful: within ~1 ulp of each true prefix.
    spacing = np.spacing(np.abs(oracle.astype(np.float64)) + 1e-300)
    ulps = np.abs(_oneshot(x).astype(np.longdouble) - oracle).astype(float) / spacing
    assert np.max(ulps) <= 2.0


def test_compensated_never_worse_on_benign_input(rng):
    x = rng.standard_normal(60_001) * 10.0 ** rng.integers(-8, 8, 60_001)
    oracle = _oracle(x)
    naive_err = np.max(np.abs(np.cumsum(x).astype(np.longdouble) - oracle))
    comp_err = np.max(np.abs(_oneshot(x).astype(np.longdouble) - oracle))
    assert comp_err <= naive_err


def test_float32_accuracy_against_float64_oracle(rng):
    x = _cancellation_corpus(rng, 40_000, np.float32)
    oracle = np.cumsum(x.astype(np.float64))
    naive_err = np.max(np.abs(np.cumsum(x).astype(np.float64) - oracle))
    comp_err = np.max(np.abs(_oneshot(x).astype(np.float64) - oracle))
    assert comp_err <= naive_err


# -- determinism: splits, threads, shards ------------------------------------


@pytest.mark.parametrize("s", [1, 2, 3])
def test_split_invariance_bitwise(rng, s):
    span = segment_span(s)
    for n in (s, span - s, span, span + s, 2 * span + 7 * s):
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-10, 10, n)
        base = _oneshot(x, s)
        cuts = sorted(set(int(c) for c in rng.integers(0, n + 1, 4)))
        _assert_bitwise(_split_scan(x, s, cuts), base, f"s={s} n={n}")


@pytest.mark.parametrize("threads", THREADS)
def test_thread_invariance_bitwise(rng, threads):
    for s in (1, 3):
        n = 5 * segment_span(s) + 13 * s
        x = _cancellation_corpus(rng, n)
        _assert_bitwise(
            _oneshot(x, s, threads=threads), _oneshot(x, s),
            f"threads={threads} s={s}",
        )


def test_threaded_scan_resumes_mid_segment(rng):
    s = 2
    x = rng.standard_normal(3 * segment_span(s) + 20)
    full = _oneshot(x, s)
    state = fresh_state(x.dtype, s)
    head = lane_scan_compensated(x[:101 * s], OP, s, state, 0)
    tail = lane_scan_compensated(x[101 * s:], OP, s, state, 101 * s, threads=8)
    _assert_bitwise(np.concatenate([head, tail]), full)


def test_session_float_mode_matches_kernel(rng):
    from repro.stream import ScanSession

    x = _cancellation_corpus(rng, 30_000)
    session = ScanSession(op="add", float_mode="compensated")
    parts, pos = [], 0
    while pos < len(x):
        step = int(rng.integers(1, 5000))
        parts.append(session.feed(x[pos:pos + step]))
        pos += step
    _assert_bitwise(np.concatenate(parts), _oneshot(x))


@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("inclusive", [True, False])
def test_sharded_bitwise_identity(rng, tmp_path, shards, inclusive):
    from repro.stream import scan_file_sharded

    s = 2
    span = segment_span(s)
    n = 3 * span + 11 * s  # shard bounds land mid-segment without alignment
    x = _cancellation_corpus(rng, n)
    x.tofile(tmp_path / "in.bin")
    result = scan_file_sharded(
        tmp_path / "in.bin", tmp_path / "out.bin",
        dtype=np.float64, op="add", tuple_size=s, inclusive=inclusive,
        shards=shards, workers=2, chunk_bytes=1 << 14,
        float_mode="compensated",
    )
    assert result.fallback_reason is None
    want = compensated_scan_into(
        x, np.empty_like(x), OP, order=1, tuple_size=s, inclusive=inclusive
    )
    _assert_bitwise(np.fromfile(tmp_path / "out.bin", dtype=np.float64), want)


def test_sharded_crash_resume_bitwise(rng, tmp_path):
    from repro.stream import InjectedFailureError, scan_file_sharded

    x = _cancellation_corpus(rng, 4 * segment_span(1) + 77)
    x.tofile(tmp_path / "in.bin")
    kwargs = dict(
        dtype=np.float64, op="add", shards=4, workers=1,
        chunk_bytes=1 << 13, float_mode="compensated",
        checkpoint=str(tmp_path / "manifest.json"),
    )
    with pytest.raises(InjectedFailureError):
        scan_file_sharded(
            tmp_path / "in.bin", tmp_path / "out.bin",
            fail_after_shards=2, **kwargs,
        )
    result = scan_file_sharded(
        tmp_path / "in.bin", tmp_path / "out.bin", resume=True, **kwargs
    )
    assert result.counters.resumes >= 1
    _assert_bitwise(
        np.fromfile(tmp_path / "out.bin", dtype=np.float64), _oneshot(x)
    )


def test_sharded_exact_floats_fall_back_with_hint(rng, tmp_path):
    from repro.stream import scan_file_sharded

    x = rng.standard_normal(10_000)
    x.tofile(tmp_path / "in.bin")
    result = scan_file_sharded(
        tmp_path / "in.bin", tmp_path / "out.bin",
        dtype=np.float64, op="add", shards=4,
    )
    assert result.fallback_reason is not None
    assert "compensated" in result.fallback_reason
    _assert_bitwise(
        np.fromfile(tmp_path / "out.bin", dtype=np.float64), np.cumsum(x)
    )


def test_sharded_compensated_higher_order_falls_back_compensated(rng, tmp_path):
    from repro.stream import scan_file_sharded

    x = rng.standard_normal(9_000)
    x.tofile(tmp_path / "in.bin")
    result = scan_file_sharded(
        tmp_path / "in.bin", tmp_path / "out.bin",
        dtype=np.float64, op="add", order=2, shards=3,
        float_mode="compensated",
    )
    assert result.fallback_reason is not None
    want = compensated_scan_into(
        x, np.empty_like(x), OP, order=2, tuple_size=1, inclusive=True
    )
    _assert_bitwise(np.fromfile(tmp_path / "out.bin", dtype=np.float64), want)


# -- collect/fold kernels: the sharded driver's building blocks --------------


def test_collect_fold_composition_matches_oneshot(rng):
    s = 2
    span = segment_span(s)
    n = 5 * span + 31 * s
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
    base = _oneshot(x, s)
    bounds = [0, 2 * span, 3 * span, n]  # segment-aligned shard cuts
    aggregates, locals_ = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        kernel = CompensatedCollectKernel(OP, x.dtype, s, start=lo)
        parts = [
            kernel.feed(x[c:min(c + 4999, hi)]) for c in range(lo, hi, 4999)
        ]
        locals_.append(np.concatenate(parts))
        aggregates.append(kernel.segment_totals())
    # Each shard renders from the carry the splice hands it, rescanning
    # its raw values from the incoming (H, G) chain state.
    kind = CompensatedCarry(x.dtype, s)
    counts = [np.full(s, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]
    seen = [np.ones(s, dtype=bool)] * len(counts)
    carries, _ = splice(kind, kind.identity(), aggregates, counts, seen)
    outs = []
    for lo, local, carry in zip(bounds, locals_, carries):
        fold = kind.fold(carry, lo, None, lambda a, b: x[a:b])
        for c in range(0, local.size, 7001):
            stop = min(c + 7001, local.size)
            fold(local[c:stop], lo + c)
        outs.append(local)
    _assert_bitwise(np.concatenate(outs), base)


# -- special values -----------------------------------------------------------


def test_negative_zero_matches_serial_fold():
    x = np.array([-0.0, 0.0, -0.0, -0.0, 1.0, -1.0, -0.0])
    _assert_bitwise(_oneshot(x), np.cumsum(x))
    runs = np.full(9, -0.0)
    _assert_bitwise(_oneshot(runs), np.full(9, -0.0))


def test_nan_inf_poisoning_deterministic(rng):
    n = 3 * segment_span(1) + 50
    x = rng.standard_normal(n)
    x[100], x[5000], x[9000] = np.inf, np.nan, -np.inf
    base = _oneshot(x)
    _assert_bitwise(_oneshot(x, threads=8), base)
    _assert_bitwise(_split_scan(x, 1, [7, 4096, 10_000]), base)
    assert np.all(np.isnan(base[5000:]))  # NaN poisons every later prefix


def test_denormals_survive_two_sum(rng):
    tiny = np.finfo(np.float64).tiny
    x = rng.choice([tiny / 4, -tiny / 8, tiny / 2], 20_000)
    _assert_bitwise(_oneshot(x, threads=3), _oneshot(x))
    oracle = _oracle(x).astype(np.float64)
    assert np.max(np.abs(_oneshot(x) - oracle)) <= 4 * tiny


# -- scan_into orders, exclusive, and mode resolution -------------------------


def test_order_two_is_iterated_scan(rng):
    x = rng.standard_normal(2 * segment_span(1) + 9)
    out = compensated_scan_into(
        x, np.empty_like(x), OP, order=2, tuple_size=1, inclusive=True
    )
    _assert_bitwise(out, _oneshot(_oneshot(x)))


def test_exclusive_is_shifted_inclusive(rng):
    x = rng.standard_normal(10_000)
    exc = compensated_scan_into(
        x, np.empty_like(x), OP, order=1, tuple_size=1, inclusive=False
    )
    inc = _oneshot(x)
    _assert_bitwise(exc[1:], inc[:-1])
    assert exc[0] == 0.0


def test_resolve_float_mode_semantics():
    assert resolve_float_mode(np.int64, "compensated", None) is None
    assert resolve_float_mode(np.float64, None, None) == "exact"
    assert resolve_float_mode(np.float64, "compensated", None) == "compensated"
    assert resolve_float_mode(np.float64, None, False) == "regrouped"
    assert resolve_float_mode(np.float64, None, True) == "exact"
    # float_mode wins over the legacy tri-state when both are given
    assert resolve_float_mode(np.float64, "compensated", True) == "compensated"


def test_check_compensated_rejects_non_add():
    assert compensated_supported("add", np.float64)
    assert not compensated_supported("max", np.float64)
    assert not compensated_supported("add", np.int64)
    with pytest.raises(TypeError):
        check_compensated(get_op("max"), np.float64)


def test_sharded_compensated_rejects_non_add(rng, tmp_path):
    from repro.stream import scan_file_sharded

    rng.standard_normal(100).tofile(tmp_path / "in.bin")
    with pytest.raises(TypeError):
        scan_file_sharded(
            tmp_path / "in.bin", tmp_path / "out.bin",
            dtype=np.float64, op="max", shards=2, float_mode="compensated",
        )


# -- the planner under the compensated contract -------------------------------


def test_planner_plans_compensated_serial(rng):
    from repro.plan import Machine, Workload, auto_scan, plan_scan

    # The compensated kind re-reads its error buffer in the fold, so
    # the gates plan it serial; a forced threaded:2 stays bit-identical.
    machine = Machine(cpu_count=8, parallel_cutover_bytes=1 << 20)
    workload = Workload(nbytes=64 << 20, dtype="float64", op="add",
                        float_mode="compensated", source="memory")
    plan = plan_scan(workload, machine=machine)
    assert plan.chosen.label == "serial"
    assert "compensated" in plan.reason
    x = _cancellation_corpus(rng, 60_000)
    _assert_bitwise(
        auto_scan(x, float_mode="compensated", force="threaded:2"), _oneshot(x)
    )
    # Exact-mode floats stay serial, the rationale says why, and
    # forcing slab threads on them is refused.
    exact = plan_scan(
        Workload(nbytes=64 << 20, dtype="float64", op="add", source="memory"),
        machine=machine,
    )
    assert exact.chosen.label == "serial"
    assert "compensated" in exact.reason
    with pytest.raises(ValueError, match="cannot force"):
        plan_scan(exact.workload, machine=machine, force="threaded:2")


def test_planner_tiny_shortcut_honors_float_mode(rng):
    """Regression: the tiny-input serial shortcut must still execute
    under the compensated contract, not the naive fold."""
    from repro.plan import auto_scan

    x = _cancellation_corpus(rng, 5_000)  # well under TINY_BYTES
    _assert_bitwise(auto_scan(x, float_mode="compensated"), _oneshot(x))


@pytest.mark.parametrize("force", [None, "serial", "threaded:2"])
def test_planned_float_execution_bitwise(rng, force):
    from repro.plan import auto_scan

    x = _cancellation_corpus(rng, 60_000)
    _assert_bitwise(
        auto_scan(x, float_mode="compensated", force=force), _oneshot(x)
    )


def test_planner_rejects_process_pool_for_floats(rng):
    from repro.plan import auto_scan

    x = _cancellation_corpus(rng, 60_000)
    with pytest.raises(ValueError):
        auto_scan(x, float_mode="compensated", force="parallel:2")


# -- api surface ---------------------------------------------------------------


def test_api_float_mode_paths_agree(rng):
    import repro

    x = _cancellation_corpus(rng, 50_000)
    want = _oneshot(x)
    _assert_bitwise(repro.scan(x, float_mode="compensated"), want)
    _assert_bitwise(
        repro.scan(x, float_mode="compensated", engine="host"), want
    )
    _assert_bitwise(
        repro.scan(x, float_mode="compensated", engine="threaded"), want
    )
    with pytest.raises(ValueError):
        repro.scan(x, float_mode="compensated", engine="sam")


def test_api_scan_file_float_mode(rng, tmp_path):
    import repro

    x = _cancellation_corpus(rng, 30_000)
    x.tofile(tmp_path / "in.bin")
    repro.scan_file(
        tmp_path / "in.bin", tmp_path / "out.bin",
        dtype="float64", float_mode="compensated", shards=3,
        chunk_bytes=1 << 14,
    )
    _assert_bitwise(
        np.fromfile(tmp_path / "out.bin", dtype=np.float64), _oneshot(x)
    )


def test_exact_keyword_is_rejected(tmp_path):
    """The deprecated ``exact=`` alias is gone: ``float_mode`` is the
    only float switch on the file drivers and the threaded engine."""
    import repro
    from repro.kernels import ThreadedScan, threaded_scan_into
    from repro.stream import scan_file_sharded

    x = np.arange(8, dtype=np.float64)
    x.tofile(tmp_path / "in.bin")
    out = tmp_path / "out.bin"
    with pytest.raises(TypeError, match="exact"):
        scan_file_sharded(tmp_path / "in.bin", out, dtype=np.float64,
                          exact=False)
    with pytest.raises(TypeError, match="exact"):
        repro.scan_file(tmp_path / "in.bin", out, dtype=np.float64,
                        exact=False)
    with pytest.raises(TypeError, match="exact"):
        ThreadedScan(exact=False)
    with pytest.raises(TypeError, match="exact"):
        threaded_scan_into(x, np.empty_like(x), "add", exact=False)
