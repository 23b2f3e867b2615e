"""Counters for streaming scans.

A streaming job's wall-clock decomposes into phases the one-shot
engines do not have — reading chunks out of the memory map, scanning
them, writing scanned bytes back out, and persisting checkpoints — so
:class:`StreamCounters` records each phase separately, plus the event
counts (chunks, bytes, checkpoint writes, resumes) that determine
whether an out-of-core run behaved as configured: a dataclass with
aggregate properties, ``as_dict`` for JSON benchmarks, and a compact
``__str__`` for logs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class StreamCounters:
    """Event counts and per-phase wall-clock for one streaming job.

    ``chunks`` / ``elements`` / ``bytes_in`` are filled by
    :meth:`repro.stream.ScanSession.feed`; the read / write /
    checkpoint phases and ``bytes_out`` are filled by the out-of-core
    driver.  ``engine_used`` names the inner engine chunks were scanned
    on (``"host"`` when no engine was delegated to), and
    ``delegated_stage_scans`` counts how many stage scans actually went
    through it (float inputs always take the exact host path, see
    :mod:`repro.stream.session`); ``threaded_scans`` counts stage scans
    routed through the slab-parallel in-memory kernel
    (:mod:`repro.kernels.threaded`) when ``threads=`` is requested,
    ``batched_feeds`` counts feed calls serviced by a coalesced
    multi-stream dispatch (:func:`repro.serve.feed_batch`) instead of a
    per-session kernel call, and ``fused_order_scans`` counts feed
    calls that took the single-pass fused order-q tile path
    (:func:`repro.kernels.fused_lane_scan`) instead of pass-per-order
    stage scans.  A resumed job *restores* the
    counters persisted in the checkpoint, so totals are cumulative
    across interruptions; ``resumes`` says how often that happened.

    The sharded driver (:mod:`repro.stream.sharded`) adds its own
    events: ``shards`` (shard scan passes run), ``primed_shards``
    (shards whose splice carry was already final at scan start, so the
    carry was baked into the scan and the fold pass skipped),
    ``folded_shards`` (shards that did need a separate fold pass),
    ``chunk_resizes`` (adaptive chunk-sizing adjustments), and the
    ``seconds_splice`` / ``seconds_fold`` phases.  Per-shard counters
    are combined with :meth:`aggregate`.

    Compressed streaming adds ``compressed_bytes_in`` /
    ``compressed_bytes_out`` (container bytes actually moved when the
    input and/or output is a blocked ``.samb`` container),
    ``decoded_bytes_in`` (the logical bytes those container bytes
    decoded into — distinct from ``bytes_in``, which also counts the
    sharded driver's raw ping-pong re-reads on later passes, see
    :meth:`compression_ratio_in`), and the ``seconds_decode`` /
    ``seconds_encode`` phases of the fused decode-scan-encode loop.
    ``overlapped_decodes`` counts chunks whose container decode ran
    concurrently with the previous chunk's scan (the sharded driver's
    pass-1 prefetch; its decode seconds overlap the scan wall-clock
    instead of adding to it).

    The ``planner_*`` fields make :mod:`repro.plan` decisions auditable
    wherever counters already flow (benchmarks, the serve STATS verb):
    ``planner_strategy`` is the chosen strategy's label (e.g.
    ``"stream"``; empty when the caller pinned the configuration by
    hand).  ``planner_cache_hits``, ``planner_cache_misses`` and
    ``planner_feedback_updates`` stay 0: the planner keeps no
    calibration store, and the fields are kept so the frozen
    checkpoint and manifest formats do not change.
    """

    chunks: int = 0
    elements: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    compressed_bytes_in: int = 0
    compressed_bytes_out: int = 0
    decoded_bytes_in: int = 0
    overlapped_decodes: int = 0
    checkpoint_writes: int = 0
    resumes: int = 0
    delegated_stage_scans: int = 0
    threaded_scans: int = 0
    batched_feeds: int = 0
    fused_order_scans: int = 0
    shards: int = 0
    primed_shards: int = 0
    folded_shards: int = 0
    chunk_resizes: int = 0
    planner_cache_hits: int = 0
    planner_cache_misses: int = 0
    planner_feedback_updates: int = 0
    engine_used: str = "host"
    planner_strategy: str = ""
    seconds_read: float = 0.0
    seconds_decode: float = 0.0
    seconds_scan: float = 0.0
    seconds_encode: float = 0.0
    seconds_write: float = 0.0
    seconds_checkpoint: float = 0.0
    seconds_splice: float = 0.0
    seconds_fold: float = 0.0

    # -- aggregates ------------------------------------------------------

    @property
    def seconds_total(self) -> float:
        return (
            self.seconds_read
            + self.seconds_decode
            + self.seconds_scan
            + self.seconds_encode
            + self.seconds_write
            + self.seconds_checkpoint
            + self.seconds_splice
            + self.seconds_fold
        )

    def compression_ratio_in(self) -> float:
        """Logical decoded bytes per compressed input byte (0 when the
        input was not compressed).  Uses ``decoded_bytes_in`` so the
        sharded driver's later raw passes don't inflate the ratio;
        falls back to ``bytes_in`` for counters restored from an older
        checkpoint that predates the field."""
        if not self.compressed_bytes_in:
            return 0.0
        return (
            self.decoded_bytes_in or self.bytes_in
        ) / self.compressed_bytes_in

    def compression_ratio_out(self) -> float:
        """Logical output bytes per compressed output byte (0 when the
        output was not compressed)."""
        if not self.compressed_bytes_out:
            return 0.0
        return self.bytes_out / self.compressed_bytes_out

    def to_dict(self) -> dict:
        """The stable JSON form: exactly the dataclass fields, nothing
        derived, so ``from_dict(to_dict(c)) == c`` round-trips byte for
        byte.  The serve STATS endpoint and the registry checkpoint
        both persist counters in this form."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def as_dict(self) -> dict:
        """:meth:`to_dict` plus the derived ``seconds_total`` aggregate
        (the benchmark/report form; not round-trippable field-for-field,
        use :meth:`to_dict` for persistence)."""
        data = self.to_dict()
        data["seconds_total"] = self.seconds_total
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StreamCounters":
        """Rebuild counters from :meth:`to_dict` (or :meth:`as_dict`)
        output; unknown keys — e.g. a newer build's fields, or the
        derived ``seconds_total`` — are ignored."""
        known = {spec.name for spec in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in known})

    @classmethod
    def aggregate(cls, parts, engine_used: str = None) -> "StreamCounters":
        """Sum per-shard (or per-phase) counters into one total.

        Numeric fields add; ``engine_used`` is taken from the argument,
        or from the parts when they all agree (``"mixed"`` otherwise).
        Phase seconds are summed *work*, not wall-clock: shards running
        in parallel will legitimately report more phase-seconds than
        the job's elapsed time.
        """
        total = cls()
        labels = set()
        strategies = set()
        for part in parts:
            for spec in fields(cls):
                value = getattr(part, spec.name)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    setattr(total, spec.name, getattr(total, spec.name) + value)
            labels.add(part.engine_used)
            if part.planner_strategy:
                strategies.add(part.planner_strategy)
        if engine_used is not None:
            total.engine_used = engine_used
        elif len(labels) == 1:
            total.engine_used = labels.pop()
        elif labels:
            total.engine_used = "mixed"
        if len(strategies) == 1:
            total.planner_strategy = strategies.pop()
        elif strategies:
            total.planner_strategy = "mixed"
        return total

    def __str__(self) -> str:
        sharded = (
            f"shards={self.shards} (primed {self.primed_shards}, "
            f"folded {self.folded_shards}), "
            if self.shards
            else ""
        )
        compressed = ""
        if self.compressed_bytes_in or self.compressed_bytes_out:
            compressed = (
                f"compressed={self.compressed_bytes_in}"
                f"->{self.compressed_bytes_out}, "
            )
        return (
            f"StreamCounters(engine={self.engine_used}, "
            f"chunks={self.chunks}, elements={self.elements}, "
            f"bytes={self.bytes_in}->{self.bytes_out}, {compressed}{sharded}"
            f"checkpoints={self.checkpoint_writes}, resumes={self.resumes}, "
            f"wall={self.seconds_total:.4f}s "
            f"[read {self.seconds_read:.4f} decode {self.seconds_decode:.4f} "
            f"scan {self.seconds_scan:.4f} encode {self.seconds_encode:.4f} "
            f"write {self.seconds_write:.4f} ckpt {self.seconds_checkpoint:.4f} "
            f"splice {self.seconds_splice:.4f} fold {self.seconds_fold:.4f}])"
        )
