"""Typed errors for the streaming subsystem.

Callers can catch the base class to handle any streaming failure, or
the specific subclasses to react differently to checkpoint problems
vs. runtime failures.
"""

from __future__ import annotations


class StreamError(RuntimeError):
    """Base class for all streaming-scan failures."""


class SessionStateError(StreamError):
    """A session was asked to do something its state forbids
    (e.g. snapshot before the dtype is known, feed a mismatched dtype).
    """


class CheckpointError(StreamError):
    """A checkpoint file is unreadable, corrupt, or structurally wrong."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint is valid but belongs to a *different* job
    (different scan configuration or different input file).
    """


class InjectedFailureError(StreamError):
    """Raised by the test-only failure-injection hook to simulate a job
    being killed mid-run (the process aborts between checkpoints).
    """
