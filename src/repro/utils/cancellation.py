"""Cooperative query cancellation: deadlines and explicit cancel signals.

The evaluation algorithms are plain synchronous Python — a cancelled query
cannot be pre-empted, it has to *notice*.  A :class:`CancellationToken`
carries the signal (an explicit :meth:`~CancellationToken.cancel` or a
wall-clock deadline) and the algorithms consult it through
:meth:`~repro.relational.operators.WorkCounter.check`, which the engine calls
at every recorded step and the inner loops call on their own cadence (the
generic join checks every :data:`~repro.algorithms.generic_join.CHECK_INTERVAL`
explored partial assignments, the vectorized WCOJ once per frontier level).
A tripped token raises :class:`QueryCancelledError` *mid-plan*, so a query
with a huge intermediate join stops within a bounded amount of extra work
instead of at the next materialised result.

Deadlines are absolute wall-clock times (``time.time()``).
"""

from __future__ import annotations

import time


class QueryCancelledError(RuntimeError):
    """Raised inside evaluation loops when a cancellation token has tripped."""


class CancellationToken:
    """A cooperative cancellation signal: explicit cancel and/or a deadline.

    The token itself holds no lock: ``cancel()`` flips a single attribute
    (atomic under the GIL) and ``check()`` only reads, so tokens can be shared
    freely between the asyncio service loop and its engine-call thread pool.
    """

    def __init__(self, deadline: float | None = None) -> None:
        #: Absolute wall-clock deadline (``time.time()`` seconds), or ``None``.
        self.deadline = deadline
        self._cancelled = False
        self._reason: str | None = None

    @classmethod
    def with_timeout(cls, seconds: float | None) -> "CancellationToken":
        """A token that trips ``seconds`` from now (``None`` = no deadline)."""
        if seconds is None:
            return cls()
        return cls(deadline=time.time() + seconds)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def deadline_exceeded(self) -> bool:
        """True when the trip came from the deadline, not an explicit cancel."""
        return self._cancelled and self._reason is not None \
            and self._reason.startswith("deadline exceeded")

    def remaining(self) -> float | None:
        """Seconds until the deadline (may be negative), or ``None``."""
        if self.deadline is None:
            return None
        return self.deadline - time.time()

    def cancel(self, reason: str = "query cancelled") -> None:
        """Trip the token; every subsequent :meth:`check` raises."""
        if not self._cancelled:
            self._reason = reason
            self._cancelled = True

    def check(self) -> None:
        """Raise :class:`QueryCancelledError` if the token has tripped.

        The deadline is evaluated lazily here, so a token created with a
        deadline costs one ``time.time()`` call per check and nothing else.
        """
        if not self._cancelled and self.deadline is not None \
                and time.time() >= self.deadline:
            self.cancel(f"deadline exceeded after {self.deadline:.6f}")
        if self._cancelled:
            raise QueryCancelledError(self._reason or "query cancelled")
