"""Deterministic retry policies for idempotent runtime operations.

:class:`RetryPolicy` wraps a callable in exponential backoff with
*deterministic* jitter: the jitter sequence comes from a
``numpy.random.Generator`` seeded per call, so two runs of the same
campaign under the same fault plan sleep for identical durations — the
property that keeps chaos runs reproducible.

The policy is **for idempotent operations only**.  Every wired call site
(status queries, heartbeat, ack, submit, gateway reads) tolerates being
executed twice; ``claim`` is deliberately *not* retried at this layer
because a lost response leaves a lease the client does not know it holds
— the worker loop handles claim failures itself.

When every allowed attempt fails, :meth:`RetryPolicy.call` raises
:class:`~repro.common.exceptions.RetryExhaustedError` carrying the full
attempt trail (one :class:`Attempt` per try, with the error seen and the
backoff slept) so operators can see the failure history, not just the
last error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple, Type

import numpy as np

from repro.common.codec import Mapped
from repro.common.exceptions import ConfigurationError, RetryExhaustedError

__all__ = ["Attempt", "RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class Attempt:
    """One failed try inside a retried call."""

    number: int
    error: BaseException = field(compare=False)
    delay_seconds: float

    def __str__(self) -> str:
        backoff = (
            f"slept {self.delay_seconds:.3f}s"
            if self.delay_seconds > 0
            else "gave up"
        )
        return (
            f"attempt {self.number}: "
            f"{type(self.error).__name__}: {self.error} ({backoff})"
        )


@dataclass(frozen=True)
class RetryPolicy(Mapped, label="retry_policy"):
    """Exponential backoff with deterministic jitter and a sleep budget.

    The delay before retry *n* (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]`` using a
    generator seeded with ``seed`` — per *call*, so every retried call
    replays the same jitter sequence.  ``budget_seconds`` caps the total
    time slept across one call: the final backoff is clamped to the
    remaining budget and retrying stops once the budget is spent, even if
    ``max_attempts`` would allow more tries.
    """

    max_attempts: int = 5
    base_delay_seconds: float = 0.1
    multiplier: float = 2.0
    max_delay_seconds: float = 5.0
    jitter: float = 0.25
    budget_seconds: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_seconds < 0:
            raise ConfigurationError(
                "base_delay_seconds must be >= 0, got "
                f"{self.base_delay_seconds}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay_seconds < self.base_delay_seconds:
            raise ConfigurationError(
                "max_delay_seconds must be >= base_delay_seconds "
                f"({self.max_delay_seconds} < {self.base_delay_seconds})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.budget_seconds < 0:
            raise ConfigurationError(
                f"budget_seconds must be >= 0, got {self.budget_seconds}"
            )

    # -- execution -------------------------------------------------------

    def call(
        self,
        fn: Callable[[], Any],
        *,
        retry_on: Tuple[Type[BaseException], ...],
        description: str = "operation",
        sleep: Optional[Callable[[float], None]] = None,
        on_retry: Optional[Callable[[Attempt], None]] = None,
    ) -> Any:
        """Invoke *fn* until it succeeds or the policy is exhausted.

        Only errors matching *retry_on* are retried; anything else
        propagates immediately (a typed rejection is an answer, not an
        outage).  *sleep* is injectable for tests; *on_retry* observes
        each failed attempt before its backoff.
        """
        do_sleep = time.sleep if sleep is None else sleep
        rng = np.random.default_rng(self.seed)
        attempts: List[Attempt] = []
        budget = float(self.budget_seconds)
        for number in range(1, self.max_attempts + 1):
            try:
                return fn()
            except retry_on as error:
                delay = self._backoff(number, rng)
                last_try = number >= self.max_attempts or budget <= 0.0
                if not last_try:
                    delay = min(delay, budget)
                    budget -= delay
                else:
                    delay = 0.0
                attempt = Attempt(
                    number=number, error=error, delay_seconds=delay
                )
                attempts.append(attempt)
                if last_try:
                    raise RetryExhaustedError(
                        description, attempts, error
                    ) from error
                if on_retry is not None:
                    on_retry(attempt)
                if delay > 0:
                    do_sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def _backoff(self, attempt_number: int, rng: np.random.Generator) -> float:
        delay = min(
            self.base_delay_seconds * self.multiplier ** (attempt_number - 1),
            self.max_delay_seconds,
        )
        if self.jitter > 0:
            factor = 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
            delay *= factor
        return delay


#: Defaults tuned for LAN coordinators: ~5 tries over at most ~30 s.
DEFAULT_RETRY_POLICY = RetryPolicy()
