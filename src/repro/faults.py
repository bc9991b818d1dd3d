"""Deterministic, seed-driven fault injection for the runtime.

The paper's premise is surviving faults; this module makes our *own*
runtime prove it.  A :class:`FaultPlan` — loaded from TOML or JSON —
declares faults to inject at named seams threaded through the production
code (``repro.faults.fire(site, ...)`` calls inside clients, workers and
journals).  A :class:`FaultInjector` built from the plan is installed
process-wide; each ``fire`` checks the plan's rules and, when one
matches, raises a transient error, sleeps, kills the process, damages a
journal tail, skews a registered clock, or asks the call site to
duplicate the operation.

Everything is deterministic: probabilistic rules draw from a generator
seeded by the plan, counters (``times`` / ``after``) are exact, and the
injected errors subclass :class:`ConnectionError` so they exercise the
*real* transport-failure recovery paths.  When no injector is installed
— every production run — ``fire`` is a single ``None`` check.

Plan format (TOML; JSON mirrors the same shape)::

    [faults]
    seed = 7

    [[faults.rules]]
    site = "service.client.claim"   # fnmatch glob over seam names
    action = "error"                # raise InjectedFault
    times = 3                       # fire at most 3 times (0 = unlimited)
    after = 2                       # skip the first 2 matching calls
    probability = 1.0               # else Bernoulli from the plan seed

    [[faults.rules]]
    site = "journal.append"
    action = "truncate_tail"        # damage the journal behind the writer
    nbytes = 4

Actions: ``error`` (raise :class:`InjectedFault`, optional ``message``),
``delay`` (sleep ``delay_seconds``), ``duplicate`` (the seam re-executes
an idempotent operation), ``kill`` (``os._exit(137)`` — a crash, not a
shutdown), ``truncate_tail`` / ``bit_flip`` (damage the file named by the
seam's ``path`` info or the rule's ``path``), ``skew`` (advance the
registered :class:`SkewedClock` by ``skew_seconds``).

Known seams: ``service.client.<op>``, ``service.worker.claim`` /
``.execute`` / ``.heartbeat`` / ``.ack``, ``gateway.client.connect`` /
``gateway.client.<op>``, ``journal.append``.
"""

from __future__ import annotations

import difflib
import fnmatch
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.common.codec import Mapped, decode, encode
from repro.common.exceptions import (
    ConfigurationError,
    FaultInjectionError,
    InjectedFault,
)

__all__ = [
    "ACTIONS",
    "ENV_FAULT_PLAN",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "SkewedClock",
    "configure_from_env",
    "current",
    "fire",
    "flip_bit",
    "install",
    "truncate_tail",
    "uninstall",
]

#: Environment variable naming a plan file; subprocess workers read it at
#: startup (``configure_from_env``) so one plan governs a whole fleet.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

ACTIONS = (
    "error",
    "delay",
    "duplicate",
    "kill",
    "truncate_tail",
    "bit_flip",
    "skew",
)

T = TypeVar("T")


def _decode(cls: Type[T], mapping: Any) -> T:
    """The codec's decode, failing with :class:`FaultInjectionError`."""
    try:
        return decode(cls, mapping)
    except ConfigurationError as error:
        raise FaultInjectionError(str(error)) from error


# -- file damage helpers (also used by chaos scripts directly) -----------


def truncate_tail(path, nbytes: int) -> int:
    """Cut *nbytes* off the end of *path*, simulating a torn write.

    Returns the new size.  Truncating more bytes than the file holds
    empties it.
    """
    path = Path(path)
    size = path.stat().st_size
    new_size = max(0, size - int(nbytes))
    with open(path, "r+b") as handle:
        handle.truncate(new_size)
        handle.flush()
        os.fsync(handle.fileno())
    return new_size


def flip_bit(path, bit_offset: int) -> None:
    """Flip one bit of *path* in place, simulating silent media corruption.

    *bit_offset* counts from the start of the file; negative offsets count
    from the end (``-1`` = last bit).
    """
    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        raise FaultInjectionError(f"cannot flip a bit of empty file {path}")
    total_bits = size * 8
    offset = int(bit_offset)
    if offset < 0:
        offset += total_bits
    if not 0 <= offset < total_bits:
        raise FaultInjectionError(
            f"bit offset {bit_offset} out of range for {size}-byte file {path}"
        )
    byte_index, bit_index = divmod(offset, 8)
    with open(path, "r+b") as handle:
        handle.seek(byte_index)
        byte = handle.read(1)[0]
        handle.seek(byte_index)
        handle.write(bytes([byte ^ (1 << (7 - bit_index))]))
        handle.flush()
        os.fsync(handle.fileno())


class SkewedClock:
    """A monotonic clock with an injectable offset.

    Drop-in for the coordinator's ``clock`` parameter: calling it returns
    ``base() + skew``.  Fault rules with ``action = "skew"`` advance the
    clock registered on the installed injector, simulating clock jumps
    (e.g. an NTP step) between protocol calls.
    """

    def __init__(self, base: Callable[[], float] = time.monotonic, skew: float = 0.0):
        self._base = base
        self._skew = float(skew)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._base() + self._skew

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._skew += float(seconds)

    @property
    def skew(self) -> float:
        with self._lock:
            return self._skew


# -- plan schema ---------------------------------------------------------


@dataclass(frozen=True)
class FaultRule(Mapped, label="[[faults.rules]]"):
    """One declarative fault: where, what, and how often."""

    site: str
    action: str
    times: int = 1
    after: int = 0
    probability: float = 1.0
    message: str = "injected fault"
    delay_seconds: float = 0.05
    path: Optional[str] = None
    nbytes: int = 4
    bit_offset: int = -1
    skew_seconds: float = 0.0

    def __post_init__(self):
        if not self.site:
            raise FaultInjectionError("fault rule needs a non-empty site")
        if self.action not in ACTIONS:
            close = difflib.get_close_matches(self.action, ACTIONS, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise FaultInjectionError(
                f"unknown fault action {self.action!r}{hint}; "
                f"known: {', '.join(ACTIONS)}"
            )
        if self.times < 0:
            raise FaultInjectionError(
                f"times must be >= 0 (0 = unlimited), got {self.times}"
            )
        if self.after < 0:
            raise FaultInjectionError(f"after must be >= 0, got {self.after}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultInjectionError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_seconds < 0:
            raise FaultInjectionError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    def to_mapping(self) -> Dict[str, Any]:
        """``site``, ``action`` and every setting that is not its default."""
        defaults = encode(FaultRule(site=self.site, action=self.action))
        return {
            key: value
            for key, value in encode(self).items()
            if key in ("site", "action") or value != defaults[key]
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "FaultRule":
        return _decode(cls, mapping)


@dataclass(frozen=True)
class FaultPlan(Mapped, label="[faults]"):
    """A seedable collection of :class:`FaultRule` entries."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_mapping(self) -> Dict[str, Any]:
        mapping: Dict[str, Any] = {}
        if self.seed:
            mapping["seed"] = self.seed
        mapping["rules"] = [rule.to_mapping() for rule in self.rules]
        return mapping

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "FaultPlan":
        return _decode(cls, mapping)

    @classmethod
    def loads(cls, text: str, format: str = "toml") -> "FaultPlan":
        if format == "toml":
            try:
                import tomllib
            except ModuleNotFoundError:  # pragma: no cover - Python 3.10
                try:
                    import tomli as tomllib  # type: ignore[no-redef]
                except ModuleNotFoundError:
                    raise FaultInjectionError(
                        "reading TOML fault plans needs Python 3.11+ "
                        "(tomllib) or the tomli package; JSON plans work "
                        "everywhere"
                    ) from None
            parse = tomllib.loads
        elif format == "json":
            parse = json.loads
        else:
            raise FaultInjectionError(
                f"unknown fault plan format {format!r} (toml or json)"
            )
        try:
            document = parse(text)
        except ValueError as error:  # TOMLDecodeError and JSONDecodeError
            raise FaultInjectionError(
                f"malformed {format} fault plan: {error}"
            ) from error
        if not isinstance(document, Mapping):
            raise FaultInjectionError("fault plan document must be a table")
        # Accept both a bare plan and a spec-style {"faults": {...}} wrapper.
        body = document.get("faults", document)
        if not isinstance(body, Mapping):
            raise FaultInjectionError("[faults] must be a table")
        return cls.from_mapping(body)

    @classmethod
    def load(cls, path) -> "FaultPlan":
        path = Path(path)
        format = "json" if path.suffix.lower() == ".json" else "toml"
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            raise FaultInjectionError(f"cannot read fault plan {path}: {error}") from error
        return cls.loads(text, format)


# -- the injector --------------------------------------------------------


class _RuleState:
    """Mutable firing counters for one rule (the plan itself is frozen)."""

    __slots__ = ("rule", "seen", "fired")

    def __init__(self, rule: FaultRule):
        self.rule = rule
        self.seen = 0
        self.fired = 0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at runtime seams.

    Thread-safe: rule counters and the probability generator are guarded
    by a lock, so concurrent workers hitting the same seam see exact
    ``times`` / ``after`` semantics.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._states = [_RuleState(rule) for rule in plan.rules]
        self._rng = np.random.default_rng(plan.seed)
        self._lock = threading.Lock()
        self._clock: Optional[SkewedClock] = None
        self.fired: Dict[str, int] = {}

    def register_clock(self, clock: SkewedClock) -> None:
        """Name the clock that ``skew`` rules advance."""
        self._clock = clock

    def fire(self, site: str, **info: Any) -> Optional[str]:
        """Evaluate *site* against the plan; inject the first matching rule.

        Returns the action name when the seam itself must cooperate
        (``duplicate``), ``None`` when nothing fired.  ``error`` raises
        :class:`InjectedFault`; the file/clock/process actions happen as
        side effects.
        """
        matched: Optional[FaultRule] = None
        with self._lock:
            for state in self._states:
                rule = state.rule
                if not fnmatch.fnmatchcase(site, rule.site):
                    continue
                state.seen += 1
                if state.seen <= rule.after:
                    continue
                if rule.times and state.fired >= rule.times:
                    continue
                if rule.probability < 1.0 and float(self._rng.random()) >= rule.probability:
                    continue
                state.fired += 1
                self.fired[site] = self.fired.get(site, 0) + 1
                matched = rule
                break
        if matched is None:
            return None
        return self._apply(matched, site, info)

    def _apply(
        self, rule: FaultRule, site: str, info: Mapping[str, Any]
    ) -> Optional[str]:
        if rule.action == "error":
            raise InjectedFault(f"{rule.message} (site {site})")
        if rule.action == "delay":
            time.sleep(rule.delay_seconds)
            return None
        if rule.action == "duplicate":
            return "duplicate"
        if rule.action == "kill":
            os._exit(137)
        if rule.action in ("truncate_tail", "bit_flip"):
            path = rule.path or info.get("path")
            if not path:
                raise FaultInjectionError(
                    f"rule at site {site!r} needs a path (rule 'path' or "
                    "seam info)"
                )
            if rule.action == "truncate_tail":
                truncate_tail(path, rule.nbytes)
            else:
                flip_bit(path, rule.bit_offset)
            return None
        if rule.action == "skew":
            if self._clock is not None:
                self._clock.advance(rule.skew_seconds)
            return None
        raise AssertionError(rule.action)  # pragma: no cover

    def summary(self) -> Dict[str, Any]:
        """Firing counts per rule, for chaos-run logs."""
        with self._lock:
            return {
                "seed": self.plan.seed,
                "rules": [
                    {
                        "site": state.rule.site,
                        "action": state.rule.action,
                        "seen": state.seen,
                        "fired": state.fired,
                    }
                    for state in self._states
                ],
            }


# -- process-wide installation -------------------------------------------

_INJECTOR: Optional[FaultInjector] = None


def install(plan_or_injector) -> FaultInjector:
    """Install a plan (or prebuilt injector) process-wide; returns it."""
    global _INJECTOR
    if isinstance(plan_or_injector, FaultInjector):
        injector = plan_or_injector
    elif isinstance(plan_or_injector, FaultPlan):
        injector = FaultInjector(plan_or_injector)
    else:
        raise FaultInjectionError(
            "install() takes a FaultPlan or FaultInjector, got "
            f"{type(plan_or_injector).__name__}"
        )
    _INJECTOR = injector
    return injector


def uninstall() -> None:
    global _INJECTOR
    _INJECTOR = None


def current() -> Optional[FaultInjector]:
    return _INJECTOR


def fire(site: str, **info: Any) -> Optional[str]:
    """Seam entry point: a no-op unless an injector is installed."""
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.fire(site, **info)


def configure_from_env() -> Optional[FaultInjector]:
    """Install the plan named by ``REPRO_FAULT_PLAN``, if any.

    Called by the CLI entry points at startup so subprocess workers in a
    chaos run pick up the same plan as the parent.
    """
    path = os.environ.get(ENV_FAULT_PLAN)
    if not path:
        return None
    return install(FaultPlan.load(path))
