"""Composable anomaly-injection primitives — the scenario DSL.

A :class:`~repro.experiments.scenarios.Scenario` is a named composition of
*injections*: small, frozen, serializable descriptions of one anomalous
influence on the closed loop.  Two families exist:

* **process injections** — :class:`DisturbanceInjection` activates one of the
  Tennessee-Eastman IDV disturbances;
* **channel injections** — everything else tampers with a single entry of the
  sensor or actuator channel: :class:`IntegrityInjection` (forge a value),
  :class:`DoSInjection` (suppress communication), :class:`BiasInjection`
  (constant offset), :class:`DriftInjection` (stealthy ramp),
  :class:`StuckAtInjection` (signal frozen at its onset value or a constant)
  and :class:`ReplayInjection` (loop a pre-attack recording).

Every primitive carries an optional ``start_hour`` / ``end_hour`` window;
``start_hour=None`` means "the campaign's anomaly onset", so the same
scenario definition works at any :class:`~repro.common.config.ExperimentConfig`
onset.  Injections serialize to/from plain mappings through
:mod:`repro.common.codec` (:meth:`Injection.to_mapping` /
:func:`injection_from_mapping`): the ``type`` tag first, then every field
that is not ``None`` (TOML has no null).  That is what makes whole
scenarios expressible in a TOML/JSON campaign spec with no library code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type

from repro.common.codec import Mapped, as_mapping, as_sequence, decode_value
from repro.common.exceptions import ConfigurationError
from repro.network.attacks import (
    Attack,
    BiasAttack,
    DoSAttack,
    DriftAttack,
    IntegrityAttack,
    ReplayAttack,
)
from repro.te.constants import N_IDV, N_XMEAS, N_XMV

__all__ = [
    "Injection",
    "ChannelInjection",
    "DisturbanceInjection",
    "IntegrityInjection",
    "DoSInjection",
    "BiasInjection",
    "DriftInjection",
    "StuckAtInjection",
    "ReplayInjection",
    "INJECTION_TYPES",
    "injection_from_mapping",
    "injections_from_mappings",
]

SENSOR = "sensor"
ACTUATOR = "actuator"
_CHANNELS = (SENSOR, ACTUATOR)


def _coerce(injection: Any, name: str, hint: Any) -> None:
    """Coerce one constructor field, in place, to its canonical type.

    Specs arrive from TOML/JSON where ``10`` and ``10.0`` are different
    tokens; canonicalizing here keeps cache keys independent of how the
    author spelled a number.  The rule is the mapping codec's
    (:func:`~repro.common.codec.as_int` for ints, ``float`` for floats), so
    a constructor accepts and rejects exactly what
    :func:`injection_from_mapping` does, with the same typed error.
    """
    value = decode_value(hint, getattr(injection, name), f"injection.{name}")
    object.__setattr__(injection, name, value)


@dataclass(frozen=True)
class Injection(Mapped, label="injection", omit_none=True, tag="type"):
    """Base of all injection primitives.

    Attributes
    ----------
    start_hour:
        Simulation hour at which the injection begins.  ``None`` defers to
        the campaign's ``anomaly_start_hour``, which is how the paper's
        scenarios stay onset-agnostic.
    end_hour:
        Hour at which it stops; ``None`` means it persists to the end of the
        run.
    """

    type: ClassVar[str] = ""

    start_hour: Optional[float] = field(default=None, kw_only=True)
    end_hour: Optional[float] = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        _coerce(self, "start_hour", Optional[float])
        _coerce(self, "end_hour", Optional[float])
        if self.start_hour is not None and self.start_hour < 0:
            raise ConfigurationError("start_hour must be >= 0")
        if (
            self.start_hour is not None
            and self.end_hour is not None
            and self.end_hour <= self.start_hour
        ):
            raise ConfigurationError("end_hour must be greater than start_hour")

    # ------------------------------------------------------------------
    def onset(self, default_start_hour: float) -> float:
        """The effective start hour given the campaign default."""
        if self.start_hour is None:
            return float(default_start_hour)
        return self.start_hour

    def scaled(self, magnitude: float) -> "Injection":
        """This injection with its characteristic magnitude scaled.

        The base implementation returns ``self`` unchanged; primitives with
        a natural intensity knob (disturbance magnitude, drift rate, bias
        offset) override it.  Used by campaign-spec magnitude sweeps.
        """
        del magnitude
        return self


@dataclass(frozen=True)
class DisturbanceInjection(Injection):
    """Activate Tennessee-Eastman process disturbance IDV(``index``)."""

    type: ClassVar[str] = "disturbance"

    index: int
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _coerce(self, "index", int)
        _coerce(self, "magnitude", float)
        if not 1 <= self.index <= N_IDV:
            raise ConfigurationError(
                f"disturbance index is IDV(1)-IDV({N_IDV}), got {self.index}"
            )
        if self.magnitude < 0:
            raise ConfigurationError("magnitude must be >= 0")

    def scaled(self, magnitude: float) -> "DisturbanceInjection":
        return replace(self, magnitude=self.magnitude * float(magnitude))


@dataclass(frozen=True)
class ChannelInjection(Injection):
    """Base of injections that tamper with one channel entry.

    Attributes
    ----------
    channel:
        ``"sensor"`` (XMEAS readings on their way to the controller) or
        ``"actuator"`` (XMV commands on their way to the plant).
    target:
        1-based index of the targeted entry within that channel.
    """

    channel: str
    target: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _coerce(self, "target", int)
        if self.channel not in _CHANNELS:
            raise ConfigurationError(
                f"channel must be one of {_CHANNELS}, got {self.channel!r}"
            )
        entries = N_XMEAS if self.channel == SENSOR else N_XMV
        if not 1 <= self.target <= entries:
            raise ConfigurationError(
                f"{self.channel} target is 1-based and must be in [1, {entries}], "
                f"got {self.target}"
            )

    def build_attack(self, default_start_hour: float) -> Attack:
        """The :mod:`repro.network.attacks` instance realizing this injection."""
        raise NotImplementedError


@dataclass(frozen=True)
class IntegrityInjection(ChannelInjection):
    """Replace the transmitted value with an attacker-chosen constant."""

    type: ClassVar[str] = "integrity"

    value: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _coerce(self, "value", float)

    def build_attack(self, default_start_hour: float) -> Attack:
        return IntegrityAttack(
            target_index=self.target,
            start_hour=self.onset(default_start_hour),
            injected=self.value,
            end_hour=self.end_hour,
        )


@dataclass(frozen=True)
class DoSInjection(ChannelInjection):
    """Suppress communication: the receiver holds the last delivered value."""

    type: ClassVar[str] = "dos"

    def build_attack(self, default_start_hour: float) -> Attack:
        return DoSAttack(
            target_index=self.target,
            start_hour=self.onset(default_start_hour),
            end_hour=self.end_hour,
        )


@dataclass(frozen=True)
class BiasInjection(ChannelInjection):
    """Add a constant offset to the transmitted value."""

    type: ClassVar[str] = "bias"

    offset: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _coerce(self, "offset", float)

    def scaled(self, magnitude: float) -> "BiasInjection":
        return replace(self, offset=self.offset * float(magnitude))

    def build_attack(self, default_start_hour: float) -> Attack:
        return BiasAttack(
            target_index=self.target,
            start_hour=self.onset(default_start_hour),
            offset=self.offset,
            end_hour=self.end_hour,
        )


@dataclass(frozen=True)
class DriftInjection(ChannelInjection):
    """Drift the transmitted value away from the truth at a constant rate."""

    type: ClassVar[str] = "drift"

    rate_per_hour: float

    def __post_init__(self) -> None:
        super().__post_init__()
        _coerce(self, "rate_per_hour", float)

    def scaled(self, magnitude: float) -> "DriftInjection":
        return replace(self, rate_per_hour=self.rate_per_hour * float(magnitude))

    def build_attack(self, default_start_hour: float) -> Attack:
        return DriftAttack(
            target_index=self.target,
            start_hour=self.onset(default_start_hour),
            rate_per_hour=self.rate_per_hour,
            end_hour=self.end_hour,
        )


@dataclass(frozen=True)
class StuckAtInjection(ChannelInjection):
    """Freeze the transmitted value — at a constant, or at its onset value.

    ``value=None`` (the default) holds whatever was last delivered before
    onset (a sensor or valve stuck where it was); an explicit ``value``
    models a stuck-at-constant fault (e.g. stuck-at-zero).
    """

    type: ClassVar[str] = "stuck_at"

    value: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        _coerce(self, "value", Optional[float])

    def build_attack(self, default_start_hour: float) -> Attack:
        if self.value is None:
            return DoSAttack(
                target_index=self.target,
                start_hour=self.onset(default_start_hour),
                end_hour=self.end_hour,
            )
        return IntegrityAttack(
            target_index=self.target,
            start_hour=self.onset(default_start_hour),
            injected=self.value,
            end_hour=self.end_hour,
        )


@dataclass(frozen=True)
class ReplayInjection(ChannelInjection):
    """Replay a pre-onset recording of the signal, in a loop."""

    type: ClassVar[str] = "replay"

    record_hours: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _coerce(self, "record_hours", float)
        if self.record_hours <= 0:
            raise ConfigurationError("record_hours must be positive")

    def build_attack(self, default_start_hour: float) -> Attack:
        return ReplayAttack(
            target_index=self.target,
            start_hour=self.onset(default_start_hour),
            record_hours=self.record_hours,
            end_hour=self.end_hour,
        )


#: Registry of injection type tags, the dispatch table of the spec parser.
INJECTION_TYPES: Dict[str, Type[Injection]] = {
    cls.type: cls
    for cls in (
        DisturbanceInjection,
        IntegrityInjection,
        DoSInjection,
        BiasInjection,
        DriftInjection,
        StuckAtInjection,
        ReplayInjection,
    )
}


def injection_from_mapping(mapping: Mapping[str, Any]) -> Injection:
    """Build an injection from its :meth:`Injection.to_mapping` form.

    The ``type`` tag picks the primitive.  Unknown tags, unknown keys and
    values that cannot be coerced raise
    :class:`~repro.common.exceptions.ConfigurationError` — a misspelled
    field in a spec file must fail loudly, not silently drop an anomaly.
    """
    tag = as_mapping(mapping, "injection").get("type")
    if tag is None:
        raise ConfigurationError(
            f"injection mapping needs a 'type' key "
            f"(one of {sorted(INJECTION_TYPES)}), got {dict(mapping)!r}"
        )
    if not isinstance(tag, str) or tag not in INJECTION_TYPES:
        raise ConfigurationError(
            f"unknown injection type {tag!r} (known: {sorted(INJECTION_TYPES)})"
        )
    return INJECTION_TYPES[tag].from_mapping(mapping)


def injections_from_mappings(
    mappings: Any,
) -> Tuple[Injection, ...]:
    """Build a tuple of injections, passing through already-built ones."""
    built = []
    for item in as_sequence(mappings, "a scenario's injections"):
        if isinstance(item, Injection):
            built.append(item)
        elif isinstance(item, Mapping):
            built.append(injection_from_mapping(item))
        else:
            raise ConfigurationError(
                f"an injection must be an Injection or a mapping, got {item!r}"
            )
    return tuple(built)
