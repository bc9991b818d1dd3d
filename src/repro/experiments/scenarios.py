"""Scenario definitions: named compositions of anomaly injections.

Section V of the paper defines four anomalous situations, all starting at the
10th simulation hour:

a) process disturbance IDV(6) — loss of the A feed;
b) integrity attack on XMV(3) — the attacker commands the A feed valve closed;
c) integrity attack on XMEAS(1) — the attacker forges a zero A feed reading;
d) Denial of Service on XMV(3) — the actuator keeps the last received value.

A fifth, attack- and disturbance-free scenario is used for calibration and as
the negative control.

Since the declarative-campaign redesign a :class:`Scenario` is no longer an
enum-plus-fields record but a **composition of injection primitives**
(:mod:`repro.experiments.injections`): the paper's scenarios are one-element
compositions, and arbitrary multi-stage anomalies (a disturbance masked by a
replayed sensor, a drift plus a DoS, …) are expressed by listing several
injections — in code or in a TOML/JSON campaign spec.  The historical
``kind`` / ``disturbance_index`` / ``target_*`` fields remain as a view
derived from the composition, for reports and run metadata.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.common.codec import check_keys, decode_value
from repro.common.exceptions import ConfigurationError
from repro.experiments.injections import (
    ChannelInjection,
    DisturbanceInjection,
    DoSInjection,
    Injection,
    IntegrityInjection,
    ReplayInjection,
    injections_from_mappings,
)

__all__ = [
    "ScenarioKind",
    "Scenario",
    "GROUND_TRUTHS",
    "normal_scenario",
    "disturbance_idv6_scenario",
    "integrity_attack_on_xmv3_scenario",
    "integrity_attack_on_xmeas1_scenario",
    "dos_attack_on_xmv3_scenario",
    "paper_scenarios",
]

GROUND_TRUTHS = ("normal", "disturbance", "attack")


class ScenarioKind(enum.Enum):
    """The nature of the anomaly injected in a scenario.

    Kinds are *derived* from the injection composition, for reporting.
    Compositions that do not match one of the historical single-injection
    patterns are :attr:`COMPOSITE`.
    """

    NORMAL = "normal"
    DISTURBANCE = "disturbance"
    INTEGRITY_SENSOR = "integrity attack on a sensor"
    INTEGRITY_ACTUATOR = "integrity attack on an actuator"
    DOS_ACTUATOR = "denial of service on an actuator"
    COMPOSITE = "composite"


def _derive_legacy_view(
    injections: Tuple[Injection, ...]
) -> Dict[str, Any]:
    """Map an injection composition onto the historical field set.

    Single-injection compositions with campaign-default timing fold back
    onto the exact pre-redesign ``kind``/index fields, which keeps every
    legacy consumer (reports, metadata, user code) working unchanged;
    everything else is :attr:`ScenarioKind.COMPOSITE`.
    """
    view: Dict[str, Any] = {
        "kind": ScenarioKind.COMPOSITE,
        "disturbance_index": None,
        "target_xmeas": None,
        "target_xmv": None,
        "injected_value": None,
    }
    if not injections:
        view["kind"] = ScenarioKind.NORMAL
        return view
    if len(injections) > 1:
        return view
    injection = injections[0]
    if injection.start_hour is not None or injection.end_hour is not None:
        return view
    if isinstance(injection, DisturbanceInjection):
        if injection.magnitude == 1.0:
            view["kind"] = ScenarioKind.DISTURBANCE
            view["disturbance_index"] = injection.index
        return view
    if isinstance(injection, IntegrityInjection):
        if injection.channel == "sensor":
            view["kind"] = ScenarioKind.INTEGRITY_SENSOR
            view["target_xmeas"] = injection.target
        else:
            view["kind"] = ScenarioKind.INTEGRITY_ACTUATOR
            view["target_xmv"] = injection.target
        view["injected_value"] = injection.value
        return view
    if isinstance(injection, DoSInjection) and injection.channel == "actuator":
        view["kind"] = ScenarioKind.DOS_ACTUATOR
        view["target_xmv"] = injection.target
    return view


@dataclass(frozen=True)
class Scenario:
    """One evaluation scenario: a named composition of injections.

    Attributes
    ----------
    name:
        Short identifier, e.g. ``"idv6"``.
    title:
        Human-readable title used in reports and figure captions (defaults
        to ``name``).
    expected_ground_truth:
        ``"disturbance"``, ``"attack"`` or ``"normal"`` — used by the
        distinguishability benchmarks.  Derived from the composition when
        not given.
    injections:
        The anomaly primitives of this scenario, applied together
        (see :mod:`repro.experiments.injections`).  Mappings (e.g. parsed
        from a spec file) are accepted and built into primitives.
    kind / disturbance_index / target_xmeas / target_xmv / injected_value:
        The historical single-injection view, derived from ``injections``
        (:class:`ScenarioKind`, plus the IDV index, the targeted entry and
        the forged value where they apply); not constructor arguments.
    """

    name: str
    title: str = ""
    expected_ground_truth: Optional[str] = None
    injections: Tuple[Injection, ...] = field(default=())
    kind: ScenarioKind = field(init=False)
    disturbance_index: Optional[int] = field(init=False)
    target_xmeas: Optional[int] = field(init=False)
    target_xmv: Optional[int] = field(init=False)
    injected_value: Optional[float] = field(init=False)

    def __post_init__(self) -> None:
        injections = injections_from_mappings(self.injections)
        object.__setattr__(self, "injections", injections)
        for key, value in _derive_legacy_view(injections).items():
            object.__setattr__(self, key, value)
        object.__setattr__(self, "title", str(self.title) or self.name)
        if self.expected_ground_truth is None:
            object.__setattr__(self, "expected_ground_truth", self._derived_truth())
        if self.expected_ground_truth not in GROUND_TRUTHS:
            raise ConfigurationError(
                f"expected_ground_truth must be one of {GROUND_TRUTHS}, "
                f"got {self.expected_ground_truth!r}"
            )

    def _derived_truth(self) -> str:
        if any(isinstance(i, ChannelInjection) for i in self.injections):
            return "attack"
        if self.injections:
            return "disturbance"
        return "normal"

    # ------------------------------------------------------------------
    @property
    def is_attack(self) -> bool:
        """Whether the scenario tampers with a channel (vs. pure disturbance)."""
        return any(isinstance(i, ChannelInjection) for i in self.injections)

    @property
    def is_anomalous(self) -> bool:
        """Whether the scenario injects any anomaly at all."""
        return bool(self.injections)

    def idle_before(self, hour: float) -> bool:
        """Whether no injection acts on a run, or records it, before ``hour``.

        True when every injection starts at ``hour`` or later (one without a
        start takes ``hour`` itself) and none is a replay, which records the
        signal ahead of its onset: runs of one seed are then the same run up
        to ``hour``, whatever their scenario.
        """
        return all(
            injection.onset(hour) >= hour and not isinstance(injection, ReplayInjection)
            for injection in self.injections
        )

    @property
    def disturbance_injections(self) -> Tuple[DisturbanceInjection, ...]:
        """The process-disturbance primitives of this scenario."""
        return tuple(
            i for i in self.injections if isinstance(i, DisturbanceInjection)
        )

    @property
    def channel_injections(self) -> Tuple[ChannelInjection, ...]:
        """The channel-tampering primitives of this scenario."""
        return tuple(i for i in self.injections if isinstance(i, ChannelInjection))

    # ------------------------------------------------------------------
    def scaled(self, magnitude: float) -> "Scenario":
        """This scenario with every injection's intensity scaled.

        Used by campaign-spec magnitude sweeps; the variant is renamed
        ``<name>@x<magnitude>`` so sweep results stay distinguishable.
        """
        magnitude = float(magnitude)
        return Scenario(
            name=f"{self.name}@x{magnitude:g}",
            title=f"{self.title} (magnitude x{magnitude:g})",
            expected_ground_truth=self.expected_ground_truth,
            injections=tuple(i.scaled(magnitude) for i in self.injections),
        )

    def to_mapping(self) -> Dict[str, Any]:
        """A plain, JSON/TOML-ready mapping describing this scenario.

        Only the canonical content (name, title, ground truth, injections)
        is serialized; the legacy view is re-derived on load.
        """
        return {
            "name": self.name,
            "title": self.title,
            "ground_truth": self.expected_ground_truth,
            "injections": [i.to_mapping() for i in self.injections],
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from its :meth:`to_mapping` form."""
        check_keys(mapping, ("name", "title", "ground_truth", "injections"), "scenario")
        if "name" not in mapping:
            raise ConfigurationError("a scenario mapping needs a 'name'")
        return cls(
            name=decode_value(str, mapping["name"], "scenario.name"),
            title=decode_value(str, mapping.get("title", ""), "scenario.title"),
            expected_ground_truth=mapping.get("ground_truth"),
            injections=injections_from_mappings(mapping.get("injections", ())),
        )


def normal_scenario() -> Scenario:
    """Attack- and disturbance-free operation (calibration / negative control)."""
    return Scenario(name="normal", title="Normal operation")


def disturbance_idv6_scenario() -> Scenario:
    """Scenario (a): process disturbance IDV(6), loss of the A feed."""
    return Scenario(
        name="idv6",
        title="Disturbance IDV(6): A feed loss",
        injections=(DisturbanceInjection(6),),
    )


def integrity_attack_on_xmv3_scenario() -> Scenario:
    """Scenario (b): integrity attack commanding the A feed valve closed."""
    return Scenario(
        name="attack_xmv3",
        title="Integrity attack on XMV(3): close the A feed valve",
        injections=(IntegrityInjection("actuator", 3, 0.0),),
    )


def integrity_attack_on_xmeas1_scenario() -> Scenario:
    """Scenario (c): integrity attack forging a zero A feed measurement."""
    return Scenario(
        name="attack_xmeas1",
        title="Integrity attack on XMEAS(1): forge a zero A feed reading",
        injections=(IntegrityInjection("sensor", 1, 0.0),),
    )


def dos_attack_on_xmv3_scenario() -> Scenario:
    """Scenario (d): DoS on XMV(3), the actuator holds the last received value."""
    return Scenario(
        name="dos_xmv3",
        title="DoS attack on XMV(3): hold the last received valve command",
        injections=(DoSInjection("actuator", 3),),
    )


def paper_scenarios() -> Tuple[Scenario, ...]:
    """The four anomalous scenarios of the paper's evaluation, in order."""
    return (
        disturbance_idv6_scenario(),
        integrity_attack_on_xmv3_scenario(),
        integrity_attack_on_xmeas1_scenario(),
        dos_attack_on_xmv3_scenario(),
    )
