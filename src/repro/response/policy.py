"""Declarative response policies: from confirmed alarm to recovery action.

The policy engine of :mod:`repro.response`.  A :class:`ResponsePolicy` is
the ``[response]`` section of a campaign spec: an ordered list of
:class:`ActionSpec` rules, each matching a confirmed
:class:`~repro.live.alarms.AlarmEvent` plus its on-alarm oMEDA
:class:`~repro.anomaly.diagnosis.DiagnosisSummary` (which view raised, which
chart fired, the diagnosed anomaly class, the top-contributing variables)
and naming one recovery action from the catalog:

``fallback_gains``
    Swap the running controller for a copy with every loop gain scaled by
    ``gain_factor`` — a conservative fallback tuning that trades
    performance for stability margin.
``quarantine_channel``
    Clear the attack schedule of the sensor or actuator channel
    (``channel``), re-routing the loop around the tampered path.
``escalate_sensitivity``
    Scale both views' D/Q detection limits by ``limit_factor``
    (< 1 tightens them), so the monitor confirms follow-up deviations
    faster.
``shed_sensor``
    Hold one measured variable (``sensor``) at its last transmitted value,
    removing a distrusted sensor from the loop's live inputs.

Rules are evaluated in order and the first match wins; cooldowns
(per rule or policy-wide) and a per-run action budget (``max_actions``)
bound how often the runner may intervene.  Like every other config
section the policy round-trips through TOML/JSON mappings bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.anomaly.diagnosis import AnomalyClass, DiagnosisSummary
from repro.common.codec import Mapped, encode
from repro.common.exceptions import ConfigurationError
from repro.live.alarms import AlarmEvent

__all__ = ["ACTIONS", "ActionSpec", "ResponsePolicy"]

#: The action catalog, in documentation order.
ACTIONS: Tuple[str, ...] = (
    "fallback_gains",
    "quarantine_channel",
    "escalate_sensitivity",
    "shed_sensor",
)

_VIEWS = ("controller", "process")
_CHARTS = ("D", "Q", "D+Q")
_CHANNELS = ("sensors", "actuators")
_CLASSIFICATIONS = tuple(kind.value for kind in AnomalyClass)


@dataclass(frozen=True)
class ActionSpec(Mapped, label="response_rule", omit_none=True):
    """One declarative response rule: match criteria plus an action.

    Attributes
    ----------
    action:
        One of :data:`ACTIONS`.
    view / chart / classification / variables:
        Match criteria, all optional (``None`` / empty matches anything):
        the data view whose alarm raised (``"controller"`` /
        ``"process"``), the chart that fired (``"D"`` / ``"Q"`` matches a
        joint ``"D+Q"`` raise too; ``"D+Q"`` only the joint one), the
        diagnosed :class:`~repro.anomaly.diagnosis.AnomalyClass` value,
        and variable names of which at least one must be among the oMEDA
        snapshot's top contributors.
    gain_factor:
        ``fallback_gains``: multiplier applied to every loop's ``kc``.
    limit_factor:
        ``escalate_sensitivity``: multiplier applied to both views' D/Q
        detection limits (< 1 tightens the monitor).
    channel:
        ``quarantine_channel``: which channel to clear (``"sensors"`` or
        ``"actuators"``).
    sensor:
        ``shed_sensor``: the variable to hold, e.g. ``"XMEAS(1)"`` or
        ``"XMV(3)"``.
    cooldown_samples:
        Per-rule refire cooldown; ``None`` uses the policy-wide default.
    """

    action: str = ""
    view: Optional[str] = None
    chart: Optional[str] = None
    classification: Optional[str] = None
    variables: Tuple[str, ...] = ()
    gain_factor: float = 0.5
    limit_factor: float = 0.8
    channel: str = "sensors"
    sensor: Optional[str] = None
    cooldown_samples: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"rule action must be one of {list(ACTIONS)}, got {self.action!r}"
            )
        if self.view is not None and self.view not in _VIEWS:
            raise ConfigurationError(
                f"rule view must be one of {list(_VIEWS)} or absent, "
                f"got {self.view!r}"
            )
        if self.chart is not None and self.chart not in _CHARTS:
            raise ConfigurationError(
                f"rule chart must be one of {list(_CHARTS)} or absent, "
                f"got {self.chart!r}"
            )
        if (
            self.classification is not None
            and self.classification not in _CLASSIFICATIONS
        ):
            raise ConfigurationError(
                f"rule classification must be one of {list(_CLASSIFICATIONS)} "
                f"or absent, got {self.classification!r}"
            )
        object.__setattr__(
            self, "variables", tuple(str(name) for name in self.variables)
        )
        if self.gain_factor <= 0:
            raise ConfigurationError("gain_factor must be positive")
        if self.limit_factor <= 0:
            raise ConfigurationError("limit_factor must be positive")
        if self.channel not in _CHANNELS:
            raise ConfigurationError(
                f"rule channel must be one of {list(_CHANNELS)}, "
                f"got {self.channel!r}"
            )
        if self.action == "shed_sensor" and not self.sensor:
            raise ConfigurationError(
                "a shed_sensor rule must name the sensor to shed"
            )
        if self.cooldown_samples is not None and self.cooldown_samples < 0:
            raise ConfigurationError("cooldown_samples must be >= 0 or None")

    def matches(
        self,
        view: str,
        event: AlarmEvent,
        summary: Optional[DiagnosisSummary],
        top_variables: int = 3,
    ) -> bool:
        """Whether this rule matches an alarm raised on ``view``.

        ``summary`` is the on-alarm oMEDA snapshot (``None`` when no
        diagnosis is available yet); rules constraining ``classification``
        or ``variables`` never match without one.
        """
        if self.view is not None and view != self.view:
            return False
        if self.chart is not None:
            if self.chart == "D+Q":
                if event.chart != "D+Q":
                    return False
            elif self.chart not in event.chart.split("+"):
                return False
        if self.classification is not None:
            if summary is None:
                return False
            if summary.classification.value != self.classification:
                return False
        if self.variables:
            if summary is None:
                return False
            implicated = set()
            for names in summary.implicated_variables(top_variables).values():
                implicated.update(names)
            if not implicated.intersection(self.variables):
                return False
        return True


@dataclass(frozen=True)
class ResponsePolicy(Mapped, label="response"):
    """The ``[response]`` section of a campaign spec: closed-loop response.

    Attributes
    ----------
    enabled:
        Whether confirmed alarms trigger recovery actions.  A disabled (or
        rule-less) policy makes the response runner a pure observer: run
        results are bitwise-identical to a response-free run.
    rules:
        Ordered :class:`ActionSpec` list; the first matching rule fires
        (``[[response.rules]]`` tables in TOML).
    cooldown_samples:
        Default per-rule refire cooldown, in samples.
    max_actions:
        Per-run action budget; once spent, further alarms are only logged.
    hold_samples:
        Recovery verification window: after an action fires, the plant
        counts as recovered once both views' D and Q statistics stay at or
        under their detection limits for this many consecutive samples.
    match_top_variables:
        How many top oMEDA contributors per view a rule's ``variables``
        criterion is matched against.
    """

    enabled: bool = False
    rules: Tuple[ActionSpec, ...] = ()
    cooldown_samples: int = 30
    max_actions: int = 3
    hold_samples: int = 12
    match_top_variables: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, ActionSpec):
                raise ConfigurationError(
                    f"response rules must be ActionSpec instances, got {rule!r}"
                )
        if self.cooldown_samples < 0:
            raise ConfigurationError("cooldown_samples must be >= 0")
        if self.max_actions < 0:
            raise ConfigurationError("max_actions must be >= 0")
        if self.hold_samples < 1:
            raise ConfigurationError("hold_samples must be >= 1")
        if self.match_top_variables < 1:
            raise ConfigurationError("match_top_variables must be >= 1")

    @property
    def is_default(self) -> bool:
        """Whether this section matches the defaults (and can be omitted)."""
        return self == ResponsePolicy()

    @property
    def is_armed(self) -> bool:
        """Whether the runner may ever fire an action under this policy."""
        return self.enabled and bool(self.rules) and self.max_actions > 0

    def first_match(
        self,
        view: str,
        event: AlarmEvent,
        summary: Optional[DiagnosisSummary],
    ) -> Optional[Tuple[int, ActionSpec]]:
        """The first rule matching this alarm, as ``(rule_index, rule)``."""
        for index, rule in enumerate(self.rules):
            if rule.matches(view, event, summary, self.match_top_variables):
                return index, rule
        return None

    def rule_cooldown(self, rule: ActionSpec) -> int:
        """The effective refire cooldown of one rule, in samples."""
        if rule.cooldown_samples is not None:
            return int(rule.cooldown_samples)
        return int(self.cooldown_samples)

    def to_mapping(self) -> Dict[str, Any]:
        """A plain, JSON/TOML-ready mapping of this policy (``rules`` only
        when there are any)."""
        mapping = encode(self)
        if not self.rules:
            del mapping["rules"]
        return mapping
