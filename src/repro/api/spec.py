"""Declarative campaign specifications: the ``CampaignSpec`` schema.

A campaign spec is a single reviewable document — TOML or JSON — that fully
describes an evaluation campaign:

* **experiment** — the :class:`~repro.common.config.ExperimentConfig`
  (simulation fidelity, MSPC settings, execution plan);
* **scenarios** — what to evaluate: references to registered scenarios
  (``use = "idv6"``) and/or inline compositions of anomaly-injection
  primitives (see :mod:`repro.experiments.injections`);
* **sweep** — seed grids and magnitude grids expanding the campaign;
* **analysis** — how results are consumed (eager vs. streaming, chunk size,
  which tables to produce);
* **live** — online co-simulation monitoring (:mod:`repro.live`): score runs
  sample-by-sample while they simulate and optionally stop them a grace
  window after a confirmed detection (:meth:`~repro.api.session.Session.
  run_live` / ``run_campaign.py --live``);
* **service** — distributed execution (:mod:`repro.service`): where the
  campaign coordinator listens, lease/heartbeat timing of the worker
  protocol and the claimable chunk size (``run_campaign.py --serve`` /
  ``--worker`` / ``--submit``);
* **gateway** — the streaming detection gateway (:mod:`repro.gateway`):
  where the multi-tenant stream server listens, its pool capacity, the
  cross-stream scoring batch size and the flush/idle timing
  (``run_gateway.py --serve`` / ``--feed``);
* **response** — closed-loop response (:mod:`repro.response`): declarative
  rules turning confirmed alarms into mid-run recovery actions, plus the
  cooldown/budget/verification knobs
  (:meth:`~repro.api.session.Session.run_response` /
  ``run_campaign.py --respond``);
* **obs** — observability (:mod:`repro.obs`): span tracing, structured
  JSON logs and the shared metrics registry; purely operational and off
  by default (``run_campaign.py --trace PATH``).

Specs are versioned (``version = 1``), validated eagerly with precise error
messages (unknown keys, wrong types and unknown scenario references all
fail at load time, not mid-campaign), and round-trip exactly:
``loads_spec(dumps_spec(spec)) == spec`` with identical campaign cache keys,
which the test suite pins property-style.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python 3.10
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.api._toml import dumps_toml
from repro.common.codec import (
    Mapped,
    as_bool,
    as_int,
    as_sequence,
    check_keys,
    decode_value,
    encode,
)
from repro.common.config import (
    ExperimentConfig,
    GatewayConfig,
    LiveConfig,
    ObsConfig,
    ServiceConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.experiments.registry import REGISTRY, ScenarioRegistry
from repro.experiments.scenarios import Scenario
from repro.response.policy import ResponsePolicy

__all__ = [
    "SPEC_VERSION",
    "SweepSpec",
    "AnalysisSpec",
    "CampaignSpec",
    "load_spec",
    "loads_spec",
    "dump_spec",
    "dumps_spec",
    "campaign_fingerprint",
]

#: The campaign-spec schema version this build reads and writes.
SPEC_VERSION = 1

_TABLES = ("arl", "classification")
_FORMATS = ("toml", "json")


@dataclass(frozen=True)
class SweepSpec(Mapped, label="sweep"):
    """Grids expanding a campaign into a sweep.

    Attributes
    ----------
    seeds:
        Root seeds to repeat the whole campaign over.  Empty means "just
        the experiment's own seed".
    magnitudes:
        Intensity multipliers applied to every scenario's injections
        (disturbance magnitude, drift rate, bias offset — see
        :meth:`~repro.experiments.injections.Injection.scaled`).  Each
        magnitude produces a renamed scenario variant; empty means "no
        magnitude expansion".
    """

    seeds: Tuple[int, ...] = ()
    magnitudes: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "seeds", tuple(as_int(seed) for seed in self.seeds)
        )
        try:
            magnitudes = tuple(float(m) for m in self.magnitudes)
        except (TypeError, ValueError, OverflowError) as error:
            raise ConfigurationError(f"sweep magnitudes must be numbers: {error}") from error
        object.__setattr__(self, "magnitudes", magnitudes)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("sweep seeds must be unique")
        if len(set(self.magnitudes)) != len(self.magnitudes):
            raise ConfigurationError("sweep magnitudes must be unique")
        for magnitude in self.magnitudes:
            if magnitude <= 0:
                raise ConfigurationError("sweep magnitudes must be positive")

    @property
    def is_empty(self) -> bool:
        """Whether this sweep expands nothing."""
        return not self.seeds and not self.magnitudes

    def seeds_for(self, base_seed: int) -> Tuple[int, ...]:
        """The root seeds the campaign runs at."""
        return self.seeds or (int(base_seed),)

    def expand(self, scenarios: Tuple[Scenario, ...]) -> Tuple[Scenario, ...]:
        """Apply the magnitude grid to a scenario tuple (scenario-major).

        A scenario whose injections have no intensity knob (DoS, stuck-at,
        replay, constant integrity) would expand into identically-behaving
        variants that each re-simulate; such scenarios are kept once,
        unrenamed, instead.
        """
        if not self.magnitudes:
            return tuple(scenarios)
        expanded = []
        for scenario in scenarios:
            variants = [scenario.scaled(m) for m in self.magnitudes]
            if all(v.injections == scenario.injections for v in variants):
                expanded.append(scenario)
            else:
                expanded.extend(variants)
        return tuple(expanded)

    def to_mapping(self) -> Dict[str, Any]:
        """The non-empty grids only (an empty sweep maps to ``{}``)."""
        return {key: grid for key, grid in encode(self).items() if grid}


@dataclass(frozen=True)
class AnalysisSpec(Mapped, label="analysis", omit_none=True):
    """How campaign results are consumed.

    Attributes
    ----------
    streaming:
        ``False`` (default) retains every run eagerly —
        :meth:`Evaluation.evaluate_all` semantics; ``True`` streams through
        the sharded analysis pipeline with O(chunk) peak memory and keeps
        only :class:`~repro.experiments.analysis.ScenarioSummary` records.
    chunk_size:
        Runs per streaming chunk (``None``:
        :meth:`~repro.common.config.ParallelConfig.simulation_chunk_size`,
        one full lockstep batch per worker, at least 2x the worker count).
    tables:
        Which result tables :meth:`CampaignResult.tables` produces.
    """

    streaming: bool = False
    tables: Tuple[str, ...] = _TABLES
    # Last, so an emitted [analysis] table keeps its historical key order.
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "streaming", as_bool(self.streaming))
        object.__setattr__(self, "tables", tuple(self.tables))
        if self.chunk_size is not None:
            object.__setattr__(self, "chunk_size", as_int(self.chunk_size))
            if self.chunk_size < 1:
                raise ConfigurationError("chunk_size must be >= 1 or None")
        for table in self.tables:
            if table not in _TABLES:
                raise ConfigurationError(
                    f"unknown table {table!r} (available: {_TABLES})"
                )


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, serializable description of an evaluation campaign."""

    name: str
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    scenarios: Tuple[Scenario, ...] = ()
    sweep: SweepSpec = field(default_factory=SweepSpec)
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)
    live: LiveConfig = field(default_factory=LiveConfig)
    service: ServiceConfig = field(default_factory=ServiceConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    response: ResponsePolicy = field(default_factory=ResponsePolicy)
    obs: ObsConfig = field(default_factory=ObsConfig)
    description: str = ""
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if not str(self.name):
            raise ConfigurationError("a campaign spec needs a non-empty name")
        object.__setattr__(self, "version", as_int(self.version))
        if self.version != SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported spec version {self.version} "
                f"(this build reads version {SPEC_VERSION})"
            )
        scenarios = tuple(REGISTRY.resolve(ref) for ref in self.scenarios)
        object.__setattr__(self, "scenarios", scenarios)
        if not scenarios:
            raise ConfigurationError("a campaign spec needs at least one scenario")
        names = [scenario.name for scenario in scenarios]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ConfigurationError(f"duplicate scenario name(s): {duplicates}")
        self._check_injection_timing()

    def _check_injection_timing(self) -> None:
        """Fail at load time on windows the campaign onset would invalidate.

        An injection with a deferred onset (``start_hour=None``) activates
        at the experiment's ``anomaly_start_hour``; if its ``end_hour``
        falls at or before that, the attack window is empty and attack
        construction would raise mid-campaign — after calibration already
        ran.  Specs promise to fail at load time, so catch it here.
        """
        onset = self.experiment.anomaly_start_hour
        for scenario in self.scenarios:
            for injection in scenario.injections:
                if (
                    injection.start_hour is None
                    and injection.end_hour is not None
                    and injection.end_hour <= onset
                ):
                    raise ConfigurationError(
                        f"scenario {scenario.name!r}: injection "
                        f"{injection.to_mapping()!r} ends at hour "
                        f"{injection.end_hour:g}, at or before the campaign's "
                        f"anomaly_start_hour ({onset:g}) it would start at"
                    )

    # ------------------------------------------------------------------
    # Campaign expansion
    # ------------------------------------------------------------------
    def expanded_scenarios(self) -> Tuple[Scenario, ...]:
        """The scenarios actually evaluated (magnitude grid applied)."""
        return self.sweep.expand(self.scenarios)

    def seeds(self) -> Tuple[int, ...]:
        """The root seeds the campaign runs at (seed grid applied)."""
        return self.sweep.seeds_for(self.experiment.seed)

    def experiment_for(self, seed: int) -> ExperimentConfig:
        """The experiment configuration of one sweep seed."""
        if seed == self.experiment.seed:
            return self.experiment
        return self.experiment.with_seed(seed)

    def with_experiment(self, experiment: ExperimentConfig) -> "CampaignSpec":
        """This spec with a different experiment configuration."""
        return replace(self, experiment=experiment)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_mapping(self) -> Dict[str, Any]:
        """A plain nested mapping — the canonical serialized form."""
        mapping: Dict[str, Any] = {
            "version": self.version,
            "name": self.name,
        }
        if self.description:
            mapping["description"] = self.description
        mapping["experiment"] = self.experiment.to_mapping()
        mapping["scenarios"] = [
            scenario.to_mapping() for scenario in self.scenarios
        ]
        if not self.sweep.is_empty:
            mapping["sweep"] = self.sweep.to_mapping()
        mapping["analysis"] = self.analysis.to_mapping()
        if not self.live.is_default:
            mapping["live"] = self.live.to_mapping()
        if not self.service.is_default:
            mapping["service"] = self.service.to_mapping()
        if not self.gateway.is_default:
            mapping["gateway"] = self.gateway.to_mapping()
        if not self.response.is_default:
            mapping["response"] = self.response.to_mapping()
        if not self.obs.is_default:
            mapping["obs"] = self.obs.to_mapping()
        return mapping

    @classmethod
    def from_mapping(
        cls,
        mapping: Mapping[str, Any],
        registry: Optional[ScenarioRegistry] = None,
    ) -> "CampaignSpec":
        """Build and validate a spec from its mapping form."""
        check_keys(
            mapping,
            ("version", "name", "description", "experiment", "scenarios",
             "sweep", "analysis", "live", "service", "gateway", "response",
             "obs"),
            "campaign spec",
        )
        registry = registry or REGISTRY
        if "name" not in mapping:
            raise ConfigurationError("a campaign spec needs a 'name'")
        return cls(
            name=decode_value(str, mapping["name"], "campaign spec.name"),
            description=decode_value(
                str, mapping.get("description", ""), "campaign spec.description"
            ),
            version=mapping.get("version", SPEC_VERSION),
            experiment=ExperimentConfig.from_mapping(mapping.get("experiment", {})),
            scenarios=tuple(
                registry.resolve(ref)
                for ref in as_sequence(mapping.get("scenarios", ()), "scenarios")
            ),
            sweep=SweepSpec.from_mapping(mapping.get("sweep", {})),
            analysis=AnalysisSpec.from_mapping(mapping.get("analysis", {})),
            live=LiveConfig.from_mapping(mapping.get("live", {})),
            service=ServiceConfig.from_mapping(mapping.get("service", {})),
            gateway=GatewayConfig.from_mapping(mapping.get("gateway", {})),
            response=ResponsePolicy.from_mapping(mapping.get("response", {})),
            obs=ObsConfig.from_mapping(mapping.get("obs", {})),
        )

    def to_toml(self) -> str:
        """This spec as a TOML document."""
        return dumps_toml(self.to_mapping())

    def to_json(self) -> str:
        """This spec as a JSON document."""
        return json.dumps(self.to_mapping(), indent=2) + "\n"


def _format_of(path: Path, format: Optional[str]) -> str:
    if format is not None:
        if format not in _FORMATS:
            raise ConfigurationError(
                f"unknown spec format {format!r} (available: {_FORMATS})"
            )
        return format
    suffix = path.suffix.lower().lstrip(".")
    if suffix in _FORMATS:
        return suffix
    raise ConfigurationError(
        f"cannot infer spec format from {path.name!r}; "
        "use a .toml/.json suffix or pass format=..."
    )


def loads_spec(
    text: str,
    format: str = "toml",
    registry: Optional[ScenarioRegistry] = None,
) -> CampaignSpec:
    """Parse a campaign spec from a TOML or JSON string."""
    if format not in _FORMATS:
        raise ConfigurationError(
            f"unknown spec format {format!r} (available: {_FORMATS})"
        )
    try:
        if format == "toml":
            if tomllib is None:  # pragma: no cover - Python 3.10 w/o tomli
                raise ConfigurationError(
                    "reading TOML specs needs Python 3.11+ (tomllib) or the "
                    "tomli package; JSON specs work everywhere"
                )
            mapping = tomllib.loads(text)
        else:
            mapping = json.loads(text)
    except ValueError as error:  # TOMLDecodeError and JSONDecodeError
        raise ConfigurationError(f"malformed {format} spec: {error}") from error
    return CampaignSpec.from_mapping(mapping, registry=registry)


def load_spec(
    path: Union[str, Path],
    format: Optional[str] = None,
    registry: Optional[ScenarioRegistry] = None,
) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    resolved = _format_of(path, format)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigurationError(f"cannot read spec {path}: {error}") from error
    try:
        return loads_spec(text, format=resolved, registry=registry)
    except ConfigurationError as error:
        raise ConfigurationError(f"{path}: {error}") from error


def dumps_spec(spec: CampaignSpec, format: str = "toml") -> str:
    """Serialize a spec to TOML (default) or JSON text."""
    if format not in _FORMATS:
        raise ConfigurationError(
            f"unknown spec format {format!r} (available: {_FORMATS})"
        )
    return spec.to_toml() if format == "toml" else spec.to_json()


def dump_spec(
    spec: CampaignSpec,
    path: Union[str, Path],
    format: Optional[str] = None,
) -> Path:
    """Write a spec to a ``.toml`` or ``.json`` file; returns the path."""
    path = Path(path)
    resolved = _format_of(path, format)
    path.write_text(dumps_spec(spec, format=resolved), encoding="utf-8")
    return path


def campaign_fingerprint(spec: CampaignSpec) -> str:
    """A stable digest identifying a campaign's full content.

    Hashes the spec's canonical mapping form, so a spec loaded from TOML,
    one parsed from a JSON request body and one built in code all
    fingerprint identically.  Doubles as the campaign id of the
    distributed service (:mod:`repro.service`).
    """
    blob = json.dumps(
        spec.to_mapping(), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
