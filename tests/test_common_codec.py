"""Decoders of outside bytes fail only with typed errors.

A derandomized hypothesis fuzz of every public ``from_mapping`` in
``repro``, of ``loads_spec`` on mutated example specs (TOML and JSON) and
of ``FaultPlan.loads`` on mutated example fault plans.  Each mutation drops
a key, swaps a value for another JSON type, adds an unknown key or nests
garbage, somewhere inside a valid mapping.  Every call must return an
instance of its class or raise a :class:`ReproError` —
:class:`ConfigurationError`, or :class:`FaultInjectionError` for fault
plans — never a builtin ``KeyError``, ``ValueError``, ``TypeError`` or
``AttributeError``.  The valid mappings come from the golden corpus of
``scripts/make_mapping_golden.py``, which also gives every mapped class a
round-trip check through JSON.  The decoders that used to leak builtin
exceptions, journal replay included, are pinned as explicit cases.
"""

import dataclasses
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import api
from repro.api._toml import dumps_toml
from repro.anomaly.diagnosis import DiagnosisSummary
from repro.api.session import CampaignResult
from repro.common import codec
from repro.common.config import (
    EarlyStopPolicy,
    ExperimentConfig,
    GatewayConfig,
    LiveConfig,
    MSPCConfig,
    ObsConfig,
    ParallelConfig,
    ServiceConfig,
    SimulationConfig,
)
from repro.common.exceptions import (
    ConfigurationError,
    FaultInjectionError,
    JournalError,
)
from repro.common.journal import Journal
from repro.common.retry import RetryPolicy
from repro.experiments.analysis import ScenarioSummary
from repro.experiments.injections import (
    INJECTION_TYPES,
    Injection,
    injection_from_mapping,
)
from repro.experiments.scenarios import Scenario
from repro.faults import FaultPlan, FaultRule
from repro.gateway.journal import AlarmJournal
from repro.live.alarms import AlarmEvent
from repro.live.monitor import LiveRunReport
from repro.mspc.model import OmedaResult
from repro.response.metrics import ResponseSummary
from repro.response.policy import ActionSpec, ResponsePolicy
from repro.response.verify import ActionRecord, ResponseReport
from repro.service import CampaignCoordinator
from repro.service.chunks import WorkChunk

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python 3.10
    import tomli as tomllib

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "scripts" / "make_mapping_golden.py"
_spec = importlib.util.spec_from_file_location("make_mapping_golden", _SCRIPT)
make_mapping_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_mapping_golden)

CORPUS = make_mapping_golden.corpus()

#: Deterministic fuzzing: the same examples on every run.
FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Any JSON value, nested a little.
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
GARBAGE = st.lists(JSON, min_size=1, max_size=3) | st.dictionaries(
    st.text(max_size=8), JSON, min_size=1, max_size=3
)


def public_decoders():
    """Every public dataclass in ``repro`` with a ``from_mapping``, by name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if (
                dataclasses.is_dataclass(value)
                and isinstance(value, type)
                and value.__module__ == module.__name__
                and not name.startswith("_")
                and callable(getattr(value, "from_mapping", None))
            ):
                found[f"{module.__name__}.{name}"] = value
    return found


DECODERS = public_decoders()


#: Golden corpus entry prefix -> the class whose mapping the entry holds.
CORPUS_CLASSES = {
    "simulation": SimulationConfig,
    "mspc": MSPCConfig,
    "parallel": ParallelConfig,
    "early_stop": EarlyStopPolicy,
    "live": LiveConfig,
    "service": ServiceConfig,
    "gateway": GatewayConfig,
    "obs": ObsConfig,
    "experiment": ExperimentConfig,
    "sweep": api.SweepSpec,
    "analysis": api.AnalysisSpec,
    "action_spec": ActionSpec,
    "response": ResponsePolicy,
    "retry": RetryPolicy,
    "alarm_event": AlarmEvent,
    "omeda": OmedaResult,
    "diagnosis_summary": DiagnosisSummary,
    "live_report": LiveRunReport,
    "action_record": ActionRecord,
    "response_report": ResponseReport,
    "response_summary": ResponseSummary,
    "work_chunk": WorkChunk,
    "scenario": Scenario,
    "scenario_summary": ScenarioSummary,
    "campaign_result": CampaignResult,
    "faults": FaultPlan,
}


def class_of(entry: str):
    """The class whose mapping a golden corpus entry holds, if any."""
    parts = entry.split("/")
    if parts[0] == "injection":
        return INJECTION_TYPES[parts[1]]
    if parts[0] == "spec":
        return api.CampaignSpec if parts[-1] == "mapping" else None
    if entry == "faults/default_rule":
        return FaultRule
    return CORPUS_CLASSES.get(parts[0])


def seeds_of(cls):
    """Valid mappings of ``cls`` from the corpus (``{}`` when none)."""
    seeds = [mapping for entry, mapping in CORPUS.items() if class_of(entry) is cls]
    return seeds or [{}]


def mutate(data, value, depth=0):
    """``value`` with one mutation somewhere inside it."""
    if isinstance(value, (dict, list)) and value and depth < 4:
        if data.draw(st.booleans(), label="descend"):
            keys = sorted(value) if isinstance(value, dict) else range(len(value))
            key = data.draw(st.sampled_from(list(keys)), label="at")
            copy = dict(value) if isinstance(value, dict) else list(value)
            copy[key] = mutate(data, value[key], depth + 1)
            return copy
    operation = data.draw(
        st.sampled_from(["drop", "swap", "add", "garbage"]), label="operation"
    )
    if isinstance(value, dict) and operation == "drop" and value:
        key = data.draw(st.sampled_from(sorted(value)), label="drop")
        return {k: v for k, v in value.items() if k != key}
    if isinstance(value, dict) and operation == "add":
        key = data.draw(st.text(min_size=1, max_size=8), label="key")
        return {**value, key: data.draw(JSON, label="value")}
    if operation == "garbage":
        return data.draw(GARBAGE, label="garbage")
    return data.draw(JSON, label="swap")


def typed(call, cls, error=ConfigurationError):
    """Run a decode: an instance of ``cls`` or ``error``, nothing else."""
    try:
        result = call()
    except error:
        return None
    assert isinstance(result, cls)
    return result


def same(a, b) -> bool:
    """Deep equality that compares numpy arrays by value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, spec.name), getattr(b, spec.name))
            for spec in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and list(a) == list(b)
            and all(same(a[key], b[key]) for key in a)
        )
    return type(a) is type(b) and a == b


def test_discovery_finds_the_mapped_records():
    names = {cls.__name__ for cls in DECODERS.values()}
    assert {
        "SimulationConfig", "ExperimentConfig", "CampaignSpec", "SweepSpec",
        "RetryPolicy", "DisturbanceInjection", "Scenario", "AlarmEvent",
        "LiveRunReport", "ResponseReport", "WorkChunk", "FaultPlan",
        "CampaignResult", "ScenarioSummary",
    } <= names


@pytest.mark.parametrize("name", sorted(DECODERS))
@FUZZ
@given(data=st.data())
def test_mutated_mappings_decode_or_raise_typed(name, data):
    cls = DECODERS[name]
    error = FaultInjectionError if cls.__module__ == "repro.faults" else ConfigurationError
    seed = data.draw(st.sampled_from(seeds_of(cls)), label="seed")
    mutated = mutate(data, seed)
    typed(lambda: cls.from_mapping(mutated), cls, error)


@FUZZ
@given(data=st.data())
def test_mutated_injections_decode_or_raise_typed(data):
    seed = data.draw(
        st.sampled_from(
            [m for entry, m in CORPUS.items() if entry.startswith("injection/")]
        )
    )
    mutated = mutate(data, seed)
    typed(lambda: injection_from_mapping(mutated), Injection)


SPECS = sorted((_ROOT / "examples" / "specs").glob("*.toml"))
FAULT_PLANS = sorted((_ROOT / "examples" / "faults").glob("*.toml"))


def texts_of(mapping):
    """``mapping`` as JSON text, and as TOML text where TOML can hold it."""
    texts = [("json", json.dumps(mapping))]
    if isinstance(mapping, dict):
        try:
            texts.append(("toml", dumps_toml(mapping)))
        except TypeError:
            pass  # null, mixed arrays: not expressible in TOML
    return texts


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
@FUZZ
@given(data=st.data())
def test_mutated_example_specs_load_or_raise_typed(path, data):
    mutated = mutate(data, tomllib.loads(path.read_text(encoding="utf-8")))
    for format, text in texts_of(mutated):
        typed(lambda: api.loads_spec(text, format=format), api.CampaignSpec)


@pytest.mark.parametrize("path", FAULT_PLANS, ids=lambda path: path.stem)
@FUZZ
@given(data=st.data())
def test_mutated_fault_plans_load_or_raise_typed(path, data):
    mutated = mutate(data, tomllib.loads(path.read_text(encoding="utf-8")))
    for format, text in texts_of(mutated):
        typed(lambda: FaultPlan.loads(text, format), FaultPlan, FaultInjectionError)


@pytest.mark.parametrize(
    "entry", sorted(entry for entry in CORPUS if class_of(entry) is not None)
)
def test_corpus_round_trips_through_json(entry):
    cls = class_of(entry)
    record = cls.from_mapping(CORPUS[entry])
    mapping = record.to_mapping()
    assert make_mapping_golden.canonical(mapping) == make_mapping_golden.canonical(
        CORPUS[entry]
    )
    rebuilt = cls.from_mapping(json.loads(json.dumps(mapping)))
    assert same(rebuilt, record)


class TestPinnedLeaks:
    """Inputs that used to escape as builtin exceptions."""

    def test_fault_plan_with_a_word_for_times(self):
        plan = {"rules": [{"site": "x", "action": "error", "times": "two"}]}
        with pytest.raises(FaultInjectionError, match=r"times"):
            FaultPlan.from_mapping(plan)

    @pytest.mark.parametrize("cls", [WorkChunk, LiveRunReport, CampaignResult])
    def test_empty_mapping_of_a_result_record(self, cls):
        with pytest.raises(ConfigurationError, match="missing required key"):
            cls.from_mapping({})

    def test_unreadable_spec_and_fault_plan_files(self, tmp_path):
        binary = tmp_path / "binary.toml"
        binary.write_bytes(b"\xff\xfe name = 1")
        with pytest.raises(ConfigurationError, match="cannot read spec"):
            api.load_spec(binary)
        with pytest.raises(FaultInjectionError, match="cannot read fault plan"):
            FaultPlan.load(binary)
        with pytest.raises(FaultInjectionError, match="cannot read fault plan"):
            FaultPlan.load(tmp_path / "missing.toml")

    def test_retry_policy_with_a_list_for_an_int(self):
        with pytest.raises(ConfigurationError, match=r"retry_policy\.max_attempts"):
            RetryPolicy.from_mapping({"max_attempts": [1]})

    def test_alarm_record_without_a_view(self, tmp_path):
        path = tmp_path / "alarms.journal"
        Journal(path).append(
            {"v": 1, "event": "alarm", "stream_id": "s", "alarm": {"index": 3}}
        )
        with pytest.raises(JournalError, match=r"record 1 .*'view'"):
            AlarmJournal(path).replay()

    def test_submit_record_without_a_spec(self, tmp_path):
        path = tmp_path / "coordinator.journal"
        Journal(path).append({"v": 1, "event": "submit", "campaign_id": "c"})
        with pytest.raises(JournalError, match=r"record 1 .*'spec'"):
            CampaignCoordinator(tmp_path / "shared", journal=path)

    def test_submit_record_with_an_invalid_spec(self, tmp_path):
        path = tmp_path / "coordinator.journal"
        Journal(path).append(
            {"v": 1, "event": "submit", "campaign_id": "c", "spec": {"name": "x"}}
        )
        with pytest.raises(JournalError, match=r"record 1 .*scenario"):
            CampaignCoordinator(tmp_path / "shared", journal=path)


class TestStrictStrings:
    """A string field takes a string only: ``str(None)`` is ``"None"``."""

    @pytest.mark.parametrize("value", [None, [1, 2], 3, 2.5, True, {"a": 1}])
    def test_service_host_takes_only_a_string(self, value):
        with pytest.raises(
            ConfigurationError,
            match=r"invalid service\.host: expected a string",
        ):
            ServiceConfig.from_mapping({"host": value})

    def test_alarm_event_kind_null_is_rejected(self):
        mapping = AlarmEvent(
            kind="raised", index=3, time_hours=0.1, chart="D",
            statistic_value=1.0, limit=0.5,
        ).to_mapping()
        with pytest.raises(ConfigurationError, match=r"alarm_event\.kind"):
            AlarmEvent.from_mapping(dict(mapping, kind=None))

    def test_names_of_specs_and_scenarios_take_only_a_string(self):
        with pytest.raises(ConfigurationError, match=r"campaign spec\.name"):
            api.CampaignSpec.from_mapping({"name": None, "scenarios": ["normal"]})
        with pytest.raises(ConfigurationError, match=r"scenario\.title"):
            Scenario.from_mapping({"name": "x", "title": [1, 2]})

    def test_strings_still_decode(self):
        assert ServiceConfig.from_mapping({"host": "10.0.0.1"}).host == "10.0.0.1"
        assert codec.as_str("x") == "x"


class TestCodec:
    def test_unknown_key_names_the_closest_field(self):
        with pytest.raises(ConfigurationError, match=r"did you mean 'seed'"):
            SimulationConfig.from_mapping({"sed": 1})

    def test_nested_errors_name_the_full_path(self):
        with pytest.raises(
            ConfigurationError, match=r"invalid experiment\.simulation\.seed"
        ):
            ExperimentConfig.from_mapping({"simulation": {"seed": "x"}})

    def test_none_fields_are_omitted_per_class(self):
        assert "n_components" not in MSPCConfig().to_mapping()
        mapping = LiveRunReport.from_mapping(CORPUS["live_report/none"]).to_mapping()
        assert mapping["detection_index"] is None

    def test_unsupported_hint_is_a_programming_error(self):
        @dataclasses.dataclass
        class Odd(codec.Mapped):
            pair: tuple

        with pytest.raises(TypeError, match="no mapping codec"):
            Odd.from_mapping({"pair": [1, 2]})
