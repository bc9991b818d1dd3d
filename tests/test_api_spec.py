"""Tests for the campaign-spec schema: parsing, validation, round-trips.

The round-trip block is the satellite guarantee of the declarative API:
every built-in scenario and every example spec survives
``spec -> TOML/JSON -> spec`` with identical campaign cache keys, and a
small campaign executed from the round-tripped spec is bitwise-identical.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api._toml import dumps_toml
from repro.api.spec import SPEC_VERSION, AnalysisSpec, SweepSpec
from repro.common.config import (
    ExperimentConfig,
    MSPCConfig,
    ObsConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.experiments.parallel import calibration_specs, scenario_specs
from repro.experiments.scenarios import normal_scenario, paper_scenarios

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python 3.10
    import tomli as tomllib

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"
EXAMPLE_SPECS = sorted(SPEC_DIR.glob("*.toml"))

TINY_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=1,
    anomaly_start_hour=1.5,
    simulation=SimulationConfig(duration_hours=4.0, samples_per_hour=20, seed=11),
    parallel=ParallelConfig.serial(),
    seed=11,
)


def campaign_cache_keys(spec: api.CampaignSpec) -> list:
    keys = []
    for seed in spec.seeds():
        experiment = spec.experiment_for(seed)
        keys.extend(run.cache_key() for run in calibration_specs(experiment))
        for scenario in spec.expanded_scenarios():
            keys.extend(
                run.cache_key() for run in scenario_specs(experiment, scenario)
            )
    return keys


# ----------------------------------------------------------------------
# TOML emitter
# ----------------------------------------------------------------------
class TestTomlEmitter:
    def test_round_trips_through_tomllib(self):
        mapping = {
            "version": 1,
            "name": "x",
            "flag": True,
            "ratio": 0.1 + 0.2,  # not exactly representable in decimal
            "big": 1.7976931348623157e308,
            "values": [1, 2, 3],
            "floats": [0.95, 0.99],
            "empty": [],
            "table": {"a": 1, "nested": {"b": "two"}},
            "items": [{"k": 1}, {"k": 2, "sub": [{"s": "deep"}]}],
            "weird key!": "quoted",
            "text": 'quotes " and \\ backslashes\nand newlines',
        }
        assert tomllib.loads(dumps_toml(mapping)) == mapping

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            dumps_toml({"x": object()})

    @given(
        st.dictionaries(
            st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
            st.one_of(
                st.integers(min_value=-(2**60), max_value=2**60),
                st.floats(allow_nan=False),
                st.booleans(),
                st.text(max_size=20),
                st.lists(st.floats(allow_nan=False), max_size=4),
                st.dictionaries(
                    st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
                    st.integers(min_value=0, max_value=100),
                    max_size=3,
                ),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_round_trip(self, mapping):
        assert tomllib.loads(dumps_toml(mapping)) == mapping


# ----------------------------------------------------------------------
# Config mapping round-trips
# ----------------------------------------------------------------------
class TestConfigMappings:
    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig(),
            SimulationConfig.paper_settings(seed=3),
            MSPCConfig(),
            MSPCConfig(n_components=2, limit_method="percentile"),
            ParallelConfig(),
            ParallelConfig(
                n_workers=2,
                cache_dir="/tmp/c",
                cache_max_bytes=1024,
                cache_max_age=60.0,
                chunk_size=4,
            ),
            ExperimentConfig(),
            ExperimentConfig.smoke(),
        ],
    )
    def test_round_trip(self, config):
        assert type(config).from_mapping(config.to_mapping()) == config

    def test_int_float_spelling_is_canonicalized(self):
        a = SimulationConfig.from_mapping({"duration_hours": 14})
        b = SimulationConfig.from_mapping({"duration_hours": 14.0})
        assert a == b and isinstance(a.duration_hours, float)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            SimulationConfig.from_mapping({"durationhours": 14})
        with pytest.raises(ConfigurationError, match="unknown key"):
            ExperimentConfig.from_mapping({"workers": 4})

    def test_fractional_int_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig.from_mapping({"samples_per_hour": 10.5})


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
class TestSchemaValidation:
    def test_version_mismatch(self):
        with pytest.raises(ConfigurationError, match="unsupported spec version"):
            api.loads_spec('version = 99\nname = "x"\n[[scenarios]]\nuse = "idv6"\n')

    def test_version_defaults_to_current(self):
        spec = api.loads_spec('name = "x"\n[[scenarios]]\nuse = "idv6"\n')
        assert spec.version == SPEC_VERSION

    def test_name_required(self):
        with pytest.raises(ConfigurationError, match="'name'"):
            api.loads_spec('[[scenarios]]\nuse = "idv6"\n')

    def test_scenarios_required(self):
        with pytest.raises(ConfigurationError, match="at least one scenario"):
            api.loads_spec('name = "x"\n')

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate scenario"):
            api.loads_spec(
                'name = "x"\n[[scenarios]]\nuse = "idv6"\n'
                '[[scenarios]]\nuse = "idv6"\n'
            )

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            api.loads_spec('name = "x"\nscenario = "idv6"\n')

    def test_backend_key_rejected(self):
        # Every campaign steps lockstep batches, so there is no execution
        # backend to pick: a spec that names one fails to load.
        with pytest.raises(
            ConfigurationError,
            match=r"unknown key\(s\) \['backend'\] in experiment\.parallel",
        ):
            api.loads_spec(
                'name = "x"\n[experiment.parallel]\nbackend = "batch"\n'
                '[[scenarios]]\nuse = "idv6"\n'
            )

    def test_unknown_scenario_reference(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            api.loads_spec('name = "x"\n[[scenarios]]\nuse = "idv99"\n')

    def test_near_miss_key_suggests_the_intended_one(self):
        # A misspelled section name gets a "did you mean" hint naming the
        # closest allowed key, alongside the full allowed list.
        with pytest.raises(
            ConfigurationError, match=r"did you mean 'response'"
        ):
            api.loads_spec(
                'name = "x"\n[[scenarios]]\nuse = "idv6"\n'
                "[responce]\nenabled = true\n"
            )
        with pytest.raises(
            ConfigurationError, match=r"did you mean 'max_actions'"
        ):
            api.loads_spec(
                'name = "x"\n[[scenarios]]\nuse = "idv6"\n'
                "[response]\nenabled = true\nmax_action = 2\n"
            )

    def test_far_off_key_gets_no_suggestion(self):
        with pytest.raises(ConfigurationError) as excinfo:
            api.loads_spec('name = "x"\n[[scenarios]]\nuse = "idv6"\nzzqq = 1\n')
        assert "did you mean" not in str(excinfo.value)

    def test_malformed_toml(self):
        with pytest.raises(ConfigurationError, match="malformed toml"):
            api.loads_spec("name = ")

    def test_malformed_json(self):
        with pytest.raises(ConfigurationError, match="malformed json"):
            api.loads_spec("{", format="json")

    def test_unknown_format(self):
        with pytest.raises(ConfigurationError, match="unknown spec format"):
            api.loads_spec("x = 1", format="yaml")

    def test_sweep_validation(self):
        with pytest.raises(ConfigurationError, match="unique"):
            SweepSpec(seeds=(1, 1))
        with pytest.raises(ConfigurationError, match="positive"):
            SweepSpec(magnitudes=(0.0,))

    def test_analysis_validation(self):
        with pytest.raises(ConfigurationError, match="unknown table"):
            AnalysisSpec(tables=("arl", "confusion"))
        with pytest.raises(ConfigurationError, match="chunk_size"):
            AnalysisSpec(chunk_size=0)

    def test_string_seed_list_rejected(self):
        with pytest.raises(ConfigurationError, match="sweep.seeds"):
            api.loads_spec(
                '{"name": "x", "scenarios": [{"use": "idv6"}], '
                '"sweep": {"seeds": "12"}}',
                format="json",
            )

    def test_string_boolean_rejected(self):
        with pytest.raises(ConfigurationError, match="expected a boolean"):
            api.loads_spec(
                '{"name": "x", "scenarios": [{"use": "idv6"}], '
                '"analysis": {"streaming": "false"}}',
                format="json",
            )

    def test_deferred_onset_with_stale_end_hour_fails_at_load(self):
        # end_hour=5 with a deferred onset that resolves to hour 10 would
        # only crash once the attack is built mid-campaign; the spec layer
        # must reject it up front.
        with pytest.raises(ConfigurationError, match="anomaly_start_hour"):
            api.loads_spec(
                'name = "x"\n'
                "[experiment]\n"
                "anomaly_start_hour = 10.0\n"
                "[[scenarios]]\n"
                'name = "bad"\n'
                "[[scenarios.injections]]\n"
                'type = "drift"\n'
                'channel = "sensor"\n'
                "target = 1\n"
                "rate_per_hour = 0.5\n"
                "end_hour = 5.0\n"
            )

    @pytest.mark.parametrize(
        "injection, match",
        [
            ({"type": "disturbance", "index": 25}, r"IDV\(1\)-IDV\(20\), got 25"),
            ({"type": "disturbance", "index": 0}, r"IDV\(1\)-IDV\(20\), got 0"),
            ({"type": "dos", "channel": "sensor", "target": 50}, r"\[1, 41\], got 50"),
            ({"type": "dos", "channel": "actuator", "target": 13}, r"\[1, 12\], got 13"),
        ],
    )
    def test_out_of_range_injection_index_fails_at_load(self, injection, match):
        # Such a run would only fail once it is built for simulation, after
        # the calibration runs were already simulated.
        mapping = {
            "name": "x",
            "scenarios": [{"name": "bad", "injections": [injection]}],
        }
        with pytest.raises(ConfigurationError, match=match):
            api.CampaignSpec.from_mapping(mapping)

    def test_injection_index_bounds_are_inclusive(self):
        spec = api.CampaignSpec.from_mapping(
            {
                "name": "x",
                "scenarios": [
                    {
                        "name": "edges",
                        "injections": [
                            {"type": "disturbance", "index": 20},
                            {"type": "dos", "channel": "sensor", "target": 41},
                            {"type": "dos", "channel": "actuator", "target": 12},
                        ],
                    }
                ],
            }
        )
        assert len(spec.scenarios[0].injections) == 3

    def test_magnitude_sweep_skips_unscalable_scenarios(self):
        spec = api.loads_spec(
            'name = "x"\n'
            "[sweep]\nmagnitudes = [0.5, 1.0]\n"
            '[[scenarios]]\nuse = "idv6"\n'
            '[[scenarios]]\nuse = "dos_xmv3"\n'
        )
        names = [scenario.name for scenario in spec.expanded_scenarios()]
        assert names == ["idv6@x0.5", "idv6@x1", "dos_xmv3"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read spec"):
            api.load_spec(tmp_path / "nope.toml")

    def test_format_inferred_from_suffix(self, tmp_path):
        spec = api.CampaignSpec(
            name="x", experiment=TINY_EXPERIMENT, scenarios=("idv6",)
        )
        for suffix in (".toml", ".json"):
            path = api.dump_spec(spec, tmp_path / f"spec{suffix}")
            assert api.load_spec(path) == spec

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="infer spec format"):
            api.load_spec(tmp_path / "spec.yaml")


def _injection_mappings():
    """Strategy for arbitrary valid injection mappings of every type."""
    timing = st.one_of(
        st.none(),
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    channel = st.sampled_from(["sensor", "actuator"])
    value = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

    def with_timing(base):
        return st.tuples(base, timing).map(
            lambda pair: {
                **pair[0],
                **({"start_hour": pair[1]} if pair[1] is not None else {}),
            }
        )

    disturbance = st.builds(
        lambda i, m: {"type": "disturbance", "index": i, "magnitude": m},
        st.integers(min_value=1, max_value=20),
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
    )
    integrity = st.builds(
        lambda c, t, v: {"type": "integrity", "channel": c, "target": t, "value": v},
        channel,
        st.integers(min_value=1, max_value=12),
        value,
    )
    dos = st.builds(
        lambda c, t: {"type": "dos", "channel": c, "target": t},
        channel,
        st.integers(min_value=1, max_value=12),
    )
    drift = st.builds(
        lambda c, t, r: {
            "type": "drift", "channel": c, "target": t, "rate_per_hour": r,
        },
        channel,
        st.integers(min_value=1, max_value=12),
        value,
    )
    replay = st.builds(
        lambda c, t, r: {
            "type": "replay", "channel": c, "target": t, "record_hours": r,
        },
        channel,
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    )
    return with_timing(st.one_of(disturbance, integrity, dos, drift, replay))


# ----------------------------------------------------------------------
# Round-trip guarantees (the satellite property tests)
# ----------------------------------------------------------------------
class TestRoundTrips:
    @pytest.mark.parametrize(
        "scenario", [normal_scenario(), *paper_scenarios()], ids=lambda s: s.name
    )
    def test_builtin_scenarios_survive_spec_round_trip(self, scenario):
        spec = api.CampaignSpec(
            name="rt", experiment=TINY_EXPERIMENT, scenarios=(scenario,)
        )
        for format in ("toml", "json"):
            reparsed = api.loads_spec(api.dumps_spec(spec, format), format=format)
            assert reparsed == spec
            assert campaign_cache_keys(reparsed) == campaign_cache_keys(spec)

    @pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda p: p.stem)
    def test_example_specs_survive_round_trip(self, path):
        spec = api.load_spec(path)
        for format in ("toml", "json"):
            reparsed = api.loads_spec(api.dumps_spec(spec, format), format=format)
            assert reparsed == spec
            assert campaign_cache_keys(reparsed) == campaign_cache_keys(spec)

    def test_round_tripped_spec_runs_bitwise_identical_campaign(self):
        spec = api.CampaignSpec(
            name="rt-run",
            experiment=TINY_EXPERIMENT,
            scenarios=(
                "idv6",
                {
                    "name": "drift2",
                    "injections": [
                        {
                            "type": "drift",
                            "channel": "sensor",
                            "target": 2,
                            "rate_per_hour": 0.3,
                        }
                    ],
                },
            ),
        )
        reparsed = api.loads_spec(api.dumps_spec(spec, "toml"))
        original = api.run(spec)
        replayed = api.run(reparsed)
        assert original.arl_table() == replayed.arl_table()
        assert original.classification_table() == replayed.classification_table()

    # ------------------------------------------------------------------
    # Property-based: arbitrary DSL compositions survive serialization.
    # ------------------------------------------------------------------
    @given(
        scenarios=st.lists(
            st.builds(
                lambda name, injections: {"name": name, "injections": injections},
                st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
                st.lists(_injection_mappings(), min_size=0, max_size=3),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda s: s["name"],
        ),
        seeds=st.lists(
            st.integers(min_value=0, max_value=10**6), max_size=3, unique=True
        ),
        magnitudes=st.lists(
            st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
            max_size=2,
            unique=True,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_spec_round_trip(self, scenarios, seeds, magnitudes):
        spec = api.CampaignSpec(
            name="prop",
            experiment=TINY_EXPERIMENT,
            scenarios=tuple(scenarios),
            sweep=SweepSpec(seeds=tuple(seeds), magnitudes=tuple(magnitudes)),
        )
        for format in ("toml", "json"):
            reparsed = api.loads_spec(api.dumps_spec(spec, format), format=format)
            assert reparsed == spec
            assert campaign_cache_keys(reparsed) == campaign_cache_keys(spec)


# ----------------------------------------------------------------------
# The [obs] section
# ----------------------------------------------------------------------
class TestObsSection:
    def test_obs_config_round_trips(self):
        config = ObsConfig(
            enabled=True, trace=True, trace_path="t.json",
            log_level="debug", log_path="c.log",
        )
        assert ObsConfig.from_mapping(config.to_mapping()) == config

    def test_obs_section_parses_and_survives_round_trip(self):
        spec = api.loads_spec(
            'name = "x"\n[[scenarios]]\nuse = "idv6"\n'
            "[obs]\nenabled = true\ntrace = true\nlog_level = \"debug\"\n"
        )
        assert spec.obs.enabled and spec.obs.trace
        assert spec.obs.tracing
        for format in ("toml", "json"):
            reparsed = api.loads_spec(api.dumps_spec(spec, format), format=format)
            assert reparsed == spec

    def test_default_obs_is_omitted_and_keeps_the_fingerprint(self):
        from repro.service.chunks import campaign_fingerprint

        bare = api.loads_spec('name = "x"\n[[scenarios]]\nuse = "idv6"\n')
        explicit_default = api.loads_spec(
            'name = "x"\n[[scenarios]]\nuse = "idv6"\n[obs]\nenabled = false\n'
        )
        assert "obs" not in bare.to_mapping()
        assert "obs" not in explicit_default.to_mapping()
        assert campaign_fingerprint(explicit_default) == campaign_fingerprint(bare)

    def test_non_default_obs_appears_in_the_mapping(self):
        spec = api.loads_spec(
            'name = "x"\n[[scenarios]]\nuse = "idv6"\n[obs]\nenabled = true\n'
        )
        assert spec.to_mapping()["obs"]["enabled"] is True

    def test_unknown_obs_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            api.loads_spec(
                'name = "x"\n[[scenarios]]\nuse = "idv6"\n'
                "[obs]\ntracing = true\n"
            )

    def test_invalid_log_level_rejected(self):
        with pytest.raises(ConfigurationError, match="log_level"):
            api.loads_spec(
                'name = "x"\n[[scenarios]]\nuse = "idv6"\n'
                '[obs]\nlog_level = "loud"\n'
            )

    def test_with_trace_path_enables_tracing(self):
        config = ObsConfig().with_trace_path("trace.json")
        assert config.enabled and config.trace and config.tracing
        assert config.trace_path == "trace.json"
        assert not config.is_default
