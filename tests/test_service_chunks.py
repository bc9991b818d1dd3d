"""Tests for campaign sharding: run-spec flattening, fingerprints, chunks."""

import pytest

from repro.api.spec import CampaignSpec
from repro.api.spec import SweepSpec
from repro.common.config import (
    ExperimentConfig,
    ParallelConfig,
    ServiceConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.experiments.parallel import calibration_specs, scenario_specs
from repro.service import (
    WorkChunk,
    campaign_fingerprint,
    campaign_run_specs,
    shard_campaign,
)

SMALL_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=1,
    anomaly_start_hour=2.0,
    simulation=SimulationConfig(duration_hours=5.0, samples_per_hour=20, seed=13),
    parallel=ParallelConfig.serial(),
    seed=13,
)


def small_spec(**kwargs) -> CampaignSpec:
    defaults = dict(name="chunks", scenarios=["idv6", "attack_xmv3"])
    defaults.update(kwargs)
    return CampaignSpec(**defaults).with_experiment(SMALL_EXPERIMENT)


class TestCampaignRunSpecs:
    def test_order_is_calibration_then_scenarios_per_seed(self):
        spec = small_spec()
        specs = campaign_run_specs(spec)
        experiment = spec.experiment_for(spec.experiment.seed)
        expected = list(calibration_specs(experiment))
        for scenario in spec.expanded_scenarios():
            expected.extend(scenario_specs(experiment, scenario))
        assert [s.cache_key() for s in specs] == [s.cache_key() for s in expected]

    def test_counts_scale_with_repeats_and_scenarios(self):
        spec = small_spec()
        # 2 calibration + 2 scenarios x 1 repeat
        assert len(campaign_run_specs(spec)) == 4

    def test_sweep_repeats_the_campaign_per_seed(self):
        spec = small_spec(sweep=SweepSpec(seeds=(1, 2, 3)))
        assert len(campaign_run_specs(spec)) == 3 * 4

    def test_derivation_is_deterministic(self):
        keys_a = [s.cache_key() for s in campaign_run_specs(small_spec())]
        keys_b = [s.cache_key() for s in campaign_run_specs(small_spec())]
        assert keys_a == keys_b


class TestCampaignFingerprint:
    def test_stable_across_mapping_round_trip(self):
        spec = small_spec()
        rebuilt = CampaignSpec.from_mapping(spec.to_mapping())
        assert campaign_fingerprint(spec) == campaign_fingerprint(rebuilt)

    def test_sensitive_to_content(self):
        assert campaign_fingerprint(small_spec()) != campaign_fingerprint(
            small_spec(scenarios=["idv6"])
        )

    def test_shape(self):
        fingerprint = campaign_fingerprint(small_spec())
        assert len(fingerprint) == 16
        assert set(fingerprint) <= set("0123456789abcdef")


class TestWorkChunk:
    def test_round_trip(self):
        chunk = WorkChunk(chunk_id="c0001", start=4, stop=8, fingerprint="ab" * 8)
        assert WorkChunk.from_mapping(chunk.to_mapping()) == chunk

    def test_rejects_empty_or_negative_ranges(self):
        with pytest.raises(ConfigurationError):
            WorkChunk(chunk_id="c0", start=3, stop=3, fingerprint="f")
        with pytest.raises(ConfigurationError):
            WorkChunk(chunk_id="c0", start=-1, stop=2, fingerprint="f")

    def test_specs_of_slices_the_flattened_campaign(self):
        spec = small_spec()
        chunks = shard_campaign(spec, chunk_size=3)
        specs = campaign_run_specs(spec)
        materialized = [s for chunk in chunks for s in chunk.specs_of(spec)]
        assert [s.cache_key() for s in materialized] == [
            s.cache_key() for s in specs
        ]

    def test_specs_of_refuses_a_mismatched_spec(self):
        chunk = shard_campaign(small_spec())[0]
        with pytest.raises(ConfigurationError, match="belongs to campaign"):
            chunk.specs_of(small_spec(scenarios=["idv6"]))

    def test_specs_of_refuses_out_of_range_chunks(self):
        spec = small_spec()
        bad = WorkChunk(
            chunk_id="c9", start=0, stop=99, fingerprint=campaign_fingerprint(spec)
        )
        with pytest.raises(ConfigurationError, match="only has"):
            bad.specs_of(spec)


class TestShardCampaign:
    def test_covers_every_run_exactly_once(self):
        chunks = shard_campaign(small_spec(), chunk_size=3)
        assert [(c.start, c.stop) for c in chunks] == [(0, 3), (3, 4)]
        assert sum(c.n_runs for c in chunks) == 4

    def test_chunk_ids_are_ordered_and_unique(self):
        chunks = shard_campaign(small_spec(), chunk_size=1)
        assert [c.chunk_id for c in chunks] == [f"c{i:04d}" for i in range(4)]

    def test_service_chunk_size_wins_over_parallel(self):
        spec = small_spec(service=ServiceConfig(chunk_size=2))
        assert spec.service.chunk_size == 2
        assert [(c.start, c.stop) for c in shard_campaign(spec)] == [
            (0, 2), (2, 4),
        ]

    def test_default_size_follows_the_batch_aware_plan(self):
        spec = small_spec()
        expected = spec.service.resolved_chunk_size(spec.experiment.parallel)
        chunks = shard_campaign(spec)
        assert chunks[0].n_runs == min(expected, 4)

    def test_batch_backend_chunks_hold_whole_batches(self):
        parallel = ParallelConfig(batch_size=3, n_workers=1)
        spec = small_spec(sweep=SweepSpec(seeds=(1, 2, 3))).with_experiment(
            SMALL_EXPERIMENT.with_parallel(parallel)
        )
        chunks = shard_campaign(spec)
        assert chunks[0].n_runs % 3 == 0

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ConfigurationError):
            shard_campaign(small_spec(), chunk_size=0)


class TestServiceConfigSection:
    def test_defaults_round_trip_and_stay_out_of_mappings(self):
        config = ServiceConfig()
        assert config.is_default
        assert "service" not in small_spec().to_mapping()

    def test_spec_section_round_trips(self):
        spec = small_spec(
            service=ServiceConfig(host="0.0.0.0", port=9000, lease_seconds=120.0)
        )
        mapping = spec.to_mapping()
        assert mapping["service"]["port"] == 9000
        rebuilt = CampaignSpec.from_mapping(mapping)
        assert rebuilt.service == spec.service
        assert rebuilt.service.url == "http://0.0.0.0:9000"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(port=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(lease_seconds=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(poll_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(chunk_size=0)
        # a heartbeat that cannot renew the lease in time is a footgun
        with pytest.raises(ConfigurationError):
            ServiceConfig(lease_seconds=10.0, heartbeat_seconds=30.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ServiceConfig.from_mapping({"hostt": "x"})

    def test_resolved_chunk_size_prefers_explicit_setting(self):
        parallel = ParallelConfig.serial()
        assert ServiceConfig(chunk_size=7).resolved_chunk_size(parallel) == 7
        # Two runs per worker when neither the section nor the plan sets a
        # chunk or a batch size, whatever the default batch width.
        assert ServiceConfig().resolved_chunk_size(parallel) == 2
        assert ServiceConfig().resolved_chunk_size(parallel.with_workers(3)) == 6
        assert (
            ServiceConfig().resolved_chunk_size(ParallelConfig(chunk_size=5)) == 5
        )
