"""One ``batch.lockstep`` span per lockstep batch.

The batch simulator opens the span when a batch starts stepping, with its
row count, the sample it starts at and whether it resumed from onset
checkpoints, and annotates the steps it took and the rows that left early
when it ends.  Nothing is added per step, and tracing never changes a
result.
"""

import numpy as np
import pytest

from repro.batch import BatchSimulator
from repro.batch.prefix import PrefixStore
from repro.common.config import SimulationConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.registry import get_scenario
from repro.experiments.scenarios import normal_scenario
from repro.obs.trace import Tracer, get_tracer, set_tracer
from repro.process.safety import SafetyLimit
from repro.te.batch import BatchTEPlant

#: 6 h at 20 samples/h, 4 steps per sample; the onset at 2.5 h falls on
#: sample 50 of 120.
CONFIG = SimulationConfig(duration_hours=6.0, samples_per_hour=20, seed=0)
ONSET, ONSET_SAMPLE = 2.5, 50


def spec(name: str, seed: int) -> RunSpec:
    scenario = normal_scenario() if name == "normal" else get_scenario(name)
    return RunSpec(scenario=scenario, simulation=CONFIG.with_seed(seed), anomaly_start_hour=ONSET)


#: Two runs that step from t = 0 and leave checkpoints, then three that
#: resume from them.
PRODUCERS = [spec("normal", seed) for seed in (11, 12)]
CONSUMERS = [spec("idv6", 11), spec("idv6", 12), spec("dos_xmv3", 11)]


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    previous = get_tracer()
    yield
    set_tracer(previous)


@pytest.fixture
def steps(monkeypatch):
    """Counts ``BatchTEPlant.step_batch`` calls."""
    count = {"calls": 0}
    original = BatchTEPlant.step_batch

    def step_batch(self, *args, **kwargs):
        count["calls"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BatchTEPlant, "step_batch", step_batch)
    return count


def run_campaign(producers=PRODUCERS, consumers=CONSUMERS):
    store = PrefixStore()
    store.expect(consumers)
    simulator = BatchSimulator(batch_size=4)
    results = simulator.run_specs(producers, prefixes=store)
    results += simulator.run_specs(consumers, prefixes=store)
    return results, store


def lockstep_spans(tracer):
    return [record for record in tracer.records() if record["name"] == "batch.lockstep"]


def test_one_span_per_batch_counting_every_step(steps):
    tracer = set_tracer(Tracer(enabled=True))
    _, store = run_campaign()
    spans = lockstep_spans(tracer)
    assert store.n_resumed == len(CONSUMERS)
    assert len(spans) == 2
    assert sum(record["attributes"]["steps"] for record in spans) == steps["calls"]
    fresh, resumed = (record["attributes"] for record in spans)
    steps_per_sample = CONFIG.integration_steps_per_sample
    assert fresh == {
        "rows": len(PRODUCERS),
        "start_sample": 0,
        "resumed": False,
        "steps": CONFIG.total_samples * steps_per_sample,
        "tripped": 0,
        "stopped": 0,
    }
    assert resumed["rows"] == len(CONSUMERS)
    assert resumed["start_sample"] == ONSET_SAMPLE and resumed["resumed"] is True
    assert resumed["steps"] == (CONFIG.total_samples - ONSET_SAMPLE) * steps_per_sample


def test_a_batch_that_trips_mid_sample_counts_the_steps_it_took(steps, monkeypatch):
    # Every row trips after 1 h, on a step inside a sample.
    limits = (SafetyLimit("reactor_pressure", low=1e6, grace_hours=1.0),)
    monkeypatch.setattr("repro.batch.simulator.DEFAULT_SAFETY_LIMITS", limits)
    tracer = set_tracer(Tracer(enabled=True))
    results = BatchSimulator(batch_size=4).run_specs(PRODUCERS)
    (record,) = lockstep_spans(tracer)
    assert all(result.shutdown_time_hours is not None for result in results)
    assert record["attributes"]["tripped"] == len(PRODUCERS)
    assert record["attributes"]["steps"] == steps["calls"]


def test_tracing_changes_no_result():
    set_tracer(Tracer(enabled=False))
    quiet, _ = run_campaign()
    set_tracer(Tracer(enabled=True))
    traced, _ = run_campaign()
    for expected, actual in zip(quiet, traced):
        for view in ("controller_data", "process_data"):
            assert np.array_equal(getattr(expected, view).values, getattr(actual, view).values)
            assert np.array_equal(
                getattr(expected, view).timestamps, getattr(actual, view).timestamps
            )
        assert expected.metadata == actual.metadata
        assert expected.shutdown_time_hours == actual.shutdown_time_hours
