"""The smoke campaign against checked-in golden digests.

Every other equivalence pin in this suite compares two code paths with each
other; these tests compare the campaign's outputs with values frozen in
``tests/golden/campaign_smoke.json`` (regenerate with
``scripts/make_test_golden.py``, which also defines the campaign).  Covered:

* the ARL and classification tables of the streaming, eager and live
  campaign paths;
* every retained run's trajectories and shutdown time, as one digest and
  as one digest per run keyed ``scenario/index``, so a mismatch names the
  run;
* the calibration matrices both models are fitted on;
* the number of lockstep batch steps the fresh-cache campaign takes, which
  depends only on how runs are packed into batches;
* the smoke response campaign's recovery table and every run's response
  report, one digest per run keyed ``scenario/index``.

Floating-point results may legitimately differ under other library builds,
so the module is skipped unless numpy, scipy and Python match the versions
the digests were made with.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "scripts" / "make_test_golden.py"
_spec = importlib.util.spec_from_file_location("make_test_golden", _SCRIPT)
make_test_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_test_golden)

GOLDEN = json.loads(make_test_golden.GOLDEN.read_text(encoding="utf-8"))

_installed = make_test_golden.versions()
pytestmark = pytest.mark.skipif(
    _installed != GOLDEN["versions"],
    reason=(
        f"golden digests were made with {GOLDEN['versions']}; "
        f"installed {_installed}"
    ),
)


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return make_test_golden.measure(tmp_path_factory.mktemp("golden") / "cache")


@pytest.mark.parametrize("path", ["streaming", "eager", "live"])
def test_tables_match_golden(measured, path):
    assert measured["tables"][path] == GOLDEN["tables"][path]


def test_trajectories_match_golden(measured):
    assert measured["trajectories"] == GOLDEN["trajectories"]


def test_retained_runs_match_golden_keys(measured):
    assert sorted(measured["runs"]) == sorted(GOLDEN["runs"])


@pytest.mark.parametrize("run", sorted(GOLDEN["runs"]))
def test_run_matches_golden(measured, run):
    assert measured["runs"].get(run) == GOLDEN["runs"][run]


def test_calibration_matches_golden(measured):
    assert measured["calibration"] == GOLDEN["calibration"]


def test_lockstep_step_count_matches_golden(measured):
    """A deterministic count of ``BatchTEPlant.step_batch`` calls: it moves
    only when batch packing changes, and then must be regenerated on
    purpose."""
    assert measured["step_batch_calls"] == GOLDEN["step_batch_calls"]


def test_response_table_matches_golden(measured):
    assert measured["response"]["tables"] == GOLDEN["response"]["tables"]


def test_response_reports_match_golden_keys(measured):
    assert sorted(measured["response"]["reports"]) == sorted(
        GOLDEN["response"]["reports"]
    )


@pytest.mark.parametrize("run", sorted(GOLDEN["response"]["reports"]))
def test_response_report_matches_golden(measured, run):
    assert (
        measured["response"]["reports"].get(run)
        == GOLDEN["response"]["reports"][run]
    )
