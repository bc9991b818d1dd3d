"""Every record's mapping form against checked-in golden JSON.

``tests/golden/mappings.json`` holds the canonical mapping of a corpus
built by hand (regenerate with ``scripts/make_mapping_golden.py``, which
also defines the corpus): every example spec (mapping, TOML text and
fingerprint), the smoke campaigns' run cache keys and live context token,
the example fault plans, the default retry policy, and one instance of each
config section, injection primitive and result record.  Nothing is
simulated, so the module runs on every numpy/scipy build.  One test per
entry, so a mismatch names the entry; the assertion diff names the key.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SCRIPT = _ROOT / "scripts" / "make_mapping_golden.py"
_spec = importlib.util.spec_from_file_location("make_mapping_golden", _SCRIPT)
make_mapping_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_mapping_golden)

GOLDEN = json.loads(make_mapping_golden.GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def measured():
    return make_mapping_golden.corpus()


def test_corpus_names_match_golden(measured):
    assert sorted(measured) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_entry_matches_golden(measured, name):
    assert measured[name] == GOLDEN[name]
    canonical = make_mapping_golden.canonical
    assert canonical(measured[name]) == canonical(GOLDEN[name])
