"""Validate declarative campaign specs (CI gate).

For every ``.toml`` / ``.json`` spec under the given paths (default:
``examples/specs``) the script:

1. loads and schema-validates the file;
2. round-trips it through both TOML and JSON and checks the reparsed spec
   is equal to the original;
3. checks the round-tripped spec derives **identical campaign cache keys**
   (calibration and every expanded scenario run), i.e. serialization can
   never silently change what a campaign computes.

Run with::

    PYTHONPATH=src python scripts/validate_specs.py
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import api
from repro.experiments.parallel import calibration_specs, scenario_specs

DEFAULT_SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"


def campaign_cache_keys(spec: api.CampaignSpec) -> list:
    """Every run cache key the campaign would execute, in order."""
    keys = []
    for seed in spec.seeds():
        experiment = spec.experiment_for(seed)
        keys.extend(run.cache_key() for run in calibration_specs(experiment))
        for scenario in spec.expanded_scenarios():
            keys.extend(
                run.cache_key() for run in scenario_specs(experiment, scenario)
            )
    return keys


def validate_file(path: Path) -> list:
    """Validate one spec file; returns a list of problem strings."""
    problems = []
    try:
        spec = api.load_spec(path)
    except Exception as error:
        return [f"failed to load: {error}"]
    keys = campaign_cache_keys(spec)
    for format in ("toml", "json"):
        try:
            reparsed = api.loads_spec(api.dumps_spec(spec, format), format=format)
        except Exception as error:
            problems.append(f"{format} round-trip failed: {error}")
            continue
        if reparsed != spec:
            problems.append(f"{format} round-trip changed the spec")
        elif campaign_cache_keys(reparsed) != keys:
            problems.append(f"{format} round-trip changed campaign cache keys")
    return problems


def collect_spec_files(paths) -> list:
    files = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.glob("*.toml")))
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths",
        nargs="*",
        default=[DEFAULT_SPEC_DIR],
        help=f"spec files or directories (default: {DEFAULT_SPEC_DIR})",
    )
    arguments = parser.parse_args(argv)

    failures = 0
    files = collect_spec_files(arguments.paths)
    if not files:
        print("no spec files found", file=sys.stderr)
        return 1
    for path in files:
        problems = validate_file(path)
        status = "ok" if not problems else "FAIL"
        print(f"{status:>4}  {path}")
        for problem in problems:
            print(f"      - {problem}")
        failures += bool(problems)

    if failures:
        print(f"\n{failures} check(s) failed", file=sys.stderr)
        return 1
    print(f"\nvalidated {len(files)} spec file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
