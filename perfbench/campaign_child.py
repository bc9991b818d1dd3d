"""The process under test for the campaign workloads.

Started fresh for every campaign call, so set-up (interpreter start,
imports, spec load, ``Session`` construction) is paid and measured each
time, exactly as a ``run_campaign.py --spec`` user pays it.  Prints one JSON
line: timings, peak RSS, the sha256 of the returned tables and, when traced,
the per-layer totals.

Set-up and the call each run under a :class:`speed.SpeedProbe`:
``setup_s``, ``wall_s`` and ``cpu_s`` are in reference seconds,
``raw_wall_s`` as measured less the probes' own time, ``slowdown`` the
box's speed factor during the call.  In a traced call the probes fall
inside whichever layer is open, adding their ~1.5% to its busy time.

    python3 perfbench/campaign_child.py --workload campaign_cold --seed 3 \
        --cache-dir DIR --spawned <time.monotonic() at spawn> [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.CAMPAIGN_SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    arguments = parser.parse_args()

    setup_probe = speed.SpeedProbe()
    setup_probe.start()
    try:
        api = workloads.import_repro()
        spec = workloads.campaign_spec(
            arguments.workload, arguments.seed, arguments.cache_dir
        )
        session = api.Session(spec)
        setup_s = time.monotonic() - arguments.spawned
    finally:
        setup_probe.stop()

    tracer = None
    if arguments.trace:
        import layers

        tracer = layers.LayerTracer()
        layers.install_campaign(tracer)

    probe = speed.SpeedProbe()
    probe.start()
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        if arguments.workload == "campaign_response":
            result = session.run_response()
        else:
            result = session.run()
        tables = result.tables()
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu_started
    finally:
        probe.stop()

    record = {
        "setup_s": setup_probe.reference_seconds(setup_s, setup_probe.probe_s),
        "wall_s": probe.reference_seconds(wall_s, probe.probe_s),
        "cpu_s": probe.reference_seconds(cpu_s, probe.probe_cpu_s),
        "raw_wall_s": wall_s - probe.probe_s,
        "slowdown": probe.slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": workloads.simulated_samples(session, result),
        "root_seed": spec.experiment.seed,
        "digest": workloads.digest(tables),
    }
    if tracer is not None:
        tracer.unwrap()
        record["layers"] = tracer.snapshot()
        record["missing"] = tracer.missing
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
