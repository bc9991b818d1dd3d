"""Benchmark-owned gateway launcher: the process under test for ``gateway_tcp``.

Builds the server exactly as ``run_gateway.py --serve --journal PATH``
does — ``Session(spec).serve_gateway(journal=...)`` then ``start()`` — on
the smoke-shaped ``gateway_paper.toml`` with OS-assigned ports, and prints
one JSON line with its addresses once it is serving.  Set-up runs under a
:class:`speed.SpeedProbe` until the server is started.  The launcher then
takes commands on stdin, one per line:

``begin``  zero the per-layer totals, start the feed-phase CPU clock and a
           :class:`speed.SpeedProbe` (its ticks run in the main thread);
``end``    stop both and print one JSON line: the feed-phase process CPU in
           reference seconds (``cpu_s``) and as measured less the probes'
           (``raw_cpu_s``), the box's slowdown in the feed phase and in
           set-up with the set-up probes' seconds, peak RSS and (when traced)
           the per-layer totals of the feed phase and of set-up;
``quit``   shut the server down and exit.

    python3 perfbench/gateway_server.py --seed 3 --journal PATH [--trace]
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
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--trace", action="store_true")
    arguments = parser.parse_args()

    setup_probe = speed.SpeedProbe()
    setup_probe.start()
    try:
        api = workloads.import_repro()
        tracer = None
        if arguments.trace:
            import layers

            tracer = layers.LayerTracer()
            layers.install_gateway(tracer)

        spec = workloads.gateway_spec(arguments.seed)
        server = api.Session(spec).serve_gateway(journal=arguments.journal)
        server.start()
    finally:
        setup_probe.stop()
    setup_layers = tracer.snapshot() if tracer is not None else None
    host, port = server.address
    ingest_host, ingest_port = server.ingest_address
    print(
        json.dumps(
            {"url": f"http://{host}:{port}", "ingest": [ingest_host, ingest_port]}
        ),
        flush=True,
    )
    cpu_started = time.process_time()
    probe = speed.SpeedProbe()
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "begin":
                if tracer is not None:
                    tracer.reset()
                probe = speed.SpeedProbe()
                probe.start()
                cpu_started = time.process_time()
            elif command == "end":
                cpu_s = time.process_time() - cpu_started
                probe.stop()
                record = {
                    "cpu_s": probe.reference_seconds(cpu_s, probe.probe_cpu_s),
                    "raw_cpu_s": cpu_s - probe.probe_cpu_s,
                    "slowdown": probe.slowdown,
                    "setup_probe_s": setup_probe.probe_s,
                    "setup_slowdown": setup_probe.slowdown,
                    "peak_rss_mb": (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                    ),
                }
                if tracer is not None:
                    record["layers"] = tracer.snapshot()
                    record["setup_layers"] = setup_layers
                    record["missing"] = tracer.missing
                print(json.dumps(record), flush=True)
            elif command == "quit":
                break
    finally:
        probe.stop()
        server.shutdown()
        if server.pool.journal is not None:
            server.pool.journal.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
