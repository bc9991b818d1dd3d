"""Distributed-campaign smoke test: coordinator + N worker processes.

The end-to-end acceptance check of :mod:`repro.service`, runnable locally
and in CI:

1. boots a :class:`~repro.service.rest.CoordinatorServer` on a loopback
   port with a fresh shared cache directory,
2. submits a campaign spec (``examples/specs/paper.toml`` by default,
   shrunk to test fidelity unless ``--scale paper``),
3. spawns ``--workers`` *separate worker processes* via
   ``scripts/run_campaign.py --worker URL``,
4. waits for the campaign to complete, fetches the reduced tables over
   HTTP, and
5. re-runs the identical spec single-host (``repro.api``) against a
   **separate** cache — so the distributed and local paths simulate
   independently — and asserts the tables are identical.

The coordinator's event log and progress snapshots are appended to
``--log`` (uploaded as a CI artifact), so a failing run leaves the full
scheduling history behind.  Exits non-zero on any mismatch, worker
failure, or timeout.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py --workers 2 \
        --log service-smoke-progress.log
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import api  # noqa: E402
from repro.common.config import (  # noqa: E402
    ExperimentConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.service import (  # noqa: E402
    CampaignCoordinator,
    CoordinatorClient,
    CoordinatorServer,
)

# Small but complete (mirrors the test suite's shrunk fidelity): every
# paper scenario runs and anomalies have room to be detected, yet the
# whole campaign is seconds of pure Python.
SMOKE_EXPERIMENT = ExperimentConfig(
    n_calibration_runs=2,
    n_runs_per_scenario=1,
    anomaly_start_hour=2.0,
    simulation=SimulationConfig(duration_hours=5.0, samples_per_hour=20, seed=13),
    parallel=ParallelConfig.serial(),
    seed=13,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--spec",
        type=Path,
        default=REPO_ROOT / "examples" / "specs" / "paper.toml",
        help="campaign spec to push through the service",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes to spawn"
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "paper"),
        default="smoke",
        help="'smoke' shrinks the spec to test fidelity (default); "
        "'paper' runs the spec as written",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds to wait for the distributed campaign",
    )
    parser.add_argument(
        "--log",
        type=Path,
        default=Path("service-smoke-progress.log"),
        help="coordinator progress log (CI artifact)",
    )
    arguments = parser.parse_args(argv)

    spec = api.load_spec(arguments.spec)
    if arguments.scale == "smoke":
        spec = spec.with_experiment(SMOKE_EXPERIMENT)

    log_lines = []

    def log(message: str) -> None:
        line = f"[{time.strftime('%H:%M:%S')}] {message}"
        print(line, flush=True)
        log_lines.append(line)

    workers = []
    exit_code = 1
    try:
        with tempfile.TemporaryDirectory(prefix="svc-smoke-") as shared:
            coordinator = CampaignCoordinator(Path(shared) / "distributed")
            with CoordinatorServer(coordinator, port=0) as server:
                campaign_id = coordinator.submit(spec)
                client = CoordinatorClient(server.url)
                progress = client.progress(campaign_id)
                log(
                    f"coordinator {server.url}: campaign {campaign_id} "
                    f"({progress['n_runs']} runs, {progress['n_chunks']} chunks)"
                )

                env = dict(os.environ)
                env["PYTHONPATH"] = str(REPO_ROOT / "src")
                for index in range(arguments.workers):
                    workers.append(
                        subprocess.Popen(
                            [
                                sys.executable,
                                str(REPO_ROOT / "scripts" / "run_campaign.py"),
                                "--worker",
                                server.url,
                                "--max-idle",
                                "2",
                            ],
                            env=env,
                        )
                    )
                log(f"spawned {len(workers)} worker processes")

                deadline = time.monotonic() + arguments.timeout
                while not progress["complete"]:
                    if time.monotonic() > deadline:
                        log(f"TIMEOUT after {arguments.timeout:g} s: {progress}")
                        return 1
                    time.sleep(1.0)
                    progress = client.progress(campaign_id)
                    log(
                        f"progress: {progress['n_done']}/{progress['n_chunks']} "
                        f"chunks ({progress['n_leased']} leased, "
                        f"{progress['n_pending']} pending)"
                    )
                distributed = client.tables(campaign_id)
                log(
                    f"distributed tables fetched "
                    f"({progress['n_simulated']} simulated, "
                    f"{progress['n_cache_hits']} cached)"
                )
                for event in coordinator.events(campaign_id):
                    log_lines.append(f"    {event}")

                for worker in workers:
                    if worker.wait(timeout=60) != 0:
                        log(f"worker pid {worker.pid} exited non-zero")
                        return 1
                log("all workers exited cleanly")

            # Independent single-host reference: separate cache, so every
            # run is actually re-simulated by the local path.
            local_parallel = ParallelConfig(
                n_workers=spec.experiment.parallel.n_workers,
                cache_dir=str(Path(shared) / "local"),
            )
            local_spec = spec.with_experiment(
                spec.experiment.with_parallel(local_parallel)
            )
            log("running single-host reference campaign...")
            local = api.run(local_spec).tables()

            if distributed != local:
                log("FAIL: distributed tables differ from single-host tables")
                return 1
            log(
                "OK: distributed tables are identical to the single-host run "
                f"({sum(len(rows) for rows in local.values())} table rows)"
            )
            exit_code = 0
            return 0
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()
        arguments.log.write_text("\n".join(log_lines) + "\n")
        print(f"progress log written to {arguments.log} (exit {exit_code})")


if __name__ == "__main__":
    sys.exit(main())
