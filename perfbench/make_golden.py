"""Regenerate ``golden.json``: the frozen digests every workload's outputs
are checked against.

For every root seed in :data:`workloads.ROOT_SEEDS`, runs each campaign
workload once through the same child process the benchmark times and
records the sha256 of its tables, and records the gateway streams of that
seed and the sha256 of their expected close reports.
Only regenerate when a change is *meant* to alter these outputs; the numpy
and Python versions the digests were made with are stored next to them.

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

WORK = workloads.ROOT / ".perfbench-work" / "golden"
DIGESTED = (*workloads.CAMPAIGN_SPECS, "gateway_tcp")


def campaign_digest(workload: str, seed: int) -> str:
    cache = WORK / f"{workload}-{seed}"
    shutil.rmtree(cache, ignore_errors=True)
    try:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "campaign_child.py"),
                "--workload", workload, "--seed", str(seed),
                "--cache-dir", str(cache), "--spawned", repr(time.monotonic()),
            ],
            capture_output=True, text=True, check=True,
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])["digest"]


def main() -> int:
    import numpy

    golden = {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        **{workload: {} for workload in DIGESTED},
    }
    try:
        for seed in range(len(workloads.ROOT_SEEDS)):
            root_seed = str(workloads.root_seed(seed))
            for workload in workloads.CAMPAIGN_SPECS:
                golden[workload][root_seed] = campaign_digest(workload, seed)
            recorded, _ = run.record_streams(seed)
            golden["gateway_tcp"][root_seed] = run.reports_digest(recorded)
            print(root_seed, *(golden[name][root_seed] for name in DIGESTED), flush=True)
    finally:
        shutil.rmtree(WORK.parent, ignore_errors=True)
    with open(HERE / "golden.json", "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
