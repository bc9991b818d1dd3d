"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each drives the program from outside, through the entry points
its users call):

``campaign_cold``
    The five scenarios of ``examples/specs/batch_paper.toml`` through
    ``api.load_spec`` -> ``Session.run`` (what ``run_campaign.py --spec``
    does), smoke-shaped, one worker, a fresh empty result cache per call.
    Simulation dominates, on the batch kernel, 2-3 rows per batch.
``campaign_response``
    The same five scenarios from ``response_paper.toml`` through
    ``Session.run_response``: the serial kernel, one row at a time, with
    live scoring and response actions inline on every sample; no cache.
``gateway_tcp``
    ``run_gateway.py --serve --journal`` (as ``gateway_server.py``) fed by
    this process over 2 TCP connections in a closed loop.  Each connection
    replays a seeded order of runs recorded (untimed) from the five
    registered scenarios -- long ``normal`` runs plus anomalous runs that
    alarm and trip.  One run is one stream: open, windows of 32 samples
    each followed by ``sync``, close.  No simulation in the timed part.

Each campaign call is a fresh child process and each gateway round a fresh
server, so set-up is measured on every call.  Calls repeat while another
one is expected to end within ``--seconds`` (at least three); the
end-to-end metrics are medians over calls.  ``sync_p50_ms``/``sync_p90_ms``
are result latencies: over every 32-sample window of the run for the
gateway (last sample sent -> ``sync`` acknowledged), over the calls of the
run for a campaign (call -> tables; so a campaign's ``sync_p50_ms`` is its
``wall_s`` in ms).  ``samples_per_s`` is plant samples per second of
``wall_s``: scored by the gateway; simulated by the campaign, each run
counted up to its safety trip.  Failures are the ``failed`` field
(``error_rate`` = failed / attempted is printed with the context).

Every output is checked against a frozen reference in ``golden.json``:
campaign tables by their sha256; for the gateway, the expected close
reports (from an in-process ``LiveMonitor`` fed the same samples) by their
sha256, then every close report the server returns against its expected
one.  A failing check is named on stderr.

A campaign call is CPU-bound end to end and the host's shared cores drift
in speed by 20% and more within minutes, so a campaign's times are in
reference seconds: measured by ``speed.SpeedProbe`` inside the call and
divided by the box's slowdown during it (``speed.py``).  So are every
workload's ``setup_s`` (the process under test probes its own set-up) and
the gateway server's ``cpu_s``.  The gateway's other times are as
measured: the gateway is wire-bound, its server busy for a fifth of the
feed phase.

``--trace 1`` alternates traced and untraced calls.  Traced calls wrap the
layers' public functions (``layers.py``) and report per-layer busy times
and counts; the input-determined counts must repeat exactly between the
two traced calls, and ``trace.overhead_s`` is traced minus untraced
``wall_s``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("campaign_cold", "campaign_response", "gateway_tcp")
WORK = workloads.ROOT / ".perfbench-work"
MIN_CALLS = 3
WINDOW = 32
CONNECTIONS = 2
#: Each connection replays every entry once per round, in a seeded order.
STREAM_PLAN = ("normal", "normal", "idv6", "attack_xmv3", "attack_xmeas1", "dos_xmv3")
NORMAL_HOURS = 40.0
SAMPLES_PER_CONNECTION = 2800
CHILD_TIMEOUT = 120.0


class Failures:
    """Attempted/failed operations, with the reason of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.failed += 1
        print(f"check failed: {reason}", file=sys.stderr, flush=True)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def repeat(call, trace: bool, seconds: float):
    """Run ``call(index, traced)`` while another call is expected to end
    within ``seconds`` (at least :data:`MIN_CALLS` times).  A traced run
    alternates traced and untraced calls, starting traced.  Returns the
    records of the calls that completed, each marked ``traced``."""
    deadline = time.monotonic() + seconds
    records, durations = [], []
    while len(durations) < MIN_CALLS or (
        time.monotonic() + statistics.median(durations) <= deadline
    ):
        index = len(durations)
        traced = trace and index % 2 == 0
        started = time.monotonic()
        record = call(index, traced)
        durations.append(time.monotonic() - started)
        if record is not None:
            record["traced"] = traced
            records.append(record)
    return records


def end_to_end(plain, latencies):
    """The end-to-end metrics of a run's untraced calls."""
    return {
        "setup_s": statistics.median(call["setup_s"] for call in plain),
        "wall_s": statistics.median(call["wall_s"] for call in plain),
        "cpu_s": statistics.median(call["cpu_s"] for call in plain),
        "peak_rss_mb": statistics.median(call["peak_rss_mb"] for call in plain),
        "samples_per_s": statistics.median(
            call["samples"] / call["wall_s"] for call in plain
        ),
        "sync_p50_ms": 1000.0 * statistics.median(latencies),
        "sync_p90_ms": 1000.0 * percentile(latencies, 0.9),
    }


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
def campaign_call(workload, seed, traced, index, failures, golden):
    cache = fresh(WORK / f"cache-{index}")
    command = [
        sys.executable, str(HERE / "campaign_child.py"),
        "--workload", workload, "--seed", str(seed), "--cache-dir", str(cache),
    ]
    if traced:
        command.append("--trace")
    failures.attempt()
    spawned = time.monotonic()
    try:
        completed = subprocess.run(
            command + ["--spawned", repr(spawned)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        failures.fail(f"{workload} call {index} ran past {CHILD_TIMEOUT:g} s")
        return None
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if completed.returncode != 0:
        failures.fail(
            f"{workload} call {index} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-400:]}"
        )
        return None
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    expected = golden[workload].get(str(record["root_seed"]))
    if record["digest"] != expected:
        failures.fail(
            f"{workload} call {index}: tables digest {record['digest']} "
            f"!= golden {expected} (root seed {record['root_seed']})"
        )
    return record


def run_campaign(workload: str, seed: int, seconds: float, trace: bool, golden):
    failures = Failures()
    calls = repeat(
        lambda index, traced: campaign_call(
            workload, seed, traced, index, failures, golden
        ),
        trace, seconds,
    )
    plain = [call for call in calls if not call["traced"]]
    walls = [call["wall_s"] for call in plain]
    info = {
        "calls": len(calls),
        "walls": walls,
        "raw_walls": [call["raw_wall_s"] for call in plain],
        "slowdowns": [call["slowdown"] for call in plain],
    }
    if not trace:
        return end_to_end(plain, walls), failures, info
    traced_calls = [call for call in calls if call["traced"]]
    per_call = [layers.layer_metrics(call["layers"]) for call in traced_calls]
    return traced_metrics(per_call, traced_calls, plain, failures), failures, info


def traced_metrics(per_call, traced_calls, plain, failures):
    """Median per-layer metrics, the determinism check and the overhead."""
    missing = sorted({name for call in traced_calls for name in call["missing"]})
    if missing:
        print(f"note: not in the program, not traced: {missing}", file=sys.stderr)
    if len(per_call) < 2:
        failures.fail("fewer than two traced calls completed")
        return {}
    first, second = per_call[0], per_call[1]
    for name in layers.DETERMINISTIC_COUNTS:
        if first[name] != second[name]:
            failures.fail(
                f"count {name} differs between traced calls: "
                f"{first[name]} != {second[name]}"
            )
    metrics = {
        name: statistics.median(call[name] for call in per_call)
        for name in per_call[0]
    }
    metrics["trace.overhead_s"] = statistics.median(
        call["wall_s"] for call in traced_calls
    ) - statistics.median(call["wall_s"] for call in plain)
    return metrics


# ----------------------------------------------------------------------
# Gateway workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Recorded:
    """One recorded run, ready to replay, with its expected close report."""

    name: str
    onset: Optional[float]
    controller: List[List[float]]
    process: List[List[float]]
    times: List[float]
    expected: str

    @property
    def n_samples(self) -> int:
        return len(self.times)


def canonical(mapping) -> str:
    return json.dumps(mapping, sort_keys=True)


def record_streams(seed: int):
    """Calibrate in-process, record one run per plan entry and compute each
    run's in-process ``LiveMonitor`` report (set-up, not timed).

    Anomalous runs keep their natural length (they trip); the ``normal``
    runs are cut so that every connection feeds exactly
    :data:`SAMPLES_PER_CONNECTION` samples per round, whatever the trip
    times of the seed.
    """
    import random

    api = workloads.import_repro()
    from repro.experiments.parallel import scenario_run_seed
    from repro.experiments.runner import run_scenario
    from repro.live.monitor import LiveMonitor

    spec = workloads.gateway_spec(seed)
    experiment = spec.experiment
    evaluation = api.Session(spec).evaluation()
    evaluation.calibrate(keep_results=False)
    scenarios = {scenario.name: scenario for scenario in spec.expanded_scenarios()}
    runs = []
    for position, name in enumerate(STREAM_PLAN):
        scenario = scenarios[name]
        onset = experiment.anomaly_start_hour if scenario.is_anomalous else None
        # A long normal run occasionally trips too; take the next run seed
        # until one covers the whole horizon.
        for attempt in range(10):
            simulation = experiment.simulation.with_seed(
                scenario_run_seed(experiment.seed, position + 100 * attempt)
            )
            if onset is None:
                simulation = simulation.with_duration(NORMAL_HOURS)
            result = run_scenario(
                scenario, simulation, anomaly_start_hour=experiment.anomaly_start_hour
            )
            if onset is not None or result.shutdown_reason is None:
                break
        else:
            raise RuntimeError("no normal run of the seed covers its horizon")
        runs.append((name, onset, result))

    normals = [index for index, (_, onset, _) in enumerate(runs) if onset is None]
    anomalous = sum(
        result.controller_data.n_observations
        for _, onset, result in runs
        if onset is not None
    )
    budget = SAMPLES_PER_CONNECTION - anomalous
    lengths = {
        index: budget // len(normals) + (1 if rank < budget % len(normals) else 0)
        for rank, index in enumerate(normals)
    }
    recorded = []
    for index, (name, onset, result) in enumerate(runs):
        controller = result.controller_data
        process = result.process_data
        n = lengths.get(index, controller.n_observations)
        reference = LiveMonitor(evaluation.analyzer, anomaly_start_hour=onset)
        for i in range(n):
            reference.observe(
                controller.values[i], process.values[i],
                float(controller.timestamps[i]),
            )
        recorded.append(
            Recorded(
                name, onset,
                controller.values[:n].tolist(), process.values[:n].tolist(),
                [float(t) for t in controller.timestamps[:n]],
                canonical(reference.report().to_mapping()),
            )
        )
    rng = random.Random(seed)
    orders = []
    for _ in range(CONNECTIONS):
        order = list(range(len(recorded)))
        rng.shuffle(order)
        orders.append(order)
    return recorded, orders


def replay(url, recorded, order, tag, traced, out, failures):
    """Feed one connection's streams; append latencies and wire times."""
    from repro.api import StreamClient

    clock = time.perf_counter
    for position, index in enumerate(order):
        run = recorded[index]
        stream_id = f"{tag}-{position}"
        failures.attempt()
        client = StreamClient(url)
        try:
            client.open_stream(stream_id, anomaly_start_hour=run.onset)
            for start in range(0, run.n_samples, WINDOW):
                stop = min(start + WINDOW, run.n_samples)
                sent = clock()
                for i in range(start, stop - 1):
                    client.feed(stream_id, run.controller[i], run.process[i], run.times[i])
                last = clock()
                client.feed(
                    stream_id, run.controller[stop - 1], run.process[stop - 1],
                    run.times[stop - 1],
                )
                waiting = clock()
                client.sync(stream_id)
                acked = clock()
                out["sync"].append(acked - last)
                if traced:
                    out["send_s"] += waiting - sent
                    out["sync_wait_s"] += acked - waiting
            report = client.close_stream(stream_id)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            failures.fail(f"stream {stream_id} ({run.name}): {type(error).__name__}: {error}")
            continue
        finally:
            client.close()
        out["samples"] += run.n_samples
        if canonical(report) != run.expected:
            failures.fail(
                f"stream {stream_id} ({run.name}): close report differs from "
                "the in-process LiveMonitor"
            )


def read_line(process, timeout: float) -> str:
    """One stdout line of a child, or an error after ``timeout`` seconds."""
    lines: "queue.Queue[str]" = queue.Queue()
    reader = threading.Thread(
        target=lambda: lines.put(process.stdout.readline()), daemon=True
    )
    reader.start()
    try:
        line = lines.get(timeout=timeout)
    except queue.Empty:
        raise RuntimeError("gateway launcher did not answer in time") from None
    if not line:
        raise RuntimeError(f"gateway launcher exited: {process.stderr.read()[-400:]}")
    return line


def gateway_round(seed, recorded, orders, traced, index, failures):
    from repro.api import StreamClient

    journal = fresh(WORK / f"journal-{index}") / "alarms.journal"
    command = [
        sys.executable, str(HERE / "gateway_server.py"),
        "--seed", str(seed), "--journal", str(journal),
    ]
    if traced:
        command.append("--trace")
    spawned = time.monotonic()
    server = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        url = json.loads(read_line(server, CHILD_TIMEOUT))["url"]
        probe = StreamClient(url)
        while not probe.ready():
            time.sleep(0.01)
        measured_setup_s = time.monotonic() - spawned
        server.stdin.write("begin\n")
        server.stdin.flush()
        outs = [
            {"sync": [], "samples": 0, "send_s": 0.0, "sync_wait_s": 0.0}
            for _ in orders
        ]
        threads = [
            threading.Thread(
                target=replay,
                args=(url, recorded, order, f"r{index}c{number}",
                      traced, outs[number], failures),
            )
            for number, order in enumerate(orders)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
        server.stdin.write("end\n")
        server.stdin.flush()
        record = json.loads(read_line(server, CHILD_TIMEOUT))
        server.stdin.write("quit\n")
        server.stdin.flush()
        server.wait(timeout=CHILD_TIMEOUT)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        for stream in (server.stdin, server.stdout, server.stderr):
            stream.close()
        shutil.rmtree(journal.parent, ignore_errors=True)
    samples = sum(out["samples"] for out in outs)
    record.update(
        setup_s=(
            (measured_setup_s - record["setup_probe_s"]) / record["setup_slowdown"]
        ),
        wall_s=wall_s,
        samples=samples,
        sync=[latency for out in outs for latency in out["sync"]],
        send_s=sum(out["send_s"] for out in outs),
        sync_wait_s=sum(out["sync_wait_s"] for out in outs),
        traced=traced,
    )
    return record


def gateway_layer_metrics(record):
    metrics = layers.layer_metrics(record["layers"])
    metrics["mspc.fit_s"] = layers.layer_metrics(record["setup_layers"])["mspc.fit_s"]
    # Server CPU outside the wrapped calls: wire decode and thread handoff.
    metrics["gateway.server_self_s"] = (
        record["raw_cpu_s"] - record["layers"][""]["top_cpu_s"]
    )
    metrics["wire.send_s"] = record["send_s"]
    metrics["wire.sync_wait_s"] = record["sync_wait_s"]
    return metrics


def reports_digest(recorded) -> str:
    """sha256 of the expected close reports of a seed's recorded runs."""
    return workloads.digest([run.expected for run in recorded])


def run_gateway(seed: int, seconds: float, trace: bool, golden):
    failures = Failures()
    recorded, orders = record_streams(seed)
    # The in-process reports share scoring code with the server, so they are
    # themselves checked against the frozen digests first.
    failures.attempt()
    root_seed = str(workloads.root_seed(seed))
    digest, expected = reports_digest(recorded), golden["gateway_tcp"].get(root_seed)
    if digest != expected:
        failures.fail(
            f"gateway_tcp: expected close reports digest {digest} != golden "
            f"{expected} (root seed {root_seed})"
        )

    def call(index, traced):
        try:
            return gateway_round(seed, recorded, orders, traced, index, failures)
        except Exception as error:  # noqa: BLE001 - a lost round is a failure
            failures.attempt()
            failures.fail(f"gateway round {index}: {type(error).__name__}: {error}")
            return None

    rounds = repeat(call, trace, seconds)
    plain = [entry for entry in rounds if not entry["traced"]]
    walls = [entry["wall_s"] for entry in plain]
    info = {
        "rounds": len(rounds),
        "walls": walls,
        "slowdowns": [entry["slowdown"] for entry in plain],
    }
    if not trace:
        latencies = [latency for entry in plain for latency in entry["sync"]]
        info["windows"] = len(latencies)
        return end_to_end(plain, latencies), failures, info
    traced_rounds = [entry for entry in rounds if entry["traced"]]
    per_call = [gateway_layer_metrics(entry) for entry in traced_rounds]
    return traced_metrics(per_call, traced_rounds, plain, failures), failures, info


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    for needed in (workloads.ROOT / "src" / "repro", workloads.SPECS):
        if not needed.is_dir():
            print(f"error: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    import numpy

    with open(HERE / "golden.json", encoding="utf-8") as handle:
        golden = json.load(handle)
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    trace = bool(arguments.trace)
    fresh(WORK)
    try:
        if arguments.workload == "gateway_tcp":
            metrics, failures, info = run_gateway(
                arguments.seed, arguments.seconds, trace, golden
            )
        else:
            metrics, failures, info = run_campaign(
                arguments.workload, arguments.seed, arguments.seconds, trace, golden
            )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    context = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "root_seed": workloads.root_seed(arguments.seed),
        "trace": arguments.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "golden_numpy": golden.get("numpy"),
        "error_rate": failures.failed / max(1, failures.attempted),
        **info,
    }
    print(json.dumps({"context": context}))
    for name in units:
        if name in metrics:
            print(f"  {name:<26} {metrics[name]:>14.6g} {units[name]}")
    result = {
        "correct": failures.failed == 0 and set(units) <= set(metrics),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
