"""Persistence for :class:`~repro.datasets.dataset.ProcessDataset`.

Two formats are supported:

* NPZ (binary, lossless) — preferred for experiment campaigns.
* CSV (text) — convenient for inspection and for exporting figure data.

Whole :class:`~repro.process.simulator.SimulationResult` objects (both data
views plus config, shutdown state and metadata) can also be round-tripped
through a single NPZ file; the campaign result cache in
:mod:`repro.experiments.parallel` is built on this.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.common.exceptions import DataShapeError
from repro.datasets.dataset import ProcessDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.process.simulator import SimulationResult

__all__ = [
    "save_npz",
    "load_npz",
    "save_csv",
    "load_csv",
    "save_result_npz",
    "load_result_npz",
    "peek_result_npz",
]

_PathLike = Union[str, Path]


def save_npz(dataset: ProcessDataset, path: _PathLike) -> Path:
    """Save a dataset to a compressed ``.npz`` file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        values=dataset.values,
        variable_names=np.array(dataset.variable_names, dtype=object),
        timestamps=dataset.timestamps,
        metadata=np.array(json.dumps(dataset.metadata, default=str)),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_npz(path: _PathLike) -> ProcessDataset:
    """Load a dataset previously written by :func:`save_npz`."""
    with np.load(Path(path), allow_pickle=True) as payload:
        values = payload["values"]
        names = [str(name) for name in payload["variable_names"]]
        timestamps = payload["timestamps"]
        metadata = json.loads(str(payload["metadata"]))
    return ProcessDataset(values, names, timestamps, metadata)


def save_result_npz(result: "SimulationResult", path: _PathLike) -> Path:
    """Save a complete simulation result to one ``.npz`` file.

    The file holds both data views, the simulation configuration, the
    shutdown state and the run metadata, so :func:`load_result_npz` can
    reconstruct a result indistinguishable from the freshly simulated one.
    Members are stored, not deflated: noisy trajectories shrink by about a
    tenth under zlib, which costs more to write and read than the bytes it
    saves.  :func:`load_result_npz` reads either layout.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {}
    for view, dataset in (
        ("controller", result.controller_data),
        ("process", result.process_data),
    ):
        payload[f"{view}_values"] = dataset.values
        payload[f"{view}_names"] = np.array(dataset.variable_names, dtype=object)
        payload[f"{view}_timestamps"] = dataset.timestamps
        payload[f"{view}_metadata"] = np.array(
            json.dumps(dataset.metadata, default=str)
        )
    payload["config"] = np.array(json.dumps(asdict(result.config)))
    payload["shutdown"] = np.array(
        json.dumps(
            {
                "time_hours": result.shutdown_time_hours,
                "reason": result.shutdown_reason,
            }
        )
    )
    payload["metadata"] = np.array(json.dumps(result.metadata, default=str))
    np.savez(path, **payload)
    return path


def load_result_npz(path: _PathLike) -> "SimulationResult":
    """Load a simulation result previously written by :func:`save_result_npz`."""
    from repro.common.config import SimulationConfig
    from repro.process.simulator import SimulationResult

    with np.load(Path(path), allow_pickle=True) as payload:
        datasets = {}
        for view in ("controller", "process"):
            datasets[view] = ProcessDataset(
                payload[f"{view}_values"],
                [str(name) for name in payload[f"{view}_names"]],
                payload[f"{view}_timestamps"],
                json.loads(str(payload[f"{view}_metadata"])),
            )
        config = SimulationConfig(**json.loads(str(payload["config"])))
        shutdown = json.loads(str(payload["shutdown"]))
        metadata = json.loads(str(payload["metadata"]))
    return SimulationResult(
        controller_data=datasets["controller"],
        process_data=datasets["process"],
        shutdown_time_hours=shutdown["time_hours"],
        shutdown_reason=shutdown["reason"],
        config=config,
        metadata=metadata,
    )


def peek_result_npz(path: _PathLike) -> dict:
    """Read a result file's config, shutdown state and metadata — cheaply.

    ``np.load`` on an NPZ is lazy: member arrays are read (and, in a
    compressed file, inflated) only on access, so reading just the JSON
    members costs a few kilobytes however large the data views are.  The
    streaming analysis tooling uses this to inspect and prune
    :class:`~repro.experiments.parallel.ResultCache` entries without
    pulling whole campaigns into memory.
    """
    with np.load(Path(path), allow_pickle=True) as payload:
        return {
            "config": json.loads(str(payload["config"])),
            "shutdown": json.loads(str(payload["shutdown"])),
            "metadata": json.loads(str(payload["metadata"])),
        }


def save_csv(dataset: ProcessDataset, path: _PathLike) -> Path:
    """Save a dataset to CSV with a ``time`` column followed by variables."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time"] + list(dataset.variable_names))
        for time, row in zip(dataset.timestamps, dataset.values):
            writer.writerow([repr(float(time))] + [repr(float(v)) for v in row])
    return path


def load_csv(path: _PathLike) -> ProcessDataset:
    """Load a dataset previously written by :func:`save_csv`."""
    path = Path(path)
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "time" or len(header) < 2:
            raise DataShapeError(f"{path} is not a ProcessDataset CSV file")
        names = header[1:]
        timestamps = []
        rows = []
        for record in reader:
            if not record:
                continue
            timestamps.append(float(record[0]))
            rows.append([float(value) for value in record[1:]])
    if not rows:
        raise DataShapeError(f"{path} contains no observations")
    return ProcessDataset(np.array(rows), names, np.array(timestamps))
