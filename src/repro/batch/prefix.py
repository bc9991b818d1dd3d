"""Checkpoints at the anomaly onset, shared by the runs of one seed.

A campaign gives run ``i`` of every scenario the same seed, and its
scenarios' injections start at the campaign's ``anomaly_start_hour``, so a
seed's runs are one run until the first sample whose steps reach that
hour: the *onset sample*.  A lockstep batch that steps one of them from
t = 0 leaves a :class:`PrefixCheckpoint` there; a later batch of the others
starts from it instead of stepping the prefix again, bit for bit the run
:func:`~repro.experiments.runner.run_scenario` produces.

A run takes part when nothing acts on it before its onset: no early-stop
policy or other observer (they watch every sample), and a scenario idle
before the onset (:meth:`~repro.experiments.scenarios.Scenario.idle_before`).
A :class:`PrefixStore` holds the checkpoints of one campaign, each only while
a run announced to it that has not started yet can resume from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.common.config import SimulationConfig
from repro.te.batch import PlantRow
from repro.te.constants import N_XMEAS

__all__ = ["PrefixCheckpoint", "PrefixStore", "onset_sample", "prefix_key"]

#: What a shared prefix depends on: the run's simulation settings (its seed
#: included) and its onset sample.
PrefixKey = Tuple[SimulationConfig, int]


@lru_cache(maxsize=64)
def _onset_step(dt: float, start_hour: float, n_steps: int) -> int:
    clock, step = 0.0, 0
    while clock < start_hour and step < n_steps:
        clock += dt  # the plant clock's own sum
        step += 1
    return step


def onset_sample(simulation: SimulationConfig, start_hour: float) -> int:
    """The first sample one of whose steps runs at a clock >= ``start_hour``.

    Steps run at the plant clock, ``dt`` added once per step from 0; every
    step of an earlier sample runs before ``start_hour``.  Returns
    ``total_samples`` when no step reaches it.
    """
    steps = simulation.integration_steps_per_sample
    n_steps = simulation.total_samples * steps
    return _onset_step(simulation.integration_step_hours, start_hour, n_steps) // steps


def prefix_key(spec) -> Optional[PrefixKey]:
    """The key of the prefix a run shares with the other runs of its seed,
    or ``None`` when it shares none.

    ``None`` for a run with an early-stop policy, a scenario that acts
    before ``anomaly_start_hour``, or an onset sample that leaves nothing
    to share (the first sample) or nothing to resume (past the horizon).
    """
    if spec.early_stop is not None or not spec.scenario.idle_before(
        spec.anomaly_start_hour
    ):
        return None
    sample = onset_sample(spec.simulation, spec.anomaly_start_hour)
    if not 0 < sample < spec.simulation.total_samples:
        return None
    return spec.simulation, sample


@dataclass
class PrefixCheckpoint:
    """One row of a lockstep batch at the start of its onset sample.

    ``sample`` is the onset sample: samples ``[0, sample)`` are recorded in
    ``controller_values``, ``process_values`` and ``times``.
    ``last_step_hours`` is the clock of the last step before it, when the
    channels last transmitted.  ``plant``, ``controller`` and ``safety`` are
    the row's state in each component (their ``snapshot_row``).
    """

    sample: int
    last_step_hours: float
    plant: PlantRow
    controller: Tuple[np.ndarray, np.ndarray, np.ndarray]
    safety: np.ndarray
    controller_values: np.ndarray
    process_values: np.ndarray
    times: np.ndarray

    @property
    def sensor_values(self) -> np.ndarray:
        """The last vector the sensor channel carried: the true readings
        the last prefix sample records in the process view."""
        return self.process_values[-1, :N_XMEAS]

    @property
    def actuator_values(self) -> np.ndarray:
        """The last vector the actuator channel carried: the commands the
        last prefix sample records in the controller view."""
        return self.controller_values[-1, N_XMEAS:]


class PrefixStore:
    """The onset checkpoints of one campaign.

    Runs are announced with :meth:`expect` and leave with :meth:`discard`
    when they start (or will not run after all).  A checkpoint is held only
    while an announced run that has not left can resume from it, and only
    while the prefix samples held stay within the budget :meth:`keep` is
    given.  A run announced twice counts once.
    """

    def __init__(self) -> None:
        self._pending: Dict[object, PrefixKey] = {}
        self._demand: Dict[PrefixKey, int] = {}
        self._held: Dict[PrefixKey, PrefixCheckpoint] = {}
        self._samples = 0
        #: Runs that started from a checkpoint of this store.
        self.n_resumed = 0

    def __len__(self) -> int:
        return len(self._held)

    @property
    def samples(self) -> int:
        """Prefix samples held, over every checkpoint."""
        return self._samples

    def expect(self, specs: Iterable) -> None:
        """Announce runs that start later."""
        for spec in specs:
            if spec in self._pending:
                continue
            key = prefix_key(spec)
            if key is not None:
                self._pending[spec] = key
                self._demand[key] = self._demand.get(key, 0) + 1

    def discard(self, specs: Iterable) -> None:
        """Runs that start now, or never will; a checkpoint no announced
        run can use any more is dropped."""
        for spec in specs:
            key = self._pending.pop(spec, None)
            if key is None:
                continue
            self._demand[key] -= 1
            if not self._demand[key]:
                del self._demand[key]
                checkpoint = self._held.pop(key, None)
                if checkpoint is not None:
                    self._samples -= checkpoint.sample

    def wants(self, key: PrefixKey) -> bool:
        """Whether an announced run needs the checkpoint ``key`` names and
        none is held."""
        return key in self._demand and key not in self._held

    def get(self, key: Optional[PrefixKey]) -> Optional[PrefixCheckpoint]:
        """The checkpoint held for ``key``, if any."""
        return self._held.get(key) if key is not None else None

    def keep(self, key: PrefixKey, checkpoint: PrefixCheckpoint, budget: int) -> None:
        """Hold ``checkpoint`` for ``key``, unless the prefix samples held
        would then pass ``budget``."""
        if self.wants(key) and self._samples + checkpoint.sample <= budget:
            self._held[key] = checkpoint
            self._samples += checkpoint.sample

    def clear(self) -> None:
        """Forget every announced run and drop every checkpoint."""
        self._pending.clear()
        self._demand.clear()
        self._held.clear()
        self._samples = 0
