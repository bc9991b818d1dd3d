"""The batched closed-loop simulation driver.

:class:`BatchSimulator` executes a sequence of campaign
:class:`~repro.experiments.parallel.RunSpec` runs by advancing many of them
simultaneously: plant state, controller state, channel traffic and safety
bookkeeping all become ``(B, ...)`` arrays stepped in lockstep
(:mod:`repro.te.batch`, :mod:`repro.control.batch`,
:class:`~repro.network.channel.BatchChannel`,
:class:`~repro.process.safety.BatchSafetyMonitor`).  Each row keeps its own
scenario windows, injection magnitudes, random streams and (optionally) live
early-stop observer, so the per-run :class:`SimulationResult` objects are
**bitwise-identical** to what :func:`repro.experiments.runner.run_scenario`
produces for the same spec — including safety-trip truncation, the
trip-before-first-sample fallback sample, and live early stopping.

Rows that finish early (safety trip or confirmed live detection) are
*compacted out* of the batch: every batched component drops the finished
rows' state, so the remaining rows keep stepping through dense arrays with
no masking overhead.

Observers that need the simulator itself — the closed-loop response runner
— come from per-spec observer factories, as with
:func:`~repro.experiments.runner.run_scenario`; each factory receives a
:class:`BatchRow`, which offers the serial simulator's mutation seams for
that one row.  At every sample, the live monitors of all remaining rows
that share one analyzer are scored with one
:meth:`~repro.mspc.model.MSPCMonitor.statistics` call per view and fed
through :meth:`~repro.live.observer.LiveRunObserver.on_scored_sample`,
bit for bit what each monitor would have computed alone.  A caller that
only needs its observers (``trajectories=False``) gets no trajectory slabs
and no :class:`SimulationResult`.

Runs of one seed are one run until the anomaly onset, whatever their
scenario.  A batch stepping one of them from t = 0 leaves a checkpoint at the
onset sample for those still to start, and a later batch of such runs starts
there instead (:mod:`repro.batch.prefix`): each row gets its own channels and
schedule and the dynamic state of its checkpoint, and goes on bit for bit as
:func:`~repro.experiments.runner.run_scenario` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.prefix import PrefixCheckpoint, PrefixKey, PrefixStore, prefix_key
from repro.common.config import ParallelConfig, SimulationConfig
from repro.common.exceptions import ConfigurationError
from repro.control.batch import BatchDecentralizedController
from repro.control.te_controller import TEDecentralizedController
from repro.datasets.dataset import ProcessDataset
from repro.network.channel import BatchChannel, Channel
from repro.obs.trace import span as obs_span
from repro.process.disturbances import BatchDisturbanceView
from repro.process.interfaces import StepObserver, StepSample
from repro.process.safety import BatchSafetyMonitor
from repro.process.simulator import SimulationResult
from repro.te.batch import BatchTEPlant
from repro.te.safety import DEFAULT_SAFETY_LIMITS
from repro.te.state import QUANTITY_ROWS

__all__ = ["BatchSimulator", "BatchRow", "run_specs_batched", "DEFAULT_BATCH_SIZE"]

#: Builds further observers of one run from its :class:`BatchRow`.
ObserverFactory = Callable[["BatchRow"], Sequence[StepObserver]]

#: Default number of runs stepped together per vectorized batch.  Large
#: enough to amortize the per-step interpreter cost, small enough that the
#: in-flight trajectory arrays of a batch stay modest.
DEFAULT_BATCH_SIZE = ParallelConfig.DEFAULT_BATCH_SIZE


@dataclass
class _Row:
    """Everything one run of a lockstep batch carries besides array state."""

    position: int  # index into the caller's spec sequence
    batch_index: int  # row within the batch's trajectory slabs
    spec: object  # the RunSpec (typed loosely to avoid a layering import)
    metadata: Dict[str, object]
    observers: List[StepObserver] = field(default_factory=list)
    live: List[StepObserver] = field(default_factory=list)  # scored in bulk
    n_recorded: int = 0
    shutdown_time_hours: Optional[float] = None
    shutdown_reason: Optional[str] = None
    early_stop_time_hours: Optional[float] = None
    early_stop_reason: Optional[str] = None
    fallback_sample: Optional[np.ndarray] = None


def _group_key(config: SimulationConfig) -> SimulationConfig:
    """Runs sharing everything but the seed can advance in lockstep."""
    return replace(config, seed=0)


class _Lockstep:
    """The batched components of one running batch, and its remaining rows."""

    def __init__(self, specs: Sequence) -> None:
        from repro.experiments.runner import (
            build_channels,
            build_disturbance_schedule,
        )

        n_rows = len(specs)
        self.plant = BatchTEPlant(seeds=[spec.simulation.seed for spec in specs])
        self.controller = BatchDecentralizedController(None, n_rows)
        sensor_channels, actuator_channels, schedules = [], [], []
        for spec in specs:
            sensor, actuator = build_channels(spec.scenario, spec.anomaly_start_hour)
            sensor_channels.append(sensor)
            actuator_channels.append(actuator)
            schedules.append(
                build_disturbance_schedule(spec.scenario, spec.anomaly_start_hour)
            )
        self.sensor_channel = BatchChannel(sensor_channels)
        self.actuator_channel = BatchChannel(actuator_channels)
        self.disturbances = BatchDisturbanceView(schedules)
        self.safety = BatchSafetyMonitor(
            DEFAULT_SAFETY_LIMITS,
            n_rows,
            enabled=specs[0].simulation.enable_safety,
            layout=QUANTITY_ROWS,
        )
        # Batch-local position -> original row index (ascending).
        self.alive = np.arange(n_rows)

    def checkpoint(
        self,
        local: int,
        last_step_hours: float,
        controller_values: np.ndarray,
        process_values: np.ndarray,
        times: np.ndarray,
    ) -> PrefixCheckpoint:
        """Row ``local`` at the start of the sample after its recorded
        prefix (the arrays are copied)."""
        return PrefixCheckpoint(
            sample=len(times),
            last_step_hours=last_step_hours,
            plant=self.plant.snapshot_row(local),
            controller=self.controller.snapshot_row(local),
            safety=self.safety.snapshot_row(local),
            controller_values=controller_values.copy(),
            process_values=process_values.copy(),
            times=times.copy(),
        )

    def restore(
        self, checkpoints: Sequence[PrefixCheckpoint], steps_per_sample: int
    ) -> None:
        """Set row ``i`` to ``checkpoints[i]``, all taken at one sample.

        Each row keeps its own channels and disturbance schedule, which must
        not have acted on the prefix; the channels take up the last vectors
        they would have carried.
        """
        last_step = checkpoints[0].last_step_hours
        if not self.disturbances.idle_through(last_step):
            raise ConfigurationError(
                f"a disturbance of the batch opens before t={last_step:g} h, "
                "inside the prefix it would resume from"
            )
        self.plant.restore_rows([checkpoint.plant for checkpoint in checkpoints])
        self.controller.restore_rows([checkpoint.controller for checkpoint in checkpoints])
        n_transmissions = checkpoints[0].sample * steps_per_sample
        for row, checkpoint in enumerate(checkpoints):
            self.safety.restore_row(row, checkpoint.safety)
            self.sensor_channel.channel(row).resume(
                checkpoint.sensor_values, last_step, n_transmissions
            )
            self.actuator_channel.channel(row).resume(
                checkpoint.actuator_values, last_step, n_transmissions
            )

    def compact(self, keep_mask: np.ndarray) -> np.ndarray:
        """Drop the rows outside ``keep_mask``; return the kept positions."""
        keep = np.flatnonzero(keep_mask)
        for component in (
            self.plant,
            self.controller,
            self.sensor_channel,
            self.actuator_channel,
            self.disturbances,
            self.safety,
        ):
            component.take(keep)
        self.alive = self.alive[keep]
        return keep

    def local(self, batch_index: int) -> int:
        """The current position of row ``batch_index``."""
        local = int(np.searchsorted(self.alive, batch_index))
        if local == self.alive.size or self.alive[local] != batch_index:
            raise ConfigurationError(
                f"batch row {batch_index} has already left its batch"
            )
        return local


def _tuning_without_gains(controller: TEDecentralizedController) -> tuple:
    """Everything of a serial controller's tuning except its loop gains."""
    return (
        tuple(replace(loop.definition, kc=0.0) for loop in controller.loops),
        controller.pressure_override_start_kpa,
        controller.pressure_override_gain,
        controller.level_override_start_percent,
        controller.level_override_gain,
        controller.override_filter_hours,
        controller._constant_xmv,
    )


class BatchRow:
    """One run of a lockstep batch, seen through the serial simulator's seams.

    Observer factories of :meth:`BatchSimulator.run_specs` receive one of
    these where :func:`~repro.experiments.runner.run_scenario` hands them the
    :class:`~repro.process.simulator.ClosedLoopSimulator`, so the response
    actions (:func:`repro.response.runner.apply_action`) have one body for
    both kernels:

    * ``controller`` reads as a serial
      :class:`~repro.control.te_controller.TEDecentralizedController` with
      the row's current loop gains.  Assigning one whose loops differ only
      in ``kc`` gives the row those gains and a fresh controller state
      (:meth:`BatchDecentralizedController.fallback_row`), exactly what
      swapping in a new controller does to a serial run.
    * ``sensor_channel`` / ``actuator_channel`` are the row's own
      :class:`~repro.network.channel.Channel` objects
      (:meth:`BatchChannel.channel`).

    Rows that trip or stop move the others within the batch; the handle
    looks up its row's current position on every access.
    """

    def __init__(self, lockstep: _Lockstep, batch_index: int) -> None:
        self._lockstep = lockstep
        self._batch_index = batch_index
        self._controller: Optional[TEDecentralizedController] = None

    @property
    def controller(self) -> TEDecentralizedController:
        """A serial controller carrying the row's current loop gains."""
        if self._controller is None:
            self._controller = TEDecentralizedController()
        return self._controller

    @controller.setter
    def controller(self, controller: TEDecentralizedController) -> None:
        if _tuning_without_gains(controller) != _tuning_without_gains(
            self.controller
        ):
            raise ConfigurationError(
                "a batch row can only take a controller that differs from "
                "its current one in the loop gains"
            )
        self._lockstep.controller.fallback_row(
            self._lockstep.local(self._batch_index),
            [loop.definition.kc for loop in controller.loops],
        )
        self._controller = controller

    @property
    def sensor_channel(self) -> Channel:
        """The row's sensor channel."""
        return self._lockstep.sensor_channel.channel(
            self._lockstep.local(self._batch_index)
        )

    @property
    def actuator_channel(self) -> Channel:
        """The row's actuator channel."""
        return self._lockstep.actuator_channel.channel(
            self._lockstep.local(self._batch_index)
        )


def _live_groups(rows: Sequence[_Row], alive: np.ndarray) -> list:
    """The remaining rows' live observers, grouped by shared analyzer.

    Returns ``[(analyzer, positions, observers)]``: the batch positions
    whose samples one ``statistics`` call per view scores, and the observer
    each scored row goes to.
    """
    groups: Dict[int, tuple] = {}
    for local, batch_index in enumerate(alive):
        for observer in rows[batch_index].live:
            analyzer = observer.monitor.analyzer
            _, positions, observers = groups.setdefault(
                id(analyzer), (analyzer, [], [])
            )
            positions.append(local)
            observers.append(observer)
    return [
        (analyzer, np.array(positions, dtype=np.intp), observers)
        for analyzer, positions, observers in groups.values()
    ]


def _score_live(
    groups: list, controller_values: np.ndarray, process_values: np.ndarray
) -> Dict[int, tuple]:
    """One statistics call per view and analyzer; the ``(t2, spe)`` pair
    per view of every live observer, keyed by ``id(observer)``."""
    scores: Dict[int, tuple] = {}
    for analyzer, positions, observers in groups:
        controller_t2, controller_spe = analyzer.controller_monitor.statistics(
            controller_values[positions]
        )
        process_t2, process_spe = analyzer.process_monitor.statistics(
            process_values[positions]
        )
        for i, observer in enumerate(observers):
            scores[id(observer)] = (
                (controller_t2[i], controller_spe[i]),
                (process_t2[i], process_spe[i]),
            )
    return scores


class BatchSimulator:
    """Executes campaign specs by stepping whole batches of runs at once.

    Parameters
    ----------
    batch_size:
        Maximum number of runs advanced together.  ``None`` uses
        :data:`DEFAULT_BATCH_SIZE`.
    live_analyzer:
        Fitted dual-level analyzer for specs carrying an early-stop policy
        (same contract as ``CampaignEngine.set_live_analyzer``).
    """

    def __init__(self, batch_size: Optional[int] = None, live_analyzer=None):
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1 or None")
        self.batch_size = (
            int(batch_size) if batch_size is not None else DEFAULT_BATCH_SIZE
        )
        self.live_analyzer = live_analyzer

    # ------------------------------------------------------------------
    def run_specs(
        self,
        specs: Sequence,
        observer_factories: Optional[Sequence[Sequence[ObserverFactory]]] = None,
        trajectories: bool = True,
        prefixes: Optional[PrefixStore] = None,
    ) -> List[SimulationResult]:
        """Execute every spec and return results in spec order.

        Specs are grouped by lockstep compatibility (identical simulation
        settings apart from the seed), each group is split into batches of
        at most :attr:`batch_size` rows, and each batch advances through
        one vectorized loop.

        Runs of one seed share their steps up to the anomaly onset
        (:mod:`repro.batch.prefix`): a batch stepping one of them from t = 0
        leaves a checkpoint there for those still to start, and runs that
        all have a checkpoint at one sample start there as a batch of their
        own when that takes fewer lockstep steps.  ``prefixes`` keeps the
        checkpoints across calls (a campaign's :class:`PrefixStore`, which
        also knows the runs of later calls); by default they last this call.

        ``observer_factories`` holds one sequence of factories per spec.
        Each factory is called with the run's :class:`BatchRow` and returns
        further observers, appended after the early-stop stack — the
        ``observer_factories`` contract of
        :func:`~repro.experiments.runner.run_scenario`.  With
        ``trajectories=False`` the runs are stepped for their observers
        only: nothing is recorded and the call returns an empty list.
        """
        specs = list(specs)
        if observer_factories is None:
            observer_factories = [()] * len(specs)
        elif len(observer_factories) != len(specs):
            raise ConfigurationError(
                "observer_factories needs one sequence of factories per spec"
            )
        groups: Dict[SimulationConfig, List[int]] = {}
        for position, spec in enumerate(specs):
            groups.setdefault(_group_key(spec.simulation), []).append(position)
        # A run with observers watches its prefix, so it shares none.
        keys = [
            prefix_key(spec) if trajectories and not factories else None
            for spec, factories in zip(specs, observer_factories)
        ]
        store = PrefixStore() if prefixes is None else prefixes
        store.expect(spec for spec, key in zip(specs, keys) if key is not None)

        results: List[Optional[SimulationResult]] = [None] * len(specs)
        try:
            for positions in groups.values():
                remaining = list(positions)
                while remaining:
                    chunk, checkpoints = self._next_batch(
                        remaining, keys, store, specs[positions[0]].simulation
                    )
                    started = set(chunk)
                    remaining = [p for p in remaining if p not in started]
                    store.discard(specs[i] for i in chunk)
                    if checkpoints is not None:
                        store.n_resumed += len(chunk)
                    batch_results = self._run_batch(
                        [specs[i] for i in chunk],
                        chunk,
                        [observer_factories[i] for i in chunk],
                        trajectories,
                        [keys[i] for i in chunk],
                        store,
                        checkpoints,
                    )
                    for position, result in zip(chunk, batch_results):
                        results[position] = result
        finally:
            store.discard(specs)
        return results if trajectories else []  # type: ignore[return-value]

    def _next_batch(
        self,
        remaining: List[int],
        keys: Sequence[Optional[PrefixKey]],
        store: PrefixStore,
        simulation: SimulationConfig,
    ) -> Tuple[List[int], Optional[List[PrefixCheckpoint]]]:
        """The next batch of one lockstep group's remaining runs, and the
        checkpoints it starts from (``None``: it starts at t = 0).

        The runs holding a checkpoint at one sample start there as a batch
        when that takes fewer lockstep samples than stepping every remaining
        run from t = 0; otherwise the first :attr:`batch_size` remaining
        runs step from t = 0, as they come.
        """
        width, total = self.batch_size, simulation.total_samples
        resumable: Dict[int, List[int]] = {}
        for position in remaining:
            checkpoint = store.get(keys[position])
            if checkpoint is not None:
                resumable.setdefault(checkpoint.sample, []).append(position)

        def batches(n_runs: int) -> int:
            return -(-n_runs // width)

        chosen, cheapest = None, batches(len(remaining)) * total
        for sample, positions in resumable.items():
            cost = batches(len(positions)) * (total - sample) + batches(
                len(remaining) - len(positions)
            ) * total
            if cost < cheapest:
                chosen, cheapest = positions[:width], cost
        if chosen is None:
            return remaining[:width], None
        return chosen, [store.get(keys[position]) for position in chosen]

    # ------------------------------------------------------------------
    def _build_row(
        self,
        position: int,
        batch_index: int,
        spec,
        lockstep: _Lockstep,
        factories: Sequence[ObserverFactory],
    ) -> _Row:
        """Mirror of :func:`repro.experiments.runner.run_scenario` assembly."""
        from repro.experiments.runner import (
            build_live_observers,
            scenario_run_metadata,
        )
        from repro.live.observer import LiveRunObserver

        scenario = spec.scenario
        simulation = spec.simulation
        if simulation.total_samples < 1:
            raise ConfigurationError("configuration yields no samples")
        if (
            scenario.is_anomalous
            and spec.anomaly_start_hour >= simulation.duration_hours
        ):
            raise ConfigurationError(
                "anomaly_start_hour must fall inside the simulation horizon"
            )
        observers = build_live_observers(
            scenario, spec.anomaly_start_hour, spec.early_stop, self.live_analyzer
        )
        if factories:
            handle = BatchRow(lockstep, batch_index)
            for factory in factories:
                observers.extend(factory(handle))
        return _Row(
            position=position,
            batch_index=batch_index,
            spec=spec,
            metadata=scenario_run_metadata(scenario, spec.anomaly_start_hour),
            observers=observers,
            live=[o for o in observers if isinstance(o, LiveRunObserver)],
        )

    def _run_batch(
        self,
        specs: Sequence,
        positions: Sequence[int],
        factories: Sequence[Sequence[ObserverFactory]],
        trajectories: bool,
        keys: Sequence[Optional[PrefixKey]],
        prefixes: PrefixStore,
        checkpoints: Optional[Sequence[PrefixCheckpoint]] = None,
    ) -> List[SimulationResult]:
        """Advance one lockstep batch to completion and build its results.

        With ``checkpoints`` (one per row, all at one sample) the batch
        starts there.  Otherwise it starts at t = 0 and, for every prefix
        key ``prefixes`` wants, its first row with that key leaves a
        checkpoint at the key's onset sample if it is still running.
        """
        batch = _Lockstep(specs)
        rows = [
            self._build_row(position, batch_index, spec, batch, row_factories)
            for batch_index, (position, spec, row_factories) in enumerate(
                zip(positions, specs, factories)
            )
        ]
        config = specs[0].simulation  # lockstep fields are shared by the group
        plant, controller = batch.plant, batch.controller
        sensor_channel, actuator_channel = batch.sensor_channel, batch.actuator_channel
        disturbances, safety = batch.disturbances, batch.safety
        # Every component binds its own width (when the batch forms,
        # compacts or restores rows), so a step is these calls.
        state, noisy = plant.state, config.enable_noise
        measure, step_batch = plant.measure, plant.step_batch
        transmit_sensors = sensor_channel.transmit
        transmit_commands = actuator_channel.transmit
        update, idv_at, check = controller.update, disturbances.at, safety.check

        names = list(plant.measured_variables.names) + list(
            plant.manipulated_variables.names
        )
        total_samples = config.total_samples
        steps_per_sample = config.integration_steps_per_sample
        dt = config.integration_step_hours
        n_columns = len(names)

        if trajectories:
            # Preallocated per-run trajectories, one array per row, so a
            # full-horizon run's result takes its arrays without a copy; the
            # lockstep clock is one scalar sequence, so a single times vector
            # serves every row's prefix.
            controller_rows = [np.empty((total_samples, n_columns)) for _ in rows]
            process_rows = [np.empty((total_samples, n_columns)) for _ in rows]
            times = np.empty(total_samples)

        start = 0
        # Onset sample -> the rows that leave a checkpoint there, and their key.
        due: Dict[int, List[Tuple[int, PrefixKey]]] = {}
        if checkpoints is not None:
            start = checkpoints[0].sample
            batch.restore(checkpoints, steps_per_sample)
            for index, checkpoint in enumerate(checkpoints):
                controller_rows[index][:start] = checkpoint.controller_values
                process_rows[index][:start] = checkpoint.process_values
            times[:start] = checkpoints[0].times
        else:
            for index, key in enumerate(keys):
                if key is not None and prefixes.wants(key) and key not in keys[:index]:
                    due.setdefault(key[1], []).append((index, key))
        budget = self.batch_size * total_samples

        for row in rows:
            for observer in row.observers:
                observer.on_run_start(names, row.spec.simulation, dict(row.metadata))

        # One span per lockstep batch; with tracing off this is the shared
        # no-op span, and nothing is added per step.
        n_steps = 0
        with obs_span(
            "batch.lockstep",
            rows=len(rows),
            start_sample=start,
            resumed=checkpoints is not None,
        ) as lockstep:
            # ``batch.alive`` maps batch-local position -> original batch index
            # (the slab row); components are compacted whenever rows finish
            # early.  ``recorded_through`` is the shared count of fully recorded
            # samples (rows advance in lockstep, so one scalar serves every
            # alive row); a row's own n_recorded is stamped only when it leaves
            # the batch.
            recorded_through = start
            any_observers = any(row.observers for row in rows)
            live_groups = _live_groups(rows, batch.alive)

            for sample_index in range(start, total_samples):
                if batch.alive.size == 0:
                    break
                for index, key in due.get(sample_index, ()):
                    if index in batch.alive:
                        checkpoint = batch.checkpoint(
                            batch.local(index),
                            time,  # the clock of the last step's transmissions
                            controller_rows[index][:sample_index],
                            process_rows[index][:sample_index],
                            times[:sample_index],
                        )
                        prefixes.keep(key, checkpoint, budget)
                batch_ended = False
                for step_index in range(steps_per_sample):
                    time = state.time_hours
                    true_xmeas = measure(noisy)
                    received_xmeas = transmit_sensors(true_xmeas, time)
                    commanded_xmv = update(received_xmeas, dt)
                    applied_xmv = transmit_commands(commanded_xmv, time)
                    step_batch(applied_xmv, dt, idv_at(time))

                    tripped, reasons = check(state.time_hours, state.quantities)
                    if safety.any_tripped:
                        trip_time = state.time_hours
                        tripped_locals = np.flatnonzero(tripped)
                        if recorded_through == 0 and trajectories:
                            # The plant tripped before its first sample could be
                            # stored; mirror the serial fallback of recording the
                            # (noiseless) state at t = 0 with nominal commands.
                            xmeas = plant.measure(noisy=False)
                            xmv = plant.manipulated_variables.nominal_values()
                            for local in tripped_locals:
                                rows[batch.alive[local]].fallback_sample = np.concatenate(
                                    [xmeas[local], xmv]
                                )
                        for local in tripped_locals:
                            row = rows[batch.alive[local]]
                            row.n_recorded = recorded_through
                            row.shutdown_time_hours = trip_time
                            row.shutdown_reason = reasons[local]
                        keep = batch.compact(~tripped)
                        true_xmeas = true_xmeas[keep]
                        received_xmeas = received_xmeas[keep]
                        commanded_xmv = commanded_xmv[keep]
                        applied_xmv = applied_xmv[keep]
                        live_groups = _live_groups(rows, batch.alive)
                        if batch.alive.size == 0:
                            batch_ended = True
                            break
                if batch_ended:
                    n_steps += step_index + 1
                    break
                n_steps += steps_per_sample

                alive = batch.alive
                sample_time = state.time_hours
                controller_values = np.concatenate(
                    [received_xmeas, commanded_xmv], axis=1
                )
                process_values = np.concatenate([true_xmeas, applied_xmv], axis=1)
                if trajectories:
                    for local, index in enumerate(alive):
                        controller_rows[index][sample_index] = controller_values[local]
                        process_rows[index][sample_index] = process_values[local]
                    times[sample_index] = sample_time
                recorded_through = sample_index + 1

                if any_observers:
                    scores = _score_live(live_groups, controller_values, process_values)
                    stopping = np.zeros(alive.size, dtype=bool)
                    for local in range(alive.size):
                        row = rows[alive[local]]
                        if not row.observers:
                            continue
                        sample = StepSample(
                            index=sample_index,
                            time_hours=float(sample_time),
                            controller_values=controller_values[local],
                            process_values=process_values[local],
                        )
                        stop_requested = False
                        for observer in row.observers:
                            stats = scores.get(id(observer))
                            if stats is None:
                                stop = observer.on_sample(sample)
                            else:
                                stop = observer.on_scored_sample(sample, *stats)
                            if stop:
                                stop_requested = True
                                if row.early_stop_reason is None:
                                    row.early_stop_reason = observer.stop_reason
                        if stop_requested:
                            row.n_recorded = recorded_through
                            row.early_stop_time_hours = float(sample_time)
                            stopping[local] = True
                    if stopping.any():
                        batch.compact(~stopping)
                        live_groups = _live_groups(rows, batch.alive)
                        if batch.alive.size == 0:
                            break
            lockstep.annotate(
                steps=n_steps,
                tripped=sum(row.shutdown_time_hours is not None for row in rows),
                stopped=sum(row.early_stop_time_hours is not None for row in rows),
            )

        for local in range(batch.alive.size):
            rows[batch.alive[local]].n_recorded = recorded_through
        for row in rows:
            for observer in row.observers:
                observer.on_run_end(row.shutdown_time_hours, row.shutdown_reason)

        if not trajectories:
            return []
        return [
            self._finalize(row, names, controller_rows, process_rows, times)
            for row in rows
        ]

    # ------------------------------------------------------------------
    def _finalize(
        self,
        row: _Row,
        names: Sequence[str],
        controller_rows: Sequence[np.ndarray],
        process_rows: Sequence[np.ndarray],
        times: np.ndarray,
    ) -> SimulationResult:
        """Assemble one row's :class:`SimulationResult` (serial-identical)."""
        run_metadata = dict(row.metadata)
        run_metadata.update(
            {
                "shutdown_time_hours": row.shutdown_time_hours,
                "shutdown_reason": row.shutdown_reason,
                "seed": row.spec.simulation.seed,
            }
        )
        if row.early_stop_time_hours is not None:
            run_metadata.update(
                {
                    "stopped_early": True,
                    "early_stop_time_hours": row.early_stop_time_hours,
                    "early_stop_reason": row.early_stop_reason,
                }
            )

        if row.n_recorded == 0:
            controller_values = row.fallback_sample[None, :].copy()
            process_values = row.fallback_sample[None, :].copy()
            row_times = np.array([0.0])
        else:
            controller_values = controller_rows[row.batch_index]
            process_values = process_rows[row.batch_index]
            if row.n_recorded < len(times):
                controller_values = controller_values[: row.n_recorded].copy()
                process_values = process_values[: row.n_recorded].copy()
            row_times = times[: row.n_recorded].copy()

        def dataset(values: np.ndarray, view: str) -> ProcessDataset:
            metadata = dict(row.metadata, view=view)
            metadata.update(run_metadata)
            return ProcessDataset(values, names, row_times, metadata)

        return SimulationResult(
            controller_data=dataset(controller_values, "controller"),
            process_data=dataset(process_values, "process"),
            shutdown_time_hours=row.shutdown_time_hours,
            shutdown_reason=row.shutdown_reason,
            config=row.spec.simulation,
            metadata=run_metadata,
        )


def run_specs_batched(
    specs: Sequence,
    batch_size: Optional[int] = None,
    live_analyzer=None,
    prefixes: Optional[PrefixStore] = None,
) -> List[SimulationResult]:
    """Execute campaign specs through the batch kernel, in spec order."""
    simulator = BatchSimulator(batch_size=batch_size, live_analyzer=live_analyzer)
    return simulator.run_specs(specs, prefixes=prefixes)
