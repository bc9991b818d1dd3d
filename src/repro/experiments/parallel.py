"""Parallel campaign engine with deterministic fan-out and result caching.

The paper's evaluation (Section V) is a large batch of independent closed-loop
simulations: a calibration campaign plus repeated runs of every anomalous
scenario.  :class:`CampaignEngine` steps such a batch through the vectorized
lockstep kernel (:mod:`repro.batch`), in-process or as whole batches fanned
out over a ``ProcessPoolExecutor`` (a run that would step alone takes the
serial kernel, which is faster for one row), while guaranteeing that every
worker count, batch size and chunking produces **bitwise-identical**
results:

* every run is fully described by an immutable :class:`RunSpec` whose seed is
  derived *before* dispatch, so no run depends on execution order or on
  shared random state;
* results are returned in spec order regardless of completion order.

On top of the executor sits an optional on-disk :class:`ResultCache` keyed by
(scenario, simulation config, seed, code version): re-running a campaign
after a config tweak only simulates the runs whose key actually changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Union

from repro._version import __version__
from repro.common.config import (
    EarlyStopPolicy,
    ExperimentConfig,
    ParallelConfig,
    SimulationConfig,
)
from repro.common.exceptions import ConfigurationError
from repro.experiments.scenarios import Scenario, normal_scenario
from repro.obs.logs import get_logger
from repro.obs.trace import span as obs_span
from repro.process.simulator import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.prefix import PrefixStore

__all__ = [
    "RunSpec",
    "CampaignStats",
    "PruneStats",
    "ResultCache",
    "CampaignEngine",
    "calibration_run_seed",
    "scenario_run_seed",
    "calibration_specs",
    "scenario_specs",
]

_LOG = get_logger("engine")


# ----------------------------------------------------------------------
# Deterministic per-run seed derivation
# ----------------------------------------------------------------------
def calibration_run_seed(root_seed: int, run_index: int) -> int:
    """Seed of the ``run_index``-th calibration run of a campaign."""
    return root_seed * 100_003 + run_index


def scenario_run_seed(root_seed: int, run_index: int) -> int:
    """Seed of the ``run_index``-th evaluation run of a scenario."""
    return root_seed * 7_919 + 1000 + run_index


# ----------------------------------------------------------------------
# Run specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """An immutable, self-contained description of one closed-loop run.

    A spec carries everything a worker process needs — scenario, simulation
    configuration (including the derived per-run seed and the safety
    switch) and anomaly onset — so runs can execute in any order, in any
    process, and still produce exactly the result a serial loop would have
    produced.
    """

    scenario: Scenario
    simulation: SimulationConfig
    anomaly_start_hour: float = 10.0
    #: Optional live early-stop policy: the run is monitored while it
    #: simulates and truncated once a detection is confirmed.  Executing
    #: such a spec needs a fitted analyzer installed on the engine
    #: (:meth:`CampaignEngine.set_live_analyzer`).
    early_stop: Optional[EarlyStopPolicy] = None
    #: Identity of the calibration behind the live models (see
    #: :func:`repro.live.campaign.live_context_token`); part of the cache
    #: key, because a truncated result depends on what the monitor was
    #: fitted on.
    live_token: str = ""

    def cache_token(self) -> Dict[str, object]:
        """The canonical content this run's cache key is derived from.

        The scenario enters through :meth:`Scenario.to_mapping` — its
        canonical serialized form — so a scenario loaded from a spec file
        and one built in code hash identically.  Live early-stop runs add a
        ``live`` entry (policy + calibration identity), so truncated results
        can never shadow — or be shadowed by — full-horizon results of the
        same run.
        """
        token: Dict[str, object] = {
            "code_version": __version__,
            "scenario": self.scenario.to_mapping(),
            "simulation": asdict(self.simulation),
            "anomaly_start_hour": float(self.anomaly_start_hour),
            "enable_safety": bool(self.simulation.enable_safety),
        }
        if self.early_stop is not None:
            token["live"] = {
                "early_stop": self.early_stop.to_mapping(),
                "context": self.live_token,
            }
        return token

    def cache_key(self) -> str:
        """A stable hex digest identifying this run's inputs and code version."""
        blob = json.dumps(self.cache_token(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def calibration_specs(
    config: ExperimentConfig, scenario: Optional[Scenario] = None
) -> List[RunSpec]:
    """Specs of the attack-free calibration campaign of a configuration."""
    base_scenario = scenario or normal_scenario()
    return [
        RunSpec(
            scenario=base_scenario,
            simulation=config.simulation.with_seed(
                calibration_run_seed(config.seed, run_index)
            ),
            anomaly_start_hour=config.anomaly_start_hour,
        )
        for run_index in range(config.n_calibration_runs)
    ]


def scenario_specs(
    config: ExperimentConfig,
    scenario: Scenario,
    n_runs: Optional[int] = None,
) -> List[RunSpec]:
    """Specs of the repeated evaluation runs of one scenario."""
    n_runs = n_runs if n_runs is not None else config.n_runs_per_scenario
    return [
        RunSpec(
            scenario=scenario,
            simulation=config.simulation.with_seed(
                scenario_run_seed(config.seed, run_index)
            ),
            anomaly_start_hour=config.anomaly_start_hour,
        )
        for run_index in range(n_runs)
    ]


# How long a ``.tmp.npz`` must sit untouched before prune treats it as the
# debris of a crashed writer rather than an in-flight store.
_TMP_GRACE_SECONDS = 3600.0


def _unlink_quietly(path: Path) -> bool:
    """Remove a file; report whether it is actually gone.

    A concurrent removal by another process counts as success (the file is
    gone either way); a permission or I/O error does not — the caller must
    not book the entry as evicted.
    """
    try:
        path.unlink()
        return True
    except FileNotFoundError:
        return True
    except OSError:
        return False


# The fitted dual-level analyzer live early-stop runs score against,
# installed once per worker by the pool initializer (or in-process) so it is
# pickled per *worker*, not per task.
_LIVE_ANALYZER = None


def _install_live_analyzer(analyzer) -> None:
    """Pool initializer: pin the fitted live analyzer in this process."""
    global _LIVE_ANALYZER
    _LIVE_ANALYZER = analyzer


def _execute_group(
    specs: Sequence[RunSpec], width: int, prefixes: Optional[PrefixStore] = None
) -> List[SimulationResult]:
    """Step a group of specs in lockstep batches of ``width`` rows.

    Top-level so worker pools can pickle it; each pool task steps one whole
    batch of runs in a single vectorized loop, so the per-row saving of the
    kernel multiplies with the process fan-out.  Runs that would step alone
    (a one-spec group, or ``width = 1``) take the serial kernel instead,
    which is pinned bitwise-identical to a one-row batch, although a one-row
    lockstep step now costs less (about 0.7x a serial one) and the serial
    kernel can neither leave nor use an onset checkpoint.  ``prefixes``
    holds the campaign's onset checkpoints (:mod:`repro.batch.prefix`);
    without it the group shares prefixes only within itself.
    """
    from repro.batch import run_specs_batched
    from repro.experiments.runner import run_scenario

    live_analyzer = None
    if any(spec.early_stop is not None for spec in specs):
        live_analyzer = _LIVE_ANALYZER
        if live_analyzer is None:
            raise ConfigurationError(
                "the spec requests live early stopping but no fitted analyzer "
                "is installed; call CampaignEngine.set_live_analyzer first"
            )
    with obs_span("engine.batch", n_runs=len(specs)):
        if min(width, len(specs)) == 1:
            if prefixes is not None:
                prefixes.discard(specs)  # they start, on the serial kernel
            results = [
                run_scenario(
                    spec.scenario,
                    spec.simulation,
                    anomaly_start_hour=spec.anomaly_start_hour,
                    early_stop=spec.early_stop,
                    live_analyzer=live_analyzer,
                )
                for spec in specs
            ]
        else:
            results = run_specs_batched(
                specs, batch_size=width, live_analyzer=live_analyzer, prefixes=prefixes
            )
    _LOG.debug(
        "batch executed",
        extra={"n_runs": len(specs), "batch_size": width},
    )
    return results


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
@dataclass
class PruneStats:
    """What a :meth:`ResultCache.prune` pass removed and what remains."""

    n_removed: int = 0
    bytes_removed: int = 0
    n_kept: int = 0
    bytes_kept: int = 0


class ResultCache:
    """A directory of ``<cache_key>.npz`` files, one per completed run.

    Entries are written atomically (tmp file + rename) so a crashed or
    interrupted campaign never leaves a truncated entry behind; unreadable
    entries are treated as misses and overwritten.  Eviction is either
    manual — :meth:`clear` drops everything, and bumping the package version
    invalidates every old key (the key embeds the code version) — or policy
    driven: :meth:`prune` applies size and age caps, evicting the oldest
    entries first.  :class:`CampaignEngine` calls :meth:`prune`
    automatically after each campaign when its
    :class:`~repro.common.config.ParallelConfig` carries
    ``cache_max_bytes`` / ``cache_max_age``.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, spec: RunSpec) -> Path:
        """The cache file a spec maps to (whether or not it exists)."""
        return self.directory / f"{spec.cache_key()}.npz"

    def load(self, spec: RunSpec) -> Optional[SimulationResult]:
        """Return the cached result of a spec, or ``None`` on a miss."""
        from repro.datasets.io import load_result_npz

        path = self.path_for(spec)
        if not path.is_file():
            return None
        try:
            return load_result_npz(path)
        except Exception:
            return None

    def store(self, spec: RunSpec, result: SimulationResult) -> Path:
        """Persist the result of a spec and return its cache path."""
        from repro.datasets.io import save_result_npz

        path = self.path_for(spec)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Unique per-writer tmp name: concurrent campaigns sharing a cache
        # directory must never interleave writes into the same file.  The
        # ``.npz`` suffix is required (numpy appends it otherwise); tmp files
        # are told apart by the ``.tmp.npz`` tail.
        handle, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp.npz")
        os.close(handle)
        save_result_npz(result, tmp_name)
        os.replace(tmp_name, path)
        return path

    def _entries(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return [
            entry
            for entry in self.directory.glob("*.npz")
            if not entry.name.endswith(".tmp.npz")
        ]

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        """Total size of all cache entries, in bytes."""
        total = 0
        for entry in self._entries():
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return total

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> PruneStats:
        """Evict entries until the cache satisfies the given caps.

        The age cap removes every entry whose modification time is older
        than ``now - max_age_seconds``; the size cap then removes the
        oldest remaining entries until the total size fits ``max_bytes``.
        Either cap may be ``None`` (policy disabled).  ``now`` is
        overridable for tests.  Entries that vanish concurrently are
        skipped, so parallel campaigns sharing a cache cannot trip a prune.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError("max_bytes must be >= 0 or None")
        if max_age_seconds is not None and max_age_seconds < 0:
            raise ConfigurationError("max_age_seconds must be >= 0 or None")
        now = time.time() if now is None else float(now)
        stamped: List[tuple] = []
        for entry in self._entries():
            try:
                stat = entry.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, stat.st_size, entry))
        stamped.sort(key=lambda item: item[0])  # oldest first

        stats = PruneStats()
        keep: List[tuple] = []
        for mtime, size, entry in stamped:
            expired = max_age_seconds is not None and now - mtime > max_age_seconds
            if expired and _unlink_quietly(entry):
                stats.n_removed += 1
                stats.bytes_removed += size
            else:
                # Still on disk (not expired, or the unlink failed): it
                # keeps counting toward the size cap below.
                keep.append((mtime, size, entry))

        if max_bytes is not None:
            remaining = sum(size for _, size, _ in keep)
            survivors = []
            for mtime, size, entry in keep:  # oldest evicted first
                if remaining > max_bytes and _unlink_quietly(entry):
                    stats.n_removed += 1
                    stats.bytes_removed += size
                    remaining -= size
                else:
                    survivors.append((mtime, size, entry))
            keep = survivors

        stats.n_kept = len(keep)
        stats.bytes_kept = sum(size for _, size, _ in keep)

        # Stray tmp files from a crashed writer are not entries, but they do
        # occupy disk; sweep the ones old enough that no live writer can
        # still hold them (a store takes seconds, the grace period is an
        # hour).
        if self.directory.is_dir():
            for leftover in self.directory.glob("*.tmp.npz"):
                try:
                    age = now - leftover.stat().st_mtime
                except OSError:
                    continue
                if age > _TMP_GRACE_SECONDS:
                    _unlink_quietly(leftover)
        return stats

    def clear(self) -> int:
        """Delete every cache entry (and stray tmp files); count the entries."""
        entries = self._entries()
        for entry in entries:
            entry.unlink()
        if self.directory.is_dir():
            for leftover in self.directory.glob("*.tmp.npz"):
                leftover.unlink()
        return len(entries)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class CampaignStats:
    """What the engine actually did for the last batch it executed."""

    n_runs: int = 0
    n_cache_hits: int = 0
    n_simulated: int = 0
    n_workers: int = 1
    wall_seconds: float = 0.0
    #: Simulated runs that started from an onset checkpoint, not at t = 0.
    n_resumed: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of runs served from the cache."""
        if self.n_runs == 0:
            return 0.0
        return self.n_cache_hits / self.n_runs

    def absorb(self, other: "CampaignStats") -> "CampaignStats":
        """Fold another batch's stats into this one (multi-batch campaigns)."""
        self.n_runs += other.n_runs
        self.n_cache_hits += other.n_cache_hits
        self.n_simulated += other.n_simulated
        self.n_resumed += other.n_resumed
        self.n_workers = max(self.n_workers, other.n_workers)
        self.wall_seconds += other.wall_seconds
        return self


class CampaignEngine:
    """Executes batches of :class:`RunSpec` — parallel, cached, deterministic.

    Parameters
    ----------
    config:
        Execution plan (worker count, batch size, cache directory).  The
        default fans out over all CPUs with no cache.

    Notes
    -----
    Every chunk's pending runs step through the vectorized lockstep kernel,
    at most :meth:`ParallelConfig.batch_width` runs per loop.  Results are
    bitwise-identical across worker counts, batch sizes and chunkings
    because every run is seeded in its spec and returned in spec order.
    The pool is only spun up when ``n_workers > 1`` and more than one run
    of a chunk needs simulating.

    Runs of one seed share their steps up to the anomaly onset: the
    in-process batches leave checkpoints in :attr:`prefixes` for the runs
    announced to it that have not started yet (every run of the current
    call, and whatever a caller announces of a campaign's later calls), and
    later batches start from them (:mod:`repro.batch.prefix`).  Pool tasks
    share only within their own group.
    """

    def __init__(self, config: Optional[ParallelConfig] = None):
        self.config = config or ParallelConfig()
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_dir) if self.config.caching else None
        )
        self.last_stats = CampaignStats()
        self._live_analyzer = None
        self._prefixes: Optional["PrefixStore"] = None

    @property
    def prefixes(self) -> "PrefixStore":
        """The onset checkpoints of the campaign in progress."""
        if self._prefixes is None:
            # Imported here, as _execute_group imports the batch kernel:
            # building an engine does not load it.
            from repro.batch.prefix import PrefixStore

            self._prefixes = PrefixStore()
        return self._prefixes

    def set_live_analyzer(self, analyzer) -> None:
        """Install the fitted analyzer live early-stop specs score against.

        The analyzer is shipped once per worker process when the next pool
        spins up (and installed in-process otherwise).  Specs
        without an :attr:`RunSpec.early_stop` policy ignore it entirely.
        """
        self._live_analyzer = analyzer

    def run(
        self, specs: Sequence[RunSpec], prune: bool = True
    ) -> List[SimulationResult]:
        """Execute every spec and return results in spec order.

        One batch, one pool: equivalent to draining :meth:`iter_run` with a
        single campaign-sized chunk.  ``prune=False`` defers the configured
        cache eviction policy to the caller — used by the streaming
        pipeline, which hands cache paths to analysis workers and must not
        evict entries mid-campaign.
        """
        specs = list(specs)
        return list(
            self.iter_run(specs, chunk_size=max(1, len(specs)), prune=prune)
        )

    def iter_run(
        self,
        specs: Sequence[RunSpec],
        chunk_size: Optional[int] = None,
        prune: bool = True,
    ) -> Iterator[SimulationResult]:
        """Execute specs in chunks, yielding results in spec order.

        The streaming counterpart of :meth:`run`: at most ``chunk_size``
        results (default :meth:`ParallelConfig.simulation_chunk_size` of the
        longest spec) are alive at once, so peak memory is O(chunk) instead
        of O(campaign).  Cached entries are loaded lazily, chunk by chunk.
        The pending runs of a chunk step in lockstep batches of at most
        :meth:`ParallelConfig.batch_width` rows: in-process at
        ``n_workers = 1`` or for a lone pending run, otherwise split evenly
        over a worker pool that persists across chunks.  Results are cached
        as they complete, so an interrupted campaign resumes from the runs
        that already finished.  Results are bitwise-identical to :meth:`run`
        for the same specs.

        :attr:`last_stats` covers the chunks actually consumed and is
        finalized when the generator is exhausted or closed.
        """
        specs = list(specs)
        # The longest run sets the width, so no batch outgrows the
        # trajectory budget of the default width.
        longest = max(
            (spec.simulation for spec in specs),
            key=lambda simulation: simulation.total_samples,
            default=None,
        )
        width = self.config.batch_width(longest)
        size = (
            int(chunk_size)
            if chunk_size is not None
            else self.config.simulation_chunk_size(longest)
        )
        if size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        stats = CampaignStats(n_workers=1)
        pool: Optional[ProcessPoolExecutor] = None
        prefixes = self.prefixes
        prefixes.expect(specs)
        try:
            for offset in range(0, len(specs), size):
                # Time only this generator's own work (cache loads and
                # simulation), not whatever the consumer does between yields.
                chunk_started = time.perf_counter()
                chunk = specs[offset : offset + size]
                chunk_index = offset // size
                with obs_span(
                    "engine.chunk", chunk=chunk_index, n_runs=len(chunk)
                ) as chunk_span:
                    results: List[Optional[SimulationResult]] = [None] * len(chunk)
                    pending: List[int] = []
                    with obs_span("engine.cache_load", chunk=chunk_index):
                        for index, spec in enumerate(chunk):
                            cached = (
                                self.cache.load(spec)
                                if self.cache is not None
                                else None
                            )
                            if cached is not None:
                                results[index] = cached
                            else:
                                pending.append(index)
                    stats.n_runs += len(chunk)
                    stats.n_cache_hits += len(chunk) - len(pending)
                    prefixes.discard(
                        spec for spec, result in zip(chunk, results) if result is not None
                    )
                    resumed_before = prefixes.n_resumed

                    def book(index: int, result: SimulationResult) -> None:
                        """Record one simulated result (and cache it)."""
                        results[index] = result
                        if self.cache is not None:
                            self.cache.store(chunk[index], result)

                    n_workers = self.config.resolved_workers
                    if n_workers > 1 and len(pending) > 1:
                        if pool is None:
                            # A chunk can never hold more than ``size`` pending
                            # runs, so a larger pool would only idle.
                            initializer, initargs = None, ()
                            if self._live_analyzer is not None:
                                initializer = _install_live_analyzer
                                initargs = (self._live_analyzer,)
                            pool = ProcessPoolExecutor(
                                max_workers=min(n_workers, size),
                                initializer=initializer,
                                initargs=initargs,
                            )
                        # Split the pending runs evenly over the workers, in
                        # groups of at most one batch: every task advances
                        # its group in one vectorized loop, from t = 0.
                        prefixes.discard(chunk[index] for index in pending)
                        group_size = min(width, -(-len(pending) // n_workers))
                        futures = {}
                        for start in range(0, len(pending), group_size):
                            group = pending[start : start + group_size]
                            future = pool.submit(
                                _execute_group,
                                [chunk[index] for index in group],
                                width,
                            )
                            futures[future] = group
                        for future in as_completed(futures):
                            group = futures[future]
                            for index, result in zip(group, future.result()):
                                book(index, result)
                        # One task per group, so that — not the pending-run
                        # count — bounds the workers actually busy.
                        stats.n_workers = max(
                            stats.n_workers, min(n_workers, len(futures))
                        )
                    elif pending:
                        # Install unconditionally — including None: a previous
                        # campaign's analyzer must not linger in the module
                        # global, or an engine that was never given one would
                        # silently score live specs against a stale calibration
                        # instead of raising.
                        _install_live_analyzer(self._live_analyzer)
                        group_results = _execute_group(
                            [chunk[index] for index in pending], width, prefixes
                        )
                        for index, result in zip(pending, group_results):
                            book(index, result)
                    n_resumed = prefixes.n_resumed - resumed_before
                    stats.n_simulated += len(pending)
                    stats.n_resumed += n_resumed
                    stats.wall_seconds += time.perf_counter() - chunk_started
                    chunk_span.annotate(
                        n_cache_hits=len(chunk) - len(pending),
                        n_simulated=len(pending),
                        n_resumed=n_resumed,
                    )
                    _LOG.info(
                        "chunk executed",
                        extra={
                            "chunk": chunk_index,
                            "n_runs": len(chunk),
                            "n_cache_hits": len(chunk) - len(pending),
                            "n_simulated": len(pending),
                            "n_resumed": n_resumed,
                        },
                    )
                yield from results  # type: ignore[misc]
        finally:
            # The runs of this call that did not start never will.
            prefixes.discard(specs)
            if pool is not None:
                pool.shutdown()
            self.last_stats = stats
            if prune:
                self.prune_cache()

    def prune_cache(self) -> Optional[PruneStats]:
        """Apply the configured cache eviction policy, if any."""
        if self.cache is None or not self.config.has_eviction_policy:
            return None
        return self.cache.prune(
            max_bytes=self.config.cache_max_bytes,
            max_age_seconds=self.config.cache_max_age,
        )
