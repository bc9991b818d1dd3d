"""Configuration dataclasses shared across subsystems.

The three configuration objects mirror the three stages of the paper's
pipeline:

* :class:`SimulationConfig` — how the Tennessee-Eastman plant is simulated and
  sampled (the paper uses 72 h runs sampled 2000 times per hour; the defaults
  here are lighter so a pure-Python run stays tractable, but the paper's
  settings can be requested explicitly).
* :class:`MSPCConfig` — how the PCA-based monitoring model is built
  (number of principal components, confidence levels, detection rule).
* :class:`ExperimentConfig` — how an evaluation campaign is organized
  (number of calibration and per-scenario runs, anomaly onset time).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional, Tuple

from repro.common.codec import Mapped
from repro.common.exceptions import ConfigurationError

__all__ = [
    "SimulationConfig",
    "MSPCConfig",
    "ParallelConfig",
    "EarlyStopPolicy",
    "LiveConfig",
    "ServiceConfig",
    "GatewayConfig",
    "ObsConfig",
    "ExperimentConfig",
]


@dataclass(frozen=True)
class SimulationConfig(Mapped, label="simulation", omit_none=True):
    """Parameters of a single Tennessee-Eastman simulation run.

    Attributes
    ----------
    duration_hours:
        Total simulated time in hours.  The paper uses 72 h.
    samples_per_hour:
        Number of recorded snapshots per simulated hour.  The paper records
        2000 samples/h (one every 1.75 s); the default here is 100 to keep a
        pure-Python run affordable.  The MSPC statistics only depend on the
        correlation structure of the snapshots, not on the absolute rate.
    integration_steps_per_sample:
        Number of explicit-Euler integration sub-steps between two recorded
        samples.  Larger values improve numerical stability of the plant
        dynamics.
    seed:
        Root seed for all stochastic elements of the run.
    enable_noise:
        Whether to apply the Krotofil-style measurement randomness model.
    enable_safety:
        Whether safety interlocks may shut the plant down.
    """

    duration_hours: float = 72.0
    samples_per_hour: int = 100
    integration_steps_per_sample: int = 4
    seed: int = 0
    enable_noise: bool = True
    enable_safety: bool = True

    def __post_init__(self) -> None:
        if self.duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        if self.samples_per_hour <= 0:
            raise ConfigurationError("samples_per_hour must be positive")
        if self.integration_steps_per_sample <= 0:
            raise ConfigurationError(
                "integration_steps_per_sample must be positive"
            )

    @property
    def sample_period_hours(self) -> float:
        """Time between two recorded samples, in hours."""
        return 1.0 / float(self.samples_per_hour)

    @property
    def sample_period_seconds(self) -> float:
        """Time between two recorded samples, in seconds."""
        return 3600.0 * self.sample_period_hours

    @property
    def integration_step_hours(self) -> float:
        """Euler integration step, in hours."""
        return self.sample_period_hours / float(self.integration_steps_per_sample)

    @property
    def total_samples(self) -> int:
        """Number of samples recorded in a full-length run."""
        return int(round(self.duration_hours * self.samples_per_hour))

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy of this configuration with a different seed."""
        return replace(self, seed=int(seed))

    def with_duration(self, duration_hours: float) -> "SimulationConfig":
        """Return a copy of this configuration with a different duration."""
        return replace(self, duration_hours=float(duration_hours))


    @classmethod
    def paper_settings(cls, seed: int = 0) -> "SimulationConfig":
        """The exact settings used in the paper (72 h, 2000 samples/h)."""
        return cls(duration_hours=72.0, samples_per_hour=2000, seed=seed)

    @classmethod
    def fast(cls, seed: int = 0) -> "SimulationConfig":
        """A light configuration for tests and examples (20 h, 60 samples/h)."""
        return cls(duration_hours=20.0, samples_per_hour=60, seed=seed)


@dataclass(frozen=True)
class MSPCConfig(Mapped, label="mspc", omit_none=True):
    """Parameters of the PCA-based MSPC monitoring model.

    Attributes
    ----------
    n_components:
        Number of principal components retained.  ``None`` lets the model
        choose automatically from the explained-variance criterion.
    variance_to_explain:
        Fraction of variance used by the automatic component selection.
    confidence_levels:
        Confidence levels for which control limits are computed.  The paper
        draws the 95 % and 99 % limits and uses the 99 % one for detection.
    detection_confidence:
        The confidence level used by the detection rule.
    consecutive_violations:
        Number of consecutive above-limit observations required to flag an
        anomaly (three in the paper).
    limit_method:
        ``"theoretical"`` for F / weighted chi-squared limits or
        ``"percentile"`` for empirical percentile limits on calibration data.
    """

    n_components: Optional[int] = None
    variance_to_explain: float = 0.90
    confidence_levels: Tuple[float, ...] = (0.95, 0.99)
    detection_confidence: float = 0.99
    consecutive_violations: int = 3
    limit_method: str = "theoretical"

    def __post_init__(self) -> None:
        if self.n_components is not None and self.n_components < 1:
            raise ConfigurationError("n_components must be >= 1 or None")
        if not 0.0 < self.variance_to_explain <= 1.0:
            raise ConfigurationError("variance_to_explain must be in (0, 1]")
        if not self.confidence_levels:
            raise ConfigurationError("confidence_levels must not be empty")
        for level in self.confidence_levels:
            if not 0.0 < level < 1.0:
                raise ConfigurationError(
                    f"confidence level {level} must be in (0, 1)"
                )
        if not 0.0 < self.detection_confidence < 1.0:
            raise ConfigurationError("detection_confidence must be in (0, 1)")
        if self.detection_confidence not in self.confidence_levels:
            raise ConfigurationError(
                "detection_confidence must be one of confidence_levels"
            )
        if self.consecutive_violations < 1:
            raise ConfigurationError("consecutive_violations must be >= 1")
        if self.limit_method not in ("theoretical", "percentile"):
            raise ConfigurationError(
                "limit_method must be 'theoretical' or 'percentile'"
            )


    @classmethod
    def paper_settings(cls) -> "MSPCConfig":
        """Settings matching the paper (99 % detection, 3 consecutive points)."""
        return cls()


@dataclass(frozen=True)
class ParallelConfig(Mapped, label="parallel", omit_none=True):
    """How a multi-run campaign is executed.

    Every campaign path steps its pending runs through the vectorized
    lockstep kernel (:mod:`repro.batch`), ``batch_size`` runs per loop.
    Per-run seeds are derived before dispatch, so results are
    bitwise-identical whatever the worker count, batch size or chunking.

    Attributes
    ----------
    n_workers:
        Number of worker processes.  ``None`` uses ``os.cpu_count()``.
        A chunk's pending runs are split evenly over a process pool of this
        size, in batches of at most the batch width; one pending run, and
        every chunk at ``n_workers = 1``, runs in-process.  On platforms
        whose multiprocessing start method is ``spawn`` (Windows, macOS),
        scripts that trigger campaigns at import time need the usual
        ``if __name__ == "__main__":`` guard — or ``n_workers = 1``.
    batch_size:
        Most runs stepped together per lockstep batch, in every campaign:
        calibration, scenario, live and response runs.  Larger batches
        amortize more interpreter overhead but hold more in-flight memory:
        a worker holds a batch's trajectories, about 122 MB per run at
        72 h x 2000 samples/h, and a response campaign each run's
        live-monitor window.  ``None`` uses :attr:`DEFAULT_BATCH_SIZE`,
        narrowed for long runs so a batch holds at most
        :attr:`DEFAULT_BATCH_SAMPLES` samples per view (see
        :meth:`batch_width`): 4 runs at that fidelity, 16 at the lighter
        presets.
    cache_dir:
        Directory of the on-disk result cache.  ``None`` disables caching.
        Cache entries are keyed by (scenario, simulation config, seed,
        code version), so a re-run only simulates what changed.
    cache_enabled:
        Master switch for the cache; ignored when ``cache_dir`` is ``None``.
    cache_max_bytes:
        Size cap of the on-disk cache.  After a campaign finishes, the
        oldest entries are evicted until the cache fits the cap.  ``None``
        disables the size policy.
    cache_max_age:
        Age cap of cache entries, in seconds.  Entries older than this are
        evicted after a campaign finishes.  ``None`` disables the age policy.
    chunk_size:
        Number of runs loaded/simulated and analyzed per chunk of a
        streaming campaign.  Peak memory of a streaming campaign is
        proportional to this value, not to the campaign size.  ``None``
        picks :meth:`simulation_chunk_size`: one full batch per worker, so
        every worker stays busy.
    """

    #: Default rows per lockstep batch.
    DEFAULT_BATCH_SIZE: ClassVar[int] = 16
    #: Most samples per view one batch of the default width holds: 4 runs
    #: at the paper's 72 h x 2000 samples/h, about 490 MB of float64
    #: trajectories (two views of 53 columns).
    DEFAULT_BATCH_SAMPLES: ClassVar[int] = 4 * 72 * 2000

    n_workers: Optional[int] = None
    cache_dir: Optional[str] = None
    cache_enabled: bool = True
    cache_max_bytes: Optional[int] = None
    cache_max_age: Optional[float] = None
    chunk_size: Optional[int] = None
    batch_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1 or None")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1 or None")
        if self.cache_max_bytes is not None and self.cache_max_bytes < 0:
            raise ConfigurationError("cache_max_bytes must be >= 0 or None")
        if self.cache_max_age is not None and self.cache_max_age < 0:
            raise ConfigurationError("cache_max_age must be >= 0 or None")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1 or None")

    @property
    def resolved_workers(self) -> int:
        """The effective worker count (``n_workers`` or the CPU count)."""
        if self.n_workers is not None:
            return int(self.n_workers)
        return os.cpu_count() or 1

    @property
    def caching(self) -> bool:
        """Whether the on-disk result cache is active."""
        return self.cache_enabled and self.cache_dir is not None

    @property
    def has_eviction_policy(self) -> bool:
        """Whether any cache eviction policy (size or age) is configured."""
        return self.cache_max_bytes is not None or self.cache_max_age is not None

    def batch_width(self, simulation: Optional["SimulationConfig"] = None) -> int:
        """Rows per lockstep batch of ``simulation``'s runs.

        ``batch_size`` when set.  Otherwise :attr:`DEFAULT_BATCH_SIZE`,
        narrowed (to no fewer than one run) so the batch holds at most
        :attr:`DEFAULT_BATCH_SAMPLES` samples per view — of trajectories,
        or of a response run's live-monitor window; ``None`` stands for runs
        short enough for the full default width.
        """
        if self.batch_size is not None:
            return int(self.batch_size)
        if simulation is None:
            return self.DEFAULT_BATCH_SIZE
        fit = self.DEFAULT_BATCH_SAMPLES // max(1, simulation.total_samples)
        return max(1, min(self.DEFAULT_BATCH_SIZE, fit))

    @property
    def resolved_chunk_size(self) -> int:
        """``chunk_size``, or 2x workers.

        The default scoring chunk of a bare
        :meth:`~repro.experiments.analysis.AnalysisEngine.map` call.
        Campaigns simulate and score in chunks of
        :meth:`simulation_chunk_size` instead.
        """
        if self.chunk_size is not None:
            return int(self.chunk_size)
        return 2 * self.resolved_workers

    def simulation_chunk_size(
        self, simulation: Optional["SimulationConfig"] = None
    ) -> int:
        """Specs per chunk of a streaming campaign of ``simulation``'s runs
        and of the engine's fan-out.

        ``chunk_size``, or one full batch of :meth:`batch_width` per worker
        (at least two runs per worker) — a smaller chunk would narrow the
        lockstep batches and erase the kernel's per-row saving.
        """
        if self.chunk_size is not None:
            return int(self.chunk_size)
        return max(2, self.batch_width(simulation)) * self.resolved_workers

    def with_workers(self, n_workers: Optional[int]) -> "ParallelConfig":
        """Return a copy of this configuration with a different worker count."""
        return replace(self, n_workers=n_workers)

    def with_cache_dir(self, cache_dir: Optional[str]) -> "ParallelConfig":
        """Return a copy of this configuration with a different cache directory."""
        return replace(self, cache_dir=None if cache_dir is None else str(cache_dir))


    @classmethod
    def serial(cls, cache_dir: Optional[str] = None) -> "ParallelConfig":
        """One worker: every chunk steps in-process."""
        return cls(n_workers=1, cache_dir=cache_dir)


@dataclass(frozen=True)
class EarlyStopPolicy(Mapped, label="early_stop", omit_none=True):
    """When a live-monitored run may stop simulating.

    A run with this policy attached terminates ``grace_samples`` samples
    after the live monitor confirms a detection (the consecutive-violation
    rule firing at or after the anomaly onset, on either data view).  The
    grace window keeps enough post-detection samples alive for the on-alarm
    oMEDA diagnosis and for any post-hoc re-analysis of the truncated run;
    detections themselves are unaffected, because the truncation point is
    strictly after the detection sample.

    Attributes
    ----------
    grace_samples:
        Samples simulated beyond the confirming sample before the run stops.
    min_samples:
        Lower bound on the run length in samples; a run never stops before
        this many samples have been recorded, however early the detection.
    """

    grace_samples: int = 25
    min_samples: int = 0

    def __post_init__(self) -> None:
        if self.grace_samples < 0:
            raise ConfigurationError("grace_samples must be >= 0")
        if self.min_samples < 0:
            raise ConfigurationError("min_samples must be >= 0")



@dataclass(frozen=True)
class LiveConfig(Mapped, label="live", omit_none=True):
    """The ``[live]`` section of a campaign spec: online co-simulation
    monitoring.

    Attributes
    ----------
    enabled:
        Whether campaign runs are monitored live (sample-by-sample MSPC
        scoring while they simulate).  Live scoring with early stopping
        disabled is a pure observer: results are bitwise-identical to the
        batch path.
    early_stop:
        Whether anomalous runs terminate once the live monitor confirms a
        detection (see :class:`EarlyStopPolicy`).  Ignored when ``enabled``
        is ``False``.
    grace_samples / min_samples:
        The early-stop policy knobs, see :class:`EarlyStopPolicy`.
    """

    enabled: bool = False
    early_stop: bool = True
    # Mirrored policy knobs take their defaults from EarlyStopPolicy itself
    # (dataclass defaults are class attributes), so the two can never drift.
    grace_samples: int = EarlyStopPolicy.grace_samples
    min_samples: int = EarlyStopPolicy.min_samples

    def __post_init__(self) -> None:
        # Delegate bounds validation to the policy the knobs describe —
        # one rule set, enforced identically however the policy is built.
        EarlyStopPolicy(
            grace_samples=self.grace_samples, min_samples=self.min_samples
        )

    def policy(self) -> Optional[EarlyStopPolicy]:
        """The early-stop policy this section configures (``None`` = off)."""
        if not (self.enabled and self.early_stop):
            return None
        return EarlyStopPolicy(
            grace_samples=self.grace_samples, min_samples=self.min_samples
        )

    @property
    def is_default(self) -> bool:
        """Whether this section matches the defaults (and can be omitted)."""
        return self == LiveConfig()



@dataclass(frozen=True)
class ServiceConfig(Mapped, label="service", omit_none=True):
    """The ``[service]`` section of a campaign spec: distributed execution.

    Configures how a campaign is executed through the
    :mod:`repro.service` coordinator/worker architecture instead of the
    in-process engine.  The section is purely operational — like
    ``[parallel]`` it never changes what a campaign computes, only where
    and how its runs are simulated.

    Attributes
    ----------
    host / port:
        Where the campaign coordinator listens (and where
        :meth:`~repro.api.session.Session.submit` connects).  The service
        is unauthenticated: bind to loopback or a trusted LAN only.
    lease_seconds:
        How long a claimed chunk stays leased to a worker without a
        heartbeat before the coordinator reclaims it for another worker.
    heartbeat_seconds:
        How often a busy worker renews its lease.  Must leave room for at
        least two missed beats inside the lease window, so one delayed
        heartbeat cannot forfeit a healthy worker's chunk.
    poll_seconds:
        How long an idle worker (or a polling submitter) sleeps between
        requests to the coordinator.
    chunk_size:
        Runs per claimable chunk.  ``None`` uses the execution plan's
        ``chunk_size``; without one, a batch of the plan's ``batch_size``
        per worker when it sets one, so a worker claims whole lockstep
        batches, and two runs per worker otherwise, so a campaign spreads
        over several service workers whatever the default batch width.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    lease_seconds: float = 60.0
    heartbeat_seconds: float = 15.0
    poll_seconds: float = 0.5
    chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if not str(self.host):
            raise ConfigurationError("service host must be non-empty")
        if not 1 <= self.port <= 65535:
            raise ConfigurationError("service port must be in [1, 65535]")
        if self.lease_seconds <= 0:
            raise ConfigurationError("lease_seconds must be positive")
        if self.heartbeat_seconds <= 0:
            raise ConfigurationError("heartbeat_seconds must be positive")
        if self.heartbeat_seconds * 2 > self.lease_seconds:
            raise ConfigurationError(
                "lease_seconds must cover at least two heartbeat intervals "
                f"(lease {self.lease_seconds:g} s, heartbeat every "
                f"{self.heartbeat_seconds:g} s)"
            )
        if self.poll_seconds <= 0:
            raise ConfigurationError("poll_seconds must be positive")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1 or None")

    @property
    def url(self) -> str:
        """The coordinator's base URL."""
        return f"http://{self.host}:{self.port}"

    @property
    def is_default(self) -> bool:
        """Whether this section matches the defaults (and can be omitted)."""
        return self == ServiceConfig()

    def resolved_chunk_size(self, parallel: "ParallelConfig") -> int:
        """Runs per claimable chunk under a given execution plan."""
        if self.chunk_size is not None:
            return int(self.chunk_size)
        if parallel.chunk_size is not None:
            return int(parallel.chunk_size)
        return max(2, parallel.batch_size or 2) * parallel.resolved_workers



@dataclass(frozen=True)
class GatewayConfig(Mapped, label="gateway", omit_none=True):
    """The ``[gateway]`` section of a campaign spec: streaming detection.

    Configures the :mod:`repro.gateway` server — the multi-tenant
    streaming front-end that scores thousands of concurrent plant streams
    against one calibrated analyzer.  Like ``[service]`` the section is
    purely operational: it never changes what any stream's monitor
    computes, only how samples are transported and batched.

    Attributes
    ----------
    host / port:
        Where the gateway's HTTP operations surface listens (health,
        metrics, per-stream queries, sample POSTs).  ``port = 0`` binds an
        ephemeral port (useful in tests).  Unauthenticated — bind to
        loopback or a trusted LAN only, like :class:`ServiceConfig`.
    ingest_port:
        Where the newline-JSON TCP ingest listener binds (``0`` for
        ephemeral).  Feeding through TCP avoids per-sample HTTP overhead.
    max_streams:
        Pool capacity: opening a stream beyond it is refused (and the
        readiness probe reports the pool as full).
    scoring_batch_size:
        Upper bound on rows packed into one cross-stream
        :meth:`~repro.mspc.model.MSPCMonitor.statistics` call.
    flush_interval_seconds:
        How often the background flusher scores pending samples (a
        client's own feed also flushes inline when its buffer fills).
    idle_timeout_seconds:
        Streams with no sample for this long are reaped and their pool
        slot freed.  ``0`` disables reaping (TOML has no null, so the
        sentinel keeps the section round-trippable).
    max_pending_samples:
        Per-stream bound on buffered unscored samples — the backpressure
        knob.  A feed that fills the buffer triggers an inline flush
        instead of growing it, so gateway memory stays bounded.
    """

    host: str = "127.0.0.1"
    port: int = 8790
    ingest_port: int = 8791
    max_streams: int = 4096
    scoring_batch_size: int = 256
    flush_interval_seconds: float = 0.05
    idle_timeout_seconds: float = 300.0
    max_pending_samples: int = 512

    def __post_init__(self) -> None:
        if not str(self.host):
            raise ConfigurationError("gateway host must be non-empty")
        for label, value in (("port", self.port), ("ingest_port", self.ingest_port)):
            if not 0 <= value <= 65535:
                raise ConfigurationError(f"gateway {label} must be in [0, 65535]")
        if self.port != 0 and self.port == self.ingest_port:
            raise ConfigurationError(
                "gateway port and ingest_port must differ (both non-ephemeral)"
            )
        if self.max_streams < 1:
            raise ConfigurationError("max_streams must be >= 1")
        if self.scoring_batch_size < 1:
            raise ConfigurationError("scoring_batch_size must be >= 1")
        if self.flush_interval_seconds <= 0:
            raise ConfigurationError("flush_interval_seconds must be positive")
        if self.idle_timeout_seconds < 0:
            raise ConfigurationError(
                "idle_timeout_seconds must be >= 0 (0 disables reaping)"
            )
        if self.max_pending_samples < 1:
            raise ConfigurationError("max_pending_samples must be >= 1")

    @property
    def url(self) -> str:
        """The operations surface's base URL."""
        return f"http://{self.host}:{self.port}"

    @property
    def idle_timeout(self) -> Optional[float]:
        """The idle timeout, or ``None`` when reaping is disabled."""
        return None if self.idle_timeout_seconds == 0 else self.idle_timeout_seconds

    @property
    def is_default(self) -> bool:
        """Whether this section matches the defaults (and can be omitted)."""
        return self == GatewayConfig()



@dataclass(frozen=True)
class ObsConfig(Mapped, label="obs", omit_none=True):
    """The ``[obs]`` section of a campaign spec: observability.

    Configures the :mod:`repro.obs` subsystem — span tracing, shared
    metrics and structured JSON logging.  Like ``[parallel]`` and
    ``[service]`` the section is purely operational: it never changes
    what a campaign computes (results with obs on are bitwise-identical
    to results with obs off, pinned by ``benchmarks/test_bench_obs.py``),
    and it defaults **off**, in which state the instrumented hot paths
    take no locks and allocate nothing.

    Attributes
    ----------
    enabled:
        Master switch.  Off (the default) parks the whole subsystem:
        spans are no-ops, loggers carry a ``NullHandler``.
    trace:
        Whether spans are collected.  Implied by ``trace_path``.
    trace_path:
        Where the Chrome ``trace_event`` JSON is written after a campaign
        (``run_campaign.py --trace PATH`` sets this).  ``None`` keeps the
        trace in memory only (``Tracer.records()`` / ``format_summary()``).
    log_level:
        Threshold of the JSON-lines log: ``"debug"``, ``"info"``,
        ``"warning"`` or ``"error"``.
    log_path:
        File the JSON log lines append to; ``None`` writes to stderr.
    """

    enabled: bool = False
    trace: bool = False
    trace_path: Optional[str] = None
    log_level: str = "info"
    log_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.log_level not in ("debug", "info", "warning", "error"):
            raise ConfigurationError(
                "log_level must be 'debug', 'info', 'warning' or 'error'"
            )
        if self.trace_path is not None and not str(self.trace_path):
            raise ConfigurationError("trace_path must be non-empty or None")
        if self.log_path is not None and not str(self.log_path):
            raise ConfigurationError("log_path must be non-empty or None")

    @property
    def tracing(self) -> bool:
        """Whether spans are collected (``trace`` or a ``trace_path``)."""
        return self.enabled and (self.trace or self.trace_path is not None)

    @property
    def is_default(self) -> bool:
        """Whether this section matches the defaults (and can be omitted)."""
        return self == ObsConfig()

    def with_trace_path(self, trace_path: Optional[str]) -> "ObsConfig":
        """An enabled copy of this config writing its trace to a file."""
        return replace(
            self,
            enabled=True,
            trace=True,
            trace_path=None if trace_path is None else str(trace_path),
        )



@dataclass(frozen=True)
class ExperimentConfig(Mapped, label="experiment", omit_none=True):
    """Parameters of an evaluation campaign.

    Attributes
    ----------
    n_calibration_runs:
        Number of normal-operation runs used to build the MSPC model
        (30 in the paper).
    n_runs_per_scenario:
        Number of repetitions of each anomalous scenario (10 in the paper).
    anomaly_start_hour:
        Simulation hour at which every anomaly (disturbance or attack)
        begins (hour 10 in the paper).
    simulation:
        The per-run simulation configuration.
    mspc:
        The monitoring-model configuration.
    parallel:
        How the campaign's runs are executed (worker count, batch size,
        cache).
        The default is a parallel, cache-less engine; results do not depend
        on this setting.
    seed:
        Root seed of the campaign; per-run seeds are derived from it.
    """

    n_calibration_runs: int = 30
    n_runs_per_scenario: int = 10
    anomaly_start_hour: float = 10.0
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    mspc: MSPCConfig = field(default_factory=MSPCConfig)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_calibration_runs < 1:
            raise ConfigurationError("n_calibration_runs must be >= 1")
        if self.n_runs_per_scenario < 1:
            raise ConfigurationError("n_runs_per_scenario must be >= 1")
        if self.anomaly_start_hour < 0:
            raise ConfigurationError("anomaly_start_hour must be >= 0")
        if self.anomaly_start_hour >= self.simulation.duration_hours:
            raise ConfigurationError(
                "anomaly_start_hour must fall inside the simulation horizon"
            )

    def with_parallel(self, parallel: ParallelConfig) -> "ExperimentConfig":
        """Return a copy of this configuration with a different execution plan."""
        return replace(self, parallel=parallel)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Return a copy of this configuration with a different root seed."""
        return replace(self, seed=int(seed))


    @classmethod
    def paper_settings(cls, seed: int = 0) -> "ExperimentConfig":
        """The full-fidelity campaign from the paper."""
        return cls(
            n_calibration_runs=30,
            n_runs_per_scenario=10,
            anomaly_start_hour=10.0,
            simulation=SimulationConfig.paper_settings(seed=seed),
            mspc=MSPCConfig.paper_settings(),
            seed=seed,
        )

    @classmethod
    def fast(cls, seed: int = 0) -> "ExperimentConfig":
        """A light campaign for tests, examples and benchmarks."""
        return cls(
            n_calibration_runs=4,
            n_runs_per_scenario=2,
            anomaly_start_hour=5.0,
            simulation=SimulationConfig.fast(seed=seed),
            mspc=MSPCConfig.paper_settings(),
            seed=seed,
        )

    @classmethod
    def smoke(cls, seed: int = 2016) -> "ExperimentConfig":
        """The smallest campaign that still reproduces the paper's claims.

        Shared by the campaign CLI, ``examples/full_evaluation.py`` and the
        benchmark harness so the "small but faithful" settings live in one
        place.
        """
        return cls(
            n_calibration_runs=3,
            n_runs_per_scenario=2,
            anomaly_start_hour=6.0,
            simulation=SimulationConfig(
                duration_hours=14.0, samples_per_hour=30, seed=seed
            ),
            mspc=MSPCConfig.paper_settings(),
            seed=seed,
        )
