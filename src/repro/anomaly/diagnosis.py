"""Dual-level (controller vs. process) anomaly diagnosis.

The paper's central observation (Section V-A) is that controller-level data
alone cannot tell a disturbance from an integrity attack: IDV(6) and an attack
that closes the A feed valve look identical to the controllers.  Monitoring
the *process-level* view as well resolves the ambiguity: under a disturbance
the two views keep agreeing, whereas under an attack the injected values make
the views diverge — the controller-level oMEDA implicates the forged variable
while the process-level oMEDA implicates the variable the attacker is really
manipulating.

:class:`DualLevelAnalyzer` formalizes that comparison: it fits one MSPC model
per view, detects anomalies on both, computes the oMEDA diagnosis of each view
and classifies the event from (a) the similarity of the two diagnoses and
(b) how clearly a variable dominates each of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.codec import Mapped
from repro.common.config import MSPCConfig
from repro.common.exceptions import DataShapeError, NotFittedError
from repro.datasets.dataset import ProcessDataset
from repro.mspc.model import MonitoringResult, MSPCMonitor, OmedaResult

__all__ = [
    "AnomalyClass",
    "DiagnosisSummary",
    "DualLevelDiagnosis",
    "DualLevelAnalyzer",
    "omeda_similarity",
    "view_divergence",
]


class AnomalyClass(enum.Enum):
    """Classification of a detected anomaly."""

    NORMAL = "normal"
    DISTURBANCE = "process disturbance"
    INTEGRITY_ATTACK = "integrity attack"
    UNCLEAR = "unclear (possible DoS attack)"


def omeda_similarity(first: OmedaResult, second: OmedaResult) -> float:
    """Cosine similarity between two oMEDA vectors over the same variables."""
    if first.variable_names != second.variable_names:
        raise DataShapeError("oMEDA results cover different variable sets")
    a = np.asarray(first.contributions, dtype=float)
    b = np.asarray(second.contributions, dtype=float)
    norm = np.linalg.norm(a) * np.linalg.norm(b)
    if norm == 0:
        return 0.0
    return float(np.dot(a, b) / norm)


def view_divergence(
    controller_data: ProcessDataset, process_data: ProcessDataset
) -> Dict[str, float]:
    """Maximum absolute difference between the two views, per variable.

    In an attack-free run the controller-level and process-level recordings
    are identical and every entry is zero; under an attack the tampered
    variables diverge.  This is a forensic helper — a deployed monitor does
    not get to assume it knows which view is trustworthy — but it is useful
    for validating scenarios and for the ablation benchmarks.
    """
    if controller_data.variable_names != process_data.variable_names:
        raise DataShapeError("the two views cover different variable sets")
    length = min(controller_data.n_observations, process_data.n_observations)
    difference = np.abs(
        controller_data.values[:length] - process_data.values[:length]
    ).max(axis=0)
    return {
        name: float(value)
        for name, value in zip(controller_data.variable_names, difference)
    }


class _VerdictMixin:
    """The API shared by full diagnoses and their compact summaries.

    Aggregation code accepts either interchangeably, so the shared members
    live here — one body, two carriers.
    """

    detection_time_hours: Optional[float]
    controller_omeda: Optional[OmedaResult]
    process_omeda: Optional[OmedaResult]

    @property
    def detected(self) -> bool:
        """Whether either view detected the anomaly."""
        return self.detection_time_hours is not None

    def implicated_variables(self, count: int = 3) -> Dict[str, Tuple[str, ...]]:
        """Top implicated variables per view."""
        implicated: Dict[str, Tuple[str, ...]] = {}
        if self.controller_omeda is not None:
            implicated["controller"] = self.controller_omeda.top_variables(count)
        if self.process_omeda is not None:
            implicated["process"] = self.process_omeda.top_variables(count)
        return implicated


@dataclass
class DualLevelDiagnosis(_VerdictMixin):
    """Joint diagnosis of one run from its two data views.

    Attributes
    ----------
    controller_result / process_result:
        Monitoring results (charts and detections) per view.
    controller_omeda / process_omeda:
        oMEDA diagnoses per view (``None`` when nothing exceeded the limits).
    similarity:
        Cosine similarity between the two oMEDA vectors (``None`` when either
        diagnosis is unavailable).
    classification:
        The resulting :class:`AnomalyClass`.
    detection_time_hours:
        Earliest detection time across the two views (``None`` if undetected).
    """

    controller_result: MonitoringResult
    process_result: MonitoringResult
    controller_omeda: Optional[OmedaResult]
    process_omeda: Optional[OmedaResult]
    similarity: Optional[float]
    classification: AnomalyClass
    detection_time_hours: Optional[float]
    metadata: Dict[str, object] = field(default_factory=dict)

    def summarize(self) -> "DiagnosisSummary":
        """Strip the per-observation chart arrays, keeping the verdict.

        The summary carries everything the campaign reducers consume —
        classification, detection time, oMEDA vectors, similarity and the
        false-alarm metadata — in a few hundred bytes, so the streaming
        analysis stage can ship it across process boundaries and discard
        the full per-run monitoring charts immediately.
        """
        return DiagnosisSummary(
            controller_omeda=self.controller_omeda,
            process_omeda=self.process_omeda,
            similarity=self.similarity,
            classification=self.classification,
            detection_time_hours=self.detection_time_hours,
            metadata=dict(self.metadata),
        )


@dataclass
class DiagnosisSummary(_VerdictMixin, Mapped, label="diagnosis"):
    """The reducer-facing slice of a :class:`DualLevelDiagnosis`.

    Shares attribute names with :class:`DualLevelDiagnosis` (minus the
    per-observation ``controller_result`` / ``process_result`` charts), so
    aggregation code accepts either interchangeably.  Its mapping form
    writes every key (absent diagnoses as ``None``), so two summaries of
    the same verdict produce byte-identical JSON — the streaming gateway
    pins that stability.
    """

    controller_omeda: Optional[OmedaResult]
    process_omeda: Optional[OmedaResult]
    similarity: Optional[float]
    classification: AnomalyClass
    detection_time_hours: Optional[float]
    metadata: Dict[str, object] = field(default_factory=dict)

    def summarize(self) -> "DiagnosisSummary":
        """A summary is already its own summary (idempotent)."""
        return self

class DualLevelAnalyzer:
    """Fits and applies one MSPC model per data view.

    Parameters
    ----------
    config:
        MSPC configuration shared by both views.
    similarity_threshold:
        Cosine-similarity above which the two diagnoses are considered to
        agree (pointing to a genuine process disturbance).
    dominance_threshold:
        Minimum dominance ratio (|largest| / |second largest| oMEDA bar) for a
        diagnosis to be considered "clear"; if neither view is clear the event
        is classified as :attr:`AnomalyClass.UNCLEAR`.
    """

    def __init__(
        self,
        config: Optional[MSPCConfig] = None,
        similarity_threshold: float = 0.85,
        dominance_threshold: float = 2.0,
        divergence_threshold: float = 0.5,
        significance_fraction: float = 0.02,
    ):
        self.config = config or MSPCConfig()
        self.similarity_threshold = float(similarity_threshold)
        self.dominance_threshold = float(dominance_threshold)
        self.divergence_threshold = float(divergence_threshold)
        self.significance_fraction = float(significance_fraction)
        self.controller_monitor = MSPCMonitor(self.config)
        self.process_monitor = MSPCMonitor(self.config)

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether both per-view monitors are calibrated."""
        return self.controller_monitor.is_fitted and self.process_monitor.is_fitted

    def fit(
        self,
        controller_calibration: ProcessDataset,
        process_calibration: ProcessDataset,
    ) -> "DualLevelAnalyzer":
        """Calibrate both monitors on attack-free normal-operation data."""
        self.controller_monitor.fit(controller_calibration)
        self.process_monitor.fit(process_calibration)
        return self

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("DualLevelAnalyzer must be fitted before analysis")

    # ------------------------------------------------------------------
    def analyze(
        self,
        controller_data: ProcessDataset,
        process_data: ProcessDataset,
        diagnosis_group_size: int = 3,
        anomaly_start_hour: Optional[float] = None,
    ) -> DualLevelDiagnosis:
        """Detect, diagnose and classify one run from its two views.

        ``anomaly_start_hour`` (when known, e.g. in controlled experiments)
        restricts detection and diagnosis to observations at or after that
        time, so that sporadic false alarms during the normal stretch of the
        run do not contaminate the run-length statistics or the oMEDA group.
        """
        self._require_fitted()
        controller_result = self.controller_monitor.monitor(controller_data)
        process_result = self.process_monitor.monitor(process_data)
        return self.assemble(
            controller_data,
            process_data,
            controller_result,
            process_result,
            diagnosis_group_size=diagnosis_group_size,
            anomaly_start_hour=anomaly_start_hour,
        )

    def assemble(
        self,
        controller_data: ProcessDataset,
        process_data: ProcessDataset,
        controller_result: MonitoringResult,
        process_result: MonitoringResult,
        diagnosis_group_size: int = 3,
        anomaly_start_hour: Optional[float] = None,
    ) -> DualLevelDiagnosis:
        """Diagnose and classify from already-monitored charts.

        The second half of :meth:`analyze`, split out so callers that
        already hold per-view :class:`MonitoringResult` charts — notably the
        live monitoring subsystem, which accumulates the statistic values
        sample by sample — produce diagnoses through exactly the same code
        path as the batch API.
        """
        self._require_fitted()
        controller_omeda = self._diagnose_if_possible(
            self.controller_monitor,
            controller_data,
            controller_result,
            diagnosis_group_size,
            anomaly_start_hour,
        )
        process_omeda = self._diagnose_if_possible(
            self.process_monitor,
            process_data,
            process_result,
            diagnosis_group_size,
            anomaly_start_hour,
        )

        similarity: Optional[float] = None
        if controller_omeda is not None and process_omeda is not None:
            similarity = omeda_similarity(controller_omeda, process_omeda)

        detection_times = [
            result.detection_time_after(anomaly_start_hour)
            for result in (controller_result, process_result)
        ]
        detection_times = [time for time in detection_times if time is not None]
        detection_time = min(detection_times) if detection_times else None

        metadata: Dict[str, object] = {}
        if anomaly_start_hour is not None:
            false_alarms = [
                result.false_alarm_time(anomaly_start_hour)
                for result in (controller_result, process_result)
            ]
            false_alarms = [time for time in false_alarms if time is not None]
            metadata["false_alarm_time_hours"] = (
                min(false_alarms) if false_alarms else None
            )

        classification = self._classify(
            detection_time, controller_omeda, process_omeda, similarity
        )
        return DualLevelDiagnosis(
            controller_result=controller_result,
            process_result=process_result,
            controller_omeda=controller_omeda,
            process_omeda=process_omeda,
            similarity=similarity,
            classification=classification,
            detection_time_hours=detection_time,
            metadata=metadata,
        )

    @staticmethod
    def _diagnose_if_possible(
        monitor: MSPCMonitor,
        data: ProcessDataset,
        result: MonitoringResult,
        group_size: int,
        start_time: Optional[float] = None,
    ) -> Optional[OmedaResult]:
        indices = result.first_violation_indices(group_size, start_time)
        if indices.size == 0:
            return None
        return monitor.diagnose(data, indices)

    def view_disagreement(
        self, controller_omeda: OmedaResult, process_omeda: OmedaResult
    ) -> float:
        """Largest relative per-variable disagreement between the two diagnoses.

        Only variables whose contribution is significant (at least
        ``significance_fraction`` of the largest bar in either view) are
        considered, so that noise-level bars cannot dominate the metric.
        Identical views give 0; a variable implicated in one view but not the
        other (the signature of an attack) gives a value close to or above 1.
        """
        controller = np.asarray(controller_omeda.contributions, dtype=float)
        process = np.asarray(process_omeda.contributions, dtype=float)
        scale = max(float(np.max(np.abs(controller))), float(np.max(np.abs(process))), 1e-12)
        significant = (np.abs(controller) >= self.significance_fraction * scale) | (
            np.abs(process) >= self.significance_fraction * scale
        )
        if not np.any(significant):
            return 0.0
        magnitude = np.maximum(np.abs(controller), np.abs(process))[significant]
        difference = np.abs(controller - process)[significant]
        return float(np.max(difference / np.maximum(magnitude, 1e-12)))

    def _classify(
        self,
        detection_time: Optional[float],
        controller_omeda: Optional[OmedaResult],
        process_omeda: Optional[OmedaResult],
        similarity: Optional[float],
    ) -> AnomalyClass:
        if detection_time is None:
            return AnomalyClass.NORMAL
        if controller_omeda is None or process_omeda is None or similarity is None:
            return AnomalyClass.UNCLEAR

        controller_clear = controller_omeda.dominance_ratio() >= self.dominance_threshold
        process_clear = process_omeda.dominance_ratio() >= self.dominance_threshold
        if not controller_clear and not process_clear:
            return AnomalyClass.UNCLEAR

        # An attack makes the two views disagree: a variable implicated in one
        # view but not in the other (or with opposite sign), a different
        # dominant variable, or diagnosis vectors pointing in clearly
        # different directions.  A genuine process disturbance leaves the two
        # views in agreement, because the controllers see exactly what the
        # process experiences.
        if self.view_disagreement(controller_omeda, process_omeda) > self.divergence_threshold:
            return AnomalyClass.INTEGRITY_ATTACK
        if controller_omeda.dominant_variable() != process_omeda.dominant_variable():
            return AnomalyClass.INTEGRITY_ATTACK
        if similarity >= self.similarity_threshold:
            return AnomalyClass.DISTURBANCE
        return AnomalyClass.INTEGRITY_ATTACK
