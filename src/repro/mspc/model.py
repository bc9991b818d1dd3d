"""The high-level MSPC monitor: calibration, monitoring, detection, diagnosis.

:class:`MSPCMonitor` ties the pieces of the package together the way the
paper uses them:

1. **Calibration** — :meth:`MSPCMonitor.fit` auto-scales the calibration data,
   fits the PCA model and derives the control limits of the D and Q statistics
   at the configured confidence levels.
2. **Monitoring** — :meth:`MSPCMonitor.monitor` evaluates both statistics on
   new data and applies the three-consecutive-violations detection rule on
   either chart, producing a :class:`MonitoringResult`.
3. **Diagnosis** — :meth:`MSPCMonitor.diagnose` computes the oMEDA vector for
   a group of observations (by default, the first observations that exceeded
   the control limits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.codec import Mapped
from repro.common.config import MSPCConfig
from repro.common.exceptions import DataShapeError, NotFittedError
from repro.datasets.dataset import ProcessDataset
from repro.mspc.charts import ControlChart
from repro.mspc.limits import ControlLimits
from repro.mspc.omeda import omeda_contributions
from repro.mspc.pca import PCAModel
from repro.mspc.preprocessing import AutoScaler
from repro.mspc.statistics import hotelling_t2, squared_prediction_error

__all__ = ["MSPCMonitor", "MonitoringResult", "OmedaResult"]

_DataLike = Union[ProcessDataset, np.ndarray]


def _values_and_names(data: _DataLike) -> Tuple[np.ndarray, Optional[Tuple[str, ...]], Optional[np.ndarray]]:
    if isinstance(data, ProcessDataset):
        return data.values, data.variable_names, data.timestamps
    array = np.asarray(data, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    return array, None, None


@dataclass
class OmedaResult(Mapped, label="omeda"):
    """Per-variable oMEDA contributions for a group of observations."""

    variable_names: Tuple[str, ...]
    contributions: np.ndarray
    observation_indices: Tuple[int, ...]

    def as_dict(self) -> Dict[str, float]:
        """Mapping from variable name to its contribution."""
        return {
            name: float(value)
            for name, value in zip(self.variable_names, self.contributions)
        }

    def top_variables(self, count: int = 5) -> Tuple[str, ...]:
        """The ``count`` variables with the largest absolute contribution."""
        order = np.argsort(-np.abs(self.contributions))
        return tuple(self.variable_names[i] for i in order[:count])

    def dominant_variable(self) -> str:
        """The single variable with the largest absolute contribution."""
        return self.top_variables(1)[0]

    def dominance_ratio(self) -> float:
        """|largest| / |second largest| contribution (1.0 when M == 1).

        A high ratio means the diagnosis clearly singles out one variable; a
        ratio close to 1 means no variable stands out (the DoS situation in
        the paper).
        """
        magnitudes = np.sort(np.abs(self.contributions))[::-1]
        if magnitudes.size < 2 or magnitudes[1] == 0:
            return float("inf") if magnitudes[0] > 0 else 1.0
        return float(magnitudes[0] / magnitudes[1])

@dataclass
class MonitoringResult:
    """Outcome of monitoring one data window with a fitted MSPC model."""

    d_chart: ControlChart
    q_chart: ControlChart
    detection_confidence: float
    consecutive_violations: int

    @property
    def charts(self) -> Tuple[ControlChart, ControlChart]:
        """Both control charts (D first, Q second)."""
        return (self.d_chart, self.q_chart)

    @property
    def detection_index(self) -> Optional[int]:
        """Earliest index at which either chart fires the detection rule."""
        indices = [
            chart.detection_index(self.detection_confidence, self.consecutive_violations)
            for chart in self.charts
        ]
        indices = [index for index in indices if index is not None]
        return min(indices) if indices else None

    @property
    def detection_time(self) -> Optional[float]:
        """Earliest timestamp at which either chart fires the detection rule."""
        return self.detection_time_after(None)

    def detection_time_after(self, start_time: Optional[float]) -> Optional[float]:
        """Earliest detection at or after ``start_time`` on either chart.

        Detections that precede ``start_time`` are false alarms with respect
        to an anomaly that begins at that time and are ignored here; they can
        be inspected through :meth:`false_alarm_time`.
        """
        times = [
            chart.detection_time(
                self.detection_confidence, self.consecutive_violations, start_time
            )
            for chart in self.charts
        ]
        times = [time for time in times if time is not None]
        return min(times) if times else None

    def false_alarm_time(self, anomaly_start_time: float) -> Optional[float]:
        """Earliest detection strictly before ``anomaly_start_time`` (if any)."""
        time = self.detection_time_after(None)
        if time is not None and time < float(anomaly_start_time):
            return time
        return None

    @property
    def detected(self) -> bool:
        """Whether the detection rule fired on either chart."""
        return self.detection_index is not None

    def first_violation_indices(
        self, count: int = 3, start_time: Optional[float] = None
    ) -> np.ndarray:
        """First observations above the detection limit on either chart.

        These observations are the group handed to oMEDA for diagnosis.
        ``start_time`` restricts the search to observations at or after it;
        when it is omitted and the detection rule fired, the group is anchored
        at the start of the detected violation run, so isolated false-alarm
        points earlier in the window do not contaminate the diagnosis.
        """
        if start_time is None and self.detection_index is not None:
            anchor = max(self.detection_index - self.consecutive_violations + 1, 0)
            timestamps = self.d_chart.timestamps
            start_time = float(timestamps[anchor]) if timestamps is not None else float(anchor)
        collected = np.concatenate(
            [
                chart.first_violating_indices(
                    self.detection_confidence, count, start_time
                )
                for chart in self.charts
            ]
        )
        if collected.size == 0:
            return collected.astype(int)
        unique = np.unique(collected)
        return unique[:count]


class MSPCMonitor:
    """PCA-based MSPC model with detection and diagnosis.

    Parameters
    ----------
    config:
        Monitoring configuration (components, confidence levels, detection
        rule, limit method).  Defaults to the paper's settings.
    """

    def __init__(self, config: Optional[MSPCConfig] = None):
        self.config = config or MSPCConfig()
        self.scaler = AutoScaler()
        self.pca = PCAModel(
            n_components=self.config.n_components,
            variance_to_explain=self.config.variance_to_explain,
        )
        self._t2_limits: Optional[ControlLimits] = None
        self._spe_limits: Optional[ControlLimits] = None
        self._variable_names: Optional[Tuple[str, ...]] = None
        self._calibration_t2: Optional[np.ndarray] = None
        self._calibration_spe: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._t2_limits is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("MSPCMonitor must be fitted on calibration data first")

    @property
    def variable_names(self) -> Tuple[str, ...]:
        """Names of the monitored variables."""
        self._require_fitted()
        return self._variable_names

    @property
    def t2_limits(self) -> ControlLimits:
        """Control limits of the D-statistic."""
        self._require_fitted()
        return self._t2_limits

    @property
    def spe_limits(self) -> ControlLimits:
        """Control limits of the Q-statistic."""
        self._require_fitted()
        return self._spe_limits

    @property
    def calibration_statistics(self) -> Tuple[np.ndarray, np.ndarray]:
        """D and Q statistics of the calibration observations."""
        self._require_fitted()
        return self._calibration_t2, self._calibration_spe

    # ------------------------------------------------------------------
    def fit(self, calibration: _DataLike) -> "MSPCMonitor":
        """Calibrate the monitor on normal-operation data."""
        values, names, _ = _values_and_names(calibration)
        scaled = self.scaler.fit_transform(values)
        self.pca.fit(scaled)

        self._calibration_t2 = hotelling_t2(self.pca, scaled)
        self._calibration_spe = squared_prediction_error(self.pca, scaled)
        self._t2_limits = ControlLimits.for_t2(
            self.pca,
            self._calibration_t2,
            self.config.confidence_levels,
            self.config.limit_method,
        )
        self._spe_limits = ControlLimits.for_spe(
            self.pca,
            self._calibration_spe,
            self.config.confidence_levels,
            self.config.limit_method,
        )
        if names is not None:
            self._variable_names = tuple(names)
        else:
            self._variable_names = tuple(
                f"VAR({i + 1})" for i in range(values.shape[1])
            )
        return self

    def _check_names(self, names: Optional[Sequence[str]]) -> None:
        if names is not None and tuple(names) != self._variable_names:
            raise DataShapeError(
                "monitored data variables do not match the calibration variables"
            )

    def statistics(self, data: _DataLike) -> Tuple[np.ndarray, np.ndarray]:
        """D and Q statistic values for new observations."""
        self._require_fitted()
        values, names, _ = _values_and_names(data)
        self._check_names(names)
        scaled = self.scaler.transform(values)
        return (
            hotelling_t2(self.pca, scaled),
            squared_prediction_error(self.pca, scaled),
        )

    def monitor(self, data: _DataLike) -> MonitoringResult:
        """Evaluate both control charts on new data."""
        self._require_fitted()
        values, names, timestamps = _values_and_names(data)
        self._check_names(names)
        scaled = self.scaler.transform(values)
        t2_values = hotelling_t2(self.pca, scaled)
        spe_values = squared_prediction_error(self.pca, scaled)
        d_chart = ControlChart("D", t2_values, self._t2_limits, timestamps)
        q_chart = ControlChart("Q", spe_values, self._spe_limits, timestamps)
        return MonitoringResult(
            d_chart=d_chart,
            q_chart=q_chart,
            detection_confidence=self.config.detection_confidence,
            consecutive_violations=self.config.consecutive_violations,
        )

    def diagnose(
        self,
        data: _DataLike,
        observation_indices: Optional[Sequence[int]] = None,
        count: int = 3,
    ) -> OmedaResult:
        """oMEDA diagnosis of an anomalous group of observations.

        When ``observation_indices`` is omitted, the group defaults to the
        first ``count`` observations that exceed the detection limit in either
        chart (the paper's choice).
        """
        self._require_fitted()
        values, names, _ = _values_and_names(data)
        self._check_names(names)
        scaled = self.scaler.transform(values)

        if observation_indices is None:
            result = self.monitor(data)
            indices = result.first_violation_indices(count)
            if indices.size == 0:
                raise DataShapeError(
                    "no observation exceeds the control limits; "
                    "pass observation_indices explicitly"
                )
        else:
            indices = np.asarray(list(observation_indices), dtype=int)

        contributions = omeda_contributions(self.pca, scaled, indices, scaled.shape[0])
        return OmedaResult(
            variable_names=self._variable_names,
            contributions=contributions,
            observation_indices=tuple(int(i) for i in indices),
        )
