"""Univariate Shewhart monitoring — the baseline MSPC is compared against.

Classical univariate statistical process control puts one Shewhart chart on
every measured variable and flags an anomaly when any variable leaves its own
``mean ± k·sigma`` band.  The paper's multivariate approach subsumes this
baseline: the D and Q statistics capture changes in the *relations between*
variables that per-variable charts cannot see, and produce two charts instead
of M.  The baseline is provided so the benchmarks can quantify that contrast
(number of charts, detection delay, diagnosis ambiguity) on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy import special

from repro.common.exceptions import ConfigurationError, NotFittedError
from repro.common.validation import as_2d_array, check_matching_columns
from repro.datasets.dataset import ProcessDataset
from repro.mspc.charts import detect_anomaly

__all__ = ["UnivariateShewhartMonitor", "UnivariateMonitoringResult"]

_DataLike = Union[ProcessDataset, np.ndarray]


def _values_names_times(data: _DataLike):
    if isinstance(data, ProcessDataset):
        return data.values, data.variable_names, data.timestamps
    array = np.asarray(data, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    return array, None, None


@dataclass
class UnivariateMonitoringResult:
    """Per-variable violation information for one monitored window."""

    variable_names: Tuple[str, ...]
    violations: np.ndarray          # boolean (N, M)
    timestamps: Optional[np.ndarray]
    consecutive_violations: int

    @property
    def any_violation(self) -> np.ndarray:
        """Boolean per-observation mask: any variable outside its band."""
        return self.violations.any(axis=1)

    def detection_index(self) -> Optional[int]:
        """Index where any single variable fires the consecutive-violation rule."""
        indices = []
        for column in range(self.violations.shape[1]):
            index = detect_anomaly(
                self.violations[:, column].astype(float),
                0.5,
                self.consecutive_violations,
            )
            if index is not None:
                indices.append(index)
        return min(indices) if indices else None

    def detection_time(self) -> Optional[float]:
        """Timestamp of the detection, or ``None``."""
        index = self.detection_index()
        if index is None:
            return None
        if self.timestamps is None:
            return float(index)
        return float(self.timestamps[index])

    def violating_variables(self) -> Tuple[str, ...]:
        """Variables that violated their band at least once, ordered by count."""
        counts = self.violations.sum(axis=0)
        order = np.argsort(-counts)
        return tuple(self.variable_names[i] for i in order if counts[i] > 0)


class UnivariateShewhartMonitor:
    """One Shewhart chart per variable (the non-multivariate baseline).

    Parameters
    ----------
    confidence:
        Two-sided confidence level of each per-variable band (0.99 puts the
        band at roughly ±2.58 sigma).
    consecutive_violations:
        Number of consecutive out-of-band observations (on the same variable)
        required to flag an anomaly — kept identical to the MSPC rule so the
        comparison is fair.
    """

    def __init__(self, confidence: float = 0.99, consecutive_violations: int = 3):
        if not 0.0 < confidence < 1.0:
            raise ConfigurationError("confidence must be in (0, 1)")
        if consecutive_violations < 1:
            raise ConfigurationError("consecutive_violations must be >= 1")
        self.confidence = float(confidence)
        self.consecutive_violations = int(consecutive_violations)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._names: Optional[Tuple[str, ...]] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._mean is not None

    @property
    def n_charts(self) -> int:
        """Number of univariate charts (one per variable)."""
        self._require_fitted()
        return self._mean.shape[0]

    def _require_fitted(self) -> None:
        if self._mean is None:
            raise NotFittedError("UnivariateShewhartMonitor must be fitted first")

    def fit(self, calibration: _DataLike) -> "UnivariateShewhartMonitor":
        """Learn per-variable means and control bands from calibration data."""
        values, names, _ = _values_names_times(calibration)
        values = as_2d_array(values, "calibration data")
        self._mean = values.mean(axis=0)
        std = values.std(axis=0, ddof=1) if values.shape[0] > 1 else np.zeros(values.shape[1])
        self._std = np.where(std > 1e-12, std, 1.0)
        if names is not None:
            self._names = tuple(names)
        else:
            self._names = tuple(f"VAR({i + 1})" for i in range(values.shape[1]))
        return self

    def limits(self) -> Dict[str, Tuple[float, float]]:
        """Per-variable (lower, upper) control limits."""
        self._require_fitted()
        # ndtri is the standard normal quantile, scipy.stats.norm.ppf.
        z = special.ndtri(0.5 + self.confidence / 2.0)
        lower = self._mean - z * self._std
        upper = self._mean + z * self._std
        return {
            name: (float(lower[i]), float(upper[i]))
            for i, name in enumerate(self._names)
        }

    def monitor(self, data: _DataLike) -> UnivariateMonitoringResult:
        """Evaluate every per-variable chart on new data."""
        self._require_fitted()
        values, names, timestamps = _values_names_times(data)
        values = as_2d_array(values, "data")
        check_matching_columns(self._mean.shape[0], values, "data")
        if names is not None and tuple(names) != self._names:
            raise ConfigurationError(
                "monitored data variables do not match the calibration variables"
            )
        z = special.ndtri(0.5 + self.confidence / 2.0)
        deviation = np.abs(values - self._mean) / self._std
        return UnivariateMonitoringResult(
            variable_names=self._names,
            violations=deviation > z,
            timestamps=timestamps,
            consecutive_violations=self.consecutive_violations,
        )
