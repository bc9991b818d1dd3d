"""Control limits for the D and Q statistics.

Two families of limits are provided:

* **theoretical** limits — the F-distribution-based limit of Tracy, Young and
  Mason for Hotelling's T^2, and Box's weighted chi-squared approximation
  (equivalent in practice to the Jackson-Mudholkar limit) for the SPE;
* **percentile** limits — empirical percentiles of the calibration statistics,
  which make no distributional assumption.

The paper draws both the 95 % and the 99 % limits on its control charts and
uses the 99 % one for detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

import numpy as np
from scipy import special

from repro.common.exceptions import ConfigurationError
from repro.common.validation import as_1d_array, check_probability
from repro.mspc.pca import PCAModel

__all__ = [
    "t2_limit_theoretical",
    "spe_limit_theoretical",
    "percentile_limit",
    "ControlLimits",
]


def t2_limit_theoretical(n_samples: int, n_components: int, confidence: float) -> float:
    """F-based control limit for Hotelling's T^2 (phase-II monitoring).

    ``UCL = A (N^2 - 1) / (N (N - A)) * F_{1-alpha}(A, N - A)``
    """
    check_probability(confidence, "confidence")
    if n_samples <= n_components:
        raise ConfigurationError(
            "the number of calibration samples must exceed the number of components"
        )
    a = float(n_components)
    n = float(n_samples)
    # ``scipy.stats.f.ppf(confidence, a, n - a)``, without importing
    # ``scipy.stats`` (pinned against it in tests/test_mspc_limits.py).
    f_value = special.fdtri(a, n - a, confidence)
    return a * (n ** 2 - 1.0) / (n * (n - a)) * f_value


def spe_limit_theoretical(residual_eigenvalues, confidence: float) -> float:
    """Box's weighted chi-squared control limit for the SPE.

    With ``theta_1 = sum(lambda)`` and ``theta_2 = sum(lambda^2)`` over the
    discarded eigenvalues, the SPE is approximately ``g * chi^2_h`` with
    ``g = theta_2 / theta_1`` and ``h = theta_1^2 / theta_2``.
    """
    check_probability(confidence, "confidence")
    eigenvalues = np.asarray(residual_eigenvalues, dtype=float).ravel()
    eigenvalues = eigenvalues[eigenvalues > 1e-15]
    if eigenvalues.size == 0:
        # A perfect model: any non-zero residual is out of control.
        return 0.0
    theta1 = float(eigenvalues.sum())
    theta2 = float((eigenvalues ** 2).sum())
    g = theta2 / theta1
    h = theta1 ** 2 / theta2
    # ``scipy.stats.chi2.ppf(confidence, h)``, without importing
    # ``scipy.stats``; the operand order keeps the product bit for bit.
    return g * (2.0 * special.gammaincinv(h / 2.0, confidence))


def percentile_limit(calibration_statistics, confidence: float) -> float:
    """Empirical percentile limit on calibration statistics."""
    check_probability(confidence, "confidence")
    values = as_1d_array(calibration_statistics, "calibration statistics")
    return float(np.percentile(values, 100.0 * confidence))


@dataclass(frozen=True)
class ControlLimits:
    """Control limits of one monitoring statistic at several confidence levels."""

    statistic: str
    limits: Mapping[float, float]

    def __post_init__(self) -> None:
        if not self.limits:
            raise ConfigurationError("at least one control limit is required")

    def at(self, confidence: float) -> float:
        """The limit at a given confidence level."""
        try:
            return float(self.limits[confidence])
        except KeyError:
            raise KeyError(
                f"no {self.statistic} limit computed for confidence {confidence}"
            ) from None

    @property
    def confidence_levels(self) -> Tuple[float, ...]:
        """Confidence levels for which limits are available (ascending)."""
        return tuple(sorted(self.limits))

    @classmethod
    def for_t2(
        cls,
        model: PCAModel,
        calibration_values,
        confidence_levels: Iterable[float],
        method: str = "theoretical",
    ) -> "ControlLimits":
        """Build T^2 limits from a fitted PCA model and calibration statistics."""
        limits: Dict[float, float] = {}
        for confidence in confidence_levels:
            if method == "theoretical":
                limits[confidence] = t2_limit_theoretical(
                    model.n_samples_, model.n_components, confidence
                )
            elif method == "percentile":
                limits[confidence] = percentile_limit(calibration_values, confidence)
            else:
                raise ConfigurationError(f"unknown limit method {method!r}")
        return cls("D", limits)

    @classmethod
    def for_spe(
        cls,
        model: PCAModel,
        calibration_values,
        confidence_levels: Iterable[float],
        method: str = "theoretical",
    ) -> "ControlLimits":
        """Build SPE limits from a fitted PCA model and calibration statistics."""
        limits: Dict[float, float] = {}
        for confidence in confidence_levels:
            if method == "theoretical":
                limits[confidence] = spe_limit_theoretical(
                    model.residual_eigenvalues_, confidence
                )
            elif method == "percentile":
                limits[confidence] = percentile_limit(calibration_values, confidence)
            else:
                raise ConfigurationError(f"unknown limit method {method!r}")
        return cls("Q", limits)
