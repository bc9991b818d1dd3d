"""Tests for the control limits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import stats

from repro.common.exceptions import ConfigurationError
from repro.datasets.generator import make_latent_structure_dataset
from repro.mspc.baseline import UnivariateShewhartMonitor
from repro.mspc.limits import (
    ControlLimits,
    percentile_limit,
    spe_limit_theoretical,
    t2_limit_theoretical,
)
from repro.mspc.pca import PCAModel
from repro.mspc.preprocessing import AutoScaler
from repro.mspc.statistics import hotelling_t2, squared_prediction_error


class TestT2Limit:
    def test_monotone_in_confidence(self):
        assert t2_limit_theoretical(100, 3, 0.99) > t2_limit_theoretical(100, 3, 0.95)

    def test_grows_with_components(self):
        assert t2_limit_theoretical(100, 5, 0.99) > t2_limit_theoretical(100, 2, 0.99)

    def test_large_sample_approaches_chi2(self):
        limit = t2_limit_theoretical(100000, 3, 0.99)
        assert limit == pytest.approx(stats.chi2.ppf(0.99, 3), rel=0.01)

    def test_requires_more_samples_than_components(self):
        with pytest.raises(ConfigurationError):
            t2_limit_theoretical(3, 3, 0.99)

    def test_invalid_confidence(self):
        from repro.common.exceptions import DataShapeError

        with pytest.raises(DataShapeError):
            t2_limit_theoretical(100, 3, 1.2)


class TestSPELimit:
    def test_monotone_in_confidence(self):
        eigenvalues = [0.5, 0.3, 0.1]
        assert spe_limit_theoretical(eigenvalues, 0.99) > spe_limit_theoretical(
            eigenvalues, 0.95
        )

    def test_zero_when_no_residual_space(self):
        assert spe_limit_theoretical([], 0.99) == 0.0

    def test_scales_with_residual_variance(self):
        small = spe_limit_theoretical([0.1, 0.05], 0.99)
        large = spe_limit_theoretical([1.0, 0.5], 0.99)
        assert large == pytest.approx(10 * small, rel=1e-6)


class TestPercentileLimit:
    def test_matches_numpy_percentile(self):
        values = np.arange(1000, dtype=float)
        assert percentile_limit(values, 0.99) == pytest.approx(
            np.percentile(values, 99.0)
        )


class TestCalibrationCoverage:
    """The theoretical limits should leave roughly alpha of calibration data above."""

    @pytest.fixture(scope="class")
    def statistics(self):
        data = make_latent_structure_dataset(
            n_observations=2000, n_variables=15, n_latent=4, noise_scale=0.2, seed=5
        )
        scaled = AutoScaler().fit_transform(data.values)
        model = PCAModel(n_components=4).fit(scaled)
        return (
            model,
            hotelling_t2(model, scaled),
            squared_prediction_error(model, scaled),
        )

    def test_t2_coverage(self, statistics):
        model, t2_values, _ = statistics
        limit = t2_limit_theoretical(model.n_samples_, model.n_components, 0.99)
        assert np.mean(t2_values > limit) < 0.03

    def test_spe_coverage(self, statistics):
        model, _, spe_values = statistics
        limit = spe_limit_theoretical(model.residual_eigenvalues_, 0.99)
        assert np.mean(spe_values > limit) < 0.05


class TestControlLimits:
    def test_lookup_and_levels(self):
        limits = ControlLimits("D", {0.95: 10.0, 0.99: 15.0})
        assert limits.at(0.99) == 15.0
        assert limits.confidence_levels == (0.95, 0.99)

    def test_missing_level_raises(self):
        limits = ControlLimits("D", {0.99: 15.0})
        with pytest.raises(KeyError):
            limits.at(0.95)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ControlLimits("D", {})

    def test_factories(self):
        data = make_latent_structure_dataset(
            n_observations=300, n_variables=8, n_latent=2, seed=6
        )
        scaled = AutoScaler().fit_transform(data.values)
        model = PCAModel(n_components=2).fit(scaled)
        t2_values = hotelling_t2(model, scaled)
        spe_values = squared_prediction_error(model, scaled)
        for method in ("theoretical", "percentile"):
            t2_limits = ControlLimits.for_t2(model, t2_values, (0.95, 0.99), method)
            spe_limits = ControlLimits.for_spe(model, spe_values, (0.95, 0.99), method)
            assert t2_limits.at(0.99) > t2_limits.at(0.95)
            assert spe_limits.at(0.99) > spe_limits.at(0.95)

    def test_unknown_method_rejected(self):
        data = np.random.default_rng(0).normal(size=(50, 4))
        model = PCAModel(n_components=2).fit(data)
        with pytest.raises(ConfigurationError):
            ControlLimits.for_t2(model, np.ones(50), (0.99,), "bogus")


class TestQuantilesMatchScipyStats:
    """The limits take their quantiles from ``scipy.special`` instead of
    ``scipy.stats`` (whose import costs most of a process's start-up).  At
    scipy 1.17.1 the two agree bit for bit on every argument below, which
    covers the real calls (calibration sizes from a smoke campaign to the
    paper's, every component count of the 53 TE variables, the configured
    confidence levels); other scipy versions must agree within 1e-12."""

    EXACT = scipy.__version__ == "1.17.1"
    CONFIDENCES = (0.5, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999, 0.9999)

    def assert_agrees(self, new, old):
        if self.EXACT:
            assert type(new) is type(old)
            assert new == old
        else:
            assert new == pytest.approx(old, rel=1e-12)

    @pytest.mark.parametrize("n_samples", [60, 240, 1260, 9000, 72000, 4320000])
    def test_t2_limit(self, n_samples):
        for n_components in range(1, 54):
            if n_components >= n_samples:
                continue
            a = float(n_components)
            n = float(n_samples)
            for confidence in self.CONFIDENCES:
                old = (
                    a * (n ** 2 - 1.0) / (n * (n - a))
                    * stats.f.ppf(confidence, a, n - a)
                )
                self.assert_agrees(
                    t2_limit_theoretical(n_samples, n_components, confidence), old
                )

    def test_spe_limit(self):
        rng = np.random.default_rng(7)
        for n_residual in range(1, 53):
            for scale in (1e-6, 1e-2, 1.0, 40.0):
                eigenvalues = scale * rng.gamma(0.5 + n_residual / 8.0, size=n_residual)
                theta1 = float(eigenvalues.sum())
                theta2 = float((eigenvalues ** 2).sum())
                g = theta2 / theta1
                h = theta1 ** 2 / theta2
                for confidence in self.CONFIDENCES:
                    self.assert_agrees(
                        spe_limit_theoretical(eigenvalues, confidence),
                        g * stats.chi2.ppf(confidence, h),
                    )

    def test_univariate_baseline_limits(self):
        values = np.random.default_rng(3).normal(size=(200, 4))
        mean = values.mean(axis=0)
        std = values.std(axis=0, ddof=1)
        for confidence in np.linspace(0.001, 0.999, 999):
            monitor = UnivariateShewhartMonitor(confidence=confidence).fit(values)
            z = stats.norm.ppf(0.5 + confidence / 2.0)
            for i, (lower, upper) in enumerate(monitor.limits().values()):
                self.assert_agrees(lower, float(mean[i] - z * std[i]))
                self.assert_agrees(upper, float(mean[i] + z * std[i]))

    def test_importing_the_api_leaves_scipy_stats_unloaded(self):
        source = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, repro.api; print('scipy.stats' in sys.modules)"
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.strip() == "False"

    def test_importing_the_api_leaves_the_gateway_client_unloaded(self):
        # StreamClient is a lazy attribute of repro.api: a campaign process
        # never loads the gateway, the HTTP server or the TLS stack.
        source = Path(__file__).resolve().parent.parent / "src"
        modules = ("repro.gateway", "http.server", "urllib.request", "ssl")
        code = (
            "import sys, repro.api\n"
            f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
            "from repro.api import StreamClient\n"
            "print(StreamClient.__module__, 'StreamClient' in repro.api.__all__)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(source)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.splitlines() == ["[]", "repro.gateway.client True"]
