"""The detector's values against exact arithmetic.

Two paths that agree bit for bit can still share one error, so the
detector's float arithmetic is judged here against exact references
computed from the same float inputs: scaling, projection, Hotelling's T^2
and the SPE with :class:`fractions.Fraction` (exact rationals), the
calibration standard deviation and both theoretical control limits with
``mpmath`` at 50 significant digits (a square root and the inverse F and
chi-squared distributions, the latter two inverted with ``findroot``).

The allowed relative error is fixed below, before any measurement; the
largest errors seen at numpy 2.4.6 and scipy 1.17.1 are recorded beside it.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.common.config import MSPCConfig
from repro.mspc.limits import spe_limit_theoretical, t2_limit_theoretical
from repro.mspc.model import MSPCMonitor

mpmath = pytest.importorskip("mpmath")

#: The allowed relative error of every float value against its exact
#: reference.  Largest seen: 5.1e-16 for the calibration mean and standard
#: deviation, 1.8e-15 for the scaled values, scores, T^2 and SPE, 1.3e-15
#: for the T^2 limits and 4.8e-15 for the SPE limits.
RTOL = 1e-12
DIGITS = 50


def real(value):
    """An exact rational or a float as an ``mpmath`` number."""
    value = Fraction(value)
    return mpmath.mpf(value.numerator) / value.denominator


def relative_error(value: float, exact) -> float:
    if isinstance(exact, Fraction):
        exact = real(exact)
    return float(abs((mpmath.mpf(value) - exact) / exact))


@pytest.fixture
def precision():
    with mpmath.workdps(DIGITS):
        yield


@pytest.fixture(scope="module")
def fixture_data():
    generator = np.random.default_rng(20160601)
    mixing = generator.normal(size=(3, 6))
    calibration = generator.normal(size=(40, 3)) @ mixing
    calibration += 0.3 * generator.normal(size=(40, 6))
    new = generator.normal(size=(8, 3)) @ mixing + 0.3 * generator.normal(size=(8, 6))
    new[5, 2] += 6.0  # one observation off the model
    monitor = MSPCMonitor(MSPCConfig(n_components=2)).fit(calibration)
    return calibration, new, monitor


def test_scaling_mean_and_std(fixture_data, precision):
    calibration, _, monitor = fixture_data
    n_samples = calibration.shape[0]
    for column in range(calibration.shape[1]):
        values = [Fraction(float(x)) for x in calibration[:, column]]
        mean = sum(values) / n_samples
        variance = sum((x - mean) ** 2 for x in values) / (n_samples - 1)
        std = mpmath.sqrt(real(variance))
        assert relative_error(monitor.scaler.mean_[column], mean) <= RTOL
        assert relative_error(monitor.scaler.std_[column], std) <= RTOL


def test_projection_t2_and_spe(fixture_data, precision):
    _, new, monitor = fixture_data
    t2, spe = monitor.statistics(new)
    scaled_float = monitor.scaler.transform(new)
    scores_float = monitor.pca.transform(scaled_float)
    mean = [Fraction(float(m)) for m in monitor.scaler.mean_]
    std = [Fraction(float(s)) for s in monitor.scaler.std_]
    loadings = [[Fraction(float(p)) for p in row] for row in monitor.pca.loadings_]
    eigenvalues = [Fraction(float(e)) for e in monitor.pca.eigenvalues_]
    n_variables, n_components = len(mean), len(eigenvalues)
    for row in range(new.shape[0]):
        scaled = [
            (Fraction(float(new[row, m])) - mean[m]) / std[m] for m in range(n_variables)
        ]
        scores = [
            sum(scaled[m] * loadings[m][a] for m in range(n_variables))
            for a in range(n_components)
        ]
        residuals = [
            scaled[m] - sum(scores[a] * loadings[m][a] for a in range(n_components))
            for m in range(n_variables)
        ]
        exact_t2 = sum(scores[a] ** 2 / eigenvalues[a] for a in range(n_components))
        exact_spe = sum(r**2 for r in residuals)
        for m in range(n_variables):
            assert relative_error(scaled_float[row, m], scaled[m]) <= RTOL
        for a in range(n_components):
            assert relative_error(scores_float[row, a], scores[a]) <= RTOL
        assert relative_error(t2[row], exact_t2) <= RTOL, row
        assert relative_error(spe[row], exact_spe) <= RTOL, row


def exact_f_quantile(d1, d2, confidence, guess: float):
    """The ``confidence`` quantile of F(d1, d2): the root in ``x`` of the
    regularized incomplete beta ``I_x(d1/2, d2/2) = confidence``, mapped
    back through ``f = d2 x / (d1 (1 - x))``."""
    a, b = mpmath.mpf(d1) / 2, mpmath.mpf(d2) / 2
    start = d1 * guess / (d1 * guess + d2)
    x = mpmath.findroot(
        lambda x: mpmath.betainc(a, b, 0, x, regularized=True) - confidence, start
    )
    return d2 * x / (d1 * (1 - x))


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
@pytest.mark.parametrize("n_samples", [20, 100, 1000, 5000])
@pytest.mark.parametrize("n_components", [1, 2, 5, 10])
def test_t2_limit(n_samples, n_components, confidence, precision):
    value = t2_limit_theoretical(n_samples, n_components, confidence)
    a, n = n_components, n_samples
    guess = value / (a * (n**2 - 1.0) / (n * (n - a)))
    quantile = exact_f_quantile(a, n - a, real(confidence), guess)
    exact = mpmath.mpf(a) * (mpmath.mpf(n) ** 2 - 1) / (n * (n - a)) * quantile
    assert relative_error(value, exact) <= RTOL


def box_cases():
    """Residual eigenvalue sets spanning Box's g and h: flat spectra (h near
    their length), steep ones (h near 1) and mixes."""
    return [
        [1.0],
        [2.0, 1.0],
        [0.5] * 4,
        [0.9**k for k in range(20)],
        [0.5**k for k in range(12)],
        [1e-3 * 0.8**k for k in range(30)],
        [3.0, 0.01, 0.01, 0.01],
        list(np.linspace(0.05, 1.5, 40)),
    ]


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99, 0.999])
@pytest.mark.parametrize("case", range(len(box_cases())))
def test_spe_limit(case, confidence, precision):
    eigenvalues = box_cases()[case]
    value = spe_limit_theoretical(eigenvalues, confidence)
    exact_values = [Fraction(float(e)) for e in eigenvalues]
    theta1 = sum(exact_values)
    theta2 = sum(e**2 for e in exact_values)
    g, h = theta2 / theta1, theta1**2 / theta2
    g, half_h, level = real(g), real(h) / 2, real(confidence)
    # The chi-squared quantile with h degrees of freedom is 2y, y the root
    # of the regularized lower incomplete gamma P(h/2, y) = confidence.
    y = mpmath.findroot(
        lambda y: mpmath.gammainc(half_h, 0, y, regularized=True) - level,
        value / float(g) / 2.0,
    )
    assert relative_error(value, g * 2 * y) <= RTOL
