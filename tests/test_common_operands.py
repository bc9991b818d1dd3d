"""Tests for the shared 0-d float64 operands of the lockstep kernels."""

import numpy as np
import pytest

from repro.common.operands import f64


def test_operand_is_a_shared_read_only_0d_float64():
    operand = f64[0.15]
    assert operand.shape == () and operand.dtype == np.float64
    assert float(operand) == 0.15
    assert f64[0.15] is operand
    with pytest.raises(ValueError):
        np.add(operand, 1.0, out=operand)


def test_operand_gives_the_bits_of_a_python_float():
    values = np.random.default_rng(3).standard_normal((8, 5)) * 1e3
    for constant in (0.15, -0.05, 1e-9, 273.15, 3102.2):
        for ufunc in (np.add, np.subtract, np.multiply, np.divide, np.maximum):
            assert ufunc(values, f64[constant]).tobytes() == ufunc(values, constant).tobytes()
            assert ufunc(f64[constant], values).tobytes() == ufunc(constant, values).tobytes()
        bound = abs(constant)
        clipped = values.clip(f64[-bound], f64[bound])
        assert clipped.tobytes() == values.clip(-bound, bound).tobytes()
