"""Shared 0-d float64 operands for the lockstep kernels' ufunc calls.

At the widths a lockstep batch steps (a few rows), a NumPy ufunc call costs
per call, not per element, and its operands set most of that cost: a
Python float is converted to an array on every call, which costs about
half as much again as the call itself, while a 0-d float64 array is taken
as it is.  Both give the ufunc the same float64 value, broadcast the same
way, so the result is bitwise-identical.

``f64[x]`` is ``x`` as a read-only 0-d float64 array, made once per value
and shared.  Key it only by constants of the model (literals, calibrated
plant scalars, the integration step of a run), never by values a step
computes: the table keeps every value it was asked for.  Keys that compare
equal share one operand, so ``f64[-0.0]`` may be ``+0.0``: a signed zero
needs its own array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["f64"]


class _Operands(dict):
    """Value -> read-only 0-d float64 array, filled on first use."""

    def __missing__(self, value) -> np.ndarray:
        operand = np.array(float(value))
        operand.flags.writeable = False
        self[value] = operand
        return operand


#: ``f64[x]``: the shared 0-d float64 operand of the constant ``x``.
f64 = _Operands()
