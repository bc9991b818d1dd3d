"""Reaction kinetics of the Tennessee-Eastman reactor.

The TE reactor hosts four irreversible, exothermic gas-phase reactions:

* R1:  A + C + D -> G        (main product G)
* R2:  A + C + E -> H        (main product H)
* R3:  A + E    -> F         (by-product)
* R4:  3 D      -> 2 F       (by-product)

The grey-box model expresses each rate as the nominal extent multiplied by
normalized reactant availabilities (inventory ratios, which play the role of
partial-pressure ratios in a constant-volume vapour space) and an exponential
temperature factor linearized around the nominal reactor temperature.  The
nominal extents are taken from :data:`repro.te.constants.INTERNAL`, which makes
the base operating point a steady state by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.common.operands import f64
from repro.te.constants import COMPONENTS, INTERNAL

__all__ = ["ReactionRates", "ReactionKinetics"]

_INDEX = {component: i for i, component in enumerate(COMPONENTS)}


@dataclass(frozen=True)
class ReactionRates:
    """Extents of the four reactions, kmol of product per hour."""

    r1: float
    r2: float
    r3: float
    r4: float

    @property
    def total(self) -> float:
        """Sum of the four extents (a convenient activity measure)."""
        return self.r1 + self.r2 + self.r3 + self.r4

    @property
    def heat_release(self) -> float:
        """Normalized heat release (1.0 at the nominal operating point)."""
        nominal = (
            float(INTERNAL["r1_nominal"])
            + float(INTERNAL["r2_nominal"])
            + 0.5 * float(INTERNAL["r3_nominal"])
            + 0.5 * float(INTERNAL["r4_nominal"])
        )
        value = self.r1 + self.r2 + 0.5 * self.r3 + 0.5 * self.r4
        return value / nominal

    def consumption(self) -> np.ndarray:
        """Net molar production rate per component (negative = consumed), kmol/h."""
        rates = np.zeros(len(COMPONENTS))
        rates[_INDEX["A"]] -= self.r1 + self.r2 + self.r3
        rates[_INDEX["C"]] -= self.r1 + self.r2
        rates[_INDEX["D"]] -= self.r1 + 3.0 * self.r4
        rates[_INDEX["E"]] -= self.r2 + self.r3
        rates[_INDEX["F"]] += self.r3 + 2.0 * self.r4
        rates[_INDEX["G"]] += self.r1
        rates[_INDEX["H"]] += self.r2
        return rates


#: The heat release of the nominal extents, as ReactionRates.heat_release
#: computes it.
_NOMINAL_HEAT = (
    float(INTERNAL["r1_nominal"])
    + float(INTERNAL["r2_nominal"])
    + 0.5 * float(INTERNAL["r3_nominal"])
    + 0.5 * float(INTERNAL["r4_nominal"])
)
#: Per reaction, the operands of its extent product after the nominal
#: extent, in the serial order (``r1 = r1_nominal * a * sqrt(c) * d *
#: factor1 * drift``); rows of the stack ``[a, c, d, e, sqrt(c), factor1..4,
#: drift, 1.0]``.  Shorter products are padded with ``* 1.0``, which
#: changes no bit.
_EXTENT_OPERANDS = np.array(
    [
        [0, 0, 0, 2],  # a, a, a, d
        [4, 4, 3, 8],  # sqrt(c), sqrt(c), e, factor4
        [2, 3, 7, 9],  # d, e, factor3, drift
        [5, 6, 9, 10],  # factor1, factor2, drift, 1.0
        [9, 9, 10, 10],  # drift, drift, 1.0, 1.0
    ]
)
#: Net production per component, ``0.0 + sign * term``: ``0.0 - term`` for
#: the reactants A, C, D and E (IEEE subtraction is addition of the
#: negation), ``0.0 + term`` for the products F, G and H; B takes no part.
_PRODUCTION_SIGN = np.array([-1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0])[:, None]
#: Pair sums of the consumption terms of C, D, E and F: ``r1 + r2``,
#: ``r1 + 3 r4``, ``r2 + r3`` and ``r3 + 2 r4`` (left operands, then right
#: operands before their coefficient; ``* 1.0`` changes no bit).
_PAIR_OPERANDS = np.array([[0, 0, 1, 2], [1, 3, 2, 3]])
_PAIR_COEFFICIENTS = np.array([1.0, 3.0, 1.0, 2.0])[:, None]


class ReactionKinetics:
    """Computes reaction extents from reactor inventories and temperature.

    Parameters
    ----------
    drift_gain:
        Multiplier applied to the slow-kinetics-drift state (IDV(13)); the
        effective rate constants are scaled by ``1 + drift_gain * drift``.
    """

    def __init__(self, drift_gain: float = 0.3):
        self.drift_gain = float(drift_gain)
        self._nominal_vapor = np.zeros(len(COMPONENTS))
        for component, amount in INTERNAL["reactor_vapor_nominal"].items():
            self._nominal_vapor[_INDEX[component]] = float(amount)
        self._nominal_liquid = np.zeros(len(COMPONENTS))
        for component, amount in INTERNAL["reactor_liquid_nominal"].items():
            self._nominal_liquid[_INDEX[component]] = float(amount)
        self._nominal_temp = float(INTERNAL["reactor_temp_nominal"])
        # Where the batched path reads each reactant: (phase, component)
        # of the reactor stack and its nominal inventory, as _availability
        # picks them (vapour when its nominal is positive, else liquid).
        reactants = [_INDEX[component] for component in ("A", "C", "D", "E")]
        self._reactant_phase = np.array(
            [0 if self._nominal_vapor[index] > 0 else 1 for index in reactants]
        )
        self._reactant_index = np.array(reactants)
        self._reactant_nominal = np.array(
            [
                (self._nominal_vapor, self._nominal_liquid)[phase][index]
                for phase, index in zip(self._reactant_phase, reactants)
            ]
        )[:, None]
        self._temp_gains = np.array(
            [float(INTERNAL[f"r{k}_temp_gain"]) for k in range(1, 5)]
        )[:, None]
        self._nominal_extents = np.array(
            [float(INTERNAL[f"r{k}_nominal"]) for k in range(1, 5)]
        )[:, None]
        # The batched path's constants and buffers are bound per width by
        # bind(), with the closure that evaluates it.

    def _availability(self, vapor: np.ndarray, liquid: np.ndarray, component: str) -> float:
        """Normalized availability of a reactant (1.0 at nominal inventory)."""
        index = _INDEX[component]
        if self._nominal_vapor[index] > 0:
            return max(float(vapor[index]) / self._nominal_vapor[index], 0.0)
        if self._nominal_liquid[index] > 0:
            return max(float(liquid[index]) / self._nominal_liquid[index], 0.0)
        return 0.0

    def rates(
        self,
        reactor_vapor: np.ndarray,
        reactor_liquid: np.ndarray,
        reactor_temp: float,
        kinetics_drift: float = 0.0,
    ) -> ReactionRates:
        """Reaction extents for the given reactor state."""
        a = self._availability(reactor_vapor, reactor_liquid, "A")
        c = self._availability(reactor_vapor, reactor_liquid, "C")
        d = self._availability(reactor_vapor, reactor_liquid, "D")
        e = self._availability(reactor_vapor, reactor_liquid, "E")

        delta_t = float(reactor_temp) - self._nominal_temp
        drift = 1.0 + self.drift_gain * float(kinetics_drift)

        factor1 = np.exp(float(INTERNAL["r1_temp_gain"]) * delta_t)
        factor2 = np.exp(float(INTERNAL["r2_temp_gain"]) * delta_t)
        factor3 = np.exp(float(INTERNAL["r3_temp_gain"]) * delta_t)
        factor4 = np.exp(float(INTERNAL["r4_temp_gain"]) * delta_t)

        r1 = float(INTERNAL["r1_nominal"]) * a * np.sqrt(max(c, 0.0)) * d * factor1 * drift
        r2 = float(INTERNAL["r2_nominal"]) * a * np.sqrt(max(c, 0.0)) * e * factor2 * drift
        r3 = float(INTERNAL["r3_nominal"]) * a * e * factor3 * drift
        r4 = float(INTERNAL["r4_nominal"]) * d * factor4 * drift
        return ReactionRates(r1=max(r1, 0.0), r2=max(r2, 0.0), r3=max(r3, 0.0), r4=max(r4, 0.0))

    # ------------------------------------------------------------------
    # Batched evaluation (one call advances B reactors)
    # ------------------------------------------------------------------
    def bind(
        self,
        reactor: np.ndarray,
        reactor_temp: np.ndarray,
        kinetics_drift: np.ndarray,
    ) -> Callable[[], None]:
        """Build the batched path over ``B`` reactor states: a closure that
        evaluates the kinetics of the rows as they stand when it is called.

        ``reactor`` stacks the vapour and liquid inventories, ``(2, B, 8)``;
        temperatures and drifts are ``(B,)``.  All three are views the
        closure reads on every call.  Its operands are bound here: the
        constants repeated to the width (a call whose operands share one
        shape skips NumPy's broadcasting set-up), the operand, extent and
        production buffers and a scratch buffer for every intermediate.

        A call writes :attr:`extents` (``(4, B)``), :attr:`heat_release`
        (``(B,)``, mirroring :attr:`ReactionRates.heat_release`) and
        :attr:`production` (``(B, 8)``, mirroring
        :meth:`ReactionRates.consumption`, negative = consumed); the next
        call writes them again.  The four availabilities, the four
        temperature factors and the four extent products each run as one
        stacked call, and every element sees the ufuncs of the scalar
        :meth:`rates` path in the same order, so row ``i`` is bitwise-equal
        to ``rates(vapor[i], liquid[i], temp[i], drift[i])``.
        """
        n_rows = reactor.shape[1]
        # Flat positions in the (2, B, 8) reactor stack of each row's a, c,
        # d and e inventories, (4, B): one ``take`` gathers them.
        reactants = (
            (self._reactant_phase[:, None] * n_rows + np.arange(n_rows)) * len(COMPONENTS)
            + self._reactant_index[:, None]
        )
        reactant_nominal, temp_gains, nominal_extents, pair_coefficients, signs = (
            np.repeat(constant, n_rows, axis=1)
            for constant in (
                self._reactant_nominal,
                self._temp_gains,
                self._nominal_extents,
                _PAIR_COEFFICIENTS,
                _PRODUCTION_SIGN,
            )
        )
        gathered, exponents = np.empty((2, 4, n_rows))
        delta_t = np.empty(n_rows)
        # The operands of the extent products; the last row holds the
        # padding 1.0.
        operands = np.empty((11, n_rows))
        operands[10] = 1.0
        availabilities = operands[0:4]
        c, sqrt_c, factors, drift = operands[1], operands[4], operands[5:9], operands[9]
        # The extent products' operands gathered per reaction, (5, 4, B).
        extent_factors = np.empty((len(_EXTENT_OPERANDS), 4, n_rows))
        first, second, third, fourth, fifth = extent_factors
        extents = self.extents = np.empty((4, n_rows))
        r1, r2, r3, _ = extents
        r1_r2, r3_r4 = extents[0:2], extents[2:4]
        halves = np.empty((2, n_rows))
        half_r3, half_r4 = halves
        heat = self.heat_release = np.empty(n_rows)
        pairs = np.empty((2, 4, n_rows))
        left, right = pairs
        # Production terms per component, (8, B); ``production`` is its
        # (B, 8) transpose.
        terms = np.empty((len(COMPONENTS), n_rows))
        terms[1] = 0.0
        terms_a, terms_c, terms_cdef, terms_gh = terms[0], terms[2], terms[2:6], terms[6:8]
        self.production = terms.T
        zero, one, half = f64[0.0], f64[1.0], f64[0.5]
        nominal_temp, drift_gain = f64[self._nominal_temp], f64[self.drift_gain]
        nominal_heat = f64[_NOMINAL_HEAT]
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        maximum, sqrt, exp = np.maximum, np.sqrt, np.exp

        def react() -> None:
            # a, c, d, e: inventory over nominal, floored at zero.  A
            # ``take`` with ``"wrap"`` gathers straight into its buffer
            # (every index is in range, so it changes no value).
            reactor.take(reactants, None, gathered, "wrap")
            divide(gathered, reactant_nominal, availabilities)
            maximum(availabilities, zero, out=availabilities)
            # sqrt(max(c, 0.0)): c is floored already, and flooring twice
            # changes no bit (max(max(x, 0), 0) is max(x, 0), NaN included).
            sqrt(c, sqrt_c)
            subtract(reactor_temp, nominal_temp, delta_t)
            multiply(temp_gains, delta_t, exponents)
            exp(exponents, factors)
            multiply(drift_gain, kinetics_drift, drift)
            add(one, drift, drift)
            operands.take(_EXTENT_OPERANDS, 0, extent_factors, "wrap")
            multiply(nominal_extents, first, extents)
            multiply(extents, second, extents)
            multiply(extents, third, extents)
            multiply(extents, fourth, extents)
            multiply(extents, fifth, extents)
            maximum(extents, zero, out=extents)
            # Heat release: (r1 + r2 + 0.5 r3 + 0.5 r4) / nominal.
            multiply(half, r3_r4, halves)
            add(r1, r2, heat)
            add(heat, half_r3, heat)
            add(heat, half_r4, heat)
            divide(heat, nominal_heat, heat)
            # Production: C, D, E, F take r1 + r2, r1 + 3 r4, r2 + r3 and
            # r3 + 2 r4; A takes r1 + r2 + r3, B none, G and H r1 and r2;
            # then ``0.0 -`` or ``0.0 +`` that sum.
            extents.take(_PAIR_OPERANDS, 0, pairs, "wrap")
            multiply(right, pair_coefficients, terms_cdef)
            add(left, terms_cdef, terms_cdef)
            add(terms_c, r3, terms_a)
            terms_gh[...] = r1_r2
            multiply(signs, terms, terms)
            add(zero, terms, terms)

        return react
