"""Construction-time steady-state calibration of the grey-box TE model.

The dynamic model in :mod:`repro.te.plant` is calibrated *by construction*:
before the first step, the nominal stream table of the plant is derived so
that the published base case (nominal valve positions, nominal inventories,
nominal recycle and purge rates) is — up to residuals of a few kmol/h that the
regulatory control layer absorbs — a steady state of the dynamics.

The calibration fixes the quantities that are physically set by equipment
(recycle and purge totals, feed rates, nominal reaction extents, stripping
efficiencies) and *derives* the remaining degrees of freedom (per-component
condensation fractions in the partial condenser, the separator/stripper liquid
compositions and the per-vessel outflow coefficients) so that every inventory
derivative is (approximately) zero at the nominal point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.te.constants import COMPONENTS, INTERNAL
from repro.te.kinetics import ReactionRates

__all__ = [
    "NominalBalance",
    "solve_nominal_balance",
    "component_vector",
    "stripping_fractions",
    "nominal_reaction_rates",
]

_INDEX = {component: i for i, component in enumerate(COMPONENTS)}


def component_vector(values: Dict[str, float]) -> np.ndarray:
    """Expand ``{component: value}`` into an 8-vector ordered A..H."""
    vector = np.zeros(len(COMPONENTS))
    for component, amount in values.items():
        vector[_INDEX[component]] = float(amount)
    return vector


def stripping_fractions() -> np.ndarray:
    """Nominal fraction of each stripper-feed component returned as overhead vapour."""
    fractions = {
        "A": 0.99,
        "B": 0.99,
        "C": 0.99,
        "D": 0.88,
        "E": 0.88,
        "F": 0.80,
        "G": 0.03,
        "H": 0.01,
    }
    return component_vector(fractions)


def nominal_reaction_rates() -> ReactionRates:
    """The nominal reaction extents from the constants table."""
    return ReactionRates(
        r1=float(INTERNAL["r1_nominal"]),
        r2=float(INTERNAL["r2_nominal"]),
        r3=float(INTERNAL["r3_nominal"]),
        r4=float(INTERNAL["r4_nominal"]),
    )


@dataclass(frozen=True)
class NominalBalance:
    """Self-consistent nominal stream table (vectors in kmol/h, A..H order).

    Attributes
    ----------
    feed1 .. feed4:
        Component flows of the four fresh feeds.
    recycle:
        Compressor recycle stream (stream 8).
    stripper_overhead:
        Vapour stripped from the stripper feed back to the reaction loop.
    reactor_in:
        Total reactor feed (stream 6).
    effluent:
        Reactor effluent (stream 7).
    separator_vapor_in / separator_liquid_in:
        Split of the effluent in the partial condenser + separator.
    purge:
        Purge stream (stream 9).
    product:
        Liquid product stream (stream 11).
    condensation:
        Per-component condensation fractions consistent with the above.
    """

    feed1: np.ndarray
    feed2: np.ndarray
    feed3: np.ndarray
    feed4: np.ndarray
    recycle: np.ndarray
    stripper_overhead: np.ndarray
    reactor_in: np.ndarray
    effluent: np.ndarray
    separator_vapor_in: np.ndarray
    separator_liquid_in: np.ndarray
    purge: np.ndarray
    product: np.ndarray
    condensation: np.ndarray

    @property
    def reactor_feed_total(self) -> float:
        """Total molar reactor feed (stream 6)."""
        return float(self.reactor_in.sum())

    @property
    def recycle_total(self) -> float:
        """Total molar recycle flow (stream 8)."""
        return float(self.recycle.sum())

    @property
    def purge_total(self) -> float:
        """Total molar purge flow (stream 9)."""
        return float(self.purge.sum())

    @property
    def separator_underflow_total(self) -> float:
        """Total molar separator underflow (stream 10)."""
        return float(self.separator_liquid_in.sum())

    @property
    def product_total(self) -> float:
        """Total molar product flow (stream 11)."""
        return float(self.product.sum())


#: The solved balances of this process, by iteration count.
_SOLVED: Dict[int, NominalBalance] = {}


def solve_nominal_balance(iterations: int = 200) -> NominalBalance:
    """Derive the nominal stream table of the grey-box model.

    The recycle and purge totals and the separator-vapour composition are
    pinned to their nominal values; the per-component condensation fractions
    and the stripper overhead are iterated (a strongly contracting loop) so
    that the reactor, separator and stripper inventory balances close at the
    nominal operating point.

    The table depends only on the model constants and ``iterations``, so it
    is solved once per process and iteration count and shared: every array
    of the returned balance is read-only (a plant that wrote into one would
    change the next plant's calibration).
    """
    iterations = int(iterations)
    balance = _SOLVED.get(iterations)
    if balance is None:
        balance = _SOLVED[iterations] = _solve(iterations)
        for value in vars(balance).values():
            value.flags.writeable = False
    return balance


def _solve(iterations: int) -> NominalBalance:
    """One solve of :func:`solve_nominal_balance`."""
    feed1 = float(INTERNAL["feed1_nominal"]) * component_vector(
        INTERNAL["feed1_composition"]
    )
    feed2 = component_vector({"D": float(INTERNAL["feed2_nominal"])})
    feed3 = component_vector({"E": float(INTERNAL["feed3_nominal"])})
    feed4 = float(INTERNAL["feed4_nominal"]) * component_vector(
        INTERNAL["feed4_composition"]
    )
    feeds = feed1 + feed2 + feed3 + feed4

    production = nominal_reaction_rates().consumption()
    strip = stripping_fractions()

    vapor_nominal = component_vector(INTERNAL["separator_vapor_nominal"])
    vapor_fraction = vapor_nominal / vapor_nominal.sum()
    recycle_total = float(INTERNAL["recycle_nominal"])
    purge_total = float(INTERNAL["purge_nominal"])
    recycle = recycle_total * vapor_fraction
    purge = purge_total * vapor_fraction
    vapor_out_required = (recycle_total + purge_total) * vapor_fraction

    overhead = np.zeros(len(COMPONENTS))
    condensation = np.full(len(COMPONENTS), 0.5)
    for _ in range(iterations):
        reactor_in = feeds + recycle + overhead
        effluent = np.clip(reactor_in + production, 1e-6, None)
        condensation = np.clip(1.0 - vapor_out_required / effluent, 0.01, 0.99)
        separator_liquid_in = effluent * condensation
        overhead = strip * separator_liquid_in

    reactor_in = feeds + recycle + overhead
    effluent = np.clip(reactor_in + production, 1e-6, None)
    separator_liquid_in = effluent * condensation
    separator_vapor_in = effluent - separator_liquid_in
    product = separator_liquid_in - strip * separator_liquid_in

    return NominalBalance(
        feed1=feed1,
        feed2=feed2,
        feed3=feed3,
        feed4=feed4,
        recycle=recycle,
        stripper_overhead=strip * separator_liquid_in,
        reactor_in=reactor_in,
        effluent=effluent,
        separator_vapor_in=separator_vapor_in,
        separator_liquid_in=separator_liquid_in,
        purge=purge,
        product=product,
        condensation=condensation,
    )
