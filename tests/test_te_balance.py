"""Tests for the construction-time nominal balance."""

import numpy as np
import pytest

from repro.te import balance as balance_module
from repro.te.balance import (
    component_vector,
    nominal_reaction_rates,
    solve_nominal_balance,
    stripping_fractions,
)
from repro.te.batch import BatchTEPlant
from repro.te.constants import COMPONENTS, INTERNAL
from repro.te.plant import TEPlant


@pytest.fixture(scope="module")
def balance():
    return solve_nominal_balance()


class TestComponentVector:
    def test_layout(self):
        vector = component_vector({"A": 1.0, "H": 2.0})
        assert vector[0] == 1.0
        assert vector[-1] == 2.0
        assert vector.sum() == 3.0


class TestNominalBalance:
    def test_recycle_and_purge_totals_pinned(self, balance):
        assert balance.recycle_total == pytest.approx(INTERNAL["recycle_nominal"], rel=1e-6)
        assert balance.purge_total == pytest.approx(INTERNAL["purge_nominal"], rel=1e-6)

    def test_all_streams_non_negative(self, balance):
        for stream in (
            balance.feed1, balance.feed2, balance.feed3, balance.feed4,
            balance.recycle, balance.effluent, balance.separator_liquid_in,
            balance.separator_vapor_in, balance.purge, balance.product,
            balance.stripper_overhead,
        ):
            assert np.all(stream >= -1e-9)

    def test_condensation_fractions_within_bounds(self, balance):
        assert np.all(balance.condensation >= 0.01)
        assert np.all(balance.condensation <= 0.99)

    def test_reactor_balance_closes(self, balance):
        production = nominal_reaction_rates().consumption()
        residual = balance.reactor_in + production - balance.effluent
        assert np.max(np.abs(residual)) < 1.0

    def test_separator_vapor_balance_closes(self, balance):
        outflow = balance.recycle + balance.purge
        residual = balance.separator_vapor_in - outflow
        assert np.max(np.abs(residual)) < 1.0

    def test_stripper_balance_closes(self, balance):
        residual = (
            balance.separator_liquid_in - balance.stripper_overhead - balance.product
        )
        assert np.max(np.abs(residual)) < 1e-6

    def test_product_is_mostly_g_and_h(self, balance):
        fractions = balance.product / balance.product_total
        g_index = COMPONENTS.index("G")
        h_index = COMPONENTS.index("H")
        assert fractions[g_index] + fractions[h_index] > 0.85

    def test_stream_totals_are_plausible(self, balance):
        # Reactor feed should be much larger than the fresh feeds because of
        # the recycle, and the product should be close to the G+H production.
        assert balance.reactor_feed_total > 1500.0
        assert 150.0 < balance.product_total < 300.0
        assert 200.0 < balance.separator_underflow_total < 400.0


class TestStrippingFractions:
    def test_products_mostly_retained(self):
        strip = stripping_fractions()
        assert strip[COMPONENTS.index("G")] < 0.1
        assert strip[COMPONENTS.index("H")] < 0.1

    def test_lights_mostly_stripped(self):
        strip = stripping_fractions()
        for light in ("A", "B", "C"):
            assert strip[COMPONENTS.index(light)] > 0.9


class TestReactionRates:
    def test_nominal_rates_match_constants(self):
        rates = nominal_reaction_rates()
        assert rates.r1 == pytest.approx(INTERNAL["r1_nominal"])
        assert rates.heat_release == pytest.approx(1.0)

    def test_stoichiometry(self):
        rates = nominal_reaction_rates()
        production = rates.consumption()
        # G production equals r1, H production equals r2.
        assert production[COMPONENTS.index("G")] == pytest.approx(rates.r1)
        assert production[COMPONENTS.index("H")] == pytest.approx(rates.r2)
        # A is consumed by reactions 1-3.
        assert production[COMPONENTS.index("A")] == pytest.approx(
            -(rates.r1 + rates.r2 + rates.r3)
        )


class TestSolvedOncePerProcess:
    def test_plants_share_one_read_only_solve(self, monkeypatch):
        calls = []
        solve = balance_module._solve

        def counting(iterations):
            calls.append(iterations)
            return solve(iterations)

        monkeypatch.setattr(balance_module, "_SOLVED", {})
        monkeypatch.setattr(balance_module, "_solve", counting)
        first, second = TEPlant(seed=1), BatchTEPlant([2, 3])
        assert calls == [200]
        assert first.nominal_balance is second.nominal_balance
        for name, value in vars(first.nominal_balance).items():
            assert not value.flags.writeable, name
        with pytest.raises(ValueError):
            first.nominal_balance.condensation[0] = 0.0
        assert solve_nominal_balance(50) is not first.nominal_balance
        assert calls == [200, 50]

    def test_the_shared_solve_equals_a_fresh_one(self):
        shared, fresh = solve_nominal_balance(), balance_module._solve(200)
        for name, value in vars(fresh).items():
            assert getattr(shared, name).tobytes() == value.tobytes(), name
