"""64-bit area projection (paper Section 6.1.1)."""

import pytest

from repro.core import EnergyModel, F4C32


class TestArea64Bit:
    def test_naive_scaling_is_expensive(self):
        est = EnergyModel(F4C32).area_64bit_estimate()
        assert est["cluster_64bit_naive_mm2"] \
            > est["cluster_64bit_multiplexed_mm2"] \
            > est["cluster_32bit_mm2"]

    def test_multiplexed_saves_most_of_the_growth(self):
        est = EnergyModel(F4C32).area_64bit_estimate()
        naive_growth = est["cluster_64bit_naive_mm2"] \
            - est["cluster_32bit_mm2"]
        mux_growth = est["cluster_64bit_multiplexed_mm2"] \
            - est["cluster_32bit_mm2"]
        assert mux_growth < 0.6 * naive_growth

    def test_processor_total_scales(self):
        est = EnergyModel(F4C32).area_64bit_estimate()
        assert est["processor_64bit_mm2"] > 93.07  # bigger than 32-bit
        assert est["processor_64bit_mm2"] < 2 * 93.07

    def test_flag_selects_variant(self):
        model = EnergyModel(F4C32)
        assert model.area_64bit_estimate(multiplexed=False)[
            "cluster_64bit_mm2"] == pytest.approx(
            model.area_64bit_estimate()["cluster_64bit_naive_mm2"])
