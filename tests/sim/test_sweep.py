"""Unit tests for the parameter sweeps (shape-level figure checks live in
the benchmarks; these cover the mechanics on small populations)."""

import pytest

from repro.core.costs import CostModel
from repro.phy.pod import pod135
from repro.phy.power import GBPS, PICOFARAD
from repro.sim.experiments import population_activity
from repro.sim.sweep import (
    ActivityTotals,
    alpha_sweep,
    data_rate_sweep,
    load_sweep,
)
from repro.workloads.random_data import random_bursts


@pytest.fixture(scope="module")
def population():
    return random_bursts(count=150, seed=21)


class TestActivityTotals:
    def test_collect_matches_manual(self, population):
        from repro.baselines import DbiDc
        activity = population_activity(DbiDc(), population)
        scheme = DbiDc()
        zeros = sum(scheme.encode(b).zeros() for b in population)
        assert activity.zeros == zeros
        assert activity.bursts == len(population)

    def test_mean_cost(self):
        activity = ActivityTotals(transitions=10, zeros=20, bursts=2)
        assert activity.mean_cost(CostModel(1.0, 2.0)) == pytest.approx(25.0)
        assert activity.mean_transitions == 5.0
        assert activity.mean_zeros == 10.0


class TestAlphaSweep:
    def test_points_validation(self, population):
        with pytest.raises(ValueError):
            alpha_sweep(population, points=1)

    def test_series_keys(self, population):
        result = alpha_sweep(population, points=5)
        assert set(result.series) == {"raw", "dbi-dc", "dbi-ac", "dbi-opt"}

    def test_include_fixed(self, population):
        result = alpha_sweep(population, points=5, include_fixed=True)
        assert "dbi-opt-fixed" in result.series

    def test_opt_lower_envelope(self, population):
        result = alpha_sweep(population, points=9)
        for index in range(9):
            conventional = min(result.series["dbi-dc"][index],
                               result.series["dbi-ac"][index],
                               result.series["raw"][index])
            assert result.series["dbi-opt"][index] <= conventional + 1e-9

    def test_endpoints_match_specialists(self, population):
        result = alpha_sweep(population, points=5)
        assert result.series["dbi-opt"][0] == pytest.approx(
            result.series["dbi-dc"][0])
        assert result.series["dbi-opt"][-1] == pytest.approx(
            result.series["dbi-ac"][-1])

    def test_advantage_and_crossover_helpers(self, population):
        result = alpha_sweep(population, points=11)
        gains = result.advantage_over_conventional()
        assert len(gains) == 11
        assert max(gains) > 0
        crossover = result.crossover_ac_cost()
        assert crossover is not None
        assert 0.4 < crossover < 0.7

    def test_extra_schemes(self, population):
        from repro.baselines import DbiGreedyWeighted
        result = alpha_sweep(
            population[:50], points=3,
            extra_schemes={"dbi-greedy": DbiGreedyWeighted(CostModel.fixed())})
        assert "dbi-greedy" in result.series


class TestDataRateSweep:
    def test_rates_validation(self, population):
        with pytest.raises(ValueError):
            data_rate_sweep(population, data_rates_hz=[])

    def test_raw_normalisation(self, population):
        result = data_rate_sweep(population[:60],
                                 data_rates_hz=[4 * GBPS, 12 * GBPS])
        assert result.normalized["raw"] == pytest.approx([1.0, 1.0])

    def test_opt_below_raw_everywhere(self, population):
        result = data_rate_sweep(population[:60],
                                 data_rates_hz=[2 * GBPS, 8 * GBPS, 16 * GBPS])
        assert all(value <= 1.0 for value in result.normalized["dbi-opt"])

    def test_best_gain(self, population):
        result = data_rate_sweep(population[:60],
                                 data_rates_hz=[2 * GBPS, 12 * GBPS])
        rate, energy = result.best_gain("dbi-opt")
        assert rate in (2 * GBPS, 12 * GBPS)
        assert energy < 1.0

    def test_absolute_energy_decreases_with_rate(self, population):
        """Higher rate -> shorter bit time -> less DC energy per burst."""
        result = data_rate_sweep(population[:60],
                                 data_rates_hz=[2 * GBPS, 16 * GBPS])
        assert (result.absolute["raw"][1] < result.absolute["raw"][0])


class TestLoadSweep:
    def test_requires_known_encoder_energies(self, population):
        with pytest.raises(KeyError):
            load_sweep(population[:30], data_rates_hz=[4 * GBPS],
                       encoder_energy_j={"dbi-dc": 0.0})

    def test_explicit_encoder_energies(self, population):
        energies = {"dbi-dc": 0.2e-12, "dbi-ac": 0.3e-12,
                    "dbi-opt-fixed": 1.7e-12}
        result = load_sweep(population[:60],
                            c_loads_farads=[3 * PICOFARAD],
                            data_rates_hz=[4 * GBPS, 14 * GBPS],
                            encoder_energy_j=energies)
        series = result.normalized[3 * PICOFARAD]
        assert len(series) == 2
        assert all(value > 0 for value in series)

    def test_zero_encoder_energy_recovers_pure_interface_ratio(self, population):
        energies = {"dbi-dc": 0.0, "dbi-ac": 0.0, "dbi-opt-fixed": 0.0}
        result = load_sweep(population[:60],
                            c_loads_farads=[3 * PICOFARAD],
                            data_rates_hz=[14 * GBPS],
                            encoder_energy_j=energies)
        # Near the balanced point OPT(Fixed) must beat both DC and AC.
        assert result.normalized[3 * PICOFARAD][0] < 1.0
