"""Ablation — greedy weighted heuristic vs the optimal trellis search.

Chang et al. (paper §II) propose heuristic joint encodings; this bench
quantifies what the shortest-path formulation buys over a greedy
per-byte decision that uses exactly the same edge weights.
"""

import pytest

from conftest import emit
from repro.baselines import DbiGreedyWeighted
from repro.core.costs import CostModel
from repro.core.encoder import DbiOptimal
from repro.sim.report import markdown_table
from repro.sim.experiments import population_activity

FRACTIONS = (0.2, 0.35, 0.5, 0.65, 0.8)


def _heuristic_gaps(population):
    rows = []
    gaps = {}
    for fraction in FRACTIONS:
        model = CostModel.from_ac_fraction(fraction)
        optimal = population_activity(DbiOptimal(model),
                                      population).mean_cost(model)
        greedy = population_activity(DbiGreedyWeighted(model),
                                     population).mean_cost(model)
        gap = 100.0 * (greedy / optimal - 1.0)
        gaps[fraction] = gap
        rows.append([f"{fraction:.2f}", f"{optimal:.3f}", f"{greedy:.3f}",
                     f"{gap:.2f}%"])
    return rows, gaps


def test_ablation_heuristics(benchmark, population):
    sample = population[:800]
    rows, gaps = benchmark.pedantic(_heuristic_gaps, args=(sample,),
                                    rounds=1, iterations=1)

    emit("Ablation — greedy weighted heuristic vs optimal",
         markdown_table(["AC cost", "optimal", "greedy", "greedy penalty"],
                        rows))

    # Greedy is never better than optimal (sanity) and pays a measurable
    # penalty somewhere in the balanced region.
    for fraction, gap in gaps.items():
        assert gap >= -1e-9
    assert max(gaps.values()) > 0.2

    # At the extremes the greedy rule coincides with DC/AC and the trellis
    # advantage shrinks.
    assert gaps[0.2] <= max(gaps.values())
