"""Ablation — coefficient quantisation (the paper's 3-bit HW choice).

Measures the encoding-quality loss of b-bit integer coefficients versus
exact real coefficients across operating points, quantifying the paper's
observation that 'the coefficients do not need to be very accurate'.
"""

import pytest

from conftest import emit
from repro.core.costs import CostModel
from repro.core.encoder import DbiOptimal, DbiOptimalQuantized
from repro.sim.report import markdown_table
from repro.sim.experiments import population_activity

BITS = (1, 2, 3, 4, 6)
FRACTIONS = (0.15, 0.35, 0.5, 0.65, 0.85)


def _quantisation_table(population):
    rows = []
    worst_by_bits = {}
    for bits in BITS:
        worst = 0.0
        row = [f"{bits}-bit"]
        for fraction in FRACTIONS:
            model = CostModel.from_ac_fraction(fraction)
            exact = population_activity(DbiOptimal(model),
                                        population).mean_cost(model)
            quantized = population_activity(
                DbiOptimalQuantized(model, bits=bits),
                population).mean_cost(model)
            loss = 100.0 * (quantized / exact - 1.0)
            worst = max(worst, loss)
            row.append(f"{loss:.3f}%")
        worst_by_bits[bits] = worst
        rows.append(row)
    return rows, worst_by_bits


def test_ablation_coefficient_bits(benchmark, population):
    sample = population[:500]
    rows, worst = benchmark.pedantic(_quantisation_table, args=(sample,),
                                     rounds=1, iterations=1)

    emit("Ablation — encoding loss of b-bit coefficients vs exact",
         markdown_table(["coefficients"] + [f"alpha={f}" for f in FRACTIONS],
                        rows))
    emit("Ablation — worst-case loss per width",
         ", ".join(f"{bits}b: {value:.3f}%" for bits, value in worst.items()))

    # Quality improves (weakly) with coefficient precision.
    assert worst[1] >= worst[3] >= worst[6] - 1e-9

    # The paper's 3-bit choice is visibly sufficient: worst loss well
    # under one percent of burst energy.
    assert worst[3] < 1.0

    # Even 1-bit (i.e. fixed alpha = beta) stays within a few percent.
    assert worst[1] < 5.0
