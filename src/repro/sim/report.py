"""Tabular reporting for sweeps and evaluations.

All benchmarks print their figure/table data through these helpers so the
regenerated numbers appear in a uniform, diff-friendly format (markdown
tables and CSV).
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence

from ..core.costs import CostModel
from .metrics import EvaluationResult
from .sweep import AlphaSweepResult, DataRateSweepResult, LoadSweepResult


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table.

    >>> print(markdown_table(["a", "b"], [[1, 2]]))
    | a | b |
    |---|---|
    | 1 | 2 |
    """
    out = [f"| {' | '.join(str(h) for h in headers)} |",
           f"|{'|'.join('---' for _ in headers)}|"]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        out.append(f"| {' | '.join(str(cell) for cell in row)} |")
    return "\n".join(out)


def csv_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as CSV text (no quoting — numeric payloads only)."""
    buffer = io.StringIO()
    buffer.write(",".join(str(h) for h in headers) + "\n")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        buffer.write(",".join(str(cell) for cell in row) + "\n")
    return buffer.getvalue()


def format_alpha_sweep(result: AlphaSweepResult, points: int = 11) -> str:
    """Markdown summary of a Fig. 3/4 sweep at *points* subsampled rows."""
    schemes = list(result.series)
    step = max(1, (len(result.ac_costs) - 1) // (points - 1))
    rows: List[List[object]] = []
    for index in range(0, len(result.ac_costs), step):
        row: List[object] = [f"{result.ac_costs[index]:.2f}"]
        row.extend(f"{result.series[name][index]:.2f}" for name in schemes)
        rows.append(row)
    return markdown_table(["ac cost"] + schemes, rows)


def format_data_rate_sweep(result: DataRateSweepResult,
                           every: int = 4) -> str:
    """Markdown summary of a Fig. 7 sweep (normalised energies)."""
    schemes = list(result.normalized)
    rows: List[List[object]] = []
    for index in range(0, len(result.data_rates_hz), every):
        rate_gbps = result.data_rates_hz[index] / 1e9
        row: List[object] = [f"{rate_gbps:.1f}"]
        row.extend(f"{result.normalized[name][index]:.4f}" for name in schemes)
        rows.append(row)
    return markdown_table(["Gbps"] + schemes, rows)


def format_load_sweep(result: LoadSweepResult, every: int = 4) -> str:
    """Markdown summary of a Fig. 8 sweep (normalised energies per load)."""
    loads = sorted(result.normalized)
    headers = ["Gbps"] + [f"{load * 1e12:.0f} pF" for load in loads]
    rows: List[List[object]] = []
    for index in range(0, len(result.data_rates_hz), every):
        rate_gbps = result.data_rates_hz[index] / 1e9
        row: List[object] = [f"{rate_gbps:.1f}"]
        row.extend(f"{result.normalized[load][index]:.4f}" for load in loads)
        rows.append(row)
    return markdown_table(headers, rows)


def format_provenance(result) -> str:
    """One-line provenance footer of a run or loaded artifact, any axis.

    Names the backend, the work done and the cache use, then the spec,
    its population (when it has one) and where a loaded artifact came
    from.  The CLI prints it under every engine command's output.
    """
    provenance = result.provenance
    settings = " ".join(
        f"{name}={provenance[name]}"
        for name in ("backend", "jobs", "word_impl", "encodes", "replays",
                     "injections", "cache_hits")
        if name in provenance)
    parts = [f"{settings} elapsed={provenance.get('elapsed_s', 0.0):.3f}s",
             f"experiment {result.spec.name}"]
    population = getattr(result.spec, "population", None)
    if population is not None:
        parts.append(f"population {population.digest()} "
                     f"({len(population)} bursts)")
    if provenance.get("loaded_from"):
        parts.append(f"loaded from {provenance['loaded_from']}")
    return "# " + " | ".join(parts)


def format_evaluation(result: EvaluationResult,
                      model: Optional[CostModel] = None) -> str:
    """Markdown summary of an :func:`repro.sim.runner.evaluate` run."""
    cost_model = model if model is not None else CostModel.fixed()
    headers = ["scheme", "mean zeros", "mean transitions", "mean cost",
               "invert rate"]
    rows: List[List[object]] = []
    for name in result.schemes():
        metrics = result[name]
        rows.append([
            name,
            f"{metrics.mean_zeros:.2f}",
            f"{metrics.mean_transitions:.2f}",
            f"{metrics.mean_cost(cost_model):.2f}",
            f"{metrics.invert_rate:.3f}",
        ])
    return markdown_table(headers, rows)


def savings_summary(result: EvaluationResult, model: CostModel,
                    optimal: str = "dbi-opt",
                    conventional: Sequence[str] = ("dbi-dc", "dbi-ac")) -> Dict[str, float]:
    """Percent savings of *optimal* vs the best conventional scheme."""
    best_name = result.best_scheme(model, list(conventional))
    best_cost = result[best_name].mean_cost(model)
    optimal_cost = result[optimal].mean_cost(model)
    return {
        "best_conventional": best_cost,
        "optimal": optimal_cost,
        "saving_percent": 100.0 * (1.0 - optimal_cost / best_cost),
    }
