"""Comparison and summary helpers for persisted experiment artifacts.

The experiment engine (:mod:`repro.sim.experiments`) persists every run
as spec + results + provenance.  These helpers answer the two questions a
CI pipeline (or a reviewer) asks of such files:

* *are two runs equivalent?* — :func:`compare_artifacts` checks spec
  identity (population digest, grid, slots) and exact series/totals
  equality (optionally with a relative tolerance), which is how the CI
  leg proves ``--jobs 1`` and ``--jobs 4`` artifacts are bit-identical;
* *what is in this file?* — :func:`summarize_artifact` renders a short
  markdown digest of the spec and provenance.

The service layer adds a third question — *did the daemon answer exactly
what a direct run produces?* — which :func:`canonical_artifact_json`
settles: it serialises any artifact payload to a canonical byte string
with the run-volatile ``provenance`` member dropped, so two payloads are
equivalent iff their canonical strings are byte-identical.  This is how
the ``service-smoke`` CI job diffs daemon responses against direct
:func:`~repro.sim.experiments.run_experiment` output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Mapping, Union

from ..sim.experiments import ExperimentResult, load_artifact
from ..sim.report import markdown_table


def canonical_artifact_json(payload: Mapping[str, object]) -> str:
    """Canonical byte-comparable serialisation of an artifact payload.

    Drops the top-level ``provenance`` member (wall-clock timings,
    timestamps, host Python — everything that legitimately differs
    between two equivalent runs) and dumps the rest with sorted keys and
    fixed separators.  Spec, series, totals and point keys all remain,
    so equality really is result equality.
    """
    trimmed = {key: value for key, value in payload.items()
               if key != "provenance"}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"))

ArtifactLike = Union[str, ExperimentResult]


def _as_result(artifact: ArtifactLike) -> ExperimentResult:
    if isinstance(artifact, ExperimentResult):
        return artifact
    result = load_artifact(artifact)
    if not isinstance(result, ExperimentResult):
        raise ValueError(f"{artifact}: not a figure experiment artifact")
    return result


@dataclass
class ArtifactDiff:
    """Outcome of :func:`compare_artifacts`."""

    #: True when no mismatch was found (with a tolerance, small series
    #: deviations may remain — see :attr:`max_abs_delta`).
    identical: bool
    #: Largest absolute series deviation across *all* points, including
    #: deviations a tolerance accepted (0.0 for bit-identical series).
    max_abs_delta: float = 0.0
    #: Human-readable mismatch descriptions, empty when identical.
    mismatches: List[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.identical:
            if self.max_abs_delta:
                return ("artifacts equivalent (max series delta "
                        f"{self.max_abs_delta:g} within tolerance)")
            return "artifacts identical"
        lines = [f"artifacts differ (max series delta {self.max_abs_delta:g}):"]
        lines.extend(f"  - {note}" for note in self.mismatches)
        return "\n".join(lines)


def compare_artifacts(first: ArtifactLike, second: ArtifactLike,
                      rel_tol: float = 0.0) -> ArtifactDiff:
    """Compare two runs/artifacts for equivalence.

    With the default ``rel_tol=0.0`` series values must match exactly
    (the engine's determinism guarantee); a positive tolerance allows
    cross-environment comparisons where populations match but float
    pipelines may not.
    """
    a = _as_result(first)
    b = _as_result(second)
    mismatches: List[str] = []
    max_delta = 0.0

    if a.spec.name != b.spec.name:
        mismatches.append(f"spec name: {a.spec.name!r} != {b.spec.name!r}")
    if a.spec.population.digest() != b.spec.population.digest():
        mismatches.append(
            f"population: {a.spec.population.digest()} != "
            f"{b.spec.population.digest()}")
    if a.spec.grid != b.spec.grid:
        mismatches.append(
            f"grid: {len(a.spec.grid)} vs {len(b.spec.grid)} points "
            "(or differing coefficients)")
    slot_names_a = [slot.name for slot in a.spec.slots]
    slot_names_b = [slot.name for slot in b.spec.slots]
    if slot_names_a != slot_names_b:
        mismatches.append(f"slots: {slot_names_a} != {slot_names_b}")

    for name in sorted(set(a.series) | set(b.series)):
        series_a = a.series.get(name)
        series_b = b.series.get(name)
        if series_a is None or series_b is None:
            mismatches.append(f"series {name!r} missing on one side")
            continue
        if len(series_a) != len(series_b):
            mismatches.append(
                f"series {name!r}: {len(series_a)} vs {len(series_b)} points")
            continue
        reported = False
        for index, (value_a, value_b) in enumerate(zip(series_a, series_b)):
            if value_a == value_b:
                continue
            delta = abs(value_a - value_b)
            max_delta = max(max_delta, delta)
            if not reported and not math.isclose(value_a, value_b,
                                                 rel_tol=rel_tol,
                                                 abs_tol=0.0):
                mismatches.append(
                    f"series {name!r}[{index}]: {value_a!r} != {value_b!r}")
                reported = True

    if a.totals != b.totals:
        shared = set(a.totals) & set(b.totals)
        if any(a.totals[key] != b.totals[key] for key in shared):
            mismatches.append("activity totals differ for shared cache keys")
        elif set(a.totals) != set(b.totals):
            mismatches.append("activity cache keys differ")

    return ArtifactDiff(identical=not mismatches, max_abs_delta=max_delta,
                        mismatches=mismatches)


def summarize_artifact(artifact: ArtifactLike) -> str:
    """Markdown digest of an artifact's spec and provenance."""
    result = _as_result(artifact)
    spec = result.spec
    provenance = result.provenance
    rows = [
        ["experiment", spec.name],
        ["figure", spec.figure or "-"],
        ["population", f"{spec.population.digest()} "
                       f"({len(spec.population)} bursts)"],
        ["grid points", len(spec.grid)],
        ["series", ", ".join(result.series)],
        ["backend", provenance.get("backend", "-")],
        ["jobs", provenance.get("jobs", "-")],
        ["encodes", provenance.get("encodes", "-")],
        ["repro version", provenance.get("repro_version", "-")],
    ]
    return markdown_table(["field", "value"], rows)
