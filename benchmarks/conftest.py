"""Shared configuration for the figure/table benchmarks.

Each benchmark module regenerates one table or figure of the paper,
prints the rows/series it reports, and asserts the qualitative shape
(orderings, crossovers, gain magnitudes).  Population sizes default to a
laptop-friendly fraction of the paper's 10 000 bursts; set
``REPRO_BENCH_SAMPLES`` to override (e.g. 10000 for the full-scale run).
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

try:
    from repro.workloads.random_data import random_bursts
except ImportError:  # NumPy missing
    random_bursts = None

# Every figure bench draws its population from the NumPy-backed workload
# generators, and several bench modules import repro.workloads at module
# scope — without NumPy, keep pytest from importing them at all instead
# of erroring during collection.
collect_ignore_glob = [] if random_bursts is not None else ["test_*.py"]

#: Number of random bursts used by the figure sweeps.
BENCH_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "2000"))


@pytest.fixture(scope="session")
def population():
    """The Monte-Carlo burst population shared by all figure benches."""
    return random_bursts(count=BENCH_SAMPLES, seed=0x0DB1)


def emit(title: str, body: str) -> None:
    """Print a labelled block that survives pytest's capture with -s."""
    print(f"\n===== {title} =====")
    print(body)


def write_artifact(name: str, sections: dict) -> str:
    """Merge *sections* into the throughput artifact *name*, if asked to.

    Persists only when ``REPRO_BENCH_ARTIFACT_DIR`` is set (CI's
    ``benchmark-trajectory`` job sets it), so a plain test run leaves the
    tracked ``BENCH_*.json`` files alone; the gates assert either way.
    The write is read-modify-write, so benches sharing an artifact keep
    each other's keys.  Returns where the artifact went, for the report.
    """
    directory = os.environ.get("REPRO_BENCH_ARTIFACT_DIR")
    if not directory:
        return "not persisted; set REPRO_BENCH_ARTIFACT_DIR"
    path = pathlib.Path(directory) / name
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        payload = {}
    payload.update(sections)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)
