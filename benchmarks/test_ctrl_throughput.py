"""Controller write-path throughput — the batched path's acceptance gate.

Replays the same ``REPRO_BENCH_CTRL_TRANSACTIONS`` (default 10 000)
random cache-line transactions through :class:`MemoryController` on both
backends:

* **reference** — one per-byte :class:`StreamingOptimalEncoder` per
  (channel, lane): the executable specification (timed on a fraction of
  the workload and extrapolated linearly — it is linear in transactions
  by construction);
* **vector** — the batched write path: packed striping plus the
  speculative windowed trellis, which solves blocks of lock-step rounds
  for both boundary polarities at once, so even narrow links batch
  well.

The gate requires the vector path to be **>= 10x faster** at both the
HBM-like 16-channel x 8-lane and the GDDR-like 2-channel x 4-lane
geometry, with bit-identical statistics on the parity prefix.  The
8-channel x 8-lane row is reported ungated for context.

Measurements go to ``BENCH_ctrl_throughput.json`` in
``REPRO_BENCH_ARTIFACT_DIR`` (see ``conftest.write_artifact``), and only
when that variable is set, as in CI's ``benchmark-trajectory`` job; the
gate asserts on every run.
"""

import os
import random
import time

import pytest

from conftest import emit, write_artifact

from repro.core.costs import CostModel
from repro.ctrl.controller import CACHE_LINE_BYTES, MemoryController, WriteTransaction

try:
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - benches are skipped without NumPy
    HAVE_NUMPY = False

#: Workload size of the gate.
BENCH_TRANSACTIONS = int(os.environ.get("REPRO_BENCH_CTRL_TRANSACTIONS",
                                        "10000"))

#: Required wall-clock advantage of the batched path at the gated geometry.
SPEEDUP_FLOOR = 10.0

#: The gated link geometry (channels, byte lanes) plus ungated context rows.
GEOMETRIES = [
    {"channels": 16, "byte_lanes": 8, "gated": True},   # HBM-like
    {"channels": 8, "byte_lanes": 8, "gated": False},
    {"channels": 2, "byte_lanes": 4, "gated": True},    # GDDR-like
]

#: Streaming-encoder lookahead used by both paths.
WINDOW = 16

#: The reference is timed on 1/N of the workload and extrapolated.
REFERENCE_FRACTION = 10

ARTIFACT_NAME = "BENCH_ctrl_throughput.json"


def _transactions(count):
    rng = random.Random(0x0DB1)
    return [WriteTransaction(
        index * CACHE_LINE_BYTES,
        bytes(rng.getrandbits(8) for _ in range(CACHE_LINE_BYTES)))
        for index in range(count)]


def _replay(backend, transactions, channels, byte_lanes):
    controller = MemoryController(channels=channels, byte_lanes=byte_lanes,
                                  model=CostModel.fixed(), window=WINDOW,
                                  backend=backend)
    start = time.perf_counter()
    controller.submit(transactions)
    stats = controller.flush()
    return time.perf_counter() - start, stats


def _measure(transactions, channels, byte_lanes):
    prefix = transactions[:len(transactions) // REFERENCE_FRACTION]
    t_reference, reference_stats = _replay("reference", prefix, channels,
                                           byte_lanes)
    t_reference *= REFERENCE_FRACTION
    t_vector, _stats = _replay("vector", transactions, channels, byte_lanes)
    # Bit-identity is checked on exactly the transactions the reference
    # replayed.
    _t, parity_stats = _replay("vector", prefix, channels, byte_lanes)
    assert (parity_stats.zeros, parity_stats.transitions,
            parity_stats.beats) == (reference_stats.zeros,
                                    reference_stats.transitions,
                                    reference_stats.beats)
    return {
        "channels": channels,
        "byte_lanes": byte_lanes,
        "n_transactions": len(transactions),
        "window": WINDOW,
        "reference_s": round(t_reference, 4),
        "reference_extrapolated": True,
        "vector_s": round(t_vector, 4),
        "speedup": round(t_reference / t_vector, 1),
    }


def _write_artifact(rows):
    # The streaming bench shares this artifact; the merge keeps its
    # "streaming" section.
    return write_artifact(ARTIFACT_NAME, {
        "schema": "repro.bench/ctrl_throughput/1",
        "n_transactions": BENCH_TRANSACTIONS,
        "speedup_floor": SPEEDUP_FLOOR,
        "geometries": rows,
    })


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="the batched write path requires NumPy")
def test_ctrl_throughput_gate():
    transactions = _transactions(BENCH_TRANSACTIONS)
    rows = []
    for geometry in GEOMETRIES:
        row = _measure(transactions, geometry["channels"],
                       geometry["byte_lanes"])
        row["gated"] = geometry["gated"]
        rows.append(row)
    path = _write_artifact(rows)

    lines = [
        f"| {row['channels']}ch x {row['byte_lanes']} lanes "
        f"| ref {row['reference_s']:.2f}s* "
        f"| vector {row['vector_s']:.3f}s ({row['speedup']:.0f}x) "
        f"| {'GATED >= ' + str(SPEEDUP_FLOOR) + 'x' if row['gated'] else 'reported'} |"
        for row in rows
    ]
    emit(f"controller write-path throughput at {BENCH_TRANSACTIONS} "
         f"transactions (artifact: {path})", "\n".join(lines)
         + "\n(* = reference time extrapolated from "
         f"1/{REFERENCE_FRACTION} of the workload)")

    for row in rows:
        if row["gated"]:
            assert row["speedup"] >= SPEEDUP_FLOOR, row
