"""Microbenchmarks — encoder throughput (software side).

Times the hot paths a memory-controller-model simulation would stress:
one trellis solve, batch encoding across schemes (reference and vector
backends), and the gate-level netlist evaluation of the Fig. 5 hardware
model.  The vector-vs-reference comparison at batch = 10 000 is an
acceptance gate: the NumPy backend must deliver at least a 10× speedup
over per-burst reference encoding.
"""

import time

import pytest

from repro.baselines import DbiAc, DbiDc
from repro.core.costs import CostModel
from repro.core.encoder import DbiOptimal
from repro.core.trellis import solve
from repro.core.vectorized import HAVE_NUMPY
from repro.hw.activity import netlist_invert_flags
from repro.hw.encoders import build_opt_encoder


def test_throughput_trellis_solve(benchmark, population):
    model = CostModel.fixed()
    burst = population[0]
    benchmark(solve, burst, model)


def test_throughput_opt_batch(benchmark, population):
    model = CostModel.fixed()
    scheme = DbiOptimal(model)
    sample = population[:200]

    def encode_batch():
        return sum(scheme.encode(burst).zeros() for burst in sample)

    total = benchmark(encode_batch)
    assert total > 0


def test_throughput_dc_batch(benchmark, population):
    scheme = DbiDc()
    sample = population[:200]
    benchmark(lambda: sum(scheme.encode(b).zeros() for b in sample))


def test_throughput_ac_batch(benchmark, population):
    scheme = DbiAc()
    sample = population[:200]
    benchmark(lambda: sum(scheme.encode(b).zeros() for b in sample))


def test_throughput_netlist_evaluation(benchmark, population):
    netlist = build_opt_encoder(8)
    burst = population[0]
    flags = benchmark(netlist_invert_flags, netlist, burst)
    assert len(flags) == 8


# -- vectorized batch backend -------------------------------------------------

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")

#: Batch size of the tentpole speedup gate.
SPEEDUP_BATCH = 10_000

#: Required advantage of the vector backend over per-burst encoding.
SPEEDUP_FLOOR = 10.0


@pytest.fixture(scope="module")
def packed_10k():
    from repro.core.vectorized import pack_bursts
    from repro.workloads.random_data import random_bursts

    return pack_bursts(random_bursts(count=SPEEDUP_BATCH, seed=0x0DB1))


@needs_numpy
def test_throughput_opt_vector_batch(benchmark, packed_10k):
    """One solve_batch call over the full 10k-burst population."""
    from repro.core.vectorized import solve_batch

    model = CostModel.fixed()
    flags, costs = benchmark(solve_batch, packed_10k, model)
    assert flags.shape == (SPEEDUP_BATCH, 8)
    assert (costs > 0).all()


@needs_numpy
def test_throughput_collect_activity_vector(benchmark):
    """The sweep hot path: whole-population activity tally, vector backend."""
    from repro.sim.experiments import population_activity
    from repro.workloads.random_data import random_bursts

    bursts = random_bursts(count=SPEEDUP_BATCH, seed=0x0DB1)
    scheme = DbiOptimal(CostModel.fixed())
    totals = benchmark(population_activity, scheme, bursts, "vector")
    assert totals.bursts == SPEEDUP_BATCH


@needs_numpy
def test_vector_batch_speedup_at_10k(packed_10k):
    """Acceptance gate: ≥10× over per-burst reference encoding at 10k.

    Measured on the core DP itself (flags + costs for every burst), best
    of three runs each to shrug off scheduler noise; the observed margin
    is typically 30–100×, so the 10× floor has generous headroom.
    """
    from repro.core.burst import Burst
    from repro.core.vectorized import solve_batch

    model = CostModel.fixed()
    bursts = [Burst(row.tolist()) for row in packed_10k]

    def best_of(runs, fn):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    vector_time = best_of(3, lambda: solve_batch(packed_10k, model))
    reference_time = best_of(3, lambda: [solve(b, model) for b in bursts])

    speedup = reference_time / vector_time
    print(f"\nbatch={SPEEDUP_BATCH}: reference {reference_time:.3f}s, "
          f"vector {vector_time * 1e3:.1f}ms, speedup {speedup:.1f}x")
    assert speedup >= SPEEDUP_FLOOR
