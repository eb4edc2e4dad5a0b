"""Switching-activity stimulus for the encoder netlists.

Builds input-vector sequences from burst workloads (matching the netlist
I/O contract of :mod:`repro.hw.encoders`) and runs them through
:meth:`~repro.hw.netlist.Netlist.simulate_activity` to obtain realistic
per-design dynamic energy — the basis of Table I's dynamic-power column.

:func:`measure_activity` accepts any :class:`~repro.workloads.population.
BurstPopulation` (or an explicit burst sequence), so Table I numbers can
be driven by the trace and patterned workloads of :mod:`repro.workloads`
as well as the default seeded uniform-random population.  With the
bit-parallel backend and NumPy available, rectangular populations take a
packed fast path: the burst byte matrix is transposed straight into
bit-plane words without ever materialising per-vector assignment dicts.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from ..core.bitops import ALL_ONES_WORD
from ..core.burst import Burst
from ..workloads.population import BurstPopulation, RandomPopulation, as_population
from . import bitsim
from .netlist import ActivityReport, Netlist

#: Default population size for Table I activity measurement.  The paper's
#: software figures are simulated over 10k-burst populations; the
#: bit-parallel engine makes a 100k-burst gate-level run cheap enough to
#: be the default, replacing the token 200-burst workload the scalar
#: interpreter could afford.
DEFAULT_ACTIVITY_BURSTS = 100_000

#: Seed of the default random activity workload (matches the encoding
#: quality evaluation).
DEFAULT_ACTIVITY_SEED = 0x0DB1


def burst_to_vector(burst: Burst, prev_word: int = ALL_ONES_WORD,
                    alpha: Optional[int] = None,
                    beta: Optional[int] = None) -> Dict[str, int]:
    """Map one burst onto the encoder netlist input contract."""
    vector: Dict[str, int] = {
        f"byte{i}": byte for i, byte in enumerate(burst)
    }
    vector["prev_word"] = prev_word
    if alpha is not None:
        vector["alpha"] = alpha
    if beta is not None:
        vector["beta"] = beta
    return vector


def vectors_from_bursts(bursts: Iterable[Burst],
                        prev_word: int = ALL_ONES_WORD,
                        alpha: Optional[int] = None,
                        beta: Optional[int] = None) -> List[Dict[str, int]]:
    """Vector list for a whole burst population."""
    return [burst_to_vector(burst, prev_word, alpha, beta) for burst in bursts]


def iter_vectors(bursts: Iterable[Burst],
                 prev_word: int = ALL_ONES_WORD,
                 alpha: Optional[int] = None,
                 beta: Optional[int] = None) -> Iterator[Dict[str, int]]:
    """Lazy :func:`vectors_from_bursts` — one vector dict at a time, so
    large populations stream through the simulator without an up-front
    list of 100k dicts."""
    for burst in bursts:
        yield burst_to_vector(burst, prev_word, alpha, beta)


def _packed_activity(netlist: Netlist, packed_chunks,
                     burst_length: int, prev_word: int,
                     alpha: Optional[int],
                     beta: Optional[int]) -> ActivityReport:
    """Bit-parallel activity straight from packed ``uint8`` burst chunks.

    Bypasses assignment-dict construction entirely: each byte lane of the
    packed ``(batch, burst_length)`` chunks is transposed into bit-plane
    words, and the ``prev_word``/coefficient buses (constant across the
    workload) become constant words.
    """
    compiled = bitsim.compile_netlist(netlist)
    kernel = bitsim.active_kernel()
    inputs = netlist.inputs

    # Mirror the per-vector contract of burst_to_vector exactly: any
    # input bus the workload does not drive is a missing input, just as
    # it would be in the scalar assignment path.
    provided = {"prev_word": prev_word}
    if alpha is not None:
        provided["alpha"] = alpha
    if beta is not None:
        provided["beta"] = beta
    constant_buses: List[tuple] = []
    byte_buses: List[tuple] = []
    for name, nets in inputs.items():
        if name.startswith("byte") and name[4:].isdigit():
            byte_buses.append((int(name[4:]), nets))
            continue
        try:
            value = provided[name]
        except KeyError:
            raise KeyError(f"missing input {name!r}") from None
        if value < 0 or value >> len(nets):
            raise ValueError(
                f"input {name!r}={value} does not fit in {len(nets)} bits")
        constant_buses.append((value, nets))

    for index, _nets in byte_buses:
        if index >= burst_length:
            raise KeyError(f"missing input {f'byte{index}'!r}")

    def blocks():
        for chunk in packed_chunks:
            n_vectors = len(chunk)
            values = compiled.new_values(kernel, n_vectors)
            for value, nets in constant_buses:
                for position, net in enumerate(nets):
                    values[net] = kernel.constant_word(
                        (value >> position) & 1, n_vectors)
            for index, nets in byte_buses:
                column = chunk[:, index]
                width = len(nets)
                # Mirror the scalar overflow check: a byte lane narrower
                # than 8 bits must reject values that do not fit instead
                # of silently truncating.
                if width < 8 and n_vectors and int(column.max()) >> width:
                    value = int(column[
                        (column >> width).astype(bool).argmax()])
                    raise ValueError(
                        f"input 'byte{index}'={value} does not fit in "
                        f"{width} bits")
                for net, word in zip(nets, kernel.pack_bus(
                        column, width, n_vectors)):
                    values[net] = word
            yield n_vectors, values

    return compiled.activity_from_blocks(kernel, blocks())


def measure_activity(netlist: Netlist, n_bursts: Optional[int] = None,
                     burst_length: int = 8, seed: int = DEFAULT_ACTIVITY_SEED,
                     alpha: Optional[int] = None,
                     beta: Optional[int] = None,
                     population: Optional[BurstPopulation] = None,
                     bursts: Optional[Iterable[Burst]] = None,
                     backend: Optional[str] = None) -> ActivityReport:
    """Burst-workload activity of an encoder netlist.

    The workload is, in order of precedence: ``population`` (any
    :class:`~repro.workloads.population.BurstPopulation` — random, trace
    or patterned), ``bursts`` (an explicit burst sequence), or a seeded
    uniform-random population of ``n_bursts`` bursts (default
    :data:`DEFAULT_ACTIVITY_BURSTS` — the same nominal-traffic model as
    the paper's encoding quality evaluation).

    ``backend`` selects the simulation engine exactly as in
    :meth:`~repro.hw.netlist.Netlist.simulate_activity`; workload
    validation (at least two bursts) lives in the simulator, not here.
    """
    if population is not None and bursts is not None:
        raise ValueError("pass either population= or bursts=, not both")
    if bursts is not None:
        population = as_population(bursts)
    if population is None:
        # RandomPopulation matches random_bursts byte-for-byte with NumPy
        # installed and falls back to a deterministic pure-Python stream
        # without it, keeping Table I estimates available in any
        # environment.
        population = RandomPopulation(
            count=DEFAULT_ACTIVITY_BURSTS if n_bursts is None else n_bursts,
            burst_length=burst_length, seed=seed)
    elif n_bursts is not None and n_bursts != len(population):
        raise ValueError(
            f"n_bursts={n_bursts} conflicts with population of "
            f"{len(population)} bursts")

    resolved = bitsim.resolve_sim_backend(backend)
    if resolved == "vector" and population.burst_length is not None:
        chunks = population.iter_packed(
            bitsim.active_kernel().default_chunk)
        # Probe the first chunk only: a source that cannot yield packed
        # arrays (no NumPy, OpaquePopulation, exotic custom populations)
        # falls back to dict packing here; errors from the simulation
        # itself propagate normally.
        try:
            head = next(chunks)
        except StopIteration:
            chunks = iter(())
        except (NotImplementedError, RuntimeError):
            chunks = None
        else:
            chunks = chain([head], chunks)
        if chunks is not None:
            return _packed_activity(netlist, chunks,
                                    population.burst_length, ALL_ONES_WORD,
                                    alpha, beta)
    return netlist.simulate_activity(
        iter_vectors(population, alpha=alpha, beta=beta), backend=backend)


def encode_with_netlist(netlist: Netlist, burst: Burst,
                        prev_word: int = ALL_ONES_WORD,
                        alpha: Optional[int] = None,
                        beta: Optional[int] = None) -> Mapping[str, int]:
    """Evaluate an encoder netlist on one burst (functional use).

    Returns the raw output map (``flags`` plus ``word0..``); see
    :func:`netlist_invert_flags` for the decoded flag tuple.
    """
    return netlist.evaluate(burst_to_vector(burst, prev_word, alpha, beta))


def netlist_invert_flags(netlist: Netlist, burst: Burst,
                         prev_word: int = ALL_ONES_WORD,
                         alpha: Optional[int] = None,
                         beta: Optional[int] = None) -> Sequence[bool]:
    """The invert-flag tuple an encoder netlist chooses for *burst*."""
    outputs = encode_with_netlist(netlist, burst, prev_word, alpha, beta)
    flags = outputs["flags"]
    return tuple(bool((flags >> i) & 1) for i in range(len(burst)))
