"""Vectorized (NumPy) batch backend for DBI encoding.

The reference implementation (:mod:`repro.core.trellis` and the scheme
classes) solves one burst at a time in pure Python — ideal as an
executable specification, but every figure sweep pays per-burst Python
overhead.  This module provides the batched hot path: bursts are packed
into a ``(batch, n)`` ``uint8`` array and the two-state Viterbi recursion
of the paper's Fig. 5 runs across the whole batch at once — the only
Python loop is over the ``n`` byte positions of a burst (8 for JEDEC
bursts).

One lean kernel, :func:`_viterbi_planes`, serves every trellis in the
library: :func:`solve_batch`, the speculative windowed trellis of
:class:`repro.core.streaming.BatchStreamingEncoder` and the grouped-DBI
trellises of :mod:`repro.extensions.granularity`.  It never builds wire
words.  A raw and an inverted word differ in every lane, so one
``uint8`` popcount plane per step prices all four edges (raw→raw and
inv→inv cost ``t`` transitions, the cross edges ``width - t``), and a
second plane holds the raw word's zeros (the inverted word has
``width - z``).

Bit-identity with the reference is a hard guarantee, not an
approximation: every edge weight is ``alpha * t + beta * z`` on the same
small integers as :meth:`repro.core.costs.CostModel.word_cost` — integers
convert to doubles exactly, so the products and sums are the same
doubles — and the recursion compares and keeps minima in the order of
:func:`repro.core.trellis.solve`, so invert flags *and* path costs match
the reference exactly (the differential suite in
``tests/core/test_vectorized_parity.py`` enforces this).

Backend selection
-----------------
Batch entry points (:meth:`repro.core.schemes.DbiScheme.encode_batch`,
:func:`repro.sim.experiments.population_activity`,
:func:`repro.sim.runner.evaluate`)
accept ``backend="reference" | "vector" | "auto"``.  ``auto`` (the
default) picks ``vector`` whenever NumPy is importable and falls back to
the pure-Python reference otherwise.  The process-wide default can be
overridden with :func:`set_default_backend` or the ``REPRO_BACKEND``
environment variable.  NumPy is an optional dependency: importing this
module never fails, only *using* a vector kernel without NumPy raises.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

from .bitops import (
    ALL_ONES_WORD,
    BYTE_MASK,
    DBI_BIT,
    WORD_MASK,
    WORD_WIDTH,
    hamming_weight_table,
)

try:  # pragma: no cover - trivially true/false per environment
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: True when NumPy is importable and the vector backend is usable.
HAVE_NUMPY = _np is not None

#: Recognised backend names.
BACKENDS = ("auto", "reference", "vector")

def _backend_from_env() -> str:
    """Initial process default, validated at import so a typo'd
    ``REPRO_BACKEND`` fails fast instead of erroring deep inside the
    first batch call."""
    value = os.environ.get("REPRO_BACKEND", "auto")
    if value not in BACKENDS:
        import warnings

        warnings.warn(
            f"ignoring invalid REPRO_BACKEND={value!r}; choose from "
            f"{BACKENDS} (falling back to 'auto')",
            RuntimeWarning, stacklevel=2)
        return "auto"
    if value == "vector" and not HAVE_NUMPY:
        import warnings

        warnings.warn(
            "REPRO_BACKEND=vector requires NumPy, which is not installed; "
            "falling back to 'auto' (reference path)",
            RuntimeWarning, stacklevel=2)
        return "auto"
    return value


_default_backend = _backend_from_env()


def _require_numpy():
    if _np is None:
        raise RuntimeError(
            "the 'vector' backend requires NumPy; install it or select "
            "backend='reference'"
        )
    return _np


# -- backend selection -------------------------------------------------------

def available_backends() -> List[str]:
    """Concrete backends usable in this environment."""
    return ["reference", "vector"] if HAVE_NUMPY else ["reference"]


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (``auto``/``reference``/``vector``)."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {BACKENDS}")
    if name == "vector":
        _require_numpy()
    global _default_backend
    _default_backend = name


def get_default_backend() -> str:
    """The current process-wide default backend name (may be ``auto``)."""
    return _default_backend


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend spec to a concrete ``reference`` or ``vector``.

    ``None`` defers to the process default (set via
    :func:`set_default_backend` or ``REPRO_BACKEND``); ``auto`` resolves to
    ``vector`` when NumPy is present, else ``reference``.

    >>> resolve_backend("reference")
    'reference'
    """
    if backend is None:
        backend = _default_backend
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if backend == "auto":
        return "vector" if HAVE_NUMPY else "reference"
    if backend == "vector":
        _require_numpy()
    return backend


# -- packing ----------------------------------------------------------------

#: 9-bit popcount table, built lazily (index by any value in [0, 511]).
_POPCOUNT9 = None
_POPCOUNT9_U8 = None


def popcount_table():
    """The shared ``(512,)`` int64 popcount table for 9-bit words."""
    global _POPCOUNT9
    np = _require_numpy()
    if _POPCOUNT9 is None:
        _POPCOUNT9 = np.asarray(hamming_weight_table(WORD_WIDTH), dtype=np.int64)
    return _POPCOUNT9


def _popcount_u8():
    """:func:`popcount_table` as ``uint8``, for the trellis popcount planes."""
    global _POPCOUNT9_U8
    if _POPCOUNT9_U8 is None:
        _POPCOUNT9_U8 = popcount_table().astype(_np.uint8)
    return _POPCOUNT9_U8


def pack_bursts(bursts: Sequence):
    """Pack equal-length bursts into a ``(batch, n)`` ``uint8`` array.

    Accepts :class:`~repro.core.burst.Burst` objects, byte sequences or an
    already-packed 2-D array.  Raises ``ValueError`` when the batch is
    empty or the lengths are ragged (callers that can encounter ragged
    batches should use :func:`try_pack_bursts`).
    """
    np = _require_numpy()
    if isinstance(bursts, np.ndarray):
        if bursts.ndim != 2:
            raise ValueError(f"packed bursts must be 2-D, got shape {bursts.shape}")
        if bursts.dtype != np.uint8:
            if not np.issubdtype(bursts.dtype, np.integer):
                raise TypeError(
                    f"packed bursts must have an integer dtype, got {bursts.dtype}")
            if bursts.size and (bursts.min() < 0 or bursts.max() > BYTE_MASK):
                raise ValueError(f"byte values out of range [0, {BYTE_MASK}]")
        return np.ascontiguousarray(bursts, dtype=np.uint8)
    rows = [getattr(burst, "data", burst) for burst in bursts]
    if not rows:
        raise ValueError("burst population is empty")
    length = len(rows[0])
    if any(len(row) != length for row in rows):
        raise ValueError("bursts have ragged lengths; pack per length group")
    # Re-enter through the ndarray branch so dtype/range validation is
    # applied uniformly regardless of the input form.
    return pack_bursts(np.asarray(rows))


def try_pack_bursts(bursts: Sequence):
    """Like :func:`pack_bursts` but returns ``None`` on ragged batches."""
    try:
        return pack_bursts(bursts)
    except ValueError:
        return None


def try_vector_pack(scheme, bursts, backend: Optional[str] = None,
                    chained: bool = False):
    """The single gate for every vector fast path in the library.

    Returns the packed ``(batch, n)`` array when *scheme* can be run
    vectorized over *bursts* under the resolved *backend* — i.e. the
    backend is ``vector``, the scheme has a batch kernel, the mode is
    vectorizable (chained transmission needs state-free flag decisions),
    and the population packs rectangularly.  Returns ``None`` otherwise,
    meaning: use the reference per-burst path.
    """
    if resolve_backend(backend) != "vector" or not scheme.supports_batch():
        return None
    if chained and scheme.stateful_flags:
        return None
    return try_pack_bursts(bursts)


def _as_prev_words(prev_words: Union[int, Sequence[int]], batch: int):
    """Broadcast/validate boundary words to an ``(batch,)`` int64 array."""
    np = _require_numpy()
    arr = np.asarray(prev_words, dtype=np.int64)
    if arr.ndim == 0:
        arr = np.full(batch, int(arr), dtype=np.int64)
    if arr.shape != (batch,):
        raise ValueError(f"prev_words shape {arr.shape} does not match batch {batch}")
    if arr.size and (arr.min() < 0 or arr.max() > WORD_MASK):
        raise ValueError(f"prev_words out of range [0, {WORD_MASK}]")
    return arr


def _word_planes(data) -> Tuple:
    """Per-polarity wire words for a packed batch: ``(raw, inv)`` int64."""
    np = _require_numpy()
    wide = data.astype(np.int64)
    return wide | DBI_BIT, wide ^ BYTE_MASK


# -- the batched two-state Viterbi recursion ---------------------------------

def solve_batch(data, model, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """Batched optimal DBI encoding (the paper's trellis, array-at-a-time).

    Parameters
    ----------
    data:
        ``(batch, n)`` ``uint8`` array (or anything :func:`pack_bursts`
        accepts) — one burst per row.
    model:
        A :class:`~repro.core.costs.CostModel`; only ``alpha``/``beta``
        are read.
    prev_words:
        Boundary bus word, either a scalar shared by every row or one
        word per row (``(batch,)``) — this is what makes the function
        usable for chained/streaming boundaries.

    Returns
    -------
    ``(flags, costs)`` where ``flags`` is ``(batch, n)`` bool (True =
    transmit inverted) and ``costs`` is ``(batch,)`` float64, both
    bit-identical to running :func:`repro.core.trellis.solve` row by row.
    """
    np = _require_numpy()
    data = pack_bursts(data)
    prev = _as_prev_words(prev_words, data.shape[0])
    flags, costs = _viterbi_planes(*_popcount_planes(data, prev),
                                   model.alpha, model.beta)
    return np.ascontiguousarray(flags.T), costs


def _popcount_planes(values, prev, width: int = WORD_WIDTH):
    """Column-major popcount planes of a packed ``(batch, n)`` array.

    *values* holds the data lanes of each word (``width - 1`` bits; the
    DBI lane sits on top, 1 in the raw word, 0 in the inverted one) and
    *prev* the ``(batch,)`` int64 boundary words.  Returns ``(t, z)``,
    both ``(n, batch)`` ``uint8``:

    * ``t[0] = popcount(prev ^ raw[0])`` and
      ``t[i] = popcount(raw[i - 1] ^ raw[i])`` — the transitions of the
      raw→raw edge into step *i*;
    * ``z[i]`` — the zeros of the raw word of step *i*.

    The other three edges of a step follow from these two planes (see
    :func:`_viterbi_planes`), so no wire-word plane is ever built.
    """
    np = _require_numpy()
    pop = _popcount_u8()
    cols = np.ascontiguousarray(values.T)
    t = np.empty(cols.shape, dtype=np.uint8)
    if len(cols):
        t[0] = pop[prev ^ (1 << (width - 1)) ^ cols[0]]
        t[1:] = pop[cols[:-1] ^ cols[1:]]
    return t, (width - 1) - pop[cols]


def _viterbi_planes(t, z, alpha: float, beta: float, width: int = WORD_WIDTH):
    """The two-state Viterbi recursion over popcount planes.

    The one compute core behind :func:`solve_batch`, the speculative
    windowed trellis of :class:`repro.core.streaming.BatchStreamingEncoder`
    and the grouped trellises of
    :class:`repro.extensions.granularity.GroupedDbiOptimal`.  *t* and *z*
    are ``(n, *batch)`` ``uint8`` planes as built by
    :func:`_popcount_planes` (*z* may broadcast against *t*); step *i* is
    the leading axis, so every per-step slice is contiguous.  Returns
    ``(flags, totals)``: ``(n, *batch)`` bool and ``(*batch,)`` path costs.

    A raw and an inverted word differ in every one of the ``width``
    lanes, so one popcount prices all four edges of a step: raw→raw and
    inv→inv cost ``t`` transitions, the two cross edges ``width - t``,
    and the inverted word has ``width - z`` zeros.  Edge weights are
    read from a table of ``alpha * k + beta * j`` over those small
    integers — the same IEEE-754 operations on the same integers as
    :meth:`CostModel.word_cost`, hence the same doubles — and the
    recursion compares and keeps minima in the reference order
    (ties toward the raw word), so flags and totals are bit-identical to
    :func:`repro.core.trellis.solve`.

    ``width`` is the lane count of one word: 9 for the paper's
    byte+DBI words, ``g + 1`` for grouped DBI.
    """
    np = _require_numpy()
    if not 0 < width <= WORD_WIDTH:
        raise ValueError(f"width must be in [1, {WORD_WIDTH}], got {width}")
    n = t.shape[0]
    span = np.arange(width + 1)
    same, cross = (alpha * span)[:, None], (alpha * span[::-1])[:, None]
    zeros_raw, zeros_inv = (beta * span)[None, :], (beta * span[::-1])[None, :]
    # Row e of the table prices edge e = raw→raw, raw→inv, inv→raw,
    # inv→inv at index t * (width + 1) + z.
    table = np.stack([same + zeros_raw, cross + zeros_inv,
                      cross + zeros_raw, same + zeros_inv]).reshape(4, -1)
    edges = np.take(table, t * np.uint8(width + 1) + z, axis=1)
    batch_shape = edges.shape[2:]

    cost = edges[0:2, 0].copy()
    via_raw = np.empty_like(cost)
    via_inv = np.empty_like(cost)
    choice = np.empty((n, 2) + batch_shape, dtype=bool)
    for i in range(1, n):
        np.add(cost[0], edges[0:2, i], out=via_raw)
        np.add(cost[1], edges[2:4, i], out=via_inv)
        np.less(via_inv, via_raw, out=choice[i])
        np.minimum(via_raw, via_inv, out=cost)

    flags = np.empty((n,) + batch_shape, dtype=bool)
    current = cost[1] < cost[0]
    flags[n - 1] = current
    for i in range(n - 1, 0, -1):
        current = _select(current, choice[i, 1], choice[i, 0])
        flags[i - 1] = current
    return flags, np.minimum(cost[0], cost[1])


def _plane_tallies(flags, t, z, width: int = WORD_WIDTH):
    """Per-column ``(transitions, zeros)`` of committed flags, int64.

    Reads the tallies of the wire words selected by ``(n, batch)``
    *flags* straight off the :func:`_popcount_planes` planes: an
    inverted word has ``width - z`` zeros, and a step's transitions are
    ``t`` when its polarity matches the previous word's (the boundary
    word counts as raw) and ``width - t`` when it flips.  Temporaries
    stay ``uint8``/bool; only the column sums are int64.
    """
    np = _require_numpy()
    flips = flags.copy()
    flips[1:] ^= flags[:-1]
    transitions = _select(flips, width - t, t).sum(axis=0, dtype=np.int64)
    zeros = _select(flags, width - z, z).sum(axis=0, dtype=np.int64)
    return transitions, zeros


def _select(cond, if_true, if_false):
    """``np.where(cond, if_true, if_false)`` for bool and ``uint8`` planes.

    Written bitwise because NumPy's ``where`` on these small dtypes is
    an order of magnitude slower than two XORs and a multiply.
    """
    return if_false ^ ((if_true ^ if_false) * cond)


# -- baseline scheme kernels -------------------------------------------------

def raw_flags(data, prev_words=ALL_ONES_WORD):
    """RAW never inverts: an all-False ``(batch, n)`` flag array."""
    np = _require_numpy()
    data = pack_bursts(data)
    return np.zeros(data.shape, dtype=bool)


def dc_flags(data, prev_words=ALL_ONES_WORD):
    """DBI DC decisions for a batch: invert iff a byte has ≥ 5 zeros."""
    np = _require_numpy()
    data = pack_bursts(data)
    pop = popcount_table()
    # zeros_in_byte(b) > 4  <=>  popcount(b) < 4
    return pop[data.astype(np.int64)] < 4


def ac_flags(data, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """DBI AC decisions: greedy toggle minimisation, batch-parallel.

    Sequential over the ≤ n byte positions (the decision feeds the next
    beat's boundary), vectorized over the batch axis.
    """
    np = _require_numpy()
    data = pack_bursts(data)
    batch, n = data.shape
    pop = popcount_table()
    last = _as_prev_words(prev_words, batch)
    words_raw, words_inv = _word_planes(data)
    flags = np.zeros((batch, n), dtype=bool)
    for i in range(n):
        wr, wi = words_raw[:, i], words_inv[:, i]
        inverted = pop[last ^ wi] < pop[last ^ wr]
        flags[:, i] = inverted
        last = np.where(inverted, wi, wr)
    return flags


def acdc_flags(data, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """DBI ACDC decisions: first byte by the DC rule, rest by the AC rule."""
    np = _require_numpy()
    data = pack_bursts(data)
    batch, n = data.shape
    pop = popcount_table()
    words_raw, words_inv = _word_planes(data)
    flags = np.zeros((batch, n), dtype=bool)
    first_inverted = pop[data[:, 0].astype(np.int64)] < 4
    flags[:, 0] = first_inverted
    if n > 1:
        last = np.where(first_inverted, words_inv[:, 0], words_raw[:, 0])
        flags[:, 1:] = ac_flags(data[:, 1:], last)
    return flags


def businvert_flags(data, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """Stan–Burleson bus-invert: invert iff > 4 data lanes would toggle."""
    np = _require_numpy()
    data = pack_bursts(data)
    batch, n = data.shape
    pop = popcount_table()
    last = _as_prev_words(prev_words, batch)
    words_raw, words_inv = _word_planes(data)
    flags = np.zeros((batch, n), dtype=bool)
    for i in range(n):
        byte = data[:, i].astype(np.int64)
        inverted = pop[(last & BYTE_MASK) ^ byte] > 4
        flags[:, i] = inverted
        last = np.where(inverted, words_inv[:, i], words_raw[:, i])
    return flags


def greedy_flags(data, model,
                 prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """Chang-style greedy weighted decisions (per-byte cheapest word)."""
    np = _require_numpy()
    data = pack_bursts(data)
    batch, n = data.shape
    pop = popcount_table()
    alpha, beta = model.alpha, model.beta
    last = _as_prev_words(prev_words, batch)
    words_raw, words_inv = _word_planes(data)
    flags = np.zeros((batch, n), dtype=bool)
    for i in range(n):
        wr, wi = words_raw[:, i], words_inv[:, i]
        raw_cost = alpha * pop[last ^ wr] + beta * (WORD_WIDTH - pop[wr])
        inv_cost = alpha * pop[last ^ wi] + beta * (WORD_WIDTH - pop[wi])
        inverted = inv_cost < raw_cost
        flags[:, i] = inverted
        last = np.where(inverted, wi, wr)
    return flags


# -- activity tallies --------------------------------------------------------

def flags_to_words(data, flags):
    """Wire words ``(batch, n)`` int64 for packed bytes and invert flags."""
    np = _require_numpy()
    data = pack_bursts(data)
    words_raw, words_inv = _word_planes(data)
    return np.where(np.asarray(flags, dtype=bool), words_inv, words_raw)


def batch_activity(words, prev_words: Union[int, Sequence[int]] = ALL_ONES_WORD):
    """Per-burst ``(transitions, zeros)`` tallies for a batch of word rows.

    Each row is measured from its own boundary word (independent mode).
    Returns two ``(batch,)`` int64 arrays.
    """
    np = _require_numpy()
    words = np.asarray(words, dtype=np.int64)
    batch, n = words.shape
    pop = popcount_table()
    prev = _as_prev_words(prev_words, batch)
    zeros = (WORD_WIDTH - pop[words]).sum(axis=1)
    transitions = pop[prev ^ words[:, 0]]
    if n > 1:
        transitions = transitions + pop[words[:, :-1] ^ words[:, 1:]].sum(axis=1)
    return transitions, zeros


def scheme_batch_activity(scheme, data, prev_word: int = ALL_ONES_WORD,
                          chained: bool = False):
    """Flags plus population activity totals for one scheme, one call.

    The shared tally pipeline behind the sim layer's vector fast paths
    (:func:`repro.sim.runner.run_scheme`,
    :func:`repro.sim.experiments.population_activity`): compute the
    scheme's batch flags, materialise the wire words, and tally either
    per-burst (independent boundaries) or threaded (chained) activity.

    Returns ``(flags, total_transitions, total_zeros)`` with the totals
    as Python ints.
    """
    np = _require_numpy()
    if chained and getattr(scheme, "stateful_flags", True):
        # Flags are computed with every row starting from prev_word, so
        # threading boundaries afterwards is only sound when the flags
        # never read the incoming state (see try_vector_pack).
        raise ValueError(
            f"scheme {getattr(scheme, 'name', scheme)!r} has state-dependent "
            "flag decisions; chained mode requires the reference path")
    data = pack_bursts(data)
    prev = np.full(data.shape[0], int(prev_word), dtype=np.int64)
    flags = scheme.batch_flags(data, prev)
    words = flags_to_words(data, flags)
    if chained:
        transitions, zeros = chain_activity(words, prev_word)
    else:
        per_transitions, per_zeros = batch_activity(words, prev_word)
        transitions, zeros = int(per_transitions.sum()), int(per_zeros.sum())
    return flags, transitions, zeros


def chain_activity(words, prev_word: int = ALL_ONES_WORD) -> Tuple[int, int]:
    """Population totals when burst rows are transmitted back-to-back.

    Row-major order: the last word of row *k* is the electrical boundary
    of row *k+1* — the vectorized twin of the runner's chained mode.
    Returns ``(total_transitions, total_zeros)`` as Python ints.
    """
    np = _require_numpy()
    words = np.asarray(words, dtype=np.int64)
    pop = popcount_table()
    flat = words.ravel()
    zeros = int((WORD_WIDTH - pop[flat]).sum())
    transitions = int(pop[int(prev_word) ^ flat[0]])
    transitions += int(pop[flat[:-1] ^ flat[1:]].sum())
    return transitions, zeros
