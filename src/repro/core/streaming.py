"""Streaming optimal DBI encoding across burst boundaries.

The paper encodes each burst independently against an idle-high boundary.
When bursts are transmitted back-to-back (a streaming write), the last
word of one burst is the electrical boundary of the next, and per-burst
optimisation is no longer globally optimal: the cheapest encoding of
burst *k* can leave the bus in a state that makes burst *k+1* expensive.

This module extends the paper's formulation to streams:

* :func:`solve_stream` — jointly optimal invert flags for a whole byte
  stream (one long trellis; still O(total bytes)).
* :class:`StreamingOptimalEncoder` — an online encoder with a configurable
  **lookahead window**: bytes are buffered, the trellis is solved over the
  window, and a prefix of decisions is committed.  ``window=1`` reproduces
  the greedy weighted heuristic; ``window → stream length`` converges to
  the joint optimum — which the tests and the window-size ablation
  quantify.
* :class:`BatchStreamingEncoder` — the batch sibling for controllers
  that drive many byte lanes in lock-step.  It speculates across
  rounds: past the first round of a push, a window's boundary word can
  only be the raw or the inverted word of the byte before it, so whole
  blocks of rounds are solved for both boundaries in one call of the
  vector backend's Viterbi kernel and a cheap scan keeps the live
  branch.  Per-lane decisions and activity tallies are bit-identical
  to running one :class:`StreamingOptimalEncoder` per lane, which the
  differential suite (``tests/core/test_streaming_batch.py``) enforces.

This is the natural "integrate into future memories" extension the
paper's conclusion sketches: a controller that optimises over the write
queue instead of a single burst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from .bitops import (
    ALL_ONES_WORD,
    BYTE_MASK,
    DBI_BIT,
    WORD_WIDTH,
    check_byte,
    check_word,
    make_word,
)
from .burst import Burst
from .costs import CostModel
from .trellis import solve

#: Trellis cells (lanes x rounds x window) per speculative block of
#: :meth:`BatchStreamingEncoder._speculate`.  Both boundary branches are
#: solved and the kernel keeps four float64 edge weights per cell, so a
#: block's scratch stays near 70 bytes x this budget (about 5 MiB) at any
#: link geometry.
_SPECULATION_CELLS = 1 << 16


def solve_stream(data: Sequence[int], model: CostModel,
                 prev_word: int = ALL_ONES_WORD) -> Tuple[Tuple[bool, ...], float]:
    """Jointly optimal invert flags for an arbitrary byte stream.

    Equivalent to :func:`repro.core.trellis.solve` on one long burst; the
    split into JEDEC bursts does not change the trellis because the cost
    structure is purely byte-to-byte.

    >>> flags, cost = solve_stream([0x00, 0x00], CostModel.dc_only())
    >>> flags
    (True, True)
    """
    burst = Burst(data)
    solution = solve(burst, model, prev_word=prev_word)
    return solution.invert_flags, solution.total_cost


def stream_cost(data: Sequence[int], flags: Sequence[bool], model: CostModel,
                prev_word: int = ALL_ONES_WORD) -> float:
    """Cost of a concrete flag assignment over a byte stream."""
    if len(data) != len(flags):
        raise ValueError(f"{len(flags)} flags for {len(data)} bytes")
    check_word(prev_word)
    cost = 0.0
    last = prev_word
    for byte, inverted in zip(data, flags):
        word = make_word(check_byte(byte), bool(inverted))
        cost += model.word_cost(last, word)
        last = word
    return cost


@dataclass
class StreamingOptimalEncoder:
    """Online DBI encoder with bounded lookahead.

    Bytes are pushed with :meth:`push`; committed (byte, invert-flag)
    pairs stream out.  Internally the encoder keeps up to ``window`` bytes
    pending, solves the trellis over the pending window, and commits the
    first ``commit`` decisions (default: half the window), keeping the
    rest pending so later bytes can still influence them.

    ``flush()`` commits everything pending; call it at end-of-stream.

    >>> encoder = StreamingOptimalEncoder(CostModel.fixed(), window=4)
    >>> out = encoder.push([0x00] * 4) + encoder.flush()
    >>> [flag for _byte, flag in out]
    [True, True, True, True]
    """

    model: CostModel
    window: int = 8
    commit: int = 0
    prev_word: int = ALL_ONES_WORD
    _pending: List[int] = field(default_factory=list)
    _emitted: int = 0
    _cost: float = 0.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.commit <= 0:
            self.commit = max(1, self.window // 2)
        if self.commit > self.window:
            raise ValueError("commit cannot exceed window")
        check_word(self.prev_word)

    # -- public API ---------------------------------------------------------
    def push(self, data: Iterable[int]) -> List[Tuple[int, bool]]:
        """Feed bytes; returns decisions committed by this call."""
        committed: List[Tuple[int, bool]] = []
        for byte in data:
            self._pending.append(check_byte(byte))
            if len(self._pending) >= self.window:
                committed.extend(self._commit_prefix(self.commit))
        return committed

    def flush(self) -> List[Tuple[int, bool]]:
        """Commit all pending bytes (end of stream)."""
        if not self._pending:
            return []
        return self._commit_prefix(len(self._pending))

    @property
    def committed_bytes(self) -> int:
        """Number of bytes fully decided so far."""
        return self._emitted

    @property
    def committed_cost(self) -> float:
        """Accumulated cost of all committed decisions."""
        return self._cost

    @property
    def bus_state(self) -> int:
        """Current wire word after the last committed byte."""
        return self.prev_word

    def set_model(self, model: CostModel) -> None:
        """Re-price every future trellis solve (adaptive tracking / DVFS).

        Takes effect at the next :meth:`push`/:meth:`flush` solve;
        already-committed decisions and tallies are untouched.  Pending
        bytes are re-solved under the new model when their window
        commits — the window-boundary re-pricing semantics the adaptive
        controller relies on.
        """
        self.model = model

    # -- internals ------------------------------------------------------------
    def _commit_prefix(self, count: int) -> List[Tuple[int, bool]]:
        burst = Burst(self._pending)
        solution = solve(burst, self.model, prev_word=self.prev_word)
        decisions: List[Tuple[int, bool]] = []
        for byte, flag in zip(self._pending[:count],
                              solution.invert_flags[:count]):
            word = make_word(byte, flag)
            self._cost += self.model.word_cost(self.prev_word, word)
            self.prev_word = word
            decisions.append((byte, flag))
        self._pending = self._pending[count:]
        self._emitted += len(decisions)
        return decisions


class BatchStreamingEncoder:
    """Windowed-trellis streaming encoder over many lanes at once.

    Each of the ``rows`` lanes is an independent byte stream encoded with
    exactly the semantics of :class:`StreamingOptimalEncoder` (same
    ``window``/``commit`` cadence, same boundary-word chaining): whenever
    a lane has ``window`` bytes pending, the trellis is solved over that
    window and the first ``commit`` decisions are committed.  The batch
    twist: lanes holding the same number of pending bytes form one
    group, and a push solves all of a group's rounds together instead of
    one round after another.  Round *r* only depends on earlier rounds
    through its boundary word, which (past round 0) is the raw or the
    inverted wire word of the byte before the window.  So blocks of
    rounds are solved for *both* boundaries as one
    ``(window, 2, rounds, lanes)`` batch of the shared kernel
    :func:`~repro.core.vectorized._viterbi_planes`; a scan over each
    round's last committed flag picks the branch that really happened,
    and the tallies are read off once per group.  Blocks are sized from
    a fixed cell budget, so scratch memory stays bounded at any link
    geometry.

    Decisions and the integer activity tallies (zeros, transitions,
    beats per lane) are **bit-identical** to the per-lane reference;
    that is a guarantee (enforced by the differential suite), not an
    approximation.  The live branch of a round solves exactly the
    window the reference solves, from the same boundary word, and the
    kernel prices every edge from the same small integers with the same
    IEEE-754 operations as :meth:`CostModel.word_cost`, comparing in the
    reference order.

    Requires NumPy (the vector backend); per-lane reference encoding is
    the fallback for NumPy-free environments.

    Parameters
    ----------
    model:
        Cost model shared by every lane.
    rows:
        Number of independent lane streams.
    window, commit:
        Lookahead window and commit prefix, as in
        :class:`StreamingOptimalEncoder` (commit defaults to half the
        window).
    prev_word:
        Initial bus word of every lane (idle-high by default).
    record:
        Keep the committed ``(byte, flag)`` decisions per lane —
        needed for round-trip/differential checks, off by default for
        throughput.
    """

    def __init__(self, model: CostModel, rows: int, window: int = 8,
                 commit: int = 0, prev_word: int = ALL_ONES_WORD,
                 record: bool = False):
        from .vectorized import _require_numpy

        np = _require_numpy()
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if commit <= 0:
            commit = max(1, window // 2)
        if commit > window:
            raise ValueError("commit cannot exceed window")
        check_word(prev_word)
        self.model = model
        self.rows = rows
        self.window = window
        self.commit = commit
        self.record = record
        self._np = np
        self._prev = np.full(rows, prev_word, dtype=np.int64)
        self._pending: List = [np.zeros(0, dtype=np.uint8)
                               for _ in range(rows)]
        self._zeros = np.zeros(rows, dtype=np.int64)
        self._transitions = np.zeros(rows, dtype=np.int64)
        self._beats = np.zeros(rows, dtype=np.int64)
        self._decisions: List[List] = [[] for _ in range(rows)]

    # -- public API ---------------------------------------------------------
    def push(self, streams: Sequence) -> None:
        """Append one byte stream per lane and commit every full window.

        *streams* must have one entry per lane (``bytes``, array, or any
        byte sequence; empty entries are fine).
        """
        np = self._np
        if len(streams) != self.rows:
            raise ValueError(
                f"{len(streams)} streams for {self.rows} lanes")
        # Validate every stream before mutating any pending buffer, so a
        # rejected push leaves the encoder state untouched.
        converted = []
        for row, stream in enumerate(streams):
            if isinstance(stream, (bytes, bytearray)):
                new = np.frombuffer(bytes(stream), dtype=np.uint8)
            else:
                new = np.asarray(stream)
                if new.dtype != np.uint8:
                    # Reject out-of-range values like the reference
                    # encoder's check_byte, instead of wrapping mod 256.
                    if not np.issubdtype(new.dtype, np.integer):
                        raise TypeError(
                            f"lane {row}: stream must hold integers, got "
                            f"dtype {new.dtype}")
                    if new.size and (new.min() < 0 or new.max() > BYTE_MASK):
                        raise ValueError(
                            f"lane {row}: byte values out of range "
                            f"[0, {BYTE_MASK}]")
                    new = new.astype(np.uint8)
            if new.ndim != 1:
                raise ValueError(
                    f"lane {row}: stream must be one-dimensional")
            converted.append(new)
        for row, new in enumerate(converted):
            if len(new):
                self._pending[row] = np.concatenate(
                    [self._pending[row], new])
        self._run_rounds(final=False)

    def flush(self) -> None:
        """Commit every pending byte on every lane (end of stream)."""
        self._run_rounds(final=True)

    @property
    def prev_words(self):
        """Current per-lane bus words, ``(rows,)`` int64 (read-only copy)."""
        return self._prev.copy()

    @property
    def zeros(self):
        """Committed zero-beat tallies per lane, ``(rows,)`` int64."""
        return self._zeros.copy()

    @property
    def transitions(self):
        """Committed transition tallies per lane, ``(rows,)`` int64."""
        return self._transitions.copy()

    @property
    def beats(self):
        """Committed byte-beats per lane, ``(rows,)`` int64."""
        return self._beats.copy()

    def pending_counts(self) -> List[int]:
        """Bytes buffered per lane, not yet committed."""
        return [len(buf) for buf in self._pending]

    def set_model(self, model: CostModel) -> None:
        """Re-price every future windowed solve on every lane.

        Same semantics as :meth:`StreamingOptimalEncoder.set_model`: the
        change applies from the next :meth:`push`/:meth:`flush` round
        (``_process_group`` reads the coefficients per call), committed
        tallies are untouched, and pending bytes commit under the new
        model — keeping the two backends bit-identical when the
        controller switches models at submit boundaries.
        """
        self.model = model

    def decisions(self, row: int) -> List[Tuple[int, bool]]:
        """Committed (byte, invert-flag) pairs of one lane (``record=True``)."""
        if not self.record:
            raise RuntimeError(
                "decisions are only kept when record=True")
        out: List[Tuple[int, bool]] = []
        for chunk_bytes_, chunk_flags in self._decisions[row]:
            out.extend(zip((int(b) for b in chunk_bytes_),
                           (bool(f) for f in chunk_flags)))
        return out

    # -- internals ------------------------------------------------------------
    def _run_rounds(self, final: bool) -> None:
        """Drain every lane with >= window pending (all pending if final).

        Lanes are grouped by pending length so each group advances
        through its windows as one rectangular batch; a group leaves the
        loop holding < window bytes (0 if final).
        """
        groups: dict = {}
        floor = 1 if final else self.window
        for row, buf in enumerate(self._pending):
            if len(buf) >= floor:
                groups.setdefault(len(buf), []).append(row)
        np = self._np
        for length, rows_idx in groups.items():
            idx = np.asarray(rows_idx, dtype=np.intp)
            mat = np.stack([self._pending[row] for row in rows_idx])
            pos = self._process_group(idx, mat, final)
            for slot, row in enumerate(rows_idx):
                # Copy the (< window) leftover so the whole group matrix
                # is not pinned in memory by a tiny view.
                self._pending[row] = mat[slot, pos:].copy()

    def _process_group(self, idx, mat, final: bool) -> int:
        """Commit one equal-length group; return the number of committed
        bytes per lane.

        A push commits every full round through :meth:`_speculate`.  A
        flush commits the whole group with one solve from the lanes'
        boundary words: every push drains its full windows, so a flush
        only ever sees fewer than ``window`` pending bytes.  The tallies
        of the committed words are read off the popcount planes once.
        """
        from .vectorized import (
            _plane_tallies,
            _popcount_planes,
            _viterbi_planes,
        )

        np = self._np
        t, z = _popcount_planes(mat, self._prev[idx])
        if final:
            assert mat.shape[1] < self.window, "push() drains full windows"
            flags, _costs = _viterbi_planes(t, z, self.model.alpha,
                                            self.model.beta)
        else:
            flags = self._speculate(t, z)
        end = len(flags)
        n_transitions, n_zeros = _plane_tallies(flags, t[:end], z[:end])
        self._zeros[idx] += n_zeros
        self._transitions[idx] += n_transitions
        self._beats[idx] += end
        last_bytes = mat[:, end - 1].astype(np.int64)
        self._prev[idx] = np.where(flags[end - 1], last_bytes ^ BYTE_MASK,
                                   last_bytes | DBI_BIT)
        if self.record:
            for slot, row in enumerate(idx):
                self._decisions[int(row)].append(
                    (mat[slot, :end].copy(), flags[:, slot].copy()))
        return end

    def _speculate(self, t, z):
        """Committed flags of every full round of a group, as a
        ``(rounds * commit, lanes)`` bool array.

        Round *r* solves the window at byte ``r * commit`` and commits its
        first ``commit`` decisions, so it depends on earlier rounds only
        through its boundary word — and past round 0 that word is the
        raw or the inverted wire word of byte ``r * commit - 1``.  Blocks
        of rounds are therefore solved for both boundaries at once, as
        one ``(window, 2, rounds, lanes)`` batch of the shared kernel
        :func:`~repro.core.vectorized._viterbi_planes`, and a scan over
        each round's last committed flag then picks the live branch.

        ``t[p]`` prices byte *p* against the *raw* word of byte
        ``p - 1`` (``t[0]``: against the lane's boundary word, so round
        0 is the raw branch).  A boundary in the inverted word differs
        in every lane, so the inverted branch's first step costs
        ``WORD_WIDTH - t[p]`` transitions instead.
        """
        from .vectorized import _select, _viterbi_planes

        np = self._np
        window, commit = self.window, self.commit
        alpha, beta = self.model.alpha, self.model.beta
        length, lanes = t.shape
        rounds = (length - window) // commit + 1
        flags = np.empty((rounds, commit, lanes), dtype=bool)
        # (window, rounds, lanes) views of every round's window.
        starts, zeros = (np.lib.stride_tricks.sliding_window_view(
            plane, window, axis=0)[::commit].transpose(2, 0, 1)
            for plane in (t, z))
        # Polarity of the boundary word entering the next round.
        live = np.zeros(lanes, dtype=bool)
        block = max(1, _SPECULATION_CELLS // (lanes * window))
        for first in range(0, rounds, block):
            last = min(first + block, rounds)
            spec_t = np.repeat(starts[:, None, first:last], 2, axis=1)
            spec_t[0, 1] = WORD_WIDTH - spec_t[0, 0]
            spec_flags, _costs = _viterbi_planes(
                spec_t, zeros[:, None, first:last], alpha, beta)
            branch, live = _live_branches(spec_flags[commit - 1], live)
            flags[first:last] = _select(
                branch, spec_flags[:commit, 1],
                spec_flags[:commit, 0]).transpose(1, 0, 2)
        return flags.reshape(rounds * commit, lanes)


def _live_branches(exits, live):
    """Scan which speculative branch each round of a block really took.

    ``exits[b, r]`` is the polarity of round *r*'s last committed byte
    when the round was entered from a boundary of polarity *b*, so each
    round maps its entry polarity to its exit polarity; *live* is the
    entry polarity of the first round.  The maps are composed as a
    doubling prefix scan (log2(rounds) array steps, not one per round).
    Returns the ``(rounds, lanes)`` entry polarities and the exit
    polarity of the last round.
    """
    import numpy as np

    from .vectorized import _select

    from_raw, from_inv = exits[0].copy(), exits[1].copy()
    step = 1
    while step < len(from_raw):
        # Round r's map so far covers (r - step, r]; compose it after the
        # map ending at round r - step.
        later_raw, later_inv = from_raw[step:], from_inv[step:]
        composed = (_select(from_raw[:-step], later_inv, later_raw),
                    _select(from_inv[:-step], later_inv, later_raw))
        from_raw[step:], from_inv[step:] = composed
        step *= 2
    exit_polarity = _select(live, from_inv, from_raw)
    return (np.concatenate([live[None], exit_polarity[:-1]]),
            exit_polarity[-1])


def windowed_stream_cost(data: Sequence[int], model: CostModel,
                         window: int, commit: int = 0,
                         prev_word: int = ALL_ONES_WORD) -> float:
    """Total cost of encoding *data* with a given lookahead window.

    Convenience wrapper used by the window-size ablation: runs a
    :class:`StreamingOptimalEncoder` over the stream and returns the
    committed cost.
    """
    encoder = StreamingOptimalEncoder(model=model, window=window,
                                      commit=commit, prev_word=prev_word)
    encoder.push(data)
    encoder.flush()
    return encoder.committed_cost
