"""Differential suite: BatchStreamingEncoder vs per-lane reference.

The batch encoder's contract is bit-identity with one
:class:`~repro.core.streaming.StreamingOptimalEncoder` per lane — same
committed decisions, same integer activity tallies, same boundary-word
chain — for any window/commit cadence, any push chunking and any cost
model.  These tests enforce it.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.core.bitops import ALL_ONES_WORD, make_word, transitions, zeros_in_word
from repro.core.costs import CostModel
from repro.core import streaming as streaming_module
from repro.core.streaming import BatchStreamingEncoder, StreamingOptimalEncoder


def reference_lane(stream, model, window, prev_word=ALL_ONES_WORD):
    """Run the per-lane reference; return (decisions, zeros, trans, prev)."""
    encoder = StreamingOptimalEncoder(model=model, window=window,
                                      prev_word=prev_word)
    decisions = encoder.push(list(stream)) + encoder.flush()
    zeros = trans = 0
    last = prev_word
    for byte, flag in decisions:
        word = make_word(byte, flag)
        zeros += zeros_in_word(word)
        trans += transitions(last, word)
        last = word
    return decisions, zeros, trans, last


def assert_parity(streams, model, window, chunks=1):
    """Batch-encode *streams* (optionally split into pushes) and compare."""
    batch = BatchStreamingEncoder(model, rows=len(streams), window=window,
                                  record=True)
    if chunks == 1:
        batch.push(streams)
    else:
        step = max(1, max(len(s) for s in streams) // chunks)
        offset = 0
        while any(offset < len(s) for s in streams):
            batch.push([bytes(s[offset:offset + step]) for s in streams])
            offset += step
    batch.flush()
    assert batch.pending_counts() == [0] * len(streams)
    for row, stream in enumerate(streams):
        decisions, zeros, trans, last = reference_lane(stream, model, window)
        assert batch.decisions(row) == decisions, f"lane {row}"
        assert int(batch.zeros[row]) == zeros
        assert int(batch.transitions[row]) == trans
        assert int(batch.beats[row]) == len(stream)
        assert int(batch.prev_words[row]) == last


byte_streams = st.lists(
    st.binary(min_size=0, max_size=60), min_size=1, max_size=6)
models = st.sampled_from([
    CostModel.fixed(),
    CostModel.dc_only(),
    CostModel.ac_only(),
    CostModel.from_ac_fraction(0.3),
    CostModel.from_ac_fraction(0.77),
])


class TestBatchParity:
    @given(streams=byte_streams, model=models,
           window=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_ragged_streams_any_window(self, streams, model, window):
        assert_parity(streams, model, window)

    @given(streams=byte_streams, model=models,
           chunks=st.integers(min_value=2, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_push_chunking_is_invisible(self, streams, model, chunks):
        assert_parity(streams, model, window=8, chunks=chunks)

    def test_many_equal_lanes(self):
        import numpy as np
        rng = np.random.default_rng(0x0DB1)
        streams = [bytes(rng.integers(0, 256, size=256, dtype=np.uint8))
                   for _ in range(16)]
        assert_parity(streams, CostModel.fixed(), window=16)

    def test_empty_lane_is_fine(self):
        assert_parity([b"", b"\x00" * 20], CostModel.fixed(), window=4)

    def test_zero_heavy_streams_invert(self):
        batch = BatchStreamingEncoder(CostModel.dc_only(), rows=2, window=4,
                                      record=True)
        batch.push([bytes(8), bytes(8)])
        batch.flush()
        for row in range(2):
            assert all(flag for _byte, flag in batch.decisions(row))


class TestValidation:
    def test_rejects_bad_shapes(self):
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=2)
        with pytest.raises(ValueError):
            batch.push([b"aa"])  # one stream for two lanes
        import numpy as np
        with pytest.raises(ValueError):
            batch.push([b"aa", np.zeros((2, 2), dtype=np.uint8)])

    def test_rejected_push_leaves_state_untouched(self):
        """A push that fails validation must not half-feed any lane."""
        import numpy as np
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=2, window=4,
                                      record=True)
        with pytest.raises(ValueError):
            batch.push([b"\x00" * 3, np.zeros((2, 2), dtype=np.uint8)])
        assert batch.pending_counts() == [0, 0]
        # Retrying with corrected streams matches a clean single push.
        batch.push([b"\x00" * 3, b"\xff" * 3])
        batch.flush()
        assert_parity([b"\x00" * 3, b"\xff" * 3], CostModel.fixed(), window=4)
        assert int(batch.beats[0]) == 3 and int(batch.beats[1]) == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BatchStreamingEncoder(CostModel.fixed(), rows=0)
        with pytest.raises(ValueError):
            BatchStreamingEncoder(CostModel.fixed(), rows=1, window=0)
        with pytest.raises(ValueError):
            BatchStreamingEncoder(CostModel.fixed(), rows=1, window=4,
                                  commit=5)

    def test_decisions_require_record(self):
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=1)
        with pytest.raises(RuntimeError):
            batch.decisions(0)

    def test_rejects_out_of_range_array_values(self):
        """ndarray input must not silently wrap mod 256 (check_byte parity)."""
        import numpy as np
        batch = BatchStreamingEncoder(CostModel.fixed(), rows=1, window=4)
        with pytest.raises(ValueError):
            batch.push([np.array([300, 5], dtype=np.int64)])
        with pytest.raises(ValueError):
            batch.push([np.array([-1], dtype=np.int64)])
        with pytest.raises(TypeError):
            batch.push([np.array([0.5, 1.0])])
        assert batch.pending_counts() == [0]


# -- speculation differential suite ------------------------------------------
#
# The batch encoder solves blocks of commit windows speculatively, for both
# possible boundary polarities at once, and then scans for the live branch.
# These tests drive that machinery through every corner the scan and the
# block split can reach — several blocks per group (the per-block cell
# budget is shrunk so small inputs span many blocks), ragged groups, every
# window/commit cadence, tie-heavy bytes and degenerate models, arbitrary
# boundary words and re-pricing between pushes — against one reference
# encoder per lane.

#: Bytes whose raw and inverted words tie under many models.
TIE_BYTES = (0x00, 0x0F, 0xF0, 0xFF)

speculation_models = st.sampled_from([
    CostModel.fixed(),
    CostModel.dc_only(),       # alpha = 0
    CostModel.ac_only(),       # beta = 0
    CostModel(0.0, 2.5),
    CostModel(3.0, 0.0),
    CostModel(2, 3),           # integer coefficients: exact int costs
    CostModel.from_ac_fraction(0.3),
    CostModel.from_ac_fraction(0.77),
])


@st.composite
def speculation_cases(draw):
    """Pushes of per-lane streams, a model per push, and the cadence."""
    window = draw(st.integers(min_value=1, max_value=32))
    commit = draw(st.integers(min_value=1, max_value=window))
    lanes = draw(st.integers(min_value=1, max_value=5))
    byte = (st.sampled_from(TIE_BYTES) if draw(st.booleans())
            else st.integers(min_value=0, max_value=255))
    lane_stream = st.lists(byte, max_size=120).map(bytes)
    pushes = draw(st.lists(st.lists(lane_stream, min_size=lanes,
                                    max_size=lanes),
                           min_size=1, max_size=4))
    models = draw(st.lists(speculation_models, min_size=len(pushes),
                           max_size=len(pushes)))
    prev_word = draw(st.integers(min_value=0, max_value=0x1FF))
    cells = draw(st.sampled_from([1, 7, 64, 500, 1 << 16]))
    return window, commit, pushes, models, prev_word, cells


def reference_run(pushes, models, window, commit, prev_word):
    """Per-lane reference over the same pushes and re-pricings."""
    lanes = len(pushes[0])
    encoders = [StreamingOptimalEncoder(model=models[0], window=window,
                                        commit=commit, prev_word=prev_word)
                for _ in range(lanes)]
    decisions = [[] for _ in range(lanes)]
    for streams, model in zip(pushes, models):
        for lane, (encoder, stream) in enumerate(zip(encoders, streams)):
            encoder.set_model(model)
            decisions[lane] += encoder.push(list(stream))
    for lane, encoder in enumerate(encoders):
        decisions[lane] += encoder.flush()
    tallies = []
    for lane_decisions in decisions:
        zeros = trans = 0
        last = prev_word
        for byte, flag in lane_decisions:
            word = make_word(byte, flag)
            zeros += zeros_in_word(word)
            trans += transitions(last, word)
            last = word
        tallies.append((zeros, trans, len(lane_decisions), last))
    return decisions, tallies


def batch_run(pushes, models, window, commit, prev_word, record):
    batch = BatchStreamingEncoder(models[0], rows=len(pushes[0]),
                                  window=window, commit=commit,
                                  prev_word=prev_word, record=record)
    for streams, model in zip(pushes, models):
        batch.set_model(model)
        batch.push(streams)
    batch.flush()
    assert batch.pending_counts() == [0] * len(pushes[0])
    return batch


def batch_tallies(batch):
    return [(int(batch.zeros[row]), int(batch.transitions[row]),
             int(batch.beats[row]), int(batch.prev_words[row]))
            for row in range(batch.rows)]


class TestSpeculation:
    @given(case=speculation_cases())
    @settings(max_examples=150, deadline=None)
    def test_decisions_match_reference(self, case):
        window, commit, pushes, models, prev_word, cells = case
        decisions, tallies = reference_run(pushes, models, window, commit,
                                           prev_word)
        with patch.object(streaming_module, "_SPECULATION_CELLS", cells):
            batch = batch_run(pushes, models, window, commit, prev_word,
                              record=True)
        for row, lane_decisions in enumerate(decisions):
            assert batch.decisions(row) == lane_decisions, f"lane {row}"
        assert batch_tallies(batch) == tallies

    @given(case=speculation_cases())
    @settings(max_examples=150, deadline=None)
    def test_tallies_match_reference_unrecorded(self, case):
        window, commit, pushes, models, prev_word, cells = case
        _decisions, tallies = reference_run(pushes, models, window, commit,
                                            prev_word)
        with patch.object(streaming_module, "_SPECULATION_CELLS", cells):
            batch = batch_run(pushes, models, window, commit, prev_word,
                              record=False)
        assert batch_tallies(batch) == tallies

    def test_groups_span_several_blocks_at_the_real_budget(self):
        """Unpatched budget: each group crosses three block seams."""
        import numpy as np
        lanes, window, commit = 32, 16, 5
        block_bytes = (streaming_module._SPECULATION_CELLS
                       // (lanes * window)) * commit
        rng = np.random.default_rng(0x5EC)
        streams = [bytes(rng.choice(TIE_BYTES + (0x3C, 0xA5),
                                    size=3 * block_bytes + 77 + lane)
                         .astype(np.uint8))
                   for lane in range(lanes)]
        pushes = [[s[:len(s) // 2] for s in streams],
                  [s[len(s) // 2:] for s in streams]]
        models = [CostModel.from_ac_fraction(0.4), CostModel.dc_only()]
        decisions, tallies = reference_run(pushes, models, window, commit,
                                           0x0A5)
        batch = batch_run(pushes, models, window, commit, 0x0A5,
                          record=True)
        for row, lane_decisions in enumerate(decisions):
            assert batch.decisions(row) == lane_decisions, f"lane {row}"
        assert batch_tallies(batch) == tallies
