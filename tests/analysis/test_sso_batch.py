"""Differential tests: batched SSO engine vs the scalar reference.

Runs on the no-NumPy CI leg too: every kernel-parametrized case runs the
``int`` word kernel, and the uint64/ndarray legs skip themselves when
NumPy is absent.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sso import (
    SsoStatistics,
    sso_comparison,
    sso_of_scheme,
    sso_of_scheme_batch,
    sso_of_words,
    sso_of_words_batch,
)
from repro.core.bitops import ALL_ONES_WORD
from repro.core.burst import Burst
from repro.core.schemes import available_schemes, get_scheme

try:
    import numpy
    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

# The word_kernel swap holds for the whole test, so sharing that
# function-scoped fixture across hypothesis examples is sound.
SHARED_FIXTURE = [HealthCheck.function_scoped_fixture]

word_rows = st.lists(
    st.lists(st.integers(min_value=0, max_value=0x1FF),
             min_size=1, max_size=12),
    min_size=0, max_size=8)

burst_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=0xFF),
             min_size=1, max_size=8).map(lambda data: Burst(data)),
    min_size=0, max_size=12)


def merged_reference(rows, prev_words, chained):
    """Fold the scalar engine over *rows* the way the batch engine does."""
    beats = 0
    worst = 0
    total = 0
    histogram = {}
    prev = prev_words
    for index, row in enumerate(rows):
        if chained:
            boundary = prev
        elif isinstance(prev_words, int):
            boundary = prev_words
        else:
            boundary = prev_words[index]
        stats = sso_of_words(row, prev_word=boundary)
        beats += stats.beats
        worst = max(worst, stats.max_switching)
        total += stats.total_switching
        for k, count in stats.histogram.items():
            histogram[k] = histogram.get(k, 0) + count
        if chained and row:
            prev = row[-1]
    return SsoStatistics(beats=beats, max_switching=worst,
                         total_switching=total, histogram=histogram)


class TestSsoOfWordsBatch:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=SHARED_FIXTURE)
    @given(rows=word_rows, chained=st.booleans())
    def test_matches_merged_scalar(self, rows, chained, word_kernel):
        batch = sso_of_words_batch(rows, chained=chained)
        assert batch == merged_reference(rows, ALL_ONES_WORD, chained)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=SHARED_FIXTURE)
    @given(rows=word_rows, prev=st.integers(min_value=0, max_value=0x1FF))
    def test_scalar_prev_broadcast(self, rows, prev, word_kernel):
        batch = sso_of_words_batch(rows, prev_words=prev)
        assert batch == merged_reference(rows, prev, chained=False)

    def test_per_row_prev_words(self, word_kernel):
        rows = [[0x000, 0x0FF], [0x1FF], [0x155, 0x0AA]]
        prevs = [0x1FF, 0x000, 0x155]
        batch = sso_of_words_batch(rows, prev_words=prevs)
        assert batch == merged_reference(rows, prevs, chained=False)

    def test_prev_words_length_mismatch(self):
        with pytest.raises(ValueError):
            sso_of_words_batch([[0x1FF]], prev_words=[0x1FF, 0x000])

    def test_chained_rejects_per_row_prev(self):
        with pytest.raises(ValueError):
            sso_of_words_batch([[0x1FF]], prev_words=[0x1FF], chained=True)

    def test_empty_input(self):
        stats = sso_of_words_batch([])
        assert stats == SsoStatistics(beats=0, max_switching=0,
                                      total_switching=0, histogram={})

    def test_out_of_range_word_rejected(self):
        with pytest.raises(ValueError):
            sso_of_words_batch([[0x200]])

    def test_doc_example(self):
        assert sso_of_words_batch([[0x000], [0x1FF]]).histogram == {0: 1, 9: 1}

    @pytest.mark.skipif(not HAVE_NUMPY, reason="ndarray input requires NumPy")
    def test_ndarray_input(self, word_kernel):
        rng = numpy.random.default_rng(11)
        matrix = rng.integers(0, 0x200, size=(7, 8), dtype=numpy.int64)
        rows = [list(map(int, row)) for row in matrix]
        for chained in (False, True):
            assert (sso_of_words_batch(matrix, chained=chained)
                    == merged_reference(rows, ALL_ONES_WORD, chained))

    @pytest.mark.skipif(not HAVE_NUMPY, reason="ndarray input requires NumPy")
    def test_ndarray_must_be_2d(self):
        with pytest.raises(ValueError):
            sso_of_words_batch(numpy.zeros(4, dtype=numpy.int64))


class TestSsoOfSchemeBatch:
    @pytest.mark.parametrize("scheme_name", available_schemes())
    @pytest.mark.parametrize("chained", (False, True))
    @pytest.mark.parametrize("word_kernel", ["int", "uint64"],
                             indirect=True)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=SHARED_FIXTURE)
    @given(bursts=burst_lists)
    def test_matches_scalar_engine(self, bursts, scheme_name, chained,
                                   word_kernel):
        reference = sso_of_scheme(get_scheme(scheme_name), bursts,
                                  chained=chained)
        batch = sso_of_scheme_batch(get_scheme(scheme_name), bursts,
                                    chained=chained)
        assert batch == reference

    @pytest.mark.parametrize("scheme_name", ("raw", "dbi-dc", "dbi-opt"))
    def test_reference_backend_delegates(self, scheme_name):
        bursts = [Burst(range(index, index + 8)) for index in range(6)]
        scheme = get_scheme(scheme_name)
        assert (sso_of_scheme_batch(scheme, bursts, backend="reference")
                == sso_of_scheme(scheme, bursts))

    def test_empty_population(self):
        stats = sso_of_scheme_batch(get_scheme("raw"), [])
        assert stats.beats == 0 and stats.histogram == {}

    def test_accepts_iterator(self):
        bursts = [Burst(range(8))] * 3
        assert (sso_of_scheme_batch(get_scheme("dbi-dc"), iter(bursts))
                == sso_of_scheme(get_scheme("dbi-dc"), bursts))


class TestSsoComparisonChained:
    @staticmethod
    def expected_row(name, stats):
        return [name, stats.max_switching, f"{stats.mean_switching:.2f}",
                f"{100 * stats.exceed_fraction(4):.1f}%"]

    def test_chained_kwarg_threads_through(self):
        bursts = [Burst([0x00] * 8), Burst([0xFF] * 8)] * 3
        schemes = {"raw": get_scheme("raw"), "dbi-ac": get_scheme("dbi-ac")}
        unchained = sso_comparison(schemes, bursts)
        chained = sso_comparison(schemes, bursts, chained=True)
        for row, row_c, (name, scheme) in zip(unchained, chained,
                                              schemes.items()):
            assert row == self.expected_row(
                name, sso_of_scheme(scheme, bursts))
            assert row_c == self.expected_row(
                name, sso_of_scheme(scheme, bursts, chained=True))
        # The boundary condition must actually matter for this workload.
        assert chained[0] != unchained[0]
