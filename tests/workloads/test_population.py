"""Unit tests for the burst population protocol."""

import pytest

from repro.core.burst import Burst
from repro.workloads.population import (
    GENERATION_BLOCK,
    BurstPopulation,
    ExplicitPopulation,
    OpaquePopulation,
    RandomPopulation,
    as_population,
)


def _burst_join(population):
    return b"".join(bytes(burst.data) for burst in population)


class TestRandomPopulation:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomPopulation(0)
        with pytest.raises(ValueError):
            RandomPopulation(4, burst_length=0)

    def test_len_and_shape(self):
        population = RandomPopulation(17, burst_length=4, seed=7)
        assert len(population) == 17
        assert population.burst_length == 4
        bursts = population.bursts()
        assert len(bursts) == 17
        assert all(len(burst) == 4 for burst in bursts)

    def test_chunked_equals_monolithic(self):
        """Chunked generation must reproduce the whole-population stream."""
        population = RandomPopulation(100, seed=123)
        whole = [burst.data for burst in population.bursts()]
        chunked = [burst.data
                   for chunk in population.iter_chunks(chunk_size=13)
                   for burst in chunk]
        assert chunked == whole

    def test_chunking_invariant_for_unaligned_byte_counts(self):
        """NumPy's bounded-integer sampling discards partial buffer words
        between calls; generation therefore happens at a fixed internal
        block size so the stream never depends on the consumer's chunk
        size — including when chunk_size * burst_length is not a
        multiple of 4 (the regression: 3-byte bursts, 13-burst chunks)."""
        population = RandomPopulation(100, burst_length=3, seed=123)
        whole = [b.data for chunk in population.iter_chunks(chunk_size=100)
                 for b in chunk]
        for chunk_size in (1, 7, 13, 64):
            chunked = [b.data
                       for chunk in population.iter_chunks(chunk_size)
                       for b in chunk]
            assert chunked == whole, chunk_size

    def test_regeneration_is_deterministic(self):
        a = RandomPopulation(25, seed=9).bursts()
        b = RandomPopulation(25, seed=9).bursts()
        assert [x.data for x in a] == [y.data for y in b]

    def test_digest_distinguishes_parameters(self):
        base = RandomPopulation(10, seed=1).digest()
        assert RandomPopulation(10, seed=1).digest() == base
        assert RandomPopulation(11, seed=1).digest() != base
        assert RandomPopulation(10, seed=2).digest() != base
        assert RandomPopulation(10, burst_length=4, seed=1).digest() != base

    def test_matches_legacy_random_bursts(self):
        """With NumPy installed the declarative form reproduces
        random_bursts byte-for-byte (the legacy CLI population)."""
        np = pytest.importorskip("numpy", exc_type=ImportError)
        del np
        from repro.workloads.random_data import random_bursts

        population = RandomPopulation(60, seed=0x0DB1)
        legacy = random_bursts(count=60, seed=0x0DB1)
        assert [b.data for b in population.bursts()] == [b.data
                                                         for b in legacy]

    def test_iter_packed_matches_bursts(self):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        population = RandomPopulation(40, seed=5)
        packed = np.concatenate(list(population.iter_packed(chunk_size=7)))
        assert packed.shape == (40, 8)
        assert [tuple(row) for row in packed.tolist()] == [
            burst.data for burst in population.bursts()]

    @pytest.mark.parametrize("count", [1, 2000, GENERATION_BLOCK - 1,
                                       GENERATION_BLOCK,
                                       GENERATION_BLOCK + 1])
    def test_to_bytes_matches_bursts(self, count):
        population = RandomPopulation(count, seed=11)
        assert population.to_bytes() == _burst_join(population)


class TestExplicitPopulation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPopulation([])

    def test_round_trip(self):
        bursts = [Burst([1, 2]), Burst([3, 4])]
        population = ExplicitPopulation(bursts)
        assert len(population) == 2
        assert population.burst_length == 2
        assert [b.data for b in population.bursts()] == [(1, 2), (3, 4)]
        assert [b.data for b in population] == [(1, 2), (3, 4)]

    def test_ragged_has_no_common_length(self):
        population = ExplicitPopulation([Burst([1]), Burst([2, 3])])
        assert population.burst_length is None
        with pytest.raises(ValueError):
            list(population.iter_packed())

    def test_to_bytes_matches_bursts(self):
        population = ExplicitPopulation([Burst([1, 2, 3]), Burst([250, 0]),
                                         Burst([7])])
        assert population.to_bytes() == bytes([1, 2, 3, 250, 0, 7])
        assert population.to_bytes() == _burst_join(population)

    def test_digest_tracks_content(self):
        a = ExplicitPopulation([Burst([1, 2])])
        b = ExplicitPopulation([Burst([1, 2])])
        c = ExplicitPopulation([Burst([1, 3])])
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_chunked_iteration(self):
        bursts = [Burst([i]) for i in range(10)]
        population = ExplicitPopulation(bursts)
        chunks = list(population.iter_chunks(chunk_size=4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert [b.data for chunk in chunks for b in chunk] == [
            (i,) for i in range(10)]


class TestOpaquePopulation:
    def test_metadata_only(self):
        population = OpaquePopulation("sha256:feed", count=5, burst_length=8)
        assert len(population) == 5
        assert population.digest() == "sha256:feed"
        with pytest.raises(RuntimeError):
            population.bursts()

    def test_to_bytes_raises_like_iter_chunks(self):
        population = OpaquePopulation("sha256:feed", count=5, burst_length=8)
        with pytest.raises(RuntimeError) as chunks_error:
            next(population.iter_chunks())
        with pytest.raises(RuntimeError) as bytes_error:
            population.to_bytes()
        assert str(bytes_error.value) == str(chunks_error.value)


class TestAsPopulation:
    def test_passthrough(self):
        population = RandomPopulation(3)
        assert as_population(population) is population

    def test_wraps_sequences(self):
        population = as_population([Burst([0xFF])])
        assert isinstance(population, BurstPopulation)
        assert len(population) == 1
