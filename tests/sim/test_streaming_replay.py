"""Streaming + adaptive replay through the experiment engine.

Differential anchor of the PR: a chunked, tracking-off ``run_replay``
must be bit-identical — integer totals AND priced float energies — to
the in-memory path, on every available backend (the suite runs NumPy-free
where the backend list collapses to the reference).  On top of that:
cache keys coincide between the paths (payload→source migration keeps
caches warm), adaptive axes round-trip through artifacts and the disk
cache, and schedules are chunking-independent while tracking keys bind
the chunk size.
"""

import pytest

from repro.core.vectorized import available_backends
from repro.ctrl.adaptive import (
    OperatingPoint,
    OperatingPointSchedule,
    TrackingConfig,
)
from repro.sim.experiments import (
    ActivityCache,
    ReplayPoint,
    ReplaySpec,
    load_artifact,
    run_replay,
    save_artifact,
)
from repro.workloads.source import BytesTraceSource, SyntheticTraceSource

PAYLOAD = bytes((i * 89 + (i >> 7)) & 0xFF for i in range(30000))
POINTS = (ReplayPoint("pod135", 12e9, 3e-12),
          ReplayPoint("pod12", 8e9, 3e-12))
OP_A = OperatingPoint("pod135", 12e9, 3e-12)
OP_B = OperatingPoint("pod12", 8e9, 3e-12)


def source_spec(chunk_bytes=1000, **overrides):
    return ReplaySpec(name="stream",
                      source=BytesTraceSource(PAYLOAD,
                                              chunk_bytes=chunk_bytes),
                      points=POINTS, **overrides)


class TestStreamingBitIdentity:
    @pytest.mark.parametrize("backend", available_backends())
    def test_chunked_equals_inline(self, backend):
        inline = run_replay(ReplaySpec(name="stream", payload=PAYLOAD,
                                       points=POINTS), backend=backend)
        for chunk_bytes in (123, 4096, 10 ** 6):
            streamed = run_replay(source_spec(chunk_bytes),
                                  backend=backend)
            assert streamed.totals == inline.totals
            assert streamed.series == inline.series  # float energies too
            assert streamed.point_keys == inline.point_keys

    def test_payload_to_source_migration_keeps_cache_warm(self):
        cache = ActivityCache()
        run_replay(ReplaySpec(name="stream", payload=PAYLOAD,
                              points=POINTS), cache=cache)
        migrated = run_replay(source_spec(777), cache=cache)
        assert migrated.provenance["replays"] == 0

    def test_streamed_provenance(self):
        result = run_replay(source_spec(2048))
        assert result.provenance["streamed"] is True
        assert result.provenance["chunk_bytes"] == 2048
        assert result.provenance["payload_bytes"] == len(PAYLOAD)
        assert result.provenance["source"]["kind"] == "bytes"


class TestSpecValidation:
    def test_payload_and_source_are_exclusive(self):
        with pytest.raises(ValueError):
            ReplaySpec(name="x", payload=PAYLOAD,
                       source=BytesTraceSource(PAYLOAD), points=POINTS)

    def test_one_trace_is_required(self):
        with pytest.raises(ValueError):
            ReplaySpec(name="x", points=POINTS)

    def test_schedule_and_tracking_are_exclusive(self):
        with pytest.raises(ValueError):
            ReplaySpec(name="x", payload=PAYLOAD, points=POINTS,
                       schedule=OperatingPointSchedule((OP_A, OP_B), (5,)),
                       tracking=TrackingConfig((OP_A, OP_B)))

    def test_adaptive_axis_allows_empty_points(self):
        spec = ReplaySpec(name="x", payload=PAYLOAD,
                          tracking=TrackingConfig((OP_A, OP_B)))
        assert spec.adaptive_label == "tracking"

    def test_adaptive_label_collision_rejected(self):
        with pytest.raises(ValueError):
            ReplaySpec(name="x", payload=PAYLOAD, points=POINTS,
                       schedule=OperatingPointSchedule(
                           (OP_A, OP_B), (5,), label=POINTS[0].label))


class TestAdaptiveReplay:
    def test_schedule_is_chunking_independent(self):
        schedule = OperatingPointSchedule((OP_A, OP_B), (200,),
                                          label="dvfs")
        results = [run_replay(source_spec(chunk_bytes, schedule=schedule))
                   for chunk_bytes in (512, 7000)]
        keys = [r.point_keys["dvfs"] for r in results]
        assert keys[0] == keys[1]  # chunk size absent from the key...
        assert results[0].totals[keys[0]] == results[1].totals[keys[1]]
        assert results[0].series["dvfs"] == results[1].series["dvfs"]

    def test_tracking_key_binds_chunk_bytes(self):
        tracking = TrackingConfig((OP_A, OP_B), label="trk")
        specs = [ReplaySpec(name="t", payload=PAYLOAD, points=(),
                            tracking=tracking, chunk_bytes=chunk_bytes)
                 for chunk_bytes in (512, 1024)]
        assert specs[0].adaptive_key() != specs[1].adaptive_key()

    def test_segments_price_to_the_series(self):
        schedule = OperatingPointSchedule((OP_A, OP_B), (150,),
                                          label="dvfs")
        result = run_replay(ReplaySpec(name="s", payload=PAYLOAD,
                                       points=POINTS, schedule=schedule))
        priced = result.series["dvfs"]
        totals = result.totals_for("dvfs")
        assert len(totals.segments) == 2
        assert priced["energy_joules"] == pytest.approx(sum(
            segment["energy_joules"]
            for segment in priced["per_segment_energy"]))
        # Segment tallies cover the whole replay exactly.
        fixed = result.totals_for(POINTS[0].label)
        assert sum(s[3] for s in totals.segments) == fixed.beats

    def test_adaptive_result_is_cached(self):
        cache = ActivityCache()
        schedule = OperatingPointSchedule((OP_A, OP_B), (150,),
                                          label="dvfs")
        spec = ReplaySpec(name="s", payload=PAYLOAD, points=(),
                          schedule=schedule)
        first = run_replay(spec, cache=cache)
        second = run_replay(spec, cache=cache)
        assert first.provenance["replays"] == 1
        assert second.provenance["replays"] == 0
        assert second.series == first.series


class TestArtifacts:
    def test_source_artifact_reruns_when_reconstructible(self, tmp_path):
        schedule = OperatingPointSchedule((OP_A, OP_B), (120,),
                                          label="dvfs")
        spec = ReplaySpec(name="big",
                          source=SyntheticTraceSource(60000, seed=5,
                                                      chunk_bytes=4096),
                          points=POINTS, schedule=schedule,
                          chunk_bytes=4096)
        result = run_replay(spec)
        path = tmp_path / "replay.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert not getattr(loaded.spec, "_render_only", False)
        assert loaded.spec.schedule == schedule
        assert loaded.series == result.series
        assert loaded.totals == result.totals
        rerun = run_replay(loaded.spec)
        assert rerun.totals == result.totals

    def test_bytes_source_artifact_is_render_only(self, tmp_path):
        result = run_replay(source_spec(999))
        path = tmp_path / "replay.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert getattr(loaded.spec, "_render_only", False)
        assert loaded.series == result.series
        with pytest.raises(RuntimeError):
            run_replay(loaded.spec)

    def test_tracking_config_round_trips(self, tmp_path):
        tracking = TrackingConfig((OP_A, OP_B), half_life_bytes=512.0,
                                  min_dwell_bytes=64, label="trk")
        spec = ReplaySpec(name="t", payload=PAYLOAD[:8192], points=(),
                          tracking=tracking, chunk_bytes=1024)
        result = run_replay(spec)
        path = tmp_path / "replay.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert loaded.spec.tracking == tracking
        assert loaded.spec.chunk_bytes == 1024
        assert loaded.totals_for("trk").segments \
            == result.totals_for("trk").segments

    def test_render_only_cache_rerenders_adaptive(self, tmp_path):
        """A warm cache lets a render-only artifact re-execute nothing."""
        cache = ActivityCache()
        spec = source_spec(999, schedule=OperatingPointSchedule(
            (OP_A, OP_B), (120,), label="dvfs"))
        result = run_replay(spec, cache=cache)
        path = tmp_path / "replay.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        again = run_replay(loaded.spec, cache=cache)
        assert again.series == result.series
        assert again.provenance["replays"] == 0


class TestDiskCacheSegments:
    def test_replay_totals_with_segments_round_trip(self):
        from repro.sim.experiments import ReplayTotals, codec_for

        totals = ReplayTotals(
            transactions=10, bytes_written=640, beats=640,
            channels=((100, 200, 320), (90, 210, 320)),
            segments=(("a", 50, 60, 300), ("b", 140, 350, 340)))
        codec = codec_for(totals)
        assert codec.kind == "replay"
        assert codec.decode(codec.encode(totals)) == totals

    def test_fixed_point_records_stay_unchanged(self):
        """No ``segments`` key for fixed replays — old files still load."""
        from repro.sim.experiments import RECORD_CODECS, ReplayTotals

        totals = ReplayTotals(transactions=1, bytes_written=64, beats=64,
                              channels=((1, 2, 64),))
        record = RECORD_CODECS["replay"].encode(totals)
        assert "segments" not in record
        assert RECORD_CODECS["replay"].decode(record) == totals
