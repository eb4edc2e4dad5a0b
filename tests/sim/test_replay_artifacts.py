"""Persisted controller replays: roundtrips, render-only loads, priming."""

from __future__ import annotations

import json

import pytest

from repro.analysis.artifacts import canonical_artifact_json
from repro.sim.experiments import (
    REPLAY_PAYLOAD_INLINE_LIMIT,
    ActivityCache,
    ReplayResult,
    interface_replay_experiment,
    load_artifact,
    result_to_json,
    run_replay,
    save_artifact,
)


def _payload(size: int, seed: int = 7) -> bytes:
    return bytes((seed + index * 37) % 256 for index in range(size))


def _small_spec(**overrides):
    defaults = dict(channels=2, byte_lanes=2, window=8,
                    interfaces=("pod135", "lvstl11"))
    defaults.update(overrides)
    return interface_replay_experiment(_payload(768), **defaults)


class TestRoundtrip:
    def test_save_load_preserves_everything(self, tmp_path):
        result = run_replay(_small_spec())
        path = tmp_path / "replay.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert loaded.spec.payload == result.spec.payload
        assert loaded.spec.points == result.spec.points
        assert loaded.series == result.series
        assert loaded.totals == result.totals
        assert loaded.point_keys == result.point_keys
        assert loaded.provenance["loaded_from"] == str(path)

    def test_loaded_spec_is_rerunnable(self, tmp_path):
        result = run_replay(_small_spec())
        path = tmp_path / "replay.json"
        save_artifact(result, path)
        rerun = run_replay(load_artifact(path).spec)
        assert rerun.series == result.series
        assert rerun.totals == result.totals

    def test_artifact_is_tagged_and_inlined(self, tmp_path):
        result = run_replay(_small_spec())
        path = tmp_path / "replay.json"
        save_artifact(result, path)
        raw = json.load(open(path))
        assert raw["kind"] == "replay"
        assert bytes.fromhex(raw["spec"]["payload"]["hex"]) == \
            result.spec.payload
        assert raw["spec"]["payload"]["bytes"] == len(result.spec.payload)

    def test_json_stable_across_saves(self, tmp_path):
        result = run_replay(_small_spec())
        assert (canonical_artifact_json(result_to_json(result))
                == canonical_artifact_json(result_to_json(result)))

    def test_load_artifact_dispatches_replay_kind(self, tmp_path):
        path = tmp_path / "replay.json"
        save_artifact(run_replay(_small_spec()), path)
        assert isinstance(load_artifact(path), ReplayResult)


class TestRenderOnly:
    @pytest.fixture()
    def saved(self, tmp_path):
        payload = _payload(REPLAY_PAYLOAD_INLINE_LIMIT + 1)
        spec = interface_replay_experiment(
            payload, channels=2, byte_lanes=2, window=8,
            interfaces=("pod135", "sstl15"))
        result = run_replay(spec)
        path = tmp_path / "big.json"
        save_artifact(result, path)
        return result, path

    def test_large_payload_is_digest_only(self, saved):
        result, path = saved
        payload_record = json.load(open(path))["spec"]["payload"]
        assert "hex" not in payload_record
        assert payload_record["digest"] == result.spec.payload_digest()
        assert payload_record["bytes"] == len(result.spec.payload)

    def test_series_and_digest_survive(self, saved):
        result, path = saved
        loaded = load_artifact(path)
        assert loaded.series == result.series
        assert loaded.totals == result.totals
        assert loaded.spec.payload_digest() == result.spec.payload_digest()

    def test_rerun_refuses_without_cache(self, saved):
        __, path = saved
        with pytest.raises(RuntimeError, match="cannot re-execute"):
            run_replay(load_artifact(path).spec)

    def test_primed_cache_rerenders_exactly(self, saved):
        """The artifact's totals re-seed a cache; the render-only spec
        then re-prices every point without touching the payload."""
        result, path = saved
        loaded = load_artifact(path)
        cache = ActivityCache()
        for key, totals in loaded.totals.items():
            cache.store(key, totals)
        rerun = run_replay(loaded.spec, cache=cache)
        assert rerun.series == result.series
        assert rerun.totals == result.totals
        assert rerun.provenance["replays"] == 0
        assert rerun.provenance["payload"] == result.spec.payload_digest()
