"""Chaos: killed sweep workers are absorbed by the shard driver.

Crash points (armed via ``REPRO_FAULT_POINTS``) kill worker processes
mid-sweep with ``os._exit``; the driver's per-shard retry must rebuild
the pool, re-run only the dead shards, and still merge bit-identically.
Stdlib-only; runs on both CI legs.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.artifacts import canonical_artifact_json
from repro.service.faults import CRASH_POINTS_ENV
from repro.service import shard as shard_module
from repro.service.retry import RetryPolicy
from repro.service.shard import (
    SHARD_RETRYABLE,
    ShardExecutionError,
    run_shards,
)
from repro.sim.experiments import (
    alpha_experiment,
    result_to_json,
    run_experiment,
)
from repro.workloads.population import RandomPopulation

RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0,
                    retryable=SHARD_RETRYABLE)


def _spec(points=4):
    return alpha_experiment(RandomPopulation(count=100, seed=0x0DB1),
                            points=points, include_fixed=True)


def _canonical(result):
    return canonical_artifact_json(result_to_json(result))


class TestKilledWorkers:
    def test_one_kill_absorbed(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "kill-0"
        monkeypatch.setenv(CRASH_POINTS_ENV, f"shard:0@{sentinel}")
        merged = run_shards(_spec(), 2, processes=True,
                            cache_dir=str(tmp_path / "cache"),
                            retry=RETRY, max_workers=2)
        assert sentinel.exists()
        assert _canonical(merged) == _canonical(run_experiment(_spec()))

    def test_pool_broken_before_submit_is_retried(self, tmp_path,
                                                   monkeypatch):
        """A worker can die before a later shard is submitted; the
        refused submit must count as a failed attempt, not escape."""
        submits = []

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submits.append(args[1].name)
                if len(submits) == 2:
                    raise BrokenProcessPool("worker died before submit")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(shard_module, "ProcessPoolExecutor",
                            BreaksOnSecondSubmit)
        merged = run_shards(_spec(), 2, processes=True,
                            cache_dir=str(tmp_path / "cache"),
                            retry=RETRY, max_workers=2)
        assert len(submits) == 3  # the refused shard ran in a new wave
        assert _canonical(merged) == _canonical(run_experiment(_spec()))

    def test_multiple_kills_absorbed_in_one_call(self, tmp_path,
                                                 monkeypatch):
        sentinels = [tmp_path / "kill-0", tmp_path / "kill-2"]
        monkeypatch.setenv(
            CRASH_POINTS_ENV,
            ";".join(f"shard:{index}@{sentinel}"
                     for index, sentinel in zip((0, 2), sentinels)))
        merged = run_shards(_spec(), 3, processes=True,
                            cache_dir=str(tmp_path / "cache"),
                            retry=RETRY, max_workers=3)
        assert all(sentinel.exists() for sentinel in sentinels)
        assert _canonical(merged) == _canonical(run_experiment(_spec()))

    def test_unretried_kill_is_a_typed_error(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "kill-once"
        monkeypatch.setenv(CRASH_POINTS_ENV, f"shard:1@{sentinel}")
        no_retry = RetryPolicy(max_attempts=1, base_delay_s=0.0,
                               retryable=SHARD_RETRYABLE)
        # One worker at a time so only the killed shard's future breaks
        # and the typed error names it precisely.
        with pytest.raises(ShardExecutionError) as info:
            run_shards(_spec(), 2, processes=True,
                       cache_dir=str(tmp_path / "cache"),
                       retry=no_retry, max_workers=1)
        assert "#shard1/2" in info.value.shard_name
        assert info.value.attempts == 1

    def test_kill_plus_checkpoints_resume_cleanly(self, tmp_path,
                                                  monkeypatch):
        checkpoint_dir = str(tmp_path / "ckpt")
        sentinel = tmp_path / "kill-3"
        monkeypatch.setenv(CRASH_POINTS_ENV, f"shard:3@{sentinel}")
        merged = run_shards(_spec(), 4, processes=True,
                            cache_dir=str(tmp_path / "cache"),
                            retry=RETRY, checkpoint_dir=checkpoint_dir,
                            max_workers=4)
        assert sentinel.exists()
        assert len(os.listdir(checkpoint_dir)) == 4
        assert _canonical(merged) == _canonical(run_experiment(_spec()))
        # And a follow-up resume does zero work.
        resumed = run_shards(_spec(), 4, processes=True,
                             cache_dir=str(tmp_path / "cache"),
                             retry=RETRY, checkpoint_dir=checkpoint_dir,
                             max_workers=4)
        assert resumed.provenance["resumed_shards"] == 4
        assert resumed.provenance["encodes"] == 0
        assert _canonical(resumed) == _canonical(merged)
