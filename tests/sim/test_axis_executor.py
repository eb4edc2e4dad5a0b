"""The shared axis executor and the kind-dispatching artifact pair.

All five experiment axes plan, count, compute and persist through one
path; these tests pin the rules that path owns for every axis at once.
"""

import json

import pytest

from repro.baselines import DbiDc
from repro.sim.experiments import (
    RECORD_CODECS,
    ActivityCache,
    ExperimentResult,
    ExperimentSpec,
    FaultResult,
    FaultSpec,
    GranularityResult,
    GridPoint,
    ReplayResult,
    SchemeSlot,
    SsoResult,
    SsoSpec,
    alpha_experiment,
    fault_experiment,
    granularity_experiment,
    interface_replay_experiment,
    load_artifact,
    run_experiment,
    run_faults,
    run_granularity,
    run_replay,
    run_sso,
    save_artifact,
    sso_experiment,
)
from repro.workloads.patterns import pattern_population
from repro.workloads.population import OpaquePopulation, RandomPopulation

POPULATION = RandomPopulation(count=40, seed=23)
PAYLOAD = bytes((index * 53 + 11) % 256 for index in range(1024))


def _duplicate_key_runs():
    """(axis, runner, spec, unique keys): every spec repeats a key."""
    twins = (("a", DbiDc()), ("b", DbiDc()))
    return [
        ("experiment", run_experiment, ExperimentSpec(
            name="twins", population=POPULATION,
            slots=tuple(SchemeSlot(name, scheme) for name, scheme in twins),
            grid=(GridPoint(alpha=1.0, beta=1.0),)), 1),
        # SSTL and LVSTL share one transition-only replay.
        ("replay", run_replay, interface_replay_experiment(
            PAYLOAD, interfaces=("pod135", "sstl15", "lvstl11"),
            channels=1, byte_lanes=2, window=8), 2),
        ("faults", run_faults, FaultSpec(
            name="twins", population=POPULATION, slots=twins,
            rates=(0.01, 0.1)), 2),
        ("granularity", run_granularity, granularity_experiment(
            POPULATION, group_sizes=(4, 4, 8)), 2),
        ("sso", run_sso, SsoSpec(name="twins", population=POPULATION,
                                 slots=twins), 1),
    ]


class TestHitMissRule:
    @pytest.mark.parametrize("axis, runner, spec, unique",
                             _duplicate_key_runs(),
                             ids=[run[0] for run in _duplicate_key_runs()])
    def test_counts_unique_keys(self, axis, runner, spec, unique):
        cache = ActivityCache()
        cold = runner(spec, cache=cache)
        assert cold.provenance["cache_hits"] == 0
        assert cold.provenance["cache_misses"] == unique
        assert (cache.hits, cache.misses) == (0, unique)
        assert len(cold.totals) == unique
        warm = runner(spec, cache=cache)
        assert warm.provenance["cache_hits"] == unique
        assert warm.provenance["cache_misses"] == 0
        assert (cache.hits, cache.misses) == (unique, unique)


def _render_only_runs():
    population = pattern_population(repeats=2)
    return [
        ("faults", run_faults, fault_experiment(population, rates=(0.02,)),
         "series", "injections"),
        ("granularity", run_granularity,
         granularity_experiment(population, group_sizes=(2, 8)),
         "rows", "encodes"),
        ("sso", run_sso, sso_experiment(population,
                                        interfaces=("pod135", "lvstl11")),
         "series", "encodes"),
    ]


class TestWarmRenderOnlyRerun:
    @pytest.mark.parametrize("kind, runner, spec, output, counter",
                             _render_only_runs(),
                             ids=[run[0] for run in _render_only_runs()])
    def test_cached_rows_need_no_population(self, kind, runner, spec,
                                            output, counter, tmp_path):
        cache = ActivityCache()
        result = runner(spec, cache=cache)
        path = tmp_path / f"{kind}.json"
        save_artifact(result, path)
        loaded = load_artifact(path)
        assert isinstance(loaded.spec.population, OpaquePopulation)
        rerun = runner(loaded.spec, cache=cache)
        assert getattr(rerun, output) == getattr(result, output)
        assert rerun.provenance[counter] == 0


class TestArtifactDispatch:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            ExperimentResult: run_experiment(
                alpha_experiment(POPULATION, points=3)),
            ReplayResult: run_replay(interface_replay_experiment(
                PAYLOAD, interfaces=("pod135",), channels=1, byte_lanes=2,
                window=8)),
            FaultResult: run_faults(fault_experiment(POPULATION,
                                                     rates=(0.05,))),
            GranularityResult: run_granularity(
                granularity_experiment(POPULATION, group_sizes=(8,))),
            SsoResult: run_sso(sso_experiment(POPULATION,
                                              interfaces=("pod135",))),
        }

    def test_load_returns_the_saved_result_type(self, results, tmp_path):
        for result_type, result in results.items():
            path = tmp_path / f"{result_type.__name__}.json"
            save_artifact(result, path)
            loaded = load_artifact(path)
            assert type(loaded) is result_type
            assert loaded.totals == result.totals

    def test_unknown_kind_is_named(self, results, tmp_path):
        path = tmp_path / "martian.json"
        save_artifact(results[FaultResult], path)
        payload = json.loads(path.read_text())
        payload["kind"] = "martian"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'martian'"):
            load_artifact(path)

    def test_fault_totals_keep_derived_rates(self, results, tmp_path):
        path = tmp_path / "faults.json"
        save_artifact(results[FaultResult], path)
        totals = json.loads(path.read_text())["totals"]
        derived = {"bit_error_rate", "beat_error_rate", "amplification"}
        for key, record in totals.items():
            assert derived <= set(record)
            cached = RECORD_CODECS["fault"].encode(
                results[FaultResult].totals[key])
            assert not derived & set(cached)
            assert {name: record[name] for name in cached} == cached
