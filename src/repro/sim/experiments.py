"""Declarative experiment engine: five axes, one executor, one codec.

Every experiment here has one shape: plan the unique pieces of integer
work a spec needs, serve what a cache already holds, compute only the
rest, then price the exact totals into the axis's output.  The module
makes that shape explicit:

* **Specs** — frozen declarations of one run per axis:
  :class:`ExperimentSpec` (Figs. 3/4, 7 and 8: scheme slots × operating
  grid × burst population; built by :func:`alpha_experiment`,
  :func:`rate_experiment` and :func:`load_experiment`),
  :class:`ReplaySpec` (a byte trace through the multi-channel write path
  of :class:`~repro.ctrl.controller.MemoryController` at electrical
  operating points, optionally under a DVFS schedule or online
  tracking), :class:`FaultSpec` (mask-parallel fault injection across a
  rate grid), :class:`GranularitySpec` (the grouped-DBI ablation) and
  :class:`SsoSpec` (simultaneous-switching tallies priced per interface
  preset).
* **One executor** — every ``run_*`` function binds its axis to
  :func:`_run_axis`.  The axis supplies its unique cache keys in
  declaration order, a ``compute`` for the missing ones and an
  ``assemble`` that prices the totals; the executor owns hit/miss
  accounting, the stores and the common provenance block.  ``jobs > 1``
  fans figure encodes and inline replays out to a process pool, merged
  in declaration order, so results are bit-identical to a serial run.
* :class:`ActivityCache` — the content-addressed store every axis
  shares.  Keys bind a scheme fingerprint (or controller geometry and
  cost ratio) to a population (or trace) digest, so two requests that
  provably produce the same totals collapse to one entry: RAW/DC/AC/OPT
  (Fixed) encode once per experiment, OPT re-encodes only when the
  alpha/beta *ratio* moves, SSTL and LVSTL replays coincide.
* **One record codec** — :data:`RECORD_CODECS` holds the JSON form of
  each cached totals type, shared by the disk tier
  (:mod:`repro.service.diskcache`) and by artifacts.
* **One artifact pair** — :func:`save_artifact` / :func:`load_artifact`
  persist any result as a ``repro.experiment/1`` document discriminated
  by ``kind``, so every axis re-renders without simulating.

The legacy figure functions in :mod:`repro.sim.sweep` are thin wrappers
over the figure specs with bit-identical results.

Pricing is the linear form shared by the abstract cost model and the
physical energy model: ``alpha`` per transition, ``beta`` per zero.  Two
term orders exist only to preserve IEEE-754 bit-identity with the legacy
code paths (``cost`` mirrors :meth:`~repro.core.costs.CostModel.activity_cost`,
``energy`` mirrors :meth:`~repro.phy.power.InterfaceEnergyModel.burst_energy`).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import (Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from ..baselines import DbiAc, DbiDc, Raw
from ..core.bitops import WORD_WIDTH
from ..core.costs import CostModel
from ..core.encoder import DbiOptimal
from ..core.schemes import DbiScheme, get_scheme
from ..core.vectorized import resolve_backend
from ..ctrl.adaptive import (
    OperatingPoint,
    OperatingPointSchedule,
    TrackingConfig,
)
from ..ctrl.controller import (
    CACHE_LINE_BYTES,
    MemoryController,
    transactions_from_bytes,
)
from ..extensions.granularity import GroupedDbiOptimal, VALID_GROUP_SIZES
from ..extensions.reliability import (
    DEFAULT_FAULT_RATES,
    FaultCoverageRow,
    fault_coverage_curve,
)
from ..phy.interface import get_interface
from ..phy.pod import PodInterface, pod135
from ..phy.power import GBPS, InterfaceEnergyModel, PICOFARAD
from ..workloads.population import (
    DEFAULT_CHUNK_SIZE,
    BurstPopulation,
    OpaquePopulation,
    RandomPopulation,
    as_population,
)
from ..workloads.source import (
    DEFAULT_TRACE_CHUNK_BYTES,
    BytesTraceSource,
    source_from_json,
)

#: Identifier written into every persisted artifact.
ARTIFACT_FORMAT = "repro.experiment/1"

#: Recognised pricing term orders (see module docstring).
PRICINGS = ("cost", "energy")


# -- activity totals ---------------------------------------------------------

@dataclass(frozen=True)
class ActivityTotals:
    """Population-level (transitions, zeros) totals for one encoding run."""

    transitions: int
    zeros: int
    bursts: int

    @property
    def mean_transitions(self) -> float:
        return self.transitions / self.bursts

    @property
    def mean_zeros(self) -> float:
        return self.zeros / self.bursts

    def mean_cost(self, model) -> float:
        """Mean abstract cost per burst."""
        return model.activity_cost(self.transitions, self.zeros) / self.bursts

    def mean_energy(self, energy_model) -> float:
        """Mean physical energy per burst in joules.

        Differential (zeros + transitions) pricing only: the totals carry
        no beat count, so the level-independent ``E_one`` floor of
        SSTL/LVSTL standards is not included — exact for POD, constant
        offset elsewhere (use the controller replay axis for full
        non-POD accounting).
        """
        return energy_model.burst_energy(self.transitions, self.zeros) / self.bursts


def population_activity(scheme: DbiScheme, population,
                        backend: Optional[str] = None,
                        chunk_size: int = DEFAULT_CHUNK_SIZE) -> ActivityTotals:
    """Encode a whole population once and tally (transitions, zeros).

    Accepts a :class:`~repro.workloads.population.BurstPopulation` or any
    non-empty burst sequence.  The population streams through in
    fixed-size chunks, so arbitrarily large sources fit in memory.  On the ``vector`` backend, packable sources
    feed ``(chunk, n)`` arrays straight into the scheme's batch kernel
    without materialising :class:`~repro.core.burst.Burst` objects.
    Totals are integer sums, so chunking never changes the result.
    """
    population = as_population(population)
    use_vector = (resolve_backend(backend) == "vector"
                  and scheme.supports_batch()
                  and population.burst_length is not None)
    transitions = 0
    zeros = 0
    if use_vector:
        from ..core.vectorized import scheme_batch_activity

        for data in population.iter_packed(chunk_size):
            __, chunk_transitions, chunk_zeros = scheme_batch_activity(
                scheme, data)
            transitions += chunk_transitions
            zeros += chunk_zeros
    else:
        for chunk in population.iter_chunks(chunk_size):
            for burst in chunk:
                encoded = scheme.encode(burst)
                n_transitions, n_zeros = encoded.activity()
                transitions += n_transitions
                zeros += n_zeros
    return ActivityTotals(transitions=transitions, zeros=zeros,
                          bursts=len(population))


# -- the activity cache ------------------------------------------------------

class ActivityCache:
    """Content-addressed store of activity-totals records.

    Every axis stores its entries here, distinguishable by key shape;
    both key halves identify *content*, not object identity, so
    any two requests that provably produce the same totals collapse to
    one entry:

    * encode entries — ``scheme.fingerprint() + "@" +
      population.digest()`` mapping to :class:`ActivityTotals` (e.g. OPT
      (Fixed) and the tracking OPT slot at AC fraction 0.5 share one);
    * controller-replay entries — :meth:`ReplaySpec.replay_key` strings
      mapping to :class:`ReplayTotals` (operating points with one
      differential cost ratio share one);
    * fault-coverage rows and SSO statistics, keyed by
      :meth:`FaultSpec.coverage_key` / :meth:`SsoSpec.sso_key`.

    ``hits`` and ``misses`` count each run's *unique* keys (every axis
    plans through :func:`_run_axis`), so per run ``hits + misses`` is the
    number of distinct keys and ``misses`` the computations executed.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, "CachedTotals"] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(scheme: DbiScheme, population: BurstPopulation) -> str:
        return f"{scheme.fingerprint()}@{population.digest()}"

    def __len__(self) -> int:
        return len(self._totals)

    def __contains__(self, key: str) -> bool:
        return key in self._totals

    def get(self, key: str) -> "CachedTotals":
        return self._totals[key]

    def store(self, key: str, totals: "CachedTotals") -> None:
        self._totals[key] = totals

    def clear(self) -> None:
        self._totals.clear()
        self.hits = 0
        self.misses = 0

    def health(self) -> Dict[str, object]:
        """Degradation/health snapshot; a plain memory tier never degrades.

        The disk tier (:class:`repro.service.diskcache.DiskActivityCache`)
        overrides this with write-failure / quarantine counters; the
        service daemon's ``health`` op serves whatever the active cache
        reports.
        """
        return {
            "tier": "memory",
            "degraded": False,
            "memory_entries": len(self._totals),
            "hits": self.hits,
            "misses": self.misses,
        }


_SHARED_CACHE: Optional[ActivityCache] = None


def shared_cache() -> ActivityCache:
    """The process-wide cache for sessions running several experiments.

    :func:`run_experiment` deliberately defaults to a *fresh* cache per
    run (so the legacy sweep wrappers stay pure and backend-equivalence
    tests cannot be satisfied by stale entries); pass this explicitly to
    share encodes across experiments.

    When ``REPRO_CACHE_DIR`` is set, the shared cache is a
    :class:`repro.service.diskcache.DiskActivityCache` rooted there
    instead of a plain in-memory store, so encodes persist across
    *processes*: a warm CLI run (or a daemon restart) skips every encode
    a previous run already paid for.
    """
    from ..service.diskcache import DiskActivityCache, resolve_cache_dir

    global _SHARED_CACHE
    cache_dir = resolve_cache_dir()
    if cache_dir:
        wanted = os.path.abspath(cache_dir)
        if (not isinstance(_SHARED_CACHE, DiskActivityCache)
                or _SHARED_CACHE.directory != wanted):
            _SHARED_CACHE = DiskActivityCache(wanted)
        return _SHARED_CACHE
    if _SHARED_CACHE is None or type(_SHARED_CACHE) is not ActivityCache:
        _SHARED_CACHE = ActivityCache()
    return _SHARED_CACHE


# -- the executor ------------------------------------------------------------

def _run_axis(counter: str, planned: Mapping[str, object],
              compute: Callable[[List[Tuple[str, object]]],
                                Iterable[Tuple[str, "CachedTotals"]]],
              assemble: Callable[[Dict[str, "CachedTotals"]], "_Result"],
              cache: Optional[ActivityCache], backend: str,
              extra: Mapping[str, object]) -> "_Result":
    """The run/cache path every ``run_*`` axis binds to.

    ``planned`` maps each unique cache key, in declaration order, to the
    task that computes it.  Keys already in ``cache`` count as hits; the
    rest count as misses and go to ``compute(missing)``, which yields
    ``(key, totals)`` pairs to store.  ``assemble`` prices the planned
    totals into a result, whose provenance this function then fills:
    ``backend``, the axis's work ``counter`` (``encodes``/``replays``/
    ``injections``), ``cache_hits``/``cache_misses``, the axis's
    ``extra`` keys and the run environment.  ``cache`` defaults to a
    fresh :class:`ActivityCache`.
    """
    start = time.perf_counter()
    if cache is None:
        cache = ActivityCache()
    missing = []
    for key, task in planned.items():
        if key in cache:
            cache.hits += 1
        else:
            cache.misses += 1
            missing.append((key, task))
    # A fully warm run never reaches compute, so it never touches the
    # population or trace (render-only specs re-render from the cache).
    if missing:
        for key, totals in compute(missing):
            cache.store(key, totals)
    result = assemble({key: cache.get(key) for key in planned})
    from .. import __version__

    result.provenance = {
        "backend": backend,
        counter: len(missing),
        "cache_hits": len(planned) - len(missing),
        "cache_misses": len(missing),
        **extra,
        "elapsed_s": time.perf_counter() - start,
        "python": platform.python_version(),
        "created_unix": time.time(),
        "repro_version": __version__,
    }
    return result


#: Worker-process state: the spec ships once per worker via the pool
#: initializer instead of once per task, so explicit in-memory
#: populations and inline payloads don't pay a per-task pickling cost.
_WORKER_SPEC = None


def _pool_initializer(spec) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = spec


def _in_worker(run, task):
    return run(_WORKER_SPEC, task)


def _compute_all(spec, missing: List[Tuple[str, object]], run,
                 jobs: int) -> Iterable[Tuple[str, "CachedTotals"]]:
    """Yield ``(key, run(spec, task))`` for every missing task.

    ``jobs > 1`` with several tasks fans them out to a process pool
    (``run`` must pickle); results merge in submission (declaration)
    order, not completion order, so the cache fill is deterministic.
    """
    if jobs == 1 or len(missing) == 1:
        for key, task in missing:
            yield key, run(spec, task)
        return
    # jobs is an explicit request — honour it (capped by the task count);
    # over-subscribing cores costs little here.
    with ProcessPoolExecutor(max_workers=min(jobs, len(missing)),
                             initializer=_pool_initializer,
                             initargs=(spec,)) as pool:
        futures = [pool.submit(_in_worker, run, task)
                   for __, task in missing]
        for (key, __), future in zip(missing, futures):
            yield key, future.result()


class _Result:
    """Behaviour shared by every axis's result dataclass."""

    provenance: Dict[str, object]

    def save(self, path) -> None:
        save_artifact(self, path)


# -- the figure axis ---------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    """One operating point: pricing coefficients plus labelling axes.

    ``alpha`` prices a lane transition, ``beta`` a zero-beat — abstract
    weights for Figs. 3/4, per-event joules for Figs. 7/8 (computed once
    here at spec-build time instead of per scheme per cell).
    """

    alpha: float
    beta: float
    #: Ordered (axis name, value) labels, e.g. ``(("ac_cost", 0.3),)`` or
    #: ``(("c_load_farads", 3e-12), ("data_rate_hz", 2e9))``.
    axes: Tuple[Tuple[str, float], ...] = ()

    def axis(self, name: str) -> float:
        for axis_name, value in self.axes:
            if axis_name == name:
                return value
        raise KeyError(f"grid point has no axis {name!r}")

    def cost_model(self) -> CostModel:
        return CostModel(self.alpha, self.beta)


@dataclass(frozen=True)
class SchemeSlot:
    """One output series of an experiment.

    Either *static* (a fixed scheme instance, encoded once per
    experiment) or *tracking* (``tracks_point=True``: a
    :class:`~repro.core.encoder.DbiOptimal` built from each grid point's
    coefficients — the paper's OPT following the operating point).
    """

    name: str
    scheme: Optional[DbiScheme] = None
    tracks_point: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("slot name must be non-empty")
        if self.tracks_point and self.scheme is not None:
            raise ValueError(
                f"slot {self.name!r}: tracking slots build their scheme "
                "from the grid point; do not pass an instance")

    def resolve(self, point: GridPoint) -> DbiScheme:
        """The scheme to run for *point* (static slots ignore the point)."""
        if self.tracks_point:
            return DbiOptimal(CostModel(point.alpha, point.beta))
        if self.scheme is None:
            raise RuntimeError(
                f"slot {self.name!r} is render-only (loaded from an "
                "artifact without a registry-reconstructible scheme)")
        return self.scheme


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment: population × scheme slots × operating grid."""

    name: str
    population: BurstPopulation
    slots: Tuple[SchemeSlot, ...]
    grid: Tuple[GridPoint, ...]
    #: Pricing term order — ``cost`` mirrors ``CostModel.activity_cost``,
    #: ``energy`` mirrors ``InterfaceEnergyModel.burst_energy``.
    pricing: str = "cost"
    #: Figure family for re-rendering (``alpha``/``rate``/``load``), or
    #: ``None`` for free-form experiments.
    figure: Optional[str] = None
    #: JSON-serialisable parameters the figure renderer needs
    #: (axis lists, encoder energies, ...).
    figure_params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError("spec needs at least one scheme slot")
        if not self.grid:
            raise ValueError("spec needs at least one grid point")
        if self.pricing not in PRICINGS:
            raise ValueError(
                f"unknown pricing {self.pricing!r}; choose from {PRICINGS}")
        names = [slot.name for slot in self.slots]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate slot names in {names}")


@dataclass
class ExperimentResult(_Result):
    """Everything :func:`run_experiment` produced for one spec.

    ``series`` maps slot name → priced mean value per grid point (in grid
    order); ``totals`` keeps the exact integer activity tallies under
    their cache keys; ``provenance`` records how the run was executed.
    """

    spec: ExperimentSpec
    series: Dict[str, List[float]]
    totals: Dict[str, ActivityTotals]
    provenance: Dict[str, object] = field(default_factory=dict)


def _price_cell(totals: ActivityTotals, point: GridPoint,
                pricing: str) -> float:
    if pricing == "cost":
        return (point.alpha * totals.transitions
                + point.beta * totals.zeros) / totals.bursts
    return (totals.zeros * point.beta
            + totals.transitions * point.alpha) / totals.bursts


def _encode_task(spec: ExperimentSpec, scheme: DbiScheme,
                 backend: Optional[str], chunk_size: int) -> ActivityTotals:
    """One population encode (also the process-pool payload)."""
    return population_activity(scheme, spec.population, backend=backend,
                               chunk_size=chunk_size)


def run_experiment(spec: ExperimentSpec, backend: Optional[str] = None,
                   jobs: int = 1, cache: Optional[ActivityCache] = None,
                   chunk_size: int = DEFAULT_CHUNK_SIZE) -> ExperimentResult:
    """Execute a spec: plan unique encodes, run them, price the grid.

    ``jobs > 1`` fans the missing encode tasks out to a process pool;
    results are merged back in deterministic declaration order, and the
    totals are exact integers, so the output is bit-identical to a
    serial run.  ``cache`` defaults to a fresh per-run
    :class:`ActivityCache`; pass :func:`shared_cache` (or your own) to
    reuse encodes across experiments.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    resolved = resolve_backend(backend)
    # One cache key per (slot, relevant point): static slots contribute a
    # single key, tracking slots one per distinct ratio fingerprint.
    planned: Dict[str, DbiScheme] = {}
    cell_keys: Dict[str, List[str]] = {}
    for slot in spec.slots:
        keys = []
        for point in spec.grid if slot.tracks_point else spec.grid[:1]:
            scheme = slot.resolve(point)
            keys.append(ActivityCache.key_for(scheme, spec.population))
            planned.setdefault(keys[-1], scheme)
        cell_keys[slot.name] = (keys if slot.tracks_point
                                else keys * len(spec.grid))

    def assemble(totals: Dict[str, ActivityTotals]) -> ExperimentResult:
        series = {slot.name: [_price_cell(totals[key], point, spec.pricing)
                              for key, point in zip(cell_keys[slot.name],
                                                    spec.grid)]
                  for slot in spec.slots}
        return ExperimentResult(spec=spec, series=series, totals=totals)

    run = partial(_encode_task, backend=resolved, chunk_size=chunk_size)
    return _run_axis(
        "encodes", planned,
        lambda missing: _compute_all(spec, missing, run, jobs), assemble,
        cache, resolved,
        {"jobs": jobs, "grid_cells": len(spec.grid),
         "population": spec.population.digest(),
         "population_bursts": len(spec.population)})


# -- figure spec builders ----------------------------------------------------

def _static_slots(include_raw: bool = True) -> List[SchemeSlot]:
    slots = []
    if include_raw:
        slots.append(SchemeSlot("raw", Raw()))
    slots.append(SchemeSlot("dbi-dc", DbiDc()))
    slots.append(SchemeSlot("dbi-ac", DbiAc()))
    return slots


def alpha_experiment(population, points: int = 51,
                     include_fixed: bool = False,
                     extra_schemes: Optional[Dict[str, DbiScheme]] = None,
                     name: str = "fig3-alpha-sweep") -> ExperimentSpec:
    """Figs. 3/4 as a spec: abstract cost across the AC-fraction grid."""
    if points < 2:
        raise ValueError("points must be >= 2")
    ac_costs = [i / (points - 1) for i in range(points)]
    slots = _static_slots()
    if include_fixed:
        slots.append(SchemeSlot("dbi-opt-fixed", DbiOptimal(CostModel.fixed())))
    if extra_schemes:
        slots.extend(SchemeSlot(slot_name, scheme)
                     for slot_name, scheme in extra_schemes.items())
    slots.append(SchemeSlot("dbi-opt", tracks_point=True))
    grid = tuple(GridPoint(alpha=ac_cost, beta=1.0 - ac_cost,
                           axes=(("ac_cost", ac_cost),))
                 for ac_cost in ac_costs)
    return ExperimentSpec(name=name, population=as_population(population),
                          slots=tuple(slots), grid=grid, pricing="cost",
                          figure="alpha",
                          figure_params={"ac_costs": ac_costs})


def _default_rates(data_rates_hz) -> List[float]:
    if data_rates_hz is not None:
        return list(data_rates_hz)
    return [0.5 * GBPS * step for step in range(1, 41)]


def rate_experiment(population, interface: Optional[PodInterface] = None,
                    c_load_farads: float = 3 * PICOFARAD,
                    data_rates_hz=None,
                    name: str = "fig7-rate-sweep") -> ExperimentSpec:
    """Fig. 7 as a spec: interface energy across the data-rate grid."""
    pod = interface if interface is not None else pod135()
    rates = _default_rates(data_rates_hz)
    if not rates:
        raise ValueError("no data rates given")
    slots = _static_slots()
    slots.append(SchemeSlot("dbi-opt-fixed", DbiOptimal(CostModel.fixed())))
    slots.append(SchemeSlot("dbi-opt", tracks_point=True))
    grid = []
    for rate in rates:
        energy_model = InterfaceEnergyModel(pod, rate, c_load_farads)
        grid.append(GridPoint(alpha=energy_model.energy_per_transition,
                              beta=energy_model.energy_per_zero,
                              axes=(("data_rate_hz", rate),)))
    return ExperimentSpec(name=name, population=as_population(population),
                          slots=tuple(slots), grid=tuple(grid),
                          pricing="energy", figure="rate",
                          figure_params={"data_rates_hz": rates,
                                         "c_load_farads": c_load_farads})


def load_experiment(population, interface: Optional[PodInterface] = None,
                    c_loads_farads=(1e-12, 2e-12, 3e-12, 4e-12, 6e-12, 8e-12),
                    data_rates_hz=None,
                    encoder_energy_j: Optional[Dict[str, float]] = None,
                    name: str = "fig8-load-sweep") -> ExperimentSpec:
    """Fig. 8 as a spec: (load × rate) grid, encoder energy in the params.

    The per-cell (E_transition, E_zero) coefficients are evaluated once
    here, so pricing the three schemes never re-derives the interface
    energy model — the totals come from the cache, the coefficients from
    the grid.
    """
    pod = interface if interface is not None else pod135()
    rates = _default_rates(data_rates_hz)
    if not rates:
        raise ValueError("no data rates given")
    loads = list(c_loads_farads)
    if not loads:
        raise ValueError("no load capacitances given")
    if encoder_energy_j is None:
        from ..hw.synthesis import encoder_energy_per_burst
        encoder_energy_j = encoder_energy_per_burst()
    for required in ("dbi-dc", "dbi-ac", "dbi-opt-fixed"):
        if required not in encoder_energy_j:
            raise KeyError(f"encoder_energy_j missing entry for {required!r}")
    slots = _static_slots(include_raw=False)
    slots.append(SchemeSlot("dbi-opt-fixed", DbiOptimal(CostModel.fixed())))
    grid = []
    for c_load in loads:
        for rate in rates:
            energy_model = InterfaceEnergyModel(pod, rate, c_load)
            grid.append(GridPoint(
                alpha=energy_model.energy_per_transition,
                beta=energy_model.energy_per_zero,
                axes=(("c_load_farads", c_load), ("data_rate_hz", rate))))
    return ExperimentSpec(name=name, population=as_population(population),
                          slots=tuple(slots), grid=tuple(grid),
                          pricing="energy", figure="load",
                          figure_params={
                              "c_loads_farads": loads,
                              "data_rates_hz": rates,
                              "encoder_energy_j": dict(encoder_energy_j)})


# -- the controller-replay axis ----------------------------------------------

@dataclass(frozen=True)
class ReplayPoint:
    """One electrical operating point of a controller replay.

    ``interface`` names a preset from
    :data:`repro.phy.interface.INTERFACES`; the per-event energies follow
    from (interface, data rate, load) exactly as in the figure sweeps.
    """

    interface: str
    data_rate_hz: float
    c_load_farads: float
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(
                self, "label",
                f"{self.interface}@{self.data_rate_hz / GBPS:g}Gbps"
                f"/{self.c_load_farads / PICOFARAD:g}pF")

    def energy_model(self) -> InterfaceEnergyModel:
        return InterfaceEnergyModel(get_interface(self.interface),
                                    self.data_rate_hz, self.c_load_farads)


@dataclass(frozen=True)
class ReplaySpec:
    """A trace-driven controller replay: trace × link geometry × points.

    The trace is either an inline ``payload`` (the original axis) or a
    streaming ``source`` (any :class:`repro.workloads.source.TraceSource`
    — file, synthetic, registry trace) consumed ``chunk_bytes`` at a
    time in bounded memory; exactly one of the two must be set.  Because
    a source's digest is format-identical to the inline payload digest
    of the same bytes, migrating a spec from ``payload=`` to ``source=``
    keeps every cached replay warm.

    Two optional adaptive axes ride on top of the fixed ``points`` grid
    (and may replace it entirely):

    * ``schedule`` — an :class:`~repro.ctrl.adaptive.OperatingPointSchedule`
      replayed once with planned DVFS switching; chunking-independent,
      so its cache key binds only the schedule descriptor.
    * ``tracking`` — a :class:`~repro.ctrl.adaptive.TrackingConfig`
      replayed once with online alpha/beta tracking; the tracker observes
      per submitted chunk, so its cache key additionally binds
      ``chunk_bytes``.

    The two are mutually exclusive per spec (run two specs to compare).
    """

    name: str
    payload: bytes = b""
    points: Tuple[ReplayPoint, ...] = ()
    channels: int = 2
    byte_lanes: int = 4
    window: int = 16
    line_bytes: int = CACHE_LINE_BYTES
    source: Optional[object] = None
    chunk_bytes: int = DEFAULT_TRACE_CHUNK_BYTES
    schedule: Optional[OperatingPointSchedule] = None
    tracking: Optional[TrackingConfig] = None

    def __post_init__(self) -> None:
        if bool(self.payload) == (self.source is not None):
            raise ValueError(
                "replay spec needs exactly one of payload / source")
        if self.schedule is not None and self.tracking is not None:
            raise ValueError(
                "schedule and tracking are mutually exclusive; "
                "run two specs to compare them")
        if not self.points and self.adaptive_label is None:
            raise ValueError("replay spec needs at least one operating point")
        if min(self.channels, self.byte_lanes, self.window,
               self.line_bytes) < 1:
            raise ValueError("channels/byte_lanes/window/line_bytes must be >= 1")
        if self.chunk_bytes < 1:
            raise ValueError(
                f"chunk_bytes must be >= 1, got {self.chunk_bytes}")
        labels = [point.label for point in self.points]
        if self.adaptive_label is not None:
            labels.append(self.adaptive_label)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate point labels in {labels}")

    @property
    def adaptive_label(self) -> Optional[str]:
        """Series label of the adaptive axis (``None`` without one)."""
        if self.schedule is not None:
            return self.schedule.label
        if self.tracking is not None:
            return self.tracking.label
        return None

    def payload_digest(self) -> str:
        """Content identifier of the trace (the trace half of cache keys).

        Hashed once per spec and memoised — callers key every operating
        point with it.  Source-backed specs delegate to the source's
        incremental digest, which reproduces the inline format exactly.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            if self.source is not None:
                cached = self.source.digest()
            else:
                cached = (f"sha256:"
                          f"{hashlib.sha256(self.payload).hexdigest()[:32]}")
            object.__setattr__(self, "_digest", cached)
        return cached

    def replay_key(self, model: CostModel) -> str:
        """Cache key of one fixed-point replay: link geometry +
        cost-model *ratio* @ trace digest.

        Like :meth:`repro.core.encoder.DbiOptimal.fingerprint`, only the
        alpha/beta ratio is keyed — uniform scaling never changes the
        trellis — so operating points with coinciding differential
        ratios collapse to one replay.  Chunked and inline replays of
        the same bytes share keys (chunk seams never change decisions).
        """
        return (f"ctrl[ch={self.channels},l={self.byte_lanes},"
                f"w={self.window},line={self.line_bytes},"
                f"r={model.ac_fraction.hex()}]@{self.payload_digest()}")

    def adaptive_key(self) -> str:
        """Cache key of the adaptive replay (requires one adaptive axis).

        A scheduled replay splits batches at exact transaction/address
        boundaries, so its result is chunking-independent and the key
        binds only the schedule descriptor; a tracked replay observes
        committed activity per submitted chunk, so the key additionally
        binds ``chunk_bytes``.
        """
        if self.schedule is not None:
            axis = f"sched={self.schedule.describe()}"
        elif self.tracking is not None:
            axis = (f"track={self.tracking.describe()},"
                    f"chunk={self.effective_chunk_bytes()}")
        else:
            raise ValueError(
                f"spec {self.name!r} has no schedule/tracking axis")
        return (f"ctrl[ch={self.channels},l={self.byte_lanes},"
                f"w={self.window},line={self.line_bytes},"
                f"{axis}]@{self.payload_digest()}")

    def trace_source(self):
        """The spec's trace as a :class:`TraceSource` (payload wrapped)."""
        if self.source is not None:
            return self.source
        return BytesTraceSource(self.payload, chunk_bytes=self.chunk_bytes)

    def effective_chunk_bytes(self) -> int:
        """The chunk size replays actually stream at.

        A source streams at its own chunk size; ``chunk_bytes`` applies
        to wrapped inline payloads (and to duck-typed sources that do
        not expose theirs).
        """
        if self.source is not None:
            return int(getattr(self.source, "chunk_bytes",
                               self.chunk_bytes))
        return self.chunk_bytes

    def trace_bytes_total(self) -> int:
        """Total trace size in bytes, without materialising a source."""
        return (self.source.size() if self.source is not None
                else len(self.payload))


@dataclass(frozen=True)
class ReplayTotals:
    """Integer activity of one controller replay, exact per channel."""

    transactions: int
    bytes_written: int
    beats: int
    #: Per-channel (zeros, transitions, beats) triples, channel order.
    channels: Tuple[Tuple[int, int, int], ...]
    #: Adaptive runs only: per-dwell-interval
    #: ``(point label, zeros, transitions, beats)`` rows in switch order;
    #: the rows sum exactly to the channel totals.  Empty for fixed-point
    #: replays.
    segments: Tuple[Tuple[str, int, int, int], ...] = ()

    @property
    def zeros(self) -> int:
        return sum(channel[0] for channel in self.channels)

    @property
    def transitions(self) -> int:
        return sum(channel[1] for channel in self.channels)


#: What an :class:`ActivityCache` stores (see its docstring).
CachedTotals = Union[ActivityTotals, ReplayTotals, FaultCoverageRow]


@dataclass
class ReplayResult(_Result):
    """Everything :func:`run_replay` produced for one spec.

    ``series`` maps point label → priced energies; ``totals`` keeps the
    exact integer tallies under their cache keys, with ``point_keys``
    mapping point label → cache key (use :meth:`totals_for` rather than
    reconstructing keys).
    """

    spec: ReplaySpec
    series: Dict[str, Dict[str, object]]
    totals: Dict[str, ReplayTotals]
    provenance: Dict[str, object] = field(default_factory=dict)
    point_keys: Dict[str, str] = field(default_factory=dict)

    def totals_for(self, label: str) -> ReplayTotals:
        """The integer tallies behind one operating point's series."""
        return self.totals[self.point_keys[label]]


def _replay_task(spec: ReplaySpec, model: Optional[CostModel],
                 backend: str) -> ReplayTotals:
    """One full pass of the spec's trace through the write path.

    ``model`` fixes the cost model; ``None`` replays under the spec's
    schedule or tracking axis instead.  Inline payloads of fixed-point
    replays are submitted whole, everything else streams through
    :meth:`~repro.ctrl.controller.MemoryController.submit_source` —
    bit-identical on the same bytes, because the lane encoders' pending
    state depends only on cumulative pushed bytes, never on how
    submissions were chunked (``tests/ctrl/test_chunk_seams.py``).
    """
    if model is not None:
        setting = {"model": model}
    elif spec.schedule is not None:
        setting = {"schedule": spec.schedule}
    else:
        setting = {"tracker": spec.tracking.build()}
    controller = MemoryController(channels=spec.channels,
                                  byte_lanes=spec.byte_lanes,
                                  window=spec.window,
                                  line_bytes=spec.line_bytes,
                                  backend=backend, **setting)
    if model is None or spec.source is not None:
        controller.submit_source(spec.trace_source())
    else:
        controller.submit(transactions_from_bytes(spec.payload,
                                                  spec.line_bytes))
    stats = controller.flush()
    per_channel = tuple(
        (merged.zeros, merged.transitions, merged.beats)
        for merged in (controller.channel_statistics(channel)
                       for channel in range(controller.channels)))
    segments = tuple(
        (segment.label, segment.zeros, segment.transitions, segment.beats)
        for segment in controller.segments())
    return ReplayTotals(transactions=stats.transactions,
                        bytes_written=stats.bytes_written,
                        beats=stats.beats, channels=per_channel,
                        segments=segments)


def _price_replay(totals: ReplayTotals,
                  energy_model: InterfaceEnergyModel) -> Dict[str, object]:
    per_channel_energy = [
        energy_model.burst_energy(transitions, zeros,
                                  lane_beats=WORD_WIDTH * beats)
        for zeros, transitions, beats in totals.channels
    ]
    energy = energy_model.burst_energy(
        totals.transitions, totals.zeros,
        lane_beats=WORD_WIDTH * totals.beats)
    return {
        "energy_joules": energy,
        "energy_per_byte": (energy / totals.bytes_written
                            if totals.bytes_written else 0.0),
        "per_channel_energy": per_channel_energy,
    }


def _price_adaptive(totals: ReplayTotals,
                    points_by_label: Mapping[str, OperatingPoint]
                    ) -> Dict[str, object]:
    """Price an adaptive replay: each segment at its own operating point."""
    energy = 0.0
    per_segment = []
    for label, zeros, transitions, beats in totals.segments:
        segment_energy = points_by_label[label].energy_model().burst_energy(
            transitions, zeros, lane_beats=WORD_WIDTH * beats)
        per_segment.append({"label": label, "beats": beats,
                            "energy_joules": segment_energy})
        energy += segment_energy
    return {
        "energy_joules": energy,
        "energy_per_byte": (energy / totals.bytes_written
                            if totals.bytes_written else 0.0),
        "per_segment_energy": per_segment,
    }


def run_replay(spec: ReplaySpec, backend: Optional[str] = None,
               jobs: int = 1, cache: Optional[ActivityCache] = None) -> ReplayResult:
    """Execute a replay spec: plan unique replays, run them, price points.

    The shape mirrors :func:`run_experiment`: points are deduplicated by
    :meth:`ReplaySpec.replay_key`, missing replays run serially or on a
    process pool (``jobs``; merged in declaration order, so results are
    bit-identical to a serial run), and every operating point is priced
    from the cached integer totals.

    Source-backed specs stream every replay through
    :meth:`~repro.ctrl.controller.MemoryController.submit_source` in
    bounded memory and always run serially (the trace never ships to
    worker processes); the totals — and therefore the cache entries and
    priced energies — are bit-identical to an inline replay of the same
    bytes.  A spec's ``schedule``/``tracking`` axis adds one more series
    under :attr:`ReplaySpec.adaptive_label`, priced per segment at that
    segment's own operating point.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    resolved = resolve_backend(backend)
    point_keys: Dict[str, str] = {}
    # Each unique key's cost model; ``None`` marks the adaptive replay.
    planned: Dict[str, Optional[CostModel]] = {}
    for point in spec.points:
        model = point.energy_model().cost_model()
        point_keys[point.label] = spec.replay_key(model)
        planned.setdefault(point_keys[point.label], model)
    if spec.adaptive_label is not None:
        point_keys[spec.adaptive_label] = spec.adaptive_key()
        planned[spec.adaptive_key()] = None

    def compute(missing):
        if getattr(spec, "_render_only", False):
            raise RuntimeError(
                f"replay spec {spec.name!r} was loaded from an artifact "
                "without its trace and cannot re-execute; pass a cache "
                "holding its totals, or re-run with the original trace "
                f"(missing: {[key for key, __ in missing]})")
        return _compute_all(spec, missing,
                            partial(_replay_task, backend=resolved),
                            jobs if spec.source is None else 1)

    def assemble(totals: Dict[str, ReplayTotals]) -> ReplayResult:
        series = {
            point.label: _price_replay(totals[point_keys[point.label]],
                                       point.energy_model())
            for point in spec.points
        }
        if spec.adaptive_label is not None:
            axis = (spec.schedule if spec.schedule is not None
                    else spec.tracking)
            series[spec.adaptive_label] = _price_adaptive(
                totals[point_keys[spec.adaptive_label]],
                axis.points_by_label())
        return ReplayResult(spec=spec, series=series, totals=totals,
                            point_keys=point_keys)

    extra: Dict[str, object] = {
        "jobs": jobs,
        "points": len(spec.points),
        "payload": spec.payload_digest(),
        "payload_bytes": spec.trace_bytes_total(),
    }
    if spec.source is not None:
        extra.update(streamed=True, chunk_bytes=spec.effective_chunk_bytes(),
                     source=spec.source.describe())
    return _run_axis("replays", planned, compute, assemble, cache, resolved,
                     extra)


def interface_replay_experiment(payload: bytes,
                                interfaces: Sequence[str] = (
                                    "pod135", "pod12", "sstl15", "lvstl11"),
                                data_rate_hz: float = 3.2 * GBPS,
                                c_load_farads: float = 3 * PICOFARAD,
                                channels: int = 2, byte_lanes: int = 4,
                                window: int = 16,
                                line_bytes: int = CACHE_LINE_BYTES,
                                name: str = "ctrl-interface-replay") -> ReplaySpec:
    """The standard replay axis: one payload across electrical standards.

    Transition-only points (SSTL, LVSTL — identical differential ratio)
    automatically share a single replay through the cache.
    """
    points = tuple(ReplayPoint(interface=interface_name,
                               data_rate_hz=data_rate_hz,
                               c_load_farads=c_load_farads)
                   for interface_name in interfaces)
    return ReplaySpec(name=name, payload=bytes(payload), points=points,
                      channels=channels, byte_lanes=byte_lanes,
                      window=window, line_bytes=line_bytes)


# -- the reliability axis ----------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """A fault-coverage experiment: schemes × fault-rate grid × population.

    One row per (scheme slot, rate): the population is encoded once per
    distinct scheme fingerprint, every lane-beat of the encoded words
    flips independently with the row's rate
    (:func:`repro.extensions.reliability.fault_coverage_curve`), and the
    decoded-error tallies are cached like replays — the cache key binds
    the rate, the mask seed, the scheme fingerprint and the population
    digest.  Rates draw per-``(seed, rate)`` independent mask streams, so
    a row never depends on which other rates the spec contains.

    Rows are independent of the electrical interface: fault statistics
    count decoded *bits*, which only the scheme's wire words determine —
    one spec therefore serves every interface operating point.
    """

    name: str
    population: BurstPopulation
    #: Ordered ``(slot name, scheme)`` pairs, one output series each.
    slots: Tuple[Tuple[str, DbiScheme], ...]
    rates: Tuple[float, ...] = DEFAULT_FAULT_RATES
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError("fault spec needs at least one scheme slot")
        if not self.rates:
            raise ValueError("fault spec needs at least one fault rate")
        names = [slot_name for slot_name, __ in self.slots]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate slot names in {names}")

    def coverage_key(self, scheme: DbiScheme, rate: float) -> str:
        """Cache key of one (scheme, rate) coverage row."""
        return (f"fault[p={float(rate).hex()},s={self.seed}]"
                f"{scheme.fingerprint()}@{self.population.digest()}")


def _coverage_row_json(row: FaultCoverageRow) -> Dict[str, object]:
    """A coverage row as its cache record plus the derived rates."""
    return {**RECORD_CODECS["fault"].encode(row),
            "bit_error_rate": row.bit_error_rate,
            "beat_error_rate": row.beat_error_rate,
            "amplification": row.amplification}


@dataclass
class FaultResult(_Result):
    """Everything :func:`run_faults` produced for one spec.

    ``series`` maps slot name → coverage rows (dicts, rate order, the
    integer tallies plus the derived rates); ``totals`` keeps the exact
    :class:`~repro.extensions.reliability.FaultCoverageRow` records under
    their cache keys.
    """

    spec: FaultSpec
    series: Dict[str, List[Dict[str, object]]]
    totals: Dict[str, FaultCoverageRow]
    provenance: Dict[str, object] = field(default_factory=dict)


def run_faults(spec: FaultSpec, backend: Optional[str] = None,
               cache: Optional[ActivityCache] = None) -> FaultResult:
    """Execute a fault spec: plan unique coverage rows, inject, tally.

    Rows are deduplicated by :meth:`FaultSpec.coverage_key` (two slots
    with equal fingerprints share every row), only the missing rows are
    injected, and the result is bit-identical across backends and word
    kernels (there is no ``jobs``: the vector engine is already
    mask-parallel).  ``backend`` follows
    :func:`repro.hw.bitsim.resolve_sim_backend` — ``auto`` resolves to
    the mask-parallel engine even without NumPy.  Provenance names the
    word kernel that ran under ``word_impl``.
    """
    from ..hw.bitsim import resolve_sim_backend, resolve_word_impl

    resolved = resolve_sim_backend(backend)
    planned = {spec.coverage_key(scheme, rate): (scheme, rate)
               for __, scheme in spec.slots for rate in spec.rates}

    def compute(missing):
        # One injection pass per scheme: every rate draws its own mask
        # stream, so grouping rates never changes a row.
        bursts = spec.population.bursts()
        groups: Dict[str, Tuple[DbiScheme, List[Tuple[str, float]]]] = {}
        for key, (scheme, rate) in missing:
            groups.setdefault(scheme.fingerprint(),
                              (scheme, []))[1].append((key, rate))
        for scheme, todo in groups.values():
            rows = fault_coverage_curve(
                scheme, bursts, rates=[rate for __, rate in todo],
                seed=spec.seed, backend=resolved)
            for (key, __), row in zip(todo, rows):
                yield key, row

    def assemble(totals: Dict[str, FaultCoverageRow]) -> FaultResult:
        series = {slot_name: [_coverage_row_json(
                      totals[spec.coverage_key(scheme, rate)])
                      for rate in spec.rates]
                  for slot_name, scheme in spec.slots}
        return FaultResult(spec=spec, series=series, totals=totals)

    return _run_axis("injections", planned, compute, assemble, cache,
                     resolved,
                     {"word_impl": resolve_word_impl(),
                      "rates": len(spec.rates),
                      "seed": spec.seed,
                      "population": spec.population.digest(),
                      "population_bursts": len(spec.population)})


def fault_experiment(population,
                     schemes: Sequence[str] = ("raw", "dbi-dc", "dbi-ac",
                                               "dbi-opt"),
                     rates: Sequence[float] = DEFAULT_FAULT_RATES,
                     seed: int = 7,
                     name: str = "fault-coverage") -> FaultSpec:
    """The standard reliability axis: registry schemes × rate grid."""
    slots = tuple((scheme_name, get_scheme(scheme_name))
                  for scheme_name in schemes)
    return FaultSpec(name=name, population=as_population(population),
                     slots=slots, rates=tuple(float(rate) for rate in rates),
                     seed=seed)


# -- the granularity axis ----------------------------------------------------

@dataclass(frozen=True)
class GranularitySpec:
    """A DBI-granularity ablation: group sizes × population × cost model.

    One row per group size, each an independent
    :class:`~repro.extensions.granularity.GroupedDbiOptimal` encode of
    the population, cached under the scheme's ratio-keyed fingerprint +
    population digest — exactly the encode-entry discipline of
    :func:`run_experiment`, so granularity rows share the cache with
    figure sweeps.
    """

    name: str
    population: BurstPopulation
    model: CostModel
    group_sizes: Tuple[int, ...] = VALID_GROUP_SIZES

    def __post_init__(self) -> None:
        if not self.group_sizes:
            raise ValueError("granularity spec needs at least one group size")
        for group_size in self.group_sizes:
            if group_size not in VALID_GROUP_SIZES:
                raise ValueError(
                    f"group_size must be one of {VALID_GROUP_SIZES}, "
                    f"got {group_size}")

    def scheme_for(self, group_size: int) -> GroupedDbiOptimal:
        return GroupedDbiOptimal(self.model, group_size=group_size)


@dataclass
class GranularityResult(_Result):
    """Everything :func:`run_granularity` produced for one spec.

    ``rows`` matches :func:`repro.extensions.granularity
    .granularity_table` exactly (as dicts, group-size order); ``totals``
    keeps the exact integer tallies under their cache keys.
    """

    spec: GranularitySpec
    rows: List[Dict[str, object]]
    totals: Dict[str, ActivityTotals]
    provenance: Dict[str, object] = field(default_factory=dict)


def run_granularity(spec: GranularitySpec, backend: Optional[str] = None,
                    cache: Optional[ActivityCache] = None
                    ) -> GranularityResult:
    """Execute a granularity spec: one cached encode per group size.

    Totals are exact integers and identical across backends
    (:meth:`GroupedDbiOptimal.activity_totals` guarantees bit-identity),
    and the produced rows equal
    :func:`repro.extensions.granularity.granularity_table` on the same
    population.
    """
    resolved = resolve_backend(backend)
    count = len(spec.population)
    keys = [ActivityCache.key_for(spec.scheme_for(group_size),
                                  spec.population)
            for group_size in spec.group_sizes]

    def compute(missing):
        bursts = spec.population.bursts()
        for key, group_size in missing:
            zeros, transitions = spec.scheme_for(group_size).activity_totals(
                bursts, backend=resolved)
            yield key, ActivityTotals(transitions=transitions, zeros=zeros,
                                      bursts=count)

    def assemble(totals: Dict[str, ActivityTotals]) -> GranularityResult:
        rows = [{
            "group_size": group_size,
            "mean_zeros": totals[key].mean_zeros,
            "mean_transitions": totals[key].mean_transitions,
            "mean_cost": spec.model.activity_cost(
                totals[key].transitions, totals[key].zeros) / count,
            "lines_per_byte_lane": 8 + 8 // group_size,
        } for key, group_size in zip(keys, spec.group_sizes)]
        return GranularityResult(spec=spec, rows=rows, totals=totals)

    return _run_axis("encodes", dict(zip(keys, spec.group_sizes)), compute,
                     assemble, cache, resolved,
                     {"group_sizes": list(spec.group_sizes),
                      "population": spec.population.digest(),
                      "population_bursts": count})


def granularity_experiment(population, model: Optional[CostModel] = None,
                           group_sizes: Sequence[int] = VALID_GROUP_SIZES,
                           name: str = "granularity-ablation"
                           ) -> GranularitySpec:
    """The standard granularity axis (fixed-coefficient model default)."""
    return GranularitySpec(
        name=name, population=as_population(population),
        model=model if model is not None else CostModel.fixed(),
        group_sizes=tuple(group_sizes))


# -- the simultaneous-switching axis -----------------------------------------

@dataclass(frozen=True)
class SsoSpec:
    """A simultaneous-switching sweep: schemes × interface presets.

    One cached :class:`~repro.analysis.sso.SsoStatistics` per scheme slot
    (the cache key binds the chained flag, the scheme fingerprint and the
    population digest), then one priced row per (slot, interface): the
    integer switching tallies are interface-independent, so the whole
    interface column reuses a single encode — the same
    dedup-by-fingerprint discipline as :class:`FaultSpec`.

    ``chained`` selects the boundary condition of
    :func:`~repro.analysis.sso.sso_of_words`: ``False`` resets every
    burst to the idle-high bus (the paper's convention), ``True``
    threads the last word of each burst into the next.
    """

    name: str
    population: BurstPopulation
    #: Ordered ``(slot name, scheme)`` pairs, one output series each.
    slots: Tuple[Tuple[str, DbiScheme], ...]
    #: Interface preset names (:func:`repro.phy.interface.get_interface`).
    interfaces: Tuple[str, ...] = ("pod135",)
    chained: bool = False
    #: ``exceed_fraction`` reports beats with more than this many toggles.
    threshold: int = WORD_WIDTH // 2
    line_impedance_ohms: float = 50.0

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError("sso spec needs at least one scheme slot")
        if not self.interfaces:
            raise ValueError("sso spec needs at least one interface")
        names = [slot_name for slot_name, __ in self.slots]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate slot names in {names}")
        if not 0 <= self.threshold <= WORD_WIDTH:
            raise ValueError(
                f"threshold must be in [0, {WORD_WIDTH}], got {self.threshold}")
        if self.line_impedance_ohms <= 0:
            raise ValueError("line_impedance_ohms must be positive, got "
                             f"{self.line_impedance_ohms}")
        for interface_name in self.interfaces:
            get_interface(interface_name)  # raises KeyError with known names

    def sso_key(self, scheme: DbiScheme) -> str:
        """Cache key of one slot's switching statistics."""
        return (f"sso[chained={int(self.chained)}]"
                f"{scheme.fingerprint()}@{self.population.digest()}")


@dataclass
class SsoResult(_Result):
    """Everything :func:`run_sso` produced for one spec.

    ``series`` maps slot name → one priced row per interface (declaration
    order); ``totals`` keeps the exact
    :class:`~repro.analysis.sso.SsoStatistics` records under their cache
    keys, histogram included.
    """

    spec: SsoSpec
    series: Dict[str, List[Dict[str, object]]]
    totals: Dict[str, "SsoStatistics"]
    provenance: Dict[str, object] = field(default_factory=dict)


def run_sso(spec: SsoSpec, backend: Optional[str] = None,
            cache: Optional[ActivityCache] = None) -> SsoResult:
    """Execute an SSO spec: encode + tally once per slot, price per interface.

    Statistics come from :func:`~repro.analysis.sso.sso_of_scheme_batch`,
    so they are bit-identical across backends and word kernels
    (enforced by ``tests/analysis/test_sso_batch.py``); ``backend``
    follows :func:`repro.hw.bitsim.resolve_sim_backend`.  Provenance
    names the word kernel that ran under ``word_impl``.
    """
    from ..analysis.sso import sso_of_scheme_batch
    from ..hw.bitsim import resolve_sim_backend, resolve_word_impl

    resolved = resolve_sim_backend(backend)

    def compute(missing):
        bursts = spec.population.bursts()
        for key, scheme in missing:
            yield key, sso_of_scheme_batch(
                scheme, bursts, chained=spec.chained, backend=resolved)

    def assemble(totals: Dict[str, "SsoStatistics"]) -> SsoResult:
        presets = [(name, get_interface(name)) for name in spec.interfaces]
        series = {}
        for slot_name, scheme in spec.slots:
            stats = totals[spec.sso_key(scheme)]
            series[slot_name] = [{
                "interface": interface_name,
                "beats": stats.beats,
                "max_switching": stats.max_switching,
                "mean_switching": stats.mean_switching,
                "total_switching": stats.total_switching,
                "exceed_fraction": stats.exceed_fraction(spec.threshold),
                "peak_current_amps": stats.peak_current_amps(
                    interface, spec.line_impedance_ohms),
                "mean_current_amps": stats.mean_current_amps(
                    interface, spec.line_impedance_ohms),
            } for interface_name, interface in presets]
        return SsoResult(spec=spec, series=series, totals=totals)

    return _run_axis("encodes",
                     {spec.sso_key(scheme): scheme
                      for __, scheme in spec.slots},
                     compute, assemble, cache, resolved,
                     {"word_impl": resolve_word_impl(),
                      "chained": spec.chained,
                      "threshold": spec.threshold,
                      "line_impedance_ohms": spec.line_impedance_ohms,
                      "interfaces": len(spec.interfaces),
                      "population": spec.population.digest(),
                      "population_bursts": len(spec.population)})


def sso_experiment(population,
                   schemes: Sequence[str] = ("raw", "dbi-dc", "dbi-ac",
                                             "dbi-opt"),
                   interfaces: Optional[Sequence[str]] = None,
                   chained: bool = False,
                   threshold: int = WORD_WIDTH // 2,
                   line_impedance_ohms: float = 50.0,
                   name: str = "sso-ranking") -> SsoSpec:
    """The standard SSO axis: registry schemes × every interface preset."""
    from ..phy.interface import available_interfaces

    slots = tuple((scheme_name, get_scheme(scheme_name))
                  for scheme_name in schemes)
    if interfaces is None:
        interfaces = available_interfaces()
    return SsoSpec(name=name, population=as_population(population),
                   slots=slots, interfaces=tuple(interfaces),
                   chained=chained, threshold=threshold,
                   line_impedance_ohms=line_impedance_ohms)


# -- the record codec --------------------------------------------------------

def _json_value(value):
    """Tuples become lists, dicts get sorted stringified keys."""
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): value[key] for key in sorted(value)}
    return value


class RecordCodec(NamedTuple):
    """The JSON record of one cached totals type.

    ``encode`` writes the dataclass fields in declaration order and omits
    those left at their default (fixed-point replays carry no
    ``segments``), so records written before a defaulted field existed
    keep decoding and re-encode to the same bytes.  ``parsers`` maps
    every field to the function restoring it from JSON.
    """

    kind: str
    #: The totals class, resolved lazily (SSO statistics live in
    #: :mod:`repro.analysis`, which imports this module).
    record_type: Callable[[], type]
    parsers: Mapping[str, Callable[[object], object]]

    def encode(self, value) -> Dict[str, object]:
        return {spec.name: _json_value(getattr(value, spec.name))
                for spec in fields(value)
                if getattr(value, spec.name) != spec.default}

    def decode(self, record: Mapping[str, object]):
        return self.record_type()(**{
            name: parse(record[name])
            for name, parse in self.parsers.items() if name in record})


def _sso_statistics():
    from ..analysis.sso import SsoStatistics

    return SsoStatistics


def _int_rows(rows) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(int(value) for value in row) for row in rows)


#: Every cached totals type's codec, by the ``kind`` written to disk.
RECORD_CODECS: Dict[str, RecordCodec] = {codec.kind: codec for codec in (
    RecordCodec("activity", lambda: ActivityTotals,
                dict.fromkeys(("transitions", "zeros", "bursts"), int)),
    RecordCodec("replay", lambda: ReplayTotals, {
        **dict.fromkeys(("transactions", "bytes_written", "beats"), int),
        "channels": _int_rows,
        "segments": lambda rows: tuple(
            (str(label), int(zeros), int(transitions), int(beats))
            for label, zeros, transitions, beats in rows)}),
    RecordCodec("fault", lambda: FaultCoverageRow, {
        "rate": float,
        **dict.fromkeys(("injected_faults", "total_beats", "bit_errors",
                         "corrupted_beats", "dbi_lane_faults"), int)}),
    RecordCodec("sso", _sso_statistics, {
        **dict.fromkeys(("beats", "max_switching", "total_switching"), int),
        "histogram": lambda histogram: {int(k): int(count)
                                        for k, count in histogram.items()}}),
)}


def codec_for(value) -> RecordCodec:
    """The codec of a cached totals value (``TypeError`` if none)."""
    for codec in RECORD_CODECS.values():
        if isinstance(value, codec.record_type()):
            return codec
    raise TypeError(f"no record codec for {type(value).__name__}")


# -- artifact persistence ----------------------------------------------------

def _population_to_json(population: BurstPopulation) -> Dict[str, object]:
    record: Dict[str, object] = {
        "digest": population.digest(),
        "count": len(population),
        "burst_length": population.burst_length,
    }
    if isinstance(population, RandomPopulation):
        record["kind"] = "random"
        record["seed"] = population.seed
    else:
        record["kind"] = "explicit"
    return record


def _population_from_json(record: Mapping[str, object]) -> BurstPopulation:
    digest = record["digest"]
    count = int(record["count"])
    burst_length = record.get("burst_length")
    if record.get("kind") == "random":
        population = RandomPopulation(count=count,
                                      burst_length=int(burst_length),
                                      seed=int(record["seed"]))
        if population.digest() == digest:
            return population
        # Generated by the other generator family — re-render only.
    return OpaquePopulation(digest=str(digest), count=count,
                            burst_length=burst_length)


def _slot_to_json(slot: SchemeSlot) -> Dict[str, object]:
    record: Dict[str, object] = {"name": slot.name,
                                 "tracks_point": slot.tracks_point}
    if slot.scheme is not None:
        record["scheme"] = slot.scheme.name
        record["fingerprint"] = slot.scheme.fingerprint()
    return record


def _slot_from_json(record: Mapping[str, object]) -> SchemeSlot:
    """A slot whose registry scheme still matches its fingerprint.

    Anything else comes back scheme-less, i.e. render-only.
    """
    if record.get("tracks_point"):
        return SchemeSlot(str(record["name"]), tracks_point=True)
    scheme: Optional[DbiScheme] = None
    scheme_name = record.get("scheme")
    if scheme_name is not None:
        try:
            candidate = get_scheme(str(scheme_name))
        except KeyError:
            candidate = None
        if (candidate is not None
                and candidate.fingerprint() == record.get("fingerprint")):
            scheme = candidate
    return SchemeSlot(str(record["name"]), scheme=scheme)


def _experiment_spec_to_json(result: ExperimentResult) -> Dict[str, object]:
    spec = result.spec
    return {
        "name": spec.name,
        "population": _population_to_json(spec.population),
        "slots": [_slot_to_json(slot) for slot in spec.slots],
        "grid": [{"alpha": point.alpha, "beta": point.beta,
                  "axes": dict(point.axes)} for point in spec.grid],
        "pricing": spec.pricing,
        "figure": spec.figure,
        "figure_params": dict(spec.figure_params),
    }


def _experiment_spec_from_json(record: Mapping[str, object]
                               ) -> ExperimentSpec:
    return ExperimentSpec(
        name=record["name"],
        population=_population_from_json(record["population"]),
        slots=tuple(_slot_from_json(slot) for slot in record["slots"]),
        grid=tuple(GridPoint(alpha=point["alpha"], beta=point["beta"],
                             axes=tuple(point.get("axes", {}).items()))
                   for point in record["grid"]),
        pricing=record.get("pricing", "cost"),
        figure=record.get("figure"),
        figure_params=record.get("figure_params", {}),
    )


#: Replay payloads up to this size are inlined into the artifact (hex),
#: keeping the artifact re-runnable; larger payloads persist digest-only
#: and load as render-only specs.
REPLAY_PAYLOAD_INLINE_LIMIT = 65536


def _point_to_json(point) -> Dict[str, object]:
    """ReplayPoint and OperatingPoint share this record shape."""
    return {"interface": point.interface,
            "data_rate_hz": point.data_rate_hz,
            "c_load_farads": point.c_load_farads,
            "label": point.label}


def _points_from_json(records, point_type) -> tuple:
    return tuple(point_type(interface=str(point["interface"]),
                            data_rate_hz=float(point["data_rate_hz"]),
                            c_load_farads=float(point["c_load_farads"]),
                            label=str(point["label"]))
                 for point in records)


def _replay_spec_to_json(result: ReplayResult) -> Dict[str, object]:
    spec = result.spec
    payload_record: Dict[str, object] = {
        "digest": spec.payload_digest(),
        "bytes": spec.trace_bytes_total(),
    }
    if getattr(spec, "_render_only", False):
        payload_record["bytes"] = int(
            result.provenance.get("payload_bytes", 0))
    elif spec.source is not None:
        # Large traces persist digest + descriptor, never the bytes; the
        # loader rebuilds the source when the descriptor resolves in its
        # environment and falls back to render-only when it doesn't.
        payload_record["source"] = spec.source.describe()
    elif len(spec.payload) <= REPLAY_PAYLOAD_INLINE_LIMIT:
        payload_record["hex"] = spec.payload.hex()
    record: Dict[str, object] = {
        "name": spec.name,
        "payload": payload_record,
        "points": [_point_to_json(point) for point in spec.points],
        "channels": spec.channels,
        "byte_lanes": spec.byte_lanes,
        "window": spec.window,
        "line_bytes": spec.line_bytes,
        "chunk_bytes": spec.chunk_bytes,
    }
    for name in ("schedule", "tracking"):
        axis = getattr(spec, name)
        if axis is not None:
            record[name] = {axis_field.name: _json_value(
                                getattr(axis, axis_field.name))
                            for axis_field in fields(axis)}
            record[name]["points"] = [_point_to_json(point)
                                      for point in axis.points]
    return record


def _replay_spec_from_json(record: Mapping[str, object]) -> ReplaySpec:
    """Inlined payloads and resolvable sources load re-runnable; anything
    else loads *render-only* — series and totals re-render exactly, but
    :func:`run_replay` refuses to re-execute unless every key is cached.
    """
    payload_record = record["payload"]
    schedule = tracking = None
    if record.get("schedule") is not None:
        axis = record["schedule"]
        schedule = OperatingPointSchedule(
            points=_points_from_json(axis["points"], OperatingPoint),
            switch_at=tuple(int(value) for value in axis["switch_at"]),
            unit=str(axis["unit"]), label=str(axis["label"]))
    if record.get("tracking") is not None:
        axis = record["tracking"]
        tracking = TrackingConfig(
            points=_points_from_json(axis["points"], OperatingPoint),
            half_life_bytes=float(axis["half_life_bytes"]),
            min_dwell_bytes=int(axis["min_dwell_bytes"]),
            label=str(axis["label"]))
    payload_hex = payload_record.get("hex")
    source = (source_from_json(payload_record["source"])
              if payload_record.get("source") is not None else None)
    if payload_hex is not None:
        payload = bytes.fromhex(payload_hex)
    else:
        payload = b"" if source is not None else b"\x00"
    spec = ReplaySpec(
        name=str(record["name"]),
        payload=payload,
        points=_points_from_json(record["points"], ReplayPoint),
        channels=int(record["channels"]),
        byte_lanes=int(record["byte_lanes"]),
        window=int(record["window"]),
        line_bytes=int(record["line_bytes"]),
        source=source,
        chunk_bytes=int(record.get("chunk_bytes",
                                   DEFAULT_TRACE_CHUNK_BYTES)),
        schedule=schedule,
        tracking=tracking,
    )
    if payload_hex is None:
        # Pin the persisted digest: render-only specs have no trace to
        # hash (replay keys, totals_for and cache lookups still resolve),
        # and a rebuilt source would re-stream the whole trace (equal by
        # construction; pinning keeps loads O(1)).
        object.__setattr__(spec, "_digest", str(payload_record["digest"]))
        if source is None:
            object.__setattr__(spec, "_render_only", True)
    return spec


def _fields_to_json(result: _Result) -> Dict[str, object]:
    """Fault, granularity and SSO specs: every field, declaration order."""
    record: Dict[str, object] = {}
    for spec_field in fields(result.spec):
        value = getattr(result.spec, spec_field.name)
        if spec_field.name == "population":
            value = _population_to_json(value)
        elif spec_field.name == "slots":
            value = [{"name": slot_name, "scheme": scheme.name,
                      "fingerprint": scheme.fingerprint()}
                     for slot_name, scheme in value]
        elif spec_field.name == "model":
            value = {"alpha": value.alpha, "beta": value.beta}
        else:
            value = _json_value(value)
        record[spec_field.name] = value
    return record


def _fields_from_json(spec_type: type, record: Mapping[str, object]):
    """Inverse of :func:`_fields_to_json`.

    Registry schemes whose fingerprints still match are rebuilt, so the
    spec can be re-run; unknown slots are dropped unless none resolve,
    in which case all come back scheme-less (render-only).
    """
    values: Dict[str, object] = {}
    for spec_field in fields(spec_type):
        name, default = spec_field.name, spec_field.default
        value = record[name] if default is MISSING else record.get(name,
                                                                    default)
        if name == "population":
            value = _population_from_json(value)
        elif name == "slots":
            slots = [(slot.name, slot.scheme)
                     for slot in map(_slot_from_json, value)]
            value = tuple([slot for slot in slots if slot[1] is not None]
                          or slots)
        elif name == "model":
            value = CostModel(alpha=value["alpha"], beta=value["beta"])
        elif default is not MISSING:
            value = type(default)(value)
        values[name] = value
    return spec_type(**values)


class _ArtifactKind(NamedTuple):
    result_type: type
    #: The result member holding the priced output.
    output: str
    codec: str
    spec_to_json: Callable[[_Result], Dict[str, object]]
    spec_from_json: Callable[[Mapping[str, object]], object]


#: Every artifact ``kind``; figure experiments write no ``kind`` field.
_ARTIFACT_KINDS: Dict[str, _ArtifactKind] = {
    "experiment": _ArtifactKind(ExperimentResult, "series", "activity",
                                _experiment_spec_to_json,
                                _experiment_spec_from_json),
    "replay": _ArtifactKind(ReplayResult, "series", "replay",
                            _replay_spec_to_json, _replay_spec_from_json),
    "faults": _ArtifactKind(FaultResult, "series", "fault", _fields_to_json,
                            partial(_fields_from_json, FaultSpec)),
    "granularity": _ArtifactKind(GranularityResult, "rows", "activity",
                                 _fields_to_json,
                                 partial(_fields_from_json, GranularitySpec)),
    "sso": _ArtifactKind(SsoResult, "series", "sso", _fields_to_json,
                         partial(_fields_from_json, SsoSpec)),
}

_KIND_OF = {entry.result_type: kind
            for kind, entry in _ARTIFACT_KINDS.items()}


def result_to_json(result: _Result) -> Dict[str, object]:
    """Any axis's result as a JSON-serialisable artifact dict."""
    kind = _KIND_OF[type(result)]
    entry = _ARTIFACT_KINDS[kind]
    payload: Dict[str, object] = {"format": ARTIFACT_FORMAT}
    if kind != "experiment":
        payload["kind"] = kind
    output = getattr(result, entry.output)
    # Fault rows keep their derived rates in artifacts (not in the cache).
    encode = (_coverage_row_json if kind == "faults"
              else RECORD_CODECS[entry.codec].encode)
    payload.update({
        "spec": entry.spec_to_json(result),
        entry.output: (dict(output) if isinstance(output, dict)
                       else list(output)),
        "totals": {key: encode(totals)
                   for key, totals in result.totals.items()},
    })
    if kind == "replay":
        payload["point_keys"] = dict(result.point_keys)
    payload["provenance"] = dict(result.provenance)
    return payload


#: Kept for callers that predate the kind-dispatching writer.
replay_result_to_json = result_to_json


def save_artifact(result: _Result, path) -> None:
    """Persist spec + results + provenance of any axis as JSON.

    Floats round-trip exactly (shortest-repr serialisation), so a loaded
    artifact re-renders bit-identical tables.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_to_json(result), handle, indent=1)
        handle.write("\n")


def load_artifact(path) -> _Result:
    """Load a persisted run of any axis, dispatching on its ``kind``.

    Declarative populations, registry schemes and inlined or resolvable
    traces are rebuilt, so the spec can be *re-run*; everything else
    comes back as a render-only placeholder whose totals still re-render
    (and still prime a cache).
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(
            f"{path}: artifact must be a JSON object, got "
            f"{type(payload).__name__}")
    if payload.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"{path}: not a {ARTIFACT_FORMAT} artifact "
            f"(format={payload.get('format')!r})")
    kind = payload.get("kind", "experiment")
    if kind not in _ARTIFACT_KINDS:
        raise ValueError(f"{path}: unknown artifact kind {kind!r}")
    entry = _ARTIFACT_KINDS[kind]
    codec = RECORD_CODECS[entry.codec]
    extra = ({"point_keys": dict(payload.get("point_keys", {}))}
             if kind == "replay" else {})
    return entry.result_type(
        spec=entry.spec_from_json(payload["spec"]),
        totals={key: codec.decode(record)
                for key, record in payload.get("totals", {}).items()},
        provenance=dict(payload.get("provenance", {}), loaded_from=str(path)),
        **{entry.output: payload[entry.output]}, **extra)
