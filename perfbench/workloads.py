"""The three benchmark workloads: inputs, one op, and the output checks.

All are closed loops with one client: the next op starts when the last
one has finished.  Each workload derives every input from the run's seed.

A run measures whole blocks of ``BLOCK_OPS`` ops.  ``next_input`` draws
the next op's input and ``run_op`` runs it, returning ``(output, info)``;
``info`` holds ``lines`` (input payload in 64-byte write-transaction
units, for ``tx_per_s``) and either ``queries``, a list of ``(kind,
seconds)``, or the ``kind`` of the whole op.  A kind is ``"hit"``
(answered from an activity cache) or ``"miss"`` (computed), for
``hit_p50_ms`` and ``miss_p50_ms``.  ``check`` maps the op records of a
run to one list of problems per op; ``self_test`` damages a copy of one
op's output and returns the problems the same checks find in it (there
must be some).  ``HOST_SCALED`` says whether the run scales the
workload's end-to-end times to the reference host (``run.HostSpeed``).
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy  # noqa: F401 - the workloads are NumPy-backed, fail early

from repro.analysis.artifacts import canonical_artifact_json
from repro.core.vectorized import resolve_backend
from repro.ctrl.controller import MemoryController
from repro.hw import synthesis
from repro.phy.pod import pod135
from repro.phy.power import GBPS, PICOFARAD, InterfaceEnergyModel
from repro.service.client import ServiceClient
from repro.service.daemon import (
    replay_spec_from_params,
    sweep_spec_from_params,
)
from repro.sim.experiments import (
    ActivityCache,
    alpha_experiment,
    load_experiment,
    rate_experiment,
    replay_result_to_json,
    result_to_json,
    run_experiment,
    run_replay,
)
from repro.workloads.population import RandomPopulation
from repro.workloads.source import SyntheticTraceSource

LINE_BYTES = 64
BURST_BYTES = 8
MIB = 1 << 20


def _lines(n_bytes: int) -> int:
    return -(-n_bytes // LINE_BYTES)


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _envelope_problems(label: str, series: Dict[str, List[float]]
                       ) -> List[str]:
    """The tracking OPT series must not exceed any other series anywhere."""
    problems = []
    opt = series["dbi-opt"]
    for name, values in series.items():
        if name == "dbi-opt":
            continue
        for index, (best, other) in enumerate(zip(opt, values)):
            if best > other * (1 + 1e-12):
                problems.append(f"{label}: dbi-opt {best!r} > {name} "
                                f"{other!r} at cell {index}")
    return problems


class PaperRepro:
    """Each op regenerates Figs. 3/4, 7 and 8 and Table I for one seed.

    Figures come from a 10k-burst population; Table I synthesises every
    design on a 100k-burst population (``table_one()`` is cached, so it
    would run only once).  A fresh ActivityCache per op means Figs. 3/4
    and 7 encode (misses) while Fig. 8 prices the totals Figs. 3/4 left
    in the cache (a hit).
    """

    name = "paper_repro"
    BLOCK_OPS = 1
    HOST_SCALED = True
    FIGURE_BURSTS = 10_000
    TABLE_BURSTS = 100_000

    def __init__(self, root: str, tmp: str, seed: int) -> None:
        self.root = root
        self.rng = random.Random(seed)
        self.interface = pod135()
        self.designs = synthesis._design_specs()

    def setup(self) -> None:
        pass

    def next_input(self) -> int:
        return self.rng.randrange(1 << 31)

    def run_op(self, seed: int, op_id: int):
        figures = RandomPopulation(count=self.FIGURE_BURSTS, seed=seed)
        table_population = RandomPopulation(count=self.TABLE_BURSTS,
                                            seed=seed ^ 0x5A5A5A)
        cache = ActivityCache()
        queries = []

        start = time.perf_counter()
        fig34 = run_experiment(alpha_experiment(figures, include_fixed=True),
                               cache=cache)
        queries.append(("miss", time.perf_counter() - start))
        start = time.perf_counter()
        fig7 = run_experiment(rate_experiment(
            figures, interface=self.interface,
            c_load_farads=3 * PICOFARAD), cache=cache)
        queries.append(("miss", time.perf_counter() - start))
        table = {name: synthesis.synthesize(spec, population=table_population)
                 for name, spec in self.designs.items()}
        energies = {name: row.energy_per_burst_j
                    for name, row in table.items()}
        energies["raw"] = 0.0
        start = time.perf_counter()
        fig8 = run_experiment(load_experiment(
            figures, interface=self.interface, encoder_energy_j=energies),
            cache=cache)
        queries.append(("hit" if fig8.provenance["encodes"] == 0 else "miss",
                        time.perf_counter() - start))
        output = {"fig34": fig34.series, "fig7": fig7.series,
                  "fig8": fig8.series, "table1": energies}
        lines = _lines((self.FIGURE_BURSTS + self.TABLE_BURSTS) * BURST_BYTES)
        return output, {"lines": lines, "queries": queries}

    def check_output(self, output) -> List[str]:
        problems = (_envelope_problems("fig3/4", output["fig34"])
                    + _envelope_problems("fig7", output["fig7"]))
        if not all(value > 0 for name, value in output["table1"].items()
                   if name != "raw"):
            problems.append("table1: non-positive encoder energy")
        return problems

    def _golden_problems(self) -> List[str]:
        """Re-derive the seeded golden Fig. 3/8 snapshots (read-only)."""
        path = os.path.join(self.root, "tests", "integration", "golden",
                            "regenerate.py")
        spec = importlib.util.spec_from_file_location("golden_regenerate",
                                                      path)
        golden = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(golden)
        problems = []
        for name, build, key in (("fig3_alpha_sweep", golden.fig3_snapshot,
                                  "series"),
                                 ("fig8_load_sweep", golden.fig8_snapshot,
                                  "normalized")):
            with open(os.path.join(golden.GOLDEN_DIR, f"{name}.json"),
                      encoding="utf-8") as handle:
                expected = json.load(handle)[key]
            got = build()[key]
            if set(got) != set(expected):
                problems.append(f"{name}: series names differ")
                continue
            for series, values in expected.items():
                if len(got[series]) != len(values) or any(
                        abs(a - b) > 1e-12 * abs(b)
                        for a, b in zip(got[series], values)):
                    problems.append(f"{name}: {series} differs from golden")
        return problems

    def check(self, records) -> List[List[str]]:
        run_problems = self._golden_problems()
        return [run_problems + self.check_output(record.output)
                for record in records]

    def self_test(self, records) -> List[str]:
        output = copy.deepcopy(records[0].output)
        output["fig34"]["dbi-opt"][3] = output["fig34"]["dbi-dc"][3] * 1.001
        return self.check_output(output)

    def peak_rss_mib(self) -> float:
        return _max_rss_mib()

    def close(self) -> None:
        pass


class TraceReplay:
    """Each op streams one fresh-seeded 1 MiB synthetic trace, in 256 KiB
    chunks, through the 16-channel x 8-lane write path (window 16),
    priced for POD135 at 12 Gb/s and 3 pF.

    The checks exercise the encoder state carried across chunk seams,
    which a chunk-invariant encoder must not let show in the tallies: a
    prefix of every trace is replayed in ragged 1000-byte chunks on both
    backends, and every :attr:`FULL_EVERY`-th op's own tallies are
    compared with a one-chunk vector replay of its whole trace.
    """

    name = "trace_replay"
    BLOCK_OPS = 1
    HOST_SCALED = True
    TRACE_BYTES = 1 * MIB
    #: Four chunks per trace, so every op crosses chunk seams.
    CHUNK_BYTES = 256 * 1024
    PREFIX_BYTES = 8 * 1024
    #: Not a multiple of the 64-byte line, so seams fall inside lines.
    PREFIX_CHUNK_BYTES = 1000
    #: Every n-th op's whole trace is replayed again (first op included).
    FULL_EVERY = 8
    CHANNELS = 16
    LANES = 8
    WINDOW = 16

    def __init__(self, root: str, tmp: str, seed: int) -> None:
        self.rng = random.Random(seed)
        self.model = InterfaceEnergyModel(pod135(), 12 * GBPS,
                                          3 * PICOFARAD).cost_model()

    def setup(self) -> None:
        pass

    def next_input(self) -> int:
        return self.rng.randrange(1 << 31)

    def _replay(self, n_bytes: int, seed: int, chunk_bytes: int,
                backend: Optional[str] = None):
        controller = MemoryController(channels=self.CHANNELS,
                                      byte_lanes=self.LANES,
                                      model=self.model, window=self.WINDOW,
                                      backend=backend)
        controller.submit_source(SyntheticTraceSource(
            n_bytes, seed=seed, chunk_bytes=chunk_bytes))
        return controller.flush()

    def run_op(self, seed: int, op_id: int):
        stats = self._replay(self.TRACE_BYTES, seed, self.CHUNK_BYTES)
        output = {"seed": seed, "transactions": stats.transactions,
                  "bytes_written": stats.bytes_written,
                  "tallies": (stats.zeros, stats.transitions, stats.beats)}
        return output, {"lines": _lines(self.TRACE_BYTES), "kind": "miss"}

    def check_output(self, output, full: bool) -> List[str]:
        problems = []
        if output["bytes_written"] != self.TRACE_BYTES:
            problems.append(f"bytes_written {output['bytes_written']} != "
                            f"trace size {self.TRACE_BYTES}")
        if output["transactions"] != _lines(self.TRACE_BYTES):
            problems.append(f"{output['transactions']} transactions for a "
                            f"{self.TRACE_BYTES}-byte trace")
        prefix = []
        for backend in ("reference", "vector"):
            stats = self._replay(self.PREFIX_BYTES, output["seed"],
                                 self.PREFIX_CHUNK_BYTES, backend=backend)
            prefix.append((stats.zeros, stats.transitions, stats.beats))
        if prefix[0] != prefix[1]:
            problems.append(f"prefix replay: reference {prefix[0]} != "
                            f"vector {prefix[1]}")
        if full:
            stats = self._replay(self.TRACE_BYTES, output["seed"],
                                 self.TRACE_BYTES, backend="vector")
            whole = (stats.zeros, stats.transitions, stats.beats)
            if tuple(output["tallies"]) != whole:
                problems.append(f"op tallies {tuple(output['tallies'])} != "
                                f"one-chunk replay {whole}")
        return problems

    def check(self, records) -> List[List[str]]:
        return [self.check_output(record.output,
                                  full=index % self.FULL_EVERY == 0)
                for index, record in enumerate(records)]

    def self_test(self, records) -> List[str]:
        output = copy.deepcopy(records[0].output)
        zeros, transitions, beats = output["tallies"]
        output["tallies"] = (zeros + 1, transitions, beats)
        return self.check_output(output, full=True)

    def peak_rss_mib(self) -> float:
        return _max_rss_mib()

    def close(self) -> None:
        pass


#: The daemon prints this once it is bound (see ``repro serve``).
LISTENING_RE = re.compile(r"listening on (\S+):(\d+)")


class Daemon:
    """One ``repro serve`` subprocess started through ``serve.py``."""

    def __init__(self, root: str, cache_dir: str, log_path: str,
                 spans_path: Optional[str] = None) -> None:
        launcher = [sys.executable, os.path.join(root, "perfbench",
                                                 "serve.py")]
        if spans_path:
            launcher.append(f"--spans={spans_path}")
        self.spans_path = spans_path
        self.log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            launcher + ["serve", "--host", "127.0.0.1", "--port", "0",
                        "--cache-dir", cache_dir],
            cwd=root, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1"))
        line = self.process.stdout.readline()
        match = LISTENING_RE.search(line)
        if not match:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def vm_hwm_mib(self) -> float:
        with open(f"/proc/{self.process.pid}/status",
                  encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> List[list]:
        """Stop the daemon, wait for it, and return its spans (if traced)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()
        if self.spans_path and os.path.exists(self.spans_path):
            with open(self.spans_path, encoding="utf-8") as handle:
                return json.load(handle)
        return []


class ServiceMix:
    """One client connection to a ``repro serve`` daemon with a fresh
    disk cache: 70% repeat sweeps of a popular set warmed in set-up
    (cache reads), 17% new-seed sweeps (encode + disk store) and 13%
    new-seed replays at the daemon's default 2ch x 4lane geometry.

    The mix is exact in every block of :attr:`BLOCK_OPS` ops (each
    popular query 7 times, 10 new sweeps, 8 replays; order shuffled by
    the seed) and a run measures whole blocks, so every run measures the
    same kinds of op.  The kinds differ in cost by up to 5x, so the
    proportions put ``miss_p50_ms`` inside the rate-sweep misses and the
    p90 inside the replays rather than on a boundary between two kinds,
    where a percentile would jump between runs.
    """

    name = "service_mix"
    #: Client latency here is mostly transport, which does not follow the
    #: CPU calibration of ``run.HostSpeed``: report it as measured.
    HOST_SCALED = False
    SAMPLES = 2000
    FIGURES = ("alpha", "rate", "load")
    NEW_SWEEPS = ("alpha",) * 4 + ("rate",) * 3 + ("load",) * 3
    BLOCK_OPS = 60
    #: Every n-th new-seed response is also recomputed in-process.
    DIRECT_EVERY = 4

    def __init__(self, root: str, tmp: str, seed: int) -> None:
        self.root = root
        self.tmp = tmp
        self.rng = random.Random(seed)
        seeds = self.rng.sample(range(1 << 30), 2)
        self.popular = [{"figure": figure, "samples": self.SAMPLES,
                         "seed": popular_seed}
                        for popular_seed in seeds for figure in self.FIGURES]
        self._fresh = set(seeds)
        self._block: List[tuple] = []
        self.daemons = 0
        self.daemon: Optional[Daemon] = None
        self.client: Optional[ServiceClient] = None
        self.tag_ops = False
        self.hwm_mib = 0.0
        self._popular_direct: Dict[str, str] = {}

    def start(self, spans_path: Optional[str] = None) -> None:
        """Daemon start to first ping, then warm the popular set."""
        self.daemons += 1
        base = os.path.join(self.tmp, f"daemon{self.daemons}")
        os.makedirs(base)
        self.daemon = Daemon(self.root, os.path.join(base, "cache"),
                             os.path.join(base, "daemon.log"), spans_path)
        self.client = ServiceClient(self.daemon.host, self.daemon.port)
        self.client.ping()
        for params in self.popular:
            self.client.sweep(**params)

    def stop(self) -> List[list]:
        if self.daemon is None:
            return []
        self.peak_rss_mib()
        self.client.close()
        spans = self.daemon.stop()
        self.daemon = self.client = None
        return spans

    def setup(self) -> None:
        self.start()

    def _new_seed(self) -> int:
        while True:
            seed = self.rng.randrange(1 << 30)
            if seed not in self._fresh:
                self._fresh.add(seed)
                return seed

    def next_input(self):
        if not self._block:
            self._block = ([("hit", params) for params in self.popular] * 7
                           + [("miss", figure) for figure in self.NEW_SWEEPS]
                           + [("replay", None)] * 8)
            self.rng.shuffle(self._block)
        kind, what = self._block.pop()
        if kind == "hit":
            return kind, dict(what)
        if kind == "miss":
            return kind, {"figure": what, "samples": self.SAMPLES,
                          "seed": self._new_seed()}
        return kind, {"bursts": self.SAMPLES, "seed": self._new_seed()}

    def run_op(self, query, op_id: int):
        kind, params = query
        request = dict(params, bench_op=op_id) if self.tag_ops else params
        call = self.client.replay if kind == "replay" else self.client.sweep
        artifact = call(**request)
        output = {"kind": kind, "params": params, "artifact": artifact}
        return output, {"lines": _lines(self.SAMPLES * BURST_BYTES),
                        "kind": "hit" if kind == "hit" else "miss"}

    @staticmethod
    def _direct(kind: str, params) -> str:
        if kind == "replay":
            result = replay_result_to_json(run_replay(
                replay_spec_from_params(params)))
        else:
            result = result_to_json(run_experiment(
                sweep_spec_from_params(params)))
        return canonical_artifact_json(result)

    def check_output(self, output, direct: Optional[str]) -> List[str]:
        problems = []
        provenance = output["artifact"]["provenance"]
        computed = provenance.get("encodes", provenance.get("replays", 0))
        if (computed == 0) != (output["kind"] == "hit"):
            problems.append(f"{output['kind']} query ran {computed} "
                            "encodes/replays")
        if (direct is not None
                and canonical_artifact_json(output["artifact"]) != direct):
            problems.append(f"{output['kind']} response differs from the "
                            "direct in-process result")
        return problems

    def check(self, records) -> List[List[str]]:
        popular = {json.dumps(params, sort_keys=True):
                   self._direct("hit", params) for params in self.popular}
        problems = []
        fresh = 0
        for record in records:
            output = record.output
            if output["kind"] == "hit":
                direct = popular[json.dumps(output["params"], sort_keys=True)]
            else:
                fresh += 1
                direct = (self._direct(output["kind"], output["params"])
                          if fresh % self.DIRECT_EVERY == 1 else None)
            problems.append(self.check_output(output, direct))
        self._popular_direct = popular
        return problems

    def self_test(self, records) -> List[str]:
        output = copy.deepcopy(next(record.output for record in records
                                    if record.output["kind"] == "hit"))
        series = output["artifact"]["series"]
        series[sorted(series)[0]][0] *= 1.001
        direct = self._popular_direct[json.dumps(output["params"],
                                                 sort_keys=True)]
        return self.check_output(output, direct)

    def peak_rss_mib(self) -> float:
        """The daemon's peak RSS (VmHWM), over every daemon of the run."""
        if self.daemon is not None:
            self.hwm_mib = max(self.hwm_mib, self.daemon.vm_hwm_mib())
        return self.hwm_mib

    def close(self) -> None:
        self.stop()


WORKLOADS = {workload.name: workload
             for workload in (PaperRepro, TraceReplay, ServiceMix)}


def provenance() -> Dict[str, object]:
    """Resolved encoder backend and bitsim word implementation."""
    from repro.hw.bitsim import resolve_word_impl

    return {"encoder_backend": resolve_backend("auto"),
            "word_impl": resolve_word_impl("auto")}
