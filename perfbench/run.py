"""Repository benchmark: three workloads, end-to-end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_repro --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``paper_repro``,
``trace_replay`` and ``service_mix``.  Each run is a closed loop with one
client for ``--seconds`` seconds; all inputs derive from ``--seed``.

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics; on the CPU-bound workloads (``paper_repro``, ``trace_replay``)
op times and rates are scaled to a reference host speed (see
:class:`HostSpeed`), while ``service_mix`` and ``setup_s`` are reported
as measured.  ``--trace 1`` runs the loop twice for
``--seconds / 2`` each, untraced and then with every layer boundary of
``tracer.TARGETS`` wrapped, and reports the per-layer metrics; the spans
are written to ``.perfbench_out/`` when the run ends.

Every op's output is checked after the timed loop.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any check fails and 2
when the checkout holds no ``src/repro`` to benchmark.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment variables that would redirect caches, artifacts or the
#: backend of the program under test.
CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_BENCH_ARTIFACT_DIR", "REPRO_BACKEND")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Run leftovers, excluded from the unchanged-checkout check.
TMP_DIR = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"
IGNORED_DIRS = {".git", "__pycache__", TMP_DIR, OUT_DIR}

#: Seconds of measuring between two host-speed calibration samples.
CALIBRATION_EVERY_S = 0.25

#: Median time of one calibration sample on the reference host (the
#: 2-core VM this benchmark was tuned on, in a calm period).
REFERENCE_CALIBRATION_S = 0.0065

#: name -> unit of the end-to-end metrics (``--trace 0``).
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "tx_per_s": "1/s",
    "hit_p50_ms": "ms",
    "miss_p50_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_fraction": "fraction",
}


@dataclass
class Record:
    """One op of the closed loop."""

    op_id: int
    latency_s: float
    output: object
    info: Optional[dict]
    error: Optional[str]


class HostSpeed:
    """Calibration of the host's current speed, sampled between ops.

    The shared host this benchmark runs on changes speed by up to 60%
    within minutes (other tenants), which no amount of work per run
    averages out.  A fixed mix of interpreter and NumPy work that does
    not touch the program under test (chosen because its time tracked
    the CPU-bound workloads' time most closely over such swings) is
    timed every :data:`CALIBRATION_EVERY_S` of the run; its median over
    the run, divided by :data:`REFERENCE_CALIBRATION_S`, is the host
    factor by which the op times and rates of a workload with
    ``HOST_SCALED`` are scaled to the reference host.  Set-up time is
    measured in other processes, before the run, and is not scaled (a
    short calibration next to each set-up did not follow its time).  The
    unscaled values and the factor are printed in the provenance line.
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._small = rng.integers(0, 256, size=(128, 16), dtype=numpy.uint8)
        self._wide = rng.integers(0, 256, size=(4096, 64), dtype=numpy.uint8)
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time many small-array NumPy calls (call overhead, as in the
        trellis rounds), a few wide ones and a pure-interpreter loop."""
        if time.perf_counter() - self._last < CALIBRATION_EVERY_S:
            return
        start = time.perf_counter()
        for words, rounds in ((self._small, 400), (self._wide, 15)):
            for __ in range(rounds):
                words = words ^ (words >> 1)
                int(words.sum())
        value = 0
        for step in range(20000):
            value = (value + step * step) & 0xFFFF
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_CALIBRATION_S


def to_reference_host(metrics: Dict[str, float], factor: float
                      ) -> Dict[str, float]:
    """Op times divided and rates multiplied by the host factor
    (``setup_s``, unit ``s``, is left as measured)."""
    scale = {"ms": 1 / factor, "1/s": factor}
    return {name: value * scale.get(END_TO_END_UNITS[name], 1.0)
            for name, value in metrics.items()}


def checkout_digest() -> Dict[str, str]:
    """sha256 of every file of the checkout outside run leftovers."""
    digests = {}
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [name for name in subdirs if name not in IGNORED_DIRS]
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, ROOT)] = hashlib.sha256(
                    handle.read()).hexdigest()
    return digests


def host_fingerprint() -> Dict[str, object]:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics`` inclusive method)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def measure(workload, seconds: float, first_op: int, tracer=None,
            host: Optional[HostSpeed] = None) -> List[Record]:
    """Closed loop: run ops back to back until *seconds* have passed and
    the workload's last block of ops is complete.  *host* is sampled
    between ops, outside their latency."""
    records: List[Record] = []
    deadline = time.perf_counter() + seconds
    while (not records or len(records) % workload.BLOCK_OPS
           or time.perf_counter() < deadline):
        op_id = first_op + len(records)
        if host is not None:
            host.sample()
        query = workload.next_input()
        if tracer is not None:
            tracer.op = op_id
            span = tracer.begin("op")
        start = time.perf_counter()
        output = info = error = None
        try:
            output, info = workload.run_op(query, op_id)
        except Exception:  # an op that fails is counted, the loop goes on
            error = traceback.format_exc()
            print(f"op {op_id} failed:\n{error}", file=sys.stderr)
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
            tracer.op = 0
        records.append(Record(op_id, latency, output, info, error))
    return records


def queries(record: Record):
    """(kind, seconds) of the queries an op made; one per op by default."""
    if "queries" in record.info:
        return record.info["queries"]
    return [(record.info["kind"], record.latency_s)]


def throughput(records: List[Record]) -> float:
    return len(records) / sum(record.latency_s for record in records)


def end_to_end(records: List[Record], workload, setup_s: float,
               failed: int) -> Dict[str, float]:
    latencies = [record.latency_s for record in records]
    busy = sum(latencies)
    by_kind = {"hit": [], "miss": []}
    for record in records:
        if record.info is None:
            continue
        for kind, seconds in queries(record):
            by_kind[kind].append(seconds)
    # A workload with no cache on its path computes every op: its hit
    # median falls back to the median of all ops.
    hits = by_kind["hit"] or latencies
    return {
        "ops_per_s": len(records) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "tx_per_s": sum(record.info["lines"] for record in records
                        if record.info) / busy,
        "hit_p50_ms": statistics.median(hits) * 1e3,
        "miss_p50_ms": statistics.median(by_kind["miss"]) * 1e3,
        "peak_rss_mib": workload.peak_rss_mib(),
        "setup_s": setup_s,
        "ok_fraction": 1 - failed / len(records),
    }


def setup_seconds(args) -> float:
    """Median wall time of set-up in fresh interpreters (imports included)."""
    times = []
    for __ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if completed.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{completed.stderr}")
        times.append(float(completed.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def graft_daemon_spans(client_spans: List[list], daemon_spans: List[list]
                       ) -> List[list]:
    """Hang each daemon-side root span under the client request of its op."""
    request_of = {span[5]: span[0] for span in client_spans
                  if span[1] == "service.request" and span[5]}
    offset = 1 + max((span[0] for span in client_spans), default=0)
    grafted = []
    for span in daemon_spans:
        span = list(span)
        span[0] += offset
        span[4] = span[4] + offset if span[4] else request_of.get(span[5], 0)
        if span[5] and not span[4]:
            raise ValueError(f"daemon span {span[1]} of op {span[5]} has "
                             "no client request")
        grafted.append(span)
    return client_spans + grafted


def run_traced(args, workload, seconds: float):
    """Untraced then traced halves; returns (records, per-layer metrics)."""
    import tracer as tracing

    service = hasattr(workload, "start")
    hosts = HostSpeed(), HostSpeed()
    plain = measure(workload, seconds / 2, first_op=1, host=hosts[0])
    recorder = tracing.Tracer()
    tracing.install(recorder)
    spans_path = None
    if service:
        workload.stop()
        spans_path = os.path.join(args.tmp, "daemon-spans.json")
        workload.start(spans_path=spans_path)
        workload.tag_ops = True
    traced = measure(workload, seconds / 2, first_op=len(plain) + 1,
                     tracer=recorder, host=hosts[1])
    spans = recorder.spans
    if service:
        spans = graft_daemon_spans(spans, workload.stop())
    overhead = 1 - ((throughput(traced) * hosts[1].factor())
                    / (throughput(plain) * hosts[0].factor()))
    metrics = tracing.layer_metrics(spans, overhead)
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    with open(os.path.join(ROOT, OUT_DIR, f"spans-{args.workload}-seed"
                           f"{args.seed}.json"), "w", encoding="utf-8") as out:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op",
                              "counts"], "spans": spans}, out)
    return plain + traced, metrics


def run(args) -> dict:
    import workloads

    workload_type = workloads.WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(args)
    workload = workload_type(ROOT, args.tmp, args.seed)
    try:
        workload.setup()
        if args.trace:
            records, metrics = run_traced(args, workload, args.seconds)
            units = {name: unit_of(name) for name in metrics}
        else:
            host = HostSpeed()
            records = measure(workload, args.seconds, first_op=1, host=host)
            metrics = units = None
        ok = [record for record in records if record.error is None]
        problems = workload.check(ok) if ok else []
        failed = len(records) - len(ok) + sum(1 for found in problems
                                              if found)
        for record, found in zip(ok, problems):
            for problem in found:
                print(f"op {record.op_id}: {problem}", file=sys.stderr)
        self_test = workload.self_test(ok) if ok else ["no op succeeded"]
        if not self_test:
            print("self-test: a corrupted output passed the checks",
                  file=sys.stderr)
        if metrics is None:
            measured = end_to_end(records, workload, setup_s, failed)
            metrics = (to_reference_host(measured, host.factor())
                       if workload.HOST_SCALED else measured)
            units = END_TO_END_UNITS
    finally:
        workload.close()
    counts: Dict[str, int] = {}
    for record in records:
        if record.info is not None:
            for kind, __ in queries(record):
                counts[kind] = counts.get(kind, 0) + 1
    provenance = dict(host_fingerprint(), **workloads.provenance(),
                      workload=args.workload, seed=args.seed,
                      trace=args.trace, ops=len(records),
                      query_samples=counts)
    if not args.trace:
        provenance.update(host_factor=host.factor(),
                          host_scaled=workload_type.HOST_SCALED,
                          calibration_samples=len(host.samples),
                          unscaled_metrics=measured)
    return {"correct": failed == 0 and bool(self_test),
            "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "provenance": provenance}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "fraction"
    return "1/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_repro", "trace_replay",
                                 "service_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to benchmark: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so the daemon is stopped and temp dirs go.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = SRC
    sys.path[:0] = [SRC, HERE]
    args.tmp = os.path.join(ROOT, TMP_DIR, f"run-{os.getpid()}")
    os.makedirs(args.tmp)
    try:
        if args.setup_probe:
            import workloads

            workload = workloads.WORKLOADS[args.workload](ROOT, args.tmp,
                                                          args.seed)
            workload.setup()
            elapsed = time.perf_counter() - _PROCESS_START
            workload.close()
            print(repr(elapsed))
            return 0
        before = checkout_digest()
        result = run(args)
    finally:
        shutil.rmtree(args.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, TMP_DIR))
        except OSError:
            pass
    after = checkout_digest()
    changed = sorted(path for path in set(before) | set(after)
                     if before.get(path) != after.get(path))
    if changed:
        print(f"the run changed checkout files: {changed}", file=sys.stderr)
        result["correct"] = False
    provenance = result.pop("provenance")
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
