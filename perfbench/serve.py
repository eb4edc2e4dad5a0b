"""Launch ``repro serve``, optionally with the benchmark's layer spans.

Usage (from the root of a checkout)::

    python3 perfbench/serve.py [--spans=PATH] serve --port 0 --cache-dir DIR

Everything after the optional ``--spans=PATH`` is passed to the repro CLI
unchanged.  With ``--spans``, every layer boundary of
:data:`tracer.TARGETS` is wrapped before the CLI starts; a request may
carry a ``bench_op`` member naming the benchmark op it belongs to, which
is removed before :meth:`ExperimentService.handle` sees the request.  On
SIGTERM the daemon shuts down and the spans are written to PATH as JSON.
"""

from __future__ import annotations

import json
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path = None
    if argv and argv[0].startswith("--spans="):
        spans_path = argv[0].split("=", 1)[1]
        argv = argv[1:]
    signal.signal(signal.SIGTERM, _interrupt)

    from repro import cli
    from repro.service.daemon import ExperimentService

    tracer = None
    if spans_path:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        traced_handle = ExperimentService.handle

        def handle(self, request):
            if isinstance(request, dict) and "bench_op" in request:
                request = dict(request)
                tracer.op = int(request.pop("bench_op"))
            else:
                tracer.op = 0
            return traced_handle(self, request)

        ExperimentService.handle = handle
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            with open(spans_path, "w", encoding="utf-8") as handle_file:
                json.dump(tracer.spans, handle_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
