"""Serve subprocess of the serve-replay workload.

Loads a compiled LAD tree and one day's fpDNS-v2 digest, builds the
engine with ``ClassificationEngine.from_digest`` and the daemon with
``build_server(ServeSettings(port=0), engine=...)`` so every serving
default is the daemon's own.  Prints ``{"port": N}`` once bound, serves
until its stdin closes, then prints ``{"pid", "ru_maxrss_kb", "spans"}``
and exits.  With ``--trace 1`` each ``classify_batch`` call is recorded
as a ``service.engine.batch`` span (wrapped before the server captures
the method)::

    python bench/serve_main.py --model M --digest D [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
from pathlib import Path
from typing import List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from repro.core.classifier.persistence import load_compiled_lad_tree  # noqa
from repro.core.interning import digest_of  # noqa: E402
from repro.pdns.columnar import load_fpdns2  # noqa: E402
from repro.service.app import ServeSettings, build_server  # noqa: E402
from repro.service.engine import ClassificationEngine, Verdict  # noqa: E402

from spans import Tracer  # noqa: E402


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--digest", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    settings = ServeSettings(port=0)
    engine = ClassificationEngine.from_digest(
        digest_of(load_fpdns2(args.digest)),
        load_compiled_lad_tree(args.model),
        config=settings.engine_config())
    tracer = Tracer(bool(args.trace))
    if tracer.enabled:
        classify = engine.classify_batch

        def timed(qnames: Sequence[str]) -> List[Verdict]:
            with tracer.span("service.engine.batch"):
                return classify(qnames)

        engine.classify_batch = timed
    server = build_server(settings, engine=engine)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        sys.stdin.read()        # the client closes stdin to stop us
    finally:
        server.close()
        thread.join(timeout=10)
    print(json.dumps({
        "pid": os.getpid(),
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [span.to_row() for span in tracer.spans()],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
