"""The serving process of ``serve_mixed``: ``repro.serve`` over HTTP.

Mirrors ``repro serve`` with its ``autosize_serving`` defaults (process
mode on a multi-core host) on an ephemeral localhost port.  It prints
``READY <port>`` once the socket is bound and the worker pool started,
serves until its stdin closes, then stops the pool and writes its result:
the peak RSS of the serving process tree and, when traced, its spans.

Usage: ``python server.py <args.json>`` (written by ``serve_mixed.py``).
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import common
import tracing


def main(args: dict) -> None:
    from repro.serve import (
        GenerationService,
        ModelRegistry,
        autosize_serving,
        build_server,
    )

    recorder = tracing.Recorder()
    if args["trace"]:
        tracing.install(recorder, tracing.SERVICE_LAYERS)
        tracing.install_http(recorder)
    registry = ModelRegistry()
    registry.register("standin", args["archive"])
    sizing = autosize_serving()
    service = GenerationService(
        registry,
        workers=sizing["workers"],
        generation_threads=sizing["generation_threads"],
        worker_processes=sizing["worker_processes"],
    )
    server = build_server(service, "127.0.0.1", 0)
    service.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        service.stop(drain=False)
        thread.join(timeout=10)
    Path(args["result"]).write_text(
        json.dumps({"peak_rss_mb": common.peak_rss_mb(), "spans": recorder.spans})
    )


if __name__ == "__main__":
    main(json.loads(Path(sys.argv[1]).read_text()))
