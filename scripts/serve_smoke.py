"""End-to-end smoke test for the serving stack, run by CI.

Fits a tiny CPGAN, stands up the real HTTP server on an ephemeral port,
and round-trips the public API: ``POST /generate`` must return a
well-formed graph payload, a repeated request must be served from the
sample cache with identical edges, and ``GET /models`` / ``/metrics`` /
``/healthz`` must all answer 200.  A keep-alive pass then sends ten requests
back to back over one HTTP/1.1 connection: each response must be complete,
and a repeated seed must return the identical graph.  Exits non-zero on the
first violation.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
import urllib.request
from pathlib import Path

from repro.core import CPGAN, CPGANConfig, save_model
from repro.datasets import load
from repro.serve import GenerationService, ModelRegistry, build_server


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def get(base: str, path: str) -> tuple[int, dict]:
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def post(base: str, path: str, payload: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read().decode())


def keep_alive_pass(port: int, expected_nodes: int) -> None:
    """Ten back-to-back requests, some seeds repeated, over one connection."""
    seeds = [2, 3, 2, 4, 3, 2, 5, 4, 2, 3]
    first: dict[int, list] = {}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for index, seed in enumerate(seeds):
            conn.request(
                "POST",
                "/generate",
                json.dumps({"model": "citeseer", "seed": seed}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw = response.read()
            length = int(response.getheader("Content-Length", "-1"))
            check(
                response.status == 200 and len(raw) == length,
                f"keep-alive request {index} (seed {seed}) is complete",
            )
            payload = json.loads(raw.decode())
            check(
                payload["num_nodes"] == expected_nodes
                and payload["num_edges"] == len(payload["edges"]) > 0,
                f"keep-alive request {index} carries a whole graph",
            )
            if seed in first:
                check(
                    payload["cache_hit"] and payload["edges"] == first[seed],
                    f"repeated seed {seed} returns the identical graph",
                )
            else:
                first[seed] = payload["edges"]
    finally:
        conn.close()


def main() -> int:
    print("fitting a tiny model ...")
    graph = load("citeseer", scale=0.02, seed=0).graph
    model = CPGAN(CPGANConfig(epochs=2, seed=0)).fit(graph)

    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "citeseer.npz"
        save_model(model, archive)

        registry = ModelRegistry()
        registry.register("citeseer", archive)
        service = GenerationService(registry, workers=2, queue_size=16)
        server = build_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        service.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        print(f"serving on {base}")
        try:
            status, health = get(base, "/healthz")
            check(status == 200 and health["status"] == "ok", "/healthz is ok")

            status, models = get(base, "/models")
            check(status == 200, "/models answers 200")
            check(
                models["models"][0]["name"] == "citeseer",
                "/models lists the registered model",
            )

            status, payload = post(
                base, "/generate", {"model": "citeseer", "seed": 1}
            )
            check(status == 200, "/generate answers 200")
            check(
                payload["num_nodes"] == graph.num_nodes,
                "generated graph has the fitted node count",
            )
            check(
                payload["num_edges"] == len(payload["edges"]) > 0,
                "edge list is non-empty and consistent with num_edges",
            )
            check(
                all(
                    len(edge) == 2
                    and 0 <= edge[0] < payload["num_nodes"]
                    and 0 <= edge[1] < payload["num_nodes"]
                    for edge in payload["edges"]
                ),
                "every edge is a valid node pair",
            )

            status, repeat = post(
                base, "/generate", {"model": "citeseer", "seed": 1}
            )
            check(status == 200 and repeat["cache_hit"], "repeat is a cache hit")
            check(
                repeat["edges"] == payload["edges"],
                "repeat request returns identical edges",
            )

            keep_alive_pass(server.server_address[1], graph.num_nodes)

            status, metrics = get(base, "/metrics")
            check(status == 200, "/metrics answers 200")
            check(
                metrics["requests"]["completed"] >= 1
                and metrics["cache"]["hits"] >= 1,
                "metrics reflect the served requests",
            )
        finally:
            server.shutdown()
            server.server_close()
            service.stop(drain=False)
            thread.join(timeout=5)

    print("serve smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
