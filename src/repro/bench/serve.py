"""Closed-loop load harness for the serving subsystem (``repro.serve``).

``run_serve_bench`` stands up the full serving stack — a fitted CPGAN
archive, the :class:`~repro.serve.ModelRegistry`, the worker-pool
:class:`~repro.serve.GenerationService`, and the real HTTP server on an
ephemeral localhost port — then drives it with ``clients`` concurrent
closed-loop clients (each issues its next request the moment the previous
one completes), each over one keep-alive HTTP/1.1 connection, as a real
client would hold one.  Per-request wall-clock latencies are
collected client-side; the result document records throughput and
p50/p95/p99 latency, each also *normalized* by the same matmul calibration
the hot-path harness uses, so the committed ``BENCH_serve.json`` baseline
is comparable across machines.

Seeds cycle through ``unique_seeds`` values, so the run exercises both the
cold generation path and the LRU sample cache; a 503 backpressure response
is honoured by waiting the server's ``Retry-After`` hint and retrying (the
closed loop never drops a request).  All clients hammer one model, so the
run is the same-model hot scenario the micro-batching coalescer targets:
``settings.max_batch_size`` bounds the coalesced batches and the result
document records the server's batch-size histogram and coalesced-request
fraction next to the latency percentiles (``--max-batch-size 1`` measures
the solo path).

``settings.worker_processes`` switches the served stack from the thread
pool to the multi-process tier (``--worker-processes`` on the CLI): each
process runs its own coalescing loop and sample cache with ``(model,
seed)`` routed by consistent hash, which is what lets a multi-core host
multiply throughput past the GIL.  The committed baseline is recorded in
thread mode so single-core CI stays comparable; the process-mode quick
gate runs the same check with ``--worker-processes 2``.

Gate a working tree against the committed baseline with
``benchmarks/bench_serve.py --check`` (same machinery as the hot-path
gate, pointed at the ``serve_paths`` section).
"""

from __future__ import annotations

import http.client
import json
import platform
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..core import CPGAN, CPGANConfig, save_model
from ..datasets import load
from ..serve import GenerationService, ModelRegistry, build_server
from .hotpath import calibrate_matmul
from .regression import (
    Comparison,
    compare_runs,
    load_baseline,
)

__all__ = [
    "SERVE_SCHEMA_VERSION",
    "DEFAULT_SERVE_BASELINE_PATH",
    "DEFAULT_SERVE_TOLERANCE",
    "ServeBenchSettings",
    "DEFAULT_SERVE_SETTINGS",
    "QUICK_SERVE_SETTINGS",
    "run_serve_bench",
    "check_serve_regression",
]

SERVE_SCHEMA_VERSION = 1

#: Committed baseline location (repository root, next to BENCH_hotpath.json).
DEFAULT_SERVE_BASELINE_PATH = (
    Path(__file__).resolve().parents[3] / "BENCH_serve.json"
)

#: Serve latencies fold in thread scheduling and loopback sockets, which are
#: noisier than the pure-compute hot paths — the gate tolerance is wider.
DEFAULT_SERVE_TOLERANCE = 1.0


@dataclass(frozen=True)
class ServeBenchSettings:
    """Knobs for one load-harness run."""

    clients: int = 8             # concurrent closed-loop clients
    requests_per_client: int = 25
    workers: int = 4             # service worker threads
    queue_size: int = 64
    cache_entries: int = 64      # > 0 so repeated seeds measure the cache path
    unique_seeds: int = 32       # distinct request seeds cycled by clients
    scale: float = 0.06          # Citeseer stand-in fraction (~200 nodes)
    fit_epochs: int = 2          # enough to initialise a servable model
    seed: int = 0
    max_batch_size: int = 8      # micro-batch coalescing bound (1 disables)
    worker_processes: int = 0    # 0 = thread mode; N = process pool of N


DEFAULT_SERVE_SETTINGS = ServeBenchSettings()

#: Tiny smoke configuration for tests and the CI gate.
QUICK_SERVE_SETTINGS = ServeBenchSettings(
    clients=4,
    requests_per_client=6,
    workers=2,
    queue_size=16,
    unique_seeds=8,
    scale=0.02,
)


def _fitted_archive(settings: ServeBenchSettings, directory: Path) -> Path:
    """Fit a small CPGAN and save it as the served archive."""
    graph = load("citeseer", scale=settings.scale, seed=settings.seed).graph
    model = CPGAN(
        CPGANConfig(epochs=settings.fit_epochs, seed=settings.seed)
    ).fit(graph)
    path = directory / "citeseer.npz"
    save_model(model, path)
    return path


_JSON_HEADERS = {"Content-Type": "application/json"}


def _client_loop(
    host: str,
    port: int,
    client_index: int,
    settings: ServeBenchSettings,
    barrier: threading.Barrier,
    latencies: list[float],
    retries: list[int],
) -> None:
    """One closed-loop client on one keep-alive connection: fire, wait,
    record, repeat."""
    conn = http.client.HTTPConnection(host, port, timeout=120)
    barrier.wait()
    try:
        for i in range(settings.requests_per_client):
            request_index = client_index * settings.requests_per_client + i
            seed = request_index % settings.unique_seeds
            body = json.dumps({"model": "citeseer", "seed": seed})
            reconnected = False
            while True:
                start = time.perf_counter()
                try:
                    conn.request("POST", "/generate", body, _JSON_HEADERS)
                    response = conn.getresponse()
                    response.read()
                except (BrokenPipeError, ConnectionResetError):
                    # The server closed the kept-alive connection: the
                    # next request reopens it.  Resend once.
                    conn.close()
                    if reconnected:
                        raise
                    reconnected = True
                    continue
                if response.status == 503:
                    # Backpressure: honour the Retry-After hint, then retry.
                    retries.append(1)
                    hint = float(response.getheader("Retry-After", "0.1"))
                    time.sleep(min(hint, 0.25))
                    continue
                if response.status != 200:
                    raise RuntimeError(f"/generate answered {response.status}")
                latencies.append(time.perf_counter() - start)
                break
    finally:
        conn.close()


def run_serve_bench(settings: ServeBenchSettings | None = None) -> dict:
    """Run the closed-loop load harness; returns the JSON-ready document."""
    settings = settings or DEFAULT_SERVE_SETTINGS
    with tempfile.TemporaryDirectory() as tmp:
        archive = _fitted_archive(settings, Path(tmp))
        registry = ModelRegistry(max_loaded=2)
        registry.register("citeseer", archive)
        service = GenerationService(
            registry,
            workers=settings.workers,
            queue_size=settings.queue_size,
            cache_entries=settings.cache_entries,
            retry_after_s=0.05,
            max_batch_size=settings.max_batch_size,
            worker_processes=settings.worker_processes,
        )
        server = build_server(service)
        host, port = server.server_address[:2]
        server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        server_thread.start()
        service.start()
        try:
            # Warm up end to end (connection setup, first-touch codepaths)
            # with a seed outside the measured cycle.
            warm = http.client.HTTPConnection(host, port, timeout=120)
            try:
                warm.request(
                    "POST",
                    "/generate",
                    json.dumps(
                        {"model": "citeseer", "seed": settings.unique_seeds}
                    ),
                    _JSON_HEADERS,
                )
                warm.getresponse().read()
            finally:
                warm.close()

            latencies: list[float] = []
            retries: list[int] = []
            barrier = threading.Barrier(settings.clients + 1)
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(host, port, i, settings, barrier, latencies, retries),
                )
                for i in range(settings.clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            wall_start = time.perf_counter()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - wall_start
            service_metrics = service.metrics()
        finally:
            server.shutdown()
            server.server_close()
            service.stop(drain=False)

    # Calibrate adjacent to the timed region (same rationale as hotpath).
    calibration = calibrate_matmul()
    values = np.asarray(latencies)
    completed = int(values.size)
    throughput_rps = completed / wall_s if wall_s > 0 else float("inf")
    p50, p95, p99 = (
        float(v) for v in np.percentile(values, [50.0, 95.0, 99.0])
    )
    # Every gated entry is seconds-per-<something> so "bigger = slower"
    # holds uniformly; inv_throughput folds the throughput claim in.
    gated = {
        "latency_p50": p50,
        "latency_p95": p95,
        "latency_p99": p99,
        "inv_throughput": wall_s / completed if completed else float("inf"),
    }
    return {
        "schema": SERVE_SCHEMA_VERSION,
        "settings": asdict(settings),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "calibration_matmul_s": calibration,
        "serve": {
            "completed": completed,
            "wall_s": wall_s,
            "throughput_rps": throughput_rps,
            "latency_mean_s": float(values.mean()),
            "latency_p50_s": p50,
            "latency_p95_s": p95,
            "latency_p99_s": p99,
            "backpressure_retries": len(retries),
            "cache_hit_rate": service_metrics["cache"]["hit_rate"],
            "server_requests": service_metrics["requests"],
            "batching": service_metrics["batching"],
        },
        "serve_paths": {
            name: {
                "seconds": value,
                "calibration_s": calibration,
                "normalized": value / calibration,
            }
            for name, value in gated.items()
        },
    }


def check_serve_regression(
    baseline_path: str | Path | None = None,
    settings: ServeBenchSettings | None = None,
    tolerance: float = DEFAULT_SERVE_TOLERANCE,
) -> tuple[bool, list[Comparison]]:
    """Fresh load-harness run gated against the committed baseline."""
    baseline = load_baseline(
        baseline_path or DEFAULT_SERVE_BASELINE_PATH,
        schema=SERVE_SCHEMA_VERSION,
        section="serve_paths",
    )
    fresh = run_serve_bench(settings)
    comparisons = compare_runs(
        baseline, fresh, tolerance, section="serve_paths"
    )
    return not any(c.regressed for c in comparisons), comparisons
