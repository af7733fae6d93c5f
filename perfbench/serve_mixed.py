"""``serve_mixed``: an open loop over HTTP at three fixed arrival rates.

The load generator is this process: ``nproc`` sender threads, each with
one keep-alive connection, send a seeded Poisson schedule to the server
process (``server.py``).  Each request is timed from the instant it was
due, so a stall also delays every request queued behind it; how late the
generator itself sent a request (after a connection was free) is reported
separately as ``serve.client.late_ms_p99``, and a rate at which it exceeds
``LATE_LIMIT_MS`` is marked invalid.

Mix: 85 % of the requests ask for a fitted-size graph with a
seed drawn Zipf-style from ``ZIPF_SEEDS`` hot seeds (cache reads: the
set-up's warm-up requests each hot seed once); the rest ask for
``LARGE_NODES`` nodes with float32 scoring and factored repair under a
fresh seed (cache writes, ~180 KB JSON bodies).
"""

from __future__ import annotations

import http.client
import json
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import common
import tracing

RATES = {"low": 2.0, "mid": 4.0, "high": 10.0}  # requests per second
#: Share of the run's seconds per phase; "capacity" is the closed loop.
PHASE_SHARE = {"low": 0.1, "mid": 0.3, "high": 0.2, "capacity": 0.4}
CAPACITY_CEILING_RPS = 60.0  # requests listed for the closed loop, per second
RATE_CHUNK = 25  # answers per throughput sample in the closed loop
#: One request in flight: two workers scoring at once oversubscribe a
#: small host (each process starts its own BLAS threads), and with two
#: in flight the throughput swung more from run to run.
CLOSED_LOOP_CONNECTIONS = 1
MIX_BLOCK = 20  # every 20 consecutive requests hold exactly
LARGE_PER_BLOCK = 3  # 3 large ones (15 %), in a seeded order
ZIPF_SEEDS = 24
ZIPF_EXPONENT = 1.1
#: The popular graphs: the same set in every run, so their routing to
#: worker processes and their quality do not change with the run seed.
HOT_SEEDS = 1_000_000 + np.arange(ZIPF_SEEDS)
LARGE_NODES = 10_000
LARGE_PARAMS = {"generation_dtype": "float32", "repair_sampler": "factored"}
LATENCY_LIMIT_MS = 1000.0  # on p99, for goodput
LATE_LIMIT_MS = 20.0
MODEL = "standin"


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------
class Server:
    def __init__(self, archive: Path, work: Path, trace: bool, tag: str):
        self.result_path = work / f"server-{tag}.result.json"
        args_path = work / f"server-{tag}.args.json"
        args_path.write_text(
            json.dumps(
                {
                    "archive": str(archive),
                    "trace": trace,
                    "result": str(self.result_path),
                }
            )
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(common.HERE / "server.py"), str(args_path)],
            cwd=common.ROOT,
            env=common.child_env(work),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            ready, __, __ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> dict:
        """Close stdin, wait for the server, return its result file."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(self.result_path.read_text())

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def _request(seed: int, large: bool) -> dict:
    body = {"model": MODEL, "seed": int(seed)}
    if large:
        body["num_nodes"] = LARGE_NODES
        body["params"] = LARGE_PARAMS
    return body


def build_schedule(seed: int, seconds: float) -> dict[str, list]:
    """Per phase: (due offset s, request body), from one seeded stream.

    Each rate gets its share of ``seconds`` (``PHASE_SHARE``) and exactly
    ``rate x duration`` arrivals, placed as a Poisson process conditioned
    on that count (sorted uniform times).  The capacity phase gets a
    request list longer than it can finish, all due at once.  Any
    ``MIX_BLOCK`` consecutive requests hold exactly ``LARGE_PER_BLOCK``
    large ones, so every phase, and every prefix of the closed loop,
    asks for the same work: the seed moves the order and the times.
    """
    rng = np.random.default_rng([seed, 7])
    weights = 1.0 / np.arange(1, ZIPF_SEEDS + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    large_seeds = iter(range(seed * 100_000 + 50_000, seed * 100_000 + 100_000))

    def mix(count: int) -> list[dict]:
        block = np.zeros(MIX_BLOCK, dtype=bool)
        block[:LARGE_PER_BLOCK] = True
        large = np.concatenate(
            [rng.permutation(block) for _ in range(-(-count // MIX_BLOCK))]
        )[:count]
        return [
            _request(next(large_seeds), True)
            if is_large
            else _request(rng.choice(HOT_SEEDS, p=weights), False)
            for is_large in large.tolist()
        ]

    schedule = {}
    for name, rate in RATES.items():
        duration = seconds * PHASE_SHARE[name]
        count = max(1, int(round(rate * duration)))
        times = np.sort(rng.uniform(0.0, duration, count)).tolist()
        schedule[name] = list(zip(times, mix(count)))
    capacity = int(CAPACITY_CEILING_RPS * seconds * PHASE_SHARE["capacity"])
    schedule["capacity"] = [(0.0, body) for body in mix(capacity)]
    return schedule


def warm_up(server: Server, seed: int) -> list[dict]:
    """Fill the cache with every hot seed and run two large requests.

    Returns the responses, which are checked like the measured ones.
    """
    bodies = [_request(s, False) for s in HOT_SEEDS]
    bodies += [_request(seed * 100_000 + 90_000 + i, True) for i in range(2)]
    results = run_phase(server.port, [(0.0, body) for body in bodies], "warmup")
    if any(result["status"] != 200 for result in results):
        raise RuntimeError("a warm-up request failed")
    return results


def run_phase(
    port: int,
    items: list,
    tag: str,
    seconds: float | None = None,
    connections: int = common.NPROC,
) -> list[dict]:
    """Send ``items`` on schedule over keep-alive connections.

    With ``seconds``, no request is sent after that long: a closed loop
    when every item is due at once.  Returns the results of those sent.
    """
    results: list[dict | None] = [None] * len(items)
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.05
    stop = float("inf") if seconds is None else start + seconds

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(items) or time.perf_counter() >= stop:
                break
            offset, body = items[index]
            ready = time.perf_counter()
            due = start + offset
            if due > ready:
                time.sleep(due - ready)
            sent = time.perf_counter()
            try:
                conn.request(
                    "POST",
                    "/generate",
                    json.dumps(body),
                    {"X-Request-Id": f"{tag}-{index}"},
                )
                response = conn.getresponse()
                payload = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                payload, status = b"", 0
            done = time.perf_counter()
            results[index] = {
                "rid": f"{tag}-{index}",
                "body": body,
                "status": status,
                "payload": payload,
                "due": due,
                "done": done,
                "lat_ms": 1000.0 * (done - due),
                "late_ms": 1000.0 * (sent - max(due, ready)),
            }
        conn.close()

    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [result for result in results if result is not None]


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def check_responses(results: list[dict], first: dict, problems: list) -> int:
    """Validate every 200; record the graph of each first-seen key.

    Returns the number of failed requests (non-200 or a failed check).
    A repeated key must carry exactly the first response's graph.
    """
    failed = 0
    for result in results:
        if result["status"] != 200:
            failed += 1
            continue
        document = json.loads(result["payload"])
        edges = document["edges"]
        graph = (document["num_nodes"], json.dumps(edges))
        found = []
        if document["num_edges"] != len(edges):
            found.append("num_edges != len(edges)")
        found += common.check_edges(np.asarray(edges), document["num_nodes"])
        key = _key(result["body"])
        if key in first and first[key] != graph:
            found.append("repeated request returned a different graph")
        first.setdefault(key, graph)
        if found:
            failed += 1
            problems.append(f"{result['rid']}: {', '.join(found)}")
    return failed


def phase_metrics(results: list[dict], rate: float) -> dict:
    ok = [r for r in results if r["status"] == 200]
    lat = [r["lat_ms"] for r in ok]
    p99 = common.percentile(lat, 99)
    late = common.percentile([r["late_ms"] for r in results], 99)
    drain_ms = 1000.0 * (
        max(r["done"] for r in results) - max(r["due"] for r in results)
    ) if results else 0.0
    return {
        "sent": len(results),
        "succeeded": len(ok),
        "failed": len(results) - len(ok),
        "p50": common.percentile(lat, 50),
        "p99": p99,
        "late_p99": late,
        "valid": late <= LATE_LIMIT_MS,
        "meets": (
            len(ok) == len(results)
            and p99 <= LATENCY_LIMIT_MS
            and drain_ms <= LATENCY_LIMIT_MS
        ),
        "rate": rate,
    }


def _small_graphs(first: dict) -> list:
    """The fitted-size graphs among the first responses."""
    from repro.graphs import Graph

    return [
        Graph.from_canonical_edges(n, np.asarray(json.loads(edges)).reshape(-1, 2))
        for key, (n, edges) in first.items()
        if "num_nodes" not in json.loads(key)
    ]


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
def _server_layer_metrics(spans: list[dict]) -> dict:
    encode = [s for s in spans if s["name"] == "serve.http.encode"]
    served = [s["attrs"] for s in spans if s["name"] == "serve.service.generate"]
    cold = [a for a in served if not a["cache_hit"]]
    queued = [1000.0 * a["queued_s"] for a in cold]
    generate = [1000.0 * (a["total_s"] - a["queued_s"]) for a in cold]
    return {
        "serve.http.encode_s": float(
            np.mean([s["end"] - s["start"] for s in encode])
        ) if encode else 0.0,
        "serve.http.bytes_out": float(
            np.mean([s["attrs"]["bytes"] for s in encode])
        ) if encode else 0.0,
        "serve.service.queue_wait_ms_p50": common.percentile(queued, 50),
        "serve.service.queue_wait_ms_p99": common.percentile(queued, 99),
        "serve.service.generate_ms_p50": common.percentile(generate, 50),
        "serve.service.generate_ms_p99": common.percentile(generate, 99),
    }


def _metrics_delta(before: dict, after: dict) -> dict:
    """The traffic's share of ``/metrics``: counters after minus before."""

    def delta(section: str, key: str) -> float:
        return after[section].get(key, 0) - before[section].get(key, 0)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    batches, batched = delta("batching", "batches"), delta("batching", "requests")
    return {
        "serve.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.batching.batch_size_mean": batched / batches if batches else 0.0,
        "serve.batching.coalesced_frac": (
            delta("batching", "coalesced_requests") / batched if batched else 0.0
        ),
        "serve.procpool.retried": delta("requests", "retried"),
        "serve.procpool.worker_restarts": delta("requests", "worker_restarts"),
    }


def _chunk_rates(results: list[dict]) -> list[float]:
    """Answered requests per second over each run of ``RATE_CHUNK``
    consecutive answers in the closed loop; their median shrugs off a
    stall in one stretch of the loop."""
    done = sorted(r["done"] for r in results if r["status"] == 200)
    return [
        RATE_CHUNK / (done[i + RATE_CHUNK] - done[i])
        for i in range(0, len(done) - RATE_CHUNK, RATE_CHUNK)
    ]


def _wall(results: list[dict]) -> float:
    return max(r["done"] for r in results) - min(r["due"] for r in results)


def _start(archive: Path, work: Path, seed: int, trace: bool, tag: str):
    server = Server(archive, work, trace, tag)
    try:
        return server, warm_up(server, seed)
    except BaseException:
        server.kill()
        raise


def run(seed: int, seconds: float, trace: bool, work: Path):
    archive = work / "standin.npz"
    schedule = build_schedule(seed, seconds)
    problems: list[str] = []
    first: dict = {}
    server = None
    try:
        # Set-up: fit the stand-in, start the serving process, warm it.
        setups = []
        for index in range(1 if trace else common.SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            began = time.perf_counter()
            common.fit_standin(archive)
            server, warm = _start(archive, work, seed, False, f"setup{index}")
            setups.append(time.perf_counter() - began)
        failed = check_responses(warm, first, problems)
        attempted = len(warm)
        before = server.get("/metrics")
        # The closed loop runs first, on the freshly warmed server.
        closed = run_phase(
            server.port,
            schedule["capacity"],
            "capacity",
            seconds * PHASE_SHARE["capacity"],
            CLOSED_LOOP_CONNECTIONS,
        )
        phases = {"capacity": closed}
        for name in RATES:
            phases[name] = run_phase(server.port, schedule[name], name)
        closed_wall = _wall(closed)
        after = server.get("/metrics")
        peak_rss_mb = server.stop()["peak_rss_mb"]
        server = None
        for results in phases.values():
            failed += check_responses(results, first, problems)
            attempted += len(results)
        stats = {name: phase_metrics(phases[name], RATES[name]) for name in RATES}
        values = {
            "setup_s": common.median(setups),
            "ops_per_s": common.median(_chunk_rates(closed)),
            "peak_rss_mb": peak_rss_mb,
            "lat_p50_ms": stats["mid"]["p50"],
            "lat_p99_ms": stats["mid"]["p99"],
            "lat_p99_ms.high": stats["high"]["p99"],
            "lat_samples": stats["mid"]["succeeded"],
            "goodput_rps": max(
                (s["rate"] for s in stats.values() if s["valid"] and s["meets"]),
                default=0.0,
            ),
            "serve.client.late_ms_p99": max(s["late_p99"] for s in stats.values()),
            **_metrics_delta(before, after),
        }
        for name, s in stats.items():
            for field in ("sent", "succeeded", "failed", "valid"):
                values[f"serve.client.{field}.{name}"] = float(s[field])
        if trace:
            recorder = tracing.Recorder()
            restore = tracing.install(recorder, tracing.TRAINING_LAYERS)
            try:
                common.fit_standin()
            finally:
                restore()
            values.update(common.setup_layer_metrics(recorder.spans))
            # The traced server replays the 4 req/s schedule and the exact
            # requests the closed loop sent; the closed loop's wall-time
            # ratio is the tracing overhead.
            server, warm = _start(archive, work, seed, True, "traced")
            traced_mid = run_phase(server.port, schedule["mid"], "traced-mid")
            traced_closed = run_phase(
                server.port,
                [(0.0, r["body"]) for r in closed],
                "traced-capacity",
                connections=CLOSED_LOOP_CONNECTIONS,
            )
            spans = server.stop()["spans"]
            server = None
            for results in (warm, traced_mid, traced_closed):
                failed += check_responses(results, first, problems)
                attempted += len(results)
            values.update(_server_layer_metrics(spans))
            values["trace.overhead_frac"] = _wall(traced_closed) / closed_wall - 1.0
            values["trace.self_sum_frac"] = _request_coverage(spans)
        observed = common.observed_graph()
        small = _small_graphs(first)
        values.update(common.partition_quality(observed, small))
        values.update(common.structure_quality(observed, small))
        return values, attempted, failed, problems
    finally:
        if server is not None:
            server.kill()


def _request_coverage(spans: list[dict]) -> float:
    """Median over traced requests of the request span's time that its
    layer spans (service wait + encode) and its own self time account for;
    1.0 by construction unless spans escape their request."""
    roots = [s for s in spans if s["name"] == "serve.http.request"]
    shares = [
        sum(tracing.blocking_attribution(root, spans).values())
        / (root["end"] - root["start"])
        for root in roots
    ]
    return common.median(shares)
