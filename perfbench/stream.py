"""``stream_flat`` and ``stream_hier``: 100k-node graphs streamed to CSR shards.

The parent process fits the stand-in (the set-up), then a fresh child
process loads the archive and calls ``CPGAN.generate_to_file`` with
float32 scoring, the factored repair sampler and ``nproc`` threads, one
graph after another until the run's time is spent.  The child's own
``getrusage`` high-water mark is the peak RSS of generation alone.

With tracing on, the child streams the same seeds twice: untraced, then
with layer spans installed; the two passes must write byte-identical
shard directories, and their wall-time ratio is the tracing overhead.

Run as a script, this file is that child.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import common
import tracing

NODES = 100_000
SHARD_EDGES = 100_000
MIN_GRAPHS = 3


def generation_config(model, mode: str, threads: int):
    return model.generation_config(
        generation_mode=mode,
        generation_dtype="float32",
        repair_sampler="factored",
        generation_threads=threads,
        hier_workers=threads,
    )


# ----------------------------------------------------------------------
# child
# ----------------------------------------------------------------------
def _stream(model, cfg, out: Path, seeds, seconds, recorder=None):
    """Stream one graph per seed; with ``seconds``, stop once they have
    passed (after at least ``MIN_GRAPHS``).  Returns one record per graph."""
    records = []
    began = time.perf_counter()
    for index, seed in enumerate(seeds):
        if seconds is not None and (
            index >= MIN_GRAPHS and time.perf_counter() - began >= seconds
        ):
            break
        stats: dict = {}
        target = out / f"g{index:03d}"
        span = (
            recorder.span("stream.graph", root=True)
            if recorder is not None
            else nullcontext({})
        )
        start = time.perf_counter()
        with span as root:
            edges = model.generate_to_file(
                target,
                seed=seed,
                num_nodes=NODES,
                config=cfg,
                shard_edges=SHARD_EDGES,
                shard_format="csr",
                _stats=stats,
            )
        wall = time.perf_counter() - start
        records.append(
            {
                "seed": seed,
                "dir": str(target),
                "wall_s": wall,
                "edges": int(edges),
                "root": root.get("id"),
                "stats": {k: v for k, v in stats.items() if not isinstance(v, str)},
            }
        )
    return records


def child_main(args: dict) -> None:
    from repro.core import load_model

    model = load_model(args["archive"])
    cfg = generation_config(model, args["mode"], common.NPROC)
    out = Path(args["out"])
    first_seed = args["seed"] * 1000
    seeds = range(first_seed, first_seed + 10_000)
    seconds = args["seconds"]
    result = {}
    if args["trace"]:
        plain = _stream(model, cfg, out / "plain", seeds, seconds / 2)
        recorder = tracing.Recorder()
        restore = tracing.install(recorder, tracing.GENERATION_LAYERS)
        try:
            result["traced"] = _stream(
                model, cfg, out / "traced", [r["seed"] for r in plain],
                None, recorder,
            )
        finally:
            restore()
        result["spans"] = recorder.spans
    else:
        plain = _stream(model, cfg, out / "plain", seeds, seconds)
    result["plain"] = plain
    result["peak_rss_mb"] = common.peak_rss_mb()
    Path(args["result"]).write_text(json.dumps(result))


# ----------------------------------------------------------------------
# parent
# ----------------------------------------------------------------------
def _read_output(record: dict, target_edges: int):
    """Validate one streamed directory; returns (graph, problems)."""
    from repro.graphs import Graph
    from repro.graphs.io import iter_edge_shards, read_shard_meta

    meta = read_shard_meta(record["dir"])
    parts = list(iter_edge_shards(record["dir"], meta))
    edges = np.concatenate(parts) if parts else np.zeros((0, 2), np.int64)
    problems = common.check_edges(edges, NODES)
    if meta["num_nodes"] != NODES:
        problems.append(f"manifest num_nodes {meta['num_nodes']} != {NODES}")
    if meta["num_edges"] != target_edges or len(edges) != target_edges:
        problems.append(
            f"manifest {meta['num_edges']} / read {len(edges)} edges, "
            f"target {target_edges}"
        )
    if record["edges"] != target_edges:
        problems.append(f"generate_to_file returned {record['edges']}")
    graph = Graph.from_canonical_edges(NODES, edges) if not problems else None
    return graph, problems


def _dir_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir())


def _same_bytes(a: str, b: str) -> bool:
    names_a = sorted(p.name for p in Path(a).iterdir())
    names_b = sorted(p.name for p in Path(b).iterdir())
    return names_a == names_b and all(
        (Path(a) / name).read_bytes() == (Path(b) / name).read_bytes()
        for name in names_a
    )


def _layer_metrics(records: list[dict], spans: list[dict]) -> dict:
    """Per-graph layer totals from the traced pass, median over graphs."""
    by_id = {span["id"]: span for span in spans}
    own = tracing.self_times(spans)
    per_graph: dict[str, list[float]] = {}

    def add(name, value):
        per_graph.setdefault(name, []).append(value)

    for record in records:
        root = by_id[record["root"]]
        members = tracing.descendants(spans, root["id"])
        busy: dict[str, float] = {}
        for span in members:
            busy[span["name"]] = busy.get(span["name"], 0.0) + (
                span["end"] - span["start"]
            )
        topk = [s for s in members if s["name"] == "core.decoder.topk"]
        intra = [
            s["end"] - s["start"] for s in members if s["name"] == "hier.intra"
        ]
        add("core.variational.sample_s", busy.get("core.variational.sample", 0.0))
        add("core.decoder.features_s", busy.get("core.decoder.features", 0.0))
        add("core.decoder.topk_s", busy.get("core.decoder.topk", 0.0))
        add("core.decoder.topk_calls", len(topk))
        add(
            "core.decoder.topk_k",
            float(np.mean([s["attrs"]["k"] for s in topk])) if topk else 0.0,
        )
        add("core.decoder.topk_flops", sum(s["attrs"]["flops"] for s in topk))
        add(
            "graphs.assembly.select_s",
            sum(own[s["id"]] for s in members if s["name"] == "graphs.assembly.select"),
        )
        add("graphs.assembly.repair_s", busy.get("graphs.assembly.repair", 0.0))
        add("graphs.io.write_s", busy.get("graphs.io.write", 0.0))
        add("hier.plan_s", busy.get("hier.plan", 0.0))
        add("hier.supergraph_s", busy.get("hier.supergraph", 0.0))
        add("hier.intra_s", sum(intra))
        add("hier.intra_block_s_max", max(intra, default=0.0))
        add("hier.stitch_s", busy.get("hier.stitch", 0.0))
        blocking = tracing.blocking_attribution(root, spans)
        add("trace.self_sum_frac", sum(blocking.values()) / record["wall_s"])
    return {name: common.median(values) for name, values in per_graph.items()}


def _stats_metrics(records: list[dict]) -> dict:
    per_graph: dict[str, list[float]] = {}
    for record in records:
        stats = record["stats"]
        proposals = stats.get("repair_proposals", 0)
        cross = stats.get("cross_proposals", 0)
        values = {
            "graphs.assembly.repair_isolated": stats.get("repair_isolated", 0),
            "graphs.assembly.repair_accept_ratio": (
                stats.get("repair_accepted", 0) / proposals if proposals else 0.0
            ),
            "hier.cross_accept_ratio": (
                (stats.get("hier_cross_edges", 0) - stats.get("cross_filled", 0))
                / cross
                if cross
                else 0.0
            ),
            "hier.communities": stats.get("hier_communities", 0),
            "graphs.io.write_bytes": _dir_bytes(record["dir"]),
        }
        for name, value in values.items():
            per_graph.setdefault(name, []).append(value)
    return {name: common.median(values) for name, values in per_graph.items()}


def run(mode: str, seed: int, seconds: float, trace: bool, work: Path):
    archive = work / "standin.npz"
    setup_s, model = common.timed_setups(
        lambda: common.fit_standin(archive)
    )
    observed = model._require_fitted()
    target_edges = max(
        1, int(round(observed.num_edges * NODES / observed.num_nodes))
    )
    child = common.run_child(
        "stream.py",
        {
            "archive": str(archive),
            "mode": mode,
            "out": str(work / "out"),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
        },
        work,
        timeout=150,
    )
    plain = child["plain"]
    problems, outputs = [], []
    for record in plain:
        graph, found = _read_output(record, target_edges)
        problems += found
        if graph is not None:
            outputs.append(graph)
    failed = len(plain) - len(outputs)
    values: dict[str, float] = {}
    if trace:
        traced = child["traced"]
        for a, b in zip(plain, traced):
            if not _same_bytes(a["dir"], b["dir"]):
                problems.append(f"traced output differs for seed {a['seed']}")
                failed += 1
        values.update(_layer_metrics(traced, child["spans"]))
        values.update(_stats_metrics(plain))
        self_sum = values["trace.self_sum_frac"]
        if abs(self_sum - 1.0) > 0.01:
            problems.append(f"layer self times cover {self_sum:.4f} of wall")
        values["trace.overhead_frac"] = (
            sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in plain)
            - 1.0
        )
        recorder = tracing.Recorder()
        restore = tracing.install(recorder, tracing.TRAINING_LAYERS)
        try:
            common.fit_standin()
        finally:
            restore()
        values.update(common.setup_layer_metrics(recorder.spans))
    walls = [record["wall_s"] for record in plain]
    values.update(
        {
            "setup_s": setup_s,
            "ops_per_s": 1.0 / common.median(walls),
            "peak_rss_mb": child["peak_rss_mb"],
            "gen_s_p50": common.median(walls),
            "gen_count": len(walls),
            "edges_per_s": sum(r["edges"] for r in plain) / sum(walls),
        }
    )
    cfg = generation_config(model, mode, common.NPROC)
    samples = [
        model.generate(seed=seed * 1000 + i, config=cfg)
        for i in range(common.QUALITY_SAMPLES)
    ]
    values.update(common.partition_quality(observed, samples))
    if outputs:
        values.update(common.structure_quality(observed, outputs))
    shutil.rmtree(work / "out", ignore_errors=True)
    return values, len(plain), failed, problems


if __name__ == "__main__":
    child_main(json.loads(Path(sys.argv[1]).read_text()))
