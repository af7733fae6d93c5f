"""In-memory spans recorded around the program's layer boundaries.

Nothing here edits the program: a traced pass wraps the program's
callables from outside, replacing a class attribute (``GraphDecoder.edge_features_numpy``)
or rebinding a name in the module that calls it (``repro.core.model`` reads
``topk_pair_candidates`` from its own globals, so that is where the wrapper
goes).  ``install`` returns an undo callable, so one process can run an
untraced pass and then a traced pass over the same inputs.

A span is ``(id, parent, name, start, end, rid, attrs)``.  Spans of a
thread nest through a thread-local stack; a span opened on a worker thread
with an empty stack hangs off the recorder's current root (the operation
that fanned the work out), so per-community tasks of the hierarchical
pipeline still belong to their graph.  Spans stay in a list and are dumped
once, when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None, root: bool = False):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else self.root,
            "name": name,
            "rid": rid,
            "attrs": {},
        }
        if root:
            record["parent"] = None
            self.root = record["id"]
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            self.spans.append(record)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _wrap(recorder: Recorder, owner, attr: str, name: str, counters=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name) as record:
            result = original(*args, **kwargs)
            if counters is not None:
                record["attrs"].update(counters(args, kwargs, result))
            return result

    setattr(owner, attr, traced)
    return lambda: setattr(owner, attr, original)


def _topk_counters(args, kwargs, result):
    """K and the dense pair-scoring flop count, from the argument shapes."""
    g = args[0]
    k = int(args[1] if len(args) > 1 else kwargs["k"])
    *batch, n, d = g.shape
    samples = batch[0] if batch else 1
    return {"k": k, "flops": float(samples) * n * (n - 1) * d}


def _service_counters(args, kwargs, result):
    return {
        "queued_s": result.queued_s,
        "total_s": result.total_s,
        "cache_hit": bool(result.cache_hit),
    }


def _resolve(path: str):
    module, __, attr = path.partition(":")
    owner = importlib.import_module(module)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


#: (callable to wrap as "module:attr.path", span name, counter function).
#: Names read through a module's globals are listed once per calling module.
GENERATION_LAYERS = [
    ("repro.core.variational:LatentDistributions.sample", "core.variational.sample", None),
    ("repro.core.decoder:GraphDecoder.edge_features_numpy", "core.decoder.features", None),
    ("repro.core.model:topk_pair_candidates", "core.decoder.topk", _topk_counters),
    ("repro.core.model:topk_pair_candidates_batch", "core.decoder.topk", _topk_counters),
    ("repro.hier.pipeline:topk_pair_candidates", "core.decoder.topk", _topk_counters),
    ("repro.core.model:select_edges_sparse", "graphs.assembly.select", None),
    ("repro.core.model:assemble_graph_sparse", "graphs.assembly.select", None),
    ("repro.hier.pipeline:select_edges_sparse", "graphs.assembly.select", None),
    ("repro.graphs.assembly:_repair_isolated", "graphs.assembly.repair", None),
    ("repro.graphs.io:EdgeShardWriter.write", "graphs.io.write", None),
    ("repro.graphs.io:EdgeShardWriter.close", "graphs.io.write", None),
    ("repro.hier.pipeline:plan_partition", "hier.plan", None),
    ("repro.hier.pipeline:sample_supergraph", "hier.supergraph", None),
    ("repro.hier.pipeline:_intra_edges", "hier.intra", None),
    ("repro.hier.pipeline:sample_cross_edges", "hier.stitch", None),
]

TRAINING_LAYERS = [
    ("repro.nn.tensor:Tensor.backward", "nn.tensor.backward", None),
    ("repro.nn.optim:Adam.step", "nn.optim.step", None),
    ("repro.core.encoder:LadderEncoder.forward", "core.encoder.forward", None),
    ("repro.core.discriminator:Discriminator.forward", "core.discriminator.forward", None),
    ("repro.core.model:hierarchical_labels", "community.louvain", None),
]

SERVICE_LAYERS = [
    ("repro.serve.service:GenerationService.generate", "serve.service.generate", _service_counters),
]


def install(recorder: Recorder, layers) -> callable:
    """Wrap every callable in ``layers``; returns the undo callable."""
    undo = []
    for path, name, counters in layers:
        owner, attr = _resolve(path)
        undo.append(_wrap(recorder, owner, attr, name, counters))

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


def install_http(recorder: Recorder) -> callable:
    """Trace the HTTP front end: one root span per POST, tagged with the
    client's ``X-Request-Id``, and the JSON encode of every response.

    ``repro.serve.http`` reads ``json`` and ``_make_handler`` from its own
    globals, so both are rebound there.
    """
    http = importlib.import_module("repro.serve.http")
    real_json = http.json
    real_make_handler = http._make_handler

    class TracedJson:
        loads = staticmethod(real_json.loads)
        dumps = staticmethod(
            functools.partial(_traced_dumps, recorder, real_json.dumps)
        )

    def make_handler(service):
        base = real_make_handler(service)

        class Handler(base):
            def do_POST(self):  # noqa: N802 (stdlib naming)
                rid = self.headers.get("X-Request-Id")
                with recorder.span("serve.http.request", rid=rid):
                    super().do_POST()

        return Handler

    http.json = TracedJson
    http._make_handler = make_handler

    def restore() -> None:
        http.json = real_json
        http._make_handler = real_make_handler

    return restore


def _traced_dumps(recorder: Recorder, dumps, *args, **kwargs):
    with recorder.span("serve.http.encode") as record:
        text = dumps(*args, **kwargs)
        record["attrs"]["bytes"] = len(text)
        return text


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        clipped = [
            (max(a, span["start"]), min(b, span["end"]))
            for a, b in children.get(span["id"], [])
            if b > span["start"] and a < span["end"]
        ]
        result[span["id"]] = (span["end"] - span["start"]) - _union_length(
            clipped
        )
    return result


def descendants(spans: list[dict], root_id: int) -> list[dict]:
    by_parent: dict[int, list[dict]] = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    out, todo = [], [root_id]
    while todo:
        for child in by_parent.get(todo.pop(), []):
            out.append(child)
            todo.append(child["id"])
    return out


def blocking_attribution(root: dict, spans: list[dict]) -> dict[str, float]:
    """Split the root's wall time among the layers that held it.

    Every instant of the root span goes to the innermost spans open at
    that instant (the root itself when none is), shared equally when
    parallel tasks overlap.  The values therefore sum to the root's
    duration; the root's own share is what no layer span covers.
    """
    members = [root] + descendants(spans, root["id"])
    parent = {span["id"]: span["parent"] for span in members}
    cuts = sorted(
        {root["start"], root["end"]}
        | {
            t
            for span in members[1:]
            for t in (span["start"], span["end"])
            if root["start"] <= t <= root["end"]
        }
    )
    share: dict[str, float] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        active = [s for s in members if s["start"] <= mid < s["end"]]
        ancestors = {parent[s["id"]] for s in active}
        leaves = [s for s in active if s["id"] not in ancestors]
        for span in leaves:
            share[span["name"]] = share.get(span["name"], 0.0) + (
                hi - lo
            ) / len(leaves)
    return share
