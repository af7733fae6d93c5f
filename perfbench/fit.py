"""``fit``: ``CPGAN.fit`` on the citeseer stand-in, ``EPOCHS`` epochs a model.

Runs in a fresh child process (this file as a script) so its peak RSS is
training alone.  Models with initialisation seeds 0, 1, 2, ... are fitted
until the run's time is spent: the training job is fixed, like the
stand-in.  Every epoch is timed from the trainer's callbacks, and a
model's set-up is everything before its first epoch (data load, model
construction, spectral features, Louvain ground truth).  The run seed
picks the generation seeds of the quality samples drawn from the first
``QUALITY_MODELS`` models, so quality compares the same trained models
in every run.

With tracing on, the same seeds are fitted again with layer spans
installed; their loss traces must equal the untraced ones bit for bit.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from repro.core import CPGAN, CPGANConfig
from repro.train import Callback

import common
import tracing

EPOCHS = 40
MIN_FITS = 4
QUALITY_MODELS = 4
SAMPLES_PER_MODEL = 16


class _Clock(Callback):
    """Trainer callback stamping the end of set-up and every epoch."""

    def __init__(self) -> None:
        self.fit_start = 0.0
        self.epochs: list[float] = []
        self._epoch_start = 0.0

    def on_fit_start(self, trainer, state) -> None:
        self.fit_start = time.perf_counter()

    def on_epoch_start(self, trainer, state) -> None:
        self._epoch_start = time.perf_counter()

    def on_epoch_end(self, trainer, state) -> None:
        self.epochs.append(time.perf_counter() - self._epoch_start)


def _fit_one(seed: int, recorder=None) -> tuple[dict, object]:
    clock = _Clock()
    span = (
        recorder.span("fit.model", root=True)
        if recorder is not None
        else nullcontext({})
    )
    began = time.perf_counter()
    with span as root:
        graph = common.observed_graph()
        model = CPGAN(CPGANConfig(epochs=EPOCHS, seed=seed))
        model.fit(graph, callbacks=[clock])
    record = {
        "seed": seed,
        "setup_s": clock.fit_start - began,
        "epochs": clock.epochs,
        "wall_s": time.perf_counter() - began,
        "root": root.get("id"),
        "history": model.history.as_dict(),
    }
    return record, model


def _fits(count, seconds, recorder=None, sample_seed=None):
    """Fit models with seeds 0, 1, ... until ``seconds`` pass (at least
    ``MIN_FITS``) or ``count`` are done.  With ``sample_seed``, the first
    ``QUALITY_MODELS`` models each draw ``SAMPLES_PER_MODEL`` graphs."""
    fits, samples, began = [], [], time.perf_counter()
    for seed in range(count):
        if seconds is not None and (
            seed >= MIN_FITS and time.perf_counter() - began >= seconds
        ):
            break
        record, model = _fit_one(seed, recorder)
        fits.append(record)
        if sample_seed is not None and seed < QUALITY_MODELS:
            samples += [
                model.generate(seed=sample_seed + i)
                for i in range(SAMPLES_PER_MODEL)
            ]
    return fits, samples


def child_main(args: dict) -> None:
    result: dict = {}
    problems: list[str] = []
    seconds = args["seconds"] / 2 if args["trace"] else args["seconds"]
    plain, samples = _fits(10_000, seconds, sample_seed=args["seed"] * 1000)
    result["peak_rss_mb"] = common.peak_rss_mb()
    if args["trace"]:
        recorder = tracing.Recorder()
        restore = tracing.install(recorder, tracing.TRAINING_LAYERS)
        try:
            traced, __ = _fits(len(plain), None, recorder)
        finally:
            restore()
        for a, b in zip(plain, traced):
            if a["history"] != b["history"]:
                problems.append(f"traced fit of seed {a['seed']} diverged")
        result["layers"] = _layer_metrics(traced, recorder.spans)
        result["overhead_frac"] = (
            sum(f["wall_s"] for f in traced) / sum(f["wall_s"] for f in plain)
            - 1.0
        )
    for fit in plain:
        for name, trace in fit["history"].items():
            if not all(math.isfinite(value) for value in trace):
                problems.append(f"seed {fit['seed']}: non-finite {name} loss")
    observed = common.observed_graph()
    result["quality"] = {
        **common.partition_quality(observed, samples),
        **common.structure_quality(observed, samples),
    }
    result["fits"] = [
        {"setup_s": f["setup_s"], "epochs": f["epochs"], "wall_s": f["wall_s"]}
        for f in plain
    ]
    result["problems"] = problems
    Path(args["result"]).write_text(json.dumps(result))


def _layer_metrics(fits: list[dict], spans: list[dict]) -> dict:
    """Median over traced fits of each training layer's busy seconds."""
    per_fit: dict[str, list[float]] = {}
    shares = []
    for fit in fits:
        root = next(s for s in spans if s["id"] == fit["root"])
        members = tracing.descendants(spans, root["id"])
        for name, value in common.setup_layer_metrics(members).items():
            per_fit.setdefault(name, []).append(value)
        blocking = tracing.blocking_attribution(root, spans)
        shares.append(sum(blocking.values()) / fit["wall_s"])
    values = {name: common.median(v) for name, v in per_fit.items()}
    values["trace.self_sum_frac"] = common.median(shares)
    return values


def run(seed: int, seconds: float, trace: bool, work: Path):
    child = common.run_child(
        "fit.py",
        {"seed": seed, "seconds": seconds, "trace": trace},
        work,
        timeout=150,
    )
    fits = child["fits"]
    epochs = [t for fit in fits for t in fit["epochs"]]
    problems = child["problems"]
    values = {
        "setup_s": common.median([fit["setup_s"] for fit in fits]),
        "ops_per_s": 1.0 / common.median(epochs),
        "peak_rss_mb": child["peak_rss_mb"],
        "epoch_s_p50": common.median(epochs),
        "epoch_count": len(epochs),
        **child["quality"],
    }
    if trace:
        values.update(child["layers"])
        values["trace.overhead_frac"] = child["overhead_frac"]
    return values, len(fits), len(problems), problems


if __name__ == "__main__":
    child_main(json.loads(Path(sys.argv[1]).read_text()))
