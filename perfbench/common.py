"""Shared pieces: paths, the fitted stand-in model, quality, statistics.

Every workload serves or streams the same model: CPGAN fitted on the
~200-node citeseer stand-in (``repro.datasets.load("citeseer",
scale=0.06, seed=0)``).  The observed graph and the fit are fixed assets,
so the run seed reaches the program only through the inputs it generates
(graph seeds, the request schedule); the ``fit`` workload additionally
takes its model-initialisation seeds from the run seed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STANDIN_SCALE = 0.06
STANDIN_SEED = 0
FIT_EPOCHS = 45
SETUP_REPEATS = 3
QUALITY_SAMPLES = 16
NPROC = os.cpu_count() or 1


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["TMPDIR"] = str(work)
    return env


def run_child(script: str, args: dict, work: Path, timeout: float) -> dict:
    """Run ``perfbench/<script>`` in a fresh interpreter; return its result.

    The child reads ``args`` from a JSON file and writes its result JSON
    next to it, so its stdout stays free for diagnostics.
    """
    args_path = work / f"{script}.args.json"
    out_path = work / f"{script}.result.json"
    args_path.write_text(json.dumps({**args, "result": str(out_path)}))
    proc = subprocess.run(
        [sys.executable, str(HERE / script), str(args_path)],
        cwd=ROOT,
        env=child_env(work),
        timeout=timeout,
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}")
    return json.loads(out_path.read_text())


def peak_rss_mb() -> float:
    """High-water RSS of this process and of its reaped children (MiB)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ----------------------------------------------------------------------
# the stand-in model
# ----------------------------------------------------------------------
def import_program() -> None:
    """Import the program up front, so no set-up timing pays for it."""
    import repro.community  # noqa: F401
    import repro.core  # noqa: F401
    import repro.datasets  # noqa: F401
    import repro.metrics  # noqa: F401


def observed_graph(seed: int = STANDIN_SEED):
    from repro.datasets import load

    return load("citeseer", scale=STANDIN_SCALE, seed=seed).graph


def fit_standin(archive: Path | None = None, epochs: int = FIT_EPOCHS):
    """Load the stand-in, fit CPGAN on it and (optionally) save it."""
    from repro.core import CPGAN, CPGANConfig, save_model

    graph = observed_graph()
    model = CPGAN(CPGANConfig(epochs=epochs, seed=0)).fit(graph)
    if archive is not None:
        save_model(model, archive)
    return model


def timed_setups(setup, repeats: int = SETUP_REPEATS):
    """Run ``setup`` ``repeats`` times; (median seconds, last result)."""
    times, result = [], None
    for _ in range(repeats):
        began = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - began)
    return statistics.median(times), result


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


# ----------------------------------------------------------------------
# quality (computed outside every timed region)
# ----------------------------------------------------------------------
def check_edges(edges: np.ndarray, n: int) -> list[str]:
    """Canonical edge-set checks: u < v, ids below n, no duplicates."""
    problems = []
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return problems
    u, v = edges[:, 0], edges[:, 1]
    if np.any(u == v):
        problems.append("self-loop")
    if np.any(u > v):
        problems.append("edge with u > v")
    if u.min() < 0 or v.max() >= n:
        problems.append("node id out of range")
    keys = np.sort(u * n + v)
    if np.any(keys[1:] == keys[:-1]):
        problems.append("duplicate edge")
    return problems


def isolated_frac(graphs) -> float:
    return float(np.mean([(g.degrees == 0).mean() for g in graphs]))


def partition_quality(observed, samples) -> dict[str, float]:
    """Table III: Louvain on each fitted-size sample against Louvain on
    the observed graph (generated nodes keep their ids), averaged."""
    from repro.community import louvain
    from repro.community.partition_metrics import (
        adjusted_rand_index,
        normalized_mutual_information,
    )

    truth = louvain(observed, seed=0).membership
    nmi, ari = [], []
    for graph in samples:
        labels = louvain(graph, seed=0).membership
        nmi.append(normalized_mutual_information(truth, labels))
        ari.append(adjusted_rand_index(truth, labels))
    return {"quality.nmi": float(np.mean(nmi)), "quality.ari": float(np.mean(ari))}


def structure_quality(observed, outputs) -> dict[str, float]:
    """Table IV degree MMD against the observed graph, and how many of
    the output's nodes have at least one edge."""
    from repro.metrics import degree_mmd

    isolated = isolated_frac(outputs)
    return {
        "quality.degree_mmd": float(degree_mmd([observed], list(outputs))),
        "quality.covered_frac": 1.0 - isolated,
        "quality.isolated_frac": isolated,
    }


def setup_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Busy seconds of the training layers over one traced fit."""
    names = {
        "nn.tensor.backward": "nn.tensor.backward_s",
        "nn.optim.step": "nn.optim.step_s",
        "core.encoder.forward": "core.encoder.forward_s",
        "core.discriminator.forward": "core.discriminator.forward_s",
        "community.louvain": "community.louvain_s",
    }
    totals = dict.fromkeys(names.values(), 0.0)
    for span in spans:
        if span["name"] in names:
            totals[names[span["name"]]] += span["end"] - span["start"]
    return totals
