"""Print a sha256 digest of generated graphs across the generation modes.

One line per case (``<case> <sha256>``) and a final ``combined`` line
over all of them.  Running the script on two checkouts and comparing the
``combined`` lines checks that a change keeps every generated graph
byte-identical.  The matrix covers:

* flat (sparse) generation: float64/float32 scoring x dense/factored
  repair x 1/2 kernel threads, at each size in ``--sizes``;
* hierarchical generation, float64 and float32, at each size;
* ``generate_batch`` over three seeds, float64 and float32;
* ``generate_to_file`` writing CSR shards plus the manifest.

The model is the benchmark's stand-in (CPGAN fitted on the ~200-node
citeseer stand-in, 45 epochs, seed 0) unless ``--model`` names a saved
archive.  Digests are only comparable on one machine: float32 GEMM bits
may differ across CPU microarchitectures, so no digest is pinned in CI.

Usage::

    PYTHONPATH=src python scripts/generation_digest.py
    PYTHONPATH=src python scripts/generation_digest.py --sizes fitted,1000,100000
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core import CPGAN, CPGANConfig, load_model
from repro.datasets import load

DEFAULT_SIZES = "fitted,1000,5000,30000"
BATCH_SEEDS = (0, 1, 2)
BATCH_NODES = 5000
FILE_NODES = 30000


def standin_model() -> CPGAN:
    graph = load("citeseer", scale=0.06, seed=0).graph
    return CPGAN(CPGANConfig(epochs=45, seed=0)).fit(graph)


def graph_digest(graph) -> str:
    digest = hashlib.sha256(str(graph.num_nodes).encode())
    digest.update(np.ascontiguousarray(graph.edge_array(), dtype=np.int64).tobytes())
    return digest.hexdigest()


def directory_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(path.iterdir()):
        digest.update(item.name.encode())
        digest.update(item.read_bytes())
    return digest.hexdigest()


def cases(model: CPGAN, sizes: list[int | None], workdir: Path):
    """Yield ``(case name, sha256)`` for every cell of the matrix."""

    def label(n: int | None) -> str:
        return "fitted" if n is None else str(n)

    for dtype in ("float64", "float32"):
        for sampler in ("dense", "factored"):
            for threads in (1, 2):
                cfg = model.generation_config(
                    generation_mode="sparse",
                    generation_dtype=dtype,
                    repair_sampler=sampler,
                    generation_threads=threads,
                )
                for n in sizes:
                    graph = model.generate(seed=0, num_nodes=n, config=cfg)
                    name = f"flat/{dtype}/{sampler}/t{threads}/n={label(n)}"
                    yield name, graph_digest(graph)
    for dtype in ("float64", "float32"):
        cfg = model.generation_config(
            generation_mode="hierarchical", generation_dtype=dtype
        )
        for n in sizes:
            graph = model.generate(seed=0, num_nodes=n, config=cfg)
            yield f"hier/{dtype}/n={label(n)}", graph_digest(graph)
    for dtype in ("float64", "float32"):
        cfg = model.generation_config(
            generation_mode="sparse", generation_dtype=dtype
        )
        graphs = model.generate_batch(BATCH_SEEDS, BATCH_NODES, config=cfg)
        for seed, graph in zip(BATCH_SEEDS, graphs):
            name = f"batch/{dtype}/n={BATCH_NODES}/seed={seed}"
            yield name, graph_digest(graph)
    cfg = model.generation_config(
        generation_mode="sparse",
        generation_dtype="float32",
        repair_sampler="factored",
        generation_threads=2,
    )
    target = workdir / "shards"
    model.generate_to_file(
        target, seed=0, num_nodes=FILE_NODES, config=cfg,
        shard_edges=20_000, shard_format="csr",
    )
    yield f"to_file/csr/float32/n={FILE_NODES}", directory_digest(target)


def parse_sizes(text: str) -> list[int | None]:
    sizes: list[int | None] = []
    for item in text.split(","):
        item = item.strip()
        sizes.append(None if item == "fitted" else int(item))
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", help="saved model archive (default: fit the stand-in)")
    parser.add_argument(
        "--sizes", default=DEFAULT_SIZES,
        help=f"comma-separated node counts; 'fitted' = the fitted size (default {DEFAULT_SIZES})",
    )
    args = parser.parse_args(argv)
    model = load_model(args.model) if args.model else standin_model()
    combined = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for name, digest in cases(model, parse_sizes(args.sizes), Path(work)):
            print(f"{name} {digest}", flush=True)
            combined.update(f"{name} {digest}\n".encode())
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
