"""Tests for out-of-core streaming generation (paper §III-H future work)."""

import numpy as np
import pytest

from repro.core import CPGAN, CPGANConfig
from repro.datasets import community_graph
from repro.graphs import read_edge_list


@pytest.fixture(scope="module")
def trained():
    graph, __ = community_graph(120, 5, 6.0, seed=0)
    config = CPGANConfig(
        input_dim=4, node_embedding_dim=8, hidden_dim=16, latent_dim=8,
        pool_size=8, epochs=20, sample_size=120, seed=0,
    )
    return CPGAN(config).fit(graph), graph


class TestStreamingGeneration:
    def test_writes_readable_edge_list(self, trained, tmp_path):
        model, graph = trained
        path = tmp_path / "streamed.txt"
        written = model.generate_to_file(path, seed=0)
        loaded = read_edge_list(path)
        assert loaded.num_nodes == graph.num_nodes
        assert loaded.num_edges == written
        assert written > 0

    def test_edge_budget_respected(self, trained, tmp_path):
        model, graph = trained
        path = tmp_path / "streamed.txt"
        written = model.generate_to_file(path, seed=1)
        assert written <= graph.num_edges
        assert written >= 0.5 * graph.num_edges

    def test_no_duplicate_edges(self, trained, tmp_path):
        model, __ = trained
        path = tmp_path / "streamed.txt"
        model.generate_to_file(path, seed=2)
        lines = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(lines) == len(set(lines))

    def test_larger_output_than_training_graph(self, trained, tmp_path):
        model, graph = trained
        path = tmp_path / "big.txt"
        model.generate_to_file(path, seed=0, num_nodes=300)
        loaded = read_edge_list(path)
        assert loaded.num_nodes == 300

    def test_flush_interval_small(self, trained, tmp_path):
        """Tiny flush buffer exercises the incremental-write path."""
        model, graph = trained
        path = tmp_path / "flush.txt"
        written = model.generate_to_file(path, seed=0, flush_every=7)
        assert read_edge_list(path).num_edges == written

    def test_streamed_identical_to_in_memory(self, trained, tmp_path):
        """Streaming shares the in-memory pipeline: same seed, same graph."""
        from repro.metrics import evaluate_community_preservation

        model, graph = trained
        path = tmp_path / "streamed.txt"
        model.generate_to_file(path, seed=0)
        streamed = read_edge_list(path)
        in_memory = model.generate(seed=0)
        assert np.array_equal(streamed.edge_array(), in_memory.edge_array())
        report_s = evaluate_community_preservation(graph, streamed)
        report_m = evaluate_community_preservation(graph, in_memory)
        assert report_s.nmi == report_m.nmi
        assert report_s.nmi > 0.15


class TestShardedStreaming:
    """generate_to_file into a shard directory: same edges, bounded files."""

    @pytest.mark.parametrize("fmt", ["edgelist", "csr"])
    def test_sharded_output_equals_in_memory(self, trained, tmp_path, fmt):
        import json

        model, __ = trained
        out = tmp_path / f"shards_{fmt}"
        written = model.generate_to_file(
            out, seed=4, shard_edges=25, shard_format=fmt
        )
        in_memory = model.generate(seed=4)
        assert written == in_memory.num_edges
        loaded = read_edge_list(out)  # directory → shard reader
        assert np.array_equal(loaded.edge_array(), in_memory.edge_array())
        meta = json.loads((out / "meta.json").read_text())
        assert meta["num_edges"] == written
        assert meta["seed"] == 4
        assert len(meta["shards"]) >= 2

    def test_single_file_sidecar_records_provenance(self, trained, tmp_path):
        import json

        model, __ = trained
        path = tmp_path / "single.txt"
        written = model.generate_to_file(path, seed=5)
        meta = json.loads((tmp_path / "single.txt.meta.json").read_text())
        assert meta["kind"] == "edge_list"
        assert meta["num_edges"] == written
        assert meta["seed"] == 5
        assert meta["dtype"] in ("float64", "float32")

    def test_float32_generation_deterministic(self, trained, tmp_path):
        model, __ = trained
        cfg = model.generation_config(
            generation_mode="sparse",
            generation_dtype="float32",
            latent_source="prior",
        )
        a = model.generate(seed=9, config=cfg)
        b = model.generate(seed=9, config=cfg)
        assert np.array_equal(a.edge_array(), b.edge_array())
        assert a.num_edges > 0
        degrees = np.bincount(a.edge_array().ravel(), minlength=a.num_nodes)
        assert (degrees > 0).all()

    def test_float32_sharded_file_matches_float32_in_memory(
        self, trained, tmp_path
    ):
        model, __ = trained
        cfg = model.generation_config(
            generation_mode="sparse",
            generation_dtype="float32",
            latent_source="prior",
        )
        out = tmp_path / "f32_shards"
        written = model.generate_to_file(
            out, seed=6, config=cfg, shard_edges=30
        )
        in_memory = model.generate(seed=6, config=cfg)
        assert written == in_memory.num_edges
        assert np.array_equal(
            read_edge_list(out).edge_array(), in_memory.edge_array()
        )

    @pytest.mark.parametrize(
        "overrides",
        [{"generation_mode": "dense"}, {"assembly_strategy": "bernoulli"}],
        ids=["dense", "bernoulli"],
    )
    def test_dense_reference_streams_generate_edges(
        self, trained, tmp_path, overrides
    ):
        """The dense reference streams exactly generate's edges, and its
        sidecar records the float64 it scores in even under a float32
        config (it has no float32 path)."""
        import json

        model, __ = trained
        cfg = model.generation_config(generation_dtype="float32", **overrides)
        path = tmp_path / "dense.txt"
        written = model.generate_to_file(path, seed=3, config=cfg)
        in_memory = model.generate(seed=3, config=cfg)
        assert written == in_memory.num_edges
        assert np.array_equal(
            read_edge_list(path).edge_array(), in_memory.edge_array()
        )
        meta = json.loads((tmp_path / "dense.txt.meta.json").read_text())
        assert meta["dtype"] == "float64"
