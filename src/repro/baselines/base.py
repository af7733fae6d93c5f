"""The common generator protocol all models implement.

``fit(graph)`` learns parameters from one observed graph; ``generate()``
samples a new graph.  ``estimated_peak_memory(n)`` powers the OOM simulation
of Tables III/IV/VII–IX: the paper's baselines fail on large graphs because
they materialise dense O(n²) intermediates on a 24 GB GPU — we reproduce the
pattern by accounting for the same intermediates against a configurable
byte budget (see :mod:`repro.bench.memory`).
"""

from __future__ import annotations

import abc

import numpy as np

from ..graphs import Graph

__all__ = ["GraphGenerator", "NotFittedError", "MemoryBudgetExceeded"]


class NotFittedError(RuntimeError):
    """Raised when ``generate`` is called before ``fit``."""


class MemoryBudgetExceeded(MemoryError):
    """Raised when a model's working set would not fit the memory budget.

    Mirrors the "OOM" table entries of the paper.
    """

    def __init__(self, model: str, required: int, budget: int) -> None:
        super().__init__(
            f"{model} needs ~{required / 2**20:.0f} MiB "
            f"but the budget is {budget / 2**20:.0f} MiB"
        )
        self.model = model
        self.required = required
        self.budget = budget


class GraphGenerator(abc.ABC):
    """Abstract base for every graph generative model in this repo."""

    #: Display name used in benchmark tables.
    name: str = "generator"

    #: True for models trained through the NumPy autograd (their real peak
    #: RSS is the analytic estimate times ~NUMPY_TRAINING_OVERHEAD, because
    #: define-by-run retains all forward intermediates during backward).
    uses_autograd_training: bool = False

    def __init__(self) -> None:
        self._observed: Graph | None = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def fit(self, graph: Graph) -> "GraphGenerator":
        """Learn parameters from one observed graph. Returns ``self``."""

    @abc.abstractmethod
    def generate(self, seed: int = 0) -> Graph:
        """Sample one new graph with the fitted node count."""

    # ------------------------------------------------------------------
    def _mark_fitted(self, graph: Graph) -> None:
        self._observed = graph

    def _require_fitted(self) -> Graph:
        if self._observed is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return self._observed

    # ------------------------------------------------------------------
    def estimated_peak_memory(self, num_nodes: int) -> int:
        """Bytes of the dominant working set when handling ``num_nodes``.

        Defaults to O(n) — traditional models stream edges.  Models with
        dense-matrix training (VGAE/Graphite/SBMGNN/MMSB/NetGAN/GraphRNN)
        override this with their O(n²)-style terms.
        """
        return 64 * num_nodes

    def generate_many(self, count: int, seed: int = 0) -> list[Graph]:
        """Sample ``count`` graphs with consecutive seeds."""
        return [self.generate(seed=seed + i) for i in range(count)]


def rng_from_seed(seed: int | np.random.Generator) -> np.random.Generator:
    """Accept an int seed or pass through an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
