"""Cross-community edge stitching via factored rejection sampling.

One community-pair block ``A × B`` at a time: draw the budgeted number of
*distinct* cross edges from the sharpened categorical
``P(u, v) ∝ sigmoid(g_u · g_v)²`` over the block — the same target family
as the factored isolated-node repair sampler (reproducibility contract
v2) — without ever materialising the ``n_A × n_B`` score block.

Proposal scheme: ``u`` uniform over ``A``, ``v`` from the norm-bound
envelope over ``B`` (:meth:`~repro.core.decoder.PairScorer.partner_envelope`
at the max source norm of ``A``), accepted with probability
``sigmoid(g_u · g_v)² / e_B(v)`` from a single dot product.  The envelope
dominates every sharpened score a source in ``A`` can assign
(Cauchy–Schwarz + monotone sigmoid), so an accepted proposal is an exact
draw from the block's normalised target.  Already-drawn pairs are
rejected, which is sampling without replacement by rejection.

Each of the first :data:`_MAX_ROUNDS` rounds proposes exactly as many
pairs as are still missing, so late rounds propose only a handful and an
unlucky block can end them a few edges short.  A block that is still
short but far from capacity (``2·budget ≤ n_A·n_B``) keeps drawing
rejection rounds of at least :data:`_TAIL_PROPOSALS` proposals, taking
the accepted pairs in proposal order.  Only a block near capacity, or
one still short after :data:`_TAIL_ROUNDS` such rounds, fills
deterministically with the highest-scoring unused pairs — telemetry
records how many edges took that path.
"""

from __future__ import annotations

import numpy as np

from ..core.decoder import PairScorer, pair_feature_norms
from ..nn.tensor import _stable_sigmoid

__all__ = ["sample_cross_edges"]

#: Rejection rounds that each propose exactly the missing edge count.
_MAX_ROUNDS = 64

#: Further rounds for a block still short but far from capacity, each
#: proposing at least ``_TAIL_PROPOSALS`` pairs, before the fill.
_TAIL_ROUNDS = 64
_TAIL_PROPOSALS = 256

#: Element budget of one chunked scoring matmul on the fill path.
_FILL_CHUNK_ELEMENTS = 1 << 18


def _fill_top_scores(
    ga: np.ndarray, gb: np.ndarray, chosen: np.ndarray, budget: int
) -> np.ndarray:
    """Top up ``chosen`` to ``budget`` codes with the best unused pairs."""
    n_a, n_b = ga.shape[0], gb.shape[0]
    need = budget - chosen.size
    chunk = max(1, _FILL_CHUNK_ELEMENTS // max(n_b, 1))
    best_scores = np.zeros(0, dtype=np.float64)
    best_codes = np.zeros(0, dtype=np.int64)
    cols = np.arange(n_b, dtype=np.int64)
    for start in range(0, n_a, chunk):
        stop = min(start + chunk, n_a)
        scores = _stable_sigmoid(ga[start:stop] @ gb.T, overwrite_input=True)
        codes = (
            np.arange(start, stop, dtype=np.int64)[:, None] * n_b + cols
        ).ravel()
        keep = ~np.isin(codes, chosen)
        scores = np.asarray(scores, dtype=np.float64).ravel()[keep]
        codes = codes[keep]
        scores = np.concatenate([best_scores, scores])
        codes = np.concatenate([best_codes, codes])
        if scores.size > need:
            part = np.argpartition(scores, -need)[-need:]
            best_scores, best_codes = scores[part], codes[part]
        else:
            best_scores, best_codes = scores, codes
    return np.concatenate([chosen, best_codes])


def sample_cross_edges(
    g: np.ndarray,
    members_a: np.ndarray,
    members_b: np.ndarray,
    budget: int,
    rng: np.random.Generator,
    _stats: dict | None = None,
) -> np.ndarray:
    """Draw ``budget`` distinct cross edges between two community blocks.

    ``g`` is the global pair-feature matrix; ``members_a``/``members_b``
    the global node ids of the two communities.  Returns a canonical
    ``(budget, 2)`` array with ``u < v`` per row (unsorted — the pipeline
    lexsorts the union).  The draw is a pure function of ``(rng state,
    g, members, budget)``: worker scheduling never enters.
    """
    members_a = np.asarray(members_a, dtype=np.int64)
    members_b = np.asarray(members_b, dtype=np.int64)
    n_a, n_b = members_a.size, members_b.size
    budget = int(min(budget, n_a * n_b))
    if budget <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    ga = np.ascontiguousarray(g[members_a])
    gb = np.ascontiguousarray(g[members_b])
    scorer_b = PairScorer(gb)
    scale = float(pair_feature_norms(ga).max())
    env = scorer_b.partner_envelope(scale)
    env_cdf = np.cumsum(env, dtype=np.float64)
    total = float(env_cdf[-1])

    chosen = np.zeros(0, dtype=np.int64)  # codes i·n_b + j, i∈A, j∈B
    rounds = 0
    proposals = 0
    max_rounds = _MAX_ROUNDS
    if 2 * budget <= n_a * n_b:
        max_rounds += _TAIL_ROUNDS
    while chosen.size < budget and rounds < max_rounds:
        need = budget - chosen.size
        # A tail round can accept more than ``need``: it keeps the first
        # ``need`` new pairs in proposal order (sorted order would favour
        # low ids).  Within the first rounds at most ``need`` are accepted.
        draw = need if rounds < _MAX_ROUNDS else max(need, _TAIL_PROPOSALS)
        rounds += 1
        proposals += draw
        iu = rng.integers(0, n_a, size=draw)
        jv = np.searchsorted(env_cdf, rng.random(draw) * total)
        np.minimum(jv, n_b - 1, out=jv)
        logits = np.einsum("ij,ij->i", ga[iu], gb[jv])
        w = _stable_sigmoid(logits, overwrite_input=True)
        sharpened = np.square(np.asarray(w, dtype=np.float64))
        accept = rng.random(draw) * env[jv] < sharpened
        codes = iu[accept] * n_b + jv[accept]
        if codes.size:
            __, first = np.unique(codes, return_index=True)
            codes = codes[np.sort(first)]
            codes = codes[~np.isin(codes, chosen)][:need]
            chosen = np.concatenate([chosen, codes])
    filled = budget - chosen.size
    if filled:
        chosen = _fill_top_scores(ga, gb, chosen, budget)
    if _stats is not None:
        _stats["cross_proposals"] = proposals
        _stats["cross_rounds"] = rounds
        _stats["cross_filled"] = filled
    iu, jv = chosen // n_b, chosen % n_b
    u = members_a[iu]
    v = members_b[jv]
    return np.column_stack([np.minimum(u, v), np.maximum(u, v)])
