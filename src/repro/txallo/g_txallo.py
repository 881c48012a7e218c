"""G-TxAllo — Algorithm 1 of the paper.

Two phases over the full transaction graph:

1. **Initialization**: Louvain produces ``l`` communities (data-driven,
   usually ``l > k``). The ``k`` largest by workload σ become the shards;
   every node of the remaining small communities is absorbed into the
   shard with the largest *join* throughput gain (Eq. 6; the emptied
   small communities are irrelevant to Λ, so the leave side is skipped).
2. **Optimization**: sequential local-move sweeps over all nodes in
   ascending node order, moving each node to the candidate community
   (Eq. 9) with the largest total gain Eq. (8) when positive, until the
   per-sweep accumulated gain ΔΛ drops below ε.

Deterministic: fixed sweep order, first-max tie-breaking toward the
smallest shard label.
"""
from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Adjacency
from repro.louvain import louvain
from repro.metrics.graphlevel import community_state
from repro.txallo.state import TxAlloState


def _rank_communities(init: np.ndarray, sigma_init: np.ndarray, k: int) -> np.ndarray:
    """Map Louvain labels to shard labels: the k largest-σ communities get
    labels 0..k-1 (by descending σ, ties by original label); the rest -1."""
    order = np.argsort(-sigma_init, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    shard_of_comm = np.where(rank < k, rank, -1)
    return shard_of_comm[init]


def g_txallo(
    adj: Adjacency,
    *,
    k: int,
    eta: float,
    lam: float,
    eps: float | None = None,
    max_sweeps: int = 100,
    init_labels: np.ndarray | None = None,
) -> np.ndarray:
    """Run Algorithm 1; returns shard labels in ``[0, k)`` per node index.

    ``eps`` defaults to the paper's ``1e-5 · |T|`` (total graph weight =
    number of transactions). ``init_labels`` overrides the Louvain
    initialization (used by tests).
    """
    if eps is None:
        eps = 1e-5 * adj.total_weight
    init = louvain(adj) if init_labels is None else np.asarray(init_labels)
    n_comm = int(init.max()) + 1 if len(init) else 0
    sigma_init, _ = community_state(adj, init, n_comm, eta=eta)
    labels = _rank_communities(init, sigma_init, k)

    state = TxAlloState(adj, labels, k, eta=eta, lam=lam)
    small = np.nonzero(labels < 0)[0]  # ascending node order => deterministic
    state.sweep(small, np.arange(adj.n), eps, max_sweeps)
    return state.labels
