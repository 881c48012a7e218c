"""Deterministic weighted Louvain (Blondel et al. 2008) on CSR arrays.

G-TxAllo's initialization phase (Algorithm 1, line 1) runs Louvain on the
transaction graph. The paper requires determinism (§IV-A): every miner
must derive the identical community structure with no coordination. This
implementation is deterministic given the node order — nodes are swept in
ascending node-index order (node ids are sorted account ids) and ties are
broken toward the smallest community label.

Standard modularity conventions: node degree ``k_v = s_v + 2·w_{v,v}``
(self-loops count twice), ``2m = Σ k_v``; local move gain for community C
(with v removed) is ``w_{v,C} - k_v·Σ_tot(C)/2m`` (modularity gain × m).
Levels coarsen communities into supernodes until a sweep makes no moves.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.graph.adjacency import Adjacency, csr


def modularity(adj: Adjacency, labels: np.ndarray) -> float:
    """Newman modularity Q of a labeling, for tests and sanity checks."""
    labels = np.asarray(labels)
    deg = adj.strength + 2.0 * adj.self_w
    m2 = deg.sum()
    if m2 == 0:
        return 0.0
    intra2 = adj.ew[labels[adj.ev] == labels[adj.eu]].sum()  # 2x intra (no self)
    intra = intra2 / 2.0 + adj.self_w.sum()
    n_comm = int(labels.max()) + 1
    comm_deg = np.bincount(labels, weights=deg, minlength=n_comm)
    return float(2.0 * intra / m2 - np.sum((comm_deg / m2) ** 2))


def _sweep_until_stable(
    ptr: Sequence[int],
    ind: Sequence[int],
    wl: Sequence[float],
    dl: list[float],
    m2: float,
    max_sweeps: int,
) -> tuple[np.ndarray, bool]:
    """Run local-move sweeps on one level; returns (labels, any_move).

    A fused pure-Python loop over Python copies of the CSR
    ``(indptr, indices, weights)`` and the node degrees: most nodes of a
    transaction graph have a handful of neighbours, so per-node numpy
    calls (~25 µs each) would cost far more than the work itself.
    Neighbour weights are summed per community in CSR order and
    candidates are scanned in ascending label order with a strict ``>``,
    so ties go to the smallest label. Both orders fix every float
    rounding; ``tests/test_golden_labels.py`` pins the labels byte for
    byte.
    """
    n = len(ptr) - 1
    labels = list(range(n))
    comm_deg = list(dl)
    any_move = False
    for _ in range(max_sweeps):
        moved = 0
        for v in range(n):
            lo, hi = ptr[v], ptr[v + 1]
            c_old = labels[v]
            d_v = dl[v]
            # Remove v from its community before scoring. The subtract/add
            # pair stays even when v does not move: (a - d) + d need not
            # round back to a, and the pinned labels depend on it.
            comm_deg[c_old] -= d_v
            acc: dict[int, float] = {}
            for u, w in zip(ind[lo:hi], wl[lo:hi]):
                c = labels[u]
                acc[c] = acc.get(c, 0.0) + w
            best, best_gain = c_old, -math.inf
            own_gain = -d_v * comm_deg[c_old] / m2
            for c in sorted(acc):
                gain = acc[c] - d_v * comm_deg[c] / m2
                if c == c_old:
                    own_gain = gain
                if gain > best_gain:
                    best, best_gain = c, gain
            if best_gain > own_gain + 1e-12 and best != c_old:
                labels[v] = best
                comm_deg[best] += d_v
                moved += 1
            else:
                comm_deg[c_old] += d_v
        if moved:
            any_move = True
        else:
            break
    return np.array(labels, dtype=np.int64), any_move


def _coarsen(
    labels: np.ndarray,
    ev: np.ndarray,
    eu: np.ndarray,
    ew: np.ndarray,
    self_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate communities into supernodes; returns compacted
    (node_map, ev, eu, ew, self_w) of the coarse graph."""
    uniq, node_map = np.unique(labels, return_inverse=True)
    nc = len(uniq)
    cev, ceu = node_map[ev], node_map[eu]
    loop = cev == ceu
    coarse_self = np.bincount(node_map, weights=self_w, minlength=nc)
    coarse_self += np.bincount(cev[loop], weights=ew[loop], minlength=nc) / 2.0
    keep = ~loop
    cev, ceu, kw = cev[keep], ceu[keep], ew[keep]
    key = cev.astype(np.int64) * nc + ceu
    uk, inv = np.unique(key, return_inverse=True)
    agg_w = np.bincount(inv, weights=kw)
    return node_map, (uk // nc), (uk % nc), agg_w, coarse_self


def louvain(adj: Adjacency, *, max_levels: int = 20, max_sweeps: int = 20) -> np.ndarray:
    """Community labels (compact, 0-based) for every node of ``adj``.

    Deterministic; the number of communities is data-driven (typically
    ≫ k for long-tailed transaction graphs, per the paper §V-B).
    """
    ev, eu, ew, self_w = adj.ev, adj.eu, adj.ew, adj.self_w
    result = np.arange(adj.n, dtype=np.int64)
    # The first level sweeps the graph's own cached CSR lists; each
    # coarser level builds its CSR from the aggregated edges.
    ptr, ind, wl = adj.lists.indptr, adj.lists.indices, adj.lists.weights

    for level in range(max_levels):
        nn = len(self_w)
        deg = np.bincount(ev, weights=ew, minlength=nn) + 2.0 * self_w
        m2 = float(deg.sum())
        if m2 <= 0:
            break
        if level:
            ptr, ind, wl = (a.tolist() for a in csr(nn, ev, eu, ew))
        labels, any_move = _sweep_until_stable(ptr, ind, wl, deg.tolist(), m2, max_sweeps)
        node_map, ev, eu, ew, self_w = _coarsen(labels, ev, eu, ew, self_w)
        result = _compose(result, labels, node_map)
        if not any_move or len(self_w) == nn:
            break
    # Compact final labels to 0..n_comm-1 preserving order of first use.
    _, compact = np.unique(result, return_inverse=True)
    return compact


def _compose(result: np.ndarray, labels: np.ndarray, node_map: np.ndarray) -> np.ndarray:
    """original node -> current coarse node, through this level's moves."""
    return node_map[labels[result]]
