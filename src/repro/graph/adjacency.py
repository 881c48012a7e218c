"""Driver-side CSR adjacency built from the aggregated edge DataFrame.

The sequential kernels (Louvain, G-/A-TxAllo sweeps, METIS-like
refinement) are deterministic serial algorithms per the paper's §IV-A, so
they run on collected numpy arrays. Spark produces the aggregated edge
list; this module gives it a compact, deterministic in-memory shape:

- ``nodes``: sorted unique account ids; a node's *index* into every other
  array is its position here (deterministic — the paper suggests ordering
  nodes by account hash; we order by account id, equally deterministic).
- CSR over non-self edges (both directions), ``self_w`` for self-loops.
- flat directed edge arrays ``ev/eu/ew`` (each undirected edge appears
  twice) for vectorized per-community aggregation with ``np.bincount``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


class CSRLists(NamedTuple):
    """The CSR as tuples of Python scalars for the pure-Python sweep
    kernels, where indexing a tuple costs a fraction of reading a numpy
    scalar."""

    indptr: tuple[int, ...]
    indices: tuple[int, ...]
    weights: tuple[float, ...]
    self_w: tuple[float, ...]
    strength: tuple[float, ...]


@dataclass
class Adjacency:
    """Compact undirected weighted graph with self-loops.

    ``strength[v]`` is ``s_v = Σ_{u≠v} w_{v,u}`` (self-loops excluded);
    the paper's ``w_{v,V/v}``. Total graph weight (each undirected edge
    once + self-loops once) equals the number of transactions.
    """

    nodes: np.ndarray  # int64, sorted account ids
    indptr: np.ndarray  # int64, len n+1
    indices: np.ndarray  # int32/int64 neighbor node-indices
    weights: np.ndarray  # float64 edge weights, aligned with indices
    self_w: np.ndarray  # float64, per-node self-loop weight
    ev: np.ndarray = field(repr=False)  # directed edge source index
    eu: np.ndarray = field(repr=False)  # directed edge target index
    ew: np.ndarray = field(repr=False)  # directed edge weight

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def strength(self) -> np.ndarray:
        """s_v: total incident weight excluding self-loops.

        Computed once and shared by every caller, so it is read-only."""
        s = np.bincount(self.ev, weights=self.ew, minlength=self.n)
        s.flags.writeable = False
        return s

    @cached_property
    def lists(self) -> CSRLists:
        """The CSR as tuples, converted once and shared by every kernel run
        on this graph (G-/A-TxAllo sweeps, Louvain's first level)."""
        arrays = (self.indptr, self.indices, self.weights, self.self_w, self.strength)
        return CSRLists(*(tuple(a.tolist()) for a in arrays))

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights + self-loop weights (= |T|)."""
        return float(self.ew.sum() / 2.0 + self.self_w.sum())

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor indices, weights) of node index ``v``, self excluded."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def index_of(self, accounts: np.ndarray) -> np.ndarray:
        """Map account ids to node indices (must all be present)."""
        return index_of(self.nodes, accounts)


def index_of(nodes: np.ndarray, accounts: np.ndarray) -> np.ndarray:
    """Positions of ``accounts`` in the sorted ``nodes``; ``KeyError``
    when any account is missing."""
    accounts = np.asarray(accounts)
    idx = np.searchsorted(nodes, accounts)
    found = idx < len(nodes)
    found[found] = nodes[idx[found]] == accounts[found]
    if not found.all():
        raise KeyError(f"accounts not in graph: {accounts[~found][:5]}...")
    return idx


def adjacency_from_pandas(edges: pd.DataFrame) -> Adjacency:
    """Build an :class:`Adjacency` from an aggregated ``(src,dst,weight)``
    edge frame (canonical ``src <= dst``, unique pairs)."""
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    w = edges["weight"].to_numpy(np.float64)

    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)

    loop = si == di
    self_w = np.zeros(n)
    np.add.at(self_w, si[loop], w[loop])

    nsi, ndi, nw = si[~loop], di[~loop], w[~loop]
    ev = np.concatenate([nsi, ndi])
    eu = np.concatenate([ndi, nsi])
    ew = np.concatenate([nw, nw])

    indptr, eu, ew = csr(n, ev, eu, ew)
    return Adjacency(
        nodes=nodes,
        indptr=indptr,
        indices=eu.copy(),
        weights=ew.copy(),
        self_w=self_w,
        ev=np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)),
        eu=eu,
        ew=ew,
    )


def csr(
    n: int, ev: np.ndarray, eu: np.ndarray, ew: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, weights)`` of ``n`` nodes from directed edge
    arrays; each row's neighbours are in ascending node order."""
    # Sort by (ev, eu) through one packed key; stable, so equal pairs keep
    # their input order.
    order = np.argsort(ev * n + eu, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, ev + 1, 1)
    return np.cumsum(indptr), eu[order], ew[order]


def to_adjacency(edges_df: DataFrame) -> Adjacency:
    """Collect an aggregated Spark edge DataFrame into an Adjacency.

    Bounded collect: the aggregated account graph at our scale factors is
    O(100k) rows (at the paper's full 12.6M-account scale it is ~GBs and
    still fits the driver, matching the authors' single-node runs).
    """
    pdf = edges_df.select("src", "dst", "weight").toPandas()
    return adjacency_from_pandas(pdf)
