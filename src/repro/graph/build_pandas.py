"""Driver-side numpy core of :mod:`repro.graph.build` (Def. 2).

The adaptive simulation (paper Figs. 9-10) grows the transaction graph by
one small slice of blocks per time step; launching a Spark job per step
would dominate the measured A-TxAllo run time, so it keeps the graph in an
:class:`EdgeStore`, which folds each slice in at a cost proportional to
the slice. :func:`build_tx_graph_pandas` is the store built from empty.
Both are bit-exact to the per-transaction loop reference kept in
``tests/loop_reference.py`` and equivalence-tested against the Spark
builder in ``tests/test_graph_build.py``.
"""
from itertools import chain

import numpy as np
import pandas as pd


def tx_accounts(tx_pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ``tx_pdf["accounts"]`` into int64 ``(tx, account)`` arrays.

    ``tx`` is the row position of the transaction. Rows are ordered by
    ``(tx, account)`` and repeated accounts within a transaction appear
    once, so each transaction lists its account set ``A_Tx``. A
    transaction with no account has no shard and no edge, so it raises
    ``ValueError``.
    """
    lists = tx_pdf["accounts"].to_list()
    lens = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    if not lens.all():
        raise ValueError(f"transaction at row {int(np.argmin(lens))} has no account")
    acc = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(lens.sum()))
    first = np.cumsum(lens) - lens
    for size in map(int, np.unique(lens[lens > 1])):
        rows = first[lens == size, None] + np.arange(size)
        acc[rows] = np.sort(acc[rows], axis=1)
    tx = np.repeat(np.arange(len(lists), dtype=np.int64), lens)
    keep = np.ones(len(tx), dtype=bool)
    keep[1:] = (tx[1:] != tx[:-1]) | (acc[1:] != acc[:-1])
    return tx[keep], acc[keep]


def _pair_rows(tx_pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Def. 2 pair rows ``(src, dst, weight)`` of ``tx_pdf``, in transaction
    order: a tx with ``n`` distinct accounts yields its ``C(n,2)`` pairs
    ``src < dst`` of weight ``2/(n(n-1))`` each in ``itertools.combinations``
    order; a single-account tx yields a weight-1 self-loop. That is the
    order a per-tx loop emits them in, and the floating-point edge sums
    depend on it."""
    tx, acc = tx_accounts(tx_pdf)
    n = np.bincount(tx, minlength=len(tx_pdf))
    first = np.cumsum(n) - n  # row of each tx's first account
    n_pairs = np.where(n == 1, 1, n * (n - 1) // 2)
    out = np.cumsum(n_pairs) - n_pairs  # row of each tx's first pair
    src = np.empty(int(n_pairs.sum()), dtype=np.int64)
    dst = np.empty_like(src)
    w = np.empty(len(src), dtype=np.float64)
    for size in map(int, np.unique(n)):
        t = np.flatnonzero(n == size)
        if size == 1:
            i = j = np.zeros(1, dtype=np.int64)
            w_pair = 1.0
        else:
            i, j = np.triu_indices(size, 1)
            w_pair = 2.0 / (size * (size - 1))
        rows = out[t, None] + np.arange(len(i))
        src[rows] = acc[first[t, None] + i]
        dst[rows] = acc[first[t, None] + j]
        w[rows] = w_pair
    return src, dst, w


def _sum_by_edge(key: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-edge sums of the pair rows' weights, in ascending ``key`` order.

    The floating-point sum of an edge depends only on its own rows and
    their order, so each edge's rows must arrive in transaction order."""
    return pd.Series(w).groupby(key, sort=True).sum().to_numpy()


class EdgeStore:
    """The aggregated Def. 2 graph of a growing transaction stream.

    Besides the edges, sorted by ``(src, dst)``, the store keeps every pair
    row in transaction order with the position of its edge.
    :meth:`add` re-sums only the edges that the new transactions touch,
    over the edge's old rows followed by its new ones. That is the row
    order a build over the whole stream gives the same edge, so every
    weight is bit-identical to ``build_tx_graph_pandas(<all transactions
    added so far>)``.
    """

    def __init__(self) -> None:
        self._nodes = np.empty(0, dtype=np.int64)  # sorted accounts
        self._si = np.empty(0, dtype=np.int64)  # edge endpoints: positions in _nodes
        self._di = np.empty(0, dtype=np.int64)
        self._w = np.empty(0, dtype=np.float64)
        self._row_e = np.empty(0, dtype=np.int64)  # pair rows: edge position
        self._row_w = np.empty(0, dtype=np.float64)  # pair rows: weight

    @property
    def edges(self) -> pd.DataFrame:
        """Aggregated edges ``(src, dst, weight)`` with ``src <= dst``."""
        return pd.DataFrame(
            {"src": self._nodes[self._si], "dst": self._nodes[self._di], "weight": self._w}
        )

    def add(self, tx_pdf: pd.DataFrame) -> None:
        """Fold the transactions of ``tx_pdf`` into the graph."""
        src, dst, w = _pair_rows(tx_pdf)
        ends, step_nodes = pd.factorize(np.concatenate([src, dst]), sort=True)
        at = np.searchsorted(self._nodes, step_nodes)
        fresh = at == len(self._nodes)
        fresh[~fresh] = self._nodes[at[~fresh]] != step_nodes[~fresh]
        if fresh.any():
            moved = _moved(len(self._nodes), at[fresh])
            self._si, self._di = moved[self._si], moved[self._di]
            self._nodes = np.insert(self._nodes, at[fresh], step_nodes[fresh])
        # One int64 key per pair orders edges and rows as (src, dst) does.
        n = len(self._nodes)
        ends = np.searchsorted(self._nodes, step_nodes)[ends]
        row_key = ends[: len(src)] * n + ends[len(src) :]
        row_code, touched = pd.factorize(row_key, sort=True)
        edge_key = self._si * n + self._di
        pos = np.searchsorted(edge_key, touched)
        old = pos < len(edge_key)
        old[old] = edge_key[pos[old]] == touched[old]

        # Re-sum the touched edges: each edge's stored rows, then its new ones.
        hit = np.zeros(len(edge_key), dtype=bool)
        hit[pos[old]] = True
        old_rows = np.flatnonzero(hit[self._row_e])
        sums = _sum_by_edge(
            np.concatenate([edge_key[self._row_e[old_rows]], row_key]),
            np.concatenate([self._row_w[old_rows], w]),
        )

        # Merge the new edges in; touched edge j lands after the new edges
        # that sort before it.
        new = ~old
        self._row_e = _moved(len(edge_key), pos[new])[self._row_e]
        self._si = np.insert(self._si, pos[new], touched[new] // n)
        self._di = np.insert(self._di, pos[new], touched[new] % n)
        self._w = np.insert(self._w, pos[new], 0.0)
        final = pos + np.cumsum(new) - new
        self._w[final] = sums
        self._row_e = np.concatenate([self._row_e, final[row_code]])
        self._row_w = np.concatenate([self._row_w, w])


def _moved(n: int, inserted_at: np.ndarray) -> np.ndarray:
    """Where each of the ``n`` entries of an array lands after ``np.insert``
    at the ascending positions ``inserted_at``: it moves up by the values
    inserted before it."""
    stored = np.arange(n)
    return stored + np.searchsorted(inserted_at, stored, side="right")


def build_tx_graph_pandas(tx_pdf: pd.DataFrame) -> pd.DataFrame:
    """Aggregated weighted edges ``(src, dst, weight)`` with ``src <= dst``.

    Same contract as :func:`repro.graph.build.build_tx_graph`: a tx with
    ``n`` distinct accounts yields ``C(n,2)`` pairs of weight ``2/(n(n-1))``
    each; single-account txs yield a weight-1 self-loop.
    """
    store = EdgeStore()
    store.add(tx_pdf)
    return store.edges
