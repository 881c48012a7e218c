"""Driver-side numpy core of :mod:`repro.graph.build` (Def. 2).

The adaptive simulation (paper Figs. 9-10) rebuilds the transaction graph
every time step over small per-step slices; launching a Spark job per step
would dominate the measured A-TxAllo run time, so the incremental path
uses this numpy driver core. It is bit-exact to the per-transaction loop
reference kept in ``tests/loop_reference.py`` and equivalence-tested
against the Spark builder in ``tests/test_graph_build.py``.
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


def build_tx_graph_pandas(tx_pdf: pd.DataFrame) -> pd.DataFrame:
    """Aggregated weighted edges ``(src, dst, weight)`` with ``src <= dst``.

    Same contract as :func:`repro.graph.build.build_tx_graph`: a tx with
    ``n`` distinct accounts yields ``C(n,2)`` pairs of weight ``2/(n(n-1))``
    each; single-account txs yield a weight-1 self-loop.
    """
    tx, acc = tx_accounts(tx_pdf)
    n = np.bincount(tx, minlength=len(tx_pdf))
    first = np.cumsum(n) - n  # row of each tx's first account
    n_pairs = np.where(n == 1, 1, n * (n - 1) // 2)
    out = np.cumsum(n_pairs) - n_pairs  # row of each tx's first pair
    src = np.empty(int(n_pairs.sum()), dtype=np.int64)
    dst = np.empty_like(src)
    w = np.empty(len(src), dtype=np.float64)
    # Pairs are written per tx in itertools.combinations order, so the
    # rows reach the groupby sum in the same order as a per-tx loop would
    # emit them: the floating-point sums depend on that order.
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
    edges = pd.DataFrame({"src": src, "dst": dst, "weight": w})
    return (
        edges.groupby(["src", "dst"], as_index=False, sort=True)["weight"].sum()
    )
