"""Per-transaction loop references for the numpy driver core.

These are the original Python-loop implementations of
:func:`repro.graph.build_pandas.build_tx_graph_pandas` and
:func:`repro.metrics.pandas_eval.evaluate_pandas`. The vectorized code
must reproduce them bit for bit on well-formed streams (every
transaction lists at least one account): the arithmetic is the same and
so is the order of every floating-point sum.
"""
from itertools import combinations

import numpy as np
import pandas as pd

from repro.metrics.blockchain import AllocationMetrics, _rollup


def build_tx_graph_loop(tx_pdf: pd.DataFrame) -> pd.DataFrame:
    srcs: list[int] = []
    dsts: list[int] = []
    ws: list[float] = []
    for accounts in tx_pdf["accounts"]:
        acc = sorted(set(accounts))
        n = len(acc)
        if n == 1:
            srcs.append(acc[0])
            dsts.append(acc[0])
            ws.append(1.0)
            continue
        w = 2.0 / (n * (n - 1))
        for u, v in combinations(acc, 2):
            srcs.append(u)
            dsts.append(v)
            ws.append(w)
    edges = pd.DataFrame(
        {
            "src": np.asarray(srcs, dtype=np.int64),
            "dst": np.asarray(dsts, dtype=np.int64),
            "weight": np.asarray(ws, dtype=np.float64),
        }
    )
    return (
        edges.groupby(["src", "dst"], as_index=False, sort=True)["weight"].sum()
    )


def evaluate_loop(
    tx_pdf: pd.DataFrame,
    shard_of: np.ndarray,
    *,
    k: int,
    eta: float,
    lam: float | None = None,
    accounts: np.ndarray,
) -> AllocationMetrics:
    n_txs = len(tx_pdf)
    if lam is None:
        lam = n_txs / k

    def lookup(a: int) -> int:
        i = int(np.searchsorted(accounts, a))
        if i >= len(accounts) or accounts[i] != a:
            raise KeyError(a)
        return int(shard_of[i])

    n_intra = np.zeros(k, dtype=np.float64)
    n_cross = np.zeros(k, dtype=np.float64)
    lam_hat = np.zeros(k, dtype=np.float64)
    n_cross_total = 0
    for acc_list in tx_pdf["accounts"]:
        shards = {lookup(int(a)) for a in acc_list}
        mu = len(shards)
        if mu == 1:
            (s,) = shards
            n_intra[s] += 1
            lam_hat[s] += 1.0
        else:
            n_cross_total += 1
            for s in shards:
                n_cross[s] += 1
                lam_hat[s] += 1.0 / mu

    stats = pd.DataFrame(
        {
            "shard": np.arange(k),
            "n_intra": n_intra,
            "n_cross": n_cross,
            "lam_hat": lam_hat,
        }
    )
    return _rollup(stats, k=k, eta=eta, lam=lam, n_txs=n_txs, n_cross_total=n_cross_total)
