"""Output checks of the benchmark, independent of the code under test.

Every function here runs outside the timed region. A check that fails
makes its operation count as failed.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd


def label_digest(accounts: np.ndarray, labels: np.ndarray) -> str:
    """sha256 of the (account, shard) mapping as little-endian int64 bytes."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(accounts, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(labels, dtype="<i8").tobytes())
    return h.hexdigest()


def graph_digest(adj) -> str:
    """sha256 of a CSR adjacency: nodes, offsets, neighbours, exact weights."""
    h = hashlib.sha256()
    for arr, dtype in (
        (adj.nodes, "<i8"),
        (adj.indptr, "<i8"),
        (adj.indices, "<i8"),
        (adj.weights, "<f8"),
        (adj.self_w, "<f8"),
    ):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def rows_digest(rows: pd.DataFrame, columns: list[str]) -> str:
    """sha256 of a result frame, floats written as exact hex."""
    h = hashlib.sha256()
    for rec in rows[columns].itertuples(index=False):
        h.update(
            "|".join(v.hex() if isinstance(v, float) else str(v) for v in rec).encode()
        )
        h.update(b"\n")
    return h.hexdigest()


def rel_close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class FlatTxs:
    """The transaction stream as flat ``(tx index, account)`` arrays."""

    def __init__(self, tx_pdf: pd.DataFrame) -> None:
        lists = tx_pdf["accounts"].to_list()
        lens = np.fromiter((len(a) for a in lists), dtype=np.int64, count=len(lists))
        self.n_txs = len(lists)
        self.account = np.fromiter(
            (a for acc in lists for a in acc), dtype=np.int64, count=int(lens.sum())
        )
        self.tx = np.repeat(np.arange(self.n_txs, dtype=np.int64), lens)
        self.accounts = np.unique(self.account)


def labels_valid(flat: FlatTxs, nodes: np.ndarray, labels: np.ndarray, k: int) -> str | None:
    """None when ``labels`` (aligned with ``nodes``) give every account of
    the stream exactly one shard in ``[0, k)``; else the reason."""
    labels = np.asarray(labels)
    if len(labels) != len(nodes):
        return f"{len(labels)} labels for {len(nodes)} nodes"
    if not np.array_equal(nodes, flat.accounts):
        return "graph nodes differ from the stream's accounts"
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        return f"labels outside [0, {k})"
    return None


def numpy_quality(
    flat: FlatTxs, nodes: np.ndarray, labels: np.ndarray, *, k: int, eta: float, lam: float
) -> tuple[float, float]:
    """(γ, Λ/λ) recomputed from per-transaction shard spans μ.

    μ(Tx) is the number of distinct shards among the transaction's
    accounts; γ is the share of transactions with μ > 1; Λ/λ follows the
    paper's Eq. 2-3 with σ_i = |T_i^I| + η|T_i^C| and Λ̂_i = Σ 1/μ.
    """
    shard = np.asarray(labels, dtype=np.int64)[np.searchsorted(nodes, flat.account)]
    pairs = np.unique(flat.tx * k + shard)  # distinct (tx, shard)
    tx_u, shard_u = pairs // k, pairs % k
    mu = np.bincount(tx_u, minlength=flat.n_txs)
    gamma = np.count_nonzero(mu > 1) / flat.n_txs
    mu_u = mu[tx_u]
    n_intra = np.bincount(shard_u[mu_u == 1], minlength=k)
    n_cross = np.bincount(shard_u[mu_u > 1], minlength=k)
    lam_hat = np.bincount(shard_u, weights=1.0 / mu_u, minlength=k)
    sigma = n_intra + eta * n_cross
    over = sigma > lam
    lam_i = lam_hat.copy()
    lam_i[over] *= lam / sigma[over]
    return gamma, float(lam_i.sum()) / lam
