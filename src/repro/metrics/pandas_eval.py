"""Driver-side numpy core of :mod:`repro.metrics.blockchain`.

Used by the per-step adaptive simulation (Figs. 9-10) where the evaluation
window is small and a Spark job per step would dominate the measured
algorithm run time. It is bit-exact to the per-transaction loop reference
kept in ``tests/loop_reference.py`` and equivalence-tested against the
Spark evaluator in ``tests/test_metrics.py::TestPandasMirror``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.graph.adjacency import index_of
from repro.graph.build_pandas import tx_accounts
from repro.metrics.blockchain import AllocationMetrics, _rollup


def evaluate_pandas(
    tx_pdf: pd.DataFrame,
    shard_of: np.ndarray,
    *,
    k: int,
    eta: float,
    lam: float | None = None,
    accounts: np.ndarray | None = None,
) -> AllocationMetrics:
    """Evaluate an allocation on a pandas transaction frame.

    ``shard_of`` is a label array aligned with the sorted unique account
    ids in ``accounts``; an account of ``tx_pdf`` missing from
    ``accounts`` raises ``KeyError``.
    """
    if accounts is None:
        raise ValueError("the label array requires the sorted `accounts` array")
    n_txs = len(tx_pdf)
    if lam is None:
        lam = n_txs / k

    tx, acc = tx_accounts(tx_pdf)
    shard = np.asarray(shard_of, dtype=np.int64)[index_of(accounts, acc)]
    if shard.size and (shard.min() < 0 or shard.max() >= k):
        raise ValueError(f"shard labels outside [0, {k})")

    # One row per distinct (tx, shard), ordered by tx: each shard's sums
    # below add its transactions in stream order.
    span = np.unique(tx * k + shard)
    span_tx, span_shard = span // k, span % k
    mu = np.bincount(span_tx, minlength=n_txs)
    mu_row = mu[span_tx]
    intra = mu_row == 1
    stats = pd.DataFrame(
        {
            "shard": np.arange(k),
            "n_intra": np.bincount(span_shard[intra], minlength=k).astype(np.float64),
            "n_cross": np.bincount(span_shard[~intra], minlength=k).astype(np.float64),
            "lam_hat": np.bincount(span_shard, weights=1.0 / mu_row, minlength=k),
        }
    )
    n_cross_total = int(np.count_nonzero(mu > 1))
    return _rollup(stats, k=k, eta=eta, lam=lam, n_txs=n_txs, n_cross_total=n_cross_total)
