"""The numpy driver core: bit-exact to the loop reference, and its input
contract.

``build_tx_graph_pandas`` and ``evaluate_pandas`` must give exactly what
the per-transaction loops in ``tests/loop_reference.py`` give, with no
tolerance: same edge rows and weights, same metric floats. Labels come
from the hash baseline and from G-TxAllo, so both scattered and
clustered allocations are covered.
"""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.baselines import hash_alloc
from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.metrics.pandas_eval import evaluate_pandas
from repro.sim.adaptive import _hot_nodes
from repro.txallo import g_txallo
from tests.conftest import tiny_tx_pdf
from tests.loop_reference import build_tx_graph_loop, evaluate_loop

ETA = 2.0
STREAMS = {
    "tiny": (tiny_tx_pdf, 2),
    "sf0.005-seed7": (lambda: eth_transactions_pandas(EthParams(sf=0.005, seed=7)), 20),
    "sf0.025-seed7": (lambda: eth_transactions_pandas(EthParams(sf=0.025, seed=7)), 20),
    "sf0.025-seed1007": (lambda: eth_transactions_pandas(EthParams(sf=0.025, seed=1007)), 20),
}


@pytest.fixture(scope="module", params=sorted(STREAMS))
def stream(request):
    make, k = STREAMS[request.param]
    tx = make()
    return tx, adjacency_from_pandas(build_tx_graph_pandas(tx)), k


def _labels(adj, k, alloc):
    if alloc == "hash":
        return hash_alloc(adj.nodes, k)
    return g_txallo(adj, k=k, eta=ETA, lam=adj.total_weight / k)


def _assert_metrics_equal(got, want):
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "sigmas":
            assert np.array_equal(a, b)
        else:
            assert a == b, f.name


class TestLoopReference:
    def test_edges_match_loop(self, stream):
        tx, _, _ = stream
        pd.testing.assert_frame_equal(
            build_tx_graph_pandas(tx), build_tx_graph_loop(tx), check_exact=True
        )

    @pytest.mark.parametrize("alloc", ["hash", "g_txallo"])
    def test_metrics_match_loop(self, stream, alloc):
        tx, adj, k = stream
        labels = _labels(adj, k, alloc)
        got = evaluate_pandas(tx, labels, k=k, eta=ETA, accounts=adj.nodes)
        want = evaluate_loop(tx, labels, k=k, eta=ETA, accounts=adj.nodes)
        _assert_metrics_equal(got, want)


def _stream(*account_lists):
    return pd.DataFrame(
        {
            "tx_id": np.arange(len(account_lists)),
            "block": np.zeros(len(account_lists), dtype=np.int64),
            "accounts": list(account_lists),
        }
    )


class TestInputContract:
    ACCOUNTS = np.array([1, 2, 3])
    LABELS = np.array([0, 0, 1])

    def test_empty_account_list_rejected_by_builder(self):
        with pytest.raises(ValueError, match="no account"):
            build_tx_graph_pandas(_stream([1, 2], [1], []))

    def test_empty_account_list_rejected_by_evaluator(self):
        with pytest.raises(ValueError, match="no account"):
            evaluate_pandas(
                _stream([1, 2], [1], []), self.LABELS, k=2, eta=ETA, accounts=self.ACCOUNTS
            )

    def test_duplicate_account_is_counted_once(self):
        dup = _stream([1, 2, 2], [3, 1, 3], [2, 2])
        dedup = _stream([1, 2], [1, 3], [2])
        pd.testing.assert_frame_equal(
            build_tx_graph_pandas(dup), build_tx_graph_pandas(dedup), check_exact=True
        )
        _assert_metrics_equal(
            evaluate_pandas(dup, self.LABELS, k=2, eta=ETA, accounts=self.ACCOUNTS),
            evaluate_pandas(dedup, self.LABELS, k=2, eta=ETA, accounts=self.ACCOUNTS),
        )

    def test_hot_nodes_of_unsorted_duplicated_lists(self):
        adj = adjacency_from_pandas(build_tx_graph_pandas(_stream([1, 2], [2, 3])))
        np.testing.assert_array_equal(_hot_nodes(adj, _stream([3, 1, 3], [1])), [0, 2])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            evaluate_pandas(_stream([1, 3]), np.array([0, 0, 2]), k=2, eta=ETA, accounts=self.ACCOUNTS)
