"""Golden-label regression: the sequential kernels' labels, byte for byte.

The digests were recorded from the vectorised per-node numpy kernels that
Louvain's local-move sweep and the METIS-like matching and refinement
used before they became fused pure-Python loops. The fused loops sum
neighbour weights in the same order and break ties the same way, so every
label must still hash to the same value. A change that alters any
floating-point sum or tie-break, even one that leaves quality unchanged,
fails here.

Labels are hashed as little-endian int64; G-TxAllo runs at k=20, η=2 with
λ = |T|/k.

``ADAPTIVE`` pins the rows of the adaptive simulation the same way: every
column except the timings, floats written as exact hex. The digests were
recorded while each step still rebuilt the graph from the whole
cumulative stream, so the incremental graph upkeep and the list-backed
TxAllo sweep must reproduce that run exactly.
"""
import hashlib

import numpy as np
import pytest

from repro.baselines import metis_like
from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.louvain import louvain
from repro.sim.adaptive import adaptive_simulation
from repro.txallo import g_txallo

K = 20

GOLDEN = {
    # tests/conftest.py's SMALL stream: EthParams(sf=0.005, seed=7).
    "conftest": {
        "louvain": "21c43b615c3b01c9b62de7563f5f94deb35ee0d70791899935debb32599148e8",
        "metis_like": "763c30e6e380feda2d63d845eae5de0a7c8d9dfc47fe3c635949f03fdc5f3254",
        "g_txallo": "c078336ed117d39410f8a05511f1093393c437fbea74c782b2f42490b397e038",
    },
    "sf0.025-seed7": {
        "louvain": "9d657369140215f16479f94f1bc337dc3650169f749cc7edf67304d5e953565c",
        "metis_like": "5629490e5ad2de0f7e2fda206e962d82b6fd3edd039aed4b929782d4b2dce4f4",
        "g_txallo": "a8bedf3d07e34ddc49fb127b741bede0e49ef0ffcd2b0de59bee2b0a0498b72a",
    },
}

ALLOCATORS = {
    "louvain": louvain,
    "metis_like": lambda adj: metis_like(adj, K),
    "g_txallo": lambda adj: g_txallo(adj, k=K, eta=2.0, lam=adj.total_weight / K),
}


def _digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, dtype="<i8").tobytes()).hexdigest()


@pytest.fixture(scope="module")
def graphs(adj):
    tx = eth_transactions_pandas(EthParams(sf=0.025, seed=7))
    return {
        "conftest": adj,
        "sf0.025-seed7": adjacency_from_pandas(build_tx_graph_pandas(tx)),
    }


@pytest.mark.parametrize("graph", sorted(GOLDEN))
@pytest.mark.parametrize("algo", sorted(ALLOCATORS))
def test_labels_match_golden_digest(graphs, graph, algo):
    assert _digest(ALLOCATORS[algo](graphs[graph])) == GOLDEN[graph][algo]


ADAPTIVE = {
    # The adaptive-a benchmark's configuration: one block per step, A only.
    "sf0.025-seed7": (
        EthParams(sf=0.025, seed=7),
        dict(k=K, eta=2.0, step_blocks=1, tau2_steps=(), include_pure_g=False),
        "25ee226397cd2c7432867ecfdc19de726b93ebc584031d1233adaf94ecef7998",
    ),
    # tests/test_adaptive.py's stream: hybrid and pure-G variants too.
    "sf0.005-seed9": (
        EthParams(sf=0.005, seed=9),
        dict(k=6, eta=2.0, step_blocks=1, split=0.7, tau2_steps=(2,), include_pure_g=True),
        "dd5690ea7cb82973558cb53e8b03c823862ee0987b9fffae33f413c11f5dde0b",
    ),
}
ROW_COLUMNS = ["step", "variant", "algo", "norm_throughput", "gamma"]


def _rows_digest(rows) -> str:
    h = hashlib.sha256()
    for rec in rows[ROW_COLUMNS].itertuples(index=False):
        h.update("|".join(v.hex() if isinstance(v, float) else str(v) for v in rec).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("stream", sorted(ADAPTIVE))
def test_adaptive_rows_match_golden_digest(stream):
    params, kw, want = ADAPTIVE[stream]
    rows = adaptive_simulation(eth_transactions_pandas(params), **kw)
    assert _rows_digest(rows) == want
