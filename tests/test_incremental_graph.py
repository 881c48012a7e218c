"""The adaptive simulation's incremental graph equals a full rebuild.

At every step, the graph that ``step_graphs`` keeps by folding in one step
at a time must be byte-identical to the graph rebuilt from the whole
cumulative stream. The test also pins that identical input gives
identical labels in fresh processes, whatever their hash seed.
"""
import os
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

import repro
from repro.chain import EthParams, eth_transactions_pandas
from repro.graph import adjacency_from_pandas, build_tx_graph_pandas
from repro.graph.build_pandas import EdgeStore
from repro.sim.adaptive import split_steps, step_graphs
from tests.conftest import tiny_tx_pdf

CSR_FIELDS = ("nodes", "indptr", "indices", "weights", "self_w")

STREAMS = {
    # (generator parameters, step_blocks, split)
    "sf0.005-seed9-step1": (EthParams(sf=0.005, seed=9), 1, 0.7),
    "sf0.01-seed11-step2": (EthParams(sf=0.01, seed=11), 2, 0.75),
    "sf0.02-seed2007-step3": (EthParams(sf=0.02, seed=2007), 3, 0.9),  # 3 + 1 blocks
    "sf0.025-seed7-step1": (EthParams(sf=0.025, seed=7), 1, 0.9),
}


def _assert_same_csr(got, want) -> None:
    for name in CSR_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_every_step_equals_rebuild(stream):
    params, step_blocks, split = STREAMS[stream]
    hist, steps = split_steps(eth_transactions_pandas(params), step_blocks=step_blocks, split=split)
    cum = hist
    n_graphs = 0
    for i, (adj, upkeep_s) in enumerate(step_graphs(hist, steps)):
        if i:
            cum = pd.concat([cum, steps[i - 1]], ignore_index=True)
        _assert_same_csr(adj, adjacency_from_pandas(build_tx_graph_pandas(cum)))
        assert upkeep_s > 0.0
        n_graphs += 1
    assert n_graphs == len(steps) + 1


def test_one_transaction_at_a_time_equals_build():
    """Every tx its own slice: repeated pairs, self-loops and 3- and
    4-account txs all re-sum edges that already hold rows."""
    tx = tiny_tx_pdf()
    store = EdgeStore()
    for i in range(len(tx)):
        store.add(tx.iloc[i : i + 1].reset_index(drop=True))
        pd.testing.assert_frame_equal(
            store.edges, build_tx_graph_pandas(tx.iloc[: i + 1]), check_exact=True
        )


def test_empty_slice_keeps_graph():
    store = EdgeStore()
    store.add(tiny_tx_pdf())
    store.add(tiny_tx_pdf().iloc[:0])
    pd.testing.assert_frame_equal(store.edges, build_tx_graph_pandas(tiny_tx_pdf()), check_exact=True)


_LABELS_SCRIPT = """
import hashlib
import numpy as np
from repro.chain import EthParams, eth_transactions_pandas
from repro.sim.adaptive import _hot_nodes, split_steps, step_graphs
from repro.txallo import a_txallo, g_txallo
from repro.txallo.a_txallo import map_prev_labels

def digest(labels):
    return hashlib.sha256(np.asarray(labels, dtype="<i8").tobytes()).hexdigest()

hist, steps = split_steps(eth_transactions_pandas(EthParams(sf=0.005, seed=7)), step_blocks=2, split=0.8)
graphs = step_graphs(hist, steps)
(adj0, _), (adj1, _) = next(graphs), next(graphs)
g = g_txallo(adj0, k=6, eta=2.0, lam=adj0.total_weight / 6)
prev = map_prev_labels(adj1, adj0.nodes, g)
a = a_txallo(adj1, prev, _hot_nodes(adj1, steps[0]), k=6, eta=2.0, lam=adj1.total_weight / 6)
print(digest(g), digest(a))
"""


def test_labels_equal_across_processes():
    """Paper §IV-A: every miner derives the same mapping. The sweep
    kernels sum weights in dicts keyed by labels; two fresh processes
    with different hash seeds must still print the same digests."""
    src = str(Path(repro.__file__).resolve().parents[1])
    out = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _LABELS_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        out.append(run.stdout.split())
    assert len(out[0]) == 2
    assert out[0] == out[1]
