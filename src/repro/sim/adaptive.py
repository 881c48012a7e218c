"""Block-stepped adaptive simulation (paper §VI-C, Figs. 9-10).

Protocol (mirroring the paper): the stream is split 9:1 by block. G-TxAllo
runs on the history split to produce the initial mapping; the evaluation
split is consumed in time steps of ``step_blocks`` blocks (the paper's
τ₁ = 300 blocks ≈ 1 hour). At each step a variant updates its mapping:

- ``A∞``  — pure A-TxAllo every step (never re-globalized);
- ``A/G τ`` — hybrid: A-TxAllo each step, but every τ steps a fresh
  G-TxAllo over the full accumulated history (the paper's τ₂ sweep);
- ``G``   — pure G-TxAllo every step (the paper's fluctuating reference).

After updating, the step's transactions are evaluated against the updated
mapping with per-step capacity λ = |T_step|/k. Per-step algorithm run
time is recorded apart from graph upkeep (the paper reports algorithm
execution time); the upkeep is reported in a column of its own. When the
evaluation split is not a multiple of ``step_blocks``, its trailing
blocks form one last, shorter step.

The graph is kept in an :class:`~repro.graph.build_pandas.EdgeStore`: each
step folds in only its own transactions and re-sums only the edges they
touch, bit-identical to a rebuild over the whole cumulative stream. The
store and the evaluation run on the numpy driver core (bit-exact to the
loop reference in tests, equivalence-tested against Spark) because a
Spark job per step would dominate the measured sub-second A-TxAllo run
times — see DESIGN.md §5.
"""
from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graph.adjacency import Adjacency, adjacency_from_pandas
from repro.graph.build_pandas import EdgeStore, tx_accounts
from repro.metrics.pandas_eval import evaluate_pandas
from repro.txallo import a_txallo, g_txallo
from repro.txallo.a_txallo import map_prev_labels


@dataclass
class _VariantState:
    """One variant's evolving mapping: accounts + labels + refresh gap."""

    name: str
    tau2: int | None  # steps between G-TxAllo refreshes; None = never
    pure_g: bool
    accounts: np.ndarray
    labels: np.ndarray


def _hot_nodes(adj: Adjacency, step_pdf: pd.DataFrame) -> np.ndarray:
    return adj.index_of(np.unique(tx_accounts(step_pdf)[1]))


def split_steps(
    tx_pdf: pd.DataFrame, *, step_blocks: int, split: float
) -> tuple[pd.DataFrame, list[pd.DataFrame]]:
    """The history split and the evaluation split's steps of
    ``step_blocks`` blocks each; the last step may hold fewer blocks."""
    blocks = np.sort(tx_pdf["block"].unique())
    split_block = blocks[int(len(blocks) * split) - 1]
    hist = tx_pdf[tx_pdf["block"] <= split_block].reset_index(drop=True)
    rest = tx_pdf[tx_pdf["block"] > split_block].reset_index(drop=True)
    if rest.empty:
        raise ValueError("evaluation split is empty; lower `split` or add blocks")
    eval_blocks = np.sort(rest["block"].unique())
    steps = [
        rest[rest["block"].isin(eval_blocks[lo : lo + step_blocks])].reset_index(drop=True)
        for lo in range(0, len(eval_blocks), step_blocks)
    ]
    return hist, steps


def step_graphs(
    hist: pd.DataFrame, steps: list[pd.DataFrame]
) -> Iterator[tuple[Adjacency, float]]:
    """The graph of ``hist``, then of each step's cumulative stream, with
    the seconds its upkeep took: folding the step into the edge store and
    deriving the CSR."""
    store = EdgeStore()
    for txs in (hist, *steps):
        t0 = time.perf_counter()
        store.add(txs)
        adj = adjacency_from_pandas(store.edges)
        yield adj, time.perf_counter() - t0


def adaptive_simulation(
    tx_pdf: pd.DataFrame,
    *,
    k: int,
    eta: float,
    step_blocks: int = 10,
    split: float = 0.9,
    tau2_steps: tuple[int, ...] = (2, 4, 10),
    include_pure_g: bool = True,
    eps_scale: float = 1e-5,
) -> pd.DataFrame:
    """Run the §VI-C simulation; one row per (step, variant).

    Columns: step, variant, algo ('A'|'G'), seconds (algorithm time for
    this step), upkeep_s (graph upkeep for this step, shared by its
    variants), norm_throughput and gamma of the step's transactions under
    the variant's updated mapping.
    """
    hist, steps = split_steps(tx_pdf, step_blocks=step_blocks, split=split)
    graphs = step_graphs(hist, steps)
    adj0, _ = next(graphs)
    lam0 = len(hist) / k
    base_labels = g_txallo(adj0, k=k, eta=eta, lam=lam0)

    variants = [
        _VariantState(f"A/G tau2={t}", t, False, adj0.nodes.copy(), base_labels.copy())
        for t in tau2_steps
    ]
    variants.append(_VariantState("A only", None, False, adj0.nodes.copy(), base_labels.copy()))
    if include_pure_g:
        variants.append(_VariantState("G every step", None, True, adj0.nodes.copy(), base_labels.copy()))

    n_txs = len(hist)
    rows: list[dict] = []
    for step, (step_pdf, (adj, upkeep_s)) in enumerate(zip(steps, graphs)):
        n_txs += len(step_pdf)
        lam_full = n_txs / k
        eps = eps_scale * n_txs
        hot = _hot_nodes(adj, step_pdf)
        lam_step = len(step_pdf) / k

        for v in variants:
            use_g = v.pure_g or (v.tau2 is not None and step > 0 and step % v.tau2 == 0)
            t0 = time.perf_counter()
            if use_g:
                labels = g_txallo(adj, k=k, eta=eta, lam=lam_full, eps=eps)
                algo = "G"
            else:
                prev = map_prev_labels(adj, v.accounts, v.labels)
                labels = a_txallo(
                    adj, prev, hot, k=k, eta=eta, lam=lam_full, eps=eps
                )
                algo = "A"
            secs = time.perf_counter() - t0
            v.accounts, v.labels = adj.nodes.copy(), labels

            m = evaluate_pandas(
                step_pdf, labels, k=k, eta=eta, lam=lam_step, accounts=adj.nodes
            )
            rows.append(
                {
                    "step": step,
                    "variant": v.name,
                    "algo": algo,
                    "seconds": secs,
                    "upkeep_s": upkeep_s,
                    "norm_throughput": m.norm_throughput,
                    "gamma": m.gamma,
                }
            )
    return pd.DataFrame(rows)
