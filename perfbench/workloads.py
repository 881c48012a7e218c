"""The benchmark workloads and the import sites the traced run wraps.

Each workload is a closed loop with one caller: an operation starts only
after the previous one returned. A run prepares ``n_inputs`` generated
streams (input ``i`` uses generator seed ``seed + 1000*i``, so input 0 is
the stream of ``--seed`` itself) and runs rounds of one operation per
input.

All workloads use k=20 shards and η=2 (the paper's headline setting).
"""
from __future__ import annotations

import importlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import pandas as pd

import checks
from repro.chain import EthParams, eth_transactions, eth_transactions_pandas
from repro.graph import build_tx_graph, to_adjacency
from repro.metrics import evaluate_pandas
from repro.sim.adaptive import adaptive_simulation
from repro.sim.runner import METHODS, sweep
from repro.txallo import g_txallo
from tracer import Site

K = 20
ETA = 2.0
WARM_SEED = 7  # the warm-up stream is the same in every run
# One task thread: at SF 0.01 a sweep is bound by Spark's per-job
# overhead, not by parallel work, and a single thread is far less exposed
# to a shared host's scheduler than several.
SPARK_CORES = 1
SPARK_DRIVER_MEM = "2g"
SPARK_SHUFFLE_PARTITIONS = "2"


@dataclass
class Input:
    seed: int
    tx: pd.DataFrame
    lam: float
    tx_df: Any = None  # cached Spark DataFrame (sweep-spark only)
    flat: checks.FlatTxs | None = None
    label_digest: str | None = None  # set by the first operation's check


@dataclass
class OpResult:
    op_s: float
    alloc_s: float
    norm_throughput: float
    gamma: float
    digest: str  # must repeat on every operation over the same input
    extra: dict[str, float] = field(default_factory=dict)
    outputs: tuple = ()  # program outputs the checks look at; not kept
    ref_s: float = 0.0  # reference kernel time just before the operation


def spark_adjacency(tx_df) -> Any:
    """The Spark bulk path: Def. 2 edges in Spark, collected into a CSR."""
    return to_adjacency(build_tx_graph(tx_df))


class Workload:
    name: str
    sf: float
    n_inputs: int
    n_setups = 9  # set-ups timed per run; setup_s is their median
    # Warm-up: ``warm_ops`` untimed operations on one small stream, which
    # run every code path for a fraction of the work.
    warm_sf = 0.005
    warm_ops = 1

    def start(self, tmp: Path) -> None:
        """One-time process set-up before the warm-up."""

    def prepare(self, seed: int, sf: float) -> Input:
        tx = eth_transactions_pandas(EthParams(sf=sf, seed=seed))
        return Input(seed, tx, len(tx) / K)

    def discard(self, inp: Input) -> None:
        """Release an input the timed loop does not use."""

    def warm_up(self) -> None:
        inp = self.prepare(WARM_SEED, self.warm_sf)
        for _ in range(self.warm_ops):
            self.op(inp)
        self.discard(inp)

    def op(self, inp: Input) -> OpResult:
        raise NotImplementedError

    def check(self, inp: Input, res: OpResult, first: bool) -> str | None:
        """None if the operation's outputs are correct, else the reason.
        ``first`` marks the first operation on ``inp``, which gets the
        expensive independent checks; later ones are compared to it."""
        return None

    def close(self) -> None:
        """Stop every process the workload started and wait for it."""


class AdaptiveA(Workload):
    name = "adaptive-a"
    sf = 0.025
    n_inputs = 3

    def op(self, inp: Input) -> OpResult:
        t0 = time.perf_counter()
        rows = adaptive_simulation(
            inp.tx, k=K, eta=ETA, step_blocks=1, tau2_steps=(), include_pure_g=False
        )
        t1 = time.perf_counter()
        return OpResult(
            op_s=t1 - t0,
            alloc_s=float(rows["seconds"].sum()),
            norm_throughput=float(rows["norm_throughput"].mean()),
            gamma=float(rows["gamma"].mean()),
            digest=checks.rows_digest(rows, ["step", "variant", "algo", "norm_throughput", "gamma"]),
            outputs=(rows,),
        )

    def check(self, inp: Input, res: OpResult, first: bool) -> str | None:
        (rows,) = res.outputs
        n_blocks = inp.tx["block"].nunique()
        n_steps = n_blocks - int(n_blocks * 0.9)  # evaluation split, one block per step
        if rows["step"].tolist() != list(range(n_steps)):
            return f"steps {rows['step'].tolist()} != 0..{n_steps - 1}"
        if set(rows["algo"]) != {"A"}:
            return f"algorithms {sorted(set(rows['algo']))} != ['A']"
        if not rows["gamma"].between(0.0, 1.0).all():
            return "gamma outside [0, 1]"
        if not (rows["norm_throughput"].gt(0.0) & rows["norm_throughput"].le(K)).all():
            return f"norm_throughput outside (0, {K}]"
        return None


class SweepSpark(Workload):
    name = "sweep-spark"
    sf = 0.01
    n_inputs = 3
    n_setups = 4
    # The JVM's compilers keep speeding the sweep up for several runs;
    # six tiny ones bring it to its steady speed.
    warm_sf = 0.002
    warm_ops = 6

    def __init__(self) -> None:
        self.spark = None

    def start(self, tmp: Path) -> None:
        # The JVM, its launcher and Spark keep their scratch files in the
        # run's own temporary directory.
        cores = min(SPARK_CORES, len(os.sched_getaffinity(0)))
        spark_dir = tmp / "spark"
        spark_dir.mkdir()
        os.environ["SPARK_LOCAL_DIRS"] = str(spark_dir)
        os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
        os.environ["SPARK_SHUFFLE_PARTITIONS"] = SPARK_SHUFFLE_PARTITIONS
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master local[{cores}] --driver-memory {SPARK_DRIVER_MEM} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false pyspark-shell"
        )
        jobs = Path(__file__).resolve().parent.parent / "jobs"
        sys.path.insert(0, str(jobs))
        common = importlib.import_module("_common")
        self.spark = common.make_session("perfbench")

    def prepare(self, seed: int, sf: float) -> Input:
        params = EthParams(sf=sf, seed=seed)
        tx = eth_transactions_pandas(params)
        tx_df = eth_transactions(self.spark, params=params).cache()
        tx_df.count()
        return Input(seed, tx, len(tx) / K, tx_df=tx_df)

    def discard(self, inp: Input) -> None:
        inp.tx_df.unpersist()

    def op(self, inp: Input) -> OpResult:
        t0 = time.perf_counter()
        adj = spark_adjacency(inp.tx_df)
        rows = sweep(self.spark, inp.tx_df, adj, ks=[K], etas=[ETA], tx_pdf=inp.tx)
        t1 = time.perf_counter()
        by = rows.set_index("method")
        return OpResult(
            op_s=t1 - t0,
            alloc_s=float(by.at["txallo", "alloc_seconds"]),
            norm_throughput=float(by.at["txallo", "norm_throughput"]),
            gamma=float(by.at["txallo", "gamma"]),
            digest=checks.graph_digest(adj),
            extra={
                "metis.norm_throughput": float(by.at["metis", "norm_throughput"]),
                "scheduler.norm_throughput": float(by.at["scheduler", "norm_throughput"]),
            },
            outputs=(adj, rows),
        )

    def check(self, inp: Input, res: OpResult, first: bool) -> str | None:
        adj, rows = res.outputs
        if sorted(rows["method"]) != sorted(METHODS):
            return f"sweep methods {sorted(rows['method'])} != {sorted(METHODS)}"
        if not first:
            return None  # same graph digest and quality as the first: checked by the caller
        labels = g_txallo(adj, k=K, eta=ETA, lam=inp.lam)
        if err := checks.labels_valid(inp.flat, adj.nodes, labels, K):
            return err
        inp.label_digest = checks.label_digest(adj.nodes, labels)
        m = evaluate_pandas(inp.tx, labels, k=K, eta=ETA, lam=inp.lam, accounts=adj.nodes)
        gamma, norm_tp = checks.numpy_quality(inp.flat, adj.nodes, labels, k=K, eta=ETA, lam=inp.lam)
        if gamma != m.gamma:
            return f"numpy gamma {gamma!r} != evaluate_pandas {m.gamma!r}"
        if not checks.rel_close(norm_tp, m.norm_throughput):
            return f"numpy norm_throughput {norm_tp!r} != evaluate_pandas {m.norm_throughput!r}"
        spark = rows.set_index("method").loc["txallo"]
        pandas = {
            "gamma": m.gamma,
            "rho": m.rho,
            "norm_throughput": m.norm_throughput,
            "avg_latency": m.avg_latency,
            "worst_latency": m.worst_latency,
            "max_norm_sigma": float(m.norm_sigmas.max()),
            "min_norm_sigma": float(m.norm_sigmas.min()),
        }
        for key, want in pandas.items():
            if not checks.rel_close(float(spark[key]), want):
                return f"Spark {key} {float(spark[key])!r} != evaluate_pandas {want!r}"
        return None

    def close(self) -> None:
        if self.spark is None:
            return
        gateway = self.spark.sparkContext._gateway
        proc: subprocess.Popen | None = getattr(gateway, "proc", None)
        try:
            self.spark.stop()
            gateway.shutdown()
        finally:
            self.spark = None
            if proc is not None:
                proc.stdin.close()  # the JVM exits on EOF of its stdin
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (AdaptiveA, SweepSpark)}


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _n_unique(x: Any) -> float:
    return float(len(np.unique(np.asarray(x))))


def trace_sites() -> list[Site]:
    """Every import site the traced run wraps: the program's own call
    sites in the simulation, the sweep harness and G-TxAllo, and this
    module's calls into the layers."""
    sim_adaptive = importlib.import_module("repro.sim.adaptive")
    sim_runner = importlib.import_module("repro.sim.runner")
    g_mod = importlib.import_module("repro.txallo.g_txallo")
    here = sys.modules[__name__]

    def build(a, kw, out):
        return {"txs": float(len(_arg(a, kw, 0, "tx_pdf"))), "edges": float(len(out))}

    def adjacency(a, kw, out):
        return {"nodes": float(out.n)}

    def evaluate(a, kw, out):
        return {"txs": float(len(_arg(a, kw, 0, "tx_pdf")))}

    def hot(a, kw, out):
        return {"hot_nodes": _n_unique(_arg(a, kw, 2, "hot_nodes"))}

    def communities(a, kw, out):
        return {"communities": _n_unique(out)}

    return [
        Site(g_mod, "louvain", "louvain", communities),
        Site(sim_adaptive, "build_tx_graph_pandas", "graph.build", build),
        Site(sim_adaptive, "adjacency_from_pandas", "graph.adjacency", adjacency),
        Site(sim_adaptive, "g_txallo", "txallo.g"),
        Site(sim_adaptive, "a_txallo", "txallo.a", hot),
        Site(sim_adaptive, "evaluate_pandas", "metrics.eval", evaluate),
        Site(sim_runner, "g_txallo", "txallo.g"),
        Site(sim_runner, "hash_alloc", "baselines.hash"),
        Site(sim_runner, "metis_like", "baselines.metis"),
        Site(sim_runner, "shard_scheduler", "baselines.scheduler"),
        Site(sim_runner, "collect_stats", "metrics.spark_stats"),
        Site(here, "adaptive_simulation", "sim.adaptive"),
        Site(here, "spark_adjacency", "graph.spark_build"),
        Site(here, "sweep", "sim.runner"),
    ]
