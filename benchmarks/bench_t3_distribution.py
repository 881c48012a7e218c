"""T3 bench (Fig. 4): per-shard workload distribution via the numpy
driver-core evaluator (the per-step engine of the adaptive sim)."""
from benchmarks.conftest import ETA, K


def test_t3_workload_distribution(benchmark, bench_tx_pdf, bench_adj, bench_txallo_labels):
    from repro.metrics.pandas_eval import evaluate_pandas

    def run():
        return evaluate_pandas(
            bench_tx_pdf, bench_txallo_labels, k=K, eta=ETA, accounts=bench_adj.nodes
        )

    m = benchmark.pedantic(run, rounds=3, iterations=1)
    assert m.norm_sigmas.max() > 1.0  # the hub shard stands out (Fig. 4d)
