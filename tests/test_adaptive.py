"""Tests for the block-stepped adaptive simulation (sim.adaptive)."""
import numpy as np
import pandas as pd
import pytest

from repro.chain import EthParams, eth_transactions_pandas
from repro.sim.adaptive import adaptive_simulation, split_steps, step_graphs


@pytest.fixture(scope="module")
def stream():
    return eth_transactions_pandas(EthParams(sf=0.005, seed=9))


@pytest.fixture(scope="module")
def sim(stream):
    return adaptive_simulation(
        stream, k=6, eta=2.0, step_blocks=1, split=0.7, tau2_steps=(2,), include_pure_g=True
    )


class TestStructure:
    def test_variants_present(self, sim):
        assert set(sim["variant"]) == {"A/G tau2=2", "A only", "G every step"}

    def test_steps_cover_eval_split(self, sim, stream):
        blocks = np.sort(stream["block"].unique())
        n_eval = len(blocks) - int(len(blocks) * 0.7)
        assert sim["step"].nunique() == n_eval

    def test_columns(self, sim):
        assert set(sim.columns) == {
            "step", "variant", "algo", "seconds", "upkeep_s", "norm_throughput", "gamma",
        }

    def test_algo_tags(self, sim):
        g = sim[sim.variant == "G every step"]
        assert (g["algo"] == "G").all()
        a = sim[sim.variant == "A only"]
        assert (a["algo"] == "A").all()
        hybrid = sim[sim.variant == "A/G tau2=2"]
        # step 0 is A (the base G ran before the loop); every tau2-th is G.
        assert set(hybrid["algo"]) == {"A", "G"}

    def test_hybrid_refresh_cadence(self, sim):
        hybrid = sim[sim.variant == "A/G tau2=2"].sort_values("step")
        for _, row in hybrid.iterrows():
            expected = "G" if (row["step"] > 0 and row["step"] % 2 == 0) else "A"
            assert row["algo"] == expected


class TestBehaviour:
    def test_metrics_sane(self, sim):
        assert sim["gamma"].between(0, 1).all()
        assert (sim["norm_throughput"] > 0).all()
        assert (sim["seconds"] >= 0).all()
        assert (sim["upkeep_s"] > 0).all()
        # One upkeep per step, shared by the step's variants.
        assert (sim.groupby("step")["upkeep_s"].nunique() == 1).all()

    def test_a_steps_faster_than_g_steps(self, sim):
        a_mean = sim[sim.algo == "A"]["seconds"].mean()
        g_mean = sim[sim.algo == "G"]["seconds"].mean()
        assert a_mean < g_mean

    def test_adaptive_tracks_global_throughput(self, sim):
        """Fig. 9b: average throughput of the variants is comparable."""
        avg = sim.groupby("variant")["norm_throughput"].mean()
        assert avg["A only"] >= 0.75 * avg["G every step"]

    def test_deterministic(self, stream):
        kw = dict(k=4, eta=2.0, step_blocks=2, split=0.8, tau2_steps=(3,), include_pure_g=False)
        a = adaptive_simulation(stream, **kw)
        b = adaptive_simulation(stream, **kw)
        timings = ["seconds", "upkeep_s"]
        pd.testing.assert_frame_equal(a.drop(columns=timings), b.drop(columns=timings))

    def test_trailing_partial_window_evaluated(self, stream):
        """4 evaluation blocks in steps of 3: the last block is a step of
        its own, and its transactions are in the final graph."""
        blocks = np.sort(stream["block"].unique())
        n_eval = len(blocks) - int(len(blocks) * 0.6)
        assert n_eval % 3 != 0
        sim = adaptive_simulation(
            stream, k=4, eta=2.0, step_blocks=3, split=0.6, tau2_steps=(), include_pure_g=False
        )
        assert sim["step"].tolist() == list(range(-(-n_eval // 3)))
        hist, steps = split_steps(stream, step_blocks=3, split=0.6)
        assert [s["block"].nunique() for s in steps] == [3] * (n_eval // 3) + [n_eval % 3]
        assert sum(map(len, steps)) + len(hist) == len(stream)
        *_, (adj, _) = step_graphs(hist, steps)
        assert adj.total_weight == pytest.approx(len(stream))

    def test_empty_eval_split_rejected(self, stream):
        with pytest.raises(ValueError):
            adaptive_simulation(stream, k=4, eta=2.0, split=1.0)
