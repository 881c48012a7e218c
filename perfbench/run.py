#!/usr/bin/env python3
"""Layered TxAllo benchmark.

    python3 perfbench/run.py --workload adaptive-a --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. One run sets up the workload (warm-up on
a small stream, then ``n_inputs`` generated streams, each timed as one
set-up), then runs operations in a closed loop for ``--seconds`` seconds,
at least once per input, checking every operation's outputs. Each
untraced operation is bracketed by timings of a fixed reference kernel
(``reference.py``), and ``op_ref`` is the operation's time over the
reference's, which cancels most of a shared host's drift. The last line
of standard output is the result object; the line before it is the run
record (per-input quality and label digests, every raw time).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced operation on the same input and reports the
per-layer metrics of the traced ones; the spans are written to
``.bench_build/perfbench/``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import reference
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
INPUT_SEED_STRIDE = 1000

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "op_ref": "ratio",
    "norm_throughput": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of one traced operation: name -> unit. A run reports
# each as the mean over its inputs of the per-input median.
PER_LAYER = {
    "op.s": "s",
    "reference.s": "s",
    "txallo.gamma": "ratio",
    "louvain.s": "s",
    "louvain.communities": "count",
    "txallo.g.self_s": "s",
    "graph.build.s": "s",
    "graph.build.calls": "count",
    "graph.build.txs": "count",
    "graph.build.edges": "count",
    "graph.adjacency.s": "s",
    "graph.adjacency.nodes": "count",
    "txallo.a.s": "s",
    "txallo.a.step_p50_s": "s",
    "txallo.a.hot_nodes": "count",
    "sim.adaptive.self_s": "s",
    "sim.adaptive.step_p50_s": "s",
    "metrics.eval.s": "s",
    "metrics.eval.txs_per_s": "1/s",
    "graph.spark_build.s": "s",
    "metrics.spark_stats.s": "s",
    "metrics.spark_stats.calls": "count",
    "baselines.metis.s": "s",
    "baselines.scheduler.s": "s",
    "baselines.hash.s": "s",
    "sim.runner.self_s": "s",
    "baselines.metis.norm_throughput": "ratio",
    "baselines.scheduler.norm_throughput": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(tracer, res) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    s = tracer.summary()

    def get(name: str, key: str = "s") -> float:
        return float(s[name][key]) if name in s else 0.0

    def count(name: str, key: str) -> float:
        return float(s[name]["counts"].get(key, 0.0)) if name in s else 0.0

    def p50(name: str) -> float:
        return statistics.median(s[name]["durations"]) if name in s else 0.0

    eval_s = get("metrics.eval")
    return {
        "txallo.gamma": res.gamma,
        "louvain.s": get("louvain"),
        "louvain.communities": count("louvain", "communities"),
        "txallo.g.self_s": get("txallo.g", "self_s"),
        "graph.build.s": get("graph.build"),
        "graph.build.calls": get("graph.build", "calls"),
        "graph.build.txs": count("graph.build", "txs"),
        "graph.build.edges": count("graph.build", "edges"),
        "graph.adjacency.s": get("graph.adjacency"),
        "graph.adjacency.nodes": count("graph.adjacency", "nodes"),
        "txallo.a.s": get("txallo.a"),
        "txallo.a.step_p50_s": p50("txallo.a"),
        "txallo.a.hot_nodes": count("txallo.a", "hot_nodes"),
        "sim.adaptive.self_s": get("sim.adaptive", "self_s"),
        "sim.adaptive.step_p50_s": adaptive_step_p50(tracer),
        "metrics.eval.s": eval_s,
        "metrics.eval.txs_per_s": count("metrics.eval", "txs") / eval_s if eval_s else 0.0,
        "graph.spark_build.s": get("graph.spark_build"),
        "metrics.spark_stats.s": get("metrics.spark_stats"),
        "metrics.spark_stats.calls": get("metrics.spark_stats", "calls"),
        "baselines.metis.s": get("baselines.metis"),
        "baselines.scheduler.s": get("baselines.scheduler"),
        "baselines.hash.s": get("baselines.hash"),
        "sim.runner.self_s": get("sim.runner", "self_s"),
        "baselines.metis.norm_throughput": res.extra.get("metis.norm_throughput", 0.0),
        "baselines.scheduler.norm_throughput": res.extra.get("scheduler.norm_throughput", 0.0),
        "trace.unattributed_s": res.op_s - sum(tracer.self_times()),
    }


def adaptive_step_p50(tracer) -> float:
    """Median wall time of one simulation step. Step i runs from the end
    of the previous step's evaluation (for step 0, the end of the initial
    G-TxAllo) to the end of its own evaluation."""
    steps = []
    for i, root in enumerate(tracer.spans):
        if root.name != "sim.adaptive":
            continue
        children = [c for c in tracer.spans if c.parent == i]
        init = next((c for c in children if c.name == "txallo.g"), None)
        evals = [c.end for c in children if c.name == "metrics.eval"]
        if init is None or not evals:
            continue
        ends = [init.end, *evals]
        steps += [b - a for a, b in zip(ends, ends[1:])]
    return statistics.median(steps) if steps else 0.0


def attempt(wl, inp, prev, tracer, sites):
    """One checked operation on ``inp``, traced when ``tracer`` is given.
    Returns its result, or None when it raised or a check failed. ``prev``
    is the first correct result on the same input, which a later
    operation must repeat exactly."""
    try:
        if tracer is None:
            before = reference.measure()
            res = wl.op(inp)
            res.ref_s = math.sqrt(before * reference.measure())
        else:
            with tracer.patched(sites):
                res = wl.op(inp)
        err = wl.check(inp, res, first=prev is None)
        if err is None and prev is not None and _repeatable(res) != _repeatable(prev):
            err = "outputs differ from the first operation on this input"
    except Exception:  # a failed operation is counted; the loop goes on
        traceback.print_exc()
        return None
    if err is not None:
        print(f"check failed: {err}", file=sys.stderr)
        return None
    res.outputs = ()
    return res


def _repeatable(res) -> tuple:
    return res.digest, res.norm_throughput, res.gamma, res.extra


def run(wl, sites: list, seed: int, seconds: float, tmp: Path, out_dir: Path):
    """One benchmark run; returns the result object and the run record.
    ``sites`` are the import sites to trace; none for an untraced run."""
    trace = bool(sites)
    t = time.perf_counter()
    wl.start(tmp)
    start_s = time.perf_counter() - t
    t = time.perf_counter()
    wl.warm_up()
    reference.measure()
    warmup_s = time.perf_counter() - t

    seeds = [seed + INPUT_SEED_STRIDE * i for i in range(wl.n_inputs)]
    inputs, setup_times = [], []
    for rep in range(max(wl.n_setups, wl.n_inputs)):
        t = time.perf_counter()
        inp = wl.prepare(seeds[rep % wl.n_inputs], wl.sf)
        setup_times.append(time.perf_counter() - t)
        if rep < wl.n_inputs:
            inputs.append(inp)
        else:
            wl.discard(inp)
    for inp in inputs:
        inp.flat = checks.FlatTxs(inp.tx)

    first: dict[int, object] = {}  # input index -> its first correct result
    results: dict[int, list] = {i: [] for i in range(wl.n_inputs)}
    layers: dict[int, list] = {i: [] for i in range(wl.n_inputs)}
    overheads, spans = [], []
    attempted = failed = rounds = 0
    t_start = time.perf_counter()
    # Whole rounds, one operation per input each, so that every input
    # weighs the same in the per-input means below.
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        for i, inp in enumerate(inputs):
            # A traced run pairs an untraced and a traced operation on the
            # same input, in alternating order.
            modes = [False, True] if trace else [False]
            if (rounds + i) % 2:
                modes.reverse()
            pair = {}
            for traced in modes:
                attempted += 1
                tracer = Tracer() if traced else None
                res = attempt(wl, inp, first.get(i), tracer, sites)
                if res is None:
                    failed += 1
                    continue
                first.setdefault(i, res)
                pair[traced] = res
                if traced:
                    layers[i].append(layer_metrics(tracer, res))
                    spans.append(
                        {"round": rounds, "input": i, "missing": tracer.missing, "spans": tracer.dump()}
                    )
                else:
                    results[i].append(res)
            if len(pair) == 2:
                overheads.append(pair[True].op_s - pair[False].op_s)
        rounds += 1

    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "start_s": start_s,
        "warmup_s": warmup_s,
        "setup_s": setup_times,
        "op_s": [[r.op_s for r in results[i]] for i in results],
        "ref_s": [[r.ref_s for r in results[i]] for i in results],
        "alloc_s": [[r.alloc_s for r in results[i]] for i in results],
        "inputs": [
            {
                "seed": inp.seed,
                "digest": first[i].digest if i in first else None,
                **({"label_digest": inp.label_digest} if inp.label_digest else {}),
                "norm_throughput": first[i].norm_throughput if i in first else None,
                "gamma": first[i].gamma if i in first else None,
                **(first[i].extra if i in first else {}),
            }
            for i, inp in enumerate(inputs)
        ],
    }
    if trace:
        path = out_dir / f"spans-{wl.name}-seed{seed}.json"
        path.write_text(json.dumps(spans))
        record["spans_file"] = str(path.relative_to(ROOT))

    def per_input(values_of) -> float:
        """Mean over the inputs of each input's median."""
        return statistics.fmean(statistics.median(values_of(i)) for i in range(wl.n_inputs))

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if not trace and all(results.values()):
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_ref": per_input(lambda i: [r.op_s / r.ref_s for r in results[i]]),
            "norm_throughput": statistics.fmean(first[i].norm_throughput for i in first),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    elif trace and all(layers.values()) and all(results.values()) and overheads:
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                metrics[name] = statistics.median(overheads)
            elif name == "op.s":
                metrics[name] = per_input(lambda i: [r.op_s for r in results[i]])
            elif name == "reference.s":
                metrics[name] = per_input(lambda i: [r.ref_s for r in results[i]])
            else:
                metrics[name] = per_input(lambda i: [m[name] for m in layers[i]])
        units = PER_LAYER
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in units.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["adaptive-a", "sweep-spark"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    sites = workloads.trace_sites() if args.trace else []
    try:
        result, record = run(wl, sites, args.seed, args.seconds, tmp, out_dir)
    finally:
        wl.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
