"""A fixed reference kernel that gauges the host's speed at a moment.

The benchmark's hosts are shared: other tenants' load slows every
instruction by up to half for tens of seconds at a time, and no statistic
over a run of a minute or less removes that. Timing this kernel right
before each operation gives the host's speed at that moment, and the
ratio of the two cancels most of the drift. The kernel is the
benchmark's own code on inputs fixed here, so a change to the program
under test moves the operation and never the reference.

Its four parts mirror what the program's layers spend time on: an
interpreter loop (Louvain and the sweeps), many small numpy calls (the
per-node ``np.unique``/``np.bincount``), a random gather over an array
larger than the caches (graph building and evaluation), and a sort.
"""
from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(20230401)
_BIG = _rng.random(2_000_000)
_IDX = _rng.integers(0, len(_BIG), 1_000_000)
_SORT = _rng.random(800_000)
_SMALL = np.arange(64, dtype=np.int64)


def _interpreter() -> int:
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def _small_numpy() -> int:
    s = 0
    for i in range(1_500):
        _, inv = np.unique(_SMALL[i % 7 :], return_inverse=True)
        s += int(np.bincount(inv).argmax())
    return s


def _gather() -> float:
    return float(_BIG[_IDX].sum())


def _sort() -> float:
    return float(np.sort(_SORT)[0])


PARTS = (_interpreter, _small_numpy, _gather, _sort)


def measure() -> float:
    """Geometric mean of the parts' wall times, in seconds."""
    logs = []
    for part in PARTS:
        t = time.perf_counter()
        part()
        logs.append(math.log(time.perf_counter() - t))
    return math.exp(sum(logs) / len(logs))
