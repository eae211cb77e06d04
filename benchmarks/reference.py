"""Reference kernels: fixed work that does not use the package, timed next to
each timed call so that the call's time can be given in units of it.

This host's speed moves by up to 2x within minutes, and not alike for all
code: in the same minute a Python loop of small NumPy operations can run 1.7x
slower while large-array NumPy code runs 1.1x slower.  So each workload is
paired with the kernel whose work is most like its own, and a call's time in
`ref` units is its wall time over the mean of the reference samples taken
right before and right after it (see `workloads.Outcome.timed`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class _Pair:
    q: float
    p: float


def interpreter_kernel() -> float:
    """Like the simulators and the verification checks: a Python loop of
    small NumPy operations, plain Python objects and dicts, and a few
    products of a training batch's size.  About 50 ms."""
    a = np.full((10, 10), 0.01) + 0.9 * np.eye(10)
    x = np.ones((10, 2))
    for _ in range(2000):
        x = a @ x + 1e-3 * np.tanh(x)
    table = {}
    acc = 0.0
    for i in range(40_000):
        pair = _Pair(0.5 * i, 1.0)
        table[i & 255] = pair.q + pair.p
        acc += len(table)
    h = np.linspace(-1.0, 1.0, 160 * 64).reshape(160, 64)
    w = 0.5 * np.eye(64) + 0.01
    for _ in range(200):
        h = np.tanh(h @ w)
    return float(x.sum() + h.sum() + acc)


def tape_kernel() -> float:
    """Like a training step on the tape: products and element-wise operations
    on 1 MB arrays, each result a fresh array.  It keeps no more than a few
    of them alive, so that it adds little to the process's peak RSS.  About
    60 ms."""
    x = np.linspace(-1.0, 1.0, 2048 * 64).reshape(2048, 64)
    w = 0.5 * np.eye(64) + 0.01
    for _ in range(30):
        y = x @ w
        x = np.maximum(y, 0.0) * 0.5 + x * 0.5
        x = x - 1e-3 * (y @ w.T)
    return float(x.sum())


def time_kernel(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
