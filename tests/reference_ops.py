"""Tape primitives and the gradient check that only the tests use.

The chains of primitives whose bits revode.model's one-node encode, field
and decode must reproduce (tests/stagewise_rollout.py) are recorded with
these ops next to the ones in revode.autodiff, and `grad_check` compares
any tape's gradients against central finite differences.  Every op records
one node through the tape's own `_record`, so the tape's generic backward
sweep differentiates it.  `leaf_grads` cuts backward's flat gradient back
into the caller's names.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from revode.autodiff import Tape, Tensor, _lift, _rows, _same_shape, backward
from revode.errors import ShapeError


def mul(a: Tensor, b) -> Tensor:
    b = _lift(a.tape, b)
    _same_shape("mul", a, b)
    av, bv = a.value, b.value
    return a.tape._record(
        "mul", av * bv, (a.idx, b.idx), lambda g: (g * bv, g * av)
    )


def scatter_rows(a: Tensor, idx, n: int) -> Tensor:
    """(n, c) sum of a's rows by target row idx; the gradient is a gather."""
    rows = _rows(idx, n)
    if a.value.ndim != 2 or a.value.shape[0] != rows.idx.size:
        raise ShapeError(f"scatter_rows needs one index per row of {a.value.shape}")
    return a.tape._record(
        "scatter_rows", rows.segment_sum(a.value), (a.idx,), lambda g: (g[rows.idx],)
    )


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes of a 2-D or 3-D operand."""
    if a.value.ndim not in (2, 3):
        raise ShapeError(f"transpose requires a 2-D or 3-D operand, got {a.value.shape}")
    return a.tape._record(
        "transpose", np.swapaxes(a.value, -1, -2).copy(), (a.idx,),
        lambda g: (np.swapaxes(g, -1, -2),),
    )


def reshape(a: Tensor, shape) -> Tensor:
    old = a.value.shape
    return a.tape._record(
        "reshape", a.value.reshape(shape), (a.idx,), lambda g: (g.reshape(old),)
    )


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.value)
    return a.tape._record("tanh", out, (a.idx,), lambda g: (g * (1.0 - out * out),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.value, 0.0)
    mask = a.value > 0.0
    return a.tape._record("relu", out, (a.idx,), lambda g: (g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    av = a.value
    shifted = av - np.max(av, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return a.tape._record("softmax", out, (a.idx,), bwd)


# ------------------------------------------------------- named gradients

def leaves_of(tape: Tape, params: dict) -> dict[str, Tensor]:
    """Record params (name -> array) as leaves, in their order."""
    return {k: tape.leaf(v) for k, v in params.items()}


def reached_nodes(tape: Tape, loss: Tensor) -> set:
    """Indices of every node that loss depends on, found by walking the
    parents back from it (they stay on the nodes after the sweep)."""
    seen, todo = set(), [loss.idx]
    while todo:
        idx = todo.pop()
        if idx not in seen:
            seen.add(idx)
            todo.extend(tape.nodes[idx].parents)
    return seen


def leaf_grads(tape: Tape, loss: Tensor, leaves: dict) -> dict[str, np.ndarray]:
    """backward(tape, loss) cut back into the caller's names.

    `leaves` names every leaf on the tape, in recording order, by its
    Tensor or the array it records.  Like the dict of gradients backward
    once returned, the result holds only the leaves that loss reaches; the
    slice of any other leaf must read zero."""
    grad = backward(tape, loss)
    reached = reached_nodes(tape, loss)
    leaf_idx = [idx for idx, node in enumerate(tape.nodes) if node.op == "leaf"]
    assert len(leaf_idx) == len(leaves), "leaves must name every leaf on the tape"
    out, stop = {}, 0
    for idx, (name, leaf) in zip(leaf_idx, leaves.items()):
        start, stop = stop, stop + math.prod(leaf.shape)
        part = grad[start:stop].reshape(leaf.shape)
        if idx in reached:
            out[name] = part
        else:
            assert not part.any(), name
    assert stop == grad.size
    return out


# ----------------------------------------------------------- grad check

@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: dict
    passed: bool
    tol: float


def grad_check(
    f: Callable[[Tape, dict[str, np.ndarray]], Tensor],
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    tol: float = 1e-5,
) -> GradCheckReport:
    """Compare reverse-mode gradients of f against central differences.

    f receives a fresh tape and params (name -> array), records params as
    the tape's leaves in their order (as batch_forward does; `leaves_of`
    does it for f) and returns a scalar loss Tensor.  The relative error
    denominator is floored so that near-zero gradients are compared
    absolutely.
    """
    params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    def run(vals: dict[str, np.ndarray]) -> float:
        return float(f(Tape(record=False), vals).value)

    tape = Tape()
    ad_grads = leaf_grads(tape, f(tape, params), params)

    per_param = {}
    max_rel = 0.0
    for name, base in params.items():
        ad = ad_grads.get(name, np.zeros_like(base))
        fd = np.zeros_like(base)
        flat = base.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = run(params)
            flat[i] = orig - h
            f_minus = run(params)
            flat[i] = orig
            fd_flat[i] = (f_plus - f_minus) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-3)
        rel = float(np.max(np.abs(ad - fd) / denom)) if base.size else 0.0
        per_param[name] = rel
        max_rel = max(max_rel, rel)
    return GradCheckReport(max_rel_err=max_rel, per_param=per_param, passed=max_rel < tol, tol=tol)
