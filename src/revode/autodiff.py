"""Reverse-mode automatic differentiation on an explicit tape.

Nodes are appended in creation order, which is already a topological order
(every parent index is smaller than its child's), so the backward sweep is
a single reversed loop over the node list; it returns every leaf's
gradient in one float64 vector, in recording order.  A node's backward may
be a generator, so an op with many parents (a whole rollout leg) hands out
their gradients one at a time and never holds them all.  Values are float64
numpy arrays, held by the Tensors themselves.  A node refers to its value
only weakly, so a recording tape pins just what its backward closures
capture: an intermediate that no closure reads is freed as soon as its
Tensor goes, and the sweep lets each closure go once it has passed its
node.  A forward-only tape (record=False) keeps no nodes at all, so a pass
that never runs backward holds only the values its caller still references.
The primitives here are those the model and the losses record.  The
model's encoder, rollout legs and decoder are single nodes whose backwards
keep a few arrays and recompute the rest; the chains of primitives whose
bits they reproduce, and the finite-difference check, live with the tests.
Elementwise ops require exactly matching shapes -- the only broadcasting
allowed anywhere is smul's scalar-times-tensor and add_bias's (1, c) row,
which keeps silent shape bugs out of the gradient path.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import ShapeError


_GONE = np.empty(0)
_GONE.flags.writeable = False


class Node:
    """One recorded op.  The node holds its value weakly: `value` is the
    array while a Tensor or a backward closure still holds it, and a shared
    empty array once it is gone.  The sweep never reads it; `shape` outlives it."""

    __slots__ = ("op", "_value", "parents", "bwd", "shape")

    def __init__(self, op, value, parents, bwd):
        self.op = op
        self._value = weakref.ref(value)
        self.shape = value.shape
        self.parents = parents
        # callable(out_grad) -> iterable of parent grads, one per parent in
        # order; the sweep adds each into its parent as it is produced
        self.bwd = bwd

    @property
    def value(self) -> np.ndarray:
        value = self._value()
        return _GONE if value is None else value


class Tensor:
    """Lightweight handle: a tape, an index into it (-1 on a forward-only
    tape) and the value."""

    __slots__ = ("tape", "idx", "value")

    def __init__(self, tape: "Tape", idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape


class Tape:
    def __init__(self, record: bool = True):
        self.record = record
        self.nodes: list[Node] = []
        self.swept = False  # backward ran, and let every closure it passed go

    def _record(self, op, value, parents, bwd) -> Tensor:
        value = np.asarray(value, dtype=np.float64)
        if not self.record:
            return Tensor(self, -1, value)
        for p in parents:
            assert 0 <= p < len(self.nodes)
        self.nodes.append(Node(op, value, parents, bwd))
        return Tensor(self, len(self.nodes) - 1, value)

    def leaf(self, value) -> Tensor:
        """A parameter: backward() returns its gradient as its slice of one vector."""
        return self._record("leaf", value, (), None)

    def const(self, value) -> Tensor:
        """A constant input; participates in forward, gets no gradient."""
        return self._record("const", value, (), None)

    def __len__(self):
        return len(self.nodes)


def parent_indices(tape: Tape, tensors) -> tuple:
    """The indices of `tensors`, a node's parents, each checked to be on `tape`."""
    if any(t.tape is not tape for t in tensors):
        raise ShapeError("operands belong to different tapes")
    return tuple(t.idx for t in tensors)


def _lift(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        parent_indices(tape, (x,))
        return x
    return tape.const(x)


def _same_shape(op, a, b):
    if a.value.shape != b.value.shape:
        raise ShapeError(
            f"{op}: operand shapes {a.value.shape} and {b.value.shape} differ "
            "(only scalar broadcast is supported; see smul)"
        )


# ----------------------------------------------------------- primitives

def add(a: Tensor, b) -> Tensor:
    b = _lift(a.tape, b)
    _same_shape("add", a, b)
    return a.tape._record(
        "add", a.value + b.value, (a.idx, b.idx), lambda g: (g, g)
    )


def sub(a: Tensor, b) -> Tensor:
    b = _lift(a.tape, b)
    _same_shape("sub", a, b)
    return a.tape._record(
        "sub", a.value - b.value, (a.idx, b.idx), lambda g: (g, -g)
    )


def smul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return a.tape._record("smul", a.value * c, (a.idx,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; 3-D operands share their batch axis."""
    b = _lift(a.tape, b)
    av, bv = a.value, b.value
    if av.ndim not in (2, 3) or bv.ndim not in (2, 3):
        raise ShapeError(f"matmul requires 2-D or 3-D operands, got {av.shape} @ {bv.shape}")
    if av.shape[:-2] != bv.shape[:-2]:
        raise ShapeError(f"matmul batch axes differ: {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {av.shape} @ {bv.shape}")
    return a.tape._record(
        "matmul",
        av @ bv,
        (a.idx, b.idx),
        lambda g: (g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g),
    )


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b for a (1, c) row b added to every row of a 2-D x."""
    b = _lift(x.tape, b)
    xv, bv = x.value, b.value
    if xv.ndim != 2 or bv.shape != (1, xv.shape[1]):
        raise ShapeError(f"add_bias needs (r, c) + (1, c), got {xv.shape} + {bv.shape}")
    return x.tape._record(
        "add_bias", xv + bv, (x.idx, b.idx), lambda g: (g, g.sum(axis=0, keepdims=True))
    )


class RowIndex:
    """Row indices into an n-row operand, reusable across gather_rows calls
    and segment sums.  Rows sharing an index are summed by one bincount
    over flat (row, column) bins, whose index is built once per width."""

    def __init__(self, idx, n: int):
        self.idx, self.n, self._bins = np.asarray(idx, dtype=np.int64), int(n), {}
        if self.idx.ndim != 1 or not np.all((self.idx >= 0) & (self.idx < n)):
            raise ShapeError(f"row indices must be 1-D and lie in [0, {n})")

    def segment_sum(self, x: np.ndarray) -> np.ndarray:
        """(n, c) array whose row r sums the rows e of x with idx[e] == r."""
        n, c = self.n, x.shape[1]
        if c not in self._bins:
            self._bins[c] = (self.idx[:, None] * c + np.arange(c)).reshape(-1)
        return np.bincount(self._bins[c], weights=x.reshape(-1), minlength=n * c).reshape(n, c)


def _rows(idx, n: int) -> RowIndex:
    rows = idx if isinstance(idx, RowIndex) else RowIndex(idx, n)
    if rows.n != n:
        raise ShapeError(f"row index built for {rows.n} rows, used with {n}")
    return rows


def gather_rows(a: Tensor, idx) -> Tensor:
    """Rows a[idx] of a 2-D a; the gradient sums back into repeated rows."""
    rows = _rows(idx, a.value.shape[0])
    if a.value.ndim != 2:
        raise ShapeError(f"gather_rows requires a 2-D operand, got {a.value.shape}")
    return a.tape._record(
        "gather_rows", a.value[rows.idx], (a.idx,), lambda g: (rows.segment_sum(g),)
    )


def row_blocks(a: Tensor, n: int, blocks) -> Tensor:
    """Row blocks a[b*n : (b+1)*n] of a 2-D a, for each b in `blocks` (no
    repeats), stacked in that order; the gradient goes back to those rows."""
    av = a.value
    if av.ndim != 2 or n < 1 or av.shape[0] % n:
        raise ShapeError(f"row_blocks needs a 2-D operand of whole {n}-row blocks, got {av.shape}")
    stacked = (av.shape[0] // n, n, av.shape[1])
    idx = np.asarray(blocks, dtype=np.int64).reshape(-1)
    if len(set(idx.tolist())) != idx.size or np.any((idx < 0) | (idx >= stacked[0])):
        raise ShapeError(f"row_blocks needs distinct block indices in [0, {stacked[0]})")

    def bwd(g):
        # -0.0 is the exact identity of addition, so the blocks not taken add
        # nothing when this sums into the operand's gradient, not even a sign
        out = np.full(stacked, -0.0)
        out[idx] = g.reshape(idx.size, n, -1)
        return (out.reshape(-1, stacked[2]),)

    return a.tape._record("row_blocks", av.reshape(stacked)[idx].reshape(-1, av.shape[1]),
                          (a.idx,), bwd)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of zero tensors")
    tape = tensors[0].tape
    tensors = [_lift(tape, t) for t in tensors]
    values = [t.value for t in tensors]
    nd = values[0].ndim
    for v in values[1:]:
        if v.ndim != nd:
            raise ShapeError("concat operands must share rank")
    out = np.concatenate(values, axis=axis)
    sizes = [v.shape[axis] for v in values]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return tape._record("concat", out, tuple(t.idx for t in tensors), bwd)


def l2_norm_sq(a: Tensor) -> Tensor:
    av = a.value
    return a.tape._record(
        "l2_norm_sq", np.sum(av * av), (a.idx,), lambda g: (2.0 * float(g) * av,)
    )


# ------------------------------------------------------------- backward

def backward(tape: Tape, loss: Tensor) -> np.ndarray:
    """d(loss)/d(leaf) for every leaf, raveled into one float64 vector in
    recording order (zeros where the sweep never reaches); loss must be
    scalar.  The sweep drops each node's backward closure as it passes, so
    a tape is swept once: a second call raises ShapeError."""
    if loss.tape is not tape:
        raise ShapeError("loss does not belong to this tape")
    if not tape.record:
        raise ShapeError("backward needs a recording tape; this one is forward-only")
    if loss.value.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if tape.swept:
        raise ShapeError("backward already ran on this tape and freed its closures; record a new tape")
    tape.swept = True
    grads: list[np.ndarray | None] = [None] * len(tape.nodes)
    grads[loss.idx] = np.ones_like(loss.value)
    for idx in range(loss.idx, -1, -1):
        g = grads[idx]
        node = tape.nodes[idx]
        bwd, node.bwd = node.bwd, None  # what the closure holds goes with it
        if g is None or bwd is None:
            continue
        grads[idx] = None  # spent: free it as the sweep goes
        # parents may share one array (add passes g to both); sums never
        # write in place, and leaf gradients are copied out below
        for pidx, pg in zip(node.parents, bwd(g)):
            grads[pidx] = pg if grads[pidx] is None else grads[pidx] + pg
    return np.concatenate([np.zeros(0)] + [  # the empty head serves a tape without leaves
        (np.zeros(node.shape) if grads[idx] is None else grads[idx]).ravel()
        for idx, node in enumerate(tape.nodes) if node.op == "leaf"])
