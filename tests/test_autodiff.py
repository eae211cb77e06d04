"""Reverse-mode tape tests.

Every primitive is exercised twice: once with a hand-derived gradient on a
tiny example, and once through `grad_check`, which compares the whole tape
against central finite differences.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops as ops
from reference_ops import grad_check, leaf_grads, leaves_of
from revode import autodiff as ad
from revode.autodiff import Tape, backward
from revode.errors import ShapeError


def tape_sum(t):
    """Sum of every entry of t as a scalar tensor, from reshapes and a
    product with ones; its gradient with respect to t is exactly ones."""
    flat = ops.reshape(t, (1, t.value.size))
    return ops.reshape(ad.matmul(flat, t.tape.const(np.ones((t.value.size, 1)))), ())


def leaf_pair(shape=(2, 3), seed=0):
    rng = np.random.default_rng(seed)
    tape = Tape()
    a = tape.leaf(rng.standard_normal(shape))
    b = tape.leaf(rng.standard_normal(shape))
    return tape, a, b


# ----------------------------------------------------- forward semantics

def test_basic_values():
    tape, a, b = leaf_pair()
    assert np.array_equal(ad.add(a, b).value, a.value + b.value)
    assert np.array_equal(ad.sub(a, b).value, a.value - b.value)
    assert np.array_equal(ops.mul(a, b).value, a.value * b.value)
    assert np.array_equal(ad.smul(a, 3.0).value, 3.0 * a.value)
    assert np.array_equal(ad.smul(a, -1.0).value, -a.value)
    shift = tape.const(np.full(a.shape, 1.5))
    assert np.array_equal(ad.add(a, shift).value, a.value + 1.5)


def test_matmul_value_and_shape():
    rng = np.random.default_rng(1)
    tape = Tape()
    A = tape.leaf(rng.standard_normal((2, 4)))
    B = tape.leaf(rng.standard_normal((4, 3)))
    C = ad.matmul(A, B)
    assert C.shape == (2, 3)
    assert np.allclose(C.value, A.value @ B.value)


def test_reductions_and_reshapes():
    tape, a, _ = leaf_pair()
    assert float(tape_sum(a).value) == pytest.approx(a.value.sum())
    assert ad.l2_norm_sq(a).value == pytest.approx(np.sum(a.value ** 2))
    assert ops.transpose(a).shape == (3, 2)
    assert ops.reshape(a, (6,)).shape == (6,)
    assert np.array_equal(ad.gather_rows(a, [1]).value, a.value[1:2])


def test_concat_values():
    tape, a, b = leaf_pair()
    c = ad.concat([a, b], axis=0)
    assert c.shape == (4, 3)
    assert np.array_equal(c.value, np.concatenate([a.value, b.value], axis=0))


def test_softmax_rows_sum_to_one():
    tape, a, _ = leaf_pair(shape=(4, 5))
    s = ops.softmax(a, axis=-1)
    assert np.allclose(s.value.sum(axis=-1), 1.0)


# ------------------------------------------------------ hand derivatives

def test_matmul_gradient_by_hand():
    """d/dA sum(A @ B) = ones @ B^T and d/dB = A^T @ ones."""
    tape = Tape()
    A = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    B = tape.leaf(np.array([[5.0, 6.0], [7.0, 8.0]]))
    loss = tape_sum(ad.matmul(A, B))
    grads = leaf_grads(tape, loss, {"A": A, "B": B})
    ones = np.ones((2, 2))
    assert np.allclose(grads["A"], ones @ B.value.T)
    assert np.allclose(grads["B"], A.value.T @ ones)


def test_l2_norm_sq_gradient_by_hand():
    tape = Tape()
    x = tape.leaf(np.array([1.0, -2.0, 3.0]))
    grads = leaf_grads(tape, ad.l2_norm_sq(x), {"x": x})
    assert np.allclose(grads["x"], 2.0 * x.value)


def test_fanout_accumulates():
    """A leaf feeding two consumers gets the sum of both gradients."""
    tape = Tape()
    x = tape.leaf(np.array([2.0]))
    loss = ad.add(ops.mul(x, x), ad.smul(x, 3.0))  # x^2 + 3x
    grads = leaf_grads(tape, loss, {"x": x})
    assert grads["x"][0] == pytest.approx(2 * 2.0 + 3.0)


def test_constants_get_no_gradient():
    tape = Tape()
    x = tape.leaf(np.array([1.0]))
    c = tape.const(np.array([5.0]))
    grad = backward(tape, ops.mul(x, c))
    assert grad.shape == (1,)  # a slice for the leaf, none for the constant
    assert grad[0] == pytest.approx(5.0)


def test_gather_rows_routes_gradient_to_selected_rows():
    tape = Tape()
    x = tape.leaf(np.arange(6.0).reshape(3, 2))
    grads = leaf_grads(tape, tape_sum(ad.gather_rows(x, [1])), {"x": x})
    expected = np.zeros((3, 2))
    expected[1, :] = 1.0
    assert np.array_equal(grads["x"], expected)


def test_concat_splits_gradient_between_parents():
    tape, a, b = leaf_pair()
    c = ad.concat([a, b], axis=0)
    w = tape.const(np.arange(12.0).reshape(4, 3))
    grads = leaf_grads(tape, tape_sum(ops.mul(c, w)), {"a": a, "b": b})
    assert np.array_equal(grads["a"], w.value[:2])
    assert np.array_equal(grads["b"], w.value[2:])


def test_add_bias_gradient_by_hand():
    """x + 1 b: d/dx is the upstream weight, d/db its sum over rows."""
    tape = Tape()
    x = tape.leaf(np.arange(6.0).reshape(3, 2))
    b = tape.leaf(np.array([[10.0, -1.0]]))
    y = ad.add_bias(x, b)
    assert np.array_equal(y.value, x.value + b.value)
    w = tape.const(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    grads = leaf_grads(tape, tape_sum(ops.mul(y, w)), {"x": x, "b": b})
    assert np.array_equal(grads["x"], w.value)
    assert np.array_equal(grads["b"], np.array([[9.0, 12.0]]))


def test_gather_scatter_rows_gradient_by_hand():
    """Repeated indices sum their gradients; rows never indexed get zero."""
    tape = Tape()
    x = tape.leaf(np.arange(8.0).reshape(4, 2))
    idx = np.array([2, 0, 2])  # row 0 once, row 2 twice, rows 1 and 3 never
    gathered = ad.gather_rows(x, idx)
    assert np.array_equal(gathered.value, x.value[idx])
    w = tape.const(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    grads = leaf_grads(tape, tape_sum(ops.mul(gathered, w)), {"x": x})
    assert np.array_equal(grads["x"], [[3.0, 4.0], [0.0, 0.0], [6.0, 8.0], [0.0, 0.0]])

    tape = Tape()
    m = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    summed = ops.scatter_rows(m, idx, 4)
    assert np.array_equal(summed.value, [[3.0, 4.0], [0.0, 0.0], [6.0, 8.0], [0.0, 0.0]])
    w = tape.const(np.arange(8.0).reshape(4, 2))
    grads = leaf_grads(tape, tape_sum(ops.mul(summed, w)), {"m": m})
    assert np.array_equal(grads["m"], w.value[idx])


def test_row_index_reused_across_widths():
    rows = ad.RowIndex([1, 1, 0], 3)
    for width in (2, 5, 2):
        x = np.arange(3.0 * width).reshape(3, width)
        expected = np.zeros((3, width))
        np.add.at(expected, rows.idx, x)
        assert np.array_equal(rows.segment_sum(x), expected)


def test_batched_matmul_transpose_gradient_by_hand():
    """Per batch entry: d/dA sum(A @ B^T) = ones @ B and d/dB = ones^T @ A."""
    rng = np.random.default_rng(3)
    tape = Tape()
    A = tape.leaf(rng.standard_normal((2, 3, 4)))
    B = tape.leaf(rng.standard_normal((2, 5, 4)))
    Bt = ops.transpose(B)
    assert Bt.shape == (2, 4, 5)
    C = ad.matmul(A, Bt)
    for k in range(2):
        assert np.allclose(C.value[k], A.value[k] @ B.value[k].T, atol=1e-14)
    grads = leaf_grads(tape, tape_sum(C), {"A": A, "B": B})
    for k in range(2):
        assert np.allclose(grads["A"][k], np.ones((3, 5)) @ B.value[k], atol=1e-14)
        assert np.allclose(grads["B"][k], np.ones((5, 3)) @ A.value[k], atol=1e-14)


# ------------------------------------------------- finite-difference sweep

def test_grad_check_elementwise_chain():
    """tanh/relu/add/mul/sub/smul, with a constant operand, composed into one scalar."""

    def f(tape, params):
        leaves = leaves_of(tape, params)
        x = leaves["x"]
        y = ops.tanh(x)
        y = ad.add(y, ops.relu(ad.sub(x, tape.const(np.full(x.shape, 0.5)))))
        y = ad.sub(y, ad.smul(ops.mul(x, x), 0.3))
        y = ad.add(y, ops.mul(ops.tanh(ad.smul(x, 0.1)), x))
        return tape_sum(ops.mul(y, y))

    rng = np.random.default_rng(4)
    report = grad_check(f, {"x": rng.standard_normal((3, 3)) + 1.5})
    assert report.passed, report.max_rel_err


def test_grad_check_relu_away_from_kink():
    def f(tape, params):
        leaves = leaves_of(tape, params)
        return tape_sum(ops.relu(leaves["x"]))

    x = np.array([[-1.0, 2.0], [0.5, -0.25]])  # no zeros: kink is non-differentiable
    report = grad_check(f, {"x": x})
    assert report.passed


def test_grad_check_matmul_softmax_pipeline():
    """A miniature attention-like pipeline through the tape."""

    def f(tape, params):
        leaves = leaves_of(tape, params)
        scores = ad.matmul(leaves["Q"], ops.transpose(leaves["K"]))
        attn = ops.softmax(scores, axis=-1)
        out = ad.matmul(attn, leaves["V"])
        return ad.l2_norm_sq(out)

    rng = np.random.default_rng(7)
    params = {
        "Q": rng.standard_normal((3, 4)),
        "K": rng.standard_normal((3, 4)),
        "V": rng.standard_normal((3, 2)),
    }
    report = grad_check(f, params, tol=1e-5)
    assert report.passed, report.max_rel_err


def test_grad_check_mean_concat_reshape():
    def f(tape, params):
        leaves = leaves_of(tape, params)
        a, b = leaves["a"], leaves["b"]
        c = ad.concat([a, b], axis=0)
        flat = ops.reshape(c, (c.value.size,))
        return ad.smul(ad.l2_norm_sq(flat), 1.0 / c.value.size)  # mean of squares

    rng = np.random.default_rng(12)
    report = grad_check(
        f, {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((5, 3))}
    )
    assert report.passed


def test_grad_check_add_bias():
    def f(tape, params):
        leaves = leaves_of(tape, params)
        return ad.l2_norm_sq(ops.tanh(ad.add_bias(leaves["x"], leaves["b"])))

    rng = np.random.default_rng(13)
    report = grad_check(f, {"x": rng.standard_normal((4, 3)), "b": rng.standard_normal((1, 3))})
    assert report.passed, report.max_rel_err


def test_grad_check_gather_scatter_rows():
    """A message-passing round: gather with repeats, scatter onto 5 rows of
    which rows 1 and 4 receive nothing."""
    src = np.array([0, 2, 2, 3, 0])
    tgt = np.array([2, 0, 3, 3, 2])

    def f(tape, params):
        leaves = leaves_of(tape, params)
        msg = ops.tanh(ad.matmul(ad.gather_rows(leaves["z"], src), leaves["W"]))
        return ad.l2_norm_sq(ops.scatter_rows(msg, ad.RowIndex(tgt, 5), 5))

    rng = np.random.default_rng(14)
    report = grad_check(f, {"z": rng.standard_normal((4, 3)), "W": rng.standard_normal((3, 2))})
    assert report.passed, report.max_rel_err


def test_grad_check_batched_attention():
    """3-D matmul and transpose in a batch of attention passes."""

    def f(tape, params):
        leaves = leaves_of(tape, params)
        scores = ad.matmul(leaves["Q"], ops.transpose(leaves["K"]))
        return ad.l2_norm_sq(ad.matmul(ops.softmax(scores, axis=-1), leaves["V"]))

    rng = np.random.default_rng(15)
    params = {
        "Q": rng.standard_normal((2, 3, 4)),
        "K": rng.standard_normal((2, 3, 4)),
        "V": rng.standard_normal((2, 3, 2)),
    }
    report = grad_check(f, params)
    assert report.passed, report.max_rel_err


def test_grad_check_reports_failure_when_ad_and_fd_disagree():
    """grad_check must be able to fail: FD straddling relu's kink at 0
    measures slope 1/2 while the tape reports 0."""

    def f(tape, params):
        leaves = leaves_of(tape, params)
        return tape_sum(ops.relu(leaves["x"]))

    report = grad_check(f, {"x": np.zeros((2, 2))}, h=1e-3)
    assert not report.passed


# ------------------------------------------------------------ error paths

def test_shape_mismatch_raises():
    tape = Tape()
    a = tape.leaf(np.zeros((2, 3)))
    b = tape.leaf(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.add(a, b)


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.zeros(3))
    b = t2.leaf(np.zeros(3))
    with pytest.raises(ShapeError):
        ad.add(a, b)


def test_backward_requires_scalar_loss():
    tape = Tape()
    a = tape.leaf(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        backward(tape, ops.mul(a, a))


def test_backward_requires_same_tape():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.zeros(1))
    loss = ad.smul(a, 2.0)
    with pytest.raises(ShapeError):
        backward(t2, loss)


def test_forward_only_tape_records_nothing():
    """A forward-only tape gives the recording tape's values bitwise, keeps
    no node, and refuses backward."""
    rng = np.random.default_rng(16)
    x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 2)), rng.standard_normal((1, 2))
    values = []
    for record in (True, False):
        tape = Tape(record=record)
        h = ops.relu(ad.add_bias(ad.matmul(tape.leaf(x), tape.const(w)), tape.leaf(b)))
        out = ad.l2_norm_sq(ops.softmax(ad.concat([h, ad.gather_rows(h, [3, 0, 0, 1])], axis=0)))
        values.append(out.value)
    assert len(tape) == 0 and tape.nodes == []
    assert values[0].tobytes() == values[1].tobytes()
    with pytest.raises(ShapeError, match="forward-only"):
        backward(tape, out)


def test_matmul_rejects_vector_operands():
    tape = Tape()
    a = tape.leaf(np.zeros(3))
    b = tape.leaf(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.matmul(a, b)


def test_add_bias_rejects_non_row_bias():
    tape = Tape()
    x = tape.leaf(np.zeros((3, 2)))
    for shape in ((2,), (3, 2), (1, 3), (2, 1)):
        with pytest.raises(ShapeError):
            ad.add_bias(x, tape.leaf(np.zeros(shape)))


def test_batched_matmul_rejects_mismatched_batch_axes():
    tape = Tape()
    a = tape.leaf(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        ad.matmul(a, tape.leaf(np.zeros((3, 4, 2))))
    with pytest.raises(ShapeError):
        ad.matmul(a, tape.leaf(np.zeros((4, 2))))  # no implicit broadcast
    with pytest.raises(ShapeError):
        ad.matmul(a, tape.leaf(np.zeros(4)))
    with pytest.raises(ShapeError):
        ops.transpose(tape.leaf(np.zeros(4)))


def test_gather_scatter_reject_bad_indices():
    tape = Tape()
    x = tape.leaf(np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        ad.gather_rows(x, [0, 3])
    with pytest.raises(ShapeError):
        ops.scatter_rows(x, [0, 1], 4)  # one index per row
    with pytest.raises(ShapeError):
        ops.scatter_rows(x, ad.RowIndex([0, 1, 2], 3), 4)


def test_row_blocks_takes_blocks_in_order_and_routes_their_gradient():
    """Blocks come out in the order asked; the gradient of a block not
    taken is -0.0, so summing it into another gradient keeps every bit,
    the sign of a zero included."""
    tape = Tape()
    x = tape.leaf(np.arange(12.0).reshape(6, 2))
    y = ad.row_blocks(x, 2, [2, 0])
    assert np.array_equal(y.value, x.value[[4, 5, 0, 1]])
    w = np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 4.0], [2.0, 2.0]])
    g = leaf_grads(tape, ad.l2_norm_sq(ops.mul(y, w)), {"x": x})["x"]
    expected = np.zeros((6, 2))
    expected[[4, 5, 0, 1]] = 2.0 * w * w * y.value
    assert np.array_equal(g, expected)
    assert np.all(np.signbit(g[2:4]))
    other = np.array([0.0, -0.0, 1.5])
    assert np.array_equal(np.signbit(np.full(3, -0.0) + other), np.signbit(other))


def signed_zeros(rng, shape):
    """Standard normal entries, about a third of them 0.0 and a third -0.0."""
    draw = rng.integers(0, 3, shape)
    return np.where(draw == 0, rng.standard_normal(shape), np.where(draw == 1, 0.0, -0.0))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), n_blocks=st.integers(1, 6), n=st.integers(1, 4), width=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_row_blocks_gradient_is_a_minus_zero_scatter(data, n_blocks, n, width, seed):
    """For any block order and sizes, the gradient is g scattered to the
    taken blocks over a -0.0 fill, and summed into another gradient of the
    operand it leaves the untaken blocks bit for bit as they were, signed
    zeros and whole -0.0 rows included."""
    blocks = data.draw(st.permutations(range(n_blocks)))[:data.draw(st.integers(1, n_blocks))]
    rng = np.random.default_rng(seed)
    tape = Tape()
    x = tape.leaf(signed_zeros(rng, (n_blocks * n, width)))
    y = ad.row_blocks(x, n, blocks)
    g, other = signed_zeros(rng, y.value.shape), signed_zeros(rng, x.value.shape)
    other[rng.random(len(other)) < 0.5] = -0.0  # whole -0.0 rows too
    scatter = np.full(x.value.shape, -0.0)
    for j, b in enumerate(blocks):
        assert y.value[j * n:(j + 1) * n].tobytes() == x.value[b * n:(b + 1) * n].tobytes()
        scatter[b * n:(b + 1) * n] = g[j * n:(j + 1) * n]
    (grad,) = tape.nodes[y.idx].bwd(g)
    assert grad.tobytes() == scatter.tobytes()

    loss = ad.add(tape_sum(ops.mul(y, tape.const(g))), tape_sum(ops.mul(x, tape.const(other))))
    assert leaf_grads(tape, loss, {"x": x})["x"].tobytes() == (other + scatter).tobytes()
    untaken = [r for r in range(n_blocks * n) if r // n not in blocks]
    assert (other + scatter)[untaken].tobytes() == other[untaken].tobytes()


def test_row_blocks_rejects_bad_blocks():
    tape = Tape()
    x = tape.leaf(np.zeros((6, 2)))
    for n, blocks in [(4, [0]), (2, [3]), (2, [-1]), (2, [1, 1])]:
        with pytest.raises(ShapeError):
            ad.row_blocks(x, n, blocks)


# ------------------------------------------------------- tape properties

CHAIN_STEPS = ("add", "sub", "smul", "matmul", "add_bias", "gather_rows", "row_blocks", "concat")


def primitive_chain(tape, steps, n, seed):
    """Replay `steps` on `tape` from two (n, n) leaves and a (1, n) bias
    leaf; each step applies one primitive to (n, n) operands that a seeded
    rng picks among the leaves and the earlier results ("concat" stacks two
    and takes one n-row block back).  Returns (leaves, results, loss), the
    loss adding l2_norm_sq of the last result and of one more pick."""
    rng = np.random.default_rng(seed)
    leaves = [tape.leaf(rng.standard_normal(shape)) for shape in ((n, n), (n, n), (1, n))]
    pool = leaves[:2]

    def pick():
        return pool[rng.integers(len(pool))]

    apply = {
        "add": lambda x: ad.add(x, pick()),
        "sub": lambda x: ad.sub(x, pick()),
        "smul": lambda x: ad.smul(x, rng.standard_normal()),
        "matmul": lambda x: ad.matmul(x, pick()),
        "add_bias": lambda x: ad.add_bias(x, leaves[2]),
        "gather_rows": lambda x: ad.gather_rows(x, rng.integers(n, size=n)),
        "row_blocks": lambda x: ad.row_blocks(x, 1, rng.permutation(n)),
        "concat": lambda x: ad.row_blocks(ad.concat([x, pick()]), n, [rng.integers(2)]),
    }
    for step in steps:
        pool.append(apply[step](pick()))
    loss = ad.add(ad.l2_norm_sq(pool[-1]), ad.l2_norm_sq(pick()))
    return leaves, pool[2:], loss


@settings(max_examples=60, derandomize=True, deadline=None)
@given(steps=st.lists(st.sampled_from(CHAIN_STEPS), min_size=1, max_size=8),
       n=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_tape_properties_over_primitive_chains(steps, n, seed):
    """Over any chain of the primitives, with the cycle collector off: a
    forward-only tape records no node and gives the same values; a node's
    value reads empty exactly when no Tensor or backward closure holds it,
    before and after the sweep; and a second backward raises."""
    gc.disable()
    try:
        quiet = Tape(record=False)
        _, quiet_results, _ = primitive_chain(quiet, steps, n, seed)
        assert len(quiet) == 0 and quiet.nodes == []
        tape = Tape()
        leaves, results, loss = primitive_chain(tape, steps, n, seed)
        assert [t.value.tobytes() for t in quiet_results] == [t.value.tobytes() for t in results]
        del quiet_results, results

        def assert_held_exactly(tensors):
            held = {id(t.value) for t in tensors} | {
                id(cell.cell_contents) for node in tape.nodes if node.bwd is not None
                for cell in node.bwd.__closure__ or ()
                if isinstance(cell.cell_contents, np.ndarray)}
            for node in tape.nodes:
                assert (node.value.size == 0) == (id(node.value) not in held), node.op

        assert_held_exactly(leaves + [loss])
        backward(tape, loss)
        with pytest.raises(ShapeError, match="already ran"):
            backward(tape, loss)
        del loss
        assert all(node.bwd is None for node in tape.nodes)
        assert_held_exactly(leaves)
    finally:
        gc.enable()
