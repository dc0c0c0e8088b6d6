"""Tensor core: RNG stream, autodiff ops, GRU cells, Adam, grad checks."""

from __future__ import annotations

import ast
import inspect
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idiomatize import numerics
from idiomatize.numerics import (
    GruCell,
    NumericError,
    ParamStore,
    Tensor,
    adam_step,
    add,
    bigru_encode,
    bigru_scan,
    concat,
    exp,
    fit,
    getitem,
    global_grad_norm,
    grad_check,
    gru_pool,
    gru_project,
    gru_rows,
    gru_step,
    logsumexp,
    matvec,
    mul,
    reshape,
    softmax,
    softplus,
    sub,
    tanh,
    tsum,
    vecmat,
    zeros,
)
from idiomatize.numerics.optim import INIT_SCALE
from idiomatize.numerics.tensor import _node, _sigmoid_np
from idiomatize.rng import Rng

from oracles import (
    reference_gru_step,
    reference_logsumexp,
    reference_matmul,
    reference_param_init,
    reference_sigmoid,
    reference_softmax,
)

finite_floats = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)


# --- RNG ---------------------------------------------------------------


def _ref_splitmix64(state):
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, z ^ (z >> 31)


def _ref_stream(seed, count):
    """Independent xorshift64* reimplementation for stream comparison."""
    mask = (1 << 64) - 1
    state, z = _ref_splitmix64(seed & mask)
    while z == 0:
        state, z = _ref_splitmix64(state)
    x = z
    out = []
    for _ in range(count):
        x ^= x >> 12
        x = (x ^ (x << 25)) & mask
        x ^= x >> 27
        out.append((x * 0x2545F4914F6CDD1D) & mask)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**63])
def test_rng_matches_reference_stream(seed):
    rng = Rng(seed)
    assert [rng.next_u64() for _ in range(64)] == _ref_stream(seed, 64)


def test_rng_same_seed_same_stream():
    a, b = Rng(99), Rng(99)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, True, False, 1.0, 3.5, "1", None, np.int64(1)])
def test_rng_rejects_seeds_that_are_not_64_bit_integers(seed):
    # True would seed as 1 and 2**64 would fold onto 0: neither is taken.
    with pytest.raises(ValueError, match="seed must be an integer"):
        Rng(seed)


def test_rng_random_unit_interval():
    rng = Rng(3)
    draws = [rng.random() for _ in range(2000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.03


def test_rng_randint_bounds_and_errors():
    rng = Rng(5)
    assert all(0 <= rng.randint(7) < 7 for _ in range(500))
    with pytest.raises(ValueError):
        rng.randint(0)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=30))
def test_rng_shuffle_is_permutation(seed, n):
    rng = Rng(seed)
    items = list(range(n))
    rng.shuffle(items)
    assert sorted(items) == list(range(n))


def test_rng_sample_distinct_subset():
    rng = Rng(11)
    pool = list(range(20))
    picked = rng.sample(pool, 8)
    assert len(set(picked)) == 8
    assert set(picked) <= set(pool)
    with pytest.raises(ValueError):
        rng.sample(pool, 21)


def test_rng_uniform_range():
    rng = Rng(2)
    assert all(-3.0 <= rng.uniform(-3.0, 4.0) < 4.0 for _ in range(200))


# Lane lengths are powers of two, so draws of 2**k - 1, 2**k and 2**k + 1 values
# end just inside, on and just past a lane boundary.
draw_counts = st.one_of(
    st.integers(min_value=0, max_value=5000),
    st.builds(lambda k, d: max(0, (1 << k) + d), st.integers(min_value=0, max_value=14), st.sampled_from((-1, 0, 1))),
)


@given(
    st.one_of(st.sampled_from((0, 2**63)), st.integers(min_value=0, max_value=2**64 - 1)),
    draw_counts,
    st.sampled_from(((-INIT_SCALE, INIT_SCALE), (-2, 2), (0.0, 1.0), (-3.0, 4.0), (1e-3, 1e3))),
)
def test_rng_uniforms_is_the_scalar_stream(seed, n, bounds):
    lo, hi = bounds
    fast, slow = Rng(seed), Rng(seed)
    values = fast.uniforms(n, lo, hi)
    expect = np.array([slow.uniform(lo, hi) for _ in range(n)], dtype=np.float64)
    assert values.dtype == np.float64 and values.shape == (n,)
    assert np.array_equal(values.view(np.uint64), expect.view(np.uint64))
    assert fast._state == slow._state
    assert [fast.next_u64() for _ in range(16)] == [slow.next_u64() for _ in range(16)]


def test_rng_uniforms_rejects_a_negative_count():
    with pytest.raises(ValueError):
        Rng(0).uniforms(-1, 0.0, 1.0)


def test_param_store_init_draws_the_scalar_stream_between_other_draws():
    store, rng, ref_rng = ParamStore(), Rng(17), Rng(17)
    first = store.add("first", (64, 70), rng)
    picks = [rng.randint(1000) for _ in range(5)]
    second = store.add("second", (3,), rng, scale=0.5)
    empty = store.add("empty", (0, 4), rng)
    third = store.add("third", (129, 2), rng)
    assert np.array_equal(first.data, reference_param_init(ref_rng, (64, 70), INIT_SCALE))
    assert picks == [ref_rng.randint(1000) for _ in range(5)]
    assert np.array_equal(second.data, reference_param_init(ref_rng, (3,), 0.5))
    assert empty.data.shape == (0, 4)
    assert np.array_equal(third.data, reference_param_init(ref_rng, (129, 2), INIT_SCALE))
    assert rng.next_u64() == ref_rng.next_u64()


def test_sigmoid_equals_the_two_division_form_bit_for_bit():
    edges = np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, np.nan, 5e-324, -5e-324, 36.7, -745.2])
    rng = Rng(4)
    for x in (edges, rng.uniforms(223 * 64, -40.0, 40.0).reshape(223, 64), rng.uniforms(64, -3.0, 3.0).reshape(1, 64)):
        assert np.array_equal(_sigmoid_np(x), reference_sigmoid(x), equal_nan=True)


# --- elementwise and reduction ops --------------------------------------


def test_softmax_matches_reference():
    values = [0.3, -1.2, 2.5, 0.0]
    out = softmax(Tensor(values))
    assert np.allclose(out.data, reference_softmax(values), atol=1e-12)


def test_softmax_extreme_scores_no_overflow():
    out = softmax(Tensor([700.0, -700.0, 0.0]))
    assert np.isfinite(out.data).all()
    assert abs(out.data.sum() - 1.0) < 1e-12


@given(st.lists(finite_floats, min_size=1, max_size=12))
def test_softmax_sums_to_one(values):
    assert abs(softmax(Tensor(values)).data.sum() - 1.0) < 1e-12


@given(st.lists(finite_floats, min_size=1, max_size=12))
def test_logsumexp_matches_reference(values):
    got = logsumexp(Tensor(values)).item()
    assert math.isclose(got, reference_logsumexp(values), rel_tol=1e-12, abs_tol=1e-12)


def test_logsumexp_axis():
    data = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]])
    by_row = logsumexp(Tensor(data), axis=1)
    expect = [reference_logsumexp(list(row)) for row in data]
    assert np.allclose(by_row.data, expect, atol=1e-12)
    by_col = logsumexp(Tensor(data), axis=0)
    expect = [reference_logsumexp(list(col)) for col in data.T]
    assert np.allclose(by_col.data, expect, atol=1e-12)


def test_backward_requires_scalar_and_finite():
    t = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NumericError):
        (t * 2.0).backward()
    with np.errstate(invalid="ignore"):
        bad = _log_node(Tensor([-1.0], requires_grad=True))
    with pytest.raises(NumericError):
        tsum(bad).backward()


def test_ops_track_exactly_when_an_operand_requires_a_gradient():
    # Every op and gru_step builds a node when its operands, weights
    # included, require a gradient, and a plain Tensor when none does.
    rng = np.random.default_rng(0)
    for tracked in (True, False):
        store = ParamStore()
        cell = GruCell(store, "cell", 3, 4, Rng(0))
        for t in store.params.values():
            t.requires_grad = tracked
        cases = {**OP_CASES, "gru_step": (lambda h, x: gru_step(cell, h, x), [(2, 4), (2, 3)])}
        for name, (build, shapes) in cases.items():
            out = build(*[Tensor(rng.normal(size=shape), requires_grad=tracked) for shape in shapes])
            assert out.requires_grad == tracked and (out._backward is not None) == tracked, (tracked, name)


def test_getitem_accumulates_duplicate_indices():
    store = ParamStore()
    w = store.add_zeros("w", (3,))
    w.data[:] = [1.0, 2.0, 3.0]
    store.zero_grads()
    tsum(w[[0, 0, 1]]).backward()
    assert np.array_equal(w.grad, [2.0, 1.0, 0.0])


def test_unbroadcast_sums_gradients():
    store = ParamStore()
    b = store.add_zeros("b", (3,))
    m = Tensor(np.ones((4, 3)), requires_grad=False)
    store.zero_grads()
    tsum(m + b).backward()
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])


# --- op-level gradient checks -------------------------------------------


def _log_node(a: Tensor) -> Tensor:
    """``log(a)`` as a test-local tape node: NaN below zero."""
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def _projected(vec: Tensor, coeffs) -> Tensor:
    return tsum(vec * Tensor(coeffs))


def _op_gradcheck(build_loss, shapes, seed=0):
    """Gradcheck an op given parameter shapes and a loss builder."""
    rng = Rng(seed)
    store = ParamStore()
    for i, shape in enumerate(shapes):
        store.add(f"p{i}", shape, rng, scale=0.5)
    params = [store[f"p{i}"] for i in range(len(shapes))]
    return grad_check(lambda _s: build_loss(*params), store, eps=1e-5)


OP_TOLERANCE = 1e-6

ROW_COEFFS = [[1.0, -2.0, 0.5, 3.0], [0.25, -1.0, 2.0, -0.5], [1.5, 0.75, -3.0, 1.0]]  # B = 3 rows

OP_CASES = {
    "add_broadcast": (lambda a, b: tsum(a + b), [(3, 4), (4,)]),
    "sub": (lambda a, b: tsum(a - b), [(5,), (5,)]),
    "mul_broadcast": (lambda a, b: tsum(a * b), [(2, 3), (3,)]),
    "neg": (lambda a: tsum(-a), [(4,)]),
    "tanh": (lambda a: tsum(tanh(a)), [(7,)]),
    "exp": (lambda a: tsum(exp(a)), [(5,)]),
    "softplus": (lambda a: tsum(softplus(a * 3.0)), [(6,)]),
    "logsumexp_flat": (lambda a: logsumexp(a), [(8,)]),
    "logsumexp_axis0": (lambda a: tsum(logsumexp(a, axis=0)), [(3, 4)]),
    "logsumexp_axis1": (lambda a: tsum(logsumexp(a, axis=1)), [(3, 4)]),
    "matvec": (lambda w, x: _projected(matvec(w, x), ROW_COEFFS), [(4, 5), (3, 5)]),
    "vecmat": (lambda x, w: _projected(vecmat(x, w), ROW_COEFFS), [(3, 5), (5, 4)]),
    "vecmat_per_row": (lambda x, w: _projected(vecmat(x, w), ROW_COEFFS), [(3, 5), (3, 5, 4)]),
    "softmax_proj": (lambda a: _projected(softmax(a), [1.0, -2.0, 0.5, 3.0]), [(4,)]),
    "softmax_rows": (lambda a: _projected(softmax(a), [[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]]), [(2, 3)]),
    "concat": (lambda a, b: _projected(concat([a, b]), [1.0, 2.0, 3.0, -1.0, 0.5]), [(2,), (3,)]),
    "concat_rows": (lambda a, b: _projected(concat([a, b]), [[1.0, 2.0, 3.0], [-1.0, 0.5, 4.0]]), [(2, 1), (2, 2)]),
    "concat_axis0": (
        lambda a, b: _projected(concat([a, b], axis=0), [[1.0, 2.0, 3.0], [-1.0, 0.5, 4.0], [2.0, -3.0, 0.25]]),
        [(1, 3), (2, 3)],
    ),
    "getitem_dup": (lambda a: tsum(a[[0, 0, 2]]), [(3, 2)]),
    "getitem_pairs": (lambda a: tsum(a[[0, 1, 1], [2, 0, 2]]), [(2, 3)]),
    "getitem_row": (lambda a: tsum(a[1]), [(3, 4)]),
    "getitem_slice": (lambda a: tsum(a[1:3]), [(4,)]),
    "reshape": (lambda a: tsum(vecmat(reshape(a, (2, 3)), Tensor([[1.0], [2.0], [3.0]]))), [(6,)]),
    "tsum_axis": (lambda a: _projected(tsum(a, axis=0), [1.0, -1.0, 2.0]), [(4, 3)]),
}


def test_concat_joins_along_the_first_or_last_axis_only():
    a, b = Tensor(np.ones((1, 2))), Tensor(np.zeros((2, 2)))
    assert concat([a, b], axis=0).data.tolist() == [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="axis 0 or -1"):
        concat([a, b], axis=1)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients(name):
    build_loss, shapes = OP_CASES[name]
    assert _op_gradcheck(build_loss, shapes) <= OP_TOLERANCE


def test_every_tape_op_has_a_gradient_case():
    ops = [
        name for name in numerics.__all__
        if inspect.isfunction(fn := getattr(numerics, name))
        and fn.__module__ == "idiomatize.numerics.tensor"
        and name != "zeros"
    ]
    assert "getitem" in ops
    missing = [op for op in ops if not any(case == op or case.startswith(op + "_") for case in OP_CASES)]
    assert missing == []


class _TapeOpReads(ast.NodeVisitor):
    """The tape ops one module reads by bare name, outside the function that defines each.

    A name counts only where it is the tape's: defined at the module's top
    level (``numerics/tensor.py``) or imported from ``numerics`` or its
    ``tensor`` module, so ``np.log`` or a logger named ``log`` is no use of an op.
    """

    def __init__(self, ops: set[str]):
        self.ops = ops
        self.bound: set[str] = set()
        self.reads: set[str] = set()
        self.scopes: list[str] = []

    def visit_ImportFrom(self, node):
        if (node.module or "").split(".")[-1] in ("numerics", "tensor"):
            self.bound.update(alias.name for alias in node.names if alias.asname is None)

    def visit_FunctionDef(self, node):
        if not self.scopes:
            self.bound.add(node.name)
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_ClassDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Name(self, node):
        if node.id not in self.scopes:
            self.reads.add(node.id)

    def used(self) -> set[str]:
        return self.ops & self.bound & self.reads


def test_every_exported_tape_op_is_used_in_the_package():
    # The tape keeps only the ops its models call.  A use through an operator
    # counts: ``add`` is referenced by ``Tensor.__add__``, ``getitem`` by ``__getitem__``.
    ops = {
        name for name in numerics.__all__
        if inspect.isfunction(fn := getattr(numerics, name)) and fn.__module__ == "idiomatize.numerics.tensor"
    }
    used = set()
    for path in pathlib.Path(numerics.__file__).parent.parent.rglob("*.py"):
        reads = _TapeOpReads(ops)
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
        used |= reads.used()
    assert "getitem" in ops
    assert sorted(ops - used) == []


def _identifiers(tree: ast.AST):
    """(identifier, enclosing def and class names, whether it is read) for every name a module
    defines, binds, reads or imports; an import counts as a read."""

    def walk(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, scopes, False
            scopes = scopes + (node.name,)
        elif isinstance(node, ast.Name):
            yield node.id, scopes, not isinstance(node.ctx, ast.Store)
        elif isinstance(node, ast.Attribute):
            yield node.attr, scopes, not isinstance(node.ctx, ast.Store)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.name.split(".")[-1], scopes, True) for alias in node.names)
        elif isinstance(node, ast.Global):
            yield from ((name, scopes, False) for name in node.names)
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scopes)

    return walk(tree, ())


def test_only_the_tensor_module_decides_tracking_and_adds_gradients():
    # ``_node`` alone decides whether a result is tracked, from its parents
    # only (there is no grad mode), and only numerics/tensor.py touches
    # gradient buffers.
    root = pathlib.Path(numerics.__file__).parent.parent
    tensor_py = root / "numerics" / "tensor.py"
    found = []
    for path in sorted(root.rglob("*.py")):
        for name, scopes, read in _identifiers(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.relative_to(root)}:{'.'.join(scopes) or '<module>'}"
            if name in ("_track", "no_grad", "_grad_enabled"):
                found.append(f"{where} names {name}")
            elif read and name in ("_accum", "_grad") and path != tensor_py:
                found.append(f"{where} reads {name}")
    assert found == []


# loss = tsum(op(x, y)) for each op with two operands: (op, shapes, the
# exact gradients of the loss with respect to x and to y, as arrays).
CONSTANT_OPERAND_CASES = {
    "add": (add, [(2, 3), (3,)], lambda x, y: (np.ones((2, 3)), np.full(3, 2.0))),
    "sub": (sub, [(2, 3), (3,)], lambda x, y: (np.ones((2, 3)), np.full(3, -2.0))),
    "mul": (mul, [(2, 3), (3,)], lambda x, y: (np.broadcast_to(y, (2, 3)), x.sum(axis=0))),
    "matvec": (
        matvec, [(2, 3), (4, 3)],
        lambda x, y: (np.broadcast_to(y.sum(axis=0), (2, 3)), np.broadcast_to(x.sum(axis=0), (4, 3))),
    ),
    "vecmat": (
        vecmat, [(2, 3), (3, 4)],
        lambda x, y: (np.broadcast_to(y.sum(axis=1), (2, 3)), np.broadcast_to(x.sum(axis=0)[:, None], (3, 4))),
    ),
    "vecmat_one_row": (vecmat, [(1, 3), (3, 4)], lambda x, y: (y.sum(axis=1)[None, :], np.broadcast_to(x.T, (3, 4)))),
    "vecmat_one_column": (vecmat, [(1, 3), (3, 1)], lambda x, y: (y.T, x.T)),
    "vecmat_per_row": (
        vecmat, [(2, 3), (2, 3, 4)], lambda x, y: (y.sum(axis=2), np.broadcast_to(x[:, :, None], (2, 3, 4)))
    ),
    "concat": (lambda x, y: concat([x, y]), [(2,), (3,)], lambda x, y: (np.ones(2), np.ones(3))),
}


@pytest.mark.parametrize("constant", [0, 1])
@pytest.mark.parametrize("name", sorted(CONSTANT_OPERAND_CASES))
def test_constant_operand_gets_no_gradient(name, constant):
    op, shapes, gradients = CONSTANT_OPERAND_CASES[name]
    # Small integers, so every gradient is exact.
    arrays = [np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape) * (2 * i - 1) for i, shape in enumerate(shapes)]
    operands = [Tensor(data, requires_grad=i != constant) for i, data in enumerate(arrays)]
    tsum(op(*operands)).backward()
    assert operands[constant].grad is None
    trained = 1 - constant
    assert np.array_equal(operands[trained].grad, gradients(*arrays)[trained])


def test_grad_check_eps_validation():
    store = ParamStore()
    store.add_zeros("w", (2,))
    with pytest.raises(ValueError):
        grad_check(lambda _s: tsum(store["w"]), store, eps=1e-7)
    with pytest.raises(ValueError):
        grad_check(lambda _s: tsum(store["w"]), store, eps=1e-2)


def test_grad_check_rejects_nonfinite_gradients():
    store = ParamStore()
    w = store.add_zeros("w", (2,))
    w.data[:] = [5e-6, 1.0]

    def nan_backward(a):
        return _node(a.data.copy(), (a,), lambda g: (np.full_like(g, np.nan),))

    with pytest.raises(NumericError, match="analytic gradient of 'w'"):
        grad_check(lambda _s: tsum(nan_backward(w)), store)
    # log(w) is finite at w but NaN one eps below w[0].
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="numeric gradient of 'w'"):
        grad_check(lambda _s: tsum(_log_node(w)), store, eps=1e-5)


def test_grad_check_restores_parameters_and_tracking_when_the_loss_raises():
    store = ParamStore()
    store.add("w", (2, 3), Rng(0))
    store.add("b", (3,), Rng(1))
    store["b"].requires_grad = False  # a frozen parameter keeps its flag too
    before = {name: (t.data.copy(), t.requires_grad) for name, t in store.items()}
    tracked = []

    def loss(_store):
        tracked.append(store["w"].requires_grad)
        if len(tracked) == 2:  # the first call at a perturbed value
            raise RuntimeError("loss failed")
        return tsum(store["w"] * store["w"]) + tsum(store["b"])

    with pytest.raises(RuntimeError, match="loss failed"):
        grad_check(loss, store)
    assert tracked == [True, False]  # the finite differences run untracked
    for name, t in store.items():
        assert np.array_equal(t.data, before[name][0]) and t.requires_grad == before[name][1], name


# --- GRU ----------------------------------------------------------------


def _cell_weights(cell: GruCell) -> dict:
    names = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")
    return {n: getattr(cell, n).data for n in names}


def test_gru_step_matches_reference():
    rng = Rng(4)
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 5, rng)
    h = np.array([0.3, -0.2, 0.7, 0.0, -0.9])
    x = np.array([1.0, -1.0, 0.5])
    got = gru_step(cell, Tensor([h]), Tensor([x]))
    expect = reference_gru_step(_cell_weights(cell), h, x)
    assert got.shape == (1, 5)
    assert np.allclose(got.data[0], expect, atol=1e-14)


def test_gru_step_shape_errors():
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 5, Rng(0))
    with pytest.raises(ValueError):
        gru_step(cell, zeros((1, 4)), zeros((1, 3)))
    with pytest.raises(ValueError):
        gru_step(cell, zeros((1, 5)), zeros((1, 2)))


def test_one_dimensional_forms_raise_naming_the_shape():
    # States are rows only: a vector is a one-row or one-column matrix.
    cell = GruCell(ParamStore(), "cell", 3, 5, Rng(0))
    with pytest.raises(ValueError, match=re.escape("(5,)")):
        gru_step(cell, zeros((5,)), zeros((3,)))
    with pytest.raises(ValueError, match=re.escape("(1, 3)")):
        gru_step(cell, zeros((2, 5)), zeros((1, 3)))
    for op, a, b in ((matvec, (4, 3), (3,)), (vecmat, (3,), (3, 4))):
        with pytest.raises(ValueError, match=re.escape("(3,)")):
            op(zeros(a), zeros(b))


def test_gru_zero_params_zero_state():
    store = ParamStore()
    cell = GruCell(store, "cell", 2, 3, Rng(0))
    for t in store.params.values():
        t.data[:] = 0.0
    out = gru_step(cell, zeros((1, 3)), Tensor([[5.0, -2.0]]))
    assert np.array_equal(out.data, np.zeros((1, 3)))


@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=4, max_size=4),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2**32),
)
def test_gru_step_bounded_by_prev_state(h_vals, x_vals, seed):
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 4, Rng(seed))
    out = gru_step(cell, Tensor([h_vals]), Tensor([x_vals]))
    bound = np.maximum(np.abs(np.asarray(h_vals)), 1.0)
    assert (np.abs(out.data[0]) <= bound + 1e-12).all()


def test_bigru_encode_concatenates_directions():
    store = ParamStore()
    rng = Rng(2)
    fwd = GruCell(store, "fwd", 2, 3, rng)
    bwd = GruCell(store, "bwd", 2, 3, rng)
    xs = [Tensor([[0.4, -0.1]]), Tensor([[0.2, 0.9]]), Tensor([[-1.0, 0.3]])]
    states = bigru_encode(fwd, bwd, xs)
    assert states.shape == (3, 6)
    # Each direction chains gru_step from zeros; the backward one runs over the reversed inputs.
    h = zeros((1, 3))
    for t in range(3):
        h = gru_step(fwd, h, xs[t])
        assert np.array_equal(states.data[t : t + 1, :3], h.data)
    h = zeros((1, 3))
    for t in reversed(range(3)):
        h = gru_step(bwd, h, xs[t])
        assert np.array_equal(states.data[t : t + 1, 3:], h.data)
    with pytest.raises(ValueError, match="empty input"):
        bigru_encode(fwd, bwd, [])


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=70),
    st.sampled_from(("extractor", "generator")),
    st.floats(min_value=0.05, max_value=3.0),
    st.data(),
)
def test_bigru_scan_equals_bigru_encode(steps, hidden, family, gain, data):
    # Extraction and beam search read the scan where training reads the
    # tape, so the two must agree bit for bit.  The extractor's rows are
    # embedding rows (I = H); the generator's join a word row and one of
    # two copy-indicator rows (I != H).
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32)))
    if family == "extractor":
        xs = rng.normal(size=(6, hidden))[rng.integers(0, 6, steps)]
    else:
        word_dim = data.draw(st.integers(min_value=1, max_value=140))
        copy_dim = data.draw(st.integers(min_value=1, max_value=30).filter(lambda c: word_dim + c != hidden))
        words = rng.normal(size=(6, word_dim))[rng.integers(0, 6, steps)]
        xs = np.concatenate([words, rng.normal(size=(2, copy_dim))[rng.integers(0, 2, steps)]], axis=1)
    store = ParamStore()
    fwd = GruCell(store, "fwd", xs.shape[1], hidden, Rng(0))
    bwd = GruCell(store, "bwd", xs.shape[1], hidden, Rng(0))
    for p in store.params.values():
        p.data = gain * rng.normal(size=p.shape)
    tape = bigru_encode(fwd, bwd, [Tensor(xs[t : t + 1]) for t in range(steps)])
    assert np.array_equal(bigru_scan(fwd, bwd, xs), tape.data)


def test_bigru_scan_shape_errors():
    store = ParamStore()
    fwd = GruCell(store, "fwd", 3, 4, Rng(0))
    bwd = GruCell(store, "bwd", 3, 4, Rng(0))
    for xs in (np.zeros((0, 3)), np.zeros((2, 2)), np.zeros(3), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="bigru_scan needs"):
            bigru_scan(fwd, bwd, xs)
    for other in (GruCell(store, "wide", 3, 5, Rng(0)), GruCell(store, "narrow", 2, 4, Rng(0))):
        with pytest.raises(ValueError, match="bigru_scan needs"):
            bigru_scan(fwd, other, np.zeros((2, 3)))


def _ragged_live(rng, steps, batch):
    """Live counts of a ragged batch laid out longest first: row b steps while b < live[t]."""
    lengths = np.sort(rng.integers(0, steps + 1, size=batch))[::-1]
    return [int(n) for n in (lengths[:, None] > np.arange(steps)).sum(axis=0)]


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=7),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
def test_gru_pool_matches_reference_steps(batch, steps, shared, seed):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 4, Rng(seed))
    weights = _cell_weights(cell)
    xs = rng.normal(size=(steps, 1 if shared else batch, 3))
    h0 = rng.normal(size=(batch, 4))
    live = _ragged_live(rng, steps, batch)
    projected = gru_project(cell, xs)
    pooled, final = gru_pool(cell, projected, h0, live)
    assert np.array_equal(gru_pool(cell, projected, h0)[0], gru_pool(cell, projected, h0, [batch] * steps)[0])
    for b in range(batch):
        h, total = h0[b], np.zeros(4)
        for t in range(steps):
            if b < live[t]:
                h = reference_gru_step(weights, h, xs[t, 0 if shared else b])
                total = total + h
        assert np.allclose(pooled[b], total, rtol=0, atol=1e-12)
        assert np.allclose(final[b], h, rtol=0, atol=1e-12)
    # A row past the live count leaves its state bit for bit where it was.
    before = h0
    for t in range(steps):
        after = gru_pool(cell, gru_project(cell, xs[: t + 1]), h0, live[: t + 1])[1]
        assert np.array_equal(after[live[t]:], before[live[t]:])
        before = after


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
def test_gru_pool_rows_equal_gru_step_calls(batch, steps, shared, seed):
    # Bit for bit: each row steps as its own one-row gru_step would, so a
    # row's sum and final state do not depend on the other rows or the live
    # counts of the rows after it.
    rng = np.random.default_rng(seed)
    cell = GruCell(ParamStore(), "cell", 24, 16, Rng(seed))
    for p in (cell.w_z, cell.u_z, cell.b_z, cell.w_r, cell.u_r, cell.b_r, cell.w_h, cell.u_h, cell.b_h):
        p.data = rng.normal(size=p.shape)
    xs = rng.normal(size=(steps, 1 if shared else batch, 24))
    h0 = rng.normal(size=(batch, 16))
    live = _ragged_live(rng, steps, batch)
    pooled, final = gru_pool(cell, gru_project(cell, xs), h0, live)
    for b in range(batch):
        h, total = Tensor(h0[b : b + 1]), np.zeros((1, 16))
        for t in range(steps):
            if b < live[t]:
                h = gru_step(cell, h, Tensor(xs[t, 0 if shared else b][None]))
                total += h.data
        assert np.array_equal(pooled[b], total[0])
        assert np.array_equal(final[b], h.data[0])


@pytest.mark.parametrize(
    "shape",
    [
        (15, 1, 64),  # one row per step
        (7, 1, 64),  # a [T,1,I] input shared by every row
        (10, 23, 64),  # a ragged batch, as score_keys lays out its keys
        (10, 223, 64),
        (18, 64),  # bigru_scan's [T,I] rows
        (2, 64),  # gru_step's [B,I] rows
    ],
)
def test_gru_project_equals_per_row_products(shape):
    # Each row is its own np.vecmat product, whatever the rows around it,
    # so gru_step, bigru_scan and gru_pool share one input-product rule.
    rng = np.random.default_rng(sum(shape))
    cell = GruCell(ParamStore(), "cell", 64, 64, Rng(3))
    xs = rng.normal(size=shape)
    for w, products in zip((cell.w_z, cell.w_r, cell.w_h), gru_project(cell, xs)):
        assert products.shape == shape
        for index in np.ndindex(shape[:-1]):
            assert np.array_equal(products[index], np.vecmat(xs[index], w.data.T))


def test_gru_pool_shape_errors():
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 5, Rng(0))
    projected, h0 = gru_project(cell, np.zeros((2, 4, 3))), np.zeros((4, 5))
    with pytest.raises(ValueError):
        gru_pool(cell, projected, np.zeros((4, 6)))
    with pytest.raises(ValueError):
        gru_pool(cell, projected, np.zeros(5))
    with pytest.raises(ValueError):
        gru_project(cell, np.zeros((2, 4, 2)))
    with pytest.raises(ValueError):
        gru_pool(cell, gru_project(cell, np.zeros((2, 3, 3))), h0)
    with pytest.raises(ValueError):
        gru_project(cell, np.zeros(()))
    for live in ([4], [4, 4, 4], [5, 4], [4, -1]):
        with pytest.raises(ValueError, match="live counts"):
            gru_pool(cell, projected, h0, live)


def _row_products_only(tree: ast.AST):
    """Each ``@``, ``np.matmul`` and ``np.dot`` in a module, by line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield f"{node.lineno} uses @"
        elif isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot"):
            yield f"{node.lineno} names {node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            yield from (f"{node.lineno} imports {a.name}" for a in node.names if a.name in ("matmul", "dot"))


def test_gru_recurrences_use_row_products_only():
    # Every GRU product is an np.vecmat row product, so each row equals its
    # one-row step bit for bit; a gemm would tie a row's last bits to the
    # other rows in its batch.
    gru_py = pathlib.Path(numerics.__file__).parent / "gru.py"
    assert list(_row_products_only(ast.parse(gru_py.read_text(encoding="utf-8")))) == []
    assert sorted(_row_products_only(ast.parse("a @ b\nnp.matmul(a, b)\nx.dot(y)\nfrom numpy import dot"))) == [
        "1 uses @", "2 names matmul", "3 names dot", "4 imports dot",
    ]


def _composed_step(cell: GruCell, h: Tensor, x: Tensor) -> Tensor:
    """The step built from separate tape ops on rows, with sigmoid(a) = exp(-softplus(-a))."""
    sig = lambda a: exp(-softplus(-a))
    z = sig(matvec(cell.w_z, x) + matvec(cell.u_z, h) + cell.b_z)
    r = sig(matvec(cell.w_r, x) + matvec(cell.u_r, h) + cell.b_r)
    cand = tanh(matvec(cell.w_h, x) + matvec(cell.u_h, r * h) + cell.b_h)
    return (1.0 - z) * h + z * cand


def _chain_grads(step, store, cell, h0, inputs, coeffs):
    """Gradients of sum_t <h_t, coeffs_t> over a chain of ``step`` calls."""
    store.zero_grads()
    h, loss = h0, None
    for x, c in zip(inputs, coeffs):
        h = step(cell, h, x)
        term = tsum(h * Tensor(c))
        loss = term if loss is None else loss + term
    loss.backward()
    return {name: t.grad.copy() for name, t in store.items()}


@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
    st.floats(min_value=0.5, max_value=20.0),
    st.integers(min_value=0, max_value=2**32),
)
def test_gru_step_gradients_match_composed_ops(picks, gain, seed):
    # Inputs come from a pool of three tensors, so most chains feed one
    # input to several steps and its gradient sums terms across them.
    rng = Rng(seed)
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 4, rng)
    for t in store.params.values():
        t.data *= gain
    pool = [store.add(f"x{i}", (1, 3), rng, scale=2.0) for i in range(3)]
    h0 = store.add("h0", (1, 4), rng, scale=1.0)
    coeffs = np.random.default_rng(seed).normal(size=(len(picks), 4))
    inputs = [pool[i] for i in picks]
    got = _chain_grads(gru_step, store, cell, h0, inputs, coeffs)
    want = _chain_grads(_composed_step, store, cell, h0, inputs, coeffs)
    for name in want:
        assert np.allclose(got[name], want[name], rtol=0, atol=1e-12), name


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
def test_gru_step_rows_match_single_rows(batch, seed):
    rng = np.random.default_rng(seed)
    cell = GruCell(ParamStore(), "cell", 3, 4, Rng(seed))
    h = rng.normal(size=(batch, 4))
    x = rng.normal(size=(batch, 3))
    rows = gru_step(cell, Tensor(h), Tensor(x))
    with pytest.raises(ValueError):
        gru_step(cell, Tensor(h), Tensor(np.zeros((batch + 1, 3))))
    with pytest.raises(ValueError):
        gru_rows(cell, h, np.zeros((batch + 1, 3)))
    assert rows.shape == (batch, 4)
    assert np.array_equal(gru_rows(cell, h, x), rows.data)  # the tape-free step, bit for bit
    for b in range(batch):
        one = gru_step(cell, Tensor(h[b : b + 1]), Tensor(x[b : b + 1]))
        assert np.array_equal(rows.data[b : b + 1], one.data)


def _grads(store: ParamStore, loss: Tensor) -> dict:
    store.zero_grads()
    loss.backward()
    return {name: t.grad.copy() for name, t in store.items()}


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32))
def test_gru_step_tracked_rows_match_single_rows(batch, seed):
    # Each row's state and input gradients equal its one-row step's bit for
    # bit; the weights sum the rows, bit for bit for one row.
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 4, Rng(seed))
    h = store.add("h", (batch, 4), Rng(seed + 1), scale=1.0)
    x = store.add("x", (batch, 3), Rng(seed + 2), scale=1.0)
    coeffs = np.random.default_rng(seed).normal(size=(batch, 4))
    rows = _grads(store, tsum(gru_step(cell, h, x) * Tensor(coeffs)))
    singles = [
        _grads(store, tsum(gru_step(cell, h[b : b + 1], x[b : b + 1]) * Tensor(coeffs[b])))
        for b in range(batch)
    ]
    for b in range(batch):
        assert np.array_equal(rows["h"][b], singles[b]["h"][b])
        assert np.array_equal(rows["x"][b], singles[b]["x"][b])
    for name in rows:
        summed = sum(single[name] for single in singles)
        assert np.allclose(rows[name], summed, rtol=0, atol=1e-12), name
        assert batch > 1 or np.array_equal(rows[name], summed), name


def _matmul_1d(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` with a vector operand, as a tape node on ``reference_matmul``'s value and gradient rules."""
    value, vjp = reference_matmul(a.data, b.data)
    return _node(value, (a, b), vjp)


@given(
    st.integers(min_value=1, max_value=16),
    st.sampled_from([64, 160, 288]),
    st.integers(min_value=1, max_value=80),
    st.sampled_from(["matrix", "transposed", "per_row", "per_row_transposed"]),
    st.integers(min_value=0, max_value=2**32),
)
def test_vecmat_rows_equal_their_1d_products(batch, width, out, form, seed):
    # Every row product on the tape is np.vecmat: each row must equal the
    # 1-D np.matmul bit for bit, over the weight layouts the tape passes it.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, width))
    w = {
        "matrix": lambda: rng.normal(size=(width, out)),
        "transposed": lambda: rng.normal(size=(out, width)).T,
        "per_row": lambda: rng.normal(size=(batch, width, out)),
        "per_row_transposed": lambda: rng.normal(size=(batch, out, width)).swapaxes(1, 2),
    }[form]()
    rows = np.vecmat(x, w)
    for b in range(batch):
        assert np.array_equal(rows[b], np.matmul(x[b], w[b] if w.ndim == 3 else w))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32))
def test_row_products_track_each_row_as_its_1d_product(batch, seed):
    # matvec, vecmat and per-row vecmat against the 1-D matmul on each row.
    store = ParamStore()
    rng = Rng(seed)
    w = store.add("w", (4, 5), rng, scale=1.0)
    per_row = store.add("per_row", (batch, 4, 5), rng, scale=1.0)
    x = store.add("x", (batch, 5), rng, scale=1.0)
    y = store.add("y", (batch, 4), rng, scale=1.0)
    c4, c5 = (Tensor(np.random.default_rng(seed).normal(size=(batch, n))) for n in (4, 5))
    cases = (  # (rows, one row, its coefficients, per-row operands, shared operands)
        (lambda: matvec(w, x), lambda b: _matmul_1d(w, x[b]), c4, ("x",), ("w",)),
        (lambda: vecmat(y, w), lambda b: _matmul_1d(y[b], w), c5, ("y",), ("w",)),
        (lambda: vecmat(y, per_row), lambda b: _matmul_1d(y[b], per_row[b]), c5, ("y", "per_row"), ()),
    )
    for rows_fn, one_fn, c, per_row_names, shared_names in cases:
        rows = _grads(store, tsum(rows_fn() * c))
        singles = [_grads(store, tsum(one_fn(b) * c[b])) for b in range(batch)]
        for b in range(batch):
            assert np.array_equal(rows_fn().data[b], one_fn(b).data)
            for name in per_row_names:
                assert np.array_equal(rows[name][b], singles[b][name][b]), name
        for name in shared_names:
            summed = sum(single[name] for single in singles)
            assert np.allclose(rows[name], summed, rtol=0, atol=1e-12), name
            assert batch > 1 or np.array_equal(rows[name], summed), name


@pytest.mark.parametrize("constant", ["h_prev", "x"])
def test_gru_step_constant_operand_gets_no_gradient(constant):
    # The weights' gradients equal the all-tracked call's bit for bit.
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 4, Rng(0))
    rng = np.random.default_rng(1)
    h_data, x_data, coeffs = rng.normal(size=(2, 4)), rng.normal(size=(2, 3)), Tensor(rng.normal(size=(2, 4)))
    h, x = Tensor(h_data, requires_grad=True), Tensor(x_data, requires_grad=True)
    tracked = _grads(store, tsum(gru_step(cell, h, x) * coeffs))
    want = {"h_prev": h.grad, "x": x.grad}
    operands = {name: Tensor(data, requires_grad=name != constant) for name, data in (("h_prev", h_data), ("x", x_data))}
    got = _grads(store, tsum(gru_step(cell, operands["h_prev"], operands["x"]) * coeffs))
    assert operands[constant].grad is None
    for name, operand in operands.items():
        assert name == constant or np.array_equal(operand.grad, want[name]), name
    for name in tracked:
        assert np.array_equal(got[name], tracked[name]), name


def test_gru_step_zero_gradient_adds_nothing():
    # An all-zero output gradient stops at the step: neither it nor the
    # step before adds even a zero array to any parent.
    store = ParamStore()
    cell = GruCell(store, "cell", 3, 4, Rng(0))
    h = store.add("h", (2, 4), Rng(1), scale=1.0)
    x = store.add("x", (2, 3), Rng(2), scale=1.0)
    tsum(gru_step(cell, gru_step(cell, h, x), x) * 0.0).backward()
    assert [name for name, t in store.items() if t.grad is not None] == []


def test_gru_step_rows_gradcheck():
    store = ParamStore()
    rng = Rng(5)
    cell = GruCell(store, "cell", 3, 4, rng)
    h = store.add("h", (3, 4), rng, scale=1.0)
    x = store.add("x", (3, 3), rng, scale=1.0)
    assert grad_check(lambda _s: _projected(gru_step(cell, h, x), ROW_COEFFS), store, eps=1e-5) <= OP_TOLERANCE


@pytest.mark.parametrize("gain", [1e3, -1e3])
def test_gru_step_saturating_preactivations_stay_finite(gain):
    store = ParamStore()
    cell = GruCell(store, "cell", 2, 3, Rng(0))
    signs = np.array([1.0, -1.0, 1.0])
    for name in ("b_z", "b_r", "b_h"):
        getattr(cell, name).data[:] = gain * signs
        signs = np.roll(signs, 1)
    for name in ("w_z", "w_r", "w_h"):
        getattr(cell, name).data *= abs(gain) / INIT_SCALE
    x = store.add("x", (1, 2), Rng(1), scale=1.0)
    h0 = store.add("h0", (1, 3), Rng(2), scale=1.0)
    grads = _chain_grads(gru_step, store, cell, h0, [x, x, x], np.ones((3, 3)))
    h, states = h0, []
    for _ in range(3):
        h = gru_step(cell, h, x)
        states.append(h)
    assert all(np.isfinite(s.data).all() and (np.abs(s.data) <= 1.0 + 1e-12).all() for s in states)
    assert all(np.isfinite(g).all() for g in grads.values())


def test_gru_gradients():
    def loss(cell_holder):
        def inner(_s):
            h = zeros((1, 3))
            for x in (Tensor([[0.5, -0.5]]), Tensor([[1.0, 0.0]])):
                h = gru_step(cell_holder[0], h, x)
            return _projected(h, [[1.0, -1.0, 2.0]])
        return inner

    store = ParamStore()
    cell = GruCell(store, "cell", 2, 3, Rng(3))
    # Composite recurrences have near-zero grad entries where central-
    # difference roundoff dominates; use the wider model-level regime.
    assert grad_check(loss([cell]), store, eps=1e-3) <= 1e-4


# --- parameter store and Adam --------------------------------------------


def test_param_init_range_and_determinism():
    a, b = ParamStore(), ParamStore()
    ta = a.add("w", (10, 10), Rng(6))
    tb = b.add("w", (10, 10), Rng(6))
    assert np.array_equal(ta.data, tb.data)
    assert (np.abs(ta.data) < INIT_SCALE).all()
    assert np.unique(ta.data).size == 100


def test_param_store_duplicate_names():
    store = ParamStore()
    store.add("w", (2,), Rng(0))
    with pytest.raises(ValueError):
        store.add("w", (2,), Rng(0))
    with pytest.raises(ValueError):
        store.add_zeros("w", (2,))


def test_adam_first_step_matches_formula():
    store = ParamStore()
    w = store.add_zeros("w", (3,))
    w.data[:] = [1.0, -2.0, 0.5]
    g = np.array([0.3, -0.1, 0.02])
    w.grad = g.copy()
    # The gradient norm, 0.32, is below the clip norm, so nothing is clipped.
    assert adam_step(store, lr=0.1) == np.sqrt((g**2).sum())
    # First step: bias correction cancels, update = lr * g / (|g| + eps).
    expect = np.array([1.0, -2.0, 0.5]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(w.data, expect, atol=1e-12)
    assert w.grad is None
    assert store.step_count == 1


def test_adam_refuses_stale_gradients():
    store = ParamStore()
    w = store.add_zeros("w", (2,))
    w.grad = np.ones(2)
    adam_step(store, lr=0.01)
    with pytest.raises(NumericError):
        adam_step(store, lr=0.01)


def test_adam_clips_global_norm():
    store = ParamStore()
    w = store.add_zeros("w", (2,))
    w.data[:] = [0.0, 0.0]
    g = np.array([30.0, 40.0])  # norm 50 -> scaled to 5
    w.grad = g.copy()
    norm = global_grad_norm(store)
    assert adam_step(store, lr=0.1) == norm == 50.0
    clipped = g * (5.0 / 50.0)
    expect = -0.1 * clipped / (np.abs(clipped) + 1e-8)
    assert np.allclose(w.data, expect, atol=1e-12)


def test_adam_nonfinite_gradient_raises():
    store = ParamStore()
    w = store.add_zeros("w", (2,))
    w.grad = np.array([np.inf, 1.0])
    with pytest.raises(NumericError):
        adam_step(store, lr=0.1)


@pytest.mark.parametrize(
    "sizes, message",
    [({"batch_size": 0}, "batch_size must be >= 1"), ({"batch_size": -1}, "batch_size must be >= 1"),
     ({"epochs": -1}, "epochs must be >= 0")],
)
def test_fit_rejects_bad_sizes_before_training(sizes, message):
    drawn = []
    settings = dict(epochs=1, batch_size=1, evaluate=None, eval_every=1, after_epoch=lambda metric: False,
                    name="t", metric_name="m") | sizes
    with pytest.raises(ValueError, match=message):
        fit(ParamStore(), Rng(0), lambda: drawn.append(1) or [0], None, lambda: 0.0, **settings)
    assert drawn == []


def test_global_grad_norm():
    store = ParamStore()
    a = store.add_zeros("a", (2,))
    b = store.add_zeros("b", (1,))
    a.grad = np.array([3.0, 0.0])
    b.grad = np.array([4.0])
    assert global_grad_norm(store) == pytest.approx(5.0)


def test_zero_and_clear_grads():
    store = ParamStore()
    w = store.add_zeros("w", (2,))
    store.zero_grads()
    assert np.array_equal(w.grad, np.zeros(2))
    store.clear_grads()
    assert w.grad is None
