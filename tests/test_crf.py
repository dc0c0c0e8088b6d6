"""Linear-chain CRF: partition, marginals, Viterbi, path scores."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idiomatize.extractor import (
    crf_log_marginals,
    crf_log_partition,
    crf_path_score,
    crf_viterbi,
)
from idiomatize.numerics import ParamStore, Tensor, exp, grad_check, tsum

from oracles import brute_force_crf, reference_crf_log_marginals


def _random_instance(rand: random.Random, n: int, k: int, scale: float = 2.0):
    unary = Tensor([[rand.uniform(-scale, scale) for _ in range(k)] for _ in range(n)])
    transitions = Tensor([[rand.uniform(-scale, scale) for _ in range(k)] for _ in range(k)])
    start = Tensor([rand.uniform(-scale, scale) for _ in range(k)])
    end = Tensor([rand.uniform(-scale, scale) for _ in range(k)])
    return unary, transitions, start, end


@pytest.mark.parametrize("k", [2, 3, 4])
def test_matches_brute_force_enumeration(k):
    rand = random.Random(k)
    for trial in range(30):
        n = rand.randint(1, 6)
        unary, transitions, start, end = _random_instance(rand, n, k)
        log_z, best_path, best_score, marginals = brute_force_crf(
            unary.data, transitions.data, start.data, end.data
        )
        got_z = crf_log_partition(unary, transitions, start, end).item()
        assert abs(got_z - log_z) <= 1e-10
        path, score = crf_viterbi(unary.data, transitions.data, start.data, end.data)
        assert path == best_path
        assert abs(score - best_score) <= 1e-10
        got_m = exp(crf_log_marginals(unary, transitions, start, end)[0]).data
        assert np.max(np.abs(got_m - np.array(marginals))) <= 1e-10


def test_single_position_partition():
    unary = Tensor([[1.0, 2.0, 3.0]])
    z = Tensor(np.zeros((3, 3)))
    got = crf_log_partition(unary, z, Tensor(np.zeros(3)), Tensor(np.zeros(3)))
    assert got.item() == pytest.approx(math.log(math.e + math.e**2 + math.e**3), abs=1e-12)


def test_uniform_scores_partition_and_marginals():
    n, k = 3, 3
    zero = Tensor(np.zeros((k, k)))
    unary = Tensor(np.zeros((n, k)))
    vec = Tensor(np.zeros(k))
    assert crf_log_partition(unary, zero, vec, vec).item() == pytest.approx(n * math.log(k), abs=1e-12)
    marg = exp(crf_log_marginals(unary, zero, vec, vec)[0])
    assert np.allclose(marg.data, 1.0 / k, atol=1e-12)


def test_all_zero_viterbi_prefers_lowest_label():
    unary = Tensor(np.zeros((4, 3)))
    zero = Tensor(np.zeros((3, 3)))
    vec = Tensor(np.zeros(3))
    path, score = crf_viterbi(unary.data, zero.data, vec.data, vec.data)
    assert path == [0, 0, 0, 0]
    assert score == 0.0


def test_partition_shift_property():
    rand = random.Random(9)
    unary, transitions, start, end = _random_instance(rand, 4, 3)
    base = crf_log_partition(unary, transitions, start, end).item()
    c = 1.7
    shifted = Tensor(unary.data + c)
    got = crf_log_partition(shifted, transitions, start, end).item()
    assert got == pytest.approx(base + 4 * c, abs=1e-10)


def test_partition_upper_bounds_viterbi():
    rand = random.Random(11)
    for _ in range(25):
        n = rand.randint(1, 6)
        unary, transitions, start, end = _random_instance(rand, n, 3)
        log_z = crf_log_partition(unary, transitions, start, end).item()
        _, best = crf_viterbi(unary.data, transitions.data, start.data, end.data)
        assert log_z >= best


def test_path_scores_logsumexp_to_partition():
    import itertools

    rand = random.Random(21)
    unary, transitions, start, end = _random_instance(rand, 3, 3)
    scores = [
        crf_path_score(unary, transitions, start, end, list(path)).item()
        for path in itertools.product(range(3), repeat=3)
    ]
    shift = max(scores)
    manual = shift + math.log(math.fsum(math.exp(s - shift) for s in scores))
    got = crf_log_partition(unary, transitions, start, end).item()
    assert got == pytest.approx(manual, abs=1e-12)


def test_marginal_rows_sum_to_one():
    rand = random.Random(33)
    for _ in range(10):
        n = rand.randint(1, 6)
        unary, transitions, start, end = _random_instance(rand, n, 3, scale=4.0)
        marg = exp(crf_log_marginals(unary, transitions, start, end)[0])
        assert np.allclose(marg.data.sum(axis=1), 1.0, atol=1e-12)


def test_extreme_scores_stay_finite():
    rand = random.Random(5)
    unary, transitions, start, end = _random_instance(rand, 5, 3, scale=300.0)
    log_z = crf_log_partition(unary, transitions, start, end)
    assert np.isfinite(log_z.data).all()
    marg = exp(crf_log_marginals(unary, transitions, start, end)[0])
    assert np.isfinite(marg.data).all()


def test_empty_and_mismatched_inputs_raise():
    empty = Tensor(np.zeros((0, 3)))
    zero = Tensor(np.zeros((3, 3)))
    vec = Tensor(np.zeros(3))
    with pytest.raises(ValueError):
        crf_log_partition(empty, zero, vec, vec)
    with pytest.raises(ValueError):
        crf_log_marginals(empty, zero, vec, vec)
    with pytest.raises(ValueError):
        crf_viterbi(np.zeros((0, 3)), np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        crf_path_score(Tensor(np.zeros((2, 3))), zero, vec, vec, [0])


def test_partition_gradient_is_exact():
    rand = random.Random(7)
    store = ParamStore()
    unary = store.add_zeros("unary", (4, 3))
    transitions = store.add_zeros("transitions", (3, 3))
    start = store.add_zeros("start", (3,))
    end = store.add_zeros("end", (3,))
    for t in (unary, transitions, start, end):
        t.data[:] = np.array([rand.uniform(-2, 2) for _ in range(t.data.size)]).reshape(t.shape)
    err = grad_check(
        lambda s: crf_log_partition(s["unary"], s["transitions"], s["start"], s["end"]),
        store,
        eps=1e-5,
    )
    assert err <= 1e-6


def test_partition_gradient_equals_marginals():
    # d logZ / d unary[t, k] is the posterior marginal: forward-backward
    # and reverse-mode autodiff must agree.
    rand = random.Random(17)
    unary = Tensor([[rand.uniform(-2, 2) for _ in range(3)] for _ in range(5)], requires_grad=True)
    transitions = Tensor([[rand.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
    start = Tensor([rand.uniform(-2, 2) for _ in range(3)])
    end = Tensor([rand.uniform(-2, 2) for _ in range(3)])
    unary.grad = np.zeros_like(unary.data)
    crf_log_partition(unary, transitions, start, end).backward()
    marg = exp(crf_log_marginals(unary, transitions, start, end)[0])
    assert np.allclose(unary.grad, marg.data, atol=1e-12)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
def test_row_marginals_equal_the_vector_recursion_bit_for_bit(n, seed):
    # Values and the gradients of a weighted sum, as the extractor's loss uses them.
    rng = np.random.default_rng(seed)
    draws = [rng.uniform(-3.0, 3.0, size=shape) for shape in ((n, 3), (3, 3), (3,), (3,))]
    weights = rng.uniform(-1.0, 1.0, size=(n, 3))
    results = []
    for marginals in (lambda *p: crf_log_marginals(*p)[0], reference_crf_log_marginals):
        params = [Tensor(d.copy(), requires_grad=True) for d in draws]
        log_marg = marginals(*params)
        tsum(log_marg * weights).backward()
        results.append((log_marg.data, [p.grad for p in params]))
    (rows, row_grads), (vectors, vector_grads) = results
    assert np.array_equal(rows, vectors)
    for got, expect in zip(row_grads, vector_grads):
        assert np.array_equal(got, expect)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
def test_marginals_log_z_equals_the_partition_bit_for_bit(n, seed):
    rng = np.random.default_rng(seed)
    params = [Tensor(rng.uniform(-3.0, 3.0, size=shape)) for shape in ((n, 3), (3, 3), (3,), (3,))]
    assert np.array_equal(crf_log_marginals(*params)[1].data, crf_log_partition(*params).data)
