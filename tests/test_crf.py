"""Linear-chain CRF: the batched forward-backward, Viterbi, path scores and the one-node loss."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idiomatize.extractor import crf_log_marginals, crf_log_partition, crf_loss, crf_viterbi
from idiomatize.numerics import ParamStore, Tensor, grad_check

from oracles import (
    brute_force_crf,
    reference_crf_log_marginals,
    reference_crf_log_partition,
    reference_crf_loss,
    reference_crf_path_score,
)

OP_TOLERANCE = 1e-6  # test_numerics.OP_TOLERANCE


def _random_instance(rand: random.Random, n: int, k: int, scale: float = 2.0):
    unary = np.array([[rand.uniform(-scale, scale) for _ in range(k)] for _ in range(n)])
    transitions = np.array([[rand.uniform(-scale, scale) for _ in range(k)] for _ in range(k)])
    start = np.array([rand.uniform(-scale, scale) for _ in range(k)])
    end = np.array([rand.uniform(-scale, scale) for _ in range(k)])
    return unary, transitions, start, end


def _partition(unary, transitions, start, end) -> float:
    """One sentence's log Z: its [n,K] scores as a batch of one."""
    return float(crf_log_partition(unary[None], transitions, start, end, [len(unary)])[0])


def _marginals(unary, transitions, start, end) -> np.ndarray:
    return np.exp(crf_log_marginals(unary[None], transitions, start, end, [len(unary)]).log_marginals[0])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_matches_brute_force_enumeration(k):
    rand = random.Random(k)
    for trial in range(30):
        n = rand.randint(1, 6)
        params = _random_instance(rand, n, k)
        log_z, best_path, best_score, marginals = brute_force_crf(*params)
        assert abs(_partition(*params) - log_z) <= 1e-10
        path, score = crf_viterbi(*params)
        assert path == best_path
        assert abs(score - best_score) <= 1e-10
        assert np.max(np.abs(_marginals(*params) - np.array(marginals))) <= 1e-10


def test_single_position_partition():
    got = _partition(np.array([[1.0, 2.0, 3.0]]), np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    assert got == pytest.approx(math.log(math.e + math.e**2 + math.e**3), abs=1e-12)


def test_uniform_scores_partition_and_marginals():
    n, k = 3, 3
    params = (np.zeros((n, k)), np.zeros((k, k)), np.zeros(k), np.zeros(k))
    assert _partition(*params) == pytest.approx(n * math.log(k), abs=1e-12)
    assert np.allclose(_marginals(*params), 1.0 / k, atol=1e-12)


def test_all_zero_viterbi_prefers_lowest_label():
    path, score = crf_viterbi(np.zeros((4, 3)), np.zeros((3, 3)), np.zeros(3), np.zeros(3))
    assert path == [0, 0, 0, 0]
    assert score == 0.0


def test_partition_shift_property():
    rand = random.Random(9)
    unary, transitions, start, end = _random_instance(rand, 4, 3)
    base = _partition(unary, transitions, start, end)
    c = 1.7
    got = _partition(unary + c, transitions, start, end)
    assert got == pytest.approx(base + 4 * c, abs=1e-10)


def test_partition_upper_bounds_viterbi():
    rand = random.Random(11)
    for _ in range(25):
        params = _random_instance(rand, rand.randint(1, 6), 3)
        _, best = crf_viterbi(*params)
        assert _partition(*params) >= best


def test_path_scores_logsumexp_to_partition():
    rand = random.Random(21)
    params = _random_instance(rand, 3, 3)
    scores = [
        reference_crf_path_score(*map(Tensor, params), list(path)).item()
        for path in itertools.product(range(3), repeat=3)
    ]
    shift = max(scores)
    manual = shift + math.log(math.fsum(math.exp(s - shift) for s in scores))
    assert _partition(*params) == pytest.approx(manual, abs=1e-12)


def test_marginal_rows_sum_to_one():
    rand = random.Random(33)
    for _ in range(10):
        marg = _marginals(*_random_instance(rand, rand.randint(1, 6), 3, scale=4.0))
        assert np.allclose(marg.sum(axis=1), 1.0, atol=1e-12)


def test_extreme_scores_stay_finite():
    rand = random.Random(5)
    params = _random_instance(rand, 5, 3, scale=300.0)
    assert np.isfinite(_partition(*params))
    assert np.isfinite(_marginals(*params)).all()


def test_empty_and_mismatched_inputs_raise():
    zero, vec = np.zeros((3, 3)), np.zeros(3)
    with pytest.raises(ValueError, match="empty"):
        crf_log_partition(np.zeros((1, 0, 3)), zero, vec, vec, [0])
    with pytest.raises(ValueError, match="empty"):
        crf_log_marginals(np.zeros((1, 0, 3)), zero, vec, vec, [0])
    for lengths in ([0, 2], [2, 3], [2]):
        with pytest.raises(ValueError, match="sentence lengths"):
            crf_log_marginals(np.zeros((2, 2, 3)), zero, vec, vec, lengths)
    with pytest.raises(ValueError):
        crf_viterbi(np.zeros((0, 3)), zero, vec, vec)
    params = (Tensor(zero), Tensor(vec), Tensor(vec))
    for gold in ([[0]], [[0, 1], [0, 1, 2]], [[0, 1], []], [[0]] * 3):
        with pytest.raises(ValueError, match="gold paths"):
            crf_loss(Tensor(np.zeros((2, 2, 3))), *params, gold)


def test_partition_gradient_equals_marginals():
    # d logZ / d unary[t, k] is the posterior marginal: the forward-backward
    # pass and reverse-mode autodiff through the tape recursion must agree.
    rand = random.Random(17)
    unary, transitions, start, end = _random_instance(rand, 5, 3)
    leaf = Tensor(unary, requires_grad=True)
    reference_crf_log_partition(leaf, Tensor(transitions), Tensor(start), Tensor(end)).backward()
    assert np.allclose(leaf.grad, _marginals(unary, transitions, start, end), atol=1e-12)


def _ragged(rng: np.random.Generator, lengths, scale: float = 2.0):
    """Padded [B,n,3] scores, their padding drawn like the rest, random gold paths, and CRF parameters."""
    unary = rng.uniform(-scale, scale, size=(len(lengths), max(lengths), 3))
    gold = [[int(label) for label in rng.integers(0, 3, size=n)] for n in lengths]
    crf = [rng.uniform(-2.0, 2.0, size=shape) for shape in ((3, 3), (3,), (3,))]
    return unary, gold, crf


_lengths = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4)


@given(_lengths, st.integers(min_value=0, max_value=2**32))
def test_batch_pass_equals_each_sentence_alone(lengths, seed):
    unary, _, crf = _ragged(np.random.default_rng(seed), lengths)
    batch = crf_log_marginals(unary, *crf, lengths)
    for b, n in enumerate(lengths):
        alone = crf_log_marginals(unary[b : b + 1, :n], *crf, [n])
        assert np.max(np.abs(batch.log_marginals[b, :n] - alone.log_marginals[0])) <= 1e-12
        assert abs(batch.log_z[b] - alone.log_z[0]) <= 1e-12


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
def test_marginals_equal_the_tape_recursion(n, seed):
    rng = np.random.default_rng(seed)
    params = [rng.uniform(-3.0, 3.0, size=shape) for shape in ((n, 3), (3, 3), (3,), (3,))]
    got = crf_log_marginals(params[0][None], *params[1:], [n])
    assert np.max(np.abs(got.log_marginals[0] - reference_crf_log_marginals(*map(Tensor, params)).data)) <= 1e-12
    assert abs(got.log_z[0] - reference_crf_log_partition(*map(Tensor, params)).item()) <= 1e-12


# --- the one-node loss -------------------------------------------------------

NODE_CASES = {"ragged": [5, 1, 3], "one_instance": [4], "one_token": [1]}


@pytest.mark.parametrize("case", sorted(NODE_CASES))
def test_crf_loss_gradcheck(case):
    unary, gold, crf = _ragged(np.random.default_rng(len(case)), NODE_CASES[case])
    store = ParamStore()
    for name, value in zip(("unary", "transitions", "start", "end"), (unary, *crf)):
        store.add_zeros(name, value.shape).data[...] = value

    def loss_fn(s):
        return crf_loss(s["unary"], s["transitions"], s["start"], s["end"], gold)

    assert grad_check(loss_fn, store, eps=1e-5) <= OP_TOLERANCE


def _loss_and_grads(loss_fn, values):
    leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
    for leaf in leaves:
        leaf.grad = np.zeros_like(leaf.data)
    loss = loss_fn(*leaves)
    loss.backward()
    return loss.item(), [leaf.grad for leaf in leaves]


def _reference_batch_loss(lengths, gold):
    def loss(unary, *crf):
        return sum((reference_crf_loss(unary[b, :n], *crf, gold[b]) for b, n in enumerate(lengths)), 0.0)

    return loss


@pytest.mark.parametrize("lengths", [[4, 2, 3], [1], [9, 1]])
def test_crf_loss_at_extreme_scores_is_finite_and_matches_the_reference(lengths):
    # At +-300 the loss is in the thousands, so a central difference's round-off
    # (an ulp of the loss over 2 eps) swamps gradients near zero; the composed
    # reference checks the gradients instead, within float64 rounding at that
    # scale: 1e-12 per unit of score scale 2, as the other tests use.
    scale = 300.0
    unary, gold, crf = _ragged(np.random.default_rng(len(lengths)), lengths, scale)
    value, grads = _loss_and_grads(lambda *p: crf_loss(*p, gold), (unary, *crf))
    ref_value, ref_grads = _loss_and_grads(_reference_batch_loss(lengths, gold), (unary, *crf))
    assert np.isfinite(value) and all(np.isfinite(g).all() for g in grads)
    assert abs(value - ref_value) <= 1e-12 * scale / 2 * max(1.0, abs(ref_value))
    for got, expect in zip(grads, ref_grads):
        assert np.max(np.abs(got - expect)) <= 1e-12 * scale / 2


@given(_lengths, st.integers(min_value=0, max_value=2**32))
def test_crf_loss_equals_the_composed_reference(lengths, seed):
    unary, gold, crf = _ragged(np.random.default_rng(seed), lengths)
    value, grads = _loss_and_grads(lambda *p: crf_loss(*p, gold), (unary, *crf))
    ref_value, ref_grads = _loss_and_grads(_reference_batch_loss(lengths, gold), (unary, *crf))
    assert abs(value - ref_value) <= 1e-12
    for got, expect in zip(grads, ref_grads):
        assert np.max(np.abs(got - expect)) <= 1e-12


@given(_lengths, st.integers(min_value=0, max_value=2**32))
def test_crf_loss_of_a_batch_is_the_sum_of_its_sentences(lengths, seed):
    unary, gold, crf = _ragged(np.random.default_rng(seed), lengths)
    value, (unary_grad, *_) = _loss_and_grads(lambda *p: crf_loss(*p, gold), (unary, *crf))
    singles = [crf_loss(Tensor(unary[b : b + 1, :n]), *map(Tensor, crf), [gold[b]]).item()
               for b, n in enumerate(lengths)]
    assert abs(value - sum(singles)) <= 1e-12
    padding = np.arange(max(lengths)) >= np.array(lengths)[:, None]
    assert (unary_grad[padding] == 0.0).all()
