"""Extractor stage: unary scoring, span repair, decode, training."""

from __future__ import annotations

import logging
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from idiomatize import ExtractorModel, IdiomEntry, ParallelPair, extract_span, train_extractor
from idiomatize.extractor import (
    crf_viterbi,
    extractor_loss,
    repair_labels,
    span_labels,
    unary_scores,
    validation_span_f1,
)
from idiomatize.numerics import bigru_encode, grad_check
from idiomatize.toydata import synthetic_span_data

from oracles import reference_extractor_loss


@pytest.fixture(scope="module")
def tiny_extractor(tiny_vocab):
    return ExtractorModel(tiny_vocab, embed_dim=8, hidden=8, seed=0)


def test_unary_scores_shape_and_composition(tiny_extractor):
    model = tiny_extractor
    sentence = ("the", "cat", "sat")
    definition = ("ran", "fast")
    scores = unary_scores(model, sentence, definition)
    assert scores.shape == (3, 3)
    ids = model.vocab.encode_all(["the", "cat", "sat", "<sep>", "ran", "fast"])
    states = bigru_encode(model.fwd, model.bwd, [model.embedding[i : i + 1] for i in ids])
    manual = np.vecmat(states.data[:3], model.unary_w.data) + model.unary_b.data
    assert np.array_equal(scores.data, manual)


def test_unary_scores_empty_sentence(tiny_extractor):
    for reader in (unary_scores, extract_span):
        with pytest.raises(ValueError, match="empty sentence"):
            reader(tiny_extractor, (), ("x",))


# --- repair ------------------------------------------------------------

B, I, O = 0, 1, 2


def test_repair_single_run_untouched():
    unary = np.zeros((4, 3))
    assert repair_labels([O, B, I, O], unary) == (1, 3)


def test_repair_normalizes_leading_i():
    assert repair_labels([O, I, I, O], np.zeros((4, 3))) == (1, 3)


def test_repair_keeps_highest_scoring_run():
    unary = np.zeros((5, 3))
    unary[0, B] = 1.0
    unary[1, I] = 1.0
    unary[3, B] = 5.0
    assert repair_labels([B, I, O, B, O], unary) == (3, 4)


def test_repair_tie_prefers_earlier_run():
    unary = np.zeros((5, 3))
    assert repair_labels([B, O, B, I, O], unary) == (0, 1)


def test_repair_all_outside():
    assert repair_labels([O, O, O], np.zeros((3, 3))) is None


@given(
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=2**32),
)
def test_repair_always_yields_single_span_or_none(raw, seed):
    rng = np.random.default_rng(seed)
    unary = rng.normal(size=(len(raw), 3))
    span = repair_labels(raw, unary)
    if span is None:
        assert set(raw) == {O}
    else:
        s, e = span
        # a maximal run of B/I labels in the raw path
        assert 0 <= s < e <= len(raw)
        assert O not in raw[s:e]
        assert s == 0 or raw[s - 1] == O
        assert e == len(raw) or raw[e] == O


@given(st.data())
def test_span_labels_round_trips_span(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    e = data.draw(st.integers(min_value=s + 1, max_value=n))
    labels = span_labels(n, (s, e))
    assert labels == [B if i == s else I if s < i < e else O for i in range(n)]
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    unary = np.random.default_rng(seed).normal(size=(n, 3))
    assert repair_labels(labels, unary) == (s, e)


def test_extract_span_is_repaired_viterbi(tiny_extractor):
    model = tiny_extractor
    sentence = ("the", "cat", "sat", "on", "mat")
    pred = extract_span(model, sentence, ("ran",))
    unary = unary_scores(model, sentence, ("ran",)).data
    path, score = crf_viterbi(unary, model.transitions.data, model.start.data, model.end.data)
    assert pred.span == repair_labels(path, unary)
    assert pred.score == score
    assert np.isfinite(pred.score)



@given(
    st.lists(st.sampled_from(("the", "cat", "sat", "zzz", "fox")), min_size=1, max_size=12),
    st.lists(st.sampled_from(("ran", "fast", "qqq", "the")), min_size=1, max_size=8),
)
def test_scan_pair_equals_encode_pair(tiny_extractor, sentence, definition):
    # extract_span reads the tape-free scan; training reads the tape.
    tape = tiny_extractor.encode_pair(sentence, definition)
    assert np.array_equal(tiny_extractor.scan_pair(sentence, definition), tape.data)

# --- loss and training ---------------------------------------------------


def test_extractor_loss_gradients(tiny_vocab):
    model = ExtractorModel(tiny_vocab, embed_dim=4, hidden=4, seed=1)
    sentence = ("the", "cat", "sat", "on", "mat")
    gold = [O, B, I, I, O]

    def loss_fn(_store):
        return extractor_loss(model, sentence, ("ran", "fast"), gold) * (1.0 / len(sentence))

    assert grad_check(loss_fn, model.store, eps=1e-3) <= 1e-4


_LOSS_WORDS = ("the", "cat", "sat", "on", "mat", "a", "dog", "ran", "fast", "big", "red", "fox")


def _graph(loss):
    """Every node of ``loss``'s graph, found by walking ``_parents``."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_extractor_loss_runs_one_forward_recursion(tiny_extractor, n):
    # One forward-backward pass: n - 1 alpha and n - 1 beta steps, plus log Z.
    # A second forward pass for log Z would add n more.
    loss = extractor_loss(tiny_extractor, _LOSS_WORDS[:n], ("ran", "fast"), span_labels(n, (0, 1)))
    ops = [node._backward.__qualname__.split(".")[0] for node in _graph(loss) if node._backward is not None]
    assert ops.count("logsumexp") == 2 * n - 1


@pytest.mark.parametrize("n, span", [(1, (0, 1)), (4, (1, 3)), (12, (5, 12))])
def test_extractor_loss_equals_the_two_pass_reference(tiny_vocab, n, span):
    model = ExtractorModel(tiny_vocab, embed_dim=6, hidden=5, seed=n)
    sentence, gold = _LOSS_WORDS[:n], span_labels(n, span)
    results = []
    for loss_fn in (extractor_loss, reference_extractor_loss):
        model.store.zero_grads()
        loss = loss_fn(model, sentence, ("big", "dog"), gold)
        loss.backward()
        results.append((loss.item(), {name: p.grad.copy() for name, p in model.store.items()}))
    (value, grads), (ref_value, ref_grads) = results
    assert abs(value - ref_value) <= 1e-12
    for name, grad in grads.items():
        assert np.max(np.abs(grad - ref_grads[name])) <= 1e-12, name


def test_extractor_loss_nonnegative_nll_part(tiny_extractor):
    # NLL >= 0 and the marginal term adds at most 0.48 * n * (-log p);
    # the combined loss of the gold path is finite and positive here.
    loss = extractor_loss(tiny_extractor, ("the", "cat"), ("ran",), [B, I])
    assert np.isfinite(loss.data)
    assert loss.item() > 0.0


def _lexicon_for(pairs):
    ids = {p.idiom_id for p in pairs}
    return [IdiomEntry(id=i, surface=("x",), senses=(("y",),)) for i in sorted(ids)]


def test_train_zero_epochs_noop(tiny_vocab):
    model = ExtractorModel(tiny_vocab, embed_dim=8, hidden=8, seed=2)
    pairs = [ParallelPair("a", 0, ("the", "cat"), ("z",), (0, 1))]
    before = {n: t.data.copy() for n, t in model.store.items()}
    history = train_extractor(model, pairs, _lexicon_for(pairs), epochs=0)
    assert history == {"epoch_losses": [], "val_span_f1": []}
    assert all(np.array_equal(t.data, before[n]) for n, t in model.store.items())


def test_train_skips_unresolvable_and_errors_when_empty(tiny_vocab, caplog):
    model = ExtractorModel(tiny_vocab, embed_dim=8, hidden=8, seed=2)
    pairs = [ParallelPair("ghost", 0, ("the", "cat"), ("z",), (0, 1))]
    with pytest.raises(ValueError, match="no trainable pairs"):
        with caplog.at_level("WARNING"):
            train_extractor(model, pairs, [], epochs=1)
    assert "ghost" in caplog.text


def test_train_skips_unresolvable_validation_pairs_before_epoch_one(tiny_vocab, caplog):
    pairs = _three_pairs()
    lexicon = _lexicon_for(pairs)
    unresolvable = [
        ParallelPair("no_such_idiom", 0, ("the", "cat"), ("z",), (0, 1)),
        ParallelPair("a", 5, ("the", "cat"), ("z",), (1, 2)),
    ]
    model = ExtractorModel(tiny_vocab, embed_dim=8, hidden=8, seed=4)
    with caplog.at_level(logging.INFO, logger="idiomatize"):
        history = train_extractor(model, pairs, lexicon, epochs=1, validation=unresolvable + pairs)
    messages = [r.getMessage() for r in caplog.records]
    skipped = [i for i, m in enumerate(messages) if m.startswith("skipping pair")]
    first_epoch = next(i for i, m in enumerate(messages) if m.startswith("extractor epoch 1/"))
    assert len(skipped) == 2 and max(skipped) < first_epoch
    assert "no_such_idiom" in messages[skipped[0]]
    assert history["val_span_f1"] == [validation_span_f1(model, pairs, lexicon)]
    assert validation_span_f1(model, unresolvable + pairs, lexicon) == history["val_span_f1"][0]


def test_train_deterministic(tiny_vocab):
    pairs = [
        ParallelPair("a", 0, ("the", "cat", "sat"), ("z",), (1, 2)),
        ParallelPair("a", 0, ("a", "dog", "ran"), ("z",), (1, 3)),
    ]
    lexicon = _lexicon_for(pairs)

    def run():
        model = ExtractorModel(tiny_vocab, embed_dim=8, hidden=8, seed=4)
        history = train_extractor(model, pairs, lexicon, epochs=3, lr=3e-3, seed=9)
        return model, history

    m1, h1 = run()
    m2, h2 = run()
    assert h1 == h2
    assert all(np.array_equal(t.data, m2.store[n].data) for n, t in m1.store.items())


def _three_pairs():
    return [
        ParallelPair("a", 0, ("the", "cat", "sat"), ("z",), (1, 2)),
        ParallelPair("a", 0, ("a", "dog", "ran"), ("z",), (1, 3)),
        ParallelPair("a", 0, ("the", "dog", "sat", "down"), ("z",), (2, 4)),
    ]


def test_epoch_loss_is_mean_instance_loss_with_short_last_batch(tiny_vocab):
    pairs = _three_pairs()
    lexicon = _lexicon_for(pairs)
    model = ExtractorModel(tiny_vocab, embed_dim=8, hidden=8, seed=4)
    history = train_extractor(model, pairs, lexicon, epochs=1, lr=0.0, batch_size=2)
    definition = lexicon[0].senses[0]
    per_instance = [
        extractor_loss(model, p.literal, definition, span_labels(len(p.literal), p.span)).item()
        for p in pairs
    ]
    assert abs(history["epoch_losses"][0] - sum(per_instance) / len(pairs)) <= 1e-12


@pytest.mark.parametrize("eval_every", [0, -1])
def test_train_rejects_eval_every_below_one_with_validation(tiny_vocab, eval_every):
    pairs = _three_pairs()
    model = ExtractorModel(tiny_vocab, embed_dim=8, hidden=8, seed=4)
    with pytest.raises(ValueError, match="eval_every"):
        train_extractor(model, pairs, _lexicon_for(pairs), epochs=1, validation=pairs, eval_every=eval_every)
    assert model.store.step_count == 0


def test_train_logs_one_info_record_per_epoch(tiny_vocab, caplog):
    pairs = _three_pairs()
    model = ExtractorModel(tiny_vocab, embed_dim=8, hidden=8, seed=4)
    with caplog.at_level(logging.INFO, logger="idiomatize"):
        train_extractor(model, pairs, _lexicon_for(pairs), epochs=2, validation=pairs)
    records = [r for r in caplog.records if r.levelno == logging.INFO]
    assert len(records) == 2
    for epoch, record in enumerate(records, start=1):
        assert re.fullmatch(
            rf"extractor epoch {epoch}/2: loss \d+\.\d+, val_span_f1 \d\.\d{{4}}, max grad norm \d+\.\d{{4}}, \d+\.\d+ s",
            record.getMessage(),
        )


def test_sentinel_task_reaches_f1(sentinel_extractor):
    history = sentinel_extractor["history"]
    scores = [f for f in history["val_span_f1"] if f is not None]
    assert scores and max(scores) >= 0.95
    assert len(history["epoch_losses"]) <= 50


def test_validation_f1_matches_extract_span(sentinel_extractor):
    model = sentinel_extractor["model"]
    lexicon = sentinel_extractor["lexicon"]
    val = sentinel_extractor["val"][:5]
    by_id = {e.id: e for e in lexicon}
    from idiomatize.metrics import span_f1

    preds = [
        extract_span(model, p.literal, by_id[p.idiom_id].senses[p.sense_index]).span
        for p in val
    ]
    manual = span_f1(preds, [p.span for p in val], [p.literal for p in val])
    assert validation_span_f1(model, val, lexicon) == pytest.approx(manual)


def test_synthetic_span_data_is_well_formed():
    lexicon, train, val = synthetic_span_data(seed=3)
    assert len(lexicon) == 1
    for pair in train + val:
        s, e = pair.span
        assert pair.literal[s] == "lbr"
        assert pair.literal[e - 1] == "rbr"
