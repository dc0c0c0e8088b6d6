"""Retrieval stage: candidate scoring, top-1 ranking, BCE training."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idiomatize import ExtractorModel, IdiomEntry, ParallelPair, RetrievalModel, build_vocab, retrieve_top1, train_retrieval
from idiomatize.corpus import RESERVED, Vocabulary
from idiomatize.numerics import bigru_encode, no_grad, stack, tsum
from idiomatize.retrieval import (
    KEY_MODES,
    candidate_keys,
    encode_candidate,
    evaluate_retrieval,
    score_keys,
    score_pair,
)
from idiomatize.toydata import synthetic_retrieval_data

from oracles import reference_retrieve_top1


def _separable_corpus():
    lexicon = [
        IdiomEntry(id="e1", surface=("foo", "bar"), senses=(("alpha", "beta"),)),
        IdiomEntry(id="e2", surface=("baz", "qux"), senses=(("gamma", "delta"),)),
        IdiomEntry(id="e3", surface=("zip", "zap"), senses=(("epsilon", "zeta"),)),
    ]
    words = {"e1": "alpha", "e2": "gamma", "e3": "epsilon"}
    pairs = [
        ParallelPair(i, 0, ("this", words[i], marker), ("x",), (1, 2))
        for i in ("e1", "e2", "e3")
        for marker in ("here", "there")
    ]
    return lexicon, pairs


@pytest.fixture(scope="module")
def tiny_retrieval():
    lexicon, pairs = _separable_corpus()
    vocab = build_vocab(pairs, lexicon)
    return RetrievalModel(vocab, embed_dim=8, hidden=8, seed=0), lexicon, pairs


@pytest.mark.parametrize("cls", [RetrievalModel, ExtractorModel])
@pytest.mark.parametrize("field, value", [("embed_dim", 0), ("hidden", 0), ("hidden", -2), ("embed_dim", 8.0)])
def test_pair_encoder_rejects_non_positive_sizes(tiny_vocab, cls, field, value):
    sizes = {"embed_dim": 8, "hidden": 8, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
        cls(tiny_vocab, **sizes)


def test_score_composes_pool_and_linear(tiny_retrieval):
    model, _, _ = tiny_retrieval
    sentence, key = ("this", "alpha"), ("beta",)
    with no_grad():
        pooled = encode_candidate(model, sentence, key)
        ids = model.vocab.encode_all(["this", "alpha", "<sep>", "beta"])
        states = bigru_encode(model.fwd, model.bwd, [model.embedding[i] for i in ids])
        manual = tsum(stack(states), axis=0)
        assert np.array_equal(pooled.data, manual.data)
        expect = float(model.score_w.data @ pooled.data + model.score_b.data)
    assert score_pair(model, sentence, key) == pytest.approx(expect, abs=1e-12)


def test_encode_candidate_rejects_empty(tiny_retrieval):
    model, _, _ = tiny_retrieval
    with pytest.raises(ValueError):
        encode_candidate(model, (), ("a",))
    with pytest.raises(ValueError):
        encode_candidate(model, ("a",), ())


def test_candidate_keys_modes():
    entry = IdiomEntry(id="x", surface=("kick", "off"), senses=(("start",), ("begin", "now")))
    assert candidate_keys(entry, "definition") == [(0, ("start",)), (1, ("begin", "now"))]
    assert candidate_keys(entry, "idiom") == [(0, ("kick", "off"))]
    with pytest.raises(ValueError):
        candidate_keys(entry, "surface")


def _oracle_top1(model, sentence, lexicon, key_mode):
    candidates = [(e.id, sense, key) for e in lexicon for sense, key in candidate_keys(e, key_mode)]
    return reference_retrieve_top1(lambda key: score_pair(model, sentence, key), candidates)


def _ranked_words(model, sentence):
    """One-word keys from the vocabulary, lowest score first."""
    return sorted(((w,) for w in model.vocab.tokens[len(RESERVED):]), key=lambda k: score_pair(model, sentence, k))


def test_retrieve_top1_scans_every_sense(tiny_retrieval):
    model, _, _ = tiny_retrieval
    sentence = ("this", "alpha")
    ranked = _ranked_words(model, sentence)
    best = ranked[-1]
    assert score_pair(model, sentence, best) > score_pair(model, sentence, ranked[-2])
    # The best key sits in the last sense of a multi-sense entry (definition
    # keys) or on that entry's surface (idiom keys).
    for key_mode, last_sense, surface, expected_sense in (
        ("definition", best, ranked[5], 2),
        ("idiom", ranked[5], best, 0),
    ):
        lexicon = [
            IdiomEntry(id="e1", surface=ranked[0], senses=(ranked[1], ranked[2])),
            IdiomEntry(id="e2", surface=surface, senses=(ranked[3], ranked[4], last_sense)),
        ]
        got = retrieve_top1(model, sentence, lexicon, key_mode)
        expected = _oracle_top1(model, sentence, lexicon, key_mode)
        assert (got[0].id, got[1]) == expected[:2] == ("e2", expected_sense)
        assert got[2] == pytest.approx(expected[2], abs=1e-12)


def test_retrieve_top1_duplicate_keys_tie_exactly(tiny_retrieval):
    model, _, _ = tiny_retrieval
    sentence = ("this", "gamma", "there")
    ranked = _ranked_words(model, sentence)
    low, best = ranked[0], ranked[-1]
    lexicon = [
        IdiomEntry(id="a", surface=("x",), senses=(low,)),
        IdiomEntry(id="b", surface=("x",), senses=(low, best, best)),
        IdiomEntry(id="c", surface=("x",), senses=(best,)),
    ]
    assert retrieve_top1(model, sentence, lexicon)[:2] == (lexicon[1], 1)
    assert retrieve_top1(model, sentence, lexicon, "idiom")[:2] == (lexicon[0], 0)
    scores = score_keys(model, sentence, [key for e in lexicon for key in e.senses])
    assert scores[2] == scores[3] == scores[4]
    # Out-of-vocabulary keys encode alike, so they score alike.
    unk = score_keys(model, sentence, [("zzz", "yyy"), best, ("qqq", "www")])
    assert unk[0] == unk[2]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(KEY_MODES),
    st.integers(min_value=0, max_value=2**32),
)
def test_retrieve_top1_matches_per_key_oracle(n_idioms, hidden, key_mode, seed):
    rng = np.random.default_rng(seed)
    known = [f"w{i}" for i in range(8)]
    words = known + ["oov1", "oov2"]

    def phrase(max_len):
        return tuple(rng.choice(words, size=int(rng.integers(1, max_len + 1))).tolist())

    lexicon = [
        IdiomEntry(id=f"i{i}", surface=phrase(3), senses=tuple(phrase(4) for _ in range(int(rng.integers(1, 4)))))
        for i in range(n_idioms)
    ]
    model = RetrievalModel(Vocabulary(RESERVED + tuple(known)), embed_dim=3, hidden=hidden, seed=seed % 1000)
    sentence = phrase(6)
    got = retrieve_top1(model, sentence, lexicon, key_mode)
    expected = _oracle_top1(model, sentence, lexicon, key_mode)
    assert (got[0].id, got[1]) == expected[:2]
    assert abs(got[2] - expected[2]) <= 1e-12
    keys = [key for e in lexicon for _, key in candidate_keys(e, key_mode)]
    scalar = [score_pair(model, sentence, key) for key in keys]
    assert np.abs(score_keys(model, sentence, keys) - scalar).max() <= 1e-12


def test_retrieve_top1_tie_breaks_to_earliest(tiny_retrieval):
    model, lexicon, _ = tiny_retrieval
    frozen = RetrievalModel(model.vocab, embed_dim=8, hidden=8, seed=1)
    for t in frozen.store.params.values():
        t.data[...] = 0.0
    entry, sense, s = retrieve_top1(frozen, ("this", "alpha"), lexicon)
    assert (entry.id, sense, s) == ("e1", 0, 0.0)
    assert entry is lexicon[0]


def test_retrieve_top1_scale_invariance(tiny_retrieval):
    model, lexicon, _ = tiny_retrieval
    before = retrieve_top1(model, ("this", "gamma", "there"), lexicon)
    model.score_w.data *= 3.5
    model.score_b.data *= 3.5
    try:
        after = retrieve_top1(model, ("this", "gamma", "there"), lexicon)
    finally:
        model.score_w.data /= 3.5
        model.score_b.data /= 3.5
    assert after[:2] == before[:2]
    assert after[2] == pytest.approx(3.5 * before[2])


def test_retrieve_top1_empty_lexicon(tiny_retrieval):
    model, lexicon, _ = tiny_retrieval
    with pytest.raises(ValueError):
        retrieve_top1(model, ("a",), [])
    with pytest.raises(ValueError):
        retrieve_top1(model, (), lexicon)
    with pytest.raises(ValueError):
        score_keys(model, ("a",), [("b",), ()])
    with pytest.raises(ValueError):
        score_keys(model, ("a",), [])


def test_evaluate_retrieval_empty_pairs(tiny_retrieval):
    model, lexicon, _ = tiny_retrieval
    assert evaluate_retrieval(model, [], lexicon) == 0.0


# --- training ----------------------------------------------------------


def test_train_rejects_bad_arguments(tiny_retrieval):
    model, lexicon, pairs = tiny_retrieval
    with pytest.raises(ValueError):
        train_retrieval(model, pairs, lexicon, epochs=1, negatives_per_positive=3)
    with pytest.raises(ValueError):
        train_retrieval(model, pairs, lexicon, epochs=1, negatives_per_positive=1, key_mode="bogus")


def test_train_skips_unknown_idiom_and_errors_when_empty(tiny_retrieval, caplog):
    model, lexicon, _ = tiny_retrieval
    ghost = [ParallelPair("ghost", 0, ("a", "b"), ("c",), (0, 1))]
    with pytest.raises(ValueError, match="no trainable pairs"):
        with caplog.at_level("WARNING"):
            train_retrieval(model, ghost, lexicon, epochs=1, negatives_per_positive=1)
    assert "ghost" in caplog.text


def test_train_skips_out_of_range_sense_as_if_absent(caplog):
    lexicon, pairs = _separable_corpus()
    vocab = build_vocab(pairs, lexicon)
    far = ParallelPair("e1", 5, ("this", "alpha", "here"), ("x",), (1, 2))

    def run(train_pairs):
        model = RetrievalModel(vocab, embed_dim=8, hidden=8, seed=0)
        history = train_retrieval(model, train_pairs, lexicon, epochs=2, negatives_per_positive=1, seed=5)
        return model, history

    with caplog.at_level("WARNING"):
        m1, h1 = run(pairs[:3] + [far] + pairs[3:])
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].startswith("skipping pair")
    assert "'e1' sense 5" in warnings[0]
    # The skipped pair draws nothing from the RNG, so training matches the clean corpus.
    m2, h2 = run(pairs)
    assert h1 == h2
    assert all(np.array_equal(t.data, m2.store[n].data) for n, t in m1.store.items())


def test_train_warns_once_before_epoch_one(caplog):
    lexicon, pairs = _separable_corpus()
    model = RetrievalModel(build_vocab(pairs, lexicon), embed_dim=8, hidden=8, seed=0)
    ghost = ParallelPair("ghost", 0, ("a", "b"), ("c",), (0, 1))
    with caplog.at_level(logging.INFO, logger="idiomatize"):
        train_retrieval(model, [ghost] + pairs, lexicon, epochs=3, negatives_per_positive=1)
    messages = [r.getMessage() for r in caplog.records]
    skipped = [i for i, m in enumerate(messages) if m.startswith("skipping pair")]
    first_epoch = next(i for i, m in enumerate(messages) if m.startswith("retrieval epoch 1/"))
    assert len(skipped) == 1 and skipped[0] < first_epoch
    assert "'ghost'" in messages[skipped[0]]


def test_train_zero_epochs_is_noop():
    lexicon, pairs = _separable_corpus()
    vocab = build_vocab(pairs, lexicon)
    model = RetrievalModel(vocab, embed_dim=8, hidden=8, seed=3)
    before = {n: t.data.copy() for n, t in model.store.items()}
    history = train_retrieval(model, pairs, lexicon, epochs=0, negatives_per_positive=1)
    assert history == {"epoch_losses": [], "val_retrieval_accuracy": []}
    assert all(np.array_equal(t.data, before[n]) for n, t in model.store.items())


def test_train_deterministic_for_fixed_seed():
    lexicon, pairs = _separable_corpus()
    vocab = build_vocab(pairs, lexicon)

    def run():
        model = RetrievalModel(vocab, embed_dim=8, hidden=8, seed=0)
        history = train_retrieval(
            model, pairs, lexicon, epochs=2, negatives_per_positive=1, lr=3e-3, seed=5
        )
        return model, history

    m1, h1 = run()
    m2, h2 = run()
    assert h1 == h2
    assert all(np.array_equal(t.data, m2.store[n].data) for n, t in m1.store.items())


def test_loss_strictly_decreases_on_separable_set():
    lexicon, train, _ = synthetic_retrieval_data(seed=0)
    vocab = build_vocab(train, lexicon)
    model = RetrievalModel(vocab, embed_dim=64, hidden=64, seed=0)
    history = train_retrieval(
        model, train, lexicon, epochs=5, negatives_per_positive=3, lr=5e-3, seed=0, batch_size=4
    )
    losses = history["epoch_losses"]
    assert len(losses) == 5
    assert all(np.isfinite(losses))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_early_stop_and_eval_cadence():
    lexicon, pairs = _separable_corpus()
    vocab = build_vocab(pairs, lexicon)
    model = RetrievalModel(vocab, embed_dim=8, hidden=8, seed=0)
    history = train_retrieval(
        model,
        pairs,
        lexicon,
        epochs=10,
        negatives_per_positive=1,
        validation=pairs,
        stop_at_accuracy=0.0,
    )
    assert len(history["epoch_losses"]) == 1
    assert history["val_retrieval_accuracy"][0] is not None

    model2 = RetrievalModel(vocab, embed_dim=8, hidden=8, seed=0)
    history2 = train_retrieval(
        model2,
        pairs,
        lexicon,
        epochs=2,
        negatives_per_positive=1,
        validation=pairs,
        eval_every=2,
    )
    assert history2["val_retrieval_accuracy"][0] is None
    assert history2["val_retrieval_accuracy"][1] is not None
