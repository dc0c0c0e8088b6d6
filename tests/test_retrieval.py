"""Retrieval stage: candidate scoring, top-1 ranking, BCE training."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idiomatize import (
    ExtractorModel,
    IdiomEntry,
    ParallelPair,
    RetrievalModel,
    build_vocab,
    load_checkpoint,
    retrieve_top1,
    retrieval,
    save_checkpoint,
    train_retrieval,
)
from idiomatize.corpus import RESERVED, SEP, Vocabulary
from idiomatize.numerics import adam_step, bigru_encode
from idiomatize.retrieval import (
    KEY_MODES,
    candidate_keys,
    encode_candidate,
    evaluate_retrieval,
    score,
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
    pooled = encode_candidate(model, sentence, key)
    ids = model.vocab.encode_all(["this", "alpha", "<sep>", "beta"])
    states = bigru_encode(model.fwd, model.bwd, [model.embedding[i : i + 1] for i in ids])
    manual = states.data.sum(axis=0)
    assert pooled.shape == (1, 2 * model.hidden)
    assert np.array_equal(pooled.data[0], manual)
    expect = float(model.score_w.data @ pooled.data[0] + model.score_b.data)
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


# Key-index tests: the sentence uses w0-w3 and the keys w2-w11, so w8-w11
# reach the scores only through the keys' side of the pass.
_INDEX_WORDS = tuple(f"w{i}" for i in range(12))
_INDEX_SENTENCE = ("w0", "w3", "w1", "w2")


def _index_lexicon(seed, n_idioms):
    rng = np.random.default_rng(seed)

    def phrase():
        return tuple(rng.choice(_INDEX_WORDS[2:], size=int(rng.integers(1, 5))).tolist())

    return [
        IdiomEntry(id=f"s{seed}i{i}", surface=phrase(), senses=tuple(phrase() for _ in range(int(rng.integers(1, 4)))))
        for i in range(n_idioms)
    ]


def _index_model(seed=0):
    return RetrievalModel(Vocabulary(RESERVED + _INDEX_WORDS), embed_dim=6, hidden=5, seed=seed)


def _keys(lexicon, key_mode="definition"):
    return [key for e in lexicon for _, key in candidate_keys(e, key_mode)]


def _cold_scores(model, sentence, keys, tmp_path):
    """``score_keys`` on a fresh model loaded from a checkpoint of ``model``'s parameters."""
    path = str(tmp_path / "cold.json")
    save_checkpoint(model, path)
    return score_keys(load_checkpoint(path), sentence, keys)


@pytest.fixture
def index_builds(monkeypatch):
    """Count ``build_key_index`` calls; a test reads the count around its own calls."""
    calls = []
    build = retrieval.build_key_index

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(retrieval, "build_key_index", counted)
    return calls


def _warm_scores(model, sentence, keys, builds):
    """``score_keys`` and whether it built a new key index."""
    before = len(builds)
    got = score_keys(model, sentence, keys)
    return got, len(builds) > before


def test_key_index_hit_equals_cold_model_from_checkpoint(tmp_path, index_builds):
    model, other = _index_model(0), _index_model(1)
    keys = _keys(_index_lexicon(0, 6))
    first, built = _warm_scores(model, _INDEX_SENTENCE, keys, index_builds)
    assert built
    again, built = _warm_scores(model, _INDEX_SENTENCE, keys, index_builds)
    assert not built and np.array_equal(again, first)
    assert np.array_equal(first, _cold_scores(model, _INDEX_SENTENCE, keys, tmp_path))
    # Replace every parameter array, as load_checkpoint does.
    for name, param in model.store.items():
        param.data = other.store[name].data.copy()
    for sentence, expect_build in ((_INDEX_SENTENCE, True), (("w1", "w1"), False), (_INDEX_SENTENCE, False)):
        got, built = _warm_scores(model, sentence, keys, index_builds)
        assert built == expect_build
        assert np.array_equal(got, _cold_scores(model, sentence, keys, tmp_path))
    assert not np.array_equal(got, first)


def test_key_index_alternating_lexicons_and_key_modes(tmp_path, index_builds):
    model = _index_model(2)
    lex_a, lex_b = _index_lexicon(3, 5), _index_lexicon(4, 7)
    # (lexicon, key mode, parameter change made before the call, whether it builds)
    calls = [
        (lex_a, "definition", None, True),
        (lex_a, "definition", None, False),
        (lex_b, "idiom", None, True),
        (lex_a, "idiom", None, True),
        (lex_a, "idiom", "bwd", True),
        (lex_b, "definition", None, True),
        (lex_b, "definition", "fwd", True),
        (lex_b, "definition", None, False),
        (lex_a, "definition", None, True),
    ]
    for lexicon, key_mode, change, expect_build in calls:
        if change == "bwd":
            model.bwd.u_r.data *= 1.25
        elif change == "fwd":
            model.fwd.w_r.data = model.fwd.w_r.data * 0.75
        keys = _keys(lexicon, key_mode)
        got, built = _warm_scores(model, _INDEX_SENTENCE, keys, index_builds)
        assert built == expect_build
        assert np.array_equal(got, _cold_scores(model, _INDEX_SENTENCE, keys, tmp_path))
        cold = load_checkpoint(str(tmp_path / "cold.json"))
        assert retrieve_top1(model, _INDEX_SENTENCE, lexicon, key_mode) == retrieve_top1(
            cold, _INDEX_SENTENCE, lexicon, key_mode
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.sampled_from((5, 24, 64)), st.data())
def test_key_score_does_not_depend_on_the_lexicon(seed, hidden, data):
    # Every product of the batched pass is a row product, so a key scores the
    # same bit for bit in any list of keys that holds it: any subset, in any
    # order, with duplicates and with out-of-vocabulary keys that encode alike.
    rng = np.random.default_rng(seed)
    words = _INDEX_WORDS + ("oov1", "oov2")

    def phrase(max_len):
        return tuple(rng.choice(words, size=int(rng.integers(1, max_len + 1))).tolist())

    pool = [phrase(6) for _ in range(30)] + [("oov1",), ("oov2", "oov1"), ("oov1", "oov1")]
    model = RetrievalModel(Vocabulary(RESERVED + _INDEX_WORDS), embed_dim=8, hidden=hidden, seed=seed % 1000)
    sentence = phrase(8)
    full = dict(zip(pool, score_keys(model, sentence, pool)))
    keys = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    got = score_keys(model, sentence, keys)
    assert np.array_equal(got, [full[key] for key in keys])
    assert max(abs(score_pair(model, sentence, key) - s) for key, s in zip(keys, got)) <= 1e-12


def _scale_bwd_weight_in_place(model):
    model.bwd.w_z.data *= 1.5


def _reassign_fwd_weight(model):
    model.fwd.w_h.data = model.fwd.w_h.data + 0.25


def _one_adam_step(model):
    score(model, encode_candidate(model, _INDEX_SENTENCE, ("w9", "w4"))).backward()
    adam_step(model.store, 0.05)


def _edit_key_token_row(model):
    model.embedding.data[model.vocab.get("w9")] += 0.5


@pytest.mark.parametrize(
    "change", [_scale_bwd_weight_in_place, _reassign_fwd_weight, _one_adam_step, _edit_key_token_row]
)
def test_key_index_rebuilt_after_parameter_change(change, tmp_path, index_builds):
    model = _index_model(5)
    keys = _keys(_index_lexicon(6, 6)) + [("w9", "w10"), ("w9",)]
    before = score_keys(model, _INDEX_SENTENCE, keys)
    change(model)
    got, built = _warm_scores(model, _INDEX_SENTENCE, keys, index_builds)
    assert built and not np.array_equal(got, before)
    assert np.array_equal(got, _cold_scores(model, _INDEX_SENTENCE, keys, tmp_path))


def test_key_index_hit_encodes_only_the_sentence(monkeypatch, index_builds):
    model = _index_model(8)
    keys = _keys(_index_lexicon(9, 6))
    first = score_keys(model, _INDEX_SENTENCE, keys)
    encoded = []
    encode_all = Vocabulary.encode_all

    def counted(vocab, tokens):
        tokens = list(tokens)
        encoded.append(tokens)
        return encode_all(vocab, tokens)

    monkeypatch.setattr(Vocabulary, "encode_all", counted)
    got, built = _warm_scores(model, _INDEX_SENTENCE, [list(key) for key in keys], index_builds)
    assert not built and np.array_equal(got, first)
    assert encoded == [list(_INDEX_SENTENCE) + [SEP]]


def test_key_index_rebuilt_for_another_vocabulary(index_builds):
    model, fresh = _index_model(5), _index_model(5)
    keys = _keys(_index_lexicon(6, 6))
    before = score_keys(model, _INDEX_SENTENCE, keys)
    model.vocab = fresh.vocab = Vocabulary(RESERVED + _INDEX_WORDS[::-1])
    got, built = _warm_scores(model, _INDEX_SENTENCE, keys, index_builds)
    assert built and not np.array_equal(got, before)
    assert np.array_equal(got, score_keys(fresh, _INDEX_SENTENCE, keys))


def test_key_index_keeps_exact_ties_of_duplicate_and_unknown_keys(tmp_path, index_builds):
    model = _index_model(7)
    keys = [("w4", "w9"), ("zzz", "yyy"), ("w5",), ("w4", "w9"), ("qqq", "www"), ("w4", "w9")]
    first = score_keys(model, _INDEX_SENTENCE, keys)
    model.bwd.b_h.data += 0.1
    for expect_build in (True, False):
        got, built = _warm_scores(model, _INDEX_SENTENCE, keys, index_builds)
        assert built == expect_build
        assert got[0] == got[3] == got[5] and got[1] == got[4]
        assert np.array_equal(got, _cold_scores(model, _INDEX_SENTENCE, keys, tmp_path))
    assert not np.array_equal(got, first)


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
