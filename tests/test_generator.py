"""Guided copy generator: inputs, reads, distributions, decode, training."""

from __future__ import annotations

import ast
import math
import pathlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idiomatize import (
    GeneratorInput,
    GeneratorModel,
    beam_decode,
    build_generator_input,
    rule_based_generate,
    train_generator,
)
from idiomatize import generator
from idiomatize.corpus import EOS, SEP
from idiomatize.generator import (
    DecodeState,
    StepDistribution,
    _score_bound,
    _target_indices,
    attentive_read,
    decode_context,
    decode_init,
    decode_step,
    encode_input,
    infer_label,
    scan_input,
    selective_read,
    step_distribution,
    teacher_forced_accuracy,
    teacher_forced_pass,
)
from idiomatize.numerics import ParamStore, Tensor, grad_check, tsum
from idiomatize.rng import Rng

from oracles import (
    reference_generate_share,
    reference_generator_beam,
    reference_selective_read,
    reference_step_distribution,
    reference_target_indices,
)

words = st.text(alphabet="abcdefg", min_size=1, max_size=4)


@pytest.fixture(scope="module")
def gen_model(tiny_vocab):
    return GeneratorModel(
        tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=True, seed=0
    )


@pytest.fixture(scope="module")
def unguided_model(tiny_vocab):
    return GeneratorModel(
        tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=False, seed=0
    )


def _context(model, tokens):
    """Decode context over ``tokens`` as an input (indicators do not matter here)."""
    inp = GeneratorInput(tuple(tokens), (1,) * len(tokens))
    return decode_context(model, inp, encode_input(model, inp))


def _demo_input():
    return build_generator_input(
        ("ran", "fast"), ("the", "cat", "sat", "on", "mat"), (2, 4), guided=True
    )


# --- input construction ---------------------------------------------------


def test_build_guided_input_layout():
    idiom = ("run", "for", "cover")
    literal = ("the", "visitors", "headed", "for", "shelter", "when", "the", "rain", "began")
    inp = build_generator_input(idiom, literal, (2, 5), guided=True)
    assert inp.tokens == idiom + (SEP,) + literal
    assert inp.indicators == (1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1)


def test_build_guided_input_without_span():
    inp = build_generator_input(("a",), ("b", "c"), None, guided=True)
    assert inp.tokens == ("a", SEP, "b", "c")
    assert inp.indicators == (1, 0, 1, 1)


def test_build_unguided_input_drops_span():
    inp = build_generator_input(("run", "for", "cover"), ("the", "cat", "sat", "well"), (1, 3), guided=False)
    assert inp.tokens == ("run", "for", "cover", SEP, "the", "well")
    assert inp.indicators == (0,) * 6
    keep_all = build_generator_input(("a",), ("b", "c"), None, guided=False)
    assert keep_all.tokens == ("a", SEP, "b", "c")


def test_generator_input_validation():
    with pytest.raises(ValueError):
        GeneratorInput((), ())
    with pytest.raises(ValueError):
        GeneratorInput(("a",), (1, 0))
    with pytest.raises(ValueError):
        GeneratorInput(("a",), (2,))


@given(
    st.lists(words, min_size=1, max_size=8),
    st.lists(words, min_size=1, max_size=4),
    st.data(),
)
def test_guided_indicators_mark_exactly_sep_and_span(literal, idiom, data):
    n = len(literal)
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    e = data.draw(st.integers(min_value=s + 1, max_value=n))
    inp = build_generator_input(idiom, literal, (s, e), guided=True)
    zeros_at = {i for i, flag in enumerate(inp.indicators) if flag == 0}
    sep_pos = len(idiom)
    expected = {sep_pos} | {sep_pos + 1 + i for i in range(s, e)}
    assert zeros_at == expected


@given(
    st.lists(words, min_size=1, max_size=8),
    st.lists(words, min_size=1, max_size=4),
    st.data(),
)
def test_rule_based_splice(literal, idiom, data):
    n = len(literal)
    s = data.draw(st.integers(min_value=0, max_value=n - 1))
    e = data.draw(st.integers(min_value=s + 1, max_value=n))
    out = rule_based_generate(literal, (s, e), idiom)
    assert out == tuple(literal[:s]) + tuple(idiom) + tuple(literal[e:])
    assert len(out) == n - (e - s) + len(idiom)
    assert rule_based_generate(literal, None, idiom) == tuple(literal)


# --- encoder and reads ------------------------------------------------------


def test_encode_input_shape(gen_model):
    inp = _demo_input()
    memory = encode_input(gen_model, inp)
    assert memory.shape == (len(inp.tokens), gen_model.hidden)



@given(
    st.lists(st.sampled_from(("the", "cat", "ran", "zzz", SEP)), min_size=1, max_size=15),
    st.data(),
)
def test_scan_input_equals_encode_input(gen_model, tokens, data):
    # beam_decode's memory comes from the tape-free scan; teacher forcing's from the tape.
    indicators = data.draw(st.lists(st.sampled_from((0, 1)), min_size=len(tokens), max_size=len(tokens)))
    inp = GeneratorInput(tuple(tokens), tuple(indicators))
    assert np.array_equal(scan_input(gen_model, inp), encode_input(gen_model, inp).data)

def test_decode_init_matches_formula(gen_model):
    inp = _demo_input()
    ctx = decode_context(gen_model, inp, encode_input(gen_model, inp))
    state = decode_init(gen_model, ctx)
    memory = ctx.memory
    half = gen_model.hidden // 2
    final = np.concatenate([memory.data[-1][:half], memory.data[0][half:]])
    expect = np.tanh(gen_model.init_w.data @ final + gen_model.init_b.data)
    assert state.hidden.shape == (1, gen_model.hidden)
    assert np.allclose(state.hidden.data[0], expect, atol=1e-14)
    assert state.copy_scores is None
    assert state.gen_scores is None


def _with_memory(model, memory):
    """A tape context whose memory is ``memory``, [n,H]."""
    return replace(_context(model, ("the",) * memory.shape[0]), memory=memory)


def test_attentive_read_single_state(gen_model):
    memory = Tensor(np.arange(8.0).reshape(1, 8))
    h = Tensor(np.ones((1, 8)))
    out = attentive_read(_with_memory(gen_model, memory), h)
    assert np.array_equal(out.data, memory.data)


def test_attentive_read_zero_weight_is_mean(gen_model):
    rng = np.random.default_rng(0)
    memory = Tensor(rng.normal(size=(4, 8)))
    h = Tensor(rng.normal(size=(1, 8)))
    keep = gen_model.w_att.data.copy()
    gen_model.w_att.data[...] = 0.0
    try:
        out = attentive_read(_with_memory(gen_model, memory), h)
    finally:
        gen_model.w_att.data[...] = keep
    assert np.allclose(out.data[0], memory.data.mean(axis=0), atol=1e-14)


def test_attentive_read_matches_manual_softmax(gen_model):
    rng = np.random.default_rng(1)
    memory = Tensor(rng.normal(size=(3, 8)))
    h = Tensor(rng.normal(size=(1, 8)))
    out = attentive_read(_with_memory(gen_model, memory), h)
    scores = memory.data @ (h.data[0] @ gen_model.w_att.data)
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    assert np.allclose(out.data[0], weights @ memory.data, atol=1e-12)


def test_attentive_read_empty_memory(gen_model):
    ctx = replace(_context(gen_model, ("the",)), memory=Tensor(np.zeros((0, 8))))
    with pytest.raises(ValueError):
        attentive_read(ctx, Tensor(np.zeros((1, 8))))


def test_selective_read_zero_cases(gen_model):
    inp = _demo_input()
    memory = Tensor(np.random.default_rng(2).normal(size=(len(inp.tokens), 8)))
    ctx = replace(_context(gen_model, inp.tokens), memory=memory)
    psi = Tensor(np.arange(float(len(inp.tokens)))[None])
    # First step: no copy scores yet.
    out = selective_read(ctx, ["the"], None)
    assert np.array_equal(out.data, np.zeros((1, 8)))
    # Token absent from the input.
    out = selective_read(ctx, ["zebra"], psi)
    assert np.array_equal(out.data, np.zeros((1, 8)))


def test_selective_read_single_match_returns_row(gen_model):
    inp = _demo_input()
    memory = Tensor(np.random.default_rng(3).normal(size=(len(inp.tokens), 8)))
    psi = Tensor(np.zeros((1, len(inp.tokens))))
    k = inp.tokens.index("cat")
    out = selective_read(replace(_context(gen_model, inp.tokens), memory=memory), ["cat"], psi)
    assert np.array_equal(out.data, memory.data[[k]])


def test_selective_read_equal_scores_average(gen_model):
    inp = GeneratorInput(("go", SEP, "go", "now"), (1, 0, 1, 1))
    memory = Tensor(np.random.default_rng(4).normal(size=(4, 8)))
    psi = Tensor(np.zeros((1, 4)))
    out = selective_read(replace(_context(gen_model, inp.tokens), memory=memory), ["go"], psi)
    expect = 0.5 * memory.data[0] + 0.5 * memory.data[2]
    assert np.allclose(out.data[0], expect, atol=1e-15)


# --- step distribution ------------------------------------------------------


def test_distribution_matches_manual_normalization(tiny_vocab, gen_model):
    rng = np.random.default_rng(5)
    inp_tokens = ("the", "cat", "zzz")  # zzz is out of vocabulary
    copy_s = rng.normal(size=3)
    gen_s = rng.normal(size=len(tiny_vocab))
    ctx = _context(gen_model, inp_tokens)
    dist = step_distribution(ctx, copy_s[None], gen_s[None])
    probs, p_copy, p_gen = dist.probs[0], dist.p_copy[0], dist.p_gen[0]
    shift = max(copy_s.max(), gen_s.max())
    z = np.exp(copy_s - shift).sum() + np.exp(gen_s - shift).sum()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert p_copy + p_gen == pytest.approx(1.0, abs=1e-12)
    assert p_copy == pytest.approx(np.exp(copy_s - shift).sum() / z, abs=1e-12)
    expect_the = (
        np.exp(gen_s[tiny_vocab.encode("the")] - shift) + np.exp(copy_s[0] - shift)
    ) / z
    assert probs[ctx.tokens.index("the")] == pytest.approx(expect_the, abs=1e-12)
    copy_shares = probs - reference_generate_share(len(ctx.tokens), copy_s, gen_s)
    assert {t for t, c in zip(ctx.tokens, copy_shares) if c} == {"the", "cat", "zzz"}
    # The OOV token is reachable through the copy route only.
    _, copy_probs, _, _ = reference_step_distribution(tiny_vocab.tokens, inp_tokens, copy_s, gen_s)
    zzz = ctx.tokens.index("zzz")
    assert probs[zzz] == pytest.approx(copy_probs["zzz"], abs=1e-15)
    assert probs[zzz] > 0.0


def test_distribution_merges_repeated_tokens(tiny_vocab, gen_model):
    copy_s = np.array([0.3, -0.2, 0.3])
    gen_s = np.zeros(len(tiny_vocab))
    ctx = _context(gen_model, ("cat", "dog", "cat"))
    dist = step_distribution(ctx, copy_s[None], gen_s[None])
    shift = max(copy_s.max(), gen_s.max())
    z = np.exp(copy_s - shift).sum() + np.exp(gen_s - shift).sum()
    both = (np.exp(copy_s[0] - shift) + np.exp(copy_s[2] - shift)) / z
    copy_shares = dist.probs[0] - reference_generate_share(len(ctx.tokens), copy_s, gen_s)
    assert copy_shares[ctx.tokens.index("cat")] == pytest.approx(both, abs=1e-15)


def _assert_copy_shares(ctx, probs, copy_s, gen_s, copy_probs):
    """A step's probabilities less their generate shares are the oracle's copy shares:
    exactly past the vocabulary, where no token has a generate share, and within 1e-15 in it."""
    shares = probs - reference_generate_share(len(ctx.tokens), copy_s, gen_s)
    expect = [copy_probs.get(t, 0.0) for t in ctx.tokens]
    v = len(gen_s)
    assert shares[v:].tolist() == expect[v:]
    assert shares[:v] == pytest.approx(expect[:v], abs=1e-15)


@pytest.mark.parametrize("seed", range(12))
def test_distribution_equals_dict_oracle(tiny_vocab, gen_model, seed):
    rng = np.random.default_rng(seed)
    # In-vocabulary words repeat, two OOV words repeat, <sep> sits in the input.
    pool = ("the", "cat", "the", "dog", "zzz", "qqq", "zzz", "<sep>")
    inp_tokens = tuple(rng.choice(pool, size=rng.integers(1, 13)).tolist())
    copy_s = rng.normal(scale=2.0, size=len(inp_tokens))
    gen_s = rng.normal(scale=2.0, size=len(tiny_vocab))
    if seed % 3 == 0:
        gen_s[:] = 0.7  # exact ties across the whole vocabulary
    if seed % 6 == 0:
        copy_s[:] = 0.7
    ctx = _context(gen_model, inp_tokens)
    dist = step_distribution(ctx, copy_s[None], gen_s[None])
    probs, copy_probs, p_copy, p_gen = reference_step_distribution(
        tiny_vocab.tokens, inp_tokens, copy_s, gen_s
    )
    assert ctx.tokens == tuple(probs)
    assert dist.probs[0].tolist() == list(probs.values())
    _assert_copy_shares(ctx, dist.probs[0], copy_s, gen_s, copy_probs)
    assert (dist.p_copy[0], dist.p_gen[0]) == (p_copy, p_gen)
    order = np.argsort(-dist.probs[0], kind="stable")
    ranked = sorted(probs.items(), key=lambda kv: -kv[1])
    for k in range(1, 9):
        assert [ctx.tokens[i] for i in order[:k]] == [t for t, _ in ranked[:k]]


@pytest.mark.parametrize("seed", range(6))
def test_step_distribution_rows_equal_single_rows(tiny_vocab, gen_model, seed):
    rng = np.random.default_rng(seed)
    pool = ("the", "cat", "the", "dog", "zzz", "qqq", "zzz", "<sep>")
    inp_tokens = tuple(rng.choice(pool, size=rng.integers(1, 13)).tolist())
    batch = int(rng.integers(1, 7))
    copy_s = rng.normal(scale=2.0, size=(batch, len(inp_tokens)))
    gen_s = rng.normal(scale=2.0, size=(batch, len(tiny_vocab)))
    gen_s[0] = 0.7  # exact ties in one row
    copy_s[-1] = 0.7
    ctx = _context(gen_model, inp_tokens)
    rows = step_distribution(ctx, copy_s, gen_s)
    labels = infer_label(rows)
    assert rows.probs.shape == (batch, len(ctx.tokens))
    with pytest.raises(ValueError):  # rows only: one [n] and [V] score vector is not a row
        step_distribution(ctx, copy_s[0], gen_s[0])
    for b in range(batch):
        one = step_distribution(ctx, copy_s[b : b + 1], gen_s[b : b + 1])
        for field in ("probs", "p_copy", "p_gen"):
            assert np.array_equal(getattr(rows, field)[b], getattr(one, field)[0]), field
        assert labels[b] == infer_label(one)[0]
        probs, copy_probs, p_copy, p_gen = reference_step_distribution(
            tiny_vocab.tokens, inp_tokens, copy_s[b], gen_s[b]
        )
        assert rows.probs[b].tolist() == list(probs.values())
        _assert_copy_shares(ctx, rows.probs[b], copy_s[b], gen_s[b], copy_probs)
        assert (rows.p_copy[b], rows.p_gen[b]) == (p_copy, p_gen)


def test_infer_label_strictly_greater():
    empty = np.zeros((1, 0))
    tie = StepDistribution(probs=empty, p_copy=np.array([0.5]), p_gen=np.array([0.5]))
    assert infer_label(tie)[0] == 0
    copyish = StepDistribution(probs=empty, p_copy=np.array([0.6]), p_gen=np.array([0.4]))
    assert infer_label(copyish)[0] == 1
    genish = StepDistribution(probs=empty, p_copy=np.array([0.4]), p_gen=np.array([0.6]))
    assert infer_label(genish)[0] == 0


def test_step_distribution_sums_to_one_from_real_state(gen_model):
    inp = _demo_input()
    ctx = decode_context(gen_model, inp, encode_input(gen_model, inp))
    state = decode_step(gen_model, ctx, decode_init(gen_model, ctx), [SEP], np.array([0]))
    dist = step_distribution(ctx, state.copy_scores.data, state.gen_scores.data)
    assert dist.probs[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert state.copy_scores.shape == (1, len(inp.tokens))


def test_target_indices_routes(tiny_vocab, gen_model):
    inp_tokens = ("the", "cat", "the")
    n = len(inp_tokens)
    ctx = _context(gen_model, inp_tokens)
    # In input twice and in the vocabulary.
    assert _target_indices(tiny_vocab, ctx, "the") == ([0, 2, n + tiny_vocab.encode("the")], "the")
    # In the vocabulary only.
    assert _target_indices(tiny_vocab, ctx, "dog") == ([n + tiny_vocab.encode("dog")], "dog")
    # In the input only (not in the vocabulary).
    assert _target_indices(tiny_vocab, _context(gen_model, ("zzz",)), "zzz") == ([0], "zzz")
    # Nowhere: fall back to the <unk> generation route, which emits <unk>.
    assert _target_indices(tiny_vocab, ctx, "zzz") == ([n + 1], "<unk>")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(("the", "cat", "dog", "zzz", "qqq", SEP)), min_size=1, max_size=10),
    st.data(),
)
def test_decode_context_steps_equal_scan_oracles(gen_model, tokens, data):
    # Repeated and OOV tokens and <sep> in the input; y_prev is drawn from
    # the input, the vocabulary and a token found nowhere.
    vocab = gen_model.vocab
    indicators = data.draw(st.lists(st.integers(0, 1), min_size=len(tokens), max_size=len(tokens)))
    inp = GeneratorInput(tuple(tokens), tuple(indicators))
    choices = st.sampled_from(tuple(tokens) + ("fox", "www", EOS))
    ctx = decode_context(gen_model, inp, encode_input(gen_model, inp))
    state = decode_init(gen_model, ctx)
    y_prev, l_prev = SEP, 0
    for _ in range(data.draw(st.integers(1, 6))):
        read = selective_read(ctx, [y_prev], state.copy_scores)
        psi = None if state.copy_scores is None else state.copy_scores.data[0]
        expect = reference_selective_read(y_prev, ctx.memory.data, inp.tokens, psi)
        assert read.data[0].tolist() == expect.tolist()
        state = decode_step(gen_model, ctx, state, [y_prev], np.array([l_prev]))
        copy_s, gen_s = state.copy_scores.data[0], state.gen_scores.data[0]
        dist = step_distribution(ctx, copy_s[None], gen_s[None])
        keys = np.tanh(np.vecmat(ctx.memory.data, gen_model.u_copy.data))  # recomputed per step
        assert copy_s.tolist() == (keys @ state.hidden.data[0]).tolist()
        probs, copy_probs, p_copy, p_gen = reference_step_distribution(
            vocab.tokens, inp.tokens, copy_s, gen_s
        )
        assert ctx.tokens == tuple(probs)
        assert dist.probs[0].tolist() == list(probs.values())
        _assert_copy_shares(ctx, dist.probs[0], copy_s, gen_s, copy_probs)
        assert (dist.p_copy[0], dist.p_gen[0]) == (p_copy, p_gen)
        y_prev, l_prev = data.draw(choices), data.draw(st.integers(0, 1))
        assert _target_indices(vocab, ctx, y_prev)[0] == reference_target_indices(
            vocab.tokens, inp.tokens, y_prev
        )


# --- decoding ---------------------------------------------------------------


def test_decode_step_leaves_its_input_state_and_returns_its_scores(gen_model):
    inp = _demo_input()
    ctx = decode_context(gen_model, inp, encode_input(gen_model, inp))
    first = decode_init(gen_model, ctx)
    memory, hidden = ctx.memory.data.copy(), first.hidden.data.copy()
    second = decode_step(gen_model, ctx, first, [SEP], np.array([0]))
    second_copy = second.copy_scores.data.copy()
    third = decode_step(gen_model, ctx, second, ["cat"], np.array([1]))
    assert first.copy_scores is None and first.gen_scores is None
    assert np.array_equal(ctx.memory.data, memory)
    assert np.array_equal(first.hidden.data, hidden)
    assert np.array_equal(second.copy_scores.data, second_copy)
    for state in (second, third):
        h = state.hidden.data[0]
        assert state.copy_scores.data[0].tolist() == (ctx.copy_keys.data @ h).tolist()
        assert state.gen_scores.data[0].tolist() == (gen_model.w_gen.data @ h).tolist()
    with pytest.raises(AttributeError):
        second.hidden = first.hidden


@pytest.mark.parametrize("guided", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_decode_step_rows_equal_single_rows(tiny_vocab, guided, seed):
    model = GeneratorModel(tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=guided, seed=seed)
    # "the" repeats in the input, "zzz" is out of vocabulary, "dog" and <sep> are absent from it.
    inp = GeneratorInput(("the", "cat", "the", "zzz", "ran"), (1, 0, 1, 1, 0))
    y_prev = ["the", "dog", "zzz", SEP, "cat", "the"]
    l_prev = np.array([1, 0, 1, 0, 0, 1])
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=(len(y_prev), 8))
    psi = rng.normal(size=(len(y_prev), len(inp.tokens)))
    ctx = decode_context(model, inp, encode_input(model, inp))
    for copy_scores in (None, psi):  # the first step has no copy scores yet
        state = DecodeState(Tensor(hidden), None if copy_scores is None else Tensor(copy_scores))
        rows = decode_step(model, ctx, state, y_prev, l_prev)
        assert rows.hidden.shape == (len(y_prev), 8)
        for b in range(len(y_prev)):
            one_state = DecodeState(Tensor(hidden[[b]]), None if copy_scores is None else Tensor(copy_scores[[b]]))
            one = decode_step(model, ctx, one_state, y_prev[b : b + 1], l_prev[b : b + 1])
            assert np.array_equal(rows.hidden.data[b], one.hidden.data[0])
            assert np.array_equal(rows.copy_scores.data[b], one.copy_scores.data[0])
            assert np.array_equal(rows.gen_scores.data[b], one.gen_scores.data[0])


def test_only_decode_step_steps_the_decoder_gru():
    # Training and inference share one decoder step: no other top-level
    # statement of the generator names a GRU step, on the tape or off it.
    tree = ast.parse(pathlib.Path(generator.__file__).read_text(encoding="utf-8"))
    steppers = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(stmt):
            if getattr(node, "id", getattr(node, "attr", None)) in ("gru_step", "gru_rows"):
                steppers.add(getattr(stmt, "name", f"line {stmt.lineno}"))
    assert steppers == {"decode_step"}


def test_decode_step_rejects_non_row_inputs(gen_model):
    inp = _demo_input()
    ctx = decode_context(gen_model, inp, encode_input(gen_model, inp))
    state = decode_init(gen_model, ctx)
    # A bare string would be read as one token per character.
    for token in (".", "cat"):
        with pytest.raises(ValueError, match="sequence of tokens"):
            decode_step(gen_model, ctx, state, token, np.array([0]))
    for hidden in (state.hidden.data[0], np.zeros((2, gen_model.hidden)), np.zeros((1, 4))):
        with pytest.raises(ValueError, match=r"not \[B,H\]"):
            decode_step(gen_model, ctx, DecodeState(Tensor(hidden)), [SEP], np.array([0]))


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
    st.lists(st.sampled_from(("the", "cat", "dog", "zzz", "qqq", SEP)), min_size=1, max_size=8),
    st.data(),
)
def test_decode_step_on_arrays_equals_decode_step_on_the_tape(tiny_vocab, seed, guided, tokens, data):
    # The array context, first state and step equal the tape's bit for bit:
    # 1-8 rows, with and without copy scores, and row tokens repeated in the
    # input, absent from it, or out of the vocabulary.
    model = GeneratorModel(tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=guided, seed=seed)
    indicators = data.draw(st.lists(st.integers(0, 1), min_size=len(tokens), max_size=len(tokens)))
    inp = GeneratorInput(tuple(tokens), tuple(indicators))
    tape = decode_context(model, inp, encode_input(model, inp))
    arrays = decode_context(model, inp, scan_input(model, inp))
    assert (arrays.tokens, arrays.positions, arrays.slots.tolist()) == (tape.tokens, tape.positions, tape.slots.tolist())
    assert isinstance(arrays.copy_keys, np.ndarray) and isinstance(tape.copy_keys, Tensor)
    assert _bits(arrays.memory) == _bits(tape.memory.data) and _bits(arrays.copy_keys) == _bits(tape.copy_keys.data)
    first = decode_init(model, arrays).hidden
    assert isinstance(first, np.ndarray) and _bits(first) == _bits(decode_init(model, tape).hidden.data)
    rows = data.draw(st.integers(1, 8))
    y_prev = data.draw(st.lists(st.sampled_from(tuple(tokens) + ("dog", "www", EOS)), min_size=rows, max_size=rows))
    l_prev = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)))
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=(rows, 8))
    for psi in (None, rng.normal(size=(rows, len(tokens)))):  # the first step has no copy scores yet
        want = decode_step(model, tape, DecodeState(Tensor(hidden), None if psi is None else Tensor(psi)), y_prev, l_prev)
        got = decode_step(model, arrays, DecodeState(hidden, psi), y_prev, l_prev)
        for g, w in zip((got.hidden, got.copy_scores, got.gen_scores), (want.hidden, want.copy_scores, want.gen_scores)):
            assert isinstance(g, np.ndarray) and g.shape == w.shape and _bits(g) == _bits(w.data)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**16), st.booleans(), st.sampled_from([1.0, 8.0]), st.data())
def test_teacher_forced_accuracy_equals_the_tape_pass_count(tiny_vocab, seed, guided, gain, data):
    model = GeneratorModel(tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=guided, seed=seed)
    for t in model.store.params.values():
        t.data *= gain
    examples = []
    for _ in range(data.draw(st.integers(1, 3))):
        tokens = data.draw(st.lists(st.sampled_from(("the", "cat", "dog", "zzz", SEP)), min_size=1, max_size=6))
        reference = data.draw(st.lists(st.sampled_from(tuple(tokens) + ("fox", "www")), min_size=1, max_size=6))
        examples.append((GeneratorInput(tuple(tokens), (1,) * len(tokens)), tuple(reference)))
    passes = [teacher_forced_pass(model, inp, reference) for inp, reference in examples]
    expect = sum(correct for _, _, correct in passes) / sum(steps for _, steps, _ in passes)
    assert teacher_forced_accuracy(model, examples) == expect


def test_teacher_forced_accuracy_rejects_an_empty_reference(gen_model):
    with pytest.raises(ValueError, match="empty reference"):
        teacher_forced_accuracy(gen_model, [(_demo_input(), ())])


def test_selective_read_rows_gradcheck(gen_model):
    # Three rows: "go" matches two positions and repeats across rows 0 and 2,
    # "now" matches one; row 1's token is absent and reads exactly zero.
    store = ParamStore()
    psi = store.add("psi", (3, 5), Rng(0), scale=1.0)
    memory = store.add("memory", (5, 8), Rng(1), scale=1.0)
    ctx = replace(_context(gen_model, ("go", SEP, "go", "now", "then")), memory=memory)
    coeffs = Tensor(np.random.default_rng(0).normal(size=(3, 8)))

    def loss(_store):
        return tsum(selective_read(ctx, ["go", "zebra", "go"], psi) * coeffs) + tsum(
            selective_read(ctx, ["now", "go", "then"], psi) * coeffs
        )

    assert grad_check(loss, store, eps=1e-5) <= 1e-6  # test_numerics.OP_TOLERANCE


def test_unguided_model_ignores_label_channel(unguided_model):
    inp = build_generator_input(("ran", "fast"), ("the", "cat", "sat"), (1, 2), guided=False)
    ctx = decode_context(unguided_model, inp, encode_input(unguided_model, inp))
    state = decode_init(unguided_model, ctx)
    advanced = decode_step(unguided_model, ctx, state, [SEP], np.array([0]))
    advanced_labelled = decode_step(unguided_model, ctx, state, [SEP], np.array([1]))
    assert np.array_equal(advanced.hidden.data, advanced_labelled.hidden.data)


def test_guided_model_uses_label_channel(gen_model):
    inp = _demo_input()
    ctx = decode_context(gen_model, inp, encode_input(gen_model, inp))
    state = decode_init(gen_model, ctx)
    plain = decode_step(gen_model, ctx, state, [SEP], np.array([0]))
    labelled = decode_step(gen_model, ctx, state, [SEP], np.array([1]))
    assert not np.array_equal(plain.hidden.data, labelled.hidden.data)


def test_teacher_forced_loss_matches_step_distributions(gen_model):
    inp = _demo_input()
    reference = ("the", "cat", "ran", "fast")
    loss = teacher_forced_pass(gen_model, inp, reference)[0].item()
    ctx = decode_context(gen_model, inp, encode_input(gen_model, inp))
    state = decode_init(gen_model, ctx)
    manual = 0.0
    input_tokens = set(inp.tokens)
    y_prev, l_prev = SEP, 0
    for target in list(reference) + [EOS]:
        state = decode_step(gen_model, ctx, state, [y_prev], np.array([l_prev]))
        dist = step_distribution(ctx, state.copy_scores.data, state.gen_scores.data)
        manual -= math.log(dist.probs[0, ctx.tokens.index(target)])
        y_prev, l_prev = target, 1 if (gen_model.guided and target in input_tokens) else 0
    assert loss == pytest.approx(manual, abs=1e-10)


def test_teacher_forced_loss_empty_reference(gen_model):
    with pytest.raises(ValueError):
        teacher_forced_pass(gen_model, _demo_input(), ())


def test_teacher_forced_accuracy_bounds(gen_model):
    data = [(_demo_input(), ("the", "cat", "ran", "fast"))]
    acc = teacher_forced_accuracy(gen_model, data)
    assert 0.0 <= acc <= 1.0


def test_beam_one_is_greedy(gen_model):
    inp = _demo_input()
    got = beam_decode(gen_model, inp, beam=1, max_len=10)
    ctx = decode_context(gen_model, inp, encode_input(gen_model, inp))
    state = decode_init(gen_model, ctx)
    tokens = []
    y_prev, l_prev = SEP, 0
    for _ in range(10):
        state = decode_step(gen_model, ctx, state, [y_prev], np.array([l_prev]))
        dist = step_distribution(ctx, state.copy_scores.data, state.gen_scores.data)
        token = ctx.tokens[int(np.argmax(dist.probs[0]))]
        if token == EOS:
            break
        tokens.append(token)
        y_prev, l_prev = token, infer_label(dist)[0]
    assert got == tuple(tokens)


@pytest.mark.parametrize("beam", [1, 4])
def test_beam_decode_breaks_exact_ties_by_vocabulary_id(tiny_vocab, beam):
    model = GeneratorModel(tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, seed=0)
    model.w_gen.data[:] = 0.0  # every generate and copy score is 0 at every step
    model.u_copy.data[:] = 0.0
    inp = GeneratorInput(("fox", "cat", "the", "zzz"), (1, 1, 1, 1))
    # The input's in-vocabulary tokens tie for the most mass; "the" has the lowest id.
    assert beam_decode(model, inp, beam=beam, max_len=3) == ("the", "the", "the")


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**16),
    st.floats(min_value=0.5, max_value=8.0),
    st.booleans(),
    st.lists(st.sampled_from(("the", "cat", "dog", "fox", "zzz", "qqq", SEP)), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=30),
    st.data(),
)
def test_beam_decode_equals_per_hypothesis_oracle(tiny_vocab, seed, gain, guided, tokens, beam, max_len, data):
    # Inputs repeat tokens and hold out-of-vocabulary ones; larger gains give
    # peaked steps, so some hypotheses end early on <eos>.
    model = GeneratorModel(tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=guided, seed=seed)
    for t in model.store.params.values():
        t.data *= gain
    indicators = data.draw(st.lists(st.integers(0, 1), min_size=len(tokens), max_size=len(tokens)))
    inp = GeneratorInput(tuple(tokens), tuple(indicators))
    assert beam_decode(model, inp, beam=beam, max_len=max_len) == reference_generator_beam(model, inp, beam, max_len)


@pytest.mark.parametrize("beam", range(1, 7))
def test_beam_decode_equals_per_hypothesis_oracle_on_exact_ties(tiny_vocab, beam):
    model = GeneratorModel(tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, seed=0)
    model.w_gen.data[:] = 0.0  # every generate and copy score is 0 at every step
    model.u_copy.data[:] = 0.0
    inp = GeneratorInput(("fox", "cat", "the", "zzz"), (1, 1, 1, 1))
    for max_len in (1, 3, 6, 20):
        assert beam_decode(model, inp, beam=beam, max_len=max_len) == reference_generator_beam(model, inp, beam, max_len)


def _peaked_model(vocab, seed):
    """Peaked steps: often the best hypothesis ends on <eos> while the others fall far behind."""
    model = GeneratorModel(vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, seed=seed)
    for t in model.store.params.values():
        t.data *= 16.0
    return model


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("beam", [2, 4, 6])
def test_beam_decode_equals_per_hypothesis_oracle_on_peaked_models(tiny_vocab, seed, beam):
    model = _peaked_model(tiny_vocab, seed)
    inp = GeneratorInput(("fox", "cat", "the", "zzz"), (1, 1, 1, 1))
    assert beam_decode(model, inp, beam=beam, max_len=20) == reference_generator_beam(model, inp, beam, 20)


@pytest.mark.parametrize("seed", [65, 348, 397])
def test_beam_decode_stops_early_with_the_oracle_output(tiny_vocab, seed, monkeypatch):
    model = _peaked_model(tiny_vocab, seed)
    inp = GeneratorInput(("fox", "cat", "the", "zzz"), (1, 1, 1, 1))
    expect = reference_generator_beam(model, inp, 4, 20)
    positions = []

    def counted(model, ctx, state, y_prev, l_prev):
        positions.append(len(y_prev))
        return decode_step(model, ctx, state, y_prev, l_prev)

    monkeypatch.setattr(generator, "decode_step", counted)
    assert beam_decode(model, inp, beam=4, max_len=20) == expect
    assert len(positions) < 20 and max(positions) > 1


# --- early stop bound -------------------------------------------------------


SLACK = 4 * 40 * np.finfo(float).eps  # the slack of a 30-token vocabulary and a 10-token input


def test_score_bound_does_not_stop_a_perfect_live_prefix():
    # logp 0.0 with positions left can still end at 0.0, or a few ulps above it.
    for steps in (1, 10, 39):
        assert _score_bound(0.0, steps, 40, SLACK) > 0.0
        assert _score_bound(-0.0, steps, 40, 0.0) > 0.0


def test_score_bound_stops_a_hopeless_live_prefix():
    assert _score_bound(-2.0, 10, 40, SLACK) <= -0.04  # about -2 / 40


def test_score_bound_at_max_len_is_the_live_score():
    # Live prefixes at max_len are scored as they are; a tie with the best finished one stops.
    assert _score_bound(-3.0, 40, 40, SLACK) == -3.0 / 40
    assert _score_bound(1e-15, 40, 40, SLACK) >= 1e-15 / 40


def _largest_float_at_most(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) <= x else float(np.nextafter(f, -np.inf))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-1e4, max_value=1e-9),
    st.integers(min_value=1, max_value=60),
    st.data(),
    st.floats(min_value=0.0, max_value=1e-9),
)
def test_score_bound_covers_every_reachable_score(best_live, max_len, data, slack):
    # A prefix at logp best_live after `steps` positions ends at some t in
    # [min(steps + 1, max_len), max_len], with each step adding at most `slack`:
    # its exact logp is at most best_live + (t - steps)·slack, and its computed
    # logp is at most the rounded sum that adds `slack` once per step.
    steps = data.draw(st.integers(min_value=1, max_value=max_len))
    bound = _score_bound(best_live, steps, max_len, slack)
    chain = best_live
    for t in range(steps + 1, max_len + 1):
        chain += slack
        exact = _largest_float_at_most(Fraction(best_live) + (t - steps) * Fraction(slack))
        assert bound >= exact / t
        assert bound >= chain / t
    if steps == max_len:
        assert bound >= best_live / max_len


def test_beam_decode_argument_validation(gen_model):
    with pytest.raises(ValueError):
        beam_decode(gen_model, _demo_input(), beam=0)
    with pytest.raises(ValueError):
        beam_decode(gen_model, _demo_input(), max_len=0)


def test_beam_decode_respects_max_len(gen_model):
    for beam in (1, 3):
        out = beam_decode(gen_model, _demo_input(), beam=beam, max_len=4)
        assert len(out) <= 4


def test_beam_decode_deterministic(gen_model):
    inp = _demo_input()
    assert beam_decode(gen_model, inp, beam=3, max_len=8) == beam_decode(
        gen_model, inp, beam=3, max_len=8
    )


# --- training ---------------------------------------------------------------


def test_model_rejects_odd_hidden(tiny_vocab):
    with pytest.raises(ValueError):
        GeneratorModel(tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=7)


@pytest.mark.parametrize(
    "field, value", [("hidden", 0), ("hidden", -2), ("word_dim", 0), ("copy_dim", -1),
                     ("label_dim", 2.0), ("hidden", True)],
)
def test_model_rejects_non_positive_sizes(tiny_vocab, field, value):
    sizes = {"word_dim": 8, "copy_dim": 4, "label_dim": 4, "hidden": 8, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
        GeneratorModel(tiny_vocab, **sizes)


def test_train_rejects_empty_data(gen_model):
    with pytest.raises(ValueError):
        train_generator(gen_model, [], epochs=1)


def test_train_deterministic(tiny_vocab):
    data = [
        (_demo_input(), ("the", "cat", "ran", "fast")),
        (build_generator_input(("slow",), ("a", "dog", "ran"), (2, 3), guided=True), ("a", "dog", "slow")),
    ]

    def run():
        model = GeneratorModel(
            tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=True, seed=1
        )
        history = train_generator(model, data, epochs=2, batch_size=2, lr=3e-3, seed=7)
        return model, history

    m1, h1 = run()
    m2, h2 = run()
    assert h1 == h2
    assert all(np.array_equal(t.data, m2.store[n].data) for n, t in m1.store.items())


def test_epoch_loss_is_mean_instance_loss_with_short_last_batch(tiny_vocab):
    model = GeneratorModel(
        tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=True, seed=3
    )
    data = [
        (_demo_input(), ("the", "cat", "ran", "fast")),
        (build_generator_input(("slow",), ("a", "dog", "ran"), (2, 3), guided=True), ("a", "dog", "slow")),
        (build_generator_input(("ran",), ("the", "cat", "sat"), (2, 3), guided=True), ("the", "cat", "ran")),
    ]
    history = train_generator(model, data, epochs=1, batch_size=2, lr=0.0)
    per_instance = [teacher_forced_pass(model, inp, ref)[0].item() for inp, ref in data]
    assert abs(history["epoch_losses"][0] - sum(per_instance) / len(data)) <= 1e-12


def test_train_history_shape_and_eval_cadence(tiny_vocab):
    data = [(_demo_input(), ("the", "cat", "ran", "fast"))]
    model = GeneratorModel(
        tiny_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=True, seed=2
    )
    history = train_generator(
        model, data, epochs=4, batch_size=2, lr=1e-3, seed=0,
        validation=data, eval_every=2, max_len=8,
    )
    assert len(history["epoch_losses"]) == 4
    assert len(history["train_token_accuracy"]) == 4
    assert [b is None for b in history["val_bleu"]] == [True, False, True, False]
    assert all(0.0 <= a <= 1.0 for a in history["train_token_accuracy"])
