"""Tokenizer, corpus records, vocabulary, file IO, splitting."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from idiomatize import (
    CorpusError,
    IdiomEntry,
    ParallelPair,
    Vocabulary,
    build_vocab,
    load_lexicon,
    load_pairs,
    resolve_pairs,
    save_lexicon,
    save_pairs,
    split_corpus,
    tokenize,
)
from idiomatize.corpus import RESERVED
from idiomatize.toydata import demo_lexicon, demo_pairs

# --- tokenize -----------------------------------------------------------

TOKENIZE_CASES = [
    ("The visitors, headed for shelter!", ["the", "visitors", ",", "headed", "for", "shelter", "!"]),
    ("Don't spill the beans.", ["don't", "spill", "the", "beans", "."]),
    ("one's word", ["one's", "word"]),
    ("'quoted'", ["'", "quoted", "'"]),
    ("wait... what?!", ["wait", "...", "what", "?!"]),
    ("dogs' bones", ["dogs", "'", "bones"]),
    ("", []),
    ("   \t\n ", []),
    ("A1 b2", ["a1", "b2"]),
    ("end.start", ["end", ".", "start"]),
    ("semi;colon:case", ["semi", ";", "colon", ":", "case"]),
    ("(parens)", ["(", "parens", ")"]),
    ("a''b", ["a", "''", "b"]),
    ("well-known", ["well-known"]),
]


@pytest.mark.parametrize("text,expected", TOKENIZE_CASES)
def test_tokenize_cases(text, expected):
    assert tokenize(text) == expected


@pytest.mark.parametrize(
    "text,token", [("<sep> <pad> <eos>", "<sep>"), ("a <UNK> b", "<unk>"), ("stop <eos>", "<eos>")]
)
def test_tokenize_rejects_reserved_tokens(text, token):
    with pytest.raises(CorpusError, match=f"reserved token '{token}'"):
        tokenize(text)


@given(st.text(alphabet="abcxyz019 \t.,!?;:'\"()", max_size=60))
def test_tokenize_idempotent_on_own_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


@given(st.text(alphabet="abcxyz019 .,!?'", max_size=60))
def test_tokenize_preserves_non_space_characters(text):
    joined = "".join(tokenize(text))
    assert joined == "".join(text.lower().split())


# --- record validation ----------------------------------------------------


def test_idiom_entry_validation():
    ok = IdiomEntry(id="x", surface=("a", "b"), senses=(("c",),), rigidity=2)
    assert ok.rigidity == 2
    with pytest.raises(CorpusError):
        IdiomEntry(id="", surface=("a",), senses=(("c",),))
    with pytest.raises(CorpusError):
        IdiomEntry(id="x", surface=(), senses=(("c",),))
    with pytest.raises(CorpusError):
        IdiomEntry(id="x", surface=("a",), senses=())
    with pytest.raises(CorpusError):
        IdiomEntry(id="x", surface=("a",), senses=((),))
    with pytest.raises(CorpusError):
        IdiomEntry(id="x", surface=("a",), senses=(("c",),), rigidity=4)
    for rigidity in (True, 2.0):
        with pytest.raises(CorpusError, match="rigidity"):
            IdiomEntry(id="x", surface=("a",), senses=(("c",),), rigidity=rigidity)
    assert IdiomEntry(id="x", surface=("a",), senses=(("c",),), rigidity=None).rigidity is None


def test_parallel_pair_validation():
    ok = ParallelPair("x", 0, ("a", "b", "c"), ("d",), (1, 3))
    assert ok.span_tokens == ("b", "c")
    with pytest.raises(CorpusError):
        ParallelPair("x", 0, (), ("d",), (0, 1))
    with pytest.raises(CorpusError):
        ParallelPair("x", 0, ("a",), (), (0, 1))
    with pytest.raises(CorpusError):
        ParallelPair("x", 0, ("a", "b"), ("d",), (1, 1))
    with pytest.raises(CorpusError):
        ParallelPair("x", 0, ("a", "b"), ("d",), (0, 3))
    with pytest.raises(CorpusError):
        ParallelPair("x", 0, ("a", "b"), ("d",), (-1, 1))
    with pytest.raises(CorpusError):
        ParallelPair("x", -1, ("a", "b"), ("d",), (0, 1))
    for sense_index, span in ((True, (0, 1)), (0.0, (0, 2)), (0, (0, True)), (0, (0.0, 2)), (0, (False, 1))):
        with pytest.raises(CorpusError, match="integers"):
            ParallelPair("x", sense_index, ("a", "b"), ("d",), span)
    for span in ((0,), (0, 1, 2), None, [0, 1], 1):
        with pytest.raises(CorpusError, match=r"span must be a \(start, end\) pair"):
            ParallelPair("x", 0, ("a", "b"), ("d",), span)


# --- vocabulary -----------------------------------------------------------


def test_vocabulary_contract():
    vocab = Vocabulary(RESERVED + ("cat", "dog"))
    assert len(vocab) == 6
    assert vocab.encode("<pad>") == 0
    assert vocab.encode("<unk>") == 1
    assert vocab.encode("<sep>") == 2
    assert vocab.encode("<eos>") == 3
    assert vocab.encode("cat") == 4
    assert vocab.encode("missing") == 1
    assert vocab.get("missing") is None
    assert vocab.encode_all(["dog", "missing", "cat"]) == [5, 1, 4]
    assert vocab.decode(5) == "dog"
    assert "cat" in vocab and "missing" not in vocab


def test_vocabulary_rejects_bad_prefix_and_duplicates():
    with pytest.raises(CorpusError):
        Vocabulary(("cat", "dog"))
    with pytest.raises(CorpusError):
        Vocabulary(RESERVED + ("cat", "cat"))


def _pair(literal, idiomatic=("z",)):
    return ParallelPair("x", 0, tuple(literal), tuple(idiomatic), (0, 1))


def test_build_vocab_frequency_then_lexicographic():
    lexicon = [IdiomEntry(id="x", surface=("z",), senses=(("z",),))]
    pairs = [
        _pair(("b", "a", "b")),  # b:2 a:1
        _pair(("c", "a")),       # c:1 a:2
    ]
    vocab = build_vocab(pairs, lexicon)
    # z: 2+2(pair idiomatic)+1+1(lexicon) ; a:2, b:2 tie broken a<b ; c:1
    assert vocab.tokens == RESERVED + ("z", "a", "b", "c")


def test_build_vocab_deterministic_across_input_order():
    lexicon, pairs = demo_lexicon(), demo_pairs()
    a = build_vocab(pairs, lexicon)
    b = build_vocab(list(reversed(pairs)), list(reversed(lexicon)))
    assert a.tokens == b.tokens


# --- file IO ----------------------------------------------------------------


def test_lexicon_and_pairs_round_trip(tmp_path):
    lexicon, pairs = demo_lexicon(), demo_pairs()
    lex_path = str(tmp_path / "lexicon.jsonl")
    pair_path = str(tmp_path / "pairs.jsonl")
    save_lexicon(lex_path, lexicon)
    save_pairs(pair_path, pairs)
    loaded_lex = load_lexicon(lex_path)
    assert loaded_lex == lexicon
    assert load_pairs(pair_path, loaded_lex) == pairs


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_lexicon_error_positions(tmp_path):
    good = '{"id": "a", "text": "kick off", "definitions": ["start"]}\n'
    cases = {
        "bad.jsonl": good + "\n" + "{not json\n",
        "nonobj.jsonl": good + "[1, 2]\n",
        "missing.jsonl": good + '{"id": "b", "text": "x"}\n',
        "dup.jsonl": good + "\n" + good,
        "defs.jsonl": good + '{"id": "b", "text": "x", "definitions": []}\n',
        "rigid.jsonl": good + '{"id": "b", "text": "x", "definitions": ["y"], "rigidity": 9}\n',
        "text_int.jsonl": good + '{"id": "b", "text": 5, "definitions": ["y"]}\n',
        "def_int.jsonl": good + '{"id": "b", "text": "x", "definitions": [3]}\n',
        "id_list.jsonl": good + '{"id": ["b"], "text": "x", "definitions": ["y"]}\n',
        "rigid_bool.jsonl": good + '{"id": "b", "text": "x", "definitions": ["y"], "rigidity": true}\n',
        "rigid_float.jsonl": good + '{"id": "b", "text": "x", "definitions": ["y"], "rigidity": 1.0}\n',
        "text_reserved.jsonl": good + '{"id": "b", "text": "x <sep>", "definitions": ["y"]}\n',
        "def_reserved.jsonl": good + '{"id": "b", "text": "x", "definitions": ["y", "<pad>"]}\n',
    }
    for name, text in cases.items():
        path = _write(tmp_path / name, text)
        with pytest.raises(CorpusError) as err:
            load_lexicon(path)
        assert f"{path}:3" in str(err.value) or f"{path}:2" in str(err.value)


def test_load_lexicon_reports_exact_line(tmp_path):
    good = '{"id": "a", "text": "kick off", "definitions": ["start"]}\n'
    path = _write(tmp_path / "lex.jsonl", good + "\n\n" + "{broken\n")
    with pytest.raises(CorpusError, match=rf"{path}:4"):
        load_lexicon(path)


def test_load_pairs_errors(tmp_path):
    lexicon = [IdiomEntry(id="a", surface=("kick", "off"), senses=(("start",), ("begin",)))]
    base = {
        "idiom_id": "a",
        "sense_index": 0,
        "literal": "they start the game",
        "idiomatic": "they kick off the game",
        "span": [1, 2],
    }
    import json

    def as_line(**overrides):
        rec = {**base, **overrides}
        for key in overrides:
            if overrides[key] is None:
                del rec[key]
        return json.dumps(rec) + "\n"

    cases = [
        as_line(idiom_id="ghost"),
        as_line(sense_index=2),
        as_line(sense_index="0"),
        as_line(span=[1]),
        as_line(span="1-2"),
        as_line(span=[3, 9]),
        as_line(literal=None),
        as_line(literal=7),
        as_line(span=["a", 1]),
        as_line(sense_index=True),
        as_line(sense_index=0.0),
        as_line(span=[False, True]),
        as_line(span=[1.0, 2]),
        as_line(span=[1, 2, 3]),
        as_line(span=None),
        as_line(span={"start": 1}),
        as_line(literal="they <sep> the game"),
        as_line(idiomatic="they kick off the game <eos>"),
    ]
    for i, line in enumerate(cases):
        path = _write(tmp_path / f"pairs{i}.jsonl", line)
        with pytest.raises(CorpusError, match=rf"{path}:1"):
            load_pairs(path, lexicon)


# --- resolution -------------------------------------------------------------


def test_resolve_pairs_returns_lexicon_entries():
    lexicon = demo_lexicon()
    pairs = demo_pairs()
    resolved = resolve_pairs(pairs, lexicon)
    assert [pair for pair, _ in resolved] == list(pairs)
    for pair, entry in resolved:
        assert entry.id == pair.idiom_id
        assert any(entry is e for e in lexicon)


def test_resolve_pairs_skips_unknown_idiom_and_sense_with_one_warning_each(caplog):
    lexicon = [IdiomEntry("a", ("x",), (("one",), ("two",)))]
    good = ParallelPair("a", 1, ("p",), ("q",), (0, 1))
    ghost = ParallelPair("ghost", 0, ("p",), ("q",), (0, 1))
    far = ParallelPair("a", 2, ("p",), ("q",), (0, 1))
    with caplog.at_level("WARNING"):
        resolved = resolve_pairs([ghost, good, far], lexicon)
    assert resolved == [(good, lexicon[0])]
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2 and all(m.startswith("skipping pair") for m in messages)
    assert "'ghost'" in messages[0] and "'a' sense 2" in messages[1]


def test_resolve_pairs_rejects_repeated_idiom_ids():
    lexicon = [
        IdiomEntry("x", ("a",), (("one",), ("two",))),
        IdiomEntry("y", ("b",), (("three",),)),
        IdiomEntry("x", ("c",), (("four",),)),
    ]
    with pytest.raises(CorpusError, match=r"repeats idiom ids \['x'\]"):
        resolve_pairs([], lexicon)
    with pytest.raises(CorpusError, match="repeats"):
        resolve_pairs([ParallelPair("y", 0, ("p",), ("q",), (0, 1))], lexicon)


# --- split ------------------------------------------------------------------


def _pairs_for(idiom_id, count):
    return [
        ParallelPair(idiom_id, 0, (f"{idiom_id}", "w", str(i)), ("y",), (0, 1))
        for i in range(count)
    ]


def test_split_rules_per_idiom():
    pairs = _pairs_for("big", 5) + _pairs_for("two", 2) + _pairs_for("one", 1) + _pairs_for("plain", 4)
    split = split_corpus(pairs, ["big", "two", "one"], seed=7)
    by_bucket = {
        "train": split.train,
        "validation": split.validation,
        "test": split.test,
    }
    counts = {
        idiom: {k: sum(p.idiom_id == idiom for p in v) for k, v in by_bucket.items()}
        for idiom in ("big", "two", "one", "plain")
    }
    assert counts["big"] == {"train": 3, "validation": 1, "test": 1}
    assert counts["two"] == {"train": 1, "validation": 0, "test": 1}
    assert counts["one"] == {"train": 1, "validation": 0, "test": 0}
    assert counts["plain"] == {"train": 4, "validation": 0, "test": 0}
    assert split.seed == 7


@given(st.integers(min_value=0, max_value=2**32))
def test_split_partitions_pairs(seed):
    pairs = demo_pairs()
    split = split_corpus(pairs, ["mull_over", "run_for_cover"], seed=seed)
    merged = Counter(split.train + split.validation + split.test)
    assert merged == Counter(pairs)


def test_split_deterministic():
    pairs = demo_pairs()
    a = split_corpus(pairs, ["mull_over", "run_for_cover"], seed=3)
    b = split_corpus(pairs, ["mull_over", "run_for_cover"], seed=3)
    assert (a.train, a.validation, a.test) == (b.train, b.validation, b.test)


def test_split_warns_on_annotated_idiom_without_pairs(caplog):
    pairs = _pairs_for("present", 3)
    with caplog.at_level("WARNING"):
        split = split_corpus(pairs, ["present", "ghost"], seed=0)
    assert "ghost" in caplog.text
    assert len(split.train) + len(split.validation) + len(split.test) == 3


def test_split_sizes_at_corpus_scale():
    pairs = []
    annotated = []
    for i in range(249):
        annotated.append(f"multi{i}")
        pairs += _pairs_for(f"multi{i}", 3)
    for i in range(42):
        annotated.append(f"duo{i}")
        pairs += _pairs_for(f"duo{i}", 2)
    for i in range(4706):
        pairs += _pairs_for(f"solo{i}", 1)
    assert len(pairs) == 5537
    split = split_corpus(pairs, annotated, seed=0)
    assert (len(split.train), len(split.validation), len(split.test)) == (4997, 249, 291)
