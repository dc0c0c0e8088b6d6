"""Metric layer: BLEU, ROUGE, METEOR, span F1, accuracies, report."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idiomatize import MetricReport, bleu, meteor, metrics, part_accuracy, rouge, span_f1
from idiomatize.metrics import retrieval_accuracy, stratify_by_rigidity

from oracles import (
    METRIC_PAIRS,
    reference_bleu,
    reference_greedy_chunks,
    reference_meteor_alignment,
    reference_rouge_l,
    reference_rouge_n,
)

token_lists = st.lists(st.sampled_from("a b c d the cat".split()), max_size=10)


# --- BLEU --------------------------------------------------------------


def test_bleu_identity_scores_one():
    sent = ["the", "cat", "sat", "on", "the", "mat"]
    assert bleu([sent], [sent]) == pytest.approx(1.0, abs=1e-12)


def test_bleu_zero_overlap_and_empty():
    assert bleu([["x", "y"]], [["p", "q"]]) == 0.0
    assert bleu([[]], [["a"]]) == 0.0
    assert bleu([], []) == 0.0


def test_bleu_length_mismatch():
    with pytest.raises(ValueError):
        bleu([["a"]], [["a"], ["b"]])


@pytest.mark.parametrize("idx", range(len(METRIC_PAIRS)))
def test_bleu_matches_reference_per_pair(idx):
    hyp, ref = METRIC_PAIRS[idx]
    assert bleu([hyp], [ref]) == pytest.approx(reference_bleu([hyp], [ref]), abs=1e-12)


def test_bleu_matches_reference_on_corpus():
    hyps = [h for h, _ in METRIC_PAIRS]
    refs = [r for _, r in METRIC_PAIRS]
    assert bleu(hyps, refs) == pytest.approx(reference_bleu(hyps, refs), abs=1e-12)


def test_bleu_brevity_penalty():
    ref = ["a", "b", "c", "d", "e", "f"]
    hyp = ["a", "b", "c"]
    got = bleu([hyp], [ref])
    # Unigram precision 1; higher orders smoothed; brevity exp(1 - 6/3).
    expect = math.exp(1.0 - 2.0) * math.exp(
        (math.log(1.0) + math.log(3 / 3) + math.log(2 / 2) + math.log(1 / 1)) / 4.0
    )
    assert got == pytest.approx(expect, abs=1e-12)


def test_bleu_deleting_matched_token_lowers_score():
    ref = ["the", "cat", "sat", "on", "the", "mat"]
    full = bleu([ref], [ref])
    clipped = bleu([ref[:-1]], [ref])
    assert clipped < full


def test_bleu_corpus_permutation_invariance():
    hyps = [h for h, _ in METRIC_PAIRS[:6]]
    refs = [r for _, r in METRIC_PAIRS[:6]]
    score = bleu(hyps, refs)
    assert bleu(hyps[::-1], refs[::-1]) == pytest.approx(score, abs=1e-15)


# --- ROUGE --------------------------------------------------------------


@pytest.mark.parametrize("variant", ["1", "2", "L"])
def test_rouge_identity_and_disjoint(variant):
    sent = ["a", "b", "c", "d"]
    assert rouge(sent, sent, variant) == pytest.approx(1.0, abs=1e-12)
    assert rouge(["x", "y", "z"], ["p", "q", "r"], variant) == 0.0
    assert rouge([], sent, variant) == 0.0


def test_rouge_l_transposition_case():
    assert rouge(["a", "b", "c", "d"], ["a", "c", "b", "d"], "L") == pytest.approx(0.75, abs=1e-12)


def test_rouge_unknown_variant():
    with pytest.raises(ValueError):
        rouge(["a"], ["a"], "3")


@pytest.mark.parametrize("idx", range(len(METRIC_PAIRS)))
def test_rouge_matches_reference(idx):
    hyp, ref = METRIC_PAIRS[idx]
    assert rouge(hyp, ref, "1") == pytest.approx(reference_rouge_n(hyp, ref, 1), abs=1e-12)
    assert rouge(hyp, ref, "2") == pytest.approx(reference_rouge_n(hyp, ref, 2), abs=1e-12)
    assert rouge(hyp, ref, "L") == pytest.approx(reference_rouge_l(hyp, ref), abs=1e-12)


# --- METEOR -------------------------------------------------------------


def test_meteor_single_identical_token():
    assert meteor(["cat"], ["cat"]) == pytest.approx(0.5, abs=1e-12)


def test_meteor_ten_identical_tokens():
    sent = [f"w{i}" for i in range(10)]
    assert meteor(sent, sent) == pytest.approx(0.9995, abs=1e-12)


def test_meteor_zero_cases():
    assert meteor([], ["a"]) == 0.0
    assert meteor(["a"], []) == 0.0
    assert meteor(["x"], ["y"]) == 0.0


def test_meteor_swapped_pair():
    # Two matches in two chunks: F_mean 1, penalty 0.5 * (2/2)^3.
    assert meteor(["b", "a"], ["a", "b"]) == pytest.approx(0.5, abs=1e-12)


def test_meteor_minimizes_chunks():
    # "a b" and "c d" are contiguous in both sentences: 4 matches, 2 chunks.
    p, r = 1.0, 4 / 5
    f_mean = p * r / (0.9 * p + 0.1 * r)
    expect = f_mean * (1.0 - 0.5 * (2 / 4) ** 3)
    assert meteor(["a", "b", "c", "d"], ["a", "b", "x", "c", "d"]) == pytest.approx(expect, abs=1e-12)


def test_meteor_clips_repeated_tokens():
    # Only one "the" can align: P=1/2, R=1, one chunk.
    p, r = 0.5, 1.0
    f_mean = p * r / (0.9 * p + 0.1 * r)
    expect = f_mean * (1.0 - 0.5 * (1 / 1) ** 3)
    assert meteor(["the", "the"], ["the"]) == pytest.approx(expect, abs=1e-12)


def test_meteor_parameter_overrides(monkeypatch):
    sent = ["u", "v", "w"]
    with monkeypatch.context() as m:
        m.setattr(metrics, "METEOR_GAMMA", 0.0)
        assert meteor(sent, sent) == pytest.approx(1.0, abs=1e-12)
    # beta=1 keeps the penalty linear in chunk fraction: 4 matches in 3
    # chunks ("a b", "d", "c") give 1 - 0.5 * 3/4, where beta=3 gives 1 - 0.5 * (3/4)^3.
    monkeypatch.setattr(metrics, "METEOR_BETA", 1.0)
    assert meteor(["a", "b", "d", "c"], ["a", "b", "c", "d"]) == pytest.approx(0.625, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from("abc"), max_size=8), st.lists(st.sampled_from("abc"), max_size=8))
def test_meteor_alignment_equals_brute_force(hyp, ref):
    assert metrics._align(hyp, ref) == reference_meteor_alignment(hyp, ref)


def _enumerated_alignments(hyp, ref):
    # Alignments reference_meteor_alignment enumerates: per type, C(hyp count, k) * P(ref count, k).
    counts = Counter(ref)
    size = 1
    for t, c in Counter(hyp).items():
        k = min(c, counts[t])
        size *= math.comb(c, k) * math.perm(counts[t], k)
    return size


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from("abcd"), max_size=10), st.lists(st.sampled_from("abcd"), max_size=12))
def test_meteor_alignment_equals_brute_force_on_four_word_types(hyp, ref):
    # Long enough that the search without its bound on chunks still to start
    # could reach the node budget, short enough for the brute force.
    assume(_enumerated_alignments(hyp, ref) <= 20_000)
    assert metrics._align(hyp, ref) == reference_meteor_alignment(hyp, ref)


def test_meteor_alignment_counts_chunks_that_must_still_start():
    # Without that bound the search spends its node budget before finding the
    # five-chunk alignment and reports six.
    hyp, ref = list("bbabccbbdb"), list("dacdacdbbcbabb")
    assert metrics._align(hyp, ref) == reference_meteor_alignment(hyp, ref) == (9, 5)


def _shuffled_sentence_probe(n):
    # 31 tokens with 8 "the", 3 "and" and 3 "went"; the hypothesis is a
    # seeded shuffle of its first n tokens.
    ref = (
        "the man went to the market and the woman went home and the boy went "
        "with the dog and the girl to the river in the old town by noon ."
    ).split()
    return random.Random(n).sample(ref[:n], n), ref


ALIGN_PROBES = {
    **{f"shuffled_{n}": _shuffled_sentence_probe(n) for n in (20, 23, 26, 29, 31)},
    **{f"repeated_{k}": (["the", "y"] * k, ["the", "x"] * k) for k in (10, 12, 20)},
    "three_words_40_80": tuple(random.Random(n).choices("abc", k=n) for n in (40, 80)),
}


@pytest.mark.parametrize("name", sorted(ALIGN_PROBES))
def test_meteor_alignment_search_is_bounded_by_the_greedy_alignment(name, monkeypatch):
    # Inputs whose exact search is exponential: the search stops at the node
    # budget with a maximal matching no worse than the greedy one, every time.
    hyp, ref = ALIGN_PROBES[name]
    matches, chunks = metrics._align(hyp, ref)
    counts = Counter(ref)
    assert matches == sum(min(c, counts[t]) for t, c in Counter(hyp).items())
    assert 1 <= chunks <= reference_greedy_chunks(hyp, ref)
    assert metrics._align(hyp, ref) == (matches, chunks)
    # The first alignment the search completes is the greedy one.
    monkeypatch.setattr(metrics, "ALIGN_NODE_BUDGET", len(hyp) + 1)
    assert metrics._align(hyp, ref)[1] == reference_greedy_chunks(hyp, ref)


def test_meteor_long_hypothesis_does_not_exhaust_the_recursion_limit():
    # 1200 aligned tokens: the search goes 1200 levels deep, past Python's
    # default recursion limit.  All match; the best has two chunks.
    hyp, ref = ["a", "b"] * 600, ["b", "a"] * 600
    assert metrics._align(hyp, ref) == (1200, 2)
    assert meteor(hyp, ref) == pytest.approx(1.0 - 0.5 * (2 / 1200) ** 3, abs=1e-12)


# --- span F1 -------------------------------------------------------------


def test_span_f1_cases():
    assert span_f1([(1, 3)], [(1, 3)]) == pytest.approx(1.0)
    assert span_f1([(0, 1)], [(2, 3)]) == 0.0
    assert span_f1([None], [(0, 2)]) == 0.0
    assert span_f1([], []) == 0.0
    # Half-overlapping span averaged with an exact one.
    got = span_f1([(0, 2), (4, 6)], [(1, 3), (4, 6)])
    assert got == pytest.approx((0.5 + 1.0) / 2)


def test_span_f1_validation():
    with pytest.raises(ValueError):
        span_f1([(0, 1)], [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        span_f1([(0, 1)], [(0, 1)], sentences=[])
    with pytest.raises(ValueError):
        span_f1([(0, 5)], [(0, 2)], sentences=[("a", "b", "c")])


@given(st.data())
def test_span_f1_symmetric_in_prediction_and_gold(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    spans = []
    for _ in range(2 * n):
        s = data.draw(st.integers(min_value=0, max_value=8))
        e = data.draw(st.integers(min_value=s + 1, max_value=9))
        spans.append((s, e))
    preds, golds = spans[:n], spans[n:]
    assert span_f1(preds, golds) == pytest.approx(span_f1(golds, preds), abs=1e-12)


# --- accuracies ----------------------------------------------------------


def test_retrieval_accuracy():
    assert retrieval_accuracy(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(2 / 3)
    assert retrieval_accuracy([], []) == 0.0
    with pytest.raises(ValueError):
        retrieval_accuracy(["a"], [])


def test_part_accuracy_perfect_splice():
    literal = ("the", "cat", "sat", "on", "mat")
    idiom = ("ran", "fast")
    out = ("the", "cat", "ran", "fast", "mat")
    idiom_acc, other_acc = part_accuracy([out], [literal], [idiom], [(2, 4)])
    assert idiom_acc == 1.0
    assert other_acc == 1.0


def test_part_accuracy_partial_and_clipped():
    literal = ("a", "b", "c")
    idiom = ("up", "up")
    out = ("a", "up")  # one idiom token, dropped "c"
    idiom_acc, other_acc = part_accuracy([out], [literal], [idiom], [(1, 2)])
    assert idiom_acc == pytest.approx(0.5)
    assert other_acc == pytest.approx(0.5)


def test_part_accuracy_empty_keep_counts_full():
    literal = ("x", "y")
    idiom_acc, other_acc = part_accuracy([("z",)], [literal], [("z",)], [(0, 2)])
    assert idiom_acc == 1.0
    assert other_acc == 1.0


def test_part_accuracy_validation_and_empty():
    with pytest.raises(ValueError):
        part_accuracy([("a",)], [], [("b",)], [(0, 1)])
    assert part_accuracy([], [], [], []) == (0.0, 0.0)


def test_stratify_by_rigidity_groups_and_skips():
    instances = [
        (["a"], ["a"], "one"),
        (["b"], ["b"], "two"),
        (["c"], ["x"], "one"),
        (["d"], ["d"], "unlabeled"),
    ]
    rigidity = {"one": 2, "two": 1, "unlabeled": None}
    got = stratify_by_rigidity(instances, rigidity)
    assert set(got) == {1, 2}
    assert got[1] == pytest.approx(1.0)
    assert got[2] == pytest.approx(bleu([["a"], ["c"]], [["a"], ["x"]]))
    assert stratify_by_rigidity([], {}) == {}


def test_metric_report_to_dict():
    report = MetricReport(bleu=0.5, by_rigidity={2: 0.25, 1: 0.75}, num_instances=4)
    d = report.to_dict()
    assert d["bleu"] == 0.5
    assert d["by_rigidity"] == {"1": 0.75, "2": 0.25}
    assert list(d["by_rigidity"]) == ["1", "2"]
    assert d["num_instances"] == 4
    assert set(d) == {
        "bleu", "rouge1", "rouge2", "rougeL", "meteor", "span_f1",
        "retrieval_accuracy", "idiom_part_acc", "non_idiom_part_acc",
        "by_rigidity", "num_instances",
    }


# --- global bounds property ------------------------------------------------


@given(token_lists, token_lists)
def test_sentence_metrics_bounded(hyp, ref):
    assert 0.0 <= bleu([hyp], [ref]) <= 1.0
    for variant in ("1", "2", "L"):
        assert 0.0 <= rouge(hyp, ref, variant) <= 1.0
    assert 0.0 <= meteor(hyp, ref) <= 1.0
