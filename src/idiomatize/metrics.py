"""Evaluation metrics: BLEU, ROUGE, METEOR, span F1, accuracies.

All scores live in [0, 1].  BLEU is corpus-level; ROUGE and METEOR are
sentence-level and averaged by the caller (see ``pipeline.evaluate``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

Tokens = Sequence[str]


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> float:
    """Corpus BLEU-4 with brevity penalty.

    Modified n-gram precisions are pooled over the corpus; orders 2-4
    get add-one smoothing, unigrams do not.  Zero unigram overlap (or an
    empty corpus) scores 0.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference lists differ in length")
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    if hyp_len == 0 or totals[0] == 0 or matches[0] == 0:
        return 0.0
    log_precision = math.log(matches[0] / totals[0])
    for n in range(2, 5):
        log_precision += math.log((matches[n - 1] + 1) / (totals[n - 1] + 1))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision / 4.0)


def rouge(hypothesis: Tokens, reference: Tokens, variant: str) -> float:
    """Sentence ROUGE F1 for variant "1", "2" or "L"."""
    if variant in ("1", "2"):
        n = int(variant)
        hyp_counts = _ngrams(hypothesis, n)
        ref_counts = _ngrams(reference, n)
        overlap = sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        hyp_total = sum(hyp_counts.values())
        ref_total = sum(ref_counts.values())
        if overlap == 0 or hyp_total == 0 or ref_total == 0:
            return 0.0
        p = overlap / hyp_total
        r = overlap / ref_total
    elif variant == "L":
        lcs = _lcs_length(hypothesis, reference)
        if lcs == 0 or not hypothesis or not reference:
            return 0.0
        p = lcs / len(hypothesis)
        r = lcs / len(reference)
    else:
        raise ValueError(f"unknown ROUGE variant {variant!r}")
    return 2.0 * p * r / (p + r)


def _lcs_length(a: Tokens, b: Tokens) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


# The weights of the original METEOR (Banerjee and Lavie, 2005).
METEOR_ALPHA = 0.9
METEOR_BETA = 3.0
METEOR_GAMMA = 0.5


# Search nodes ``_align`` may visit: a count, not a time, so scores stay deterministic.
ALIGN_NODE_BUDGET = 20_000


def meteor(hypothesis: Tokens, reference: Tokens) -> float:
    """Exact-match METEOR.

    Alignment maximizes matched tokens and, among maximal matchings,
    minimizes the number of chunks (maximal runs contiguous in both
    sentences); past ``ALIGN_NODE_BUDGET`` search nodes, the fewest found.
    Score = F_mean * (1 - gamma * (chunks/matches)^beta) with F_mean =
    P*R / (alpha*P + (1-alpha)*R), where alpha, beta and gamma are
    ``METEOR_ALPHA``, ``METEOR_BETA`` and ``METEOR_GAMMA``.
    """
    if not hypothesis or not reference:
        return 0.0
    matches, chunks = _align(list(hypothesis), list(reference))
    if matches == 0:
        return 0.0
    p = matches / len(hypothesis)
    r = matches / len(reference)
    f_mean = p * r / (METEOR_ALPHA * p + (1.0 - METEOR_ALPHA) * r)
    penalty = METEOR_GAMMA * (chunks / matches) ** METEOR_BETA
    return f_mean * (1.0 - penalty)


def _align(hyp: list[str], ref: list[str]) -> tuple[int, int]:
    """(max matches, min chunks over maximal matchings) via branch and bound on its own stack.

    A token tries the position that extends its chunk first, so the first
    alignment found is the greedy one, which always has the most matches.
    """
    ref_counts = Counter(ref)
    hyp_counts = Counter(hyp)
    max_matches = sum(min(c, ref_counts[t]) for t, c in hyp_counts.items())
    if max_matches == 0:
        return 0, 0
    if hyp == ref:
        return len(hyp), 1
    ref_positions: dict[str, list[int]] = {}
    for j, t in enumerate(ref):
        ref_positions.setdefault(t, []).append(j)
    # Suffix upper bound on future matches, ignoring position conflicts, and
    # lower bound on future chunks: every maximal matching matches each token
    # whose type the reference holds at least as often, and such a token
    # starts a chunk unless its predecessor precedes it somewhere in the reference.
    ref_bigrams = set(zip(ref, ref[1:]))
    remaining = [0] * (len(hyp) + 1)
    must_start = [0] * (len(hyp) + 1)
    suffix_counts: Counter = Counter()
    for i in range(len(hyp) - 1, -1, -1):
        suffix_counts[hyp[i]] += 1
        remaining[i] = sum(min(c, ref_counts[t]) for t, c in suffix_counts.items())
        forced = hyp_counts[hyp[i]] <= ref_counts[hyp[i]]
        must_start[i] = must_start[i + 1] + (forced and (i == 0 or (hyp[i - 1], hyp[i]) not in ref_bigrams))
    best_chunks, nodes, used = max_matches + 1, 0, [False] * len(ref)
    # A node (i, matched, chunks, j) aligns hyp[i:] after hyp[i - 1] took reference position j
    # (-2: it stayed unmatched).  (-1, 0, 0, j) frees j once the node that took it is done.
    stack = [(0, 0, 0, -2)]
    while stack and nodes < ALIGN_NODE_BUDGET:
        i, matched, chunks, j = stack.pop()
        if i < 0:
            used[j] = False
            continue
        nodes += 1
        if j >= 0:
            used[j] = True
        if chunks + must_start[i] >= best_chunks or matched + remaining[i] < max_matches:
            continue
        if i == len(hyp):
            best_chunks = chunks  # only maximal matchings get here
            continue
        # Pushed in reverse of the order they are tried: the chunk-extending position
        # first, then the other free positions in order, then leaving hyp[i] unmatched.
        stack.append((i + 1, matched, chunks, -2))
        extend = j + 1 if j >= 0 and j + 1 < len(ref) and ref[j + 1] == hyp[i] and not used[j + 1] else -1
        for k in reversed(ref_positions.get(hyp[i], ())):
            if k != extend and not used[k]:
                stack += ((-1, 0, 0, k), (i + 1, matched + 1, chunks + 1, k))
        if extend >= 0:
            stack += ((-1, 0, 0, extend), (i + 1, matched + 1, chunks, extend))
    return max_matches, best_chunks


def span_f1(
    predictions: Sequence[tuple[int, int] | None],
    golds: Sequence[tuple[int, int]],
    sentences: Sequence[Tokens] | None = None,
) -> float:
    """Macro-averaged F1 over token positions of predicted vs gold spans.

    A missing prediction or zero positional overlap scores 0 for that
    instance.
    """
    if len(predictions) != len(golds):
        raise ValueError("prediction/gold lists differ in length")
    if sentences is not None and len(sentences) != len(golds):
        raise ValueError("sentence list misaligned with spans")
    if not golds:
        return 0.0
    total = 0.0
    for k, (pred, gold) in enumerate(zip(predictions, golds)):
        if pred is None:
            continue
        if sentences is not None and pred[1] > len(sentences[k]):
            raise ValueError(f"instance {k}: predicted span exceeds sentence length")
        pred_set = set(range(*pred))
        gold_set = set(range(*gold))
        common = len(pred_set & gold_set)
        if common == 0 or not pred_set:
            continue
        p = common / len(pred_set)
        r = common / len(gold_set)
        total += 2.0 * p * r / (p + r)
    return total / len(golds)


def retrieval_accuracy(predicted_ids: Sequence[str], gold_ids: Sequence[str]) -> float:
    if len(predicted_ids) != len(gold_ids):
        raise ValueError("id lists differ in length")
    if not gold_ids:
        return 0.0
    return sum(p == g for p, g in zip(predicted_ids, gold_ids)) / len(gold_ids)


def part_accuracy(
    outputs: Sequence[Tokens],
    literals: Sequence[Tokens],
    idioms: Sequence[Tokens],
    spans: Sequence[tuple[int, int]],
) -> tuple[float, float]:
    """(idiom-part accuracy, non-idiom-part accuracy).

    Idiom part: fraction of idiom tokens present in the output (multiset
    intersection).  Non-idiom part: fraction of literal tokens outside
    the span retained in the output.  An empty non-idiom reference
    counts as fully retained.
    """
    lengths = {len(outputs), len(literals), len(idioms), len(spans)}
    if len(lengths) != 1:
        raise ValueError("misaligned part_accuracy inputs")
    if not outputs:
        return 0.0, 0.0
    idiom_total = 0.0
    other_total = 0.0
    for out, literal, idiom, span in zip(outputs, literals, idioms, spans):
        out_counts = Counter(out)
        idiom_counts = Counter(idiom)
        hit = sum(min(c, out_counts[t]) for t, c in idiom_counts.items())
        idiom_total += hit / sum(idiom_counts.values())
        s, e = span
        keep = Counter(tuple(literal[:s]) + tuple(literal[e:]))
        if not keep:
            other_total += 1.0
        else:
            kept = sum(min(c, out_counts[t]) for t, c in keep.items())
            other_total += kept / sum(keep.values())
    return idiom_total / len(outputs), other_total / len(outputs)


def stratify_by_rigidity(
    instances: Sequence[tuple[Tokens, Tokens, str]],
    rigidity_by_id: dict[str, int | None],
) -> dict[int, float]:
    """Corpus BLEU per rigidity level; unlabeled idioms are skipped."""
    groups: dict[int, tuple[list[Tokens], list[Tokens]]] = {}
    for hyp, ref, idiom_id in instances:
        level = rigidity_by_id.get(idiom_id)
        if level is None:
            continue
        hyps, refs = groups.setdefault(level, ([], []))
        hyps.append(hyp)
        refs.append(ref)
    return {level: bleu(hyps, refs) for level, (hyps, refs) in sorted(groups.items())}


@dataclass
class MetricReport:
    """Aggregate scores for one evaluation run; everything in [0, 1]."""

    bleu: float = 0.0
    rouge1: float = 0.0
    rouge2: float = 0.0
    rougeL: float = 0.0
    meteor: float = 0.0
    span_f1: float = 0.0
    retrieval_accuracy: float = 0.0
    idiom_part_acc: float = 0.0
    non_idiom_part_acc: float = 0.0
    by_rigidity: dict[int, float] = field(default_factory=dict)
    num_instances: int = 0

    def to_dict(self) -> dict:
        return {**asdict(self), "by_rigidity": {str(k): v for k, v in sorted(self.by_rigidity.items())}}
