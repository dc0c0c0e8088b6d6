"""BIO span extraction: BiGRU unary scores + linear-chain CRF.

The encoder reads [sentence, <sep>, definition] and scores only the
sentence positions.  Training combines the CRF negative log-likelihood
with a weighted cross-entropy on per-token marginals (weights 0.48 for
B and I, 0.04 for O) so the rare span labels are not drowned out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .corpus import IdiomEntry, ParallelPair, resolve_pairs
from .metrics import span_f1
from .numerics import (
    Tensor,
    adam_step,
    concat,
    fit,
    logsumexp,
    reshape,
    tsum,
    vecmat,
)
from .numerics import bigru_encode  # noqa: F401  (perfbench traces it in every stage module)
from .retrieval import PairEncoderModel
from .rng import Rng

B, I, O = 0, 1, 2
MARGINAL_WEIGHTS = {B: 0.48, I: 0.48, O: 0.04}


class ExtractorModel(PairEncoderModel):
    component = "extractor"

    def _build_head(self, rng: Rng) -> None:
        self.unary_w = self.store.add("unary.weight", (2 * self.hidden, 3), rng)
        self.unary_b = self.store.add_zeros("unary.bias", (3,))
        self.transitions = self.store.add("crf.transitions", (3, 3), rng)
        self.start = self.store.add("crf.start", (3,), rng)
        self.end = self.store.add("crf.end", (3,), rng)


def unary_scores(model: ExtractorModel, sentence: Sequence[str], definition: Sequence[str]) -> Tensor:
    """(n, 3) label scores for the n sentence positions."""
    if not sentence:
        raise ValueError("empty sentence")
    return vecmat(model.encode_pair(sentence, definition)[: len(sentence)], model.unary_w) + model.unary_b


def _crf_alphas(unary: Tensor, transitions: Tensor, start: Tensor) -> list[Tensor]:
    """Forward log scores, one [1,K] row each: entry t sums every label path over positions 0..t."""
    n = unary.shape[0]
    if n == 0:
        raise ValueError("empty unary score matrix")
    alphas = [start + unary[0:1]]
    for t in range(1, n):
        alphas.append(unary[t : t + 1] + logsumexp(reshape(alphas[-1], (-1, 1)) + transitions, axis=0))
    return alphas


def crf_log_partition(unary: Tensor, transitions: Tensor, start: Tensor, end: Tensor) -> Tensor:
    """Log of the summed exponentiated scores over all label paths."""
    return logsumexp(_crf_alphas(unary, transitions, start)[-1] + end)


def crf_path_score(unary: Tensor, transitions: Tensor, start: Tensor, end: Tensor, labels: Sequence[int]) -> Tensor:
    """Unnormalized score of one label path."""
    n = unary.shape[0]
    if len(labels) != n:
        raise ValueError("label path length mismatch")
    score = start[labels[0]] + end[labels[-1]]
    score = score + tsum(unary[range(n), labels])
    if n > 1:
        score = score + tsum(transitions[labels[:-1], labels[1:]])
    return score


def crf_log_marginals(unary: Tensor, transitions: Tensor, start: Tensor, end: Tensor) -> tuple[Tensor, Tensor]:
    """(n, k) log posterior marginals via forward-backward over [1,K] rows, and log Z from the same forward pass."""
    alphas = _crf_alphas(unary, transitions, start)
    n = len(alphas)
    betas = [None] * n
    betas[n - 1] = end
    for t in range(n - 2, -1, -1):
        betas[t] = logsumexp(transitions + (unary[t + 1 : t + 2] + betas[t + 1]), axis=1)
    log_z = logsumexp(alphas[-1] + end)
    return concat([alphas[t] + betas[t] - log_z for t in range(n)], axis=0), log_z


def crf_viterbi(
    unary: np.ndarray, transitions: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[list[int], float]:
    """Best label path and its score; ties break toward lower label index."""
    n = unary.shape[0]
    if n == 0:
        raise ValueError("empty unary score matrix")
    delta = start + unary[0]
    backptr = np.zeros((n, unary.shape[1]), dtype=np.intp)
    for t in range(1, n):
        scores = delta[:, None] + transitions
        backptr[t] = np.argmax(scores, axis=0)  # first max = lowest label index
        delta = unary[t] + scores[backptr[t], np.arange(unary.shape[1])]
    final = delta + end
    last = int(np.argmax(final))
    path = [last]
    for t in range(n - 1, 0, -1):
        last = int(backptr[t][last])
        path.append(last)
    path.reverse()
    return path, float(np.max(final))


@dataclass(frozen=True)
class SpanPrediction:
    span: tuple[int, int] | None
    score: float


def span_labels(n: int, span: tuple[int, int]) -> list[int]:
    """Label ids over n tokens: B at the span's start, I to its end, O elsewhere."""
    s, e = span
    return [O] * s + [B] + [I] * (e - s - 1) + [O] * (n - e)


def repair_labels(labels: Sequence[int], unary: np.ndarray) -> tuple[int, int] | None:
    """The one span kept from a Viterbi labeling; None when it is all O.

    Each maximal run of B/I labels is a candidate span; the run whose
    labels have the highest summed unary score wins (earlier run on ties).
    """
    best, best_score, end = None, 0.0, 0
    for outside, run in groupby(labels, key=lambda label: label == O):
        start, end = end, end + len(list(run))
        if not outside:
            score = sum(unary[t, labels[t]] for t in range(start, end))
            if best is None or score > best_score:
                best, best_score = (start, end), score
    return best


def extract_span(model: ExtractorModel, sentence: Sequence[str], definition: Sequence[str]) -> SpanPrediction:
    """Viterbi decode + single-span repair for one sentence, on ``unary_scores``' values
    computed off the tape (``scan_pair``), bit for bit."""
    if not sentence:
        raise ValueError("empty sentence")
    states = model.scan_pair(sentence, definition)[: len(sentence)]
    unary = np.vecmat(states, model.unary_w.data) + model.unary_b.data
    path, score = crf_viterbi(unary, model.transitions.data, model.start.data, model.end.data)
    return SpanPrediction(span=repair_labels(path, unary), score=score)


def extractor_loss(model: ExtractorModel, sentence: Sequence[str], definition: Sequence[str], gold: Sequence[int]) -> Tensor:
    """CRF NLL plus weighted marginal cross-entropy, summed over tokens, from one forward-backward pass."""
    unary = unary_scores(model, sentence, definition)
    log_marg, log_z = crf_log_marginals(unary, model.transitions, model.start, model.end)
    nll = log_z - crf_path_score(unary, model.transitions, model.start, model.end, gold)
    picked = log_marg[range(len(gold)), gold]
    weights = np.array([MARGINAL_WEIGHTS[g] for g in gold])
    return nll - tsum(picked * weights)


def validation_span_f1(model: ExtractorModel, pairs: Sequence[ParallelPair], lexicon: Sequence[IdiomEntry]) -> float:
    resolved = resolve_pairs(pairs, lexicon)
    preds = [extract_span(model, pair.literal, entry.senses[pair.sense_index]).span for pair, entry in resolved]
    return span_f1(preds, [pair.span for pair, _ in resolved], [pair.literal for pair, _ in resolved])


def train_extractor(
    model: ExtractorModel,
    pairs: Sequence[ParallelPair],
    lexicon: Sequence[IdiomEntry],
    *,
    epochs: int,
    lr: float = 1e-3,
    seed: int = 0,
    batch_size: int = 8,
    validation: Sequence[ParallelPair] = (),
    eval_every: int = 1,
    stop_at_f1: float | None = None,
) -> dict:
    """Batched Adam training; returns per-epoch losses and val span F1."""
    instances = [
        (pair.literal, entry.senses[pair.sense_index], span_labels(len(pair.literal), pair.span))
        for pair, entry in resolve_pairs(pairs, lexicon)
    ]
    if not instances:
        raise ValueError("no trainable pairs")
    val = [pair for pair, _ in resolve_pairs(validation, lexicon)]
    losses, val_f1s = fit(
        model.store, Rng(seed), lambda: instances, lambda inst: extractor_loss(model, *inst),
        lambda: adam_step(model.store, lr),
        epochs=epochs, batch_size=batch_size, eval_every=eval_every,
        evaluate=(lambda: validation_span_f1(model, val, lexicon)) if validation else None,
        after_epoch=lambda f1: stop_at_f1 is not None and f1 is not None and f1 >= stop_at_f1,
        name="extractor", metric_name="val_span_f1",
    )
    return {"epoch_losses": losses, "val_span_f1": val_f1s}
