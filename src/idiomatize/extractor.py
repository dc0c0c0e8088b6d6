"""BIO span extraction: BiGRU unary scores + linear-chain CRF.

The encoder reads [sentence, <sep>, definition] and scores only the
sentence positions.  Training combines the CRF negative log-likelihood
with a weighted cross-entropy on per-token marginals (weights 0.48 for
B and I, 0.04 for O) so the rare span labels are not drowned out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import IdiomEntry, ParallelPair, resolve_pairs
from .metrics import span_f1
from .numerics import Tensor, adam_step, fit, reshape, vecmat
from .numerics import bigru_encode  # noqa: F401  (perfbench traces it in every stage module)
from .numerics.tensor import _node
from .retrieval import PairEncoderModel
from .rng import Rng

B, I, O = 0, 1, 2
MARGINAL_WEIGHTS = {B: 0.48, I: 0.48, O: 0.04}
_MARGINAL_WEIGHTS = np.array([MARGINAL_WEIGHTS[label] for label in (B, I, O)])


class ExtractorModel(PairEncoderModel):
    component = "extractor"

    def _build_head(self, rng: Rng) -> None:
        self.unary_w = self.store.add("unary.weight", (2 * self.hidden, 3), rng)
        self.unary_b = self.store.add_zeros("unary.bias", (3,))
        self.transitions = self.store.add("crf.transitions", (3, 3), rng)
        self.start = self.store.add("crf.start", (3,), rng)
        self.end = self.store.add("crf.end", (3,), rng)


def unary_scores(model: ExtractorModel, pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> Tensor:
    """The [B,n,3] label scores of a minibatch of B (sentence, definition) pairs, n its longest sentence:
    row t of pair b scores position t of its sentence, and the rows past the sentence repeat its last
    row.  One encoder node, then one gather of every sentence row, one ``vecmat`` and one bias ``add``
    over the minibatch."""
    if not all(sentence for sentence, _ in pairs):
        raise ValueError("empty sentence")
    states, starts = model.encode_batch(pairs)
    lengths = np.array([len(sentence) for sentence, _ in pairs])
    rows = starts[:-1, None] + np.minimum(np.arange(lengths.max()), lengths[:, None] - 1)
    return reshape(vecmat(states[rows.ravel()], model.unary_w) + model.unary_b, rows.shape + (3,))


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - m).sum(axis=axis)) + m.squeeze(axis)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


class CrfMarginals(NamedTuple):
    """One forward-backward pass over a padded batch of B sentences' [n,K] label scores.

    Entries past a sentence's length hold no meaning.
    """

    log_marginals: np.ndarray  # [B,n,K]: log posterior of label k at position t
    log_z: np.ndarray  # [B]: log of the summed exponentiated scores of all label paths
    alpha: np.ndarray  # [B,n,K]: log summed scores of the paths over positions 0..t that end in label k
    beta: np.ndarray  # [B,n,K]: log summed scores of the paths over positions t+1.. that follow label k


def crf_log_marginals(
    unary: np.ndarray, transitions: np.ndarray, start: np.ndarray, end: np.ndarray, lengths: Sequence[int]
) -> CrfMarginals:
    """Forward-backward over ``unary`` [B,n,K], sentence b's scores in its first ``lengths[b]`` rows,
    all B sentences at once.  Rows past a sentence's end must be finite; they change no result."""
    batch, n, _ = unary.shape
    if n == 0:
        raise ValueError("empty unary score matrix")
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > n:
        raise ValueError(f"need {batch} sentence lengths in 1..{n}, got {lengths.tolist()}")
    alpha = np.empty(unary.shape)
    alpha[:, 0] = start + unary[:, 0]
    for t in range(1, n):
        alpha[:, t] = unary[:, t] + _logsumexp(alpha[:, t - 1, :, None] + transitions, axis=1)
    beta = np.empty(unary.shape)
    beta[:, n - 1] = end
    for t in range(n - 2, -1, -1):
        inner = _logsumexp(transitions + (unary[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
        beta[:, t] = np.where((t >= lengths - 1)[:, None], end, inner)
    log_z = _logsumexp(alpha[np.arange(batch), lengths - 1] + end, axis=1)
    return CrfMarginals(alpha + beta - log_z[:, None, None], log_z, alpha, beta)


def crf_log_partition(
    unary: np.ndarray, transitions: np.ndarray, start: np.ndarray, end: np.ndarray, lengths: Sequence[int]
) -> np.ndarray:
    """Each sentence's log Z [B], from ``crf_log_marginals``' pass.  The package itself reads log Z
    off that pass; this name stays for the benchmark's ``extractor.crf_partition`` trace point."""
    return crf_log_marginals(unary, transitions, start, end, lengths).log_z


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


def crf_loss(unary: Tensor, transitions: Tensor, start: Tensor, end: Tensor, gold: Sequence[Sequence[int]]) -> Tensor:
    """The CRF NLL of each gold label path minus its ``MARGINAL_WEIGHTS``-weighted log marginals,
    summed over a minibatch, as one tape node: sentence b's scores are the first ``len(gold[b])``
    rows of ``unary`` [B,n,K], and the rest is padding.

    The forward is one ``crf_log_marginals`` pass.  The loss reads log Z and the log marginals
    ``alpha + beta - log Z`` of the gold labels, so the VJP runs back through the beta recursion,
    log Z and the alpha recursion, each step weighted by the softmax its ``logsumexp`` took, and
    subtracts the gold path's indicators.  Padding rows get zero gradient.
    """
    lengths = np.array([len(labels) for labels in gold], dtype=np.intp)
    batch, n, _ = unary.shape
    if not batch or len(gold) != batch or lengths.min() < 1 or lengths.max() != n:
        raise ValueError(f"need {batch} gold paths of lengths 1..{n}, the longest {n}, got {lengths.tolist()}")
    live = np.arange(n) < lengths[:, None]
    b, t = np.nonzero(live)  # every gold position, sentence by sentence, as ``y`` lists them
    y = np.concatenate(gold).astype(np.intp)
    w = _MARGINAL_WEIGHTS[y]
    first, last = y[t == 0], y[np.cumsum(lengths) - 1]
    step = np.flatnonzero(t)  # positions with a transition in
    fb = crf_log_marginals(unary.data, transitions.data, start.data, end.data, lengths)
    path = (start.data[first].sum() + end.data[last].sum() + unary.data[b, t, y].sum()
            + transitions.data[y[step - 1], y[step]].sum())
    data = fb.log_z.sum() - path - (w * fb.log_marginals[b, t, y]).sum()

    def vjp(g):
        rows = np.arange(batch)
        # Each gold log marginal alpha + beta - log Z seeds alpha and beta at its position.
        d_alpha = np.zeros(unary.shape)
        d_alpha[b, t, y] = -w
        d_beta = d_alpha.copy()
        d_log_z = 1.0 + np.bincount(b, weights=w, minlength=batch)
        final = d_log_z[:, None] * np.exp(fb.log_marginals[rows, lengths - 1])
        d_alpha[rows, lengths - 1] += final
        moves = live[:, 1:, None, None]
        # beta[t] = logsumexp_j(T[:, j] + unary[t+1, j] + beta[t+1, j]) and
        # alpha[t] = unary[t] + logsumexp_i(alpha[t-1, i] + T[i, :]), weighted by their softmaxes.
        back = np.where(moves, _softmax(transitions.data + (unary.data + fb.beta)[:, 1:, None, :], axis=3), 0.0)
        fwd = np.where(moves, _softmax(fb.alpha[:, :-1, :, None] + transitions.data, axis=2), 0.0)
        for s in range(n - 1):
            d_beta[:, s + 1] += np.vecmat(d_beta[:, s], back[:, s])
        for s in range(n - 1, 0, -1):
            d_alpha[:, s - 1] += np.matvec(fwd[:, s - 1], d_alpha[:, s])
        back_flow = d_beta[:, :-1, :, None] * back
        fwd_flow = fwd * d_alpha[:, 1:, None, :]
        d_unary = d_alpha.copy()
        d_unary[:, 1:] += back_flow.sum(axis=2)
        d_unary[b, t, y] -= 1.0
        d_transitions = back_flow.sum(axis=(0, 1)) + fwd_flow.sum(axis=(0, 1))
        np.add.at(d_transitions, (y[step - 1], y[step]), -1.0)
        d_start = d_alpha[:, 0].sum(axis=0)
        np.add.at(d_start, first, -1.0)
        d_end = final.sum(axis=0) + d_beta[rows, lengths - 1].sum(axis=0)
        np.add.at(d_end, last, -1.0)
        return g * d_unary, g * d_transitions, g * d_start, g * d_end

    return _node(np.asarray(data), (unary, transitions, start, end), vjp)


def extractor_loss(
    model: ExtractorModel, batch: Sequence[tuple[Sequence[str], Sequence[str], Sequence[int]]]
) -> Tensor:
    """``crf_loss`` of a minibatch of (sentence, definition, gold labels) instances, over its
    ``unary_scores``."""
    unary = unary_scores(model, [(sentence, definition) for sentence, definition, _ in batch])
    return crf_loss(unary, model.transitions, model.start, model.end, [gold for _, _, gold in batch])


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
        model.store, Rng(seed), lambda: instances, lambda batch: extractor_loss(model, batch),
        lambda: adam_step(model.store, lr),
        epochs=epochs, batch_size=batch_size, eval_every=eval_every,
        evaluate=(lambda: validation_span_f1(model, val, lexicon)) if validation else None,
        after_epoch=lambda f1: stop_at_f1 is not None and f1 is not None and f1 >= stop_at_f1,
        name="extractor", metric_name="val_span_f1",
    )
    return {"epoch_losses": losses, "val_span_f1": val_f1s}
