"""Idiom retrieval: score (sentence, key) pairs and rank the lexicon.

The key for a candidate idiom is one of its definitions (default) or its
surface form.  A BiGRU reads [sentence, <sep>, key]; states are
sum-pooled and a linear head produces the match score.  A query scores
the whole lexicon in one batched, tape-free pass.  The half of that pass
that does not depend on the query is a ``KeyIndex``, built once per key
list and parameter values and kept on the model for the next query.
Training is binary classification of the gold key against uniformly
sampled negative idioms, resampled every epoch.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import SEP, IdiomEntry, ParallelPair, Vocabulary, resolve_pairs
from .metrics import retrieval_accuracy
from .numerics import (
    GruCell,
    ParamStore,
    Tensor,
    adam_step,
    bigru_encode,
    bigru_scan,
    check_sizes,
    fit,
    gru_pool,
    gru_project,
    neg,
    reshape,
    softplus,
    tape_walk,
    tsum,
    vecmat,
)
from .rng import Rng

KEY_MODES = ("definition", "idiom")


class PairEncoderModel:
    """Embedding and BiGRU over [sentence, <sep>, key], shared by retrieval and extraction.

    The seeded draw order is embedding, forward cell, backward cell, then
    the head each subclass adds to ``self.store`` in ``_build_head(rng)``.
    """

    def __init__(self, vocab: Vocabulary, embed_dim: int = 64, hidden: int = 64, seed: int = 0):
        check_sizes(embed_dim=embed_dim, hidden=hidden)
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.seed = seed
        rng = Rng(seed)
        self.store = ParamStore()
        self.embedding = self.store.add("embedding", (len(vocab), embed_dim), rng)
        self.fwd = GruCell(self.store, "encoder.fwd", embed_dim, hidden, rng)
        self.bwd = GruCell(self.store, "encoder.bwd", embed_dim, hidden, rng)
        self._build_head(rng)

    def hyperparameters(self) -> dict:
        return {"embed_dim": self.embed_dim, "hidden": self.hidden, "seed": self.seed}

    def _pair_ids(self, sentence: Sequence[str], key: Sequence[str]) -> list[int]:
        return self.vocab.encode_all(list(sentence) + [SEP] + list(key))

    def encode_pairs(self, pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> list[Tensor]:
        """The [T,2H] BiGRU states over each (sentence, key) pair's [sentence, <sep>, key], one row per
        position, from one ``bigru_encode`` node over the minibatch.

        The embedding rows are gathered once, each pair's in ``tape_walk`` order, so their gradients
        reach the embedding in the order the per-token tape added them, and each pair's input is
        those rows put back in position order."""
        ids = [np.asarray(self._pair_ids(sentence, key), dtype=np.intp) for sentence, key in pairs]
        walks = [tape_walk(len(row)) for row in ids]
        gathered = self.embedding[np.concatenate([row[walk] for row, walk in zip(ids, walks)])]
        starts = np.cumsum([0] + [len(row) for row in ids])
        states = bigru_encode(
            self.fwd, self.bwd, [gathered[start + np.argsort(walk)] for start, walk in zip(starts, walks)])
        return [states[start:end] for start, end in zip(starts[:-1], starts[1:])]

    def scan_pair(self, sentence: Sequence[str], key: Sequence[str]) -> np.ndarray:
        """The states ``encode_pairs`` gives one (sentence, key) pair as a plain array, bit for bit, from the
        tape-free ``bigru_scan``."""
        return bigru_scan(self.fwd, self.bwd, self.embedding.data[self._pair_ids(sentence, key)])


class RetrievalModel(PairEncoderModel):
    component = "retrieval"
    # The last key index ``score_keys`` used: a one-entry memo, checked against the parameters on every query.
    _key_index: KeyIndex | None = None

    def _build_head(self, rng: Rng) -> None:
        self.score_w = self.store.add("score.weight", (2 * self.hidden,), rng)
        self.score_b = self.store.add_zeros("score.bias", ())


def encode_candidates(model: RetrievalModel, pairs: Sequence[tuple[Sequence[str], Sequence[str]]]) -> list[Tensor]:
    """Sum-pooled BiGRU states over each (sentence, key) pair's [sentence, <sep>, key]: one [1,2H] row
    per pair, from one encoder node."""
    if not all(sentence and key for sentence, key in pairs):
        raise ValueError("sentence and key must be non-empty")
    return [reshape(tsum(states, axis=0), (1, 2 * model.hidden)) for states in model.encode_pairs(pairs)]


def score(model: RetrievalModel, h_pooled: Tensor) -> Tensor:
    """Linear match score h . w + b of each pooled [B,2H] row: [B,1]."""
    return vecmat(h_pooled, reshape(model.score_w, (-1, 1))) + model.score_b


def score_pair(model: RetrievalModel, sentence: Sequence[str], key: Sequence[str]) -> float:
    return score(model, encode_candidates(model, [(sentence, key)])[0]).item()


def entry_key(entry: IdiomEntry, sense_index: int, key_mode: str) -> tuple[str, ...]:
    """The key for one sense of an idiom: its definition, or its surface form."""
    return entry.senses[sense_index] if key_mode == "definition" else entry.surface


def candidate_keys(entry: IdiomEntry, key_mode: str) -> list[tuple[int, tuple[str, ...]]]:
    """(sense index, key tokens) candidates for one idiom under a key mode."""
    if key_mode == "definition":
        return list(enumerate(entry.senses))
    if key_mode == "idiom":
        return [(0, entry.surface)]
    raise ValueError(f"unknown key mode {key_mode!r}")


@dataclass(frozen=True, eq=False)
class KeyIndex:
    """The query-independent half of ``score_keys`` for one list of keys.

    An index is identified by ``keys``, exactly as the caller gave them,
    and ``params``, copies of every parameter in ``model.store`` taken at
    build time (and by the ``vocab`` that encoded the keys).  ``rows`` maps
    each key to its distinct encoded key, laid out longest first, so the
    ``live[t]`` keys longer than t are a prefix.  ``fwd_inputs`` are the
    forward cell's input products over the keys (``gru_project``);
    ``bwd_sum`` and ``bwd_final`` are the backward pass over the keys from zero states.
    """

    keys: tuple[tuple[str, ...], ...]
    vocab: Vocabulary
    params: tuple[np.ndarray, ...]
    rows: np.ndarray
    live: list[int]
    fwd_inputs: tuple[np.ndarray, ...]
    bwd_sum: np.ndarray
    bwd_final: np.ndarray

    def matches(self, model: RetrievalModel, keys: tuple[tuple[str, ...], ...]) -> bool:
        """True when ``keys`` are this index's keys and neither a parameter nor the vocabulary has changed since its build."""
        current = [p.data for p in model.store.params.values()]
        return self.keys == keys and self.vocab is model.vocab and all(map(np.array_equal, self.params, current))


def build_key_index(model: RetrievalModel, keys: tuple[tuple[str, ...], ...]) -> KeyIndex:
    """Encode the keys, lay them out longest first as one ragged batch and run their query-independent passes."""
    encoded = [tuple(model.vocab.encode_all(key)) for key in keys]
    distinct = sorted(dict.fromkeys(encoded), key=len, reverse=True)
    slot = {ids: j for j, ids in enumerate(distinct)}
    rows = np.array([slot[ids] for ids in encoded], dtype=np.intp)
    live = [sum(len(ids) > t for ids in distinct) for t in range(len(distinct[0]))]
    fwd_ids, bwd_ids = np.zeros((2, len(live), len(distinct)), dtype=np.int64)
    for j, ids in enumerate(distinct):
        fwd_ids[: len(ids), j] = ids
        bwd_ids[: len(ids), j] = ids[::-1]
    params = tuple(p.data.copy() for p in model.store.params.values())
    emb, h0 = model.embedding.data, np.zeros((len(distinct), model.hidden))
    bwd_sum, bwd_final = gru_pool(model.bwd, gru_project(model.bwd, emb[bwd_ids]), h0, live)
    return KeyIndex(keys, model.vocab, params, rows, live, gru_project(model.fwd, emb[fwd_ids]), bwd_sum, bwd_final)


def score_keys(model: RetrievalModel, sentence: Sequence[str], keys: Sequence[Sequence[str]]) -> np.ndarray:
    """``score_pair`` for every key at once, as one tape-free batched pass.

    The forward states over ``sentence + <sep>`` do not depend on the key,
    and the backward states over a key do not depend on the sentence.  So
    the forward prefix runs once, the forward pass over the keys runs as
    one ragged batch from its final state, and the backward prefix pass
    starts from each key's final backward state.  Each distinct encoded key
    is scored once, and every product is a row product, so a key scores the
    same bit for bit in any list of keys that holds it, and keys that encode
    alike (duplicates, or all-<unk>) score exactly alike.

    The keys' backward pass and their forward input products do not depend
    on the query either: they form a ``KeyIndex``, kept on the model and
    reused while the keys equal its keys and every parameter still equals
    its build-time copy (``np.array_equal``).  So in-place optimizer steps,
    reassigned parameters and hand edits all rebuild it, and a reused
    index gives the same scores, bit for bit, as a new one.
    """
    if not sentence or not keys or not all(keys):
        raise ValueError("sentence and key must be non-empty")
    keys = tuple(map(tuple, keys))
    index = model._key_index
    if index is None or not index.matches(model, keys):
        index = model._key_index = build_key_index(model, keys)
    emb = model.embedding.data
    prefix = emb[model.vocab.encode_all(list(sentence) + [SEP])][:, None, :]
    f_prefix, h = gru_pool(model.fwd, gru_project(model.fwd, prefix), np.zeros((1, model.hidden)))
    f_key, _ = gru_pool(model.fwd, index.fwd_inputs, np.repeat(h, len(index.bwd_sum), axis=0), index.live)
    b_prefix, _ = gru_pool(model.bwd, gru_project(model.bwd, prefix[::-1]), index.bwd_final)
    pooled = np.concatenate([f_prefix + f_key, index.bwd_sum + b_prefix], axis=1)
    return (np.vecmat(pooled, model.score_w.data[:, None])[:, 0] + model.score_b.data)[index.rows]


def retrieve_top1(
    model: RetrievalModel,
    sentence: Sequence[str],
    lexicon: Sequence[IdiomEntry],
    key_mode: str = "definition",
) -> tuple[IdiomEntry, int, float]:
    """Best (lexicon entry, sense index, score) over every candidate key.

    Per idiom the best-scoring sense wins (lower sense index on ties);
    across idioms, earlier lexicon order wins ties.
    """
    if not lexicon:
        raise ValueError("empty lexicon")
    candidates = [(entry, sense, key) for entry in lexicon for sense, key in candidate_keys(entry, key_mode)]
    scores = score_keys(model, sentence, [key for _, _, key in candidates])
    # Candidates run idiom by idiom and sense by sense, so the first maximum
    # is the earliest idiom's earliest sense among the tied ones.
    best = int(np.argmax(scores))
    entry, sense_index, _ = candidates[best]
    return entry, sense_index, float(scores[best])


def evaluate_retrieval(
    model: RetrievalModel,
    pairs: Sequence[ParallelPair],
    lexicon: Sequence[IdiomEntry],
    key_mode: str = "definition",
) -> float:
    """Fraction of pairs whose literal sentence retrieves the gold idiom."""
    predicted = [retrieve_top1(model, pair.literal, lexicon, key_mode)[0].id for pair in pairs]
    return retrieval_accuracy(predicted, [pair.idiom_id for pair in pairs])


def bce_loss(model: RetrievalModel, batch: Sequence[tuple[Sequence[str], Sequence[str], int]]) -> Tensor:
    """The BCE losses of a minibatch of (sentence, key, label) instances, added in batch order: one
    encoder node for the minibatch, and each instance's own score head."""
    pooled = encode_candidates(model, [(sentence, key) for sentence, key, _ in batch])
    scores = [score(model, row) for row in pooled]
    losses = [softplus(neg(r)) if label == 1 else softplus(r) for r, (_, _, label) in zip(scores, batch)]
    return functools.reduce(operator.add, losses)


def train_retrieval(
    model: RetrievalModel,
    pairs: Sequence[ParallelPair],
    lexicon: Sequence[IdiomEntry],
    *,
    epochs: int,
    negatives_per_positive: int = 100,
    lr: float = 1e-3,
    seed: int = 0,
    key_mode: str = "definition",
    batch_size: int = 16,
    validation: Sequence[ParallelPair] = (),
    eval_every: int = 1,
    stop_at_accuracy: float | None = None,
) -> dict:
    """BCE training with per-epoch uniform negative resampling.

    Gradients are averaged over ``batch_size`` instances per Adam step;
    per-instance stepping lets each update fight the last and stalls
    well short of separating even easy data.
    """
    if key_mode not in KEY_MODES:
        raise ValueError(f"unknown key mode {key_mode!r}")
    if negatives_per_positive >= len(lexicon):
        raise ValueError(
            f"negatives_per_positive={negatives_per_positive} needs a lexicon "
            f"larger than {len(lexicon)} idioms"
        )
    resolved = resolve_pairs(pairs, lexicon)
    if not resolved:
        raise ValueError("no trainable pairs")
    rng = Rng(seed)

    def draw() -> list[tuple[tuple[str, ...], tuple[str, ...], int]]:
        instances = []
        for pair, entry in resolved:
            instances.append((pair.literal, entry_key(entry, pair.sense_index, key_mode), 1))
            others = [e for e in lexicon if e is not entry]
            for neg_entry in rng.sample(others, negatives_per_positive):
                sense = rng.randint(len(neg_entry.senses)) if key_mode == "definition" else 0
                instances.append((pair.literal, entry_key(neg_entry, sense, key_mode), 0))
        return instances

    losses, val_acc = fit(
        model.store, rng, draw, lambda batch: bce_loss(model, batch),
        lambda: adam_step(model.store, lr),
        epochs=epochs, batch_size=batch_size, eval_every=eval_every,
        evaluate=(lambda: evaluate_retrieval(model, validation, lexicon, key_mode)) if validation else None,
        after_epoch=lambda acc: stop_at_accuracy is not None and acc is not None and acc >= stop_at_accuracy,
        name="retrieval", metric_name="val_retrieval_accuracy",
    )
    return {"epoch_losses": losses, "val_retrieval_accuracy": val_acc}
