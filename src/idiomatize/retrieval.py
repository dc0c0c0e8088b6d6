"""Idiom retrieval: score (sentence, key) pairs and rank the lexicon.

The key for a candidate idiom is one of its definitions (default) or its
surface form.  A BiGRU reads [sentence, <sep>, key]; states are
sum-pooled and a linear head produces the match score.  A query scores
the whole lexicon in one batched, tape-free pass.  Training is
binary classification of the gold key against uniformly sampled
negative idioms, resampled every epoch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import SEP, IdiomEntry, ParallelPair, Vocabulary, resolve_pairs
from .numerics import (
    GruCell,
    ParamStore,
    Tensor,
    adam_step,
    bigru_encode,
    check_sizes,
    fit,
    gru_pool,
    neg,
    no_grad,
    softplus,
    stack,
    tsum,
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

    def encode_pair(self, sentence: Sequence[str], key: Sequence[str]) -> list[Tensor]:
        """Per-position [forward ; backward] states over [sentence, <sep>, key]."""
        ids = self.vocab.encode_all(list(sentence) + [SEP] + list(key))
        return bigru_encode(self.fwd, self.bwd, [self.embedding[i] for i in ids])


class RetrievalModel(PairEncoderModel):
    component = "retrieval"

    def _build_head(self, rng: Rng) -> None:
        self.score_w = self.store.add("score.weight", (2 * self.hidden,), rng)
        self.score_b = self.store.add_zeros("score.bias", ())


def encode_candidate(model: RetrievalModel, sentence: Sequence[str], key: Sequence[str]) -> Tensor:
    """Sum-pooled BiGRU states over [sentence, <sep>, key]."""
    if not sentence or not key:
        raise ValueError("sentence and key must be non-empty")
    return tsum(stack(model.encode_pair(sentence, key)), axis=0)


def score(model: RetrievalModel, h_pooled: Tensor) -> Tensor:
    """Linear match score w . h + b."""
    return model.score_w @ h_pooled + model.score_b


def score_pair(model: RetrievalModel, sentence: Sequence[str], key: Sequence[str]) -> float:
    with no_grad():
        return score(model, encode_candidate(model, sentence, key)).item()


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


def score_keys(model: RetrievalModel, sentence: Sequence[str], keys: Sequence[Sequence[str]]) -> np.ndarray:
    """``score_pair`` for every key at once, as one tape-free batched pass.

    The forward states over ``sentence + <sep>`` do not depend on the key,
    and the backward states over a key do not depend on the sentence.  So
    the forward prefix runs once, the forward and backward passes over the
    keys run as one ragged batch, and the backward prefix pass starts from
    each key's final state.  Each distinct encoded key is scored once, so
    keys that encode alike (duplicates, or all-<unk>) score exactly alike.
    """
    if not sentence or not keys or not all(keys):
        raise ValueError("sentence and key must be non-empty")
    unique: dict[tuple[int, ...], int] = {}
    rows = [unique.setdefault(tuple(model.vocab.encode_all(key)), len(unique)) for key in keys]
    n = len(unique)
    longest = max(len(ids) for ids in unique)
    fwd_ids = np.zeros((longest, n), dtype=np.int64)
    bwd_ids = np.zeros((longest, n), dtype=np.int64)
    mask = np.zeros((longest, n), dtype=bool)
    for j, ids in enumerate(unique):
        fwd_ids[: len(ids), j] = ids
        bwd_ids[: len(ids), j] = ids[::-1]
        mask[: len(ids), j] = True
    emb = model.embedding.data
    prefix = emb[model.vocab.encode_all(list(sentence) + [SEP])][:, None, :]
    f_prefix, h = gru_pool(model.fwd, prefix, np.zeros((1, model.hidden)))
    f_key, _ = gru_pool(model.fwd, emb[fwd_ids], np.repeat(h, n, axis=0), mask)
    b_key, h = gru_pool(model.bwd, emb[bwd_ids], np.zeros((n, model.hidden)), mask)
    b_prefix, _ = gru_pool(model.bwd, prefix[::-1], h)
    pooled = np.concatenate([f_prefix + f_key, b_key + b_prefix], axis=1)
    return (pooled @ model.score_w.data + model.score_b.data)[rows]


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
    if not pairs:
        return 0.0
    hits = 0
    for pair in pairs:
        predicted, _, _ = retrieve_top1(model, pair.literal, lexicon, key_mode)
        hits += predicted.id == pair.idiom_id
    return hits / len(pairs)


def _bce_loss(model: RetrievalModel, sentence: Sequence[str], key: Sequence[str], label: int) -> Tensor:
    r = score(model, encode_candidate(model, sentence, key))
    return softplus(neg(r)) if label == 1 else softplus(r)


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
        model.store, rng, draw, lambda inst: _bce_loss(model, *inst), lambda: adam_step(model.store, lr),
        epochs=epochs, batch_size=batch_size, eval_every=eval_every,
        evaluate=(lambda: evaluate_retrieval(model, validation, lexicon, key_mode)) if validation else None,
        after_epoch=lambda acc: stop_at_accuracy is not None and acc is not None and acc >= stop_at_accuracy,
        name="retrieval", metric_name="val_retrieval_accuracy",
    )
    return {"epoch_losses": losses, "val_retrieval_accuracy": val_acc}
