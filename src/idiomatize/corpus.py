"""Idiom lexicon and parallel corpus: loading, validation, derived views.

File formats (UTF-8, one JSON object per line, LF endings):

* lexicon:  {"id": str, "text": str, "definitions": [str, ...],
             "rigidity": 1|2|3|null}
* pairs:    {"idiom_id": str, "sense_index": int, "literal": str,
             "idiomatic": str, "span": [start, end]}

``span`` is a half-open token interval over the *tokenized* literal
sentence and marks the phrase the idiom replaces.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .rng import Rng

log = logging.getLogger(__name__)

PAD = "<pad>"
UNK = "<unk>"
SEP = "<sep>"
EOS = "<eos>"
RESERVED = (PAD, UNK, SEP, EOS)

_PUNCT = set(".,!?;:\"'()")


class CorpusError(ValueError):
    """Malformed corpus file or inconsistent record."""


def _word_internal_apostrophe(chunk: str, i: int) -> bool:
    return (
        chunk[i] == "'"
        and 0 < i < len(chunk) - 1
        and chunk[i - 1].isalnum()
        and chunk[i + 1].isalnum()
    )


def reject_reserved(tokens: Sequence[str]) -> None:
    """Raise ``CorpusError`` naming the first reserved token in ``tokens``."""
    for token in tokens:
        if token in RESERVED:
            raise CorpusError(f"reserved token {token!r} in text")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach punctuation runs.

    Each maximal run of sentence punctuation becomes its own token;
    apostrophes with letters on both sides ("don't", "one's") stay
    inside their word.  Text holding a reserved token such as ``<sep>``
    raises ``CorpusError``.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        buf: list[str] = []
        i = 0
        n = len(chunk)
        while i < n:
            ch = chunk[i]
            if ch in _PUNCT and not _word_internal_apostrophe(chunk, i):
                if buf:
                    tokens.append("".join(buf))
                    buf = []
                j = i
                while j < n and chunk[j] in _PUNCT and not _word_internal_apostrophe(chunk, j):
                    j += 1
                tokens.append(chunk[i:j])
                i = j
            else:
                buf.append(ch)
                i += 1
        if buf:
            tokens.append("".join(buf))
    reject_reserved(tokens)
    return tokens


def _is_int(value: object) -> bool:
    """An integer proper: booleans and floats such as ``1.0`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class IdiomEntry:
    id: str
    surface: tuple[str, ...]
    senses: tuple[tuple[str, ...], ...]
    rigidity: int | None = None

    def __post_init__(self):
        if not self.id:
            raise CorpusError("idiom id must be non-empty")
        if not self.surface:
            raise CorpusError(f"idiom {self.id!r}: empty surface form")
        if not self.senses or any(not s for s in self.senses):
            raise CorpusError(f"idiom {self.id!r}: needs at least one non-empty definition")
        if self.rigidity is not None and not (_is_int(self.rigidity) and self.rigidity in (1, 2, 3)):
            raise CorpusError(f"idiom {self.id!r}: rigidity must be 1, 2, 3 or null")


@dataclass(frozen=True)
class ParallelPair:
    idiom_id: str
    sense_index: int
    literal: tuple[str, ...]
    idiomatic: tuple[str, ...]
    span: tuple[int, int]

    def __post_init__(self):
        if not (isinstance(self.span, tuple) and len(self.span) == 2):
            raise CorpusError(f"pair for {self.idiom_id!r}: span must be a (start, end) pair of integers")
        if not (_is_int(self.sense_index) and all(_is_int(v) for v in self.span)):
            raise CorpusError(f"pair for {self.idiom_id!r}: sense index and span ends must be integers")
        if not self.literal or not self.idiomatic:
            raise CorpusError(f"pair for {self.idiom_id!r}: empty sentence")
        s, e = self.span
        if not (0 <= s < e <= len(self.literal)):
            raise CorpusError(
                f"pair for {self.idiom_id!r}: span [{s}, {e}) out of bounds "
                f"for a {len(self.literal)}-token literal"
            )
        if self.sense_index < 0:
            raise CorpusError(f"pair for {self.idiom_id!r}: negative sense index")

    @property
    def span_tokens(self) -> tuple[str, ...]:
        s, e = self.span
        return self.literal[s:e]


class Vocabulary:
    """Token <-> id map with fixed reserved ids <pad>=0 <unk>=1 <sep>=2 <eos>=3."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if tokens[: len(RESERVED)] != RESERVED:
            raise CorpusError(f"vocabulary must start with {RESERVED}")
        if len(set(tokens)) != len(tokens):
            raise CorpusError("vocabulary contains duplicate tokens")
        self.tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def encode(self, token: str) -> int:
        """Id of token, falling back to <unk>."""
        return self._index.get(token, 1)

    def encode_all(self, tokens: Iterable[str]) -> list[int]:
        idx = self._index
        return [idx.get(t, 1) for t in tokens]

    def get(self, token: str) -> int | None:
        return self._index.get(token)

    def decode(self, idx: int) -> str:
        return self.tokens[idx]


def build_vocab(pairs: Sequence[ParallelPair], lexicon: Sequence[IdiomEntry]) -> Vocabulary:
    """Vocabulary of every token in the pairs and the lexicon.

    Order: reserved tokens, then descending corpus frequency with
    lexicographic tie-break.
    """
    counts: Counter[str] = Counter()
    for p in pairs:
        counts.update(p.literal)
        counts.update(p.idiomatic)
    for entry in lexicon:
        counts.update(entry.surface)
        for sense in entry.senses:
            counts.update(sense)
    kept = set(counts) - set(RESERVED)
    ordered = sorted(kept, key=lambda t: (-counts[t], t))
    return Vocabulary(RESERVED + tuple(ordered))


def _read_jsonl(path: str) -> Iterable[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise CorpusError(f"{path}:{lineno}: invalid JSON ({err.msg})") from err
            if not isinstance(record, dict):
                raise CorpusError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, record


def load_lexicon(path: str) -> list[IdiomEntry]:
    """Parse and validate a lexicon file; duplicate ids are rejected."""
    entries: list[IdiomEntry] = []
    seen: set[str] = set()
    for lineno, rec in _read_jsonl(path):
        try:
            idiom_id = rec["id"]
            text = rec["text"]
            definitions = rec["definitions"]
        except KeyError as err:
            raise CorpusError(f"{path}:{lineno}: missing field {err.args[0]!r}") from err
        rigidity = rec.get("rigidity")
        if not isinstance(idiom_id, str) or not isinstance(text, str):
            raise CorpusError(f"{path}:{lineno}: 'id' and 'text' must be strings")
        if idiom_id in seen:
            raise CorpusError(f"{path}:{lineno}: duplicate idiom id {idiom_id!r}")
        seen.add(idiom_id)
        if not isinstance(definitions, list) or not definitions:
            raise CorpusError(f"{path}:{lineno}: 'definitions' must be a non-empty list")
        if not all(isinstance(d, str) for d in definitions):
            raise CorpusError(f"{path}:{lineno}: 'definitions' must be strings")
        try:
            entry = IdiomEntry(
                id=idiom_id,
                surface=tuple(tokenize(text)),
                senses=tuple(tuple(tokenize(d)) for d in definitions),
                rigidity=rigidity,
            )
        except CorpusError as err:
            raise CorpusError(f"{path}:{lineno}: {err}") from err
        entries.append(entry)
    return entries


def load_pairs(path: str, lexicon: Sequence[IdiomEntry]) -> list[ParallelPair]:
    """Parse pairs and resolve each against the lexicon."""
    by_id = {e.id: e for e in lexicon}
    pairs: list[ParallelPair] = []
    for lineno, rec in _read_jsonl(path):
        try:
            idiom_id = rec["idiom_id"]
            sense_index = rec["sense_index"]
            literal = rec["literal"]
            idiomatic = rec["idiomatic"]
            span = rec["span"]
        except KeyError as err:
            raise CorpusError(f"{path}:{lineno}: missing field {err.args[0]!r}") from err
        if not all(isinstance(v, str) for v in (idiom_id, literal, idiomatic)):
            raise CorpusError(f"{path}:{lineno}: 'idiom_id', 'literal' and 'idiomatic' must be strings")
        entry = by_id.get(idiom_id)
        if entry is None:
            raise CorpusError(f"{path}:{lineno}: unknown idiom id {idiom_id!r}")
        try:
            pair = ParallelPair(
                idiom_id=idiom_id,
                sense_index=sense_index,
                literal=tuple(tokenize(literal)),
                idiomatic=tuple(tokenize(idiomatic)),
                span=tuple(span) if isinstance(span, list) else span,
            )
        except CorpusError as err:
            raise CorpusError(f"{path}:{lineno}: {err}") from err
        if sense_index >= len(entry.senses):
            raise CorpusError(
                f"{path}:{lineno}: sense_index {sense_index!r} out of range "
                f"for idiom {idiom_id!r} with {len(entry.senses)} senses"
            )
        pairs.append(pair)
    return pairs


def resolve_pairs(
    pairs: Sequence[ParallelPair], lexicon: Sequence[IdiomEntry]
) -> list[tuple[ParallelPair, IdiomEntry]]:
    """Each pair with the lexicon entry of its idiom.

    A pair whose idiom or sense is not in the lexicon is skipped with one
    warning.  A lexicon that repeats an idiom id raises ``CorpusError``.
    """
    entries = {entry.id: entry for entry in lexicon}
    if len(entries) < len(lexicon):
        repeated = sorted(i for i, n in Counter(entry.id for entry in lexicon).items() if n > 1)
        raise CorpusError(f"lexicon repeats idiom ids {repeated}")
    resolved = []
    for pair in pairs:
        entry = entries.get(pair.idiom_id)
        if entry is None or pair.sense_index >= len(entry.senses):
            log.warning("skipping pair for idiom %r sense %d: not in the lexicon", pair.idiom_id, pair.sense_index)
            continue
        resolved.append((pair, entry))
    return resolved


def entry_to_record(entry: IdiomEntry) -> dict:
    return {
        "id": entry.id,
        "text": " ".join(entry.surface),
        "definitions": [" ".join(s) for s in entry.senses],
        "rigidity": entry.rigidity,
    }


def pair_to_record(pair: ParallelPair) -> dict:
    return {
        "idiom_id": pair.idiom_id,
        "sense_index": pair.sense_index,
        "literal": " ".join(pair.literal),
        "idiomatic": " ".join(pair.idiomatic),
        "span": list(pair.span),
    }


def save_lexicon(path: str, entries: Sequence[IdiomEntry]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for entry in entries:
            fh.write(json.dumps(entry_to_record(entry), ensure_ascii=False) + "\n")


def save_pairs(path: str, pairs: Sequence[ParallelPair]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair_to_record(pair), ensure_ascii=False) + "\n")


@dataclass(frozen=True)
class SplitCorpus:
    train: tuple[ParallelPair, ...]
    validation: tuple[ParallelPair, ...]
    test: tuple[ParallelPair, ...]
    seed: int = 0


def split_corpus(pairs: Sequence[ParallelPair], annotated_ids: Iterable[str], seed: int) -> SplitCorpus:
    """Per-idiom split of the annotated subset.

    For each annotated idiom: >= 3 pairs puts one in validation, one in
    test and the rest in train; exactly 2 puts one in train and one in
    test (random choice); a single pair goes to train.  Idioms outside
    the annotated set contribute train pairs only.
    """
    rng = Rng(seed)
    annotated = set(annotated_ids)
    by_idiom: dict[str, list[int]] = {}
    for i, p in enumerate(pairs):
        by_idiom.setdefault(p.idiom_id, []).append(i)
    assignment = ["train"] * len(pairs)
    for idiom_id in sorted(annotated):
        idxs = by_idiom.get(idiom_id)
        if not idxs:
            log.warning("annotated idiom %r has no pairs; skipping", idiom_id)
            continue
        if len(idxs) >= 3:
            val_idx, test_idx = rng.sample(idxs, 2)
            assignment[val_idx] = "validation"
            assignment[test_idx] = "test"
        elif len(idxs) == 2:
            test_idx = idxs[rng.randint(2)]
            assignment[test_idx] = "test"
        # single pair: stays in train
    buckets: dict[str, list[ParallelPair]] = {"train": [], "validation": [], "test": []}
    for p, where in zip(pairs, assignment):
        buckets[where].append(p)
    return SplitCorpus(
        train=tuple(buckets["train"]),
        validation=tuple(buckets["validation"]),
        test=tuple(buckets["test"]),
        seed=seed,
    )
