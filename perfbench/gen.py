"""Seeded input generators for the benchmark workloads.

Inputs come from Python's own ``random.Random`` so they do not depend on
the program's RNG.  Every generator is a pure function of its seed and
its arguments.

* ``distractor_lexicon`` extends the demo lexicon with idioms whose
  definitions are drawn from the demo vocabulary and follow the demo
  definition-length distribution, so retrieval scores many more keys.
* ``request_pool`` derives distinct literal sentences from the demo
  pairs by substituting in-vocabulary words outside the gold span.
* ``request_stream`` orders a seeded, repeat-free walk over the pool in
  cycles that visit every demo pair once, so each run sees the same mix
  of sentence lengths whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Sequence

DISTRACTORS = 200
DISTRACTOR_SEED = 20210413
POOL_VARIANTS = 50
POOL_SEED = 104
RESERVED = ("<pad>", "<unk>", "<sep>", "<eos>")


def content_words(vocab_tokens: Sequence[str]) -> list[str]:
    """Vocabulary words usable as substitutes: alphabetic, not reserved."""
    return [t for t in vocab_tokens if t not in RESERVED and t.replace("'", "").isalpha()]


def distractor_lexicon(demo_lexicon: Sequence, vocab_tokens: Sequence[str],
                       n: int = DISTRACTORS, seed: int = DISTRACTOR_SEED) -> list:
    """The demo lexicon followed by ``n`` seeded distractor idioms.

    Each distractor has one definition; its length is drawn from the
    demo definition lengths and its words from the demo vocabulary.
    Surfaces and definitions are distinct from each other and from the
    demo entries.
    """
    from idiomatize.corpus import IdiomEntry

    rng = random.Random(seed)
    words = content_words(vocab_tokens)
    lengths = [len(s) for e in demo_lexicon for s in e.senses]
    surface_lengths = [len(e.surface) for e in demo_lexicon]
    seen_keys = {s for e in demo_lexicon for s in e.senses}
    seen_surfaces = {e.surface for e in demo_lexicon}
    entries = list(demo_lexicon)
    while len(entries) < len(demo_lexicon) + n:
        sense = tuple(rng.choice(words) for _ in range(rng.choice(lengths)))
        surface = tuple(rng.choice(words) for _ in range(rng.choice(surface_lengths)))
        if sense in seen_keys or surface in seen_surfaces:
            continue
        seen_keys.add(sense)
        seen_surfaces.add(surface)
        entries.append(IdiomEntry(
            id=f"distractor_{len(entries) - len(demo_lexicon):03d}",
            surface=surface,
            senses=(sense,),
            rigidity=rng.choice((1, 2, 3)),
        ))
    return entries


def lexicon_digest(lexicon: Sequence) -> str:
    """SHA-256 over the lexicon's ids, surfaces and senses, in order."""
    rows = [[e.id, list(e.surface), [list(s) for s in e.senses], e.rigidity] for e in lexicon]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Request:
    base: int
    text: str


def request_pool(demo_pairs: Sequence, vocab_tokens: Sequence[str],
                 variants: int = POOL_VARIANTS, seed: int = POOL_SEED) -> list[Request]:
    """``variants`` distinct rewrites of every demo literal, grouped by pair.

    A rewrite replaces one or two word tokens outside the gold span with
    other vocabulary words, keeping the sentence length and its span.
    """
    rng = random.Random(seed)
    words = content_words(vocab_tokens)
    pool: list[Request] = []
    seen: set[tuple[str, ...]] = {p.literal for p in demo_pairs}
    for base, pair in enumerate(demo_pairs):
        s, e = pair.span
        slots = [i for i, t in enumerate(pair.literal) if not s <= i < e and t in words]
        made = 0
        while made < variants:
            tokens = list(pair.literal)
            for i in rng.sample(slots, min(len(slots), rng.choice((1, 2)))):
                tokens[i] = rng.choice([w for w in words if w != pair.literal[i]])
            key = tuple(tokens)
            if key in seen:
                continue
            seen.add(key)
            pool.append(Request(base, " ".join(tokens)))
            made += 1
    return pool


def request_stream(pool: Sequence[Request], seed: int) -> list[Request]:
    """Seeded order over the whole pool in cycles of one request per base.

    Within a cycle the bases come in a fresh seeded order; each base's
    variants are used in a seeded order, so nothing repeats.
    """
    rng = random.Random(seed)
    by_base: dict[int, list[Request]] = {}
    for request in pool:
        by_base.setdefault(request.base, []).append(request)
    for variants in by_base.values():
        rng.shuffle(variants)
    bases = sorted(by_base)
    stream: list[Request] = []
    for cycle in range(min(len(v) for v in by_base.values())):
        order = bases[:]
        rng.shuffle(order)
        stream.extend(by_base[b][cycle] for b in order)
    return stream
