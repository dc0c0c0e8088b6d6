"""Built-in corpora: a small hand-written demo set and synthetic tasks.

The demo corpus is 32 literal/idiomatic pairs over a 21-idiom lexicon,
small enough to memorize in minutes on one core; it backs the example
commands in the README and most end-to-end tests.  The synthetic
builders produce separable-by-construction tasks for sanity-checking
the retrieval and extraction models.
"""

from __future__ import annotations

from .corpus import IdiomEntry, ParallelPair, tokenize
from .rng import Rng

_LEXICON: list[tuple[str, str, list[str], int | None]] = [
    ("run_for_cover", "run for cover", ["seek shelter from danger or attack"], 2),
    ("mull_over", "mull over", ["to think deeply about something"], 3),
    ("cut_the_gordian_knot", "cut the Gordian knot", ["solve a difficult problem in a direct or forceful way"], 2),
    ("zip_your_lip", "zip your lip", ["to stop talking"], 2),
    ("do_justice_to", "do justice to", ["to treat or portray something as well as it deserves"], 2),
    ("give_the_devil_his_due", "give the devil his due", ["to acknowledge the good qualities of someone you dislike"], 1),
    ("from_time_to_time", "from time to time", ["occasionally"], 1),
    ("leave_no_stone_unturned", "leave no stone unturned", ["to try every possible way to achieve something"], 2),
    ("surgical_strike", "surgical strike", ["a swift and highly precise attack"], 1),
    ("make_sense", "make sense", ["to begin to think clearly", "to be reasonable or understandable"], 3),
    ("build_castles_in_the_air", "build castles in the air", ["to have impractical dreams"], 2),
    ("find_ones_feet", "find one's feet", ["become familiar with a new situation", "become confident in what you are doing"], 3),
    ("bite_the_bullet", "bite the bullet", ["to endure something painful with courage"], 2),
    ("spill_the_beans", "spill the beans", ["to reveal a secret"], 2),
    ("under_the_weather", "under the weather", ["slightly ill"], 1),
    ("break_the_ice", "break the ice", ["to make people feel more comfortable"], 2),
    ("piece_of_cake", "piece of cake", ["something very easy to do"], 1),
    ("once_in_a_blue_moon", "once in a blue moon", ["very rarely"], 1),
    ("hit_the_books", "hit the books", ["to study hard"], 2),
    ("in_hot_water", "in hot water", ["in trouble"], None),
    ("call_it_a_day", "call it a day", ["to stop working on something"], None),
]

# (idiom id, sense index, literal, idiomatic, replaced phrase)
_PAIRS: list[tuple[str, int, str, str, str]] = [
    (
        "run_for_cover", 0,
        "The visitors headed for shelter when it started to rain.",
        "The visitors ran for cover when it started to rain.",
        "headed for shelter",
    ),
    (
        "run_for_cover", 0,
        "The soldiers hurried to a safe place when the shots rang out.",
        "The soldiers ran for cover when the shots rang out.",
        "hurried to a safe place",
    ),
    (
        "run_for_cover", 0,
        "Everyone rushed to shelter when the storm began.",
        "Everyone ran for cover when the storm began.",
        "rushed to shelter",
    ),
    (
        "mull_over", 0,
        "She woke up early in the morning and started thinking deeply over things.",
        "She woke up early in the morning and started mulling things over.",
        "thinking deeply over",
    ),
    (
        "mull_over", 0,
        "He sat by the window to think carefully about the offer.",
        "He sat by the window to mull the offer over.",
        "think carefully about",
    ),
    (
        "mull_over", 0,
        "They need time to carefully consider the proposal.",
        "They need time to mull over the proposal.",
        "carefully consider",
    ),
    (
        "cut_the_gordian_knot", 0,
        "Sandler effectively dealt with the difficult situation that was strangling the market.",
        "Sandler effectively cut the Gordian knot that was strangling the market.",
        "dealt with the difficult situation",
    ),
    (
        "zip_your_lip", 0,
        "Why don't you just be quiet because I am tired of being nagged all morning?",
        "Why don't you just zip your lip because I am tired of being nagged all morning?",
        "be quiet",
    ),
    (
        "do_justice_to", 0,
        "To fully exemplify her beauty, you should photograph her in nature.",
        "To do justice to her beauty, you should photograph her in nature.",
        "fully exemplify",
    ),
    (
        "give_the_devil_his_due", 0,
        "His service is expensive but there is none other like him, so I have to give him the credit he deserves.",
        "His service is expensive but there is none other like him, so I have to give the devil his due.",
        "give him the credit he deserves",
    ),
    (
        "from_time_to_time", 0,
        "I have been going to the store every now and then to understand the operations better.",
        "I have been going to the store from time to time to understand the operations better.",
        "every now and then",
    ),
    (
        "leave_no_stone_unturned", 0,
        "They promised that they will search in all possible places to find the solution.",
        "They promised that they will leave no stone unturned to find the solution.",
        "search in all possible places",
    ),
    (
        "surgical_strike", 0,
        "I am starting a precision strike against my socks in this messy drawer.",
        "I am starting a surgical strike against my socks in this messy drawer.",
        "precision strike",
    ),
    (
        "make_sense", 0,
        "She has started reasoning out her career now and I would like to let her try things out.",
        "She has started making sense about her career now and I would like to let her try things out.",
        "reasoning out",
    ),
    (
        "make_sense", 1,
        "His explanation was reasonable and understandable to the whole class.",
        "His explanation made sense to the whole class.",
        "was reasonable and understandable",
    ),
    (
        "find_ones_feet", 1,
        "It was only after doing many small shows that he finally found his foundation as a singer.",
        "It was only after doing many small shows that he finally found his feet as a singer.",
        "found his foundation",
    ),
    (
        "find_ones_feet", 0,
        "We have a programme that helps new employees get accustomed to the organisation.",
        "We have a programme that helps new employees find their feet in the organisation.",
        "get accustomed to",
    ),
    (
        "build_castles_in_the_air", 0,
        "Don't just imagine having a lot of money, find some work instead.",
        "Don't build castles in the air, find some work instead.",
        "just imagine having a lot of money",
    ),
    (
        "bite_the_bullet", 0,
        "He decided to accept the pain and go to the dentist.",
        "He decided to bite the bullet and go to the dentist.",
        "accept the pain",
    ),
    (
        "bite_the_bullet", 0,
        "She finally made herself do the hard thing and filed her taxes.",
        "She finally bit the bullet and filed her taxes.",
        "made herself do the hard thing",
    ),
    (
        "spill_the_beans", 0,
        "Do not reveal the secret about the surprise party.",
        "Do not spill the beans about the surprise party.",
        "reveal the secret",
    ),
    (
        "spill_the_beans", 0,
        "He revealed everything about the plan during dinner.",
        "He spilled the beans about the plan during dinner.",
        "revealed everything",
    ),
    (
        "under_the_weather", 0,
        "I am feeling a bit sick today so I will stay home.",
        "I am feeling a bit under the weather today so I will stay home.",
        "sick",
    ),
    (
        "under_the_weather", 0,
        "She looked rather unwell after the long trip.",
        "She looked rather under the weather after the long trip.",
        "unwell",
    ),
    (
        "break_the_ice", 0,
        "He told a joke to ease the tension at the meeting.",
        "He told a joke to break the ice at the meeting.",
        "ease the tension",
    ),
    (
        "break_the_ice", 0,
        "Some games can help to relax the group at the start of class.",
        "Some games can help to break the ice at the start of class.",
        "relax the group",
    ),
    (
        "piece_of_cake", 0,
        "The exam was something very easy for her.",
        "The exam was a piece of cake for her.",
        "something very easy",
    ),
    (
        "piece_of_cake", 0,
        "Fixing the old radio was an easy job for my uncle.",
        "Fixing the old radio was a piece of cake for my uncle.",
        "an easy job",
    ),
    (
        "once_in_a_blue_moon", 0,
        "My brother visits us very rarely since he moved abroad.",
        "My brother visits us once in a blue moon since he moved abroad.",
        "very rarely",
    ),
    (
        "hit_the_books", 0,
        "You should study hard if you want to pass the course.",
        "You should hit the books if you want to pass the course.",
        "study hard",
    ),
    (
        "hit_the_books", 0,
        "Before the final exams she studied intensely every night.",
        "Before the final exams she hit the books every night.",
        "studied intensely",
    ),
    (
        "in_hot_water", 0,
        "He found himself in serious trouble after missing the deadline.",
        "He found himself in hot water after missing the deadline.",
        "in serious trouble",
    ),
]


def _locate(haystack: tuple[str, ...], needle: tuple[str, ...]) -> tuple[int, int]:
    for s in range(len(haystack) - len(needle) + 1):
        if haystack[s : s + len(needle)] == needle:
            return s, s + len(needle)
    raise ValueError(f"phrase {needle!r} not found in {haystack!r}")


def demo_lexicon() -> list[IdiomEntry]:
    return [
        IdiomEntry(
            id=idiom_id,
            surface=tuple(tokenize(text)),
            senses=tuple(tuple(tokenize(d)) for d in definitions),
            rigidity=rigidity,
        )
        for idiom_id, text, definitions, rigidity in _LEXICON
    ]


def demo_pairs() -> list[ParallelPair]:
    pairs = []
    for idiom_id, sense_index, literal, idiomatic, phrase in _PAIRS:
        literal_tokens = tuple(tokenize(literal))
        span = _locate(literal_tokens, tuple(tokenize(phrase)))
        pairs.append(
            ParallelPair(
                idiom_id=idiom_id,
                sense_index=sense_index,
                literal=literal_tokens,
                idiomatic=tuple(tokenize(idiomatic)),
                span=span,
            )
        )
    return pairs


def demo_annotated_ids() -> tuple[str, ...]:
    """Idioms with enough demo pairs to populate validation and test splits."""
    return ("mull_over", "run_for_cover")


def synthetic_retrieval_data(
    n_idioms: int = 50,
    seed: int = 0,
) -> tuple[list[IdiomEntry], list[ParallelPair], list[ParallelPair]]:
    """Idioms with mutually disjoint definition vocabularies.

    Idiom i owns two private words; its single definition is the pair
    in canonical order and sentences are two-token arrangements of the
    pair, so sentence/key token overlap fully determines the gold
    idiom.  Of the four arrangements per idiom, three (in seeded order)
    are train sentences and one is a validation sentence, but every
    arrangement shape occurs in training across idioms — held-out
    sentences are unseen combinations, not an unseen sequence regime.
    """
    rng = Rng(seed)
    entries: list[IdiomEntry] = []
    train: list[ParallelPair] = []
    val: list[ParallelPair] = []
    for i in range(n_idioms):
        a, b = f"w{i}xa", f"w{i}xb"
        entry = IdiomEntry(
            id=f"syn{i}",
            surface=(f"idiom{i}a", f"idiom{i}b"),
            senses=((a, b),),
            rigidity=None,
        )
        entries.append(entry)
        arrangements = [(a, b), (b, a), (a, a), (b, b)]
        rng.shuffle(arrangements)
        for j, sentence in enumerate(arrangements):
            pair = ParallelPair(
                idiom_id=entry.id, sense_index=0,
                literal=sentence, idiomatic=sentence, span=(0, 1),
            )
            (train if j < 3 else val).append(pair)
    return entries, train, val


def synthetic_span_data(seed: int = 0) -> tuple[list[IdiomEntry], list[ParallelPair], list[ParallelPair]]:
    """40 train and 10 validation sentences whose gold span is bracketed by sentinel tokens.

    The span always runs from the "lbr" token through the matching
    "rbr" token, so a position tagger can solve the task from local
    context alone.
    """
    rng = Rng(seed)
    fillers = [f"f{k}" for k in range(20)]
    content = [f"c{k}" for k in range(10)]
    entry = IdiomEntry(
        id="marked",
        surface=("marked", "phrase"),
        senses=(("the", "bracketed", "words"),),
        rigidity=None,
    )
    pairs: list[ParallelPair] = []
    for _ in range(50):
        left = [rng.choice(fillers) for _ in range(2 + rng.randint(3))]
        inner = [rng.choice(content) for _ in range(1 + rng.randint(3))]
        right = [rng.choice(fillers) for _ in range(2 + rng.randint(3))]
        literal = tuple(left) + ("lbr",) + tuple(inner) + ("rbr",) + tuple(right)
        span = (len(left), len(left) + len(inner) + 2)
        idiomatic = tuple(left) + entry.surface + tuple(right)
        pairs.append(
            ParallelPair(
                idiom_id=entry.id,
                sense_index=0,
                literal=literal,
                idiomatic=idiomatic,
                span=span,
            )
        )
    return [entry], pairs[:40], pairs[40:]
