"""Finite-difference gradient checks for each trained component.

Each check builds a deliberately tiny model (hidden size 8, a
20-entry vocabulary, a batch of two instances of different lengths, as
training batches them) at its seeded initialization and compares
analytic gradients of a mean-normalized training loss against central
differences.

Numerical fine print: the reported error divides |analytic - numeric|
by max(|analytic|, |numeric|, 1e-8), so for weakly-coupled parameter
entries (true gradient below 1e-8) it effectively measures *absolute*
agreement against 1e-8.  A float64 evaluation of a loss of magnitude L
carries rounding noise of a few ulp(L) into the central difference —
about L * 1e-13 relative to the floor at eps = 1e-3.  The checks
therefore use eps = 1e-3, run at initialization (where internal score
magnitudes are smallest), and verify per-instance/per-position/per-step
mean losses rather than sums: the same backward graph up to one scalar
multiply, but with L kept near 1 so rounding noise sits an order of
magnitude below the 1e-4 tolerance.
"""

from __future__ import annotations

from .corpus import RESERVED, Vocabulary
from .extractor import ExtractorModel, extractor_loss
from .generator import GeneratorModel, build_generator_input, teacher_forced_batch
from .numerics import grad_check
from .retrieval import RetrievalModel, bce_loss

CHECK_EPS = 1e-3


def _toy_vocab() -> Vocabulary:
    words = [
        "the", "cat", "sat", "on", "mat", "a", "dog", "ran", "fast", "very",
        "slow", "big", "red", "fox", "jumps", "over",
    ]
    return Vocabulary(tuple(RESERVED) + tuple(words))


def gradcheck_retrieval(seed: int = 0) -> float:
    """Worst relative gradient error of the mean retrieval BCE loss of a two-instance batch, a
    positive and a negative key of different lengths."""
    model = RetrievalModel(_toy_vocab(), embed_dim=8, hidden=8, seed=seed)
    sentence = ("the", "cat", "sat", "on", "mat")
    batch = [(sentence, ("a", "dog", "ran"), 1), (sentence, ("very", "fast"), 0)]

    def loss_fn(_store):
        return bce_loss(model, batch) * (1.0 / len(batch))

    return grad_check(loss_fn, model.store, eps=CHECK_EPS)


def gradcheck_extractor(seed: int = 0) -> float:
    """Worst relative gradient error of the CRF NLL + marginal CE loss, per sentence token, of a
    two-instance batch whose sentences and definitions differ in length."""
    model = ExtractorModel(_toy_vocab(), embed_dim=8, hidden=8, seed=seed)
    batch = [
        (("the", "cat", "sat", "on", "mat"), ("a", "dog", "ran"), [2, 0, 1, 1, 2]),  # O B I I O
        (("big", "red", "fox"), ("slow",), [0, 2, 2]),  # B O O
    ]
    tokens = sum(len(sentence) for sentence, _, _ in batch)

    def loss_fn(_store):
        return extractor_loss(model, batch) * (1.0 / tokens)

    return grad_check(loss_fn, model.store, eps=CHECK_EPS)


def gradcheck_generator(seed: int = 0) -> float:
    """Worst relative gradient error of the teacher-forced mean step NLL of a two-instance batch,
    whose inputs and references differ in length."""
    model = GeneratorModel(
        _toy_vocab(), word_dim=8, copy_dim=4, label_dim=4, hidden=8, guided=True, seed=seed
    )
    batch = [
        (build_generator_input(("ran", "fast"), ("the", "cat", "sat", "on", "mat"), (2, 4), guided=True),
         ("the", "cat", "ran", "fast")),
        (build_generator_input(("slow",), ("a", "dog"), (1, 2), guided=True), ("a", "slow")),
    ]
    steps = sum(len(reference) + 1 for _, reference in batch)  # reference tokens plus <eos>

    def loss_fn(_store):
        return teacher_forced_batch(model, batch)[0] * (1.0 / steps)

    return grad_check(loss_fn, model.store, eps=CHECK_EPS)


ALL_CHECKS = {
    "retrieval": gradcheck_retrieval,
    "extractor": gradcheck_extractor,
    "generator": gradcheck_generator,
}
