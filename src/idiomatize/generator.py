"""Copy-based generation guided by idiom and span markers.

The encoder is a BiGRU over [idiom, <sep>, literal] where each token
embedding is concatenated with a copy-indicator embedding (1 = should
survive into the output, 0 = belongs to the replaced span).  The
decoder is a GRU whose input at step t is

    [word(y_{t-1}) ; label(l_{t-1}) ; attentive read ; selective read]

Each step scores copying every input position and generating every
vocabulary word; both score families are exponentiated and normalized
together, so tokens that appear in the input can draw probability from
both routes.  ``guided=False`` disables the label channel (the label
embedding input is held at 0) for the unguided variant.

Training and inference step one decoder (``decode_context``,
``decode_init``, ``decode_step``), and its context picks how.  Around
``encode_input``'s memory, a Tensor, the step runs on the autodiff tape, as
training needs.  Around ``scan_input``'s, a plain array, the same ops in
the same order run on numpy arrays, as in beam search and the
teacher-forced accuracy check, so each value equals the tape's bit for bit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import EOS, SEP, UNK, Vocabulary
from .metrics import bleu
from .numerics import (
    GruCell,
    ParamStore,
    Tensor,
    adam_step,
    bigru_encode,
    bigru_scan,
    check_sizes,
    concat,
    fit,
    gru_rows,
    gru_step,
    logsumexp,
    matvec,
    softmax,
    tanh,
    vecmat,
    zeros,
)
from .rng import Rng

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GeneratorInput:
    """Encoder token sequence plus per-token copy indicators."""

    tokens: tuple[str, ...]
    indicators: tuple[int, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("empty generator input")
        if len(self.tokens) != len(self.indicators):
            raise ValueError("tokens and indicators differ in length")
        if any(i not in (0, 1) for i in self.indicators):
            raise ValueError("indicators must be 0 or 1")


def build_generator_input(
    idiom: Sequence[str], literal: Sequence[str], span: tuple[int, int] | None, guided: bool
) -> GeneratorInput:
    """Guided: [idiom, <sep>, literal] with indicator 0 on <sep> and the span and 1 elsewhere.
    Unguided: the same without the span's tokens, and every indicator 0."""
    s, e = span if span is not None else (0, 0)
    if not guided:
        tokens = tuple(idiom) + (SEP,) + tuple(literal[:s]) + tuple(literal[e:])
        return GeneratorInput(tokens, (0,) * len(tokens))
    indicators = (1,) * len(idiom) + (0,) + tuple(0 if s <= i < e else 1 for i in range(len(literal)))
    return GeneratorInput(tuple(idiom) + (SEP,) + tuple(literal), indicators)


def rule_based_generate(
    literal: Sequence[str], span: tuple[int, int] | None, idiom: Sequence[str]
) -> tuple[str, ...]:
    """Splice the idiom surface over the span; no span means no change."""
    if span is None:
        return tuple(literal)
    s, e = span
    return tuple(literal[:s]) + tuple(idiom) + tuple(literal[e:])


class GeneratorModel:
    component = "generator"

    def __init__(
        self,
        vocab: Vocabulary,
        word_dim: int = 128,
        copy_dim: int = 32,
        label_dim: int = 32,
        hidden: int = 256,
        guided: bool = True,
        seed: int = 0,
    ):
        check_sizes(word_dim=word_dim, copy_dim=copy_dim, label_dim=label_dim, hidden=hidden)
        if hidden % 2:
            raise ValueError("hidden must be even (split across two encoder directions)")
        if not isinstance(guided, bool):
            raise ValueError(f"guided must be a bool, got {guided!r}")
        self.vocab = vocab
        self.word_dim = word_dim
        self.copy_dim = copy_dim
        self.label_dim = label_dim
        self.hidden = hidden
        self.guided = guided
        self.seed = seed
        rng = Rng(seed)
        store = ParamStore()
        half = hidden // 2
        dec_in = word_dim + label_dim + hidden + hidden
        self.word_emb = store.add("word_emb", (len(vocab), word_dim), rng)
        self.copy_emb = store.add("copy_emb", (2, copy_dim), rng)
        self.label_emb = store.add("label_emb", (2, label_dim), rng)
        self.enc_fwd = GruCell(store, "encoder.fwd", word_dim + copy_dim, half, rng)
        self.enc_bwd = GruCell(store, "encoder.bwd", word_dim + copy_dim, half, rng)
        self.decoder = GruCell(store, "decoder", dec_in, hidden, rng)
        self.w_att = store.add("attention.weight", (hidden, hidden), rng)
        self.u_copy = store.add("copy.weight", (hidden, hidden), rng)
        self.w_gen = store.add("generate.weight", (len(vocab), hidden), rng)
        self.init_w = store.add("decoder_init.weight", (hidden, hidden), rng)
        self.init_b = store.add_zeros("decoder_init.bias", (hidden,))
        self.store = store

    def hyperparameters(self) -> dict:
        return {
            "word_dim": self.word_dim,
            "copy_dim": self.copy_dim,
            "label_dim": self.label_dim,
            "hidden": self.hidden,
            "guided": self.guided,
            "seed": self.seed,
        }


def encode_input(model: GeneratorModel, inp: GeneratorInput) -> Tensor:
    """(n, hidden) memory matrix of BiGRU states, on the tape."""
    xs = concat([model.word_emb[model.vocab.encode_all(inp.tokens)], model.copy_emb[list(inp.indicators)]])
    return bigru_encode(model.enc_fwd, model.enc_bwd, [xs[t : t + 1] for t in range(len(inp.tokens))])


def scan_input(model: GeneratorModel, inp: GeneratorInput) -> np.ndarray:
    """``encode_input``'s memory matrix as a plain array, bit for bit, from the tape-free ``bigru_scan``."""
    words = model.word_emb.data[model.vocab.encode_all(inp.tokens)]
    xs = np.concatenate([words, model.copy_emb.data[list(inp.indicators)]], axis=1)
    return bigru_scan(model.enc_fwd, model.enc_bwd, xs)


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    """The tape's ``softmax`` of each row on plain arrays: ``logsumexp``, subtract, ``exp``."""
    m = a.max(axis=-1, keepdims=True)
    return np.exp(a - (np.log(np.exp(a - m).sum(axis=-1, keepdims=True)) + m))


# The primitives a decoding step runs: the tape ops over Tensors, or numpy over plain arrays,
# which forms the same values in the same order, bit for bit.
_Ops = namedtuple("_Ops", "tape vecmat matvec softmax concat tanh zeros")
_TAPE = _Ops(True, vecmat, matvec, softmax, concat, tanh, zeros)
_ARRAYS = _Ops(False, np.vecmat, lambda w, x: np.vecmat(x, w.T), _softmax_rows, np.concatenate, np.tanh, np.zeros)
# The model parameters a decoding step reads.
_WEIGHTS = ("word_emb", "label_emb", "w_att", "u_copy", "w_gen", "init_w", "init_b")


@dataclass(frozen=True)
class DecodeContext:
    """What every decoding step reads about one input, built once by ``decode_context``.

    Around ``encode_input``'s memory, a Tensor, ``ops`` are the tape ops and
    ``weights`` maps each name in ``_WEIGHTS`` to its parameter Tensor; around
    ``scan_input``'s, a plain array, they are numpy and the parameters'
    arrays.  ``copy_keys`` has ``memory``'s type.

    ``tokens`` is the extended vocabulary: the vocabulary followed by the
    input tokens it lacks, in first-occurrence order.  ``slots`` holds the
    extended-vocabulary index of each input position, and ``positions``
    the input positions of each input token.
    """

    memory: Tensor | np.ndarray
    copy_keys: Tensor | np.ndarray
    tokens: tuple[str, ...]
    slots: np.ndarray
    positions: dict[str, list[int]]
    ops: _Ops
    weights: dict[str, Tensor | np.ndarray]


def decode_context(model: GeneratorModel, inp: GeneratorInput, memory: Tensor | np.ndarray) -> DecodeContext:
    """The context of the input whose ``memory`` is ``encode_input``'s Tensor, for steps on the tape,
    or ``scan_input``'s array, for steps on plain arrays: its copy keys and token mapping, and the
    primitives and parameter views of that kind."""
    ops = _TAPE if isinstance(memory, Tensor) else _ARRAYS
    weights = {name: getattr(model, name) if ops.tape else getattr(model, name).data for name in _WEIGHTS}
    vocab = model.vocab
    positions: dict[str, list[int]] = {}
    for k, token in enumerate(inp.tokens):
        positions.setdefault(token, []).append(k)
    extra = {t: len(vocab) + i for i, t in enumerate(t for t in positions if t not in vocab)}
    slots = np.array([extra[t] if t in extra else vocab.get(t) for t in inp.tokens], dtype=np.intp)
    copy_keys = ops.tanh(ops.vecmat(memory, weights["u_copy"]))
    return DecodeContext(memory, copy_keys, vocab.tokens + tuple(extra), slots, positions, ops, weights)


@dataclass(frozen=True)
class DecodeState:
    """Decoder states ``hidden`` [B,H] of B hypotheses (one for teacher forcing, each live one in
    beam search) and the copy [B,n] and generate [B,V] scores they produced, of the context's
    kind: Tensors or plain arrays.  The first state has no scores yet, so the first step's
    selective read is exactly zero."""

    hidden: Tensor | np.ndarray
    copy_scores: Tensor | np.ndarray | None = None
    gen_scores: Tensor | np.ndarray | None = None


def decode_init(model: GeneratorModel, ctx: DecodeContext) -> DecodeState:
    """First decoder state, one [1,H] row, from the final forward/backward encoder states."""
    ops, half, n = ctx.ops, model.hidden // 2, ctx.memory.shape[0]
    final = ops.concat([ctx.memory[n - 1 : n, :half], ctx.memory[0:1, half:]], axis=-1)
    return DecodeState(ops.tanh(ops.matvec(ctx.weights["init_w"], final) + ctx.weights["init_b"]))


def attentive_read(ctx: DecodeContext, hidden: Tensor | np.ndarray) -> Tensor | np.ndarray:
    """Bilinear attention over all memory states, for each of the [B,H] decoder rows ``hidden``."""
    ops, memory = ctx.ops, ctx.memory
    if memory.shape[0] == 0:
        raise ValueError("empty memory")
    return ops.vecmat(ops.softmax(ops.matvec(memory, ops.vecmat(hidden, ctx.weights["w_att"]))), memory)


def selective_read(
    ctx: DecodeContext, y_prev: Sequence[str], psi_prev: Tensor | np.ndarray | None
) -> Tensor | np.ndarray:
    """Per row, the memory states at positions matching that row's token, weighted by its copy scores.

    B tokens with [B,n] scores give [B,H] reads, exactly zero in a row whose token is not in the
    input and in every row before any copy scores exist.  Rows whose tokens occur equally often
    are weighted as one batch, so each row equals its one-row read bit for bit.  The batches'
    reads and one zero row are joined, and one gather places them in the [B,H] read.
    """
    by_count: dict[int, tuple[list[int], list[list[int]]]] = {}
    for b, y in enumerate(y_prev):
        matches = ctx.positions.get(y)
        if psi_prev is not None and matches:
            rows, positions = by_count.setdefault(len(matches), ([], []))
            rows.append(b)
            positions.append(matches)
    ops = ctx.ops
    reads = [ops.zeros((1, ctx.memory.shape[1]))]
    place = np.zeros(len(y_prev), dtype=np.intp)  # 0, the zero read, for a row that reads nothing
    start = 1
    for rows, positions in by_count.values():
        positions = np.array(positions)
        reads.append(ops.vecmat(ops.softmax(psi_prev[np.array(rows)[:, None], positions]), ctx.memory[positions]))
        place[rows] = np.arange(start, start + len(rows))
        start += len(rows)
    return ops.concat(reads, axis=0)[place]


def decode_step(
    model: GeneratorModel, ctx: DecodeContext, state: DecodeState, y_prev: Sequence[str], l_prev: np.ndarray
) -> DecodeState:
    """Feed each row's previous token and its copy/generate label; the next state and its scores.

    ``state.hidden`` is [B,H] with B tokens and B labels.  The step runs on the tape or on plain
    arrays as ``ctx`` was built, with the same values either way, and each row equals its one-row
    call, all bit for bit."""
    if isinstance(y_prev, str):
        raise ValueError(f"y_prev must be a sequence of tokens, one per row, not the string {y_prev!r}")
    if state.hidden.shape != (len(y_prev), model.hidden):
        raise ValueError(f"decoder state {state.hidden.shape} is not [B,H] = {(len(y_prev), model.hidden)}")
    ops, weights = ctx.ops, ctx.weights
    w = weights["word_emb"][model.vocab.encode_all(y_prev)]
    label = weights["label_emb"][l_prev * model.guided]  # label 0 throughout for the unguided model
    x = ops.concat([w, label, attentive_read(ctx, state.hidden), selective_read(ctx, y_prev, state.copy_scores)],
                   axis=-1)
    h = gru_step(model.decoder, state.hidden, x) if ops.tape else gru_rows(model.decoder, state.hidden, x)
    return DecodeState(h, ops.matvec(ctx.copy_keys, h), ops.matvec(weights["w_gen"], h))


@dataclass
class StepDistribution:
    """One decoding step's output distributions for B rows of hypotheses: ``probs`` is [B,·]
    over the context's extended vocabulary ``ctx.tokens``, and ``p_copy`` and ``p_gen`` hold
    each row's copy and generate mass, [B] each."""

    probs: np.ndarray
    p_copy: np.ndarray
    p_gen: np.ndarray


def step_distribution(ctx: DecodeContext, copy_scores: np.ndarray, gen_scores: np.ndarray) -> StepDistribution:
    """[B,n] copy and [B,V] generate scores normalized together over the extended vocabulary.

    Each row equals its one-row call bit for bit.
    """
    shift = np.maximum(copy_scores.max(axis=1), gen_scores.max(axis=1))[:, None]
    e_copy = np.exp(copy_scores - shift)
    e_gen = np.exp(gen_scores - shift)
    copy_mass = e_copy.sum(axis=1, keepdims=True)
    gen_mass = e_gen.sum(axis=1, keepdims=True)
    z = copy_mass + gen_mass
    probs = np.zeros((len(gen_scores), len(ctx.tokens)))
    probs[:, : gen_scores.shape[1]] = e_gen / z
    # np.add.at adds position by position, so a repeated token sums in input order.
    np.add.at(probs, (slice(None), ctx.slots), e_copy / z)
    return StepDistribution(probs, p_copy=(copy_mass / z)[:, 0], p_gen=(gen_mass / z)[:, 0])


def infer_label(dist: StepDistribution) -> np.ndarray:
    """Per row, 1 when the copy mass strictly exceeds the generate mass."""
    return np.greater(dist.p_copy, dist.p_gen).astype(np.intp)


def _target_indices(vocab: Vocabulary, ctx: DecodeContext, target: str) -> tuple[list[int], str]:
    """Positions in [copy scores ++ generate scores] that emit ``target``, and the token they emit:
    ``target``, or <unk> for a target in neither the input nor the vocabulary (the <unk> route)."""
    n = len(ctx.slots)
    idxs = list(ctx.positions.get(target, ()))
    vocab_id = vocab.get(target)
    if vocab_id is not None:
        idxs.append(n + vocab_id)
    return (idxs, target) if idxs else ([n + vocab.encode(UNK)], UNK)


def _teacher_forced(model: GeneratorModel, ctx: DecodeContext, reference: Sequence[str]):
    """Teacher forcing over the reference plus <eos>, on the tape or on plain arrays as ``ctx`` was
    built: each step's state, and the indices that emit its target and the token they emit."""
    if not reference:
        raise ValueError("empty reference")
    state, y_prev, l_prev = decode_init(model, ctx), SEP, 0
    for target in list(reference) + [EOS]:
        state = decode_step(model, ctx, state, [y_prev], np.array([l_prev]))
        yield (state, *_target_indices(model.vocab, ctx, target))
        y_prev, l_prev = target, 1 if (model.guided and target in ctx.positions) else 0


def _argmax_token(ctx: DecodeContext, copy_scores: np.ndarray, gen_scores: np.ndarray) -> str:
    """The most probable token of a one-row step's distribution."""
    return ctx.tokens[int(np.argmax(step_distribution(ctx, copy_scores, gen_scores).probs[0]))]


def teacher_forced_pass(
    model: GeneratorModel, inp: GeneratorInput, reference: Sequence[str]
) -> tuple[Tensor, int, int]:
    """Teacher forcing on the tape over the reference plus <eos>: its summed NLL, its steps, and
    how many steps' most probable token is the one their target's indices emit."""
    ctx = decode_context(model, inp, encode_input(model, inp))
    loss: Tensor | None = None
    steps = correct = 0
    for state, idxs, emitted in _teacher_forced(model, ctx, reference):
        all_scores = concat([state.copy_scores, state.gen_scores])[0]
        step_nll = logsumexp(all_scores) - logsumexp(all_scores[idxs])
        loss = step_nll if loss is None else loss + step_nll
        steps += 1
        correct += _argmax_token(ctx, state.copy_scores.data, state.gen_scores.data) == emitted
    assert loss is not None
    return loss, steps, correct


def teacher_forced_accuracy(model: GeneratorModel, data: Sequence[tuple[GeneratorInput, Sequence[str]]]) -> float:
    """Fraction of teacher-forced steps whose argmax equals the target: ``teacher_forced_pass``'s
    count, stepping ``decode_step`` on plain arrays."""
    steps = correct = 0
    for inp, reference in data:
        ctx = decode_context(model, inp, scan_input(model, inp))
        for state, _, emitted in _teacher_forced(model, ctx, reference):
            steps += 1
            correct += _argmax_token(ctx, state.copy_scores, state.gen_scores) == emitted
    return correct / steps if steps else 0.0


def train_generator(
    model: GeneratorModel,
    data: Sequence[tuple[GeneratorInput, Sequence[str]]],
    *,
    epochs: int,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
    validation: Sequence[tuple[GeneratorInput, Sequence[str]]] = (),
    eval_every: int = 1,
    max_len: int = 40,
    stop_at_token_accuracy: float | None = None,
) -> dict:
    """Teacher-forced NLL with batched Adam updates.

    Reports the per-epoch mean loss per instance, running teacher-forced
    token accuracy and (every ``eval_every`` epochs) greedy-decode BLEU
    on the validation set.
    """
    if not data:
        raise ValueError("no training instances")
    accuracies: list[float] = []
    counts = [0, 0]  # teacher-forced steps and correct argmax steps in this epoch

    def loss(example: tuple[GeneratorInput, Sequence[str]]) -> Tensor:
        value, steps, correct = teacher_forced_pass(model, *example)
        counts[0] += steps
        counts[1] += correct
        return value

    def greedy_bleu() -> float:
        hyps = [beam_decode(model, inp, beam=1, max_len=max_len) for inp, _ in validation]
        return bleu(hyps, [ref for _, ref in validation])

    def after_epoch(_bleu: float | None) -> bool:
        steps, correct = counts
        counts[:] = [0, 0]
        accuracies.append(correct / steps if steps else 0.0)
        # Confirm with the post-update parameters before stopping.
        return (
            stop_at_token_accuracy is not None
            and accuracies[-1] >= stop_at_token_accuracy
            and teacher_forced_accuracy(model, data) >= stop_at_token_accuracy
        )

    losses, val_bleu = fit(
        model.store, Rng(seed), lambda: data, loss, lambda: adam_step(model.store, lr),
        epochs=epochs, batch_size=batch_size, eval_every=eval_every,
        evaluate=greedy_bleu if validation else None, after_epoch=after_epoch,
        name="generator", metric_name="val_bleu",
    )
    return {"epoch_losses": losses, "train_token_accuracy": accuracies, "val_bleu": val_bleu}


def _top_ranks(probs: np.ndarray, k: int) -> np.ndarray:
    """Each row's first ``k`` indices in a stable ``argsort(-probs)``: by probability, then by index.

    A partition finds each row's k-th largest probability first, so the
    stable sort only has to order the entries at or above it.
    """
    neg = -probs
    k = min(k, neg.shape[1])
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1, None]
    return np.argsort(np.where(neg <= kth, neg, np.inf), axis=1, kind="stable")[:, :k]


def _score_bound(best_live: float, steps: int, max_len: int, slack: float) -> float:
    """An upper bound on the final score of any hypothesis grown from a prefix live after ``steps`` positions.

    It ends on ``<eos>`` at some t ≤ ``max_len``, or is live at ``max_len``,
    and scores logp_t / t.  Each step adds at most ``slack`` (a rounded
    probability can exceed 1 by a few ulps) plus the rounding of the sum, a
    few ulps of the running logp; Δ covers both, so logp_t ≤ U =
    ``best_live`` + (max_len − steps)·Δ.  Then logp_t / t ≤ U / max_len if
    U ≤ 0, else ≤ U / min(steps + 1, max_len).  Rounded addition and division
    are monotone, so the bound holds for the computed scores too.
    """
    delta = slack + 2 * _EPS * (abs(best_live) + 1)
    bound = best_live + (max_len - steps) * delta
    return bound / (max_len if bound <= 0 else min(steps + 1, max_len))


def beam_decode(model: GeneratorModel, inp: GeneratorInput, beam: int = 4, max_len: int = 40) -> tuple[str, ...]:
    """Length-normalized beam search; beam=1 is greedy decoding.

    Each position advances every live hypothesis as one row of a single
    ``decode_step`` on plain arrays.  Candidates keep the order of a
    loop over hypotheses: hypothesis order, then each one's stable ranking
    of the extended vocabulary, and a stable sort by score picks the next
    beam from them.

    Decoding stops once ``_score_bound`` shows that no live hypothesis can
    end with a score above the best finished one.  The stop is exact:
    nothing still to come scores higher, and a later tie is appended after
    the best, so the first of equal scores is the one returned.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ctx = decode_context(model, inp, scan_input(model, inp))
    state = decode_init(model, ctx)
    # Bounds the log of a step probability: each is a few rounded e/z terms over a rounded z.
    slack = 4 * (len(ctx.tokens) + len(ctx.slots)) * _EPS
    prefixes: list[tuple[str, ...]] = [()]
    logp = np.zeros(1)
    labels = np.zeros(1, dtype=np.intp)  # the copy/generate label of each prefix's last token
    finished: list[tuple[float, tuple[str, ...]]] = []
    for steps in range(1, max_len + 1):
        state = decode_step(model, ctx, state, [p[-1] if p else SEP for p in prefixes], labels)
        dist = step_distribution(ctx, state.copy_scores, state.gen_scores)
        # Not training's rule (token in the input): that one changes 10 recorded benchmark outputs (README).
        labels = infer_label(dist)
        top = _top_ranks(dist.probs, beam)
        logps = (logp[:, None] + np.log(dist.probs[np.arange(len(top))[:, None], top])).ravel()
        scores = logps / steps
        alive = []
        for c in np.argsort(-scores, kind="stable")[:beam]:
            token = ctx.tokens[top.flat[c]]
            prefix = prefixes[c // top.shape[1]]
            if token == EOS:
                finished.append((scores[c], prefix))
            else:
                alive.append((c, prefix + (token,)))
        if not alive:
            break
        survivors, prefixes = map(list, zip(*alive))
        logp = logps[survivors]
        if finished and _score_bound(logp.max(), steps, max_len, slack) <= max(f[0] for f in finished):
            break
        parents = np.array(survivors) // top.shape[1]
        labels = labels[parents]
        state = DecodeState(state.hidden[parents], state.copy_scores[parents])
    else:  # no stop before max_len: the live prefixes end there
        finished.extend((scores[c], prefix) for c, prefix in alive)
    return max(finished, key=lambda f: f[0])[1]  # the first of equal scores wins
