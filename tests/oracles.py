"""Independent reference implementations used as test oracles.

Everything in this module is written straight from the textbook
definitions (exhaustive enumeration, quadratic DP, direct formula
evaluation) without importing anything from the package under test, so
agreement between the two is meaningful evidence of correctness rather
than a tautology.  The exceptions are the ``reference_crf_*`` functions
and ``reference_extractor_loss``, earlier forms of the package's own CRF
code composed from its tape ops, kept to check the values and gradients
of the one-node CRF loss; ``reference_tokenize``, the package's earlier
character scanner, which rejects reserved tokens through the package's own rule;
``reference_generator_beam`` and ``reference_transform``, which run
the reference beam and retrieval rules over the package's own models, so
that ``transform`` is checked against its stages composed the slow way;
``reference_teacher_forced_pass``, the package's earlier per-instance
teacher forcing on its own decoder step, kept to check the batched pass;
and ``reference_bigru_encode``, the package's earlier per-token encoder on
its own ``gru_step``, kept to check the one-node minibatch encoder.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


def brute_force_crf(unary, transitions, start, end):
    """(logZ, best path, best score, marginals) by scoring all k^n paths."""
    unary = [list(map(float, row)) for row in unary]
    n = len(unary)
    k = len(unary[0])
    scores: dict[tuple[int, ...], float] = {}
    for path in itertools.product(range(k), repeat=n):
        s = float(start[path[0]]) + float(end[path[-1]])
        for t in range(n):
            s += unary[t][path[t]]
        for t in range(1, n):
            s += float(transitions[path[t - 1]][path[t]])
        scores[path] = s
    shift = max(scores.values())
    z = math.fsum(math.exp(s - shift) for s in scores.values())
    log_z = shift + math.log(z)
    best = max(scores, key=scores.__getitem__)
    marginals = [[0.0] * k for _ in range(n)]
    for path, s in scores.items():
        w = math.exp(s - log_z)
        for t, label in enumerate(path):
            marginals[t][label] += w
    return log_z, list(best), scores[best], marginals


def _reference_crf_alphas(unary, transitions, start):
    """Forward log scores of one sentence's [n,K] Tensor scores, one [K] vector each: entry t sums every
    label path over positions 0..t."""
    from idiomatize.numerics import logsumexp, reshape

    alphas = [start + unary[0]]
    for t in range(1, unary.shape[0]):
        alphas.append(unary[t] + logsumexp(reshape(alphas[-1], (-1, 1)) + transitions, axis=0))
    return alphas


def reference_crf_log_partition(unary, transitions, start, end):
    """Log Z of one sentence's [n,K] Tensor scores, from the forward recursion on the tape."""
    from idiomatize.numerics import logsumexp

    return logsumexp(_reference_crf_alphas(unary, transitions, start)[-1] + end)


def reference_crf_log_marginals(unary, transitions, start, end):
    """(n, k) log marginals by forward-backward over [K] vectors on the tape, joined by a local stack node.

    The package runs the same recursions in numpy over a padded batch
    (``crf_log_marginals``) inside its one-node ``crf_loss``.
    """
    from idiomatize.numerics import logsumexp, reshape
    from idiomatize.numerics.tensor import _node

    n = unary.shape[0]
    alphas = _reference_crf_alphas(unary, transitions, start)
    betas = [None] * n
    betas[n - 1] = end
    for t in range(n - 2, -1, -1):
        nxt = unary[t + 1] + betas[t + 1]
        betas[t] = logsumexp(transitions + reshape(nxt, (1, -1)), axis=1)
    log_z = logsumexp(alphas[-1] + end)
    rows = [alphas[t] + betas[t] - log_z for t in range(n)]
    # The stack node: iterating the [n,K] gradient yields row t's gradient g[t].
    return _node(np.array([r.data for r in rows]), tuple(rows), lambda g: g)


def reference_crf_path_score(unary, transitions, start, end, labels):
    """Unnormalized score of one label path over one sentence's [n,K] Tensor scores, on the tape."""
    from idiomatize.numerics import tsum

    n = unary.shape[0]
    score = start[labels[0]] + end[labels[-1]] + tsum(unary[range(n), labels])
    if n > 1:
        score = score + tsum(transitions[labels[:-1], labels[1:]])
    return score


def reference_crf_loss(unary, transitions, start, end, gold):
    """One sentence's CRF NLL plus weighted marginal cross-entropy, composed from tape ops with two
    forward passes: log Z from ``reference_crf_log_partition``, the marginals from their own.

    The package's ``crf_loss`` is one node over a padded batch that takes
    log Z from the marginals' pass; over one sentence, values and gradients
    must agree within 1e-12.
    """
    from idiomatize.extractor import MARGINAL_WEIGHTS
    from idiomatize.numerics import tsum

    crf = (unary, transitions, start, end)
    nll = reference_crf_log_partition(*crf) - reference_crf_path_score(*crf, gold)
    picked = reference_crf_log_marginals(*crf)[range(len(gold)), gold]
    weights = np.array([MARGINAL_WEIGHTS[g] for g in gold])
    return nll - tsum(picked * weights)


def reference_extractor_loss(model, batch):
    """The extractor loss of a minibatch of (sentence, definition, gold) instances as the sum of each
    instance's ``reference_crf_loss`` over its own ``unary_scores``, added in batch order.

    The package's ``extractor_loss`` encodes the minibatch with one encoder
    node and scores it with one ``crf_loss`` node; values and gradients must
    agree within 1e-12.
    """
    from idiomatize.extractor import unary_scores

    total = 0.0
    for sentence, definition, gold in batch:
        unary = unary_scores(model, [(sentence, definition)])[0]
        total = total + reference_crf_loss(unary, model.transitions, model.start, model.end, gold)
    return total


_PUNCT = set(".,!?;:\"'()")


def _word_internal_apostrophe(chunk, i):
    return chunk[i] == "'" and 0 < i < len(chunk) - 1 and chunk[i - 1].isalnum() and chunk[i + 1].isalnum()


def reference_tokenize(text):
    """Lowercase, split on whitespace, and scan each chunk character by character.

    A maximal run of sentence punctuation becomes its own token; an
    apostrophe with a letter or digit on each side stays inside its word.
    The package's ``tokenize`` does the same with one regular expression.
    """
    from idiomatize.corpus import reject_reserved

    tokens = []
    for chunk in text.lower().split():
        buf = []
        i = 0
        n = len(chunk)
        while i < n:
            if chunk[i] in _PUNCT and not _word_internal_apostrophe(chunk, i):
                if buf:
                    tokens.append("".join(buf))
                    buf = []
                j = i
                while j < n and chunk[j] in _PUNCT and not _word_internal_apostrophe(chunk, j):
                    j += 1
                tokens.append(chunk[i:j])
                i = j
            else:
                buf.append(chunk[i])
                i += 1
        if buf:
            tokens.append("".join(buf))
    reject_reserved(tokens)
    return tokens


def _count_ngrams(tokens, n):
    grams = Counter()
    for i in range(len(tokens) - n + 1):
        grams[tuple(tokens[i : i + n])] += 1
    return grams


def reference_bleu(hypotheses, references):
    """Corpus BLEU-4, clipped counts, add-one smoothing for orders 2-4."""
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    log_precision = 0.0
    for n in range(1, 5):
        matched = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = _count_ngrams(hyp, n)
            ref_grams = _count_ngrams(ref, n)
            total += sum(hyp_grams.values())
            matched += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        if n == 1:
            if matched == 0 or total == 0:
                return 0.0
            log_precision += math.log(matched / total)
        else:
            log_precision += math.log((matched + 1) / (total + 1))
    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision / 4.0)


def reference_rouge_n(hypothesis, reference, n):
    hyp_grams = _count_ngrams(hypothesis, n)
    ref_grams = _count_ngrams(reference, n)
    overlap = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(hyp_grams.values())
    recall = overlap / sum(ref_grams.values())
    return 2.0 * precision * recall / (precision + recall)


def reference_rouge_l(hypothesis, reference):
    """LCS F1 via the full quadratic DP table."""
    a, b = list(hypothesis), list(reference)
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    lcs = table[len(a)][len(b)]
    if lcs == 0 or not a or not b:
        return 0.0
    precision = lcs / len(a)
    recall = lcs / len(b)
    return 2.0 * precision * recall / (precision + recall)


def reference_meteor_alignment(hypothesis, reference):
    """(max matches, min chunks) by enumerating every maximal alignment of equal tokens.

    Each token type pairs min(hyp count, ref count) of its hypothesis
    positions with as many of its reference positions, in every order; a
    chunk starts at each pair that does not directly follow the previous
    pair in both sentences.
    """
    hyp_at: dict = {}
    ref_at: dict = {}
    for i, t in enumerate(hypothesis):
        hyp_at.setdefault(t, []).append(i)
    for j, t in enumerate(reference):
        ref_at.setdefault(t, []).append(j)
    choices = []
    for t, hs in hyp_at.items():
        rs = ref_at.get(t, [])
        k = min(len(hs), len(rs))
        choices.append([list(zip(h, r)) for h in itertools.combinations(hs, k) for r in itertools.permutations(rs, k)])
    matches = sum(len(c[0]) for c in choices)
    if matches == 0:
        return 0, 0
    best = None
    for combo in itertools.product(*choices):
        pairs = sorted(p for part in combo for p in part)
        chunks = sum(1 for k, (i, j) in enumerate(pairs) if k == 0 or pairs[k - 1] != (i - 1, j - 1))
        best = chunks if best is None else min(best, chunks)
    return matches, best


def reference_greedy_chunks(hypothesis, reference):
    """Chunks of the in-order greedy alignment: each hypothesis token takes the
    reference position after the previous match when it holds the same free
    token, else the first free one, else stays unmatched."""
    used = [False] * len(reference)
    chunks, prev = 0, -2
    for token in hypothesis:
        free = [j for j, t in enumerate(reference) if t == token and not used[j]]
        j = prev + 1 if prev + 1 in free else (free[0] if free else None)
        if j is None:
            prev = -2
            continue
        used[j] = True
        chunks += j != prev + 1
        prev = j
    return chunks


def reference_param_init(rng, shape, scale):
    """Entries uniform in (-scale, scale), one scalar draw of ``rng`` each, row-major."""
    values = [rng.uniform(-scale, scale) for _ in range(math.prod(shape))]
    return np.array(values, dtype=np.float64).reshape(shape)


def reference_sigmoid(x):
    """Stable logistic with one division per branch: 1/(1+e) where x >= 0, e/(1+e) below, e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_sigmoid_where(x):
    """The stable logistic as ``np.where(x >= 0, 1, e) / (1 + e)``, e = exp(-|x|): one select, one division."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def reference_matmul(a, b):
    """``a @ b`` for the 1-D and 2-D combinations numpy allows, and its gradient rules.

    Returns (value, vjp), where vjp(g) gives the gradients of ``a`` and
    ``b``: outer products where a vector meets a matrix, and ``g`` times the
    other operand for two vectors.  Rows of the tape's row products must
    equal these, value and gradient, bit for bit.
    """
    if a.ndim == 2 and b.ndim == 1:
        return a @ b, lambda g: (np.outer(g, b), a.T @ g)
    if a.ndim == 2:
        return a @ b, lambda g: (g @ b.T, a.T @ g)
    if b.ndim == 2:
        return a @ b, lambda g: (b @ g, np.outer(a, g))
    return a @ b, lambda g: (g * b, g * a)


def reference_gru_step(weights, h_prev, x):
    """Documented gate equations evaluated directly on raw arrays."""
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(weights["w_z"] @ x + weights["u_z"] @ h_prev + weights["b_z"])
    r = sig(weights["w_r"] @ x + weights["u_r"] @ h_prev + weights["b_r"])
    cand = np.tanh(weights["w_h"] @ x + weights["u_h"] @ (r * h_prev) + weights["b_h"])
    return (1.0 - z) * h_prev + z * cand


def reference_bigru_encode(fwd, bwd, inputs):
    """The [T,2H] matrix whose row t is position t's [forward ; backward] state over T [1,I] inputs,
    built on the package's own tape as one ``gru_step`` node per position and direction.

    The per-token encoder that training ran before ``bigru_encode`` became one node per minibatch;
    that node's states and gradients must equal these graphs' bit for bit.
    """
    from idiomatize.numerics import concat, gru_step, zeros

    if not inputs:
        raise ValueError("reference_bigru_encode needs at least one input")
    fwd_states, bwd_states = [], []
    for cell, xs, states in ((fwd, inputs, fwd_states), (bwd, reversed(inputs), bwd_states)):
        h = zeros((1, cell.hidden_size))
        for x in xs:
            h = gru_step(cell, h, x)
            states.append(h)
    bwd_states.reverse()
    return concat([concat([f, b]) for f, b in zip(fwd_states, bwd_states)], axis=0)


def reference_retrieve_top1(score, candidates):
    """Best (idiom id, sense index, score) by scoring one key at a time.

    ``candidates`` are (idiom id, sense index, key) in lexicon order and
    ``score(key)`` scores one key.  Per idiom the best-scoring sense wins
    (earlier sense on ties); across idioms the earlier idiom wins ties.
    """
    if not candidates:
        raise ValueError("empty lexicon")
    per_idiom = {}
    for idiom_id, sense_index, key in candidates:
        s = score(key)
        if idiom_id not in per_idiom or s > per_idiom[idiom_id][1]:
            per_idiom[idiom_id] = (sense_index, s)
    best = None
    for idiom_id, (sense_index, s) in per_idiom.items():
        if best is None or s > best[2]:
            best = (idiom_id, sense_index, s)
    return best


def reference_softmax(values):
    shift = max(values)
    exps = [math.exp(v - shift) for v in values]
    z = math.fsum(exps)
    return [e / z for e in exps]


def reference_logsumexp(values):
    shift = max(values)
    return shift + math.log(math.fsum(math.exp(v - shift) for v in values))


def reference_step_distribution(vocab_tokens, inp_tokens, copy_scores, gen_scores):
    """One copy+generate decoder step as dicts keyed by surface token.

    Generate mass is laid out over the vocabulary, then each input
    position's copy mass is added to its token in input order; input
    tokens outside the vocabulary are appended in first-occurrence order.
    Returns (probs, copy_probs, p_copy, p_gen).
    """
    shift = max(copy_scores.max(), gen_scores.max())
    e_copy = np.exp(copy_scores - shift)
    e_gen = np.exp(gen_scores - shift)
    z = e_copy.sum() + e_gen.sum()
    probs = dict(zip(vocab_tokens, (e_gen / z).tolist()))
    copy_probs = {}
    for j, tok in enumerate(inp_tokens):
        w = float(e_copy[j]) / z
        probs[tok] = probs.get(tok, 0.0) + w
        copy_probs[tok] = copy_probs.get(tok, 0.0) + w
    return probs, copy_probs, float(e_copy.sum() / z), float(e_gen.sum() / z)


def reference_generate_share(n_tokens, copy_scores, gen_scores):
    """Each extended-vocabulary token's generate share, normalized as in
    ``reference_step_distribution``: zero past the vocabulary, so a step's
    probabilities less this array are its copy shares."""
    shift = max(copy_scores.max(), gen_scores.max())
    e_gen = np.exp(gen_scores - shift)
    share = np.zeros(n_tokens)
    share[: len(e_gen)] = e_gen / (np.exp(copy_scores - shift).sum() + e_gen.sum())
    return share


def reference_selective_read(y_prev, memory, inp_tokens, psi_prev):
    """Selective read by scanning the input for ``y_prev`` (arrays in, array out).

    Softmax of the matching positions' copy scores (through logsumexp, as
    the tape computes it) times their memory rows; zeros when nothing
    matches or no copy scores exist yet.
    """
    matches = [k for k, tok in enumerate(inp_tokens) if tok == y_prev]
    if psi_prev is None or not matches:
        return np.zeros(memory.shape[1])
    scores = psi_prev[matches]
    shift = scores.max()
    log_z = np.log(np.exp(scores - shift).sum()) + shift
    return np.exp(scores - log_z) @ memory[matches]


def reference_target_indices(vocab_tokens, inp_tokens, target):
    """Indices into [copy scores ++ generate scores] that emit ``target``, by scanning.

    Every input position holding it, then its vocabulary id; a token
    found nowhere maps to the <unk> id (1).
    """
    n = len(inp_tokens)
    idxs = [j for j, tok in enumerate(inp_tokens) if tok == target]
    if target in vocab_tokens:
        idxs.append(n + list(vocab_tokens).index(target))
    return idxs or [n + 1]


@dataclass
class _Hypothesis:
    tokens: tuple[str, ...]
    logp: float
    steps: int
    label: int  # the copy/generate label of the last token, fed with it at the next step
    state: object

    @property
    def score(self) -> float:
        return self.logp / max(1, self.steps)


def reference_beam_decode(step, state, tokens, sep, eos, beam, max_len):
    """Length-normalized beam search that advances one hypothesis at a time.

    ``step(state, y_prev, label)`` advances one hypothesis and returns
    (next state, probabilities over the extended vocabulary ``tokens``,
    label of the token it emits); ``state`` is the first decoder state.
    Candidates are gathered hypothesis by hypothesis, each in its stable
    ranking, then stably sorted by length-normalized score.
    """
    alive = [_Hypothesis(tokens=(), logp=0.0, steps=0, label=0, state=state)]
    finished: list[_Hypothesis] = []
    for _ in range(max_len):
        candidates = []
        for hyp in alive:
            y_prev = hyp.tokens[-1] if hyp.tokens else sep
            state, probs, label = step(hyp.state, y_prev, hyp.label)
            for k in np.argsort(-probs, kind="stable")[:beam]:
                logp = hyp.logp + np.log(probs[k])
                candidates.append((logp / (hyp.steps + 1), logp, hyp, state, tokens[k], label))
        candidates.sort(key=lambda c: -c[0])
        alive = []
        for _, logp, parent, state, token, label in candidates[:beam]:
            if token == eos:
                finished.append(_Hypothesis(parent.tokens, logp, parent.steps + 1, label, state))
            else:
                alive.append(_Hypothesis(parent.tokens + (token,), logp, parent.steps + 1, label, state))
        if not alive:
            break
    finished.extend(alive)
    return max(finished, key=lambda h: h.score).tokens  # the first of equal scores wins


def reference_generator_beam(model, inp, beam, max_len):
    """``reference_beam_decode`` over one-row ``decode_step`` calls of a package generator, whose
    memory comes from the tape's ``encode_input``."""
    from idiomatize.corpus import EOS, SEP
    from idiomatize.generator import (
        decode_context, decode_init, decode_step, encode_input, infer_label, step_distribution,
    )

    ctx = decode_context(model, inp, encode_input(model, inp))

    def step(state, y_prev, label):
        state = decode_step(model, ctx, state, [y_prev], np.array([label]))
        dist = step_distribution(ctx, state.copy_scores.data, state.gen_scores.data)
        return state, dist.probs[0], infer_label(dist)[0]

    return reference_beam_decode(step, decode_init(model, ctx), ctx.tokens, SEP, EOS, beam, max_len)


def reference_teacher_forced_pass(model, inp, reference):
    """Teacher forcing of one instance on the tape, one [1,·] row per step over a context of its own:
    (summed NLL, steps, steps whose most probable token is the one their target's indices emit).

    The per-instance pass that training ran before it teacher-forced each minibatch as one batch
    context; ``teacher_forced_batch`` of a minibatch must give the sum of these.
    """
    from idiomatize.corpus import EOS, SEP
    from idiomatize.generator import (
        _target_indices, decode_context, decode_init, decode_step, encode_input, step_distribution,
    )
    from idiomatize.numerics import concat, logsumexp

    if not reference:
        raise ValueError("empty reference")
    ctx = decode_context(model, inp, encode_input(model, inp))
    state, y_prev, l_prev = decode_init(model, ctx), SEP, 0
    loss = None
    steps = correct = 0
    for target in list(reference) + [EOS]:
        state = decode_step(model, ctx, state, [y_prev], np.array([l_prev]))
        idxs, emitted = _target_indices(model.vocab, ctx, target)
        all_scores = concat([state.copy_scores, state.gen_scores])[0]
        step_nll = logsumexp(all_scores) - logsumexp(all_scores[idxs])
        loss = step_nll if loss is None else loss + step_nll
        steps += 1
        probs = step_distribution(ctx, state.copy_scores.data, state.gen_scores.data).probs[0]
        correct += ctx.tokens[int(np.argmax(probs))] == emitted
        y_prev, l_prev = target, 1 if (model.guided and target in ctx.positions) else 0
    return loss, steps, correct


RETRIEVAL_TIE_TOLERANCE = 1e-12


def reference_transform(models, lexicon, tokens, config):
    """``transform_tokens`` composed from the slow reference paths of each stage.

    Retrieval scores every candidate key on its own on the tape
    (``score_pair``) and picks the winner by ``reference_retrieve_top1``'s
    tie rule, with lexicon positions as idiom ids.  Extraction runs
    ``crf_viterbi`` and ``repair_labels`` on the tape's unary scores.
    Generation runs ``reference_beam_decode`` over one-row ``decode_step``
    calls, or splices the idiom over the span for ``rule_based``.

    Returns a list of ``TransformResult``: the tie rule's winner first, then
    one for every other candidate that scores within
    ``RETRIEVAL_TIE_TOLERANCE`` of it (only the first of equal scores).
    ``transform``'s scores are row products, so they do not depend on the
    other keys, but its batched pass sums the pooled states in another
    order than ``score_pair`` (the sentence's states, then the key's, in
    place of one sum over [sentence, <sep>, key]).  The two scores may then
    differ in their last bits, so a near-tie may go either way.
    """
    from idiomatize.extractor import crf_viterbi, repair_labels, unary_scores
    from idiomatize.generator import build_generator_input
    from idiomatize.pipeline import TransformResult
    from idiomatize.retrieval import score_pair

    tokens = tuple(tokens)
    by_definition = config.retrieval_key == "definition"

    def extract(definition):
        extractor = models.extractor
        unary = unary_scores(extractor, [(tokens, definition)])[0].data
        path, score = crf_viterbi(unary, extractor.transitions.data, extractor.start.data, extractor.end.data)
        return repair_labels(path, unary), score

    def retrieve(sentence):
        candidates = [
            (position, sense, key)
            for position, entry in enumerate(lexicon)
            for sense, key in (enumerate(entry.senses) if by_definition else [(0, entry.surface)])
        ]
        scores = {key: score_pair(models.retrieval, sentence, key) for _, _, key in candidates}
        winner = reference_retrieve_top1(scores.__getitem__, candidates)
        winners, seen = [winner], {winner[2]}
        for position, sense, key in candidates:
            if scores[key] not in seen and winner[2] - scores[key] <= RETRIEVAL_TIE_TOLERANCE:
                winners.append((position, sense, scores[key]))
                seen.add(scores[key])
        return [(lexicon[position], sense, score) for position, sense, score in winners]

    def generate(entry, span):
        if config.generator_mode == "rule_based":
            return tokens if span is None else tokens[: span[0]] + tuple(entry.surface) + tokens[span[1] :]
        inp = build_generator_input(entry.surface, tokens, span, config.generator_mode == "guided")
        return reference_generator_beam(models.generator, inp, config.beam, config.max_len)

    results = []
    if config.order == "retrieve_then_extract":
        for entry, sense, r_score in retrieve(tokens):
            span, e_score = extract(entry.senses[sense])
            results.append((entry, sense, r_score, span, e_score))
    else:
        span, e_score = extract(())
        for entry, sense, r_score in retrieve(tokens[slice(*span)] if span else tokens):
            results.append((entry, sense, r_score, span, e_score))
    return [
        TransformResult(tokens, entry.id, sense, span, generate(entry, span), {"retrieval": r, "extraction": e})
        for entry, sense, r, span, e in results
    ]


# 20 hypothesis/reference pairs exercising clipping, brevity, repeats,
# reordering, and length extremes; shared by the metric oracle tests.
METRIC_PAIRS: list[tuple[list[str], list[str]]] = [
    (["the", "cat", "sat", "on", "the", "mat"], ["the", "cat", "sat", "on", "the", "mat"]),
    (["a", "quick", "brown", "fox"], ["the", "quick", "brown", "fox"]),
    (["he", "ran", "for", "cover", "fast"], ["he", "ran", "for", "cover"]),
    (["she", "spilled", "the", "beans"], ["she", "spilled", "all", "the", "beans", "yesterday"]),
    (["one"], ["one"]),
    (["one"], ["two"]),
    (["x", "y", "z"], ["p", "q", "r"]),
    (["the", "the", "the", "the"], ["the", "cat"]),
    (["to", "be", "or", "not", "to", "be"], ["to", "be", "or", "not", "to", "be", "that", "is"]),
    (["b", "a"], ["a", "b"]),
    (["the", "storm", "broke", "over", "the", "hills", "at", "dawn"],
     ["the", "storm", "broke", "at", "dawn", "over", "the", "hills"]),
    (["i", "think", "it", "makes", "sense", "now", "."], ["it", "makes", "sense", "."]),
    (["under", "the", "weather"], ["feeling", "under", "the", "weather", "today"]),
    (["keep", "calm", "and", "carry", "on"], ["keep", "calm", "and", "carry", "on", "!"]),
    (["a", "b", "c", "d", "e", "f", "g", "h"], ["a", "c", "b", "d", "f", "e", "h", "g"]),
    (["repeat", "repeat", "repeat"], ["repeat"]),
    (["long"] * 25, ["long"] * 20),
    (["short"], ["quite", "a", "lot", "longer", "than", "the", "hypothesis"]),
    (["mixed", "bag", "of", "words", "with", "some", "overlap"],
     ["bag", "of", "tricks", "with", "much", "overlap"]),
    (["eos", "."], ["eos", ".", "and", "more"]),
]
