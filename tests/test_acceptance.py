"""Acceptance gate: ten checks, one recorded PASS/FAIL line each.

Each test asserts its criterion (so the suite goes red when one fails)
except the ablation-direction check, which is informational and only
records its outcome.
"""

from __future__ import annotations

import random
import time

import numpy as np

from idiomatize import (
    PipelineConfig,
    evaluate,
    generator_training_data,
    save_checkpoint,
    train_extractor,
    train_generator,
    train_retrieval,
)
from idiomatize.checks import ALL_CHECKS
from idiomatize.extractor import (
    ExtractorModel,
    crf_log_marginals,
    crf_log_partition,
    crf_viterbi,
)
from idiomatize.generator import (
    GeneratorModel,
    beam_decode,
    build_generator_input,
    decode_context,
    encode_input,
    rule_based_generate,
    selective_read,
    step_distribution,
    teacher_forced_accuracy,
)
from idiomatize.corpus import RESERVED, Vocabulary
from idiomatize.metrics import bleu, meteor, part_accuracy, rouge
from idiomatize.numerics import Tensor, matvec
from idiomatize.pipeline import PipelineModels
from idiomatize.retrieval import RetrievalModel

from oracles import (
    METRIC_PAIRS,
    brute_force_crf,
    reference_bleu,
    reference_generate_share,
    reference_rouge_l,
    reference_rouge_n,
)


def test_gradient_suite(record_criterion):
    started = time.perf_counter()
    worst = max(check(seed=0) for check in ALL_CHECKS.values())
    wall = time.perf_counter() - started
    ok = worst <= 1e-4 and wall < 60.0
    record_criterion(
        1, ok, f"gradcheck max rel err {worst:.2e} (<=1e-4) in {wall:.1f}s (<60s)"
    )
    assert ok


def test_crf_matches_brute_force(record_criterion):
    rng = random.Random(0)
    k = 3
    worst = 0.0
    paths_match = True
    for _ in range(100):
        n = rng.randint(1, 6)
        unary = np.array([[rng.uniform(-2, 2) for _ in range(k)] for _ in range(n)])
        trans = np.array([[rng.uniform(-2, 2) for _ in range(k)] for _ in range(k)])
        start = np.array([rng.uniform(-2, 2) for _ in range(k)])
        end = np.array([rng.uniform(-2, 2) for _ in range(k)])
        ref_z, ref_path, ref_score, ref_marg = brute_force_crf(unary, trans, start, end)
        log_z = float(crf_log_partition(unary[None], trans, start, end, [n])[0])
        marg = np.exp(crf_log_marginals(unary[None], trans, start, end, [n]).log_marginals[0])
        path, score = crf_viterbi(unary, trans, start, end)
        worst = max(
            worst,
            abs(log_z - ref_z),
            abs(score - ref_score),
            float(np.abs(marg - np.array(ref_marg)).max()),
        )
        paths_match = paths_match and path == ref_path
    ok = worst <= 1e-10 and paths_match
    record_criterion(
        2, ok, f"100 instances vs enumeration: max |diff| {worst:.1e} (<=1e-10), "
        f"viterbi paths {'all equal' if paths_match else 'DIFFER'}"
    )
    assert ok


def test_distribution_validity(record_criterion):
    vocab = Vocabulary(RESERVED + tuple(f"w{i}" for i in range(16)))
    model = GeneratorModel(
        vocab, word_dim=12, copy_dim=6, label_dim=6, hidden=12, seed=0
    )
    rng = random.Random(1)
    npr = np.random.default_rng(1)
    pool = []
    for _ in range(20):
        idiom = tuple(rng.choice(vocab.tokens[4:]) for _ in range(rng.randint(1, 3)))
        literal = tuple(
            rng.choice(vocab.tokens[4:] + ("oov1", "oov2"))
            for _ in range(rng.randint(2, 8))
        )
        s = rng.randrange(len(literal))
        e = rng.randint(s + 1, len(literal))
        inp = build_generator_input(idiom, literal, (s, e), guided=True)
        ctx = decode_context(model, inp, encode_input(model, inp))
        pool.append((inp, ctx))
    worst_sum = 0.0
    worst_split = 0.0
    leaked = False
    for trial in range(1000):
        inp, ctx = pool[trial % len(pool)]
        h = Tensor(npr.normal(scale=2.0, size=(1, 12)))
        copy_s, gen_s = matvec(ctx.copy_keys, h).data[0], matvec(model.w_gen, h).data[0]
        dist = step_distribution(ctx, copy_s[None], gen_s[None])
        worst_sum = max(worst_sum, abs(dist.probs[0].sum() - 1.0))
        worst_split = max(worst_split, abs(dist.p_copy[0] + dist.p_gen[0] - 1.0))
        copy_shares = dist.probs[0] - reference_generate_share(len(ctx.tokens), copy_s, gen_s)
        leaked = leaked or not {t for t, c in zip(ctx.tokens, copy_shares) if c} <= set(inp.tokens)
    ok = worst_sum <= 1e-6 and worst_split <= 1e-6 and not leaked
    record_criterion(
        3, ok, f"1000 states: max |sum(p)-1| {worst_sum:.1e}, "
        f"max |p_copy+p_gen-1| {worst_split:.1e}, "
        f"copy mass on absent tokens: {'yes' if leaked else 'none'}"
    )
    assert ok


def test_selective_read_property(record_criterion):
    vocab = Vocabulary(RESERVED + ("a", "b", "c", "d"))
    model = GeneratorModel(vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, seed=0)
    inp = build_generator_input(("a", "b"), ("c", "d", "c"), (0, 2), guided=True)
    ctx = decode_context(model, inp, encode_input(model, inp))
    memory = ctx.memory
    psi = Tensor(np.linspace(-1.0, 1.0, memory.shape[0])[None])
    absent = selective_read(ctx, ["zzz"], psi)
    first_step = selective_read(ctx, ["a"], None)
    unique = selective_read(ctx, ["d"], psi)
    zero_ok = not absent.data.any() and not first_step.data.any()
    row = inp.tokens.index("d")
    unique_ok = np.array_equal(unique.data[0], memory.data[row])
    ok = zero_ok and unique_ok
    record_criterion(
        4, ok, f"absent/first-step reads exactly zero: {zero_ok}; "
        f"unique match returns its memory state exactly: {unique_ok}"
    )
    assert ok


def test_overfit_reproduction(record_criterion, overfit_generator, demo):
    _, pairs = demo
    model = overfit_generator["model"]
    data = overfit_generator["data"]
    epochs = len(overfit_generator["history"]["epoch_losses"])
    wall = overfit_generator["wall_seconds"]
    token_acc = teacher_forced_accuracy(model, data)
    exact = sum(
        beam_decode(model, inp, beam=1, max_len=40) == tuple(ref) for inp, ref in data
    )
    exact_rate = exact / len(data)
    targets = [
        "the visitors ran for cover when it started to rain .",
        "she woke up early in the morning and started mulling things over .",
    ]
    verbatim = True
    for target in targets:
        i = next(
            idx for idx, p in enumerate(pairs) if " ".join(p.idiomatic) == target
        )
        out = beam_decode(model, data[i][0], beam=4, max_len=40)
        verbatim = verbatim and out == pairs[i].idiomatic
    ok = (
        token_acc >= 0.95
        and exact_rate >= 0.90
        and epochs <= 300
        and wall < 300.0
        and verbatim
    )
    record_criterion(
        5, ok, f"token acc {token_acc:.3f} (>=0.95), greedy exact {exact_rate:.2f} "
        f"(>=0.90), {epochs} epochs (<=300), {wall:.0f}s (<300s), "
        f"reference outputs verbatim: {verbatim}"
    )
    assert ok


def test_rule_based_exactness(record_criterion, demo):
    lexicon, pairs = demo
    by_id = {e.id: e for e in lexicon}
    outputs = []
    splice_ok = True
    for pair in pairs:
        surface = by_id[pair.idiom_id].surface
        out = rule_based_generate(pair.literal, pair.span, surface)
        s, e = pair.span
        splice_ok = splice_ok and out == pair.literal[:s] + surface + pair.literal[e:]
        outputs.append(out)
    _, non_idiom = part_accuracy(
        outputs,
        [p.literal for p in pairs],
        [by_id[p.idiom_id].surface for p in pairs],
        [p.span for p in pairs],
    )
    ok = splice_ok and non_idiom == 1.0
    record_criterion(
        6, ok, f"splice equality on all {len(pairs)} pairs: {splice_ok}; "
        f"non-idiom part accuracy {non_idiom:.3f} (=1.0)"
    )
    assert ok


def test_synthetic_separable_tasks(
    record_criterion, synthetic_retrieval, sentinel_extractor
):
    accs = [
        a for a in synthetic_retrieval["history"]["val_retrieval_accuracy"]
        if a is not None
    ]
    f1s = [f for f in sentinel_extractor["history"]["val_span_f1"] if f is not None]
    best_acc = max(accs)
    best_f1 = max(f1s)
    r_epochs = len(synthetic_retrieval["history"]["epoch_losses"])
    e_epochs = len(sentinel_extractor["history"]["epoch_losses"])
    ok = best_acc >= 0.95 and best_f1 >= 0.95 and r_epochs <= 50 and e_epochs <= 50
    record_criterion(
        7, ok, f"retrieval acc {best_acc:.3f} (>=0.95) in {r_epochs} epochs, "
        f"span F1 {best_f1:.3f} (>=0.95) in {e_epochs} epochs (both <=50)"
    )
    assert ok


def test_metric_oracles(record_criterion):
    worst = 0.0
    for hyp, ref in METRIC_PAIRS:
        worst = max(worst, abs(bleu([hyp], [ref]) - reference_bleu([hyp], [ref])))
        for n in (1, 2):
            worst = max(
                worst, abs(rouge(hyp, ref, str(n)) - reference_rouge_n(hyp, ref, n))
            )
        worst = max(worst, abs(rouge(hyp, ref, "L") - reference_rouge_l(hyp, ref)))
    single = abs(meteor(("cat",), ("cat",)) - 0.5)
    ten = abs(meteor(tuple("abcdefghij"), tuple("abcdefghij")) - 0.9995)
    ok = worst <= 1e-4 and single <= 1e-6 and ten <= 1e-6
    record_criterion(
        8, ok, f"BLEU/ROUGE vs reference: max |diff| {worst:.1e} (<=1e-4); "
        f"METEOR formula cases off by {max(single, ten):.1e} (<=1e-6)"
    )
    assert ok


def test_ablation_direction_reported(
    record_criterion,
    demo,
    demo_retrieval,
    overfit_extractor,
    overfit_generator,
    overfit_unguided_generator,
):
    lexicon, pairs = demo
    guided_models = PipelineModels(
        retrieval=demo_retrieval["model"],
        extractor=overfit_extractor["model"],
        generator=overfit_generator["model"],
    )
    unguided_models = PipelineModels(
        retrieval=demo_retrieval["model"],
        extractor=overfit_extractor["model"],
        generator=overfit_unguided_generator["model"],
    )
    guided = evaluate(
        guided_models, pairs, lexicon, PipelineConfig(generator_mode="guided")
    )
    unguided = evaluate(
        unguided_models, pairs, lexicon, PipelineConfig(generator_mode="unguided")
    )
    ok = guided.bleu >= unguided.bleu
    record_criterion(
        9, ok, f"guided BLEU {guided.bleu:.3f} vs unguided {unguided.bleu:.3f} "
        "(soft: reported, not gated)"
    )
    # Informational only: the direction is recorded but never fails the suite.


def test_determinism(record_criterion, demo, demo_vocab, tmp_path):
    lexicon, pairs = demo

    def train_all(tag):
        retrieval = RetrievalModel(demo_vocab, embed_dim=16, hidden=16, seed=0)
        train_retrieval(
            retrieval, pairs, lexicon,
            epochs=2, negatives_per_positive=5, lr=3e-3, seed=0, batch_size=8,
        )
        extractor = ExtractorModel(demo_vocab, embed_dim=16, hidden=16, seed=0)
        train_extractor(
            extractor, pairs, lexicon, epochs=2, lr=3e-3, seed=0, batch_size=8
        )
        generator = GeneratorModel(
            demo_vocab, word_dim=16, copy_dim=8, label_dim=8, hidden=16,
            guided=True, seed=0,
        )
        train_generator(
            generator, generator_training_data(pairs, lexicon, True),
            epochs=2, batch_size=8, lr=3e-3, seed=0,
        )
        paths = {}
        for name, model in (
            ("retrieval", retrieval), ("extractor", extractor), ("generator", generator)
        ):
            path = str(tmp_path / f"{tag}-{name}.json")
            save_checkpoint(model, path)
            paths[name] = path
        models = PipelineModels(
            retrieval=retrieval, extractor=extractor, generator=generator
        )
        config = PipelineConfig(beam=2, max_len=16)
        report = evaluate(models, pairs[:6], lexicon, config)
        return paths, report

    first_paths, first_report = train_all("a")
    second_paths, second_report = train_all("b")

    def read_bytes(path):
        with open(path, "rb") as fh:
            return fh.read()

    identical = all(
        read_bytes(first_paths[n]) == read_bytes(second_paths[n]) for n in first_paths
    )
    reports_equal = first_report.to_dict() == second_report.to_dict()
    ok = identical and reports_equal
    record_criterion(
        10, ok, f"retrained checkpoints byte-identical: {identical}; "
        f"evaluation reports equal: {reports_equal}"
    )
    assert ok
