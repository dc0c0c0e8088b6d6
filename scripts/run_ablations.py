#!/usr/bin/env python3
"""Train on the bundled demo corpus and compare pipeline ablations.

Usage: python scripts/run_ablations.py [--workdir DIR]

Variants:
  - generator: guided copy decoder vs unguided (span hidden, indicators
    zeroed) vs rule-based splice
  - stage order: retrieve-then-extract vs extract-then-retrieve
  - retrieval key: dictionary definitions vs the idiom surface itself
    (each gets its own retrieval model, trained with the matching key)

Every variant is evaluated on the 32 training pairs, so the absolute
numbers are a memorization check; the point is the relative ordering.
Expect roughly ten minutes single-threaded.  Seeded end to end.
"""

import argparse
import json
import logging
import os
import time

from idiomatize import (
    ExtractorModel,
    GeneratorModel,
    PipelineConfig,
    PipelineModels,
    RetrievalModel,
    build_vocab,
    evaluate,
    generator_training_data,
    train_extractor,
    train_generator,
    train_retrieval,
)
from idiomatize.corpus import write_text
from idiomatize.toydata import demo_lexicon, demo_pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="ablation_run", help="report output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--retrieval-epochs", type=int, default=60)
    parser.add_argument("--generator-epochs", type=int, default=300)
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    os.makedirs(args.workdir, exist_ok=True)

    lexicon = demo_lexicon()
    pairs = demo_pairs()
    vocab = build_vocab(pairs, lexicon)
    t0 = time.time()

    retrievers = {}
    for key in ("definition", "idiom"):
        model = RetrievalModel(vocab, embed_dim=64, hidden=64, seed=args.seed)
        train_retrieval(
            model, pairs, lexicon,
            epochs=args.retrieval_epochs, negatives_per_positive=10, lr=5e-3,
            seed=args.seed, batch_size=4, key_mode=key,
            validation=pairs, eval_every=args.retrieval_epochs,
        )
        retrievers[key] = model

    extractor = ExtractorModel(vocab, embed_dim=64, hidden=64, seed=args.seed)
    train_extractor(
        extractor, pairs, lexicon,
        epochs=60, lr=3e-3, seed=args.seed, batch_size=4,
        validation=pairs, eval_every=2, stop_at_f1=0.999,
    )

    generators = {}
    for guided in (True, False):
        model = GeneratorModel(
            vocab, word_dim=64, copy_dim=16, label_dim=16, hidden=64,
            guided=guided, seed=args.seed,
        )
        train_generator(
            model, generator_training_data(pairs, lexicon, guided),
            epochs=args.generator_epochs, batch_size=8, lr=5e-3, seed=args.seed,
            stop_at_token_accuracy=0.998,
        )
        generators[guided] = model
    print(f"training took {time.time() - t0:.0f}s")

    variants = [
        ("guided", "definition", "retrieve_then_extract", "guided"),
        ("unguided (span removed)", "definition", "retrieve_then_extract", "unguided"),
        ("rule-based splice", "definition", "retrieve_then_extract", "rule_based"),
        ("extract-then-retrieve", "definition", "extract_then_retrieve", "guided"),
        ("idiom-surface key", "idiom", "retrieve_then_extract", "guided"),
    ]
    reports = {}
    for name, key, order, mode in variants:
        config = PipelineConfig(
            order=order, retrieval_key=key, generator_mode=mode, seed=args.seed
        )
        models = PipelineModels(
            retrieval=retrievers[key],
            extractor=extractor,
            generator=None if mode == "rule_based" else generators[mode == "guided"],
        )
        reports[name] = evaluate(models, pairs, lexicon, config)

    header = f"{'variant':<26} {'BLEU':>6} {'ROUGE-2':>8} {'span F1':>8} {'retr acc':>9}"
    print("\n" + header)
    print("-" * len(header))
    for name, report in reports.items():
        print(
            f"{name:<26} {100 * report.bleu:6.2f} {100 * report.rouge2:8.2f} "
            f"{100 * report.span_f1:8.2f} {100 * report.retrieval_accuracy:9.2f}"
        )

    out = os.path.join(args.workdir, "ablations.json")
    write_text(out, [json.dumps({k: v.to_dict() for k, v in reports.items()}, indent=2, sort_keys=True)])
    print(f"\nfull reports written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
