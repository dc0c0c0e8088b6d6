#!/usr/bin/env python3
"""Train the three pipeline stages on the bundled demo corpus and rewrite
a couple of sentences end to end.

Usage: python scripts/run_demo.py [--workdir DIR] [--epochs-scale X]

Everything is seeded; rerunning reproduces the same checkpoints and
outputs bit for bit.  With the default budget this takes a few minutes
on one core; the generator and extractor overfit the 32-pair corpus,
retrieval gets most of the way there.
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
    save_checkpoint,
    train_extractor,
    train_generator,
    train_retrieval,
    transform,
)
from idiomatize.corpus import write_text
from idiomatize.toydata import demo_lexicon, demo_pairs

EXAMPLES = [
    "The visitors headed for shelter when it started to rain.",
    "She woke up early in the morning and started thinking deeply over things.",
    "Solve this complicated problem with one bold move.",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_run", help="checkpoint/output directory")
    parser.add_argument("--retrieval-epochs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    os.makedirs(args.workdir, exist_ok=True)

    lexicon = demo_lexicon()
    pairs = demo_pairs()
    vocab = build_vocab(pairs, lexicon)
    print(f"{len(lexicon)} idioms, {len(pairs)} pairs, vocabulary {len(vocab)}")

    t0 = time.time()
    retrieval = RetrievalModel(vocab, embed_dim=64, hidden=64, seed=args.seed)
    train_retrieval(
        retrieval, pairs, lexicon,
        epochs=args.retrieval_epochs, negatives_per_positive=10, lr=5e-3,
        seed=args.seed, batch_size=4,
    )
    extractor = ExtractorModel(vocab, embed_dim=64, hidden=64, seed=args.seed)
    train_extractor(
        extractor, pairs, lexicon,
        epochs=60, lr=3e-3, seed=args.seed, batch_size=4,
        validation=pairs, eval_every=2, stop_at_f1=0.999,
    )
    generator = GeneratorModel(
        vocab, word_dim=64, copy_dim=16, label_dim=16, hidden=64, guided=True, seed=args.seed
    )
    train_generator(
        generator, generator_training_data(pairs, lexicon, guided=True),
        epochs=300, batch_size=8, lr=5e-3, seed=args.seed, stop_at_token_accuracy=0.998,
    )
    print(f"training took {time.time() - t0:.0f}s")

    for model, name in ((retrieval, "retrieval"), (extractor, "extractor"), (generator, "generator")):
        save_checkpoint(model, os.path.join(args.workdir, f"{name}.json"))

    config = PipelineConfig(seed=args.seed)
    write_text(os.path.join(args.workdir, "config.json"), [json.dumps(config.to_dict(), indent=2)])
    models = PipelineModels(retrieval=retrieval, extractor=extractor, generator=generator)

    print("\nsample rewrites:")
    for sentence in EXAMPLES:
        result = transform(models, lexicon, sentence, config)
        print(f"  in : {sentence}")
        print(f"  out: {' '.join(result.output)}   [{result.idiom_id}, span={result.span}]")

    report = evaluate(models, pairs, lexicon, config)
    print("\ntraining-set metrics (0-1 scale):")
    for key, value in sorted(report.to_dict().items()):
        if isinstance(value, float):
            print(f"  {key:<20} {value:.4f}")
    write_text(os.path.join(args.workdir, "report.json"), [json.dumps(report.to_dict(), indent=2, sort_keys=True)])
    print(f"\ncheckpoints and report written under {args.workdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
