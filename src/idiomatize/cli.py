"""Command-line interface.

Subcommands: ingest, train, transform, evaluate, gradcheck.

Exit codes: 0 success, 1 usage error (a numeric flag out of range among
them), 2 data error (missing or malformed files, bad configs/checkpoints,
an output file that cannot be written), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from typing import Callable

from .checks import ALL_CHECKS
from .corpus import (
    CorpusError,
    build_vocab,
    load_lexicon,
    load_pairs,
    read_text,
    split_corpus,
)
from .extractor import ExtractorModel, train_extractor
from .generator import GeneratorModel, train_generator
from .numerics import NumericError
from .pipeline import (
    CheckpointError,
    Dataset,
    PipelineConfig,
    evaluate,
    generator_training_data,
    load_dataset,
    load_pipeline_models,
    save_checkpoint,
    transform,
    write_dataset,
)
from .retrieval import KEY_MODES, RetrievalModel, train_retrieval

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _bounded(kind: type, rule: str, ok: Callable[[float], bool]) -> Callable[[str], float]:
    """An argparse type: the text as a ``kind`` that passes ``ok``, else a usage error at parse time.

    NaN fails every rule, since every comparison with it is false.
    """
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


_RATE = _bounded(float, "a finite number > 0", lambda v: 0 < v < math.inf)
_TOLERANCE = _bounded(float, "a non-negative number", lambda v: v >= 0)
_COUNT = _bounded(int, "an integer >= 0", lambda v: v >= 0)
_SIZE = _bounded(int, "an integer >= 1", lambda v: v >= 1)
_SEED = _bounded(int, "an integer in [0, 2**64)", lambda v: 0 <= v < 2**64)


def _build_parser() -> _Parser:
    parser = _Parser(prog="idiomatize", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="split a parallel corpus and build the vocabulary")
    p.add_argument("--lexicon", required=True, help="idiom lexicon (jsonl)")
    p.add_argument("--pairs", required=True, help="parallel pairs (jsonl)")
    p.add_argument("--pairs-aug", help="augmented pairs appended to the train split (jsonl)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument(
        "--annotated",
        help="file of idiom ids (one per line) eligible for validation/test; default: all",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("train", help="train one pipeline component")
    p.add_argument("component", choices=("retrieval", "extractor", "generator"))
    p.add_argument("--data", required=True, help="dataset directory from ingest")
    p.add_argument("--out", required=True, help="checkpoint path (json)")
    p.add_argument("--epochs", type=_COUNT, default=10)
    p.add_argument("--lr", type=_RATE, default=1e-3)
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--embed-dim", type=_SIZE, help="retrieval/extractor only; default: the model's")
    p.add_argument("--hidden", type=_SIZE, help="default: the model's")
    p.add_argument("--key", choices=KEY_MODES, default="definition",
                   help="retrieval only: candidate key")
    p.add_argument("--negatives", type=_COUNT, default=100,
                   help="retrieval only: negatives per positive")
    p.add_argument("--mode", choices=("guided", "unguided"), default="guided",
                   help="generator only")
    p.add_argument("--batch", type=_SIZE, default=32, help="instances per Adam step")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("transform", help="rewrite literal sentences (one per input line)")
    p.add_argument("--config", required=True, help="pipeline config (json)")
    p.add_argument("--lexicon", required=True, help="idiom lexicon (jsonl)")
    p.add_argument("--ckpt-dir", required=True,
                   help="directory with retrieval.json/extractor.json/generator.json")
    p.add_argument("--input", help="literal sentence; default: one sentence per stdin line")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("evaluate", help="score the pipeline on a dataset split")
    p.add_argument("--config", required=True, help="pipeline config (json)")
    p.add_argument("--data", required=True, help="dataset directory from ingest")
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--module", choices=sorted(ALL_CHECKS), help="default: all three")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--tolerance", type=_TOLERANCE, default=GRADCHECK_TOLERANCE)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def _cmd_ingest(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    pairs = load_pairs(args.pairs, lexicon)
    aug = load_pairs(args.pairs_aug, lexicon) if args.pairs_aug else []
    if args.annotated:
        annotated = tuple(line.strip() for line in read_text(args.annotated).split("\n") if line.strip())
        known = {e.id for e in lexicon}
        unknown = sorted(set(annotated) - known)
        if unknown:
            raise CorpusError(f"{args.annotated}: unknown idiom ids {unknown}")
    else:
        annotated = tuple(e.id for e in lexicon)
    split = split_corpus(pairs, annotated, args.seed)
    split = replace(split, train=split.train + tuple(aug))  # augmented pairs join the train split only
    vocab = build_vocab(list(pairs) + list(aug), lexicon)
    write_dataset(args.out, Dataset(lexicon=lexicon, split=split, vocab=vocab, annotated_ids=annotated))
    logging.info(
        "wrote %s: train=%d validation=%d test=%d vocab=%d",
        args.out, len(split.train), len(split.validation), len(split.test), len(vocab),
    )
    return 0


def _cmd_train(args) -> int:
    if os.path.isdir(args.out) or args.out.endswith(("/", os.sep)):  # fail before any training, not after
        raise CheckpointError(f"{args.out}: names a directory, not a checkpoint file")
    try:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    except OSError as err:
        raise CheckpointError(f"{args.out}: cannot make its directory ({err.strerror})") from err
    ds = load_dataset(args.data)
    # Only the sizes given here; the model classes hold the defaults.
    sizes = {k: v for k, v in (("embed_dim", args.embed_dim), ("hidden", args.hidden)) if v is not None}
    if args.component == "retrieval":
        model = RetrievalModel(ds.vocab, **sizes, seed=args.seed)
        train_retrieval(
            model, ds.split.train, ds.lexicon,
            epochs=args.epochs, negatives_per_positive=args.negatives, lr=args.lr,
            seed=args.seed, key_mode=args.key, validation=ds.split.validation,
            batch_size=args.batch,
        )
    elif args.component == "extractor":
        model = ExtractorModel(ds.vocab, **sizes, seed=args.seed)
        train_extractor(
            model, ds.split.train, ds.lexicon,
            epochs=args.epochs, lr=args.lr, seed=args.seed, validation=ds.split.validation,
            batch_size=args.batch,
        )
    else:
        guided = args.mode == "guided"
        model = GeneratorModel(ds.vocab, **sizes, guided=guided, seed=args.seed)
        train_generator(
            model,
            generator_training_data(ds.split.train, ds.lexicon, guided),
            epochs=args.epochs, batch_size=args.batch, lr=args.lr, seed=args.seed,
            validation=generator_training_data(ds.split.validation, ds.lexicon, guided),
        )
    save_checkpoint(model, args.out)
    logging.info("saved %s checkpoint to %s", args.component, args.out)
    return 0


def _cmd_transform(args) -> int:
    config = PipelineConfig.from_file(args.config)
    lexicon = load_lexicon(args.lexicon)
    models = load_pipeline_models(args.ckpt_dir, config)
    # An explicit --input must hold a sentence; blank stdin lines are skipped.
    # Each stdin line is transformed and printed as it arrives, not at EOF.
    lines = [args.input] if args.input is not None else (line for line in sys.stdin if line.strip())
    for line in lines:
        result = transform(models, lexicon, line, config)
        print(json.dumps(result.to_dict(), ensure_ascii=False), flush=True)
    return 0


def _cmd_evaluate(args) -> int:
    config = PipelineConfig.from_file(args.config)
    ds = load_dataset(args.data)
    models = load_pipeline_models(args.ckpt_dir, config)
    pairs = getattr(ds.split, args.split)
    report = evaluate(models, pairs, ds.lexicon, config)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    _print_report_table(report)
    return 0


def _print_report_table(report) -> None:
    """Human-readable 0-100 scaled summary on stderr."""
    rows = [
        ("bleu", report.bleu),
        ("rouge1", report.rouge1),
        ("rouge2", report.rouge2),
        ("rougeL", report.rougeL),
        ("meteor", report.meteor),
        ("span_f1", report.span_f1),
        ("retrieval_acc", report.retrieval_accuracy),
        ("idiom_part_acc", report.idiom_part_acc),
        ("non_idiom_part_acc", report.non_idiom_part_acc),
    ]
    for level in sorted(report.by_rigidity, key=str):
        rows.append((f"bleu@rigidity={level}", report.by_rigidity[level]))
    width = max(len(name) for name, _ in rows)
    print(f"instances: {report.num_instances}", file=sys.stderr)
    for name, value in rows:
        print(f"{name:<{width}}  {100.0 * value:6.2f}", file=sys.stderr)


def _cmd_gradcheck(args) -> int:
    names = [args.module] if args.module else sorted(ALL_CHECKS)
    worst = 0.0
    for name in names:
        err = ALL_CHECKS[name](seed=args.seed)
        print(f"{name}: max relative gradient error {err:.3e}")
        worst = max(worst, err)
    if worst > args.tolerance:
        print(f"gradcheck failed: {worst:.3e} > {args.tolerance:.1e}", file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "component", None) == "generator" and args.embed_dim is not None:
        parser.error("--embed-dim applies to retrieval and extractor only, not generator")
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:  # CorpusError, CheckpointError and JSONDecodeError among them
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
