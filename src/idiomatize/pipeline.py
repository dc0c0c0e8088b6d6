"""End-to-end pipeline: configuration, checkpoints, transform, evaluate.

A pipeline run retrieves an idiom for the input sentence, extracts the
literal span it should replace, and generates the idiomatic sentence.
Stage order, retrieval key and generator mode are configuration, so the
ablation variants are plain config edits rather than code changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import (
    CorpusError,
    IdiomEntry,
    ParallelPair,
    SplitCorpus,
    Vocabulary,
    load_lexicon,
    load_pairs,
    reject_reserved,
    resolve_pairs,
    save_lexicon,
    save_pairs,
    tokenize,
)
from .extractor import ExtractorModel, extract_span
from .generator import (
    GeneratorInput,
    GeneratorModel,
    beam_decode,
    build_generator_input,
    rule_based_generate,
)
from .metrics import (
    MetricReport,
    bleu,
    meteor,
    part_accuracy,
    retrieval_accuracy,
    rouge,
    span_f1,
    stratify_by_rigidity,
)
from .retrieval import KEY_MODES, RetrievalModel, entry_key, retrieve_top1

ORDERS = ("retrieve_then_extract", "extract_then_retrieve")
GENERATOR_MODES = ("guided", "unguided", "rule_based")

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Unreadable, mismatched or non-finite checkpoint."""


@dataclass
class PipelineConfig:
    order: str = "retrieve_then_extract"
    retrieval_key: str = "definition"
    generator_mode: str = "guided"
    beam: int = 4
    max_len: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}, got {self.order!r}")
        if self.retrieval_key not in KEY_MODES:
            raise ValueError(f"retrieval_key must be one of {KEY_MODES}, got {self.retrieval_key!r}")
        if self.generator_mode not in GENERATOR_MODES:
            raise ValueError(
                f"generator_mode must be one of {GENERATOR_MODES}, got {self.generator_mode!r}"
            )
        for name in ("beam", "max_len", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}: invalid JSON ({err.msg})") from err
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object, got {type(raw).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "retrieval_key": self.retrieval_key,
            "generator_mode": self.generator_mode,
            "beam": self.beam,
            "max_len": self.max_len,
            "seed": self.seed,
        }


_MODEL_CLASSES = {
    "retrieval": RetrievalModel,
    "extractor": ExtractorModel,
    "generator": GeneratorModel,
}


def save_checkpoint(model, path: str) -> None:
    """Write one model as a single JSON document."""
    tensors = {}
    for name, t in model.store.items():
        if not np.isfinite(t.data).all():
            raise CheckpointError(f"parameter {name!r} contains non-finite values")
        tensors[name] = {"shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "component": model.component,
        "hyperparameters": model.hyperparameters(),
        "vocabulary": list(model.vocab.tokens),
        "tensors": tensors,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path: str):
    """Rebuild a model from its checkpoint; strict about shapes and version."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise CheckpointError(f"{path}: not a valid checkpoint ({err})") from err
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint must be a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format_version {version!r} unsupported (expected {CHECKPOINT_VERSION})"
        )
    component = payload.get("component")
    cls = _MODEL_CLASSES.get(component)
    if cls is None:
        raise CheckpointError(f"{path}: unknown component {component!r}")
    try:
        vocab = Vocabulary(payload["vocabulary"])
        model = cls(vocab, **payload["hyperparameters"])
    except (KeyError, TypeError, CorpusError, ValueError) as err:
        raise CheckpointError(f"{path}: bad checkpoint structure ({err})") from err
    tensors = payload.get("tensors", {})
    if not isinstance(tensors, dict):
        raise CheckpointError(f"{path}: 'tensors' must be an object")
    expected = set(model.store.params)
    found = set(tensors)
    if expected != found:
        missing = sorted(expected - found)
        extra = sorted(found - expected)
        raise CheckpointError(f"{path}: tensor name mismatch (missing {missing}, extra {extra})")
    for name, spec in tensors.items():
        if not isinstance(spec, dict) or not {"shape", "values"} <= spec.keys():
            raise CheckpointError(f"{path}: tensor {name!r} needs a shape and values")
        param = model.store[name]
        try:
            shape = tuple(spec["shape"])
            values = np.asarray(spec["values"], dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"{path}: tensor {name!r} has a malformed shape or values ({err})") from err
        if shape != param.shape:
            raise CheckpointError(f"{path}: tensor {name!r} shape {shape} != {param.shape}")
        if values.size != param.data.size:
            raise CheckpointError(
                f"{path}: tensor {name!r} has {values.size} values, expected {param.data.size}"
            )
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {name!r} contains non-finite values")
        param.data = values.reshape(shape)
    return model


@dataclass
class PipelineModels:
    retrieval: RetrievalModel | None = None
    extractor: ExtractorModel | None = None
    generator: GeneratorModel | None = None


def load_pipeline_models(ckpt_dir: str, config: PipelineConfig) -> PipelineModels:
    """Load the checkpoints the configured pipeline needs from a directory."""
    models = PipelineModels()
    models.retrieval = load_checkpoint(os.path.join(ckpt_dir, "retrieval.json"))
    models.extractor = load_checkpoint(os.path.join(ckpt_dir, "extractor.json"))
    if config.generator_mode != "rule_based":
        models.generator = load_checkpoint(os.path.join(ckpt_dir, "generator.json"))
    _check_generator_mode(models, config)
    return models


def _check_generator_mode(models: PipelineModels, config: PipelineConfig) -> None:
    if config.generator_mode == "rule_based":
        return
    if models.generator is None:
        raise CheckpointError(f"generator checkpoint required for mode {config.generator_mode!r}")
    wants_guided = config.generator_mode == "guided"
    if models.generator.guided != wants_guided:
        raise CheckpointError(
            f"generator checkpoint was trained with guided={models.generator.guided}, "
            f"config asks for generator_mode={config.generator_mode!r}"
        )


@dataclass
class TransformResult:
    literal: tuple[str, ...]
    idiom_id: str
    sense_index: int
    span: tuple[int, int] | None
    output: tuple[str, ...]
    scores: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "literal": list(self.literal),
            "idiom_id": self.idiom_id,
            "sense_index": self.sense_index,
            "span": list(self.span) if self.span is not None else None,
            "output": list(self.output),
            "scores": self.scores,
        }


def transform_tokens(
    models: PipelineModels,
    lexicon: Sequence[IdiomEntry],
    tokens: Sequence[str],
    config: PipelineConfig,
) -> TransformResult:
    if not tokens:
        raise CorpusError("empty input sentence")
    reject_reserved(tokens)
    _check_generator_mode(models, config)
    if models.retrieval is None or models.extractor is None:
        raise CheckpointError("pipeline needs retrieval and extractor models")
    tokens = tuple(tokens)

    if config.order == "retrieve_then_extract":
        entry, sense_index, r_score = retrieve_top1(
            models.retrieval, tokens, lexicon, config.retrieval_key
        )
        key = entry_key(entry, sense_index, config.retrieval_key)
        prediction = extract_span(models.extractor, tokens, key)
    else:
        # Extract first with no definition, then retrieve on the span text
        # (whole sentence when no span was found).
        prediction = extract_span(models.extractor, tokens, ())
        span_text = tokens[slice(*prediction.span)] if prediction.span else tokens
        entry, sense_index, r_score = retrieve_top1(
            models.retrieval, span_text, lexicon, config.retrieval_key
        )

    if config.generator_mode == "rule_based":
        output = rule_based_generate(tokens, prediction.span, entry.surface)
    else:
        guided = config.generator_mode == "guided"
        inp = build_generator_input(entry.surface, tokens, prediction.span, guided)
        output = beam_decode(models.generator, inp, beam=config.beam, max_len=config.max_len)

    return TransformResult(
        literal=tokens,
        idiom_id=entry.id,
        sense_index=sense_index,
        span=prediction.span,
        output=output,
        scores={"retrieval": r_score, "extraction": prediction.score},
    )


def transform(
    models: PipelineModels,
    lexicon: Sequence[IdiomEntry],
    sentence: str,
    config: PipelineConfig,
) -> TransformResult:
    """Tokenize one sentence and run the configured pipeline over it."""
    return transform_tokens(models, lexicon, tokenize(sentence), config)


def evaluate(
    models: PipelineModels,
    pairs: Sequence[ParallelPair],
    lexicon: Sequence[IdiomEntry],
    config: PipelineConfig,
) -> MetricReport:
    """Run the pipeline over test pairs and aggregate every metric.

    Generation metrics compare pipeline outputs against the idiomatic
    references; part accuracies attribute tokens with the *gold* span
    and idiom.  Every pair must resolve against the lexicon; otherwise
    ``CorpusError`` is raised before any pair is transformed.
    """
    resolved = resolve_pairs(pairs, lexicon)
    if len(resolved) < len(pairs):
        raise CorpusError(f"{len(pairs) - len(resolved)} of {len(pairs)} pairs do not resolve against the lexicon")
    hyps: list[tuple[str, ...]] = []
    refs: list[tuple[str, ...]] = []
    pred_spans: list[tuple[int, int] | None] = []
    pred_ids: list[str] = []
    for pair in pairs:
        result = transform_tokens(models, lexicon, pair.literal, config)
        hyps.append(result.output)
        refs.append(pair.idiomatic)
        pred_spans.append(result.span)
        pred_ids.append(result.idiom_id)
    report = MetricReport(num_instances=len(pairs))
    if not pairs:
        return report
    report.bleu = bleu(hyps, refs)
    report.rouge1 = sum(rouge(h, r, "1") for h, r in zip(hyps, refs)) / len(pairs)
    report.rouge2 = sum(rouge(h, r, "2") for h, r in zip(hyps, refs)) / len(pairs)
    report.rougeL = sum(rouge(h, r, "L") for h, r in zip(hyps, refs)) / len(pairs)
    report.meteor = sum(meteor(h, r) for h, r in zip(hyps, refs)) / len(pairs)
    report.span_f1 = span_f1(pred_spans, [p.span for p in pairs], [p.literal for p in pairs])
    report.retrieval_accuracy = retrieval_accuracy(pred_ids, [p.idiom_id for p in pairs])
    report.idiom_part_acc, report.non_idiom_part_acc = part_accuracy(
        hyps,
        [p.literal for p in pairs],
        [entry.surface for _, entry in resolved],
        [p.span for p in pairs],
    )
    report.by_rigidity = stratify_by_rigidity(
        [(h, r, p.idiom_id) for h, r, p in zip(hyps, refs, pairs)],
        {p.idiom_id: entry.rigidity for p, entry in resolved},
    )
    return report


def generator_training_data(
    pairs: Sequence[ParallelPair],
    lexicon: Sequence[IdiomEntry],
    guided: bool = True,
) -> list[tuple[GeneratorInput, tuple[str, ...]]]:
    """(input, reference) tuples from gold idiom surfaces and spans; unresolvable pairs are skipped."""
    return [
        (build_generator_input(entry.surface, p.literal, p.span, guided), p.idiomatic)
        for p, entry in resolve_pairs(pairs, lexicon)
    ]


@dataclass
class Dataset:
    """On-disk layout produced by ``ingest``: splits, lexicon, vocabulary."""

    lexicon: list[IdiomEntry]
    split: SplitCorpus
    vocab: Vocabulary
    annotated_ids: tuple[str, ...]
    seed: int


def write_dataset(out_dir: str, dataset: Dataset) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_lexicon(os.path.join(out_dir, "lexicon.jsonl"), dataset.lexicon)
    save_pairs(os.path.join(out_dir, "train.jsonl"), dataset.split.train)
    save_pairs(os.path.join(out_dir, "validation.jsonl"), dataset.split.validation)
    save_pairs(os.path.join(out_dir, "test.jsonl"), dataset.split.test)
    with open(os.path.join(out_dir, "vocab.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"tokens": list(dataset.vocab.tokens)}, fh)
        fh.write("\n")
    meta = {
        "seed": dataset.seed,
        "annotated_ids": list(dataset.annotated_ids),
        "sizes": {
            "train": len(dataset.split.train),
            "validation": len(dataset.split.validation),
            "test": len(dataset.split.test),
        },
    }
    with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_dataset(data_dir: str) -> Dataset:
    lexicon = load_lexicon(os.path.join(data_dir, "lexicon.jsonl"))
    vocab_path = os.path.join(data_dir, "vocab.json")
    with open(vocab_path, encoding="utf-8") as fh:
        tokens = json.load(fh)
    tokens = tokens.get("tokens") if isinstance(tokens, dict) else None
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
        raise CorpusError(f"{vocab_path}: expected an object with a 'tokens' list of strings")
    vocab = Vocabulary(tokens)
    meta_path = os.path.join(data_dir, "meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise CorpusError(f"{meta_path}: expected a JSON object")
    annotated = meta.get("annotated_ids", [])
    if not (isinstance(annotated, list) and all(isinstance(i, str) for i in annotated)):
        raise CorpusError(f"{meta_path}: 'annotated_ids' must be a list of strings")
    split = SplitCorpus(
        train=tuple(load_pairs(os.path.join(data_dir, "train.jsonl"), lexicon)),
        validation=tuple(load_pairs(os.path.join(data_dir, "validation.jsonl"), lexicon)),
        test=tuple(load_pairs(os.path.join(data_dir, "test.jsonl"), lexicon)),
        seed=meta.get("seed", 0),
    )
    return Dataset(
        lexicon=lexicon,
        split=split,
        vocab=vocab,
        annotated_ids=tuple(annotated),
        seed=meta.get("seed", 0),
    )
