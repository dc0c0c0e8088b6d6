"""End-to-end pipeline: configuration, checkpoints, transform, evaluate.

A pipeline run retrieves an idiom for the input sentence, extracts the
literal span it should replace, and generates the idiomatic sentence.
Stage order, retrieval key and generator mode are configuration, so the
ablation variants are plain config edits rather than code changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
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
    read_json,
    reject_reserved,
    resolve_pairs,
    save_lexicon,
    save_pairs,
    tokenize,
    write_text,
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
from .numerics import check_sizes
from .retrieval import KEY_MODES, RetrievalModel, retrieve_top1
from .rng import is_int

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
        check_sizes(beam=self.beam, max_len=self.max_len)
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        raw = read_json(path)
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        try:
            return cls(**raw)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err

    def to_dict(self) -> dict:
        return asdict(self)


_MODEL_CLASSES = {
    "retrieval": RetrievalModel,
    "extractor": ExtractorModel,
    "generator": GeneratorModel,
}


def save_checkpoint(model, path: str) -> None:
    """Write one model as a single JSON document, the bytes of ``json.dumps(payload) + "\\n"``.

    Every parameter is checked before the file is opened.  The header and
    then each tensor are encoded with ``json.dumps`` (the C encoder) and
    written in turn through ``write_text``, so the largest string held is
    one tensor's and an interrupted save leaves the previous file whole.
    """
    params = list(model.store.items())
    for name, t in params:
        if not np.isfinite(t.data).all():
            raise CheckpointError(f"parameter {name!r} contains non-finite values")

    def pieces():
        yield json.dumps({
            "format_version": CHECKPOINT_VERSION,
            "component": model.component,
            "hyperparameters": model.hyperparameters(),
            "vocabulary": list(model.vocab.tokens),
        })[:-1] + ', "tensors": {'
        for i, (name, t) in enumerate(params):
            yield f"{', ' if i else ''}{json.dumps(name)}: "
            yield json.dumps({"shape": list(t.shape), "values": t.data.reshape(-1).tolist()})
        yield "}}\n"

    write_text(path, pieces())


def load_checkpoint(path: str):
    """Rebuild a model from its checkpoint; strict about shapes and version."""
    try:
        payload = read_json(path)
    except CorpusError as err:  # a file that cannot be read is not an invalid checkpoint
        suffix = "" if isinstance(err.__cause__, OSError) else "; not a valid checkpoint"
        raise CheckpointError(f"{err}{suffix}") from err
    version = payload.get("format_version")
    if not is_int(version) or version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format_version {version!r} unsupported (expected {CHECKPOINT_VERSION})"
        )
    component = payload.get("component")
    cls = _MODEL_CLASSES.get(component) if isinstance(component, str) else None
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
            if not all(is_int(d) for d in shape):
                raise TypeError(f"shape {spec['shape']!r} has a non-integer dimension")
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


def _stages(config: PipelineConfig) -> tuple[str, ...]:
    """The stages whose models the configured pipeline runs."""
    return ("retrieval", "extractor") + (() if config.generator_mode == "rule_based" else ("generator",))


def load_pipeline_models(ckpt_dir: str, config: PipelineConfig) -> PipelineModels:
    """Load ``<stage>.json`` from a directory for each stage the configured pipeline runs."""
    models = PipelineModels(**{s: load_checkpoint(os.path.join(ckpt_dir, f"{s}.json")) for s in _stages(config)})
    _check_models(models, config)
    return models


def _check_models(models: PipelineModels, config: PipelineConfig) -> None:
    """Raise ``CheckpointError`` unless the models fit the config.

    Each stage the config runs has a model whose ``component`` is the
    stage's name, and the generator's ``guided`` matches ``generator_mode``.
    """
    for stage in _stages(config):
        model = getattr(models, stage)
        if model is None:
            raise CheckpointError(f"the {stage} stage has no model")
        if model.component != stage:
            raise CheckpointError(f"the {stage} stage holds a model of component {model.component!r}")
    if config.generator_mode != "rule_based" and models.generator.guided != (config.generator_mode == "guided"):
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
        return asdict(self)


def transform_tokens(
    models: PipelineModels,
    lexicon: Sequence[IdiomEntry],
    tokens: Sequence[str],
    config: PipelineConfig,
) -> TransformResult:
    if not tokens:
        raise CorpusError("empty input sentence")
    reject_reserved(tokens)
    _check_models(models, config)
    tokens = tuple(tokens)

    if config.order == "retrieve_then_extract":
        entry, sense_index, r_score = retrieve_top1(
            models.retrieval, tokens, lexicon, config.retrieval_key
        )
        # The extractor reads a definition in both key modes, as it does in training.
        prediction = extract_span(models.extractor, tokens, entry.senses[sense_index])
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


def write_dataset(out_dir: str, dataset: Dataset) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise CorpusError(f"{out_dir}: {err.strerror}") from err
    save_lexicon(os.path.join(out_dir, "lexicon.jsonl"), dataset.lexicon)
    save_pairs(os.path.join(out_dir, "train.jsonl"), dataset.split.train)
    save_pairs(os.path.join(out_dir, "validation.jsonl"), dataset.split.validation)
    save_pairs(os.path.join(out_dir, "test.jsonl"), dataset.split.test)
    write_text(os.path.join(out_dir, "vocab.json"), (json.dumps({"tokens": list(dataset.vocab.tokens)}), "\n"))
    meta = {
        "seed": dataset.split.seed,
        "annotated_ids": list(dataset.annotated_ids),
        "sizes": {
            "train": len(dataset.split.train),
            "validation": len(dataset.split.validation),
            "test": len(dataset.split.test),
        },
    }
    write_text(os.path.join(out_dir, "meta.json"), (json.dumps(meta, indent=2), "\n"))


def load_dataset(data_dir: str) -> Dataset:
    lexicon = load_lexicon(os.path.join(data_dir, "lexicon.jsonl"))
    vocab_path = os.path.join(data_dir, "vocab.json")
    tokens = read_json(vocab_path).get("tokens")
    if not isinstance(tokens, list):
        raise CorpusError(f"{vocab_path}: expected a 'tokens' list of strings")
    try:
        vocab = Vocabulary(tokens)
    except CorpusError as err:
        raise CorpusError(f"{vocab_path}: {err}") from err
    meta_path = os.path.join(data_dir, "meta.json")
    meta = read_json(meta_path)
    annotated, seed = meta.get("annotated_ids", []), meta.get("seed", 0)
    if not (isinstance(annotated, list) and all(isinstance(i, str) for i in annotated)):
        raise CorpusError(f"{meta_path}: 'annotated_ids' must be a list of strings")
    if not is_int(seed):
        raise CorpusError(f"{meta_path}: 'seed' must be an integer, got {seed!r}")
    split = SplitCorpus(
        train=tuple(load_pairs(os.path.join(data_dir, "train.jsonl"), lexicon)),
        validation=tuple(load_pairs(os.path.join(data_dir, "validation.jsonl"), lexicon)),
        test=tuple(load_pairs(os.path.join(data_dir, "test.jsonl"), lexicon)),
        seed=seed,
    )
    return Dataset(
        lexicon=lexicon,
        split=split,
        vocab=vocab,
        annotated_ids=tuple(annotated),
    )
