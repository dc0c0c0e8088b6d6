"""Rewrite literal English sentences into idiomatic ones.

Three trained stages share one pipeline: retrieve an idiom from a
definition lexicon, extract the literal span it replaces, and generate
the rewritten sentence with a copy-aware decoder steered by inferred
copy/generate labels.
"""

from .corpus import (
    CorpusError,
    IdiomEntry,
    ParallelPair,
    SplitCorpus,
    Vocabulary,
    build_vocab,
    load_lexicon,
    load_pairs,
    resolve_pairs,
    save_lexicon,
    save_pairs,
    split_corpus,
    tokenize,
)
from .extractor import ExtractorModel, SpanPrediction, extract_span, train_extractor
from .generator import (
    GeneratorInput,
    GeneratorModel,
    beam_decode,
    build_guided_input,
    build_unguided_input,
    rule_based_generate,
    train_generator,
)
from .metrics import MetricReport, bleu, meteor, part_accuracy, rouge, span_f1
from .pipeline import (
    CheckpointError,
    Dataset,
    PipelineConfig,
    PipelineModels,
    TransformResult,
    evaluate,
    generator_training_data,
    load_checkpoint,
    load_dataset,
    load_pipeline_models,
    save_checkpoint,
    transform,
    transform_tokens,
    write_dataset,
)
from .retrieval import RetrievalModel, retrieve_top1, train_retrieval
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "CorpusError",
    "Dataset",
    "ExtractorModel",
    "GeneratorInput",
    "GeneratorModel",
    "IdiomEntry",
    "MetricReport",
    "ParallelPair",
    "PipelineConfig",
    "PipelineModels",
    "RetrievalModel",
    "Rng",
    "SpanPrediction",
    "SplitCorpus",
    "TransformResult",
    "Vocabulary",
    "beam_decode",
    "bleu",
    "build_guided_input",
    "build_unguided_input",
    "build_vocab",
    "evaluate",
    "extract_span",
    "generator_training_data",
    "load_checkpoint",
    "load_dataset",
    "load_lexicon",
    "load_pairs",
    "load_pipeline_models",
    "meteor",
    "part_accuracy",
    "resolve_pairs",
    "retrieve_top1",
    "rouge",
    "rule_based_generate",
    "save_checkpoint",
    "save_lexicon",
    "save_pairs",
    "span_f1",
    "split_corpus",
    "tokenize",
    "train_extractor",
    "train_generator",
    "train_retrieval",
    "transform",
    "transform_tokens",
    "write_dataset",
]
