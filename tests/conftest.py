"""Shared fixtures: demo corpus, trained models, checkpoint directories.

Model-training fixtures are session-scoped because they cost seconds to
minutes; tests must treat them as read-only.  Acceptance tests report
one PASS/FAIL line per criterion through ``record_criterion``; the
collected lines are printed in the terminal summary so they survive
pytest's output capture.
"""

from __future__ import annotations

import os

# Pin the BLAS thread pools to one thread, as perfbench does, so tier-1
# timings do not swing with host load.  This must run before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

import pytest
from hypothesis import HealthCheck, settings

from idiomatize import (
    ExtractorModel,
    GeneratorModel,
    RetrievalModel,
    build_vocab,
    generator_training_data,
    save_checkpoint,
    split_corpus,
    train_extractor,
    train_generator,
    train_retrieval,
    write_dataset,
)
from idiomatize.corpus import RESERVED, Vocabulary, save_lexicon, save_pairs
from idiomatize.pipeline import Dataset, PipelineModels
from idiomatize.toydata import (
    demo_annotated_ids,
    demo_lexicon,
    demo_pairs,
    synthetic_retrieval_data,
    synthetic_span_data,
)

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def record_criterion(request):
    """Record one acceptance line; printed after the run finishes."""

    def record(number: int, passed: bool, detail: str) -> bool:
        verdict = "PASS" if passed else "FAIL"
        request.config._criterion_lines.append(
            (number, f"criterion {number:2d}: {verdict}  {detail}")
        )
        return passed

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def demo():
    return demo_lexicon(), demo_pairs()


@pytest.fixture(scope="session")
def demo_vocab(demo):
    lexicon, pairs = demo
    return build_vocab(pairs, lexicon)


@pytest.fixture(scope="session")
def tiny_vocab():
    words = (
        "the cat sat on mat a dog ran fast very slow big red fox jumps over"
    ).split()
    return Vocabulary(RESERVED + tuple(words))


@pytest.fixture(scope="session")
def demo_files(tmp_path_factory, demo):
    """Raw corpus files plus an ingested dataset directory."""
    lexicon, pairs = demo
    root = tmp_path_factory.mktemp("demo_files")
    lexicon_file = str(root / "lexicon.jsonl")
    pairs_file = str(root / "pairs.jsonl")
    save_lexicon(lexicon_file, lexicon)
    save_pairs(pairs_file, pairs)
    annotated_file = str(root / "annotated.txt")
    with open(annotated_file, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{i}\n" for i in demo_annotated_ids()))
    data_dir = str(root / "dataset")
    split = split_corpus(pairs, demo_annotated_ids(), seed=0)
    dataset = Dataset(
        lexicon=lexicon,
        split=split,
        vocab=build_vocab(pairs, lexicon),
        annotated_ids=demo_annotated_ids(),
    )
    write_dataset(data_dir, dataset)
    return {
        "lexicon": lexicon_file,
        "pairs": pairs_file,
        "annotated": annotated_file,
        "dataset": data_dir,
    }


@pytest.fixture(scope="session")
def tiny_models(demo, demo_vocab):
    """Barely trained small models for plumbing tests (not accuracy)."""
    lexicon, pairs = demo
    retrieval = RetrievalModel(demo_vocab, embed_dim=16, hidden=16, seed=0)
    train_retrieval(
        retrieval, pairs, lexicon,
        epochs=2, negatives_per_positive=5, lr=3e-3, seed=0, batch_size=8,
    )
    extractor = ExtractorModel(demo_vocab, embed_dim=16, hidden=16, seed=0)
    train_extractor(extractor, pairs, lexicon, epochs=2, lr=3e-3, seed=0, batch_size=8)
    generator = GeneratorModel(
        demo_vocab, word_dim=16, copy_dim=8, label_dim=8, hidden=16, guided=True, seed=0
    )
    train_generator(
        generator, generator_training_data(pairs, lexicon, True),
        epochs=2, batch_size=8, lr=3e-3, seed=0,
    )
    return {"retrieval": retrieval, "extractor": extractor, "generator": generator}


@pytest.fixture(scope="session")
def ckpt_dir(tmp_path_factory, tiny_models):
    out = tmp_path_factory.mktemp("ckpts")
    for name, model in tiny_models.items():
        save_checkpoint(model, str(out / f"{name}.json"))
    return str(out)


@pytest.fixture(scope="session")
def tiny_pipeline(tiny_models):
    return PipelineModels(
        retrieval=tiny_models["retrieval"],
        extractor=tiny_models["extractor"],
        generator=tiny_models["generator"],
    )


@pytest.fixture(scope="session")
def overfit_generator(demo, demo_vocab):
    """Guided generator memorizing the 32-pair demo corpus (~1 min)."""
    lexicon, pairs = demo
    model = GeneratorModel(
        demo_vocab, word_dim=64, copy_dim=16, label_dim=16, hidden=64,
        guided=True, seed=0,
    )
    data = generator_training_data(pairs, lexicon, True)
    started = time.perf_counter()
    history = train_generator(
        model, data, epochs=300, batch_size=8, lr=5e-3, seed=0,
        stop_at_token_accuracy=0.998,
    )
    wall = time.perf_counter() - started
    return {"model": model, "data": data, "history": history, "wall_seconds": wall}


@pytest.fixture(scope="session")
def overfit_unguided_generator(demo, demo_vocab):
    lexicon, pairs = demo
    model = GeneratorModel(
        demo_vocab, word_dim=64, copy_dim=16, label_dim=16, hidden=64,
        guided=False, seed=0,
    )
    data = generator_training_data(pairs, lexicon, False)
    history = train_generator(
        model, data, epochs=300, batch_size=8, lr=5e-3, seed=0,
        stop_at_token_accuracy=0.998,
    )
    return {"model": model, "data": data, "history": history}


@pytest.fixture(scope="session")
def overfit_extractor(demo, demo_vocab):
    """Extractor memorizing the demo spans (a few seconds)."""
    lexicon, pairs = demo
    model = ExtractorModel(demo_vocab, embed_dim=64, hidden=64, seed=0)
    history = train_extractor(
        model, pairs, lexicon,
        epochs=60, lr=3e-3, seed=0, batch_size=4,
        validation=pairs, stop_at_f1=0.999,
    )
    return {"model": model, "history": history}


@pytest.fixture(scope="session")
def synthetic_retrieval():
    """Disjoint-vocabulary retrieval task trained to the 50-epoch budget."""
    lexicon, train, val = synthetic_retrieval_data(seed=0)
    vocab = build_vocab(train + val, lexicon)
    model = RetrievalModel(vocab, embed_dim=64, hidden=64, seed=0)
    history = train_retrieval(
        model, train, lexicon,
        epochs=50, negatives_per_positive=3, lr=3e-3, seed=0, batch_size=4,
        validation=val, eval_every=5, stop_at_accuracy=0.96,
    )
    return {"model": model, "history": history, "lexicon": lexicon, "val": val}


@pytest.fixture(scope="session")
def sentinel_extractor():
    """Sentinel-bracketed span task trained to the 50-epoch budget."""
    lexicon, train, val = synthetic_span_data(seed=0)
    vocab = build_vocab(train + val, lexicon)
    model = ExtractorModel(vocab, embed_dim=64, hidden=64, seed=0)
    history = train_extractor(
        model, train, lexicon,
        epochs=50, lr=3e-3, seed=0, batch_size=4,
        validation=val, eval_every=1, stop_at_f1=0.96,
    )
    return {"model": model, "history": history, "lexicon": lexicon, "val": val}


@pytest.fixture(scope="session")
def demo_retrieval(demo, demo_vocab):
    """Moderately trained retrieval model for end-to-end pipeline tests.

    High accuracy on the demo lexicon costs several minutes; end-to-end
    tests only need a consistent, deterministic stage, so this stops
    after a fixed short budget.
    """
    lexicon, pairs = demo
    model = RetrievalModel(demo_vocab, embed_dim=64, hidden=64, seed=0)
    history = train_retrieval(
        model, pairs, lexicon,
        epochs=30, negatives_per_positive=10, lr=5e-3, seed=0, batch_size=4,
        validation=pairs, eval_every=30,
    )
    return {"model": model, "history": history}


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("work")
    return str(path)


@pytest.fixture()
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(path: str, **overrides) -> str:
    """Write a pipeline config JSON file and return its path."""
    import json

    config = {
        "order": "retrieve_then_extract",
        "retrieval_key": "definition",
        "generator_mode": "guided",
        "beam": 4,
        "max_len": 40,
        "seed": 0,
    }
    config.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path


@pytest.fixture(scope="session")
def config_file(workdir):
    return write_config(os.path.join(workdir, "config.json"))
