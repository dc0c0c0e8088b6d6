"""Pipeline integration: config files, checkpoints, transform, evaluate."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idiomatize import (
    ExtractorModel,
    GeneratorModel,
    IdiomEntry,
    ParallelPair,
    PipelineConfig,
    RetrievalModel,
    build_vocab,
    evaluate,
    generator_training_data,
    load_checkpoint,
    load_pipeline_models,
    save_checkpoint,
    train_extractor,
    train_generator,
    train_retrieval,
    transform,
    transform_tokens,
)
from idiomatize.corpus import RESERVED, CorpusError, Vocabulary, tokenize
from idiomatize.extractor import SpanPrediction, extract_span
from idiomatize.generator import (
    beam_decode,
    build_generator_input,
    rule_based_generate,
)
from idiomatize.pipeline import (
    CHECKPOINT_VERSION,
    GENERATOR_MODES,
    ORDERS,
    CheckpointError,
    Dataset,
    PipelineModels,
    TransformResult,
    load_dataset,
    write_dataset,
)
from idiomatize import generator, retrieval
from idiomatize.numerics import Tensor, gru
from idiomatize.retrieval import KEY_MODES, candidate_keys, score_keys

from conftest import write_config
from oracles import reference_transform


# ---------------------------------------------------------------- config

def test_config_defaults():
    config = PipelineConfig()
    assert config.order == "retrieve_then_extract"
    assert config.retrieval_key == "definition"
    assert config.generator_mode == "guided"
    assert config.beam == 4
    assert config.max_len == 40
    assert config.seed == 0


def test_config_to_dict_round_trips():
    config = PipelineConfig(order="extract_then_retrieve", beam=2, seed=7)
    assert PipelineConfig(**config.to_dict()) == config


@pytest.mark.parametrize(
    "overrides",
    [
        {"order": "retrieve_then_generate"},
        {"retrieval_key": "sentence"},
        {"generator_mode": "oracle"},
        {"beam": 0},
        {"max_len": 0},
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        PipelineConfig(**overrides)


def test_config_from_file(tmp_path):
    path = write_config(str(tmp_path / "c.json"), beam=2, generator_mode="unguided")
    config = PipelineConfig.from_file(path)
    assert config.beam == 2
    assert config.generator_mode == "unguided"
    assert config.order == "retrieve_then_extract"


def test_config_from_file_rejects_unknown_keys(tmp_path):
    path = str(tmp_path / "c.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"beam": 2, "beams": 3, "alpha": 1}, fh)
    with pytest.raises(ValueError, match=r"\['alpha', 'beams'\]"):
        PipelineConfig.from_file(path)


def test_config_from_file_rejects_bad_json(tmp_path):
    path = str(tmp_path / "c.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        PipelineConfig.from_file(path)


def test_config_from_file_missing_file(tmp_path):
    path = str(tmp_path / "absent.json")
    with pytest.raises(CorpusError, match=f"^{re.escape(path)}: "):
        PipelineConfig.from_file(path)


# ----------------------------------------------------------- checkpoints

@pytest.mark.parametrize("name", ["retrieval", "extractor", "generator"])
def test_checkpoint_round_trip(tiny_models, tmp_path, name):
    model = tiny_models[name]
    path = str(tmp_path / "m.json")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.component == model.component
    assert loaded.vocab.tokens == model.vocab.tokens
    assert loaded.hyperparameters() == model.hyperparameters()
    for pname, t in model.store.items():
        assert np.array_equal(loaded.store[pname].data, t.data), pname


@pytest.mark.parametrize("name", ["retrieval", "extractor", "generator"])
def test_checkpoint_is_the_json_document_of_its_payload(tiny_models, tmp_path, name):
    # Written tensor by tensor, the file must still be one json.dumps of the whole payload.
    model = tiny_models[name]
    path = tmp_path / "m.json"
    save_checkpoint(model, str(path))
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "component": model.component,
        "hyperparameters": model.hyperparameters(),
        "vocabulary": list(model.vocab.tokens),
        "tensors": {
            pname: {"shape": list(t.shape), "values": t.data.reshape(-1).tolist()} for pname, t in model.store.items()
        },
    }
    assert path.read_bytes() == (json.dumps(payload) + "\n").encode("utf-8")


def test_checkpoint_resave_is_byte_identical(tiny_models, tmp_path):
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    save_checkpoint(tiny_models["extractor"], first)
    save_checkpoint(load_checkpoint(first), second)
    assert _digest(first) == _digest(second)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_loaded_generator_decodes_identically(tiny_models, tmp_path):
    model = tiny_models["generator"]
    path = str(tmp_path / "g.json")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    inp = build_generator_input(
        ("ran", "fast"), ("the", "cat", "sat", "on", "mat"), (2, 4), guided=True
    )
    assert beam_decode(loaded, inp, beam=4, max_len=10) == beam_decode(
        model, inp, beam=4, max_len=10
    )


def _corrupt(payload, mutation):
    if mutation == "version":
        payload["format_version"] = 99
    elif mutation == "version_true":
        payload["format_version"] = True
    elif mutation == "component":
        payload["component"] = "reranker"
    elif mutation == "component_list":
        payload["component"] = ["extractor"]
    elif mutation == "missing_tensor":
        payload["tensors"].pop(sorted(payload["tensors"])[0])
    elif mutation == "extra_tensor":
        payload["tensors"]["bogus"] = {"shape": [1], "values": [0.0]}
    elif mutation == "wrong_shape":
        name = sorted(payload["tensors"])[0]
        payload["tensors"][name]["shape"] = [1, 1, 1]
    elif mutation == "truncated_values":
        name = sorted(payload["tensors"])[0]
        payload["tensors"][name]["values"] = payload["tensors"][name]["values"][:-1]
    elif mutation == "nonfinite_values":
        name = sorted(payload["tensors"])[0]
        payload["tensors"][name]["values"][0] = float("inf")
    elif mutation == "no_hyperparameters":
        del payload["hyperparameters"]
    elif mutation == "bad_hyperparameter":
        payload["hyperparameters"]["momentum"] = 0.9
    elif mutation == "not_object":
        return [payload]
    elif mutation == "tensor_without_values":
        del payload["tensors"][sorted(payload["tensors"])[0]]["values"]
    elif mutation == "tensors_list":
        payload["tensors"] = sorted(payload["tensors"])
    elif mutation == "shape_int":
        payload["tensors"][sorted(payload["tensors"])[0]]["shape"] = 5
    elif mutation == "shape_null":
        payload["tensors"][sorted(payload["tensors"])[0]]["shape"] = None
    elif mutation == "shape_float":
        spec = payload["tensors"][sorted(payload["tensors"])[0]]
        spec["shape"] = [float(d) for d in spec["shape"]]
    elif mutation == "zero_hidden":
        payload["hyperparameters"]["hidden"] = 0
    elif mutation == "seed_true":
        payload["hyperparameters"]["seed"] = True
    elif mutation == "seed_2_64":
        payload["hyperparameters"]["seed"] = 2**64
    elif mutation == "vocabulary_nonstring":
        payload["vocabulary"][-2:] = [5, None]
    elif mutation == "nonnumeric_values":
        payload["tensors"][sorted(payload["tensors"])[0]]["values"][0] = "x"
    return payload


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("version", "format_version"),
        ("version_true", "format_version"),
        ("component", "unknown component"),
        ("component_list", "unknown component"),
        ("missing_tensor", "tensor name mismatch"),
        ("extra_tensor", "tensor name mismatch"),
        ("wrong_shape", "shape"),
        ("truncated_values", "values, expected"),
        ("nonfinite_values", "non-finite"),
        ("no_hyperparameters", "bad checkpoint structure"),
        ("bad_hyperparameter", "bad checkpoint structure"),
        ("not_object", "JSON object"),
        ("tensor_without_values", "shape and values"),
        ("tensors_list", "'tensors' must be an object"),
        ("shape_int", "malformed shape or values"),
        ("shape_null", "malformed shape or values"),
        ("shape_float", "malformed shape or values"),
        ("nonnumeric_values", "malformed shape or values"),
        ("zero_hidden", "hidden must be a positive integer"),
        ("seed_true", "seed must be an integer"),
        ("seed_2_64", "seed must be an integer"),
        ("vocabulary_nonstring", "bad checkpoint structure"),
    ],
)
def test_load_rejects_corrupt_checkpoint(tiny_models, tmp_path, mutation, message):
    path = str(tmp_path / "m.json")
    save_checkpoint(tiny_models["extractor"], path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_corrupt(payload, mutation), fh)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


GRID_TENSOR = "encoder.fwd.w_z"
GRID_FIELDS = (
    "format_version", "component", "vocabulary", "hyperparameters", "hyperparameters/hidden",
    "tensors", f"tensors/{GRID_TENSOR}", f"tensors/{GRID_TENSOR}/shape", f"tensors/{GRID_TENSOR}/values",
)
GRID_SUBSTITUTES = {
    "null": None, "true": True, "int": 1, "float": 1.5, "str": "x", "empty_list": [],
    "component_list": ["retrieval"], "empty_object": {}, "object": {"a": 1}, "float_shape": [4.0, 4.0],
}


@pytest.fixture(scope="module")
def grid_payload(tmp_path_factory, tiny_vocab):
    path = str(tmp_path_factory.mktemp("grid") / "m.json")
    save_checkpoint(RetrievalModel(tiny_vocab, embed_dim=4, hidden=4, seed=0), path)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def generator_grid_payload(tmp_path_factory, tiny_vocab):
    path = str(tmp_path_factory.mktemp("grid") / "m.json")
    save_checkpoint(GeneratorModel(tiny_vocab, word_dim=4, copy_dim=2, label_dim=2, hidden=4, seed=0), path)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_substituted(payload, field, value, path):
    """``load_checkpoint`` of ``payload`` with ``field`` (a /-separated path) set to ``value``;
    None where it raises ``CheckpointError``."""
    payload = copy.deepcopy(payload)
    *parents, last = field.split("/")
    target = payload
    for key in parents:
        target = target[key]
    target[last] = copy.deepcopy(value)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    try:
        return load_checkpoint(path)
    except CheckpointError:
        return None


@pytest.mark.parametrize("substitute", GRID_SUBSTITUTES)
@pytest.mark.parametrize("field", GRID_FIELDS)
def test_load_returns_a_model_or_raises_checkpoint_error(grid_payload, tmp_path, field, substitute):
    # Any value in any field: the loader builds a model or refuses the file, and raises nothing else.
    model = _load_substituted(grid_payload, field, GRID_SUBSTITUTES[substitute], str(tmp_path / "m.json"))
    assert model is None or isinstance(model, RetrievalModel)


@pytest.mark.parametrize("substitute", GRID_SUBSTITUTES)
@pytest.mark.parametrize("field", ["hyperparameters/guided", "hyperparameters/word_dim"])
def test_generator_load_refuses_a_guided_that_is_not_a_bool(generator_grid_payload, tmp_path, field, substitute):
    value = GRID_SUBSTITUTES[substitute]
    model = _load_substituted(generator_grid_payload, field, value, str(tmp_path / "m.json"))
    assert model is None or isinstance(model, GeneratorModel)
    if field == "hyperparameters/guided":
        assert (model is not None) == isinstance(value, bool)


def test_load_rejects_non_json_file(tmp_path):
    path = str(tmp_path / "m.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("garbage{{{")
    with pytest.raises(CheckpointError, match="not a valid checkpoint"):
        load_checkpoint(path)


def test_save_rejects_non_finite_parameters(tiny_vocab, tmp_path):
    # The last parameter: every one is checked before the file is opened.
    model = RetrievalModel(tiny_vocab, embed_dim=4, hidden=4, seed=0)
    name = list(dict(model.store.items()))[-1]
    model.store[name].data[...] = np.nan
    path = tmp_path / "m.json"
    with pytest.raises(CheckpointError, match="non-finite"):
        save_checkpoint(model, str(path))
    assert not path.exists()


@pytest.mark.parametrize("fault", [KeyboardInterrupt, RuntimeError])
def test_interrupted_save_leaves_the_previous_checkpoint(tiny_models, tmp_path, monkeypatch, fault):
    # The third json.dumps encodes the first tensor, after the header is written.
    path = tmp_path / "m.json"
    save_checkpoint(tiny_models["extractor"], str(path))
    before = path.read_bytes()
    calls = []
    real_dumps = json.dumps

    def dumps(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise fault("interrupted")
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)
    with pytest.raises(fault):
        save_checkpoint(tiny_models["generator"], str(path))
    monkeypatch.undo()
    assert len(calls) == 3
    assert path.read_bytes() == before
    assert load_checkpoint(str(path)).component == "extractor"
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_save_to_a_directory_names_the_path(tiny_models, tmp_path):
    path = tmp_path / "m.json"
    path.mkdir()
    with pytest.raises(CorpusError) as err:
        save_checkpoint(tiny_models["extractor"], str(path))
    assert str(err.value).startswith(f"{path}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"] and not any(path.iterdir())


# --------------------------------------------------- load_pipeline_models

def test_load_pipeline_models_guided(ckpt_dir):
    models = load_pipeline_models(ckpt_dir, PipelineConfig())
    assert models.retrieval is not None
    assert models.extractor is not None
    assert models.generator is not None and models.generator.guided


def test_load_pipeline_models_rule_based_skips_generator(ckpt_dir):
    config = PipelineConfig(generator_mode="rule_based")
    models = load_pipeline_models(ckpt_dir, config)
    assert models.generator is None


def test_load_pipeline_models_mode_mismatch(ckpt_dir):
    config = PipelineConfig(generator_mode="unguided")
    with pytest.raises(CheckpointError, match="guided"):
        load_pipeline_models(ckpt_dir, config)


def test_load_pipeline_models_missing_file(tiny_models, tmp_path):
    save_checkpoint(tiny_models["retrieval"], str(tmp_path / "retrieval.json"))
    save_checkpoint(tiny_models["extractor"], str(tmp_path / "extractor.json"))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(tmp_path / 'generator.json'))}: ") as err:
        load_pipeline_models(str(tmp_path), PipelineConfig())
    # A file that is not there is no content error.
    assert "not a valid checkpoint" not in str(err.value)


# ------------------------------------------------------------- transform

def test_transform_tokens_rejects_empty(tiny_pipeline, demo):
    lexicon, _ = demo
    with pytest.raises(CorpusError, match="empty"):
        transform_tokens(tiny_pipeline, lexicon, (), PipelineConfig())


def test_transform_tokens_rejects_reserved_tokens(tiny_pipeline, demo):
    lexicon, _ = demo
    with pytest.raises(CorpusError, match="reserved token '<pad>'"):
        transform_tokens(tiny_pipeline, lexicon, ("the", "<pad>", "cat"), PipelineConfig())


def test_transform_tokens_needs_models(demo):
    lexicon, _ = demo
    config = PipelineConfig(generator_mode="rule_based")
    with pytest.raises(CheckpointError):
        transform_tokens(PipelineModels(), lexicon, ("a",), config)


def test_extractor_reads_the_retrieved_definition_under_idiom_keys(tiny_pipeline, demo, monkeypatch):
    # Retrieval ranks surface forms, but the extractor is trained on definitions only.
    lexicon, pairs = demo
    seen = []

    def recording_extract(model, tokens, definition):
        seen.append(tuple(definition))
        return extract_span(model, tokens, definition)

    monkeypatch.setattr("idiomatize.pipeline.extract_span", recording_extract)
    config = PipelineConfig(retrieval_key="idiom", generator_mode="rule_based")
    for pair in pairs[:4]:
        result = transform_tokens(tiny_pipeline, lexicon, pair.literal, config)
        entry = next(e for e in lexicon if e.id == result.idiom_id)
        assert entry.senses[result.sense_index] != entry.surface
        assert seen == [entry.senses[result.sense_index]]
        seen.clear()


def test_transform_rule_based_output_is_splice(tiny_pipeline, demo):
    lexicon, pairs = demo
    by_id = {e.id: e for e in lexicon}
    config = PipelineConfig(generator_mode="rule_based")
    for pair in pairs[:8]:
        result = transform_tokens(tiny_pipeline, lexicon, pair.literal, config)
        surface = by_id[result.idiom_id].surface
        assert result.output == rule_based_generate(pair.literal, result.span, surface)
        assert result.literal == pair.literal
        assert set(result.scores) == {"retrieval", "extraction"}


@pytest.mark.parametrize("mode", ["guided", "rule_based"])
def test_transform_modes_produce_token_tuples(tiny_models, demo, mode):
    lexicon, pairs = demo
    models = PipelineModels(
        retrieval=tiny_models["retrieval"],
        extractor=tiny_models["extractor"],
        generator=tiny_models["generator"] if mode == "guided" else None,
    )
    config = PipelineConfig(generator_mode=mode, max_len=12)
    result = transform_tokens(models, lexicon, pairs[0].literal, config)
    assert isinstance(result.output, tuple)
    assert all(isinstance(t, str) for t in result.output)
    if mode == "guided":
        assert len(result.output) <= 12


def test_transform_is_deterministic(tiny_pipeline, demo):
    lexicon, pairs = demo
    config = PipelineConfig(beam=2, max_len=16)
    first = transform_tokens(tiny_pipeline, lexicon, pairs[3].literal, config)
    second = transform_tokens(tiny_pipeline, lexicon, pairs[3].literal, config)
    assert first.to_dict() == second.to_dict()


def test_transform_single_entry_lexicon_forces_idiom(tiny_pipeline, demo):
    lexicon, pairs = demo
    config = PipelineConfig(generator_mode="rule_based")
    result = transform_tokens(tiny_pipeline, lexicon[:1], pairs[0].literal, config)
    assert result.idiom_id == lexicon[0].id
    assert 0 <= result.sense_index < len(lexicon[0].senses)


def test_transform_tokenizes_sentences(tiny_pipeline, demo):
    lexicon, _ = demo
    config = PipelineConfig(generator_mode="rule_based")
    sentence = "He explained everything, slowly and carefully."
    by_string = transform(tiny_pipeline, lexicon, sentence, config)
    by_tokens = transform_tokens(
        tiny_pipeline, lexicon, tokenize(sentence), config
    )
    assert by_string.to_dict() == by_tokens.to_dict()


def test_extract_then_retrieve_feeds_span_to_retrieval(
    tiny_pipeline, demo, monkeypatch
):
    lexicon, pairs = demo
    literal = pairs[0].literal
    seen = {}

    def fake_extract(model, tokens, key):
        assert key == ()
        return SpanPrediction(span=(1, 3), score=0.0)

    def fake_retrieve(model, tokens, lex, key_mode):
        seen["tokens"] = tuple(tokens)
        return lexicon[0], 0, 0.5

    monkeypatch.setattr("idiomatize.pipeline.extract_span", fake_extract)
    monkeypatch.setattr("idiomatize.pipeline.retrieve_top1", fake_retrieve)
    config = PipelineConfig(order="extract_then_retrieve", generator_mode="rule_based")
    result = transform_tokens(tiny_pipeline, lexicon, literal, config)
    assert seen["tokens"] == literal[1:3]
    assert result.span == (1, 3)
    assert result.scores["retrieval"] == 0.5


def test_extract_then_retrieve_falls_back_to_whole_sentence(
    tiny_pipeline, demo, monkeypatch
):
    lexicon, pairs = demo
    literal = pairs[0].literal
    seen = {}

    def fake_extract(model, tokens, key):
        return SpanPrediction(span=None, score=0.0)

    def fake_retrieve(model, tokens, lex, key_mode):
        seen["tokens"] = tuple(tokens)
        return lexicon[0], 0, 0.5

    monkeypatch.setattr("idiomatize.pipeline.extract_span", fake_extract)
    monkeypatch.setattr("idiomatize.pipeline.retrieve_top1", fake_retrieve)
    config = PipelineConfig(order="extract_then_retrieve", generator_mode="rule_based")
    result = transform_tokens(tiny_pipeline, lexicon, literal, config)
    assert seen["tokens"] == literal
    assert result.span is None
    assert result.output == literal


# ------------------------------------------------- differential oracle

ORACLE_VOCAB = Vocabulary(RESERVED + ("a", "b", "c", "d", "e", "f"))
ORACLE_WORDS = ORACLE_VOCAB.tokens[len(RESERVED) :] + ("x", "y")  # x and y are out of vocabulary
oracle_keys = st.one_of(
    st.lists(st.sampled_from(ORACLE_WORDS), min_size=1, max_size=3).map(tuple),
    st.sampled_from([("x",), ("y", "x")]),  # all-<unk> keys, which encode alike
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**16), st.data())
def test_transform_equals_reference_transform(seed, data):
    """``transform_tokens`` on random tiny models equals the stages composed the slow way.

    Lexicons draw keys and surfaces from a small pool, so keys repeat, and
    hold all-<unk> keys and one-entry lexicons.  Zeroed heads give exact
    ties in retrieval and beam search, where only the tie rules decide.
    Retrieval may pick any candidate the oracle accepts: ``transform``
    sums each key's pooled states in another order than ``score_pair``, so
    its scores differ in their last bits (about 1e-14), and a candidate
    within 1e-12 of the oracle's best may win in its place.
    """
    draw = data.draw
    mode = draw(st.sampled_from(GENERATOR_MODES), label="generator mode")
    config = PipelineConfig(
        order=draw(st.sampled_from(ORDERS), label="order"),
        retrieval_key=draw(st.sampled_from(KEY_MODES), label="key mode"),
        generator_mode=mode,
        beam=draw(st.integers(1, 4), label="beam"),
        max_len=draw(st.integers(1, 12), label="max_len"),
    )
    pool = draw(st.lists(oracle_keys, min_size=1, max_size=4), label="key pool")
    keys = st.sampled_from(pool)
    lexicon = [
        IdiomEntry(f"i{k}", draw(keys), tuple(draw(st.lists(keys, min_size=1, max_size=2))))
        for k in range(draw(st.integers(1, 4), label="idioms"))
    ]
    sentence = draw(st.lists(st.sampled_from(ORACLE_WORDS), min_size=1, max_size=15), label="sentence")
    sizes = st.integers(2, 8)
    models = PipelineModels(
        retrieval=RetrievalModel(ORACLE_VOCAB, embed_dim=draw(sizes), hidden=draw(sizes), seed=seed),
        extractor=ExtractorModel(ORACLE_VOCAB, embed_dim=draw(sizes), hidden=draw(sizes), seed=seed + 1),
    )
    if draw(st.booleans(), label="flat retrieval head"):
        models.retrieval.score_w.data[:] = 0.0
    for t in models.extractor.store.params.values():
        t.data *= draw(st.sampled_from([1.0, 8.0, 32.0]), label="extractor gain")
    if mode != "rule_based":
        models.generator = GeneratorModel(
            ORACLE_VOCAB, word_dim=draw(sizes), copy_dim=2, label_dim=2,
            hidden=draw(st.sampled_from([2, 4, 6, 8])), guided=mode == "guided", seed=seed + 2,
        )
        gain = draw(st.sampled_from([0.0, 1.0, 8.0]), label="generator output gain")
        for t in (models.generator.w_gen, models.generator.u_copy):
            t.data *= gain
    got = transform_tokens(models, lexicon, sentence, config)
    accepted = reference_transform(models, lexicon, sentence, config)
    same_retrieval = [r for r in accepted if (r.idiom_id, r.sense_index) == (got.idiom_id, got.sense_index)]
    assert same_retrieval, f"retrieved {(got.idiom_id, got.sense_index)}, oracle accepts {accepted}"
    expect = same_retrieval[0]
    assert (got.literal, got.span, got.output) == (expect.literal, expect.span, expect.output)
    assert got.scores.keys() == expect.scores.keys()
    for stage, score in expect.scores.items():
        assert abs(got.scores[stage] - score) <= 1e-12, stage


@pytest.mark.parametrize("mode", ["guided", "unguided"])
def test_transform_constructs_no_tensor(tiny_models, demo, demo_vocab, mode, monkeypatch):
    # Inference runs on plain arrays end to end: a request builds no autodiff Tensor.
    lexicon, pairs = demo
    generator = tiny_models["generator"] if mode == "guided" else GeneratorModel(
        demo_vocab, word_dim=16, copy_dim=8, label_dim=8, hidden=16, guided=False, seed=0
    )
    models = PipelineModels(retrieval=tiny_models["retrieval"], extractor=tiny_models["extractor"], generator=generator)
    constructed = []
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        constructed.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    result = transform_tokens(models, lexicon, pairs[0].literal, PipelineConfig(generator_mode=mode, beam=4))
    monkeypatch.undo()
    assert result.output and constructed == []


@pytest.mark.parametrize("stage", ["retrieval", "extractor", "generator"])
def test_training_encodes_each_minibatch_as_one_node(demo, demo_vocab, stage, monkeypatch):
    # Every stage's encoder is one bigru_encode node per minibatch, never a
    # gru_step per token; the generator's decoder steps gru_step once per
    # decoder position of each minibatch, over all its rows.
    lexicon, pairs = demo
    pairs = pairs[:5]
    calls = {"bigru_encode": 0, "gru_step": 0}
    batches = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((retrieval, "bigru_encode"), (generator, "bigru_encode"), (gru, "gru_step"),
                         (generator, "gru_step")):
        counting(module, name)
    if stage == "generator":
        data = generator_training_data(pairs, lexicon, guided=True)
        fit_batch = generator.teacher_forced_batch

        def recorded(model, examples):
            batches.append(examples)
            return fit_batch(model, examples)

        monkeypatch.setattr(generator, "teacher_forced_batch", recorded)
        model = GeneratorModel(demo_vocab, word_dim=8, copy_dim=4, label_dim=4, hidden=8, seed=0)
        train_generator(model, data, epochs=1, batch_size=2, lr=1e-3)
        assert calls["bigru_encode"] == len(batches) == 3
        assert calls["gru_step"] == sum(max(len(reference) for _, reference in batch) + 1 for batch in batches)
        return
    if stage == "retrieval":  # 5 positives and 10 negatives in batches of 4
        model = RetrievalModel(demo_vocab, embed_dim=8, hidden=8, seed=0)
        train_retrieval(model, pairs, lexicon, epochs=1, negatives_per_positive=2, batch_size=4)
        assert calls == {"bigru_encode": 4, "gru_step": 0}
    else:  # 5 instances in batches of 2
        model = ExtractorModel(demo_vocab, embed_dim=8, hidden=8, seed=0)
        train_extractor(model, pairs, lexicon, epochs=1, batch_size=2)
        assert calls == {"bigru_encode": 3, "gru_step": 0}


# ------------------------------------------------- repeated idiom ids

def _repeated_id_corpus():
    lexicon = [
        IdiomEntry(id="x", surface=("kick", "off"), senses=(("start",), ("begin", "now"))),
        IdiomEntry(id="x", surface=("call", "it", "a", "day"), senses=(("stop", "work"),)),
    ]
    pairs = [ParallelPair("x", 0, ("we", "start", "today"), ("we", "kick", "off", "today"), (1, 2))]
    return lexicon, pairs


@pytest.mark.parametrize("seed", range(6))
def test_transform_with_repeated_idiom_id_splices_winning_entry(seed, monkeypatch):
    lexicon, pairs = _repeated_id_corpus()
    vocab = build_vocab(pairs, lexicon)
    models = PipelineModels(
        retrieval=RetrievalModel(vocab, embed_dim=4, hidden=4, seed=seed),
        extractor=ExtractorModel(vocab, embed_dim=4, hidden=4, seed=seed),
    )
    seen = {}

    def fake_extract(model, tokens, key):
        seen["key"] = tuple(key)
        return SpanPrediction(span=(1, 2), score=0.0)

    monkeypatch.setattr("idiomatize.pipeline.extract_span", fake_extract)
    sentence = pairs[0].literal
    candidates = [(entry, sense, key) for entry in lexicon for sense, key in candidate_keys(entry, "definition")]
    scores = score_keys(models.retrieval, sentence, [key for _, _, key in candidates])
    winner, sense, key = candidates[int(np.argmax(scores))]
    result = transform_tokens(models, lexicon, sentence, PipelineConfig(generator_mode="rule_based"))
    assert seen["key"] == key
    assert (result.idiom_id, result.sense_index) == ("x", sense)
    assert result.output == rule_based_generate(sentence, (1, 2), winner.surface)


def test_repeated_idiom_id_is_refused_by_trainers_and_evaluate():
    lexicon, pairs = _repeated_id_corpus()
    vocab = build_vocab(pairs, lexicon)
    retrieval = RetrievalModel(vocab, embed_dim=4, hidden=4, seed=0)
    extractor = ExtractorModel(vocab, embed_dim=4, hidden=4, seed=0)
    with pytest.raises(CorpusError, match="repeats idiom ids"):
        train_retrieval(retrieval, pairs, lexicon, epochs=1, negatives_per_positive=1)
    with pytest.raises(CorpusError, match="repeats idiom ids"):
        train_extractor(extractor, pairs, lexicon, epochs=1)
    with pytest.raises(CorpusError, match="repeats idiom ids"):
        generator_training_data(pairs, lexicon)
    models = PipelineModels(retrieval=retrieval, extractor=extractor)
    with pytest.raises(CorpusError, match="repeats idiom ids"):
        evaluate(models, pairs, lexicon, PipelineConfig(generator_mode="rule_based"))


# -------------------------------------------------------------- evaluate

def test_evaluate_perfect_oracle_scores_one(tiny_pipeline, demo, monkeypatch):
    lexicon, pairs = demo
    subset = pairs[:6]

    def gold_transform(models, lex, tokens, config):
        pair = next(p for p in subset if p.literal == tuple(tokens))
        return TransformResult(
            literal=pair.literal,
            idiom_id=pair.idiom_id,
            sense_index=pair.sense_index,
            span=pair.span,
            output=pair.idiomatic,
        )

    monkeypatch.setattr("idiomatize.pipeline.transform_tokens", gold_transform)
    report = evaluate(tiny_pipeline, subset, lexicon, PipelineConfig())
    assert report.num_instances == len(subset)
    assert report.bleu == pytest.approx(1.0)
    assert report.rouge1 == pytest.approx(1.0)
    assert report.rouge2 == pytest.approx(1.0)
    assert report.rougeL == pytest.approx(1.0)
    # Identity pairs keep a small chunk penalty of 0.5/m^3 per sentence.
    assert report.meteor > 0.98
    assert report.span_f1 == pytest.approx(1.0)
    assert report.retrieval_accuracy == pytest.approx(1.0)
    for value in report.by_rigidity.values():
        assert value == pytest.approx(1.0)


def test_evaluate_empty_pairs(tiny_pipeline, demo):
    lexicon, _ = demo
    report = evaluate(tiny_pipeline, [], lexicon, PipelineConfig())
    assert report.num_instances == 0
    assert report.bleu == 0.0
    assert report.by_rigidity == {}


def test_evaluate_refuses_unresolvable_pair_before_transforming(tiny_pipeline, demo, monkeypatch):
    lexicon, pairs = demo
    calls = []
    monkeypatch.setattr("idiomatize.pipeline.transform_tokens", lambda *args: calls.append(args))
    ghost = ParallelPair("ghost", 0, pairs[0].literal, pairs[0].idiomatic, pairs[0].span)
    with pytest.raises(CorpusError, match="1 of 4 pairs do not resolve"):
        evaluate(tiny_pipeline, list(pairs[:3]) + [ghost], lexicon, PipelineConfig())
    assert calls == []


def test_evaluate_tiny_pipeline_smoke(tiny_pipeline, demo):
    lexicon, pairs = demo
    config = PipelineConfig(beam=2, max_len=16)
    report = evaluate(tiny_pipeline, pairs[:3], lexicon, config)
    assert report.num_instances == 3
    for name, value in report.to_dict().items():
        if name in ("num_instances", "by_rigidity"):
            continue
        assert 0.0 <= value <= 1.0, name


# ------------------------------------------------ generator training data

def test_generator_training_data_guided(demo):
    lexicon, pairs = demo
    by_id = {e.id: e for e in lexicon}
    data = generator_training_data(pairs, lexicon, guided=True)
    assert len(data) == len(pairs)
    for (inp, reference), pair in zip(data, pairs):
        expected = build_generator_input(
            by_id[pair.idiom_id].surface, pair.literal, pair.span, guided=True
        )
        assert inp == expected
        assert reference == pair.idiomatic


def test_generator_training_data_unguided(demo):
    lexicon, pairs = demo
    by_id = {e.id: e for e in lexicon}
    data = generator_training_data(pairs, lexicon, guided=False)
    for (inp, _), pair in zip(data, pairs):
        expected = build_generator_input(
            by_id[pair.idiom_id].surface, pair.literal, pair.span, guided=False
        )
        assert inp == expected
        assert all(i == 0 for i in inp.indicators)


def test_generator_training_data_skips_unresolvable_pairs(demo, caplog):
    lexicon, pairs = demo
    first = pairs[0]
    senses = next(len(e.senses) for e in lexicon if e.id == first.idiom_id)
    ghost = ParallelPair("ghost", 0, first.literal, first.idiomatic, first.span)
    far = ParallelPair(first.idiom_id, senses, first.literal, first.idiomatic, first.span)
    with caplog.at_level("WARNING"):
        data = generator_training_data([ghost] + list(pairs[:4]) + [far], lexicon)
    assert data == generator_training_data(pairs[:4], lexicon)
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2 and all(m.startswith("skipping pair") for m in messages)
    assert "'ghost'" in messages[0]


# ---------------------------------------------------------------- dataset

def test_dataset_round_trip(demo, demo_vocab, tmp_path):
    from idiomatize import split_corpus

    lexicon, pairs = demo
    split = split_corpus(pairs, ("mull_over",), seed=3)
    dataset = Dataset(
        lexicon=lexicon,
        split=split,
        vocab=demo_vocab,
        annotated_ids=("mull_over",),
    )
    out = str(tmp_path / "ds")
    write_dataset(out, dataset)
    for name in (
        "lexicon.jsonl",
        "train.jsonl",
        "validation.jsonl",
        "test.jsonl",
        "vocab.json",
        "meta.json",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    loaded = load_dataset(out)
    assert [e.id for e in loaded.lexicon] == [e.id for e in lexicon]
    assert loaded.split.train == split.train
    assert loaded.split.validation == split.validation
    assert loaded.split.test == split.test
    assert loaded.vocab.tokens == demo_vocab.tokens
    assert loaded.annotated_ids == ("mull_over",)
    assert loaded.split.seed == 3


def test_dataset_round_trip_keeps_the_split_seed(demo, demo_vocab, tmp_path):
    from idiomatize import split_corpus

    lexicon, pairs = demo
    split = split_corpus(pairs, ("mull_over",), seed=7)
    out = str(tmp_path / "ds")
    write_dataset(out, Dataset(lexicon=lexicon, split=split, vocab=demo_vocab, annotated_ids=("mull_over",)))
    with open(os.path.join(out, "meta.json"), encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 7
    assert load_dataset(out).split.seed == 7


def test_load_dataset_missing_directory(tmp_path):
    with pytest.raises(CorpusError, match=f"^{re.escape(str(tmp_path / 'absent'))}"):
        load_dataset(str(tmp_path / "absent"))
