"""Recorded transform outputs replay unchanged: a guard on bit-identical inference.

``perfbench/fixtures`` holds three trained checkpoints and the (idiom,
span, output) triple ``transform`` produced for every benchmark request,
on the 23-key demo lexicon and on the demo lexicon plus 200 seeded
distractor idioms.  This replays the first recorded request of each demo
pair on both lexicons; ``scripts/replay_fixtures.py`` replays all of them
and the ``evaluate`` reports.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
import os
import shutil
import sys

import pytest

from idiomatize import PipelineConfig, build_vocab, load_pipeline_models, transform
from idiomatize.toydata import demo_lexicon, demo_pairs

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
FIXTURES = os.path.join(PERFBENCH, "fixtures")


def _load_gen():
    """perfbench/gen.py (seeded input generators; importing it has no side effects)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", os.path.join(PERFBENCH, "gen.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recorded():
    with open(os.path.join(FIXTURES, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    first: dict[int, dict] = {}
    with gzip.open(os.path.join(FIXTURES, "requests.jsonl.gz"), "rt", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            first.setdefault(row["base"], row)
    return reference, [first[base] for base in sorted(first)]


@pytest.fixture(scope="module")
def fixture_models(tmp_path_factory, recorded):
    reference, _ = recorded
    out = tmp_path_factory.mktemp("fixture_ckpts")
    for stage in ("retrieval", "extractor", "generator"):
        with gzip.open(os.path.join(FIXTURES, f"{stage}.json.gz"), "rb") as src, open(out / f"{stage}.json", "wb") as dst:
            shutil.copyfileobj(src, dst)
    config = PipelineConfig(**reference["config"])
    return load_pipeline_models(str(out), config), config


@pytest.mark.parametrize("name", ["demo", "biglex"])
def test_fixture_requests_replay_recorded_outputs(recorded, fixture_models, name):
    reference, rows = recorded
    models, config = fixture_models
    lexicon, pairs = demo_lexicon(), demo_pairs()
    assert len(rows) == len(pairs)
    gen = _load_gen()
    if name == "biglex":
        lexicon = gen.distractor_lexicon(lexicon, build_vocab(pairs, lexicon).tokens)
    assert gen.lexicon_digest(lexicon) == reference["lexicons"][name]["digest"]
    differ = []
    for row in rows:
        result = transform(models, lexicon, row["text"], config)
        got = {
            "idiom": result.idiom_id,
            "span": list(result.span) if result.span is not None else None,
            "output": " ".join(result.output),
        }
        if got != row[name]:
            differ.append((row["text"], row[name], got))
    assert differ == []
