#!/usr/bin/env python3
"""Replay the benchmark's recorded outputs and report how many differ.

Usage: python3 scripts/replay_fixtures.py

Loads the fixture checkpoints from perfbench/fixtures, rebuilds the demo
and the 223-key distractor lexicons, runs every recorded request through
``transform`` on both, and runs ``evaluate`` once per lexicon.  Each
(idiom, span, output) triple and each report is compared with the
recorded one.  Prints the number of differences, next to the mean number
of ``generator.decode_step`` calls (decoder positions), of tape
``bigru_encode`` calls (read through the ``retrieval``, ``extractor`` and
``generator`` module globals) and of ``Tensor``s constructed per
``transform`` request, and the number of ``retrieval.build_key_index``
calls (key-index builds) per lexicon, so an index that is rebuilt on every
query, or any inference step back on the tape, shows.  Exits 1 if any differ, so a change that should not alter
inference can be checked against all of them in one run (a few minutes
on one core).
"""

from __future__ import annotations

import collections
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import gen  # noqa: E402
import workloads  # noqa: E402  (imports env first, which pins BLAS to one thread)

LEXICONS = (("demo", "transform_demo"), ("biglex", "transform_biglex"))


def main() -> int:
    m = workloads.program()
    demo_lexicon, pairs, vocab, _ = workloads.workload_inputs(m)
    reference, recorded = workloads.load_references()
    config = workloads.pipeline_config(m)
    with tempfile.TemporaryDirectory() as tmp:
        models = m.pipeline.load_pipeline_models(workloads.unpack_checkpoints(tmp), config)
    calls = collections.Counter()

    def counting(owner, attr: str, key: str):
        """Make ``owner.attr`` add one to ``calls[key]`` before it runs; returns what undoes that."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        return lambda: setattr(owner, attr, original)

    differ = triples = reports_differ = 0
    for name, workload in LEXICONS:
        lexicon = workloads.lexicon_for(workload, demo_lexicon, vocab)
        if gen.lexicon_digest(lexicon) != reference["lexicons"][name]["digest"]:
            print(f"{name}: lexicon differs from the recorded one", file=sys.stderr)
            return 2
        unbuilt = counting(m.retrieval, "build_key_index", f"builds {name}")
        per_request = [
            counting(m.generator, "decode_step", "decode_step"), counting(m.tensor.Tensor, "__init__", "tensors"),
            *[counting(mod, "bigru_encode", "bigru_encode") for mod in (m.retrieval, m.extractor, m.generator)],
        ]
        for text, row in recorded.items():
            got = workloads.result_key(m.pipeline.transform(models, lexicon, text, config))
            triples += 1
            if got != row[name]:
                differ += 1
                print(f"{name}: {text!r}: recorded {row[name]}, got {got}")
        for undo in per_request:
            undo()
        report = workloads.report_key(m.pipeline.evaluate(models, pairs, lexicon, config))
        unbuilt()
        if report != reference["lexicons"][name]["evaluate"]:
            reports_differ += 1
            print(f"{name}: evaluate report differs: got {report}")
    print(f"{differ} of {triples} triples differ ({calls['decode_step'] / triples:.2f} decode_step and "
          f"{calls['bigru_encode'] / triples:.2f} tape bigru_encode calls and {calls['tensors'] / triples:.2f} "
          f"Tensors constructed per request); "
          f"{reports_differ} of {len(LEXICONS)} evaluate reports differ; key-index builds: "
          + ", ".join(f"{name} {calls['builds ' + name]}" for name, _ in LEXICONS))
    return 1 if differ or reports_differ else 0


if __name__ == "__main__":
    sys.exit(main())
