#!/usr/bin/env python3
"""Train the benchmark's fixture checkpoints and record reference outputs.

Usage: python3 perfbench/make_fixtures.py [--workdir DIR] [--skip-train]

Training follows the README quick start exactly (demo data, ``ingest``,
then ``train`` for each stage with the README budgets and seed 0), so the
checkpoints come from the program's own code paths.  They are written
gzipped to ``perfbench/fixtures``.  The transform workloads decode from
these files and never retrain, so every commit under test decodes from
identical weights.

The second step records, with those checkpoints, the reference result
(idiom, span, output) of every request in the request pool on both
lexicons, and the ``evaluate`` report over the 32 demo pairs.
``--skip-train`` re-records the references from the committed
checkpoints.  Both steps are deterministic; on one core the whole run
takes about half an hour.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys
import time

import env
import gen

STAGES = ("retrieval", "extractor", "generator")

README_TRAIN_ARGS = {
    "retrieval": ["--epochs", "60", "--negatives", "10", "--lr", "5e-3", "--batch", "4"],
    "extractor": ["--epochs", "60", "--lr", "3e-3", "--batch", "4"],
    "generator": ["--epochs", "300", "--hidden", "64", "--lr", "5e-3", "--batch", "8"],
}


def write_gzip(path: str, data: bytes) -> None:
    """Gzip with a zero timestamp so identical data gives identical files."""
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)


def train_checkpoints(workdir: str) -> None:
    env.import_program()
    from idiomatize import cli, save_lexicon, save_pairs
    from idiomatize.toydata import demo_annotated_ids, demo_lexicon, demo_pairs

    data = os.path.join(workdir, "demo_data")
    os.makedirs(data, exist_ok=True)
    save_lexicon(os.path.join(data, "lexicon.jsonl"), demo_lexicon())
    save_pairs(os.path.join(data, "pairs.jsonl"), demo_pairs())
    with open(os.path.join(data, "annotated.txt"), "w", encoding="utf-8") as fh:
        fh.write("".join(i + "\n" for i in demo_annotated_ids()))
    dataset = os.path.join(data, "dataset")
    code = cli.main([
        "--quiet", "ingest", "--lexicon", os.path.join(data, "lexicon.jsonl"),
        "--pairs", os.path.join(data, "pairs.jsonl"),
        "--annotated", os.path.join(data, "annotated.txt"), "--out", dataset,
    ])
    if code:
        raise SystemExit(f"ingest failed with exit code {code}")
    for stage in STAGES:
        out = os.path.join(workdir, "ckpts", f"{stage}.json")
        t0 = time.perf_counter()
        code = cli.main(
            ["--quiet", "train", stage, "--data", dataset, "--out", out] + README_TRAIN_ARGS[stage]
        )
        if code:
            raise SystemExit(f"train {stage} failed with exit code {code}")
        print(f"trained {stage} in {time.perf_counter() - t0:.0f}s", flush=True)
        with open(out, "rb") as fh:
            write_gzip(os.path.join(env.FIXTURES, f"{stage}.json.gz"), fh.read())


def record_references(workdir: str) -> None:
    import workloads

    m = workloads.program()
    ckpt_dir = workloads.unpack_checkpoints(os.path.join(workdir, "ckpt_unpacked"))
    config = workloads.pipeline_config(m)
    models = m.pipeline.load_pipeline_models(ckpt_dir, config)
    demo_lexicon, pairs, vocab, pool = workloads.workload_inputs(m)
    if tuple(vocab.tokens) != tuple(models.retrieval.vocab.tokens):
        raise SystemExit("demo vocabulary differs from the checkpoint vocabulary")
    reference = {"config": config.to_dict(), "requests": len(pool), "lexicons": {}}
    rows = [{"base": r.base, "text": r.text} for r in pool]
    for name, workload in (("demo", "transform_demo"), ("biglex", "transform_biglex")):
        lexicon = workloads.lexicon_for(workload, demo_lexicon, vocab)
        workloads.check_lexicon(lexicon, vocab)
        t0 = time.perf_counter()
        for row in rows:
            row[name] = workloads.result_key(m.pipeline.transform(models, lexicon, row["text"], config))
        report = m.pipeline.evaluate(models, pairs, lexicon, config)
        reference["lexicons"][name] = {
            "keys": len(workloads.lexicon_keys(lexicon)),
            "digest": gen.lexicon_digest(lexicon),
            "evaluate": workloads.report_key(report),
        }
        print(f"recorded {len(rows)} {name} references in {time.perf_counter() - t0:.0f}s", flush=True)
    lines = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    write_gzip(os.path.join(env.FIXTURES, "requests.jsonl.gz"), lines.encode("utf-8"))
    with open(os.path.join(env.FIXTURES, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=os.path.join(env.WORK, "fixtures"))
    parser.add_argument("--skip-train", action="store_true",
                        help="keep the committed checkpoints; only re-record references")
    args = parser.parse_args()
    os.makedirs(env.FIXTURES, exist_ok=True)
    if not args.skip_train:
        shutil.rmtree(args.workdir, ignore_errors=True)
        train_checkpoints(args.workdir)
    record_references(args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
