"""The benchmark's workloads and the metrics they report.

Each workload is one closed loop with a single client in one process.
It calls the program only through the public functions of its modules,
looked up on the module at call time, so the tracer in ``spans`` can
wrap them.  ``run`` returns the result object the benchmark prints:
end-to-end metrics untraced, or per-layer metrics from a traced run.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import time
from types import SimpleNamespace

import env
import gen
from probe import SpeedProbe
from spans import Tracer, aggregate

WORKLOADS = ("train_demo", "transform_demo", "transform_biglex")

# README hyperparameters; the epoch budget is the benchmark's own, kept
# short so that one run holds several rounds.
TRAIN_EPOCHS = {"retrieval": 1, "extractor": 2, "generator": 2}
RETRIEVAL_NEGATIVES = 10
# The workload seed seeds the parameters; shuffling and negative sampling
# use the README seed, so every run trains on the same batches and step
# times do not depend on the seed.
TRAIN_SEED = 0
SETUP_REPS = {"train_demo": 15, "transform_demo": 5, "transform_biglex": 5}
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "share",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "items_per_s": "1/s",
    "job_s": "s",
    "match_share": "share",
}

PER_LAYER = {
    "gru.step_calls": "count", "gru.step_s": "s", "gru.encode_calls": "count", "gru.encode_s": "s",
    "tensor.backward_calls": "count", "tensor.backward_s": "s",
    "optim.adam_calls": "count", "optim.adam_s": "s", "optim.init_s": "s",
    **{f"{stage}.{name}": unit
       for stage in ("retrieval", "extractor", "generator")
       for name, unit in (("train_forward_s", "s"), ("train_backward_s", "s"), ("train_adam_s", "s"),
                          ("train_inst_per_s", "1/s"), ("final_loss", "nats"))},
    "retrieval.queries": "count", "retrieval.keys_scored": "count", "retrieval.query_s": "s",
    "retrieval.key_us": "us", "retrieval.eval_acc": "share",
    "extractor.calls": "count", "extractor.extract_s": "s", "extractor.viterbi_s": "s",
    "extractor.crf_partition_s": "s", "extractor.crf_marginals_s": "s", "extractor.eval_span_f1": "share",
    "generator.beam_calls": "count", "generator.beam_s": "s", "generator.encode_s": "s",
    "generator.decode_steps": "count", "generator.decode_step_us": "us",
    "generator.steps_per_token": "ratio", "generator.reserved_token_outputs": "count",
    "generator.eval_bleu": "share",
    "pipeline.load_s": "s", "pipeline.save_s": "s",
    "metrics.score_s": "s",
    "trace.overhead_share": "share", "trace.units": "count",
}


def program():
    """The program's modules, imported from this checkout."""
    env.import_program()
    names = ("corpus", "extractor", "generator", "metrics", "pipeline", "retrieval", "toydata",
             "numerics.gru", "numerics.optim", "numerics.tensor")
    mods = {n.split(".")[-1]: importlib.import_module(f"idiomatize.{n}") for n in names}
    return SimpleNamespace(**mods)


def pipeline_config(m):
    """The README transform config: guided generator, beam 4."""
    return m.pipeline.PipelineConfig(
        order="retrieve_then_extract", retrieval_key="definition",
        generator_mode="guided", beam=4, max_len=40, seed=0,
    )


def trace_points(m) -> list[tuple[object, str, str]]:
    """Where each layer is entered, as (owner, attribute, span name)."""
    trainers = (m.retrieval, m.extractor, m.generator)
    return [
        (m.tensor.Tensor, "backward", "tensor.backward"),
        (m.gru, "gru_step", "gru.step"),
        (m.generator, "gru_step", "gru.step"),
        *[(mod, "bigru_encode", "gru.encode") for mod in trainers],
        *[(mod, "adam_step", "optim.adam") for mod in trainers],
        (m.optim.ParamStore, "add", "optim.init"),
        (m.optim.ParamStore, "add_zeros", "optim.init"),
        (m.retrieval, "train_retrieval", "retrieval.train"),
        (m.pipeline, "retrieve_top1", "retrieval.query"),
        (m.retrieval, "score_pair", "retrieval.key"),
        (m.extractor, "train_extractor", "extractor.train"),
        (m.pipeline, "extract_span", "extractor.extract"),
        (m.extractor, "crf_viterbi", "extractor.viterbi"),
        (m.extractor, "crf_log_partition", "extractor.crf_partition"),
        (m.extractor, "crf_log_marginals", "extractor.crf_marginals"),
        (m.generator, "train_generator", "generator.train"),
        (m.pipeline, "beam_decode", "generator.beam"),
        (m.generator, "encode_input", "generator.encode"),
        (m.generator, "decode_step", "generator.decode_step"),
        (m.pipeline, "save_checkpoint", "pipeline.save"),
        (m.pipeline, "transform", "pipeline.transform"),
        (m.pipeline, "evaluate", "pipeline.evaluate"),
        *[(m.pipeline, name, "metrics.score") for name in (
            "bleu", "rouge", "meteor", "span_f1", "retrieval_accuracy",
            "part_accuracy", "stratify_by_rigidity")],
    ]


# ---------------------------------------------------------------- statistics

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile
    that leaves ``TAIL_BEYOND`` samples beyond it: the 11th-largest value.

    Nearest rank: with n samples that is percentile 100 (n - 10) / n.  With
    ten samples or fewer the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ---------------------------------------------------------------- fixtures

def unpack_checkpoints(out_dir: str) -> str:
    """Gunzip the fixture checkpoints into ``out_dir``; returns it."""
    os.makedirs(out_dir, exist_ok=True)
    for stage in ("retrieval", "extractor", "generator"):
        src = os.path.join(env.FIXTURES, f"{stage}.json.gz")
        if not os.path.isfile(src):
            raise env.SetupError(f"missing fixture checkpoint {src}")
        with gzip.open(src, "rb") as fh, open(os.path.join(out_dir, f"{stage}.json"), "wb") as out:
            out.write(fh.read())
    return out_dir


def load_references() -> tuple[dict, dict[str, dict]]:
    """(reference.json, request text -> recorded results per lexicon)."""
    with open(os.path.join(env.FIXTURES, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    with gzip.open(os.path.join(env.FIXTURES, "requests.jsonl.gz"), "rt", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return reference, {row["text"]: row for row in rows}


def lexicon_keys(lexicon) -> list[tuple[str, ...]]:
    return [sense for entry in lexicon for sense in entry.senses]


def check_lexicon(lexicon, vocab) -> None:
    """Keys must be distinct and in vocabulary, so no key dedup or <unk>
    collapse can shrink the retrieval work."""
    keys = lexicon_keys(lexicon)
    if len(set(keys)) != len(keys):
        raise ValueError("lexicon has duplicate keys")
    oov = sorted({t for key in keys for t in key if t not in vocab})
    if oov:
        raise ValueError(f"lexicon keys have out-of-vocabulary tokens {oov[:5]}")


def result_key(result) -> dict:
    return {
        "idiom": result.idiom_id,
        "span": list(result.span) if result.span is not None else None,
        "output": " ".join(result.output),
    }


def report_key(report) -> dict:
    return report.to_dict()


def workload_inputs(m):
    """Demo corpus, the fixture vocabulary and the request pool."""
    lexicon = m.toydata.demo_lexicon()
    pairs = m.toydata.demo_pairs()
    vocab = m.corpus.build_vocab(pairs, lexicon)
    return lexicon, pairs, vocab, gen.request_pool(pairs, vocab.tokens)


def lexicon_for(workload: str, demo_lexicon, vocab):
    if workload == "transform_biglex":
        return gen.distractor_lexicon(demo_lexicon, vocab.tokens)
    return list(demo_lexicon)


# ---------------------------------------------------------------- train_demo

def _train_setup(m, data_dir: str):
    """What a user does before training: load the corpus, build the vocabulary and instances."""
    lexicon = m.corpus.load_lexicon(os.path.join(data_dir, "lexicon.jsonl"))
    pairs = m.corpus.load_pairs(os.path.join(data_dir, "pairs.jsonl"), lexicon)
    vocab = m.corpus.build_vocab(pairs, lexicon)
    gen_data = m.pipeline.generator_training_data(pairs, lexicon, guided=True)
    return SimpleNamespace(lexicon=lexicon, pairs=pairs, vocab=vocab, gen_data=gen_data)


def _timed_setups(reps: int, setup, speed: SpeedProbe) -> tuple[object, list[float], list[float]]:
    """Run ``setup`` ``reps`` times between probes; (last result, raw times, scaled times)."""
    raw, scaled = [], []
    speed.measure()
    for _ in range(reps):
        t0 = time.perf_counter()
        result = setup()
        t1 = time.perf_counter()
        speed.measure()
        r, s = speed.region(t0, t1)
        raw.append(r)
        scaled.append(s)
    return result, raw, scaled


def _train_round(m, data, seed: int, out_dir: str, speed: SpeedProbe) -> dict:
    """Init, train and save all three stages once.

    Returns per-stage losses, instances, raw and scaled train seconds and
    optimizer-step pieces, and the round's raw and scaled wall time.  A
    probe runs between the round's parts and, through the wrapped
    ``adam_step``, after every optimizer step; probe time is not counted.
    """
    e, n = TRAIN_EPOCHS, len(data.pairs)
    walls = []

    def timed(call):
        t0 = time.perf_counter()
        out = call()
        t1 = time.perf_counter()
        speed.measure()
        walls.append(speed.region(t0, t1))
        return out, t0, t1

    models, _, _ = timed(lambda: {
        "retrieval": m.retrieval.RetrievalModel(data.vocab, embed_dim=64, hidden=64, seed=seed),
        "extractor": m.extractor.ExtractorModel(data.vocab, embed_dim=64, hidden=64, seed=seed),
        "generator": m.generator.GeneratorModel(data.vocab, hidden=64, guided=True, seed=seed),
    })
    trainings = {
        "retrieval": (n * (1 + RETRIEVAL_NEGATIVES) * e["retrieval"], lambda: m.retrieval.train_retrieval(
            models["retrieval"], data.pairs, data.lexicon, epochs=e["retrieval"],
            negatives_per_positive=RETRIEVAL_NEGATIVES, lr=5e-3, seed=TRAIN_SEED, batch_size=4)),
        "extractor": (n * e["extractor"], lambda: m.extractor.train_extractor(
            models["extractor"], data.pairs, data.lexicon, epochs=e["extractor"],
            lr=3e-3, seed=TRAIN_SEED, batch_size=4)),
        "generator": (len(data.gen_data) * e["generator"], lambda: m.generator.train_generator(
            models["generator"], data.gen_data, epochs=e["generator"],
            batch_size=8, lr=5e-3, seed=TRAIN_SEED)),
    }
    stages = {}
    for stage, (instances, train) in trainings.items():
        history, t0, t1 = timed(train)
        raw, scaled = walls[-1]
        stages[stage] = {"model": models[stage], "losses": history["epoch_losses"], "instances": instances,
                         "train_s": raw, "scaled_train_s": scaled,
                         # Pieces between probes; all but the last end at an adam_step.
                         "steps": [dt * f for dt, f in speed.segments(t0, t1)[:-1]]}

    def save():
        for stage, model in models.items():
            m.pipeline.save_checkpoint(model, os.path.join(out_dir, f"{stage}.json"))

    timed(save)
    return {"stages": stages, "wall_s": sum(r for r, _ in walls), "scaled_wall_s": sum(s for _, s in walls)}


def _check_round(m, round_: dict, first: dict | None, out_dir: str) -> tuple[list[bool], float, dict]:
    """Correctness checks for one round, the reload time, and the round's digests."""
    checks = []
    load_s = 0.0
    digests = {}
    for stage, info in round_["stages"].items():
        losses = info["losses"]
        finite = all(math.isfinite(x) for x in losses)
        # One retrieval epoch leaves a single mean loss: it must beat chance (ln 2).
        learned = losses[-1] < losses[0] if len(losses) > 1 else losses[0] < math.log(2)
        checks.append(finite and learned)
        path = os.path.join(out_dir, f"{stage}.json")
        ts = time.perf_counter()
        reloaded = m.pipeline.load_checkpoint(path)
        load_s += time.perf_counter() - ts
        same = all(
            (reloaded.store[name].data == t.data).all() for name, t in info["model"].store.items()
        )
        checks.append(same)
        with open(path, "rb") as fh:
            digests[stage] = (hashlib.sha256(fh.read()).hexdigest(), tuple(losses))
        if first is not None:
            checks.append(digests[stage] == first[stage])
    return checks, load_s, digests


def run_train(m, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    data_dir = os.path.join(workdir, "data")
    out_dir = os.path.join(workdir, "ckpts")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    m.corpus.save_lexicon(os.path.join(data_dir, "lexicon.jsonl"), m.toydata.demo_lexicon())
    m.corpus.save_pairs(os.path.join(data_dir, "pairs.jsonl"), m.toydata.demo_pairs())
    speed = SpeedProbe()
    data, raw_setup, setup_times = _timed_setups(
        SETUP_REPS["train_demo"], lambda: _train_setup(m, data_dir), speed)

    # Untraced rounds wrap only adam_step, to probe host speed after every
    # optimizer step; traced rounds probe there too, inside a "probe" span.
    steps_only = Tracer([(mod, "adam_step", "optim.adam") for mod in (m.retrieval, m.extractor, m.generator)],
                        after={"optim.adam": speed.measure})
    tracer = Tracer(trace_points(m))

    def traced_probe():
        with tracer.span("probe"):
            speed.measure()

    tracer.after = {"optim.adam": traced_probe}
    rounds, checks, load_times = [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        attempted += 1
        try:
            round_tracer = tracer if traced else steps_only
            with round_tracer.root("round"):
                round_ = _train_round(m, data, seed, out_dir, speed)
        except Exception as err:  # a failed round counts against success_share
            failed += 1
            print(f"round failed: {err!r}", flush=True)
            break
        round_["traced"] = traced
        round_checks, load_s, digests = _check_round(m, round_, first, out_dir)
        for stage_info in round_["stages"].values():
            del stage_info["model"]  # keep one round's models alive at a time
        first = first or digests
        checks.extend(round_checks)
        load_times.append(load_s)
        rounds.append(round_)
        elapsed = time.perf_counter() - start
        # Start another round only if it fits in the window, but run at least
        # two (a trace run needs one untraced and one traced round).
        if elapsed + round_["wall_s"] > seconds and len(rounds) >= 2:
            break
    if not rounds:
        raise RuntimeError("no training round completed")

    info = {"rounds": len(rounds), "setup_reps": len(setup_times),
            "epochs": TRAIN_EPOCHS, "retrieval_negatives": RETRIEVAL_NEGATIVES, **speed.summary()}
    untraced = [r for r in rounds if not r["traced"]]
    for stage in ("retrieval", "extractor", "generator"):
        rates = [r["stages"][stage]["instances"] / r["stages"][stage]["train_s"] for r in untraced]
        info[f"{stage}_train_inst_per_s"] = statistics.median(rates) if rates else 0.0
        info[f"{stage}_final_loss"] = rounds[0]["stages"][stage]["losses"][-1]
    match_share = sum(checks) / len(checks) if checks else 0.0
    correct = failed == 0 and all(checks)

    if trace:
        tracer.write(os.path.join(workdir, f"spans-seed{seed}.jsonl"))
        info["trace_missing"] = tracer.missing
        values = _train_layers(tracer, rounds, info, statistics.median(load_times))
        return _result(correct, attempted, failed, values, PER_LAYER, info)

    p50s, tails, rates = [], [], []
    for r in rounds:
        steps = [s for i in r["stages"].values() for s in i["steps"]]
        p50s.append(statistics.median(steps))
        value, pct, beyond = tail(steps)
        tails.append(value)
        rates.append(sum(i["instances"] for i in r["stages"].values())
                     / sum(i["scaled_train_s"] for i in r["stages"].values()))
        info.update(steps_per_round=len(steps), tail_percentile=pct, tail_beyond=beyond)
    info.update(raw_setup_s=statistics.median(raw_setup),
                raw_job_s=statistics.median(r["wall_s"] for r in rounds))
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "success_share": (attempted - failed) / attempted,
        "p50_ms": 1e3 * statistics.median(p50s),
        "tail_ms": 1e3 * statistics.median(tails),
        "items_per_s": statistics.median(rates),
        "job_s": statistics.median(r["scaled_wall_s"] for r in rounds),
        "match_share": match_share,
    }
    return _result(correct, attempted, failed, values, END_TO_END, info)


def _train_layers(tracer: Tracer, rounds: list, info: dict, load_s: float) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    traced = [r for r in rounds if r["traced"]]
    units = len(traced)
    agg = aggregate(tracer, "round")
    _common_layers(values, agg, units)
    values["optim.init_s"] = agg.get("optim.init", {}).get("total_s", 0.0) / units
    values["extractor.crf_partition_s"] = agg.get("extractor.crf_partition", {}).get("total_s", 0.0) / units
    values["extractor.crf_marginals_s"] = agg.get("extractor.crf_marginals", {}).get("total_s", 0.0) / units
    values["pipeline.save_s"] = agg.get("pipeline.save", {}).get("total_s", 0.0) / units
    values["pipeline.load_s"] = load_s
    for stage in ("retrieval", "extractor", "generator"):
        inner = aggregate(tracer, "round", nested_in=f"{stage}.train")
        train_total = agg.get(f"{stage}.train", {}).get("total_s", 0.0)
        backward = inner.get("tensor.backward", {}).get("total_s", 0.0)
        adam = inner.get("optim.adam", {}).get("total_s", 0.0)
        probes = inner.get("probe", {}).get("total_s", 0.0)
        values[f"{stage}.train_backward_s"] = backward / units
        values[f"{stage}.train_adam_s"] = adam / units
        values[f"{stage}.train_forward_s"] = (train_total - backward - adam - probes) / units
        values[f"{stage}.train_inst_per_s"] = info[f"{stage}_train_inst_per_s"]
        values[f"{stage}.final_loss"] = info[f"{stage}_final_loss"]
    # Scaled walls, so that host speed changes between the rounds cancel.
    walls = [r["scaled_wall_s"] for r in rounds if not r["traced"]]
    values["trace.overhead_share"] = (
        statistics.median(r["scaled_wall_s"] for r in traced) / statistics.median(walls) - 1)
    values["trace.units"] = units
    return values


# ---------------------------------------------------------------- transform

def run_transform(m, workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    lexicon_name = "biglex" if workload == "transform_biglex" else "demo"
    demo_lexicon, pairs, vocab, pool = workload_inputs(m)
    lexicon_path = os.path.join(workdir, "lexicon.jsonl")
    m.corpus.save_lexicon(lexicon_path, lexicon_for(workload, demo_lexicon, vocab))
    ckpt_dir = unpack_checkpoints(os.path.join(workdir, "ckpts"))
    reference, recorded = load_references()
    expected = reference["lexicons"][lexicon_name]
    config = pipeline_config(m)
    if reference["config"] != config.to_dict():
        raise env.SetupError("reference outputs were recorded with another pipeline config")

    speed = SpeedProbe()
    load_times = []

    def setup():
        lexicon = m.corpus.load_lexicon(lexicon_path)
        t0 = time.perf_counter()
        models = m.pipeline.load_pipeline_models(ckpt_dir, config)
        load_times.append(time.perf_counter() - t0)
        return lexicon, models

    (lexicon, models), raw_setup, setup_times = _timed_setups(SETUP_REPS[workload], setup, speed)
    if gen.lexicon_digest(lexicon) != expected["digest"]:
        raise env.SetupError(f"{lexicon_name} lexicon differs from the one the references were recorded with")
    check_lexicon(lexicon, models.retrieval.vocab)

    stream = gen.request_stream(pool, seed)
    if len({r.text for r in stream}) != len(stream):
        raise ValueError("request stream repeats a sentence")
    tracer = Tracer(trace_points(m) if trace else [])
    latencies = {False: [], True: []}
    scaled = []
    matched = failed = reserved = emitted = 0
    reserved_tokens = set(gen.RESERVED)
    start = time.perf_counter()
    n = 0
    for request in stream:
        if time.perf_counter() - start >= seconds:
            break
        traced = trace and n % 2 == 1
        n += 1
        result = None
        try:
            with tracer.root("request", on=traced):
                t0 = time.perf_counter()
                result = m.pipeline.transform(models, lexicon, request.text, config)
                t1 = time.perf_counter()
        except Exception as err:  # a failed request counts against success_share
            failed += 1
            print(f"request failed: {request.text!r}: {err!r}", flush=True)
        speed.measure()
        if result is not None:
            latencies[traced].append(t1 - t0)
            scaled.append(speed.region(t0, t1)[1])
            ref = recorded.get(request.text)
            matched += ref is not None and ref[lexicon_name] == result_key(result)
            reserved += any(t in reserved_tokens for t in result.output)
            if traced:
                emitted += len(result.output) + 1
    loop_s = time.perf_counter() - start

    attempted = n + 1
    report = None
    # Untraced, a probe runs after each pair's transform_tokens inside evaluate.
    evaluate_tracer = tracer if trace else Tracer([(m.pipeline, "transform_tokens", "pipeline.transform")],
                                                  after={"pipeline.transform": speed.measure})
    t0 = time.perf_counter()
    try:
        with evaluate_tracer.root("evaluate"):
            report = m.pipeline.evaluate(models, pairs, lexicon, config)
    except Exception as err:  # a failed evaluate counts against success_share
        failed += 1
        print(f"evaluate failed: {err!r}", flush=True)
    t1 = time.perf_counter()
    speed.measure()
    job_s, scaled_job_s = speed.region(t0, t1)
    eval_ok = report is not None and report_key(report) == expected["evaluate"]

    info = {
        "requests": n, "pool": len(pool), "pool_exhausted": n == len(stream),
        "lexicon_keys": len(lexicon_keys(lexicon)), "setup_reps": len(setup_times),
        "evaluate_pairs": len(pairs), "evaluate_matches_reference": eval_ok, **speed.summary(),
    }
    if report is not None:
        info.update(eval_bleu=report.bleu, eval_retrieval_acc=report.retrieval_accuracy,
                    eval_span_f1=report.span_f1)
    correct = failed == 0 and matched == n and eval_ok
    if trace:
        tracer.write(os.path.join(workdir, f"spans-seed{seed}.jsonl"))
        info["trace_missing"] = tracer.missing
        values = _transform_layers(tracer, latencies, report, statistics.median(load_times),
                                   reserved, emitted)
        return _result(correct, attempted, failed, values, PER_LAYER, info)

    value, pct, beyond = tail(scaled)
    done = latencies[False]
    info.update(tail_percentile=pct, tail_beyond=beyond, latency_samples=len(scaled),
                evaluate_pairs_per_s=len(pairs) / scaled_job_s,
                raw_setup_s=statistics.median(raw_setup), raw_p50_ms=1e3 * statistics.median(done),
                raw_tail_ms=1e3 * tail(done)[0], raw_items_per_s=len(done) / loop_s, raw_job_s=job_s)
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "success_share": (attempted - failed) / attempted,
        "p50_ms": 1e3 * statistics.median(scaled),
        "tail_ms": 1e3 * value,
        "items_per_s": len(scaled) / sum(scaled),
        "job_s": scaled_job_s,
        "match_share": matched / n,
    }
    return _result(correct, attempted, failed, values, END_TO_END, info)


def _transform_layers(tracer: Tracer, latencies: dict, report, load_s: float,
                      reserved: int, emitted: int) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    units = len(latencies[True])
    agg = aggregate(tracer, "request")
    query = agg.get("retrieval.query", {})
    key = agg.get("retrieval.key", {})
    _common_layers(values, agg, units)
    values["retrieval.queries"] = query.get("calls", 0) / units
    values["retrieval.keys_scored"] = key.get("calls", 0) / units
    values["retrieval.query_s"] = query.get("total_s", 0.0) / units
    values["retrieval.key_us"] = 1e6 * query.get("total_s", 0.0) / max(1, key.get("calls", 0))
    extract = agg.get("extractor.extract", {})
    values["extractor.calls"] = extract.get("calls", 0) / units
    values["extractor.extract_s"] = extract.get("total_s", 0.0) / units
    values["extractor.viterbi_s"] = agg.get("extractor.viterbi", {}).get("total_s", 0.0) / units
    beam = agg.get("generator.beam", {})
    steps = agg.get("generator.decode_step", {})
    values["generator.beam_calls"] = beam.get("calls", 0) / units
    values["generator.beam_s"] = beam.get("total_s", 0.0) / units
    values["generator.encode_s"] = agg.get("generator.encode", {}).get("total_s", 0.0) / units
    values["generator.decode_steps"] = steps.get("calls", 0) / units
    values["generator.decode_step_us"] = 1e6 * steps.get("total_s", 0.0) / max(1, steps.get("calls", 0))
    values["generator.steps_per_token"] = steps.get("calls", 0) / max(1, emitted)
    values["generator.reserved_token_outputs"] = reserved
    values["pipeline.load_s"] = load_s
    values["metrics.score_s"] = aggregate(tracer, "evaluate").get("metrics.score", {}).get("total_s", 0.0)
    if report is not None:
        values["retrieval.eval_acc"] = report.retrieval_accuracy
        values["extractor.eval_span_f1"] = report.span_f1
        values["generator.eval_bleu"] = report.bleu
    values["trace.overhead_share"] = statistics.median(latencies[True]) / statistics.median(latencies[False]) - 1
    values["trace.units"] = units
    return values


def _common_layers(values: dict, agg: dict, units: int) -> None:
    """Per-unit GRU, tape and Adam figures shared by every workload."""
    for metric, span, field in (
        ("gru.step_calls", "gru.step", "calls"), ("gru.step_s", "gru.step", "self_s"),
        ("gru.encode_calls", "gru.encode", "calls"), ("gru.encode_s", "gru.encode", "total_s"),
        ("tensor.backward_calls", "tensor.backward", "calls"),
        ("tensor.backward_s", "tensor.backward", "total_s"),
        ("optim.adam_calls", "optim.adam", "calls"), ("optim.adam_s", "optim.adam", "total_s"),
    ):
        values[metric] = agg.get(span, {}).get(field, 0) / units


def _result(correct: bool, attempted: int, failed: int, values: dict, units: dict, info: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_block(values, units),
        "info": info,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    m = program()
    workdir = os.path.join(env.WORK, workload)
    os.makedirs(workdir, exist_ok=True)
    if workload == "train_demo":
        return run_train(m, seed, seconds, trace, workdir)
    return run_transform(m, workload, seed, seconds, trace, workdir)
