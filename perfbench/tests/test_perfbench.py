"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import env  # noqa: E402  (pins BLAS threads before numpy loads)
import gen  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, aggregate, roots_of, self_times  # noqa: E402


@pytest.fixture(scope="module")
def m():
    return workloads.program()


@pytest.fixture(scope="module")
def inputs(m):
    return workloads.workload_inputs(m)


# ------------------------------------------------------------ percentile rule

@pytest.mark.parametrize("n", [11, 20, 43, 100, 260, 1000])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    values = [float(i) for i in range(n, 0, -1)]
    value, pct, beyond = workloads.tail(values)
    assert beyond == 10 and sum(v > value for v in values) == 10
    assert value == float(n - 10)
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # nearest rank of that percentile is the reported value
    assert sorted(values)[math.ceil(round(pct * n / 100, 9)) - 1] == value


def test_tail_without_enough_samples_reports_the_maximum():
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert workloads.tail([1.0] * 10)[1:] == (100.0, 0)


# ------------------------------------------------------------ speed probe

def test_probe_segments_skip_probe_time_and_scale_by_neighbouring_probes():
    speed = probe.SpeedProbe()
    ref = probe.REFERENCE_S
    # probes (start, end): before the region, two inside it, after it
    speed._starts = [0.0, 10.0, 20.0, 30.0]
    speed._ends = [ref, 10.0 + ref, 20.0 + 2 * ref, 30.0 + 2 * ref]
    segs = speed.segments(1.0, 29.0)
    assert [dt for dt, _ in segs] == pytest.approx([9.0, 20.0 - 10.0 - ref, 29.0 - 20.0 - 2 * ref])
    assert [f for _, f in segs] == pytest.approx([1.0, 2 / 3, 0.5])
    raw, scaled = speed.region(1.0, 29.0)
    assert raw == pytest.approx(sum(dt for dt, _ in segs))
    assert scaled == pytest.approx(sum(dt * f for dt, f in segs))
    with pytest.raises(ValueError):
        speed.segments(1.0, 31.0)


def test_probe_measures_real_work():
    speed = probe.SpeedProbe()
    speed.measure()
    speed.measure()
    assert len(speed.samples) == 2 and all(s > 0 for s in speed.samples)


# ------------------------------------------------------------ self time

def test_self_time_subtracts_direct_children_only():
    # root [0, 10) holds a [1, 4) and b [5, 9); b holds c [6, 8).
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 9.0, 0), (2, 6.0, 8.0, 2)]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert roots_of(spans) == [0, 0, 0, 0]


def test_aggregate_counts_spans_below_named_roots():
    tracer = Tracer([])
    tracer.names = ["request", "step", "other", "outer"]
    tracer.spans = [
        (0, 0.0, 4.0, -1), (1, 0.5, 1.5, 0), (3, 2.0, 3.5, 0), (1, 2.5, 3.0, 2),
        (2, 5.0, 6.0, -1), (1, 5.2, 5.4, 4),
    ]
    agg = aggregate(tracer, "request")
    assert agg["step"]["calls"] == 2
    assert agg["step"]["total_s"] == pytest.approx(1.5)
    assert agg["request"]["self_s"] == pytest.approx(1.5)
    assert agg["outer"]["self_s"] == pytest.approx(1.0)
    nested = aggregate(tracer, "request", nested_in="outer")
    assert set(nested) == {"step"} and nested["step"]["calls"] == 1


# ------------------------------------------------------------ wrappers

def _fake_program():
    mod = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    class Thing:
        def method(self, x):
            return mod.outer(x)

    mod.leaf, mod.outer, mod.Thing = leaf, outer, Thing
    return mod


def test_wrappers_record_nested_spans_and_restore_originals():
    mod = _fake_program()
    originals = (mod.leaf, mod.outer, mod.Thing.__dict__["method"])
    tracer = Tracer([(mod, "leaf", "leaf"), (mod, "outer", "outer"),
                     (mod.Thing, "method", "method"), (mod, "gone", "gone")])
    with tracer.installed():
        assert mod.leaf is not originals[0]
        with tracer.span("request"):
            assert mod.Thing().method(1) == 4
    assert (mod.leaf, mod.outer, mod.Thing.__dict__["method"]) == originals
    assert tracer.missing == ["fake.gone"]
    names = [tracer.names[s[0]] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["request", "method", "outer", "leaf"]
    assert parents == [-1, 0, 1, 2]
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_times(tracer.spans)) == pytest.approx(total, abs=1e-12)
    assert mod.Thing().method(1) == 4 and len(tracer.spans) == 4


def test_wrappers_restore_even_when_the_call_raises():
    mod = _fake_program()
    original = mod.leaf
    tracer = Tracer([(mod, "leaf", "leaf")])
    with pytest.raises(TypeError):
        with tracer.installed():
            mod.leaf(None)
    assert mod.leaf is original
    assert tracer.spans[0] is not None


def test_program_trace_points_all_exist_and_restore(m):
    points = workloads.trace_points(m)
    before = [(o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a)) for o, a, _ in points]
    tracer = Tracer(points)
    with tracer.installed():
        assert tracer.missing == []
    after = [(o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a)) for o, a, _ in points]
    assert all(x[2] is y[2] for x, y in zip(before, after))


# ------------------------------------------------------------ generators

def test_request_stream_is_a_pure_function_of_the_seed(inputs):
    pool = inputs[3]
    a = gen.request_stream(pool, 7)
    assert a == gen.request_stream(pool, 7)
    assert a != gen.request_stream(pool, 8)
    assert len({r.text for r in a}) == len(a) == len(pool)


def test_request_stream_cycles_visit_every_pair_once(inputs):
    pairs, pool = inputs[1], inputs[3]
    stream = gen.request_stream(pool, 3)
    for lo in range(0, len(stream), len(pairs)):
        assert sorted(r.base for r in stream[lo:lo + len(pairs)]) == list(range(len(pairs)))


def test_pool_rewrites_words_outside_the_span_with_vocabulary_words(m, inputs):
    _, pairs, vocab, pool = inputs
    assert pool == gen.request_pool(pairs, vocab.tokens)
    assert len(pool) == len(pairs) * gen.POOL_VARIANTS
    for request in pool:
        pair = pairs[request.base]
        tokens = m.corpus.tokenize(request.text)
        assert len(tokens) == len(pair.literal) and all(t in vocab for t in tokens)
        changed = [i for i, (a, b) in enumerate(zip(tokens, pair.literal)) if a != b]
        s, e = pair.span
        assert 1 <= len(changed) <= 2 and not any(s <= i < e for i in changed)


def test_distractor_lexicon_is_seeded_distinct_and_in_vocabulary(inputs):
    demo_lexicon, _, vocab, _ = inputs
    big = gen.distractor_lexicon(demo_lexicon, vocab.tokens)
    assert gen.lexicon_digest(big) == gen.lexicon_digest(gen.distractor_lexicon(demo_lexicon, vocab.tokens))
    assert gen.lexicon_digest(big) != gen.lexicon_digest(
        gen.distractor_lexicon(demo_lexicon, vocab.tokens, seed=1))
    assert big[: len(demo_lexicon)] == list(demo_lexicon)
    assert len(big) == len(demo_lexicon) + gen.DISTRACTORS
    workloads.check_lexicon(big, vocab)
    demo_lengths = {len(s) for e in demo_lexicon for s in e.senses}
    assert {len(s) for e in big for s in e.senses} <= demo_lengths


def test_check_lexicon_rejects_duplicate_and_unknown_keys(m, inputs):
    demo_lexicon, _, vocab, _ = inputs
    first = demo_lexicon[0]
    dup = m.corpus.IdiomEntry(id="dup", surface=("x",), senses=first.senses)
    with pytest.raises(ValueError, match="duplicate"):
        workloads.check_lexicon(list(demo_lexicon) + [dup], vocab)
    oov = m.corpus.IdiomEntry(id="oov", surface=("x",), senses=(("zzzqx",),))
    with pytest.raises(ValueError, match="out-of-vocabulary"):
        workloads.check_lexicon(list(demo_lexicon) + [oov], vocab)


def test_references_cover_the_pool_and_the_lexicons(m, inputs):
    demo_lexicon, _, vocab, pool = inputs
    reference, recorded = workloads.load_references()
    assert set(recorded) == {r.text for r in pool}
    assert reference["config"] == workloads.pipeline_config(m).to_dict()
    for name, workload in (("demo", "transform_demo"), ("biglex", "transform_biglex")):
        lexicon = workloads.lexicon_for(workload, demo_lexicon, vocab)
        assert reference["lexicons"][name]["digest"] == gen.lexicon_digest(lexicon)
