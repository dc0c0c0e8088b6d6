#!/usr/bin/env python3
"""Print the epochs each gated training fixture takes to reach its threshold, over model seeds and 1-ulp nudges.

Usage: python3 scripts/convergence_sweep.py

Trains the three fixtures that acceptance criteria 5 and 7 gate, each
with the hyperparameters ``tests/conftest.py`` gives it:

- ``span``: the sentinel span task (``sentinel_extractor``), validation
  span F1 0.96 within 50 epochs;
- ``generator``: the overfit guided generator on the demo corpus
  (``overfit_generator``), teacher-forced token accuracy 0.998 within
  300 epochs;
- ``retrieval``: the synthetic retrieval task (``synthetic_retrieval``),
  validation accuracy 0.96 within 50 epochs, checked every 5.

Each runs with model seeds 0-9, then with seed 0 after every initial
parameter is moved 1 ulp up or down (``np.nextafter``); data and training
seeds stay fixed.  One line per run gives the epochs trained, whether the
threshold was reached (the fixture stops there), the first and best
metric, and the seconds taken.  A kernel that reorders floating-point
sums moves training at least as much as a 1-ulp nudge, so the spread of
these lines is the room the criteria leave for such a change.  It is a
measurement, not a test; it takes about 20 minutes on one core.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread, as in the tests and the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from idiomatize import (  # noqa: E402
    ExtractorModel,
    GeneratorModel,
    RetrievalModel,
    build_vocab,
    generator_training_data,
    train_extractor,
    train_generator,
    train_retrieval,
)
from idiomatize.toydata import demo_lexicon, demo_pairs, synthetic_retrieval_data, synthetic_span_data  # noqa: E402

RUNS = [(seed, 0) for seed in range(10)] + [(0, 1), (0, -1)]


def span(seed):
    lexicon, train, val = synthetic_span_data(seed=0)
    model = ExtractorModel(build_vocab(train + val, lexicon), embed_dim=64, hidden=64, seed=seed)
    return model, lambda: train_extractor(
        model, train, lexicon, epochs=50, lr=3e-3, seed=0, batch_size=4,
        validation=val, eval_every=1, stop_at_f1=0.96,
    )["val_span_f1"]


def generator(seed):
    lexicon, pairs = demo_lexicon(), demo_pairs()
    model = GeneratorModel(
        build_vocab(pairs, lexicon), word_dim=64, copy_dim=16, label_dim=16, hidden=64, guided=True, seed=seed
    )
    return model, lambda: train_generator(
        model, generator_training_data(pairs, lexicon, True), epochs=300, batch_size=8, lr=5e-3, seed=0,
        stop_at_token_accuracy=0.998,
    )["train_token_accuracy"]


def retrieval(seed):
    lexicon, train, val = synthetic_retrieval_data(seed=0)
    model = RetrievalModel(build_vocab(train + val, lexicon), embed_dim=64, hidden=64, seed=seed)
    return model, lambda: train_retrieval(
        model, train, lexicon, epochs=50, negatives_per_positive=3, lr=3e-3, seed=0, batch_size=4,
        validation=val, eval_every=5, stop_at_accuracy=0.96,
    )["val_retrieval_accuracy"]


# name: (build, metric threshold the fixture stops at, epoch budget)
TASKS = {"span": (span, 0.96, 50), "generator": (generator, 0.998, 300), "retrieval": (retrieval, 0.96, 50)}


def main() -> int:
    for name, (build, threshold, budget) in TASKS.items():
        for seed, nudge in RUNS:
            model, train = build(seed)
            if nudge:
                for param in model.store.params.values():
                    param.data[...] = np.nextafter(param.data, nudge * np.inf)
            started = time.perf_counter()
            metrics = train()
            seconds = time.perf_counter() - started
            # The fixture stops at the first epoch its metric reaches the threshold (the
            # generator also rechecks token accuracy after the last update).
            reached = len(metrics) < budget or metrics[-1] is not None and metrics[-1] >= threshold
            evaluated = [m for m in metrics if m is not None]
            print(
                f"{name}: seed {seed} nudge {nudge:+d} ulp: epochs {len(metrics)} of {budget}, "
                f"reached {threshold}: {'yes' if reached else 'no'}, first {evaluated[0]:.3f}, "
                f"best {max(evaluated):.3f}, {seconds:.1f} s",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
