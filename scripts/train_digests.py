#!/usr/bin/env python3
"""Print digests of seeded training, to check that a change keeps it byte-identical.

Usage: python3 scripts/train_digests.py

Trains retrieval, extractor and generator for 2 epochs each on the demo
corpus, with the benchmark's ``train_demo`` sizes and learning rates and
seed 0, saves each model to a temporary directory, and prints one line
per stage: the sha256 of its checkpoint file and its last epoch loss in
hex.  The next line gives the sha256 of the initial parameters of a
default-size seed-0 ``GeneratorModel`` on the demo vocabulary (about
1.26 M init draws, more than any benchmark model draws): each
parameter's name and little-endian float64 bytes, in store order.  The
last three lines give the same raw-parameter sha256 of each trained
model, which does not depend on how a checkpoint file encodes the values.
Run it before and after a change and compare the output; equal lines mean
equal parameters and losses bit for bit.  Takes well under a minute on
one core.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

# One BLAS thread, as in the tests and the benchmark: a threaded matmul may
# sum in another order, and then the digests would depend on the host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

from idiomatize import (  # noqa: E402
    ExtractorModel,
    GeneratorModel,
    RetrievalModel,
    build_vocab,
    generator_training_data,
    save_checkpoint,
    train_extractor,
    train_generator,
    train_retrieval,
)
from idiomatize.toydata import demo_lexicon, demo_pairs  # noqa: E402

EPOCHS = 2
SEED = 0


def param_digest(store) -> tuple[str, int]:
    """sha256 of each parameter's name and little-endian float64 bytes, in store order, and the value count."""
    digest = hashlib.sha256()
    values = 0
    for name, tensor in store.items():
        digest.update(name.encode())
        digest.update(tensor.data.astype("<f8").tobytes())
        values += tensor.data.size
    return digest.hexdigest(), values


def main() -> int:
    lexicon, pairs = demo_lexicon(), demo_pairs()
    vocab = build_vocab(pairs, lexicon)
    models = {
        "retrieval": RetrievalModel(vocab, embed_dim=64, hidden=64, seed=SEED),
        "extractor": ExtractorModel(vocab, embed_dim=64, hidden=64, seed=SEED),
        "generator": GeneratorModel(vocab, hidden=64, guided=True, seed=SEED),
    }
    histories = {
        "retrieval": train_retrieval(models["retrieval"], pairs, lexicon, epochs=EPOCHS,
                                     negatives_per_positive=10, lr=5e-3, seed=SEED, batch_size=4),
        "extractor": train_extractor(models["extractor"], pairs, lexicon, epochs=EPOCHS,
                                     lr=3e-3, seed=SEED, batch_size=4),
        "generator": train_generator(models["generator"], generator_training_data(pairs, lexicon, guided=True),
                                     epochs=EPOCHS, batch_size=8, lr=5e-3, seed=SEED),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for stage, model in models.items():
            path = os.path.join(tmp, f"{stage}.json")
            save_checkpoint(model, path)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{stage}: sha256 {digest} last_loss {float(histories[stage]['epoch_losses'][-1]).hex()}")
    digest, values = param_digest(GeneratorModel(vocab, seed=SEED).store)
    print(f"generator_init: sha256 {digest} values {values}")
    for stage, model in models.items():
        digest, values = param_digest(model.store)
        print(f"{stage}_params: sha256 {digest} values {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
