"""Shared fixtures: the pinned desk-scale corpus and trained models.

Training the default anonymizer takes about a minute, so it happens once
per session and is shared by the anonymizer, metrics, and acceptance
tests.  All seeds here are pinned; every number asserted downstream is a
deterministic function of them.
"""

import time
import tracemalloc

import numpy as np
import pytest

from spkdeid.aan import TrainConfig, build_aan, desk_dims, train
from spkdeid.dataset import AttributeStrength, CorpusSpec, generate_corpus, split_corpus

DESK_CORPUS_SEED = 7
DESK_MODEL_SEED = 11
DESK_TRAIN_SEED = 13


def traced_peak(fn):
    """``fn()``'s result and the peak bytes tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def desk_spec(**overrides):
    base = dict(seed=DESK_CORPUS_SEED)
    base.update(overrides)
    return CorpusSpec(**base)


@pytest.fixture(scope="session")
def desk_corpus():
    return generate_corpus(desk_spec())


@pytest.fixture(scope="session")
def desk_splits(desk_corpus):
    return split_corpus(desk_corpus, 10)


@pytest.fixture(scope="session")
def desk_run(desk_splits):
    """Default lam=8 training run on the desk corpus:
    (model, history, elapsed seconds)."""
    train_c, valid_c, _ = desk_splits
    model = build_aan(desk_dims(train_c), lam=8.0, seed=DESK_MODEL_SEED)
    config = TrainConfig(lam=8.0, seed=DESK_TRAIN_SEED)
    started = time.monotonic()
    model, history = train(model, train_c, valid_c, config)
    return model, history, time.monotonic() - started


@pytest.fixture(scope="session")
def desk_model(desk_run):
    return desk_run[0]


@pytest.fixture(scope="session")
def small_corpus_splits():
    """A fast, small corpus for tests that just need a trained model."""
    spec = CorpusSpec(n_speakers=8, n_genders=2, n_accents=2,
                      utterances_per_speaker=12, dim=16,
                      attribute_strength=AttributeStrength(0.6, 2.0, 2.0),
                      noise_sigma=0.2, seed=21)
    return split_corpus(generate_corpus(spec), 3)


@pytest.fixture(scope="session")
def small_trained_model(small_corpus_splits):
    train_c, valid_c, _ = small_corpus_splits
    model = build_aan(desk_dims(train_c, hidden=32, latent=4, branch_hidden=16),
                      lam=8.0, seed=5)
    config = TrainConfig(lam=8.0, epochs=300, batch_size=16, lr=5e-3, seed=6)
    trained, _ = train(model, train_c, valid_c, config)
    return trained
