import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spkdeid.aan import AanDims, build_aan
from spkdeid.anonymize import (
    _BLOCK_ELEMENTS,
    AnonymizationMethod,
    PseudoPool,
    _farthest,
    anonymize_aan1,
    anonymize_aan2,
    anonymize_corpus,
    baseline_anonymize,
    pool_from_corpus,
)
from spkdeid.dataset import Embedding, make_corpus

rng = np.random.default_rng(77)


def zeroed_model(dim=16):
    model = build_aan(AanDims(dim, 8, 4, 4, 2, 2, 4), 8.0, seed=0)
    for p in model.parameters().values():
        p[...] = 0.0
    return model


class TestBaseline:
    def test_full_pool_is_centroid(self):
        pool = PseudoPool(rng.normal(size=(7, 5)))
        for x in rng.normal(size=(3, 5)):
            out = baseline_anonymize(pool, x, top_k=7)
            np.testing.assert_array_equal(out, pool.vectors.mean(axis=0))

    def test_hand_case_single_farthest(self):
        # brute-force cosine ranking over the 3 candidates:
        # cos((1,0),(1,0))=1, cos((0,1),(1,0))=0, cos((-1,0),(1,0))=-1
        pool = PseudoPool(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        out = baseline_anonymize(pool, np.array([1.0, 0.0]), top_k=1)
        np.testing.assert_array_equal(out, [-1.0, 0.0])

    def test_hand_case_two_farthest_averaged(self):
        pool = PseudoPool(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        out = baseline_anonymize(pool, np.array([1.0, 0.0]), top_k=2)
        np.testing.assert_array_equal(out, [-0.5, 0.5])

    def test_matches_bruteforce_oracle(self):
        # oracle: rank by cosine computed with plain math, average top_k
        pool_vectors = rng.normal(size=(9, 4))
        pool = PseudoPool(pool_vectors)
        x = rng.normal(size=4)
        for top_k in (1, 3, 9):
            sims = []
            for i, v in enumerate(pool_vectors):
                dot = sum(a * b for a, b in zip(v, x))
                sims.append((dot / (math.sqrt(sum(a * a for a in v))
                                    * math.sqrt(sum(b * b for b in x))), i))
            order = [i for _, i in sorted(sims, key=lambda t: (t[0], t[1]))]
            expected = pool_vectors[order[:top_k]].mean(axis=0)
            np.testing.assert_allclose(baseline_anonymize(pool, x, top_k),
                                       expected, atol=1e-12)

    def test_zero_norm_query_rejected(self):
        pool = PseudoPool(np.ones((2, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            baseline_anonymize(pool, np.zeros(3), top_k=1)

    def test_zero_norm_pool_vector_rejected(self):
        pool = PseudoPool(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="degenerate"):
            baseline_anonymize(pool, np.array([1.0, 1.0]), top_k=1)

    def test_top_k_bounds(self):
        pool = PseudoPool(np.ones((2, 3)))
        with pytest.raises(ValueError, match="top_k"):
            baseline_anonymize(pool, np.ones(3), top_k=3)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_query_scale_invariance(self, scale, seed):
        r = np.random.default_rng(seed)
        pool = PseudoPool(r.normal(size=(6, 4)))
        x = r.normal(size=4)
        plain = baseline_anonymize(pool, x, top_k=3)
        scaled = baseline_anonymize(pool, scale * x, top_k=3)
        np.testing.assert_array_equal(plain, scaled)

    def test_pool_permutation_invariance_without_ties(self):
        r = np.random.default_rng(4)
        vectors = r.normal(size=(8, 5))
        x = r.normal(size=5)
        expected = baseline_anonymize(PseudoPool(vectors), x, top_k=3)
        permuted = vectors[r.permutation(8)]
        np.testing.assert_allclose(
            baseline_anonymize(PseudoPool(permuted), x, top_k=3), expected,
            atol=1e-12)


def stable_argsort_oracle(pool_vectors, x, top_k):
    """The per-query reference: full stable argsort of the cosine similarities."""
    pool_norms = np.linalg.norm(pool_vectors, axis=1)
    sims = (pool_vectors @ x) / (pool_norms * np.linalg.norm(x))
    farthest = np.sort(np.argsort(sims, kind="stable")[:top_k])
    return pool_vectors[farthest].mean(axis=0)


class TestFarthestSelection:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_partition_matches_stable_argsort_under_ties(self, data):
        # few distinct integer values per row: nearly every k-th value is tied
        rows = data.draw(st.integers(min_value=1, max_value=6))
        width = data.draw(st.integers(min_value=1, max_value=40))
        values = data.draw(st.integers(min_value=1, max_value=4))
        top_k = data.draw(st.sampled_from(sorted({1, width, (width + 1) // 2})))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
        sims = np.random.default_rng(seed).integers(0, values, size=(rows, width))
        chosen = _farthest(sims.astype(np.float64), top_k)
        for row, got in zip(sims, chosen):
            np.testing.assert_array_equal(
                got, np.sort(np.argsort(row, kind="stable")[:top_k]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_baseline_matches_oracle_with_duplicated_pool_rows(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
        r = np.random.default_rng(seed)
        dim = data.draw(st.integers(min_value=1, max_value=4))
        distinct = r.integers(-2, 3, size=(data.draw(st.integers(1, 6)), dim))
        distinct[np.abs(distinct).sum(axis=1) == 0, 0] = 1
        pool_vectors = distinct[r.integers(0, len(distinct),
                                           size=data.draw(st.integers(1, 30)))]
        pool_vectors = pool_vectors.astype(np.float64)
        top_k = data.draw(st.sampled_from(sorted({1, len(pool_vectors),
                                                  (len(pool_vectors) + 1) // 2})))
        queries = r.integers(-2, 3, size=(data.draw(st.integers(1, 8)), dim))
        queries[np.abs(queries).sum(axis=1) == 0, 0] = -1
        queries = queries.astype(np.float64)
        out = baseline_anonymize(PseudoPool(pool_vectors), queries, top_k)
        for x, got in zip(queries, out):
            np.testing.assert_array_equal(
                got, stable_argsort_oracle(pool_vectors, x, top_k))

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_similarity_rejected(self):
        pool = PseudoPool(np.ones((3, 2)))
        with pytest.raises(ValueError, match="degenerate"):
            baseline_anonymize(pool, np.array([np.inf, 1.0]), top_k=1)

    def test_one_vector_and_matrix_shapes(self):
        pool = PseudoPool(rng.normal(size=(6, 3)))
        x = rng.normal(size=(4, 3))
        assert baseline_anonymize(pool, x[0], 2).shape == (3,)
        assert baseline_anonymize(pool, x, 2).shape == (4, 3)
        with pytest.raises(ValueError, match="pool dim"):
            baseline_anonymize(pool, x[None], 2)


class TestAanPipelines:
    def test_zero_model_returns_decoder_bias(self):
        model = zeroed_model()
        model.decoder[-1].bias[:] = np.arange(16.0)
        for x in rng.normal(size=(3, 16)):
            np.testing.assert_array_equal(anonymize_aan1(model, x), np.arange(16.0))

    def test_output_width(self, small_trained_model):
        dim = small_trained_model.dims.input_dim
        out = anonymize_aan1(small_trained_model, rng.normal(size=dim))
        assert out.shape == (dim,)

    def test_reconstruction_not_identity(self, small_corpus_splits,
                                         small_trained_model):
        _, _, test_c = small_corpus_splits
        strictly_moved = 0
        for e in test_c.embeddings:
            out = anonymize_aan1(small_trained_model, e.vector)
            cos = np.dot(out, e.vector) / (np.linalg.norm(out)
                                           * np.linalg.norm(e.vector))
            strictly_moved += cos < 1.0
        assert strictly_moved >= 0.99 * len(test_c)

    def test_aan2_equals_composition(self, small_trained_model):
        dim = small_trained_model.dims.input_dim
        pool = PseudoPool(rng.normal(size=(20, dim)))
        for _ in range(50):
            x = rng.normal(size=dim)
            composed = anonymize_aan1(small_trained_model,
                                      baseline_anonymize(pool, x, top_k=5))
            direct = anonymize_aan2(small_trained_model, pool, x, top_k=5)
            np.testing.assert_array_equal(direct, composed)

    def test_aan2_singleton_pool(self, small_trained_model):
        dim = small_trained_model.dims.input_dim
        p = rng.normal(size=dim)
        pool = PseudoPool(p[None, :])
        x = rng.normal(size=dim)
        np.testing.assert_array_equal(
            anonymize_aan2(small_trained_model, pool, x, top_k=1),
            anonymize_aan1(small_trained_model, p))

    def test_twice_is_not_once(self, small_corpus_splits, small_trained_model):
        _, _, test_c = small_corpus_splits
        x = test_c.embeddings[0].vector
        once = anonymize_aan1(small_trained_model, x)
        twice = anonymize_aan1(small_trained_model, once)
        assert not np.array_equal(once, twice)

    def test_dimension_mismatch_names_sizes(self, small_trained_model):
        wrong = rng.normal(size=small_trained_model.dims.input_dim + 1)
        with pytest.raises(ValueError, match="features"):
            anonymize_aan1(small_trained_model, wrong)


class TestAnonymizeCorpus:
    def test_identity_returns_input(self, small_corpus_splits):
        _, _, test_c = small_corpus_splits
        out = anonymize_corpus(test_c, AnonymizationMethod("identity"))
        assert out is test_c

    def test_structure_preserved(self, small_corpus_splits, small_trained_model):
        _, _, test_c = small_corpus_splits
        out = anonymize_corpus(test_c, AnonymizationMethod("aan1",
                                                           model=small_trained_model))
        assert len(out) == len(test_c)
        assert out.dim == test_c.dim
        assert out.speaker_vocab == test_c.speaker_vocab
        for before, after in zip(test_c.embeddings, out.embeddings):
            assert before.utterance_id == after.utterance_id
            assert before.speaker_id == after.speaker_id
            assert before.gender == after.gender
            assert before.accent == after.accent

    def test_matches_per_vector_calls(self, small_corpus_splits,
                                      small_trained_model):
        train_c, _, test_c = small_corpus_splits
        pool = pool_from_corpus(train_c)
        method = AnonymizationMethod("aan2", model=small_trained_model,
                                     pool=pool, top_k=4)
        out = anonymize_corpus(test_c, method)
        for before, after in zip(test_c.embeddings, out.embeddings):
            np.testing.assert_array_equal(
                after.vector,
                anonymize_aan2(small_trained_model, pool, before.vector, 4))

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           top_k=st.sampled_from([1, 7, 3000]))
    def test_all_methods_match_per_vector_calls_across_blocks(
            self, small_trained_model, seed, top_k):
        r = np.random.default_rng(seed)
        dim = small_trained_model.dims.input_dim
        pool = PseudoPool(r.normal(size=(3000, dim)))
        corpus = make_corpus([Embedding(f"u{i}", f"s{i % 4}", "fm"[i % 2], "a", v)
                              for i, v in enumerate(r.normal(size=(60, dim)))])
        rows_per_block = _BLOCK_ELEMENTS // max(len(pool), top_k * dim)
        assert len(corpus) > rows_per_block
        per_vector = {
            "identity": lambda v: v,
            "baseline_farthest": lambda v: baseline_anonymize(pool, v, top_k),
            "aan1": lambda v: anonymize_aan1(small_trained_model, v),
            "aan2": lambda v: anonymize_aan2(small_trained_model, pool, v, top_k),
        }
        for kind, one in per_vector.items():
            method = AnonymizationMethod(kind, model=small_trained_model, pool=pool,
                                         top_k=top_k)
            out = anonymize_corpus(corpus, method)
            for before, after in zip(corpus.embeddings, out.embeddings):
                np.testing.assert_array_equal(after.vector, one(before.vector))
            if kind in ("baseline_farthest", "aan2"):
                base = baseline_anonymize(pool, corpus.matrix(), top_k)
                for x, got in zip(corpus.matrix(), base):
                    np.testing.assert_array_equal(
                        got, stable_argsort_oracle(pool.vectors, x, top_k))

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError, match="model"):
            AnonymizationMethod("aan1").validate()
        with pytest.raises(ValueError, match="pool"):
            AnonymizationMethod("baseline_farthest").validate()
        with pytest.raises(ValueError, match="kind"):
            AnonymizationMethod("rot13").validate()


class TestPool:
    def test_pool_from_corpus(self, small_corpus_splits):
        train_c, _, _ = small_corpus_splits
        pool = pool_from_corpus(train_c)
        assert len(pool) == len(train_c)
        assert pool.dim == train_c.dim
        np.testing.assert_array_equal(pool.vectors, train_c.matrix())

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PseudoPool(np.zeros((0, 4)))

    def test_non_finite_pool_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PseudoPool(np.array([[1.0, np.nan]]))
