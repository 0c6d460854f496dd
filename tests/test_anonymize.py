import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spkdeid import anonymize
from spkdeid.aan import AanDims, build_aan
from spkdeid.anonymize import (
    _BLOCK_ELEMENTS,
    METHOD_KINDS,
    AnonymizationMethod,
    PseudoPool,
    _farthest,
    anonymize_corpus,
    baseline_anonymize,
)
from spkdeid.dataset import Embedding, make_corpus
from spkdeid.neural import dense_forward

from conftest import traced_peak

rng = np.random.default_rng(77)


def farthest_mean(pool, x, top_k):
    """The baseline anonymization of the vector ``x``, applied as a one-row matrix."""
    return baseline_anonymize(pool, x[None, :], top_k)[0]


def anonymize_one(kind, x, **params):
    """The ``kind`` anonymization of the vector ``x``, applied as a one-row matrix."""
    return AnonymizationMethod(kind, **params).apply(x[None, :])[0]


def reconstruct_oracle(model, x):
    """The per-row reference for the AAN reconstruction of the rows of ``x``:
    one ``dense_forward`` call per encoder and decoder layer and row."""
    out = np.empty((len(x), model.dims.input_dim))
    for i in range(len(x)):
        row = x[i:i + 1]
        for layer in model.encoder + model.decoder:
            row, _ = dense_forward(layer, row)
        out[i] = row[0]
    return out


def aan1(model, x):
    """The reference aan1 anonymization of the vector ``x``."""
    return reconstruct_oracle(model, x[None, :])[0]


def aan2(model, pool, x, top_k):
    """The reference aan2 anonymization of the vector ``x``: the per-query
    baseline, then the per-row reconstruction."""
    return aan1(model, stable_argsort_oracle(pool.vectors, x, top_k))


def zeroed_model(dim=16):
    model = build_aan(AanDims(dim, 8, 4, 4, 2, 2, 4), 8.0, seed=0)
    for p in model.parameters().values():
        p[...] = 0.0
    return model


class TestBaseline:
    def test_full_pool_is_centroid(self):
        pool = PseudoPool(rng.normal(size=(7, 5)))
        for x in rng.normal(size=(3, 5)):
            out = farthest_mean(pool, x, top_k=7)
            np.testing.assert_array_equal(out, pool.vectors.mean(axis=0))

    def test_hand_case_single_farthest(self):
        # brute-force cosine ranking over the 3 candidates:
        # cos((1,0),(1,0))=1, cos((0,1),(1,0))=0, cos((-1,0),(1,0))=-1
        pool = PseudoPool(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        out = farthest_mean(pool, np.array([1.0, 0.0]), top_k=1)
        np.testing.assert_array_equal(out, [-1.0, 0.0])

    def test_hand_case_two_farthest_averaged(self):
        pool = PseudoPool(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        out = farthest_mean(pool, np.array([1.0, 0.0]), top_k=2)
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
            np.testing.assert_allclose(farthest_mean(pool, x, top_k),
                                       expected, atol=1e-12)

    def test_zero_norm_query_rejected(self):
        pool = PseudoPool(np.ones((2, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            farthest_mean(pool, np.zeros(3), top_k=1)

    def test_zero_norm_pool_vector_rejected(self):
        pool = PseudoPool(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="degenerate"):
            farthest_mean(pool, np.array([1.0, 1.0]), top_k=1)

    @pytest.mark.parametrize("scale", [1e160, 1e-170], ids=["overflow", "underflow"])
    def test_out_of_range_query_norm_is_ranked_unscaled(self, scale):
        # the squares of scale * x overflow or underflow, so its computed norm
        # is inf or 0, but it is ranked as x is
        r = np.random.default_rng(5)
        pool = PseudoPool(r.normal(size=(50, 8)))
        x = r.normal(size=8)
        assert_same_bytes(farthest_mean(pool, scale * x, top_k=3),
                          farthest_mean(pool, x, top_k=3))

    @pytest.mark.parametrize("scale", [1e160, 1e-170], ids=["overflow", "underflow"])
    def test_out_of_range_pool_norm_is_ranked_unscaled(self, scale):
        # the pool row -scale * x is the farthest from x, as -x is; the output
        # averages the pool rows as given
        r = np.random.default_rng(6)
        x = r.normal(size=8)
        vectors = np.vstack([r.normal(size=(49, 8)), -x])
        scaled = vectors.copy()
        scaled[49] *= scale
        pool = PseudoPool(scaled)
        assert_same_bytes(farthest_mean(pool, x, top_k=1), scaled[49])
        chosen = farthest_indices(vectors, x, 3)
        assert 49 in chosen
        assert_same_bytes(farthest_mean(pool, x, top_k=3), scaled[chosen].mean(axis=0))

    def test_degenerate_rows_keep_their_refusals(self):
        # an all-zero or non-finite query is still refused, however the rest
        # of its block is scaled
        pool = PseudoPool(np.random.default_rng(7).normal(size=(5, 3)))
        for row, error in (([0.0, 0.0, 0.0], "zero norm"), ([np.inf, 1e-170, 1.0],
                                                            "non-finite norm")):
            with pytest.raises(ValueError, match=f"degenerate vector: {error}"):
                baseline_anonymize(pool, np.array([[1e-170, 1e160, 0.0], row]), 2)

    def test_top_k_bounds(self):
        pool = PseudoPool(np.ones((2, 3)))
        with pytest.raises(ValueError, match="top_k"):
            farthest_mean(pool, np.ones(3), top_k=3)

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_query_scale_invariance(self, scale, seed):
        r = np.random.default_rng(seed)
        pool = PseudoPool(r.normal(size=(6, 4)))
        x = r.normal(size=4)
        plain = farthest_mean(pool, x, top_k=3)
        scaled = farthest_mean(pool, scale * x, top_k=3)
        np.testing.assert_array_equal(plain, scaled)

    def test_pool_permutation_invariance_without_ties(self):
        r = np.random.default_rng(4)
        vectors = r.normal(size=(8, 5))
        x = r.normal(size=5)
        expected = farthest_mean(PseudoPool(vectors), x, top_k=3)
        permuted = vectors[r.permutation(8)]
        np.testing.assert_allclose(
            farthest_mean(PseudoPool(permuted), x, top_k=3), expected,
            atol=1e-12)

    @pytest.mark.parametrize("n, rows, blocks", [(400, 400, 2), (2502, 200, 4)],
                             ids=["desk", "vox64-pool"])
    def test_peak_memory_is_the_buffers_and_one_block(self, n, rows, blocks):
        # beside the unit pool and the output: the reused gemm buffer, then a
        # block's partitioned copy or its gather, never both and never
        # alongside another block's
        r = np.random.default_rng(9)
        dim, top_k = 64, 10
        pool = PseudoPool(r.normal(size=(n, dim)))
        x = r.normal(size=(rows, dim))
        block = _BLOCK_ELEMENTS // max(n, top_k * dim)
        assert -(-rows // block) == blocks
        gemm = 8 * block * n  # also the size of the partitioned copy
        gather = 8 * block * (top_k + 1) * dim  # the gathered rows and their mean
        _, peak = traced_peak(lambda: baseline_anonymize(pool, x, top_k))
        assert peak <= 8 * (n + rows) * dim + gemm + max(gemm, gather) + gemm // 4


def ranked_rows(rows):
    """A copy of the rows as the baseline ranks them and trials are scored:
    a finite, nonzero row whose norm lies outside [2**-400, 2**400] times
    2**-e, e the frexp exponent of its largest |entry|; every other row as
    it is."""
    rows = np.array(rows, dtype=np.float64, ndmin=2)
    for row in rows:
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(row)
        if not 2.0 ** -400 <= norm <= 2.0 ** 400 and np.any(row != 0.0) \
                and np.all(np.isfinite(row)):
            row[...] = np.ldexp(row, -np.frexp(np.max(np.abs(row)))[1])
    return rows


def farthest_indices(pool_vectors, x, top_k):
    """The per-query reference choice: the first ``top_k`` of a full stable
    argsort of the cosine similarities of the ranked rows, ascending."""
    ranked, query = ranked_rows(pool_vectors), ranked_rows(x)[0]
    pool_norms = np.linalg.norm(ranked, axis=1)
    sims = (ranked @ query) / (pool_norms * np.linalg.norm(query))
    return np.sort(np.argsort(sims, kind="stable")[:top_k])


def stable_argsort_oracle(pool_vectors, x, top_k):
    """The per-query reference: the mean of the pool rows, as given, that
    ``farthest_indices`` chooses."""
    return pool_vectors[farthest_indices(pool_vectors, x, top_k)].mean(axis=0)


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
            farthest_mean(pool, np.array([np.inf, 1.0]), top_k=1)

    def test_one_vector_and_matrix_shapes(self):
        pool = PseudoPool(rng.normal(size=(6, 3)))
        x = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="matrix"):
            baseline_anonymize(pool, x[0], 2)
        assert baseline_anonymize(pool, x, 2).shape == (4, 3)
        with pytest.raises(ValueError, match="pool dim"):
            baseline_anonymize(pool, x[None], 2)


class TestAanPipelines:
    def test_zero_model_returns_decoder_bias(self):
        model = zeroed_model()
        model.decoder[-1].bias[:] = np.arange(16.0)
        for x in rng.normal(size=(3, 16)):
            np.testing.assert_array_equal(anonymize_one("aan1", x, model=model),
                                          np.arange(16.0))

    def test_output_width(self, small_trained_model):
        dim = small_trained_model.dims.input_dim
        out = anonymize_one("aan1", rng.normal(size=dim), model=small_trained_model)
        assert out.shape == (dim,)

    def test_reconstruction_not_identity(self, small_corpus_splits,
                                         small_trained_model):
        _, _, test_c = small_corpus_splits
        strictly_moved = 0
        for e in test_c.embeddings:
            out = anonymize_one("aan1", e.vector, model=small_trained_model)
            cos = np.dot(out, e.vector) / (np.linalg.norm(out)
                                           * np.linalg.norm(e.vector))
            strictly_moved += cos < 1.0
        assert strictly_moved >= 0.99 * len(test_c)

    def test_aan2_equals_composition(self, small_trained_model):
        dim = small_trained_model.dims.input_dim
        pool = PseudoPool(rng.normal(size=(20, dim)))
        for _ in range(50):
            x = rng.normal(size=dim)
            composed = anonymize_one("aan1", farthest_mean(pool, x, top_k=5),
                                     model=small_trained_model)
            direct = anonymize_one("aan2", x, model=small_trained_model, pool=pool, top_k=5)
            np.testing.assert_array_equal(direct, composed)

    def test_aan2_singleton_pool(self, small_trained_model):
        dim = small_trained_model.dims.input_dim
        p = rng.normal(size=dim)
        pool = PseudoPool(p[None, :])
        x = rng.normal(size=dim)
        np.testing.assert_array_equal(
            anonymize_one("aan2", x, model=small_trained_model, pool=pool, top_k=1),
            anonymize_one("aan1", p, model=small_trained_model))

    def test_twice_is_not_once(self, small_corpus_splits, small_trained_model):
        _, _, test_c = small_corpus_splits
        x = test_c.embeddings[0].vector
        once = anonymize_one("aan1", x, model=small_trained_model)
        twice = anonymize_one("aan1", once, model=small_trained_model)
        assert not np.array_equal(once, twice)

    def test_dimension_mismatch_names_sizes(self, small_trained_model):
        wrong = rng.normal(size=(2, small_trained_model.dims.input_dim + 1))
        with pytest.raises(ValueError, match="features"):
            AnonymizationMethod("aan1", model=small_trained_model).apply(wrong)


# widths that are not multiples of a SIMD lane count, a one-unit latent (a
# layer with one input feature, which numpy multiplies without BLAS), and
# the desk widths
ORACLE_DIMS = (AanDims(7, 20, 3, 5, 2, 2, 3), AanDims(5, 9, 1, 3, 2, 2, 2),
               AanDims(64, 128, 8, 64, 2, 4, 40))


def baseline_oracle(pool, x, top_k):
    """The per-query baseline reference, row by row over ``x``."""
    return np.array([stable_argsort_oracle(pool.vectors, q, top_k)
                     for q in x]).reshape(x.shape)


def reference_is_finite(pool, x):
    """Whether every norm and cosine similarity of the per-query reference,
    on the ranked rows, is finite."""
    ranked = ranked_rows(pool.vectors)
    norms = np.linalg.norm(ranked, axis=1)
    return np.all(np.isfinite(norms)) and all(
        np.isfinite(np.linalg.norm(q))
        and np.all(np.isfinite((ranked @ q) / (norms * np.linalg.norm(q))))
        for q in ranked_rows(x))


def scaled_rows(data, r, rows):
    """``rows``, each scaled by 1 or by one of a drawn set of 1e+-150 and 1e+-300."""
    scales = data.draw(st.lists(st.sampled_from([1e150, 1e-150, 1e300, 1e-300]),
                                max_size=3, unique=True))
    return rows * r.choice([1.0] + scales, size=(len(rows), 1))


def assert_same_bytes(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def row_blocks(model, pool, top_k):
    """Rows per block of the reconstruction and of the baseline."""
    widest = max(layer.n_out for layer in model.encoder + model.decoder)
    return (max(1, anonymize._BLOCK_ELEMENTS // widest),
            max(1, anonymize._BLOCK_ELEMENTS // max(len(pool), top_k * pool.dim)))


class TestStackedKernels:
    """The stacked-matmul kernels against the per-row references, byte for
    byte.  The hypothesis tests shrink the block size so that small inputs
    cross blocks."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_aan_methods_match_per_row_reference(self, data):
        dims = data.draw(st.sampled_from(ORACLE_DIMS))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
        r = np.random.default_rng(seed)
        model = build_aan(dims, 8.0, seed=seed % 1000)
        pool = PseudoPool(r.normal(size=(data.draw(st.integers(1, 40)), dims.input_dim)))
        top_k = data.draw(st.integers(1, len(pool)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(anonymize, "_BLOCK_ELEMENTS",
                          data.draw(st.sampled_from([1, 50, 300])))
            edge = data.draw(st.sampled_from(row_blocks(model, pool, top_k)))
            n = data.draw(st.sampled_from([0, 1, 2, edge - 1, edge, edge + 1]))
            x = r.normal(size=(n, dims.input_dim))
            got_aan1 = AnonymizationMethod("aan1", model=model).apply(x)
            got_aan2 = AnonymizationMethod("aan2", model=model, pool=pool,
                                           top_k=top_k).apply(x)
        assert_same_bytes(got_aan1, reconstruct_oracle(model, x))
        assert_same_bytes(got_aan2, reconstruct_oracle(model, baseline_oracle(pool, x, top_k)))

    @pytest.mark.parametrize("edge, offset", [("none", 0), ("none", 1), ("none", 2),
                                              ("baseline", -1), ("baseline", 0),
                                              ("baseline", 1), ("reconstruct", -1),
                                              ("reconstruct", 0), ("reconstruct", 1)])
    def test_desk_widths_at_the_real_block_boundaries(self, edge, offset):
        r = np.random.default_rng(offset + 5)
        model = build_aan(ORACLE_DIMS[-1], 8.0, seed=3)
        pool = PseudoPool(r.normal(size=(400, 64)))
        reconstruct_rows, baseline_rows = row_blocks(model, pool, 10)
        assert baseline_rows < reconstruct_rows
        n = offset + {"none": 0, "baseline": baseline_rows,
                      "reconstruct": reconstruct_rows}[edge]
        x = r.normal(size=(n, 64))
        expected = reconstruct_oracle(model, x)
        assert_same_bytes(AnonymizationMethod("aan1", model=model).apply(x), expected)
        expected = reconstruct_oracle(model, baseline_oracle(pool, x, 10))
        assert_same_bytes(AnonymizationMethod("aan2", model=model, pool=pool,
                                              top_k=10).apply(x), expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           top_k=st.sampled_from([1, 3, 12]))
    def test_scaled_pool_copies_tie_break_as_reference(self, seed, top_k):
        # scaled copies of one direction have equal cosines up to rounding, so
        # which copies are chosen turns on the last bits of every similarity,
        # the query norm's included
        r = np.random.default_rng(seed)
        direction = r.normal(size=64)
        copies = r.uniform(0.5, 4.0, size=(24, 1)) * direction
        pool = PseudoPool(np.vstack([copies, r.normal(size=(40, 64))]))
        queries = 0.1 * r.normal(size=(20, 64)) - direction
        assert_same_bytes(baseline_anonymize(pool, queries, top_k),
                          baseline_oracle(pool, queries, top_k))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_certified_ranking_matches_reference(self, data):
        # near-tie pools, and rows scaled until norms or dot products overflow
        # or underflow: the reference's bytes, a row whose norm is out of
        # range ranked as its scaled copy, or a refusal exactly where the
        # reference has a non-finite norm or similarity
        r = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 31)))
        dim = data.draw(st.sampled_from([1, 3, 8, 64]))
        n, rows = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 30))
        kind = data.draw(st.sampled_from(["copies", "duplicates", "integers"]))
        if kind == "copies":
            direction = r.normal(size=dim)
            vectors = r.uniform(0.5, 4.0, size=(n, 1)) * direction
            others = r.random(n) < 0.3
            vectors[others] = r.normal(size=(others.sum(), dim))
            x = 0.1 * r.normal(size=(rows, dim)) - direction
        elif kind == "duplicates":
            distinct = r.normal(size=(r.integers(1, 7), dim))
            vectors = distinct[r.integers(0, len(distinct), size=n)]
            x = np.vstack([distinct, r.normal(size=(rows, dim))])[r.permutation(rows)]
        else:
            vectors = r.integers(-2, 3, size=(n, dim)).astype(np.float64)
            x = r.integers(-2, 3, size=(rows, dim)).astype(np.float64)
        vectors[np.abs(vectors).sum(axis=1) == 0, 0] = 1.0
        x[np.abs(x).sum(axis=1) == 0, 0] = -1.0
        vectors, x = scaled_rows(data, r, vectors), scaled_rows(data, r, x)
        top_k = data.draw(st.sampled_from(sorted({1, min(3, n), (n + 1) // 2, n})))
        block_elements = data.draw(st.sampled_from([1, 50, 300, _BLOCK_ELEMENTS]))
        # the scaled norms overflow and underflow in PseudoPool and in the
        # reference alike
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                pytest.MonkeyPatch.context() as patch:
            patch.setattr(anonymize, "_BLOCK_ELEMENTS", block_elements)
            pool = PseudoPool(vectors)
            if reference_is_finite(pool, x):
                assert_same_bytes(baseline_anonymize(pool, x, top_k),
                                  baseline_oracle(pool, x, top_k))
            else:
                with pytest.raises(ValueError, match="degenerate"):
                    baseline_anonymize(pool, x, top_k)

    def test_only_near_ties_are_ranked_again(self, monkeypatch):
        reranked = []

        def spy(sims, top_k):
            reranked.append(len(sims))
            return _farthest(sims, top_k)

        monkeypatch.setattr(anonymize, "_farthest", spy)
        r = np.random.default_rng(18)
        baseline_anonymize(PseudoPool(r.normal(size=(400, 64))), r.normal(size=(400, 64)), 10)
        assert reranked == []
        # the scaled copies' cosines differ by rounding alone
        direction = r.normal(size=64)
        copies = r.uniform(0.5, 4.0, size=(24, 1)) * direction
        pool = PseudoPool(np.vstack([copies, r.normal(size=(40, 64))]))
        baseline_anonymize(pool, 0.1 * r.normal(size=(20, 64)) - direction, 12)
        assert sum(reranked) == 20

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_each_row_equals_its_one_row_call(self, data):
        dims = data.draw(st.sampled_from(ORACLE_DIMS))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 31))
        r = np.random.default_rng(seed)
        pool = PseudoPool(r.normal(size=(data.draw(st.integers(1, 40)), dims.input_dim)))
        method = AnonymizationMethod(data.draw(st.sampled_from(METHOD_KINDS)),
                                     model=build_aan(dims, 8.0, seed=seed % 1000),
                                     pool=pool, top_k=data.draw(st.integers(1, len(pool))))
        x = r.normal(size=(data.draw(st.integers(1, 30)), dims.input_dim))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(anonymize, "_BLOCK_ELEMENTS",
                          data.draw(st.sampled_from([1, 50, 300])))
            out = method.apply(x)
            for i in range(len(x)):
                assert_same_bytes(method.apply(x[i:i + 1]), out[i:i + 1])


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
        pool = PseudoPool(train_c.matrix())
        method = AnonymizationMethod("aan2", model=small_trained_model,
                                     pool=pool, top_k=4)
        out = anonymize_corpus(test_c, method)
        for before, after in zip(test_c.embeddings, out.embeddings):
            np.testing.assert_array_equal(
                after.vector,
                aan2(small_trained_model, pool, before.vector, 4))

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
            "baseline_farthest": lambda v: farthest_mean(pool, v, top_k),
            "aan1": lambda v: aan1(small_trained_model, v),
            "aan2": lambda v: aan2(small_trained_model, pool, v, top_k),
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
        pool = PseudoPool(train_c.matrix())
        assert len(pool) == len(train_c)
        assert pool.dim == train_c.dim
        np.testing.assert_array_equal(pool.vectors, train_c.matrix())

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            PseudoPool(np.zeros((0, 4)))

    def test_non_finite_pool_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PseudoPool(np.array([[1.0, np.nan]]))
