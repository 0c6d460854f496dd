import csv
import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spkdeid import metrics
from spkdeid.anonymize import AnonymizationMethod, anonymize_corpus
from spkdeid.dataset import AttributeStrength, CorpusSpec, Embedding, generate_corpus, split_corpus
from spkdeid.metrics import (
    REPORT_COLUMNS,
    MetricsReport,
    ReportRow,
    ScoredTrials,
    TrialList,
    compute_cllr,
    compute_eer,
    compute_min_cllr,
    enroll_speaker_models,
    evaluate_conditions,
    format_report_table,
    make_trials,
    probe_attack,
    read_report_csv,
    read_trials,
    score_trials,
    write_report_csv,
    write_trials,
    _pav_fit,
    _train_probe,
)
from spkdeid.neural import (
    AdamState,
    adam_step,
    dense_backward,
    dense_forward,
    init_dense,
    softmax_cross_entropy,
)
from conftest import corpus_from_rows, traced_peak
from test_anonymize import ranked_rows

rng = np.random.default_rng(314)


def scored(targets, nontargets):
    trials = TrialList.from_rows(
        [("s", f"t{i}", True, "f") for i in range(len(targets))]
        + [("s", f"n{i}", False, "f") for i in range(len(nontargets))])
    return ScoredTrials(trials, np.concatenate([targets, nontargets]))


def eer_oracle(targets, nontargets):
    """Exhaustive sweep over every observed score as threshold."""
    best = None
    for t in sorted(set(list(targets) + list(nontargets))):
        frr = sum(1 for s in targets if s < t) / len(targets)
        far = sum(1 for s in nontargets if s >= t) / len(nontargets)
        key = abs(far - frr)
        if best is None or key < best[0]:
            best = (key, (far + frr) / 2)
    return best[1]


class TestEer:
    def test_separable(self):
        assert compute_eer(scored([0.9, 0.8], [0.1, 0.2])) == 0.0

    def test_hand_case(self):
        assert compute_eer(scored([0.8, 0.2], [0.7, 0.1])) == 0.5

    def test_matches_oracle_on_random_sets(self):
        r = np.random.default_rng(2024)
        for _ in range(100):
            n_tar = int(r.integers(1, 100))
            n_non = int(r.integers(1, 100))
            targets = np.round(r.normal(0.5, 1.0, n_tar), 2)
            nontargets = np.round(r.normal(-0.5, 1.0, n_non), 2)
            assert compute_eer(scored(targets, nontargets)) == \
                eer_oracle(list(targets), list(nontargets))

    def test_identical_distributions_near_half(self):
        r = np.random.default_rng(99)
        targets = r.normal(size=5000)
        nontargets = r.normal(size=5000)
        assert compute_eer(scored(targets, nontargets)) == pytest.approx(0.5, abs=0.03)

    def test_requires_both_classes(self):
        trials = TrialList.from_rows([("s", "u", True, "f")])
        with pytest.raises(ValueError, match="nontarget"):
            compute_eer(ScoredTrials(trials, np.array([0.5])))


class TestCllr:
    def test_all_zero_scores_one_bit(self):
        assert compute_cllr(scored([0.0, 0.0], [0.0])) == 1.0

    def test_perfect_calibration_limit(self):
        assert compute_cllr(scored([60.0, 80.0], [-60.0, -70.0])) < 1e-20

    def test_matches_direct_formula(self):
        # oracle: per-trial log2(1 + exp(-+s)) via plain math
        targets = list(rng.normal(size=12))
        nontargets = list(rng.normal(size=8))
        expected = 0.5 * (
            sum(math.log2(1 + math.exp(-s)) for s in targets) / len(targets)
            + sum(math.log2(1 + math.exp(s)) for s in nontargets) / len(nontargets))
        assert compute_cllr(scored(targets, nontargets)) == \
            pytest.approx(expected, abs=1e-12)


class TestMinCllr:
    def test_separable_scores_near_zero(self):
        value = compute_min_cllr(scored([3.0, 4.0, 5.0], [-1.0, 0.0, 1.0]))
        assert 0.0 <= value <= 1e-6

    def test_identical_distributions_near_one(self):
        r = np.random.default_rng(7)
        targets = r.normal(size=10_000)
        nontargets = r.normal(size=10_000)
        assert compute_min_cllr(scored(targets, nontargets)) == \
            pytest.approx(1.0, abs=0.05)

    def test_monotone_transform_invariance_exact(self):
        r = np.random.default_rng(8)
        targets = r.normal(0.5, 1.0, 50)
        nontargets = r.normal(-0.5, 1.0, 70)
        plain = compute_min_cllr(scored(targets, nontargets))
        shifted = compute_min_cllr(scored(2 * targets + 3, 2 * nontargets + 3))
        assert plain == shifted

    def test_ordering_with_cllr_on_random_sets(self):
        r = np.random.default_rng(9)
        for _ in range(100):
            targets = r.normal(r.uniform(-1, 1), r.uniform(0.5, 2), int(r.integers(2, 80)))
            nontargets = r.normal(r.uniform(-1, 1), r.uniform(0.5, 2), int(r.integers(2, 80)))
            s = scored(targets, nontargets)
            min_cllr = compute_min_cllr(s)
            assert compute_cllr(s) >= min_cllr - 1e-9
            assert min_cllr >= -1e-9


def pav_fit_loop(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators one value at a time, the oracle ``_pav_fit``
    matches bit for bit: blocks of (total, count), merged while means
    decrease."""
    totals: list[float] = []
    counts: list[int] = []
    for value in y:
        totals.append(float(value))
        counts.append(1)
        while len(totals) > 1 and totals[-2] * counts[-1] >= totals[-1] * counts[-2]:
            totals[-2] += totals[-1]
            counts[-2] += counts[-1]
            del totals[-1], counts[-1]
    fitted = np.empty(y.size)
    pos = 0
    for total, count in zip(totals, counts):
        fitted[pos:pos + count] = total / count
        pos += count
    return fitted


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def runs(lengths: list[int], first: int) -> np.ndarray:
    """Alternating runs of 0 and 1 of the given lengths, starting with ``first``."""
    return np.concatenate([np.full(n, (first + i) % 2, dtype=np.float64)
                           for i, n in enumerate(lengths)])


class TestPavFit:
    @pytest.mark.parametrize("y", [
        [0.0], [1.0], [0.0] * 9, [1.0] * 9, [0.0, 1.0] * 6, [1.0, 0.0] * 6,
        [1.0] * 5 + [0.0] * 7, runs([300, 1, 2, 500, 3, 1000, 1], 1),
    ], ids=["one-0", "one-1", "zeros", "ones", "alternating-01", "alternating-10",
            "descending", "long-runs"])
    def test_cases_match_loop(self, y):
        y = np.array(y)
        assert same_bits(_pav_fit(y), pav_fit_loop(y))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_matches_loop(self, labels):
        y = np.array(labels, dtype=np.float64)
        assert same_bits(_pav_fit(y), pav_fit_loop(y))
        descending = np.sort(y)[::-1].copy()
        assert same_bits(_pav_fit(descending), pav_fit_loop(descending))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=12), st.integers(0, 1))
    def test_long_runs_match_loop(self, lengths, first):
        y = runs(lengths, first)
        assert same_bits(_pav_fit(y), pav_fit_loop(y))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.booleans()), min_size=1, max_size=150))
    def test_stable_argsorted_scores_with_ties_match_loop(self, trials):
        # what _min_cllr feeds it: labels in stable score order, few
        # distinct scores, so ties keep their input order
        scores = np.array([s for s, _ in trials], dtype=np.float64)
        labels = np.array([t for _, t in trials], dtype=bool)
        y = labels[np.argsort(scores, kind="stable")].astype(np.float64)
        assert same_bits(_pav_fit(y), pav_fit_loop(y))


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    """The cosine of two vectors, the oracle that ``score_trials`` matches,
    computed on the vectors as ``ranked_rows`` scales them."""
    a, b = ranked_rows(a)[0], ranked_rows(b)[0]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("degenerate vector: zero norm, cosine score undefined")
    return float(np.dot(a, b) / (na * nb))


class TestCosine:
    def test_self_similarity(self):
        v = rng.normal(size=5)
        assert cosine_score(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_score(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_antipodal(self):
        v = rng.normal(size=5)
        assert cosine_score(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            cosine_score(np.zeros(3), np.ones(3))


def trial_corpora(n_speakers=10, n_per_gender=5):
    spec = CorpusSpec(n_speakers=n_speakers, n_genders=2, n_accents=2,
                      utterances_per_speaker=8, dim=6,
                      attribute_strength=AttributeStrength(1.0, 1.0, 1.0),
                      noise_sigma=0.1, seed=4)
    _, valid_c, test_c = split_corpus(generate_corpus(spec), 2)
    return test_c, valid_c  # enroll on test, trial on valid


class TestMakeTrials:
    def test_counts_per_trial_utterance(self):
        enroll_c, trial_c = trial_corpora()
        trials = make_trials(enroll_c, trial_c, n_nontarget_per_target=4, seed=1)
        assert len(trials) == len(trial_c) * 5
        by_utt = {}
        for _, utterance, is_target, _ in zip(*trials.columns()):
            by_utt.setdefault(utterance, []).append(is_target)
        for utt_targets in by_utt.values():
            assert sum(utt_targets) == 1
            assert len(utt_targets) == 5

    def test_nontargets_same_gender_distinct(self):
        enroll_c, trial_c = trial_corpora()
        gender_of = {e.speaker_id: e.gender for e in enroll_c.embeddings}
        trials = make_trials(enroll_c, trial_c, n_nontarget_per_target=4, seed=1)
        utt_speaker = {e.utterance_id: e.speaker_id for e in trial_c.embeddings}
        by_utt = {}
        for speaker, utterance, is_target, gender in zip(*trials.columns()):
            by_utt.setdefault(utterance, []).append((speaker, is_target, gender))
        for utt, utt_trials in by_utt.items():
            nontargets = [speaker for speaker, is_target, _ in utt_trials if not is_target]
            assert len(set(nontargets)) == len(nontargets)
            assert utt_speaker[utt] not in nontargets
            for speaker in nontargets:
                assert gender_of[speaker] == utt_trials[0][2]

    def test_deterministic(self):
        enroll_c, trial_c = trial_corpora()
        assert make_trials(enroll_c, trial_c, 3, seed=9) == \
            make_trials(enroll_c, trial_c, 3, seed=9)

    def test_single_speaker_gender_rejected(self):
        spec = CorpusSpec(n_speakers=2, n_genders=2, n_accents=1,
                          utterances_per_speaker=5, dim=4, seed=0)
        corpus = generate_corpus(spec)
        with pytest.raises(ValueError, match="gender"):
            make_trials(corpus, corpus, 1, seed=0)

    def test_targets_only_fails_at_metric_time(self):
        enroll_c, trial_c = trial_corpora()
        trials = make_trials(enroll_c, trial_c, n_nontarget_per_target=0, seed=1)
        models = enroll_speaker_models(enroll_c)
        with pytest.raises(ValueError, match="nontarget"):
            compute_eer(score_trials(trials, models, trial_c))

    def test_too_many_nontargets_rejected(self):
        enroll_c, trial_c = trial_corpora()
        with pytest.raises(ValueError, match="nontarget"):
            make_trials(enroll_c, trial_c, n_nontarget_per_target=40, seed=1)

    def test_trial_speaker_without_enrollment_rejected(self):
        # a zero holdout leaves the test split empty with the full
        # vocabularies, so no trial speaker has an enrollment utterance
        spec = CorpusSpec(n_speakers=4, n_genders=2, n_accents=1,
                          utterances_per_speaker=3, dim=4, seed=0)
        train_c, _, test_c = split_corpus(generate_corpus(spec), 0)
        assert len(test_c) == 0 and test_c.speaker_vocab == train_c.speaker_vocab
        with pytest.raises(ValueError, match="has no enrollment utterances"):
            make_trials(test_c, train_c, 2, 1)


class TestEnrollModels:
    def test_single_utterance(self):
        v = rng.normal(size=4)
        corpus = corpus_from_rows([Embedding("u1", "s1", "f", "a00", v),
                                   Embedding("u2", "s2", "f", "a00", -v)])
        models = enroll_speaker_models(corpus)
        np.testing.assert_array_equal(models["s1"], v)

    def test_copies_average_to_original(self):
        v = rng.normal(size=4)
        corpus = corpus_from_rows([Embedding(f"u{i}", "s1", "f", "a00", v.copy())
                                   for i in range(3)]
                                  + [Embedding("ux", "s2", "f", "a00", rng.normal(size=4))])
        np.testing.assert_allclose(enroll_speaker_models(corpus)["s1"], v, atol=1e-15)

    def test_opposite_vectors_flag_downstream(self):
        v = np.array([1.0, -2.0, 0.5])
        corpus = corpus_from_rows([Embedding("u1", "s1", "f", "a00", v),
                                   Embedding("u2", "s1", "f", "a00", -v),
                                   Embedding("u3", "s2", "f", "a00", v)])
        models = enroll_speaker_models(corpus)
        np.testing.assert_array_equal(models["s1"], np.zeros(3))
        with pytest.raises(ValueError, match="degenerate"):
            cosine_score(models["s1"], v)

    @pytest.mark.parametrize("dim", [1, 5, 64, 512])
    def test_ragged_counts_bitwise_equal_to_per_speaker_mean(self, dim):
        # at dim 512 the two 9-row speakers are gathered in separate blocks
        r = np.random.default_rng(dim)
        counts = [1, 2, 3, 8, 9, 17, 3, 1, 9, 40]
        owners = r.permutation(np.repeat(np.arange(len(counts)), counts))
        rows = [Embedding(f"u{i}", f"s{owner}", "f", "a00", r.normal(size=dim))
                for i, owner in enumerate(owners.tolist())]
        corpus = corpus_from_rows(rows)
        models = enroll_speaker_models(corpus)
        first_rows = {}
        for i, owner in enumerate(owners.tolist()):
            first_rows.setdefault(f"s{owner}", i)
        assert list(models) == list(first_rows)
        for speaker, model in models.items():
            index = np.flatnonzero(owners == int(speaker[1:]))
            assert same_bits(model, corpus.vectors[index].mean(axis=0))


class TestScoreTrials:
    def test_scores_are_pairwise_cosines(self):
        enroll_c, trial_c = trial_corpora()
        trials = make_trials(enroll_c, trial_c, 2, seed=3)
        models = enroll_speaker_models(enroll_c)
        vectors = {e.utterance_id: e.vector for e in trial_c.embeddings}
        result = score_trials(trials, models, trial_c)
        speakers, utterances, _, _ = result.trials.columns()
        for speaker, utterance, score in zip(speakers, utterances, result.scores):
            assert score == cosine_score(models[speaker], vectors[utterance])

    def test_shuffling_trials_permutes_scores(self):
        enroll_c, trial_c = trial_corpora()
        trials = make_trials(enroll_c, trial_c, 2, seed=3)
        models = enroll_speaker_models(enroll_c)
        base = score_trials(trials, models, trial_c)
        perm = np.random.default_rng(0).permutation(len(trials))
        rows = list(zip(*trials.columns()))
        shuffled = score_trials(TrialList.from_rows(rows[i] for i in perm), models, trial_c)
        np.testing.assert_array_equal(shuffled.scores, base.scores[perm])


class TestScoreTrialsMatchesCosineLoop:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_cosine_score(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=8))
        vector = hnp.arrays(np.float64, dim, elements=st.floats(-1e3, 1e3))
        distinct = data.draw(st.lists(vector, min_size=1, max_size=5))
        distinct = [v if np.linalg.norm(v) > 0 else np.ones(dim) for v in distinct]
        pick = st.integers(min_value=0, max_value=len(distinct) - 1)
        # equal vectors under several names, plus a zero vector on each side
        # that no trial uses
        n_models = data.draw(st.integers(min_value=1, max_value=6))
        models = {f"s{i}": distinct[data.draw(pick)].copy() for i in range(n_models)}
        models["zero"] = np.zeros(dim)
        n_utts = data.draw(st.integers(min_value=1, max_value=8))
        rows = [Embedding(f"u{i}", f"s{i}", "f", "a00", distinct[data.draw(pick)].copy())
                for i in range(n_utts)]
        rows.append(Embedding("uz", "sz", "f", "a00", np.zeros(dim)))
        corpus = corpus_from_rows(rows)
        pairs = st.tuples(st.integers(0, n_models - 1), st.integers(0, n_utts - 1))
        trial_rows = [(f"s{m}", f"u{u}", m == u, "f")
                      for m, u in data.draw(st.lists(pairs, max_size=30))]
        expected = [cosine_score(models[speaker], corpus.embeddings[int(utterance[1:])].vector)
                    for speaker, utterance, _, _ in trial_rows]
        result = score_trials(TrialList.from_rows(trial_rows), models, corpus)
        assert np.array_equal(result.scores, np.array(expected, dtype=np.float64))

    @pytest.mark.parametrize("dim", [1, 7, 64, 512])
    def test_permuted_trial_rows_bitwise_equal_to_cosine_score(self, dim):
        r = np.random.default_rng(dim)
        rows = [Embedding(f"u{i}", f"s{i % 9}", "fm"[i % 9 % 2], "a00",
                          r.normal(size=dim) * 10.0 ** r.integers(-3, 4))
                for i in range(45)]
        enroll_c = corpus_from_rows(rows[:18])
        trial_c = corpus_from_rows(rows[18:])
        models = enroll_speaker_models(enroll_c)
        trial_rows = list(zip(*make_trials(enroll_c, trial_c, 3, seed=dim).columns()))
        trial_rows = [trial_rows[i] for i in r.permutation(len(trial_rows))]
        vectors = {e.utterance_id: e.vector for e in trial_c.embeddings}
        expected = np.array([cosine_score(models[speaker], vectors[utterance])
                             for speaker, utterance, _, _ in trial_rows])
        result = score_trials(TrialList.from_rows(trial_rows), models, trial_c)
        assert list(zip(*result.trials.columns())) == trial_rows
        assert same_bits(result.scores, expected)

    def test_vox64_sized_scoring_holds_no_full_gather(self):
        # 13,761 trials at dim 64: a full gather of either side would be one
        # (13761, 64) float64 matrix, 7 MB
        r = np.random.default_rng(3)
        n_trials, n_speakers, dim = 13_761, 1251, 64
        corpus = corpus_from_rows([Embedding(f"u{i}", f"s{i}", "f", "a00", r.normal(size=dim))
                                   for i in range(n_speakers)])
        models = {f"s{i}": r.normal(size=dim) for i in range(n_speakers)}
        trials = TrialList([f"s{i}" for i in range(n_speakers)], corpus.utterance_ids, ["f"],
                           speakers=r.integers(0, n_speakers, n_trials),
                           rows=r.integers(0, n_speakers, n_trials),
                           is_target=r.random(n_trials) < 0.1,
                           genders=np.zeros(n_trials, dtype=np.intp))
        scored, peak = traced_peak(lambda: score_trials(trials, models, corpus))
        assert len(scored.scores) == n_trials
        assert peak < n_trials * dim * 8

    @pytest.mark.parametrize("speaker, utterance", [("zero", "u0"), ("s0", "uz")])
    def test_zero_vector_in_a_trial_rejected(self, speaker, utterance):
        corpus = corpus_from_rows([Embedding("u0", "s0", "f", "a00", np.ones(3)),
                                   Embedding("uz", "s1", "f", "a00", np.zeros(3))])
        models = {"s0": np.ones(3), "zero": np.zeros(3)}
        with pytest.raises(ValueError, match="degenerate"):
            score_trials(TrialList.from_rows([("s0", "u0", True, "f"),
                                              (speaker, utterance, False, "f")]),
                         models, corpus)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_power_of_two_scaling_keeps_every_score(self, data):
        # entries are multiples of 2**-10 below 2**10 in magnitude, so for
        # |k| <= 990 every scaled row, speaker mean and product stays normal
        # or zero and 2**-k undoes the scaling exactly; from |k| of about 500
        # on, the squared norms underflow or overflow
        r = np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))
        dim = data.draw(st.integers(1, 8), label="dim")
        n_speakers = data.draw(st.integers(2, 4), label="speakers")

        def grid(rows):
            values = r.integers(-2 ** 20, 2 ** 20, size=(rows, dim)) * 2.0 ** -10
            values[np.abs(values).sum(axis=1) == 0, 0] = 1.0
            return values

        owners = r.permutation(np.repeat(np.arange(n_speakers),
                                         r.integers(1, 4, size=n_speakers)))
        enroll = [Embedding(f"e{i}", f"s{owner}", "f", "a00", v)
                  for i, (owner, v) in enumerate(zip(owners.tolist(), grid(len(owners))))]
        trial = [Embedding(f"u{i}", f"s{i % n_speakers}", "f", "a00", v)
                 for i, v in enumerate(grid(data.draw(st.integers(1, 6), label="trials")))]
        trials = TrialList.from_rows((f"s{m}", e.utterance_id, False, "f")
                                     for m in range(n_speakers) for e in trial)
        k = data.draw(st.one_of(st.integers(-990, 990),
                                st.sampled_from([-600, -530, -512, -500, 512, 600])), label="k")
        if data.draw(st.booleans(), label="scale a speaker"):
            speaker = f"s{data.draw(st.integers(0, n_speakers - 1), label='speaker')}"
            scaled = [dataclasses.replace(e, vector=np.ldexp(e.vector, k))
                      if e.speaker_id == speaker else e for e in enroll]
            scaled_trial = trial
        else:
            row = data.draw(st.integers(0, len(trial) - 1), label="row")
            scaled, scaled_trial = enroll, list(trial)
            scaled_trial[row] = dataclasses.replace(trial[row],
                                                    vector=np.ldexp(trial[row].vector, k))
        expected = score_trials(trials, enroll_speaker_models(corpus_from_rows(enroll)),
                                corpus_from_rows(trial)).scores
        got = score_trials(trials, enroll_speaker_models(corpus_from_rows(scaled)),
                           corpus_from_rows(scaled_trial)).scores
        assert same_bits(got, expected)

    def test_overflowing_mean_refused_where_a_trial_uses_it(self):
        # two finite rows whose sum, and so whose mean, overflows
        big = np.full(3, np.finfo(np.float64).max)
        enroll = corpus_from_rows([Embedding("e0", "s0", "f", "a00", big),
                                   Embedding("e1", "s0", "f", "a00", big),
                                   Embedding("e2", "s1", "f", "a00", np.ones(3))])
        corpus = corpus_from_rows([Embedding("u0", "s1", "f", "a00", np.ones(3))])
        models = enroll_speaker_models(enroll)
        assert np.isinf(models["s0"]).all()
        assert score_trials(TrialList.from_rows([("s1", "u0", True, "f")]), models,
                            corpus).scores.tolist() == [cosine_score(np.ones(3), np.ones(3))]
        with pytest.raises(ValueError, match="degenerate vector: non-finite norm of the "
                                             "enrollment model of speaker 's0'"):
            score_trials(TrialList.from_rows([("s1", "u0", True, "f"),
                                              ("s0", "u0", False, "f")]), models, corpus)

    def test_zero_trial_vector_named(self):
        corpus = corpus_from_rows([Embedding("u0", "s0", "f", "a00", np.ones(3)),
                                   Embedding("u1", "s0", "f", "a00", np.zeros(3))])
        with pytest.raises(ValueError, match="degenerate vector: zero norm of trial "
                                             "utterance 'u1'"):
            score_trials(TrialList.from_rows([("s0", "u0", True, "f"), ("s0", "u1", True, "f")]),
                         {"s0": np.ones(3)}, corpus)

    def test_missing_speaker_and_utterance_named(self):
        corpus = corpus_from_rows([Embedding("u0", "s0", "f", "a00", np.ones(3))])
        models = {"s0": np.ones(3)}
        with pytest.raises(ValueError, match="'s9'"):
            score_trials(TrialList.from_rows([("s9", "u0", True, "f")]), models, corpus)
        with pytest.raises(ValueError, match="'u9'"):
            score_trials(TrialList.from_rows([("s0", "u9", True, "f")]), models, corpus)


def reference_probe(train_c, test_c, attribute, seed, epochs, lr):
    """The probe as separate weight and bias arrays, each with its own Adam
    state: (test accuracy, trained layer)."""
    index = {"gender": 0, "accent": 1, "speaker": 2}[attribute]
    x_train = train_c.matrix()
    y_train = train_c.label_indices()[index]
    n_classes = len(getattr(train_c, f"{attribute}_vocab"))
    layer = init_dense(train_c.dim, n_classes, "linear", np.random.default_rng(seed))
    w_state = AdamState.for_params(layer.weights)
    b_state = AdamState.for_params(layer.bias)
    for _ in range(epochs):
        logits, cache = dense_forward(layer, x_train)
        _, d_logits = softmax_cross_entropy(logits, y_train)
        dw, db = np.empty_like(layer.weights), np.empty_like(layer.bias)
        dense_backward(layer, cache, d_logits, dw, db)
        adam_step(layer.weights, dw, w_state, lr=lr)
        adam_step(layer.bias, db, b_state, lr=lr)
    test_logits, _ = dense_forward(layer, test_c.matrix())
    accuracy = float((test_logits.argmax(axis=1) == test_c.label_indices()[index]).mean())
    return accuracy, layer


def probe_pairs():
    """Two (train, test) pairs with the same ids and labels and different
    vectors, as the original and anonymized sides of an evaluation."""
    train_c, test_c = trial_corpora()
    warp = np.random.default_rng(21).normal(size=(train_c.dim, train_c.dim))
    return [(train_c, test_c),
            (train_c.with_vectors(np.tanh(train_c.matrix() @ warp)),
             test_c.with_vectors(np.tanh(test_c.matrix() @ warp)))]


class TestProbe:
    @pytest.mark.parametrize("attribute", ["speaker", "gender", "accent"])
    def test_flat_probe_matches_separate_arrays(self, attribute):
        pairs = probe_pairs()
        references = [reference_probe(train_c, test_c, attribute, seed=5, epochs=80, lr=0.05)
                      for train_c, test_c in pairs]
        assert probe_attack(pairs, attribute, seed=5, epochs=80, lr=0.05) == \
            [accuracy for accuracy, _ in references]
        index = {"gender": 0, "accent": 1, "speaker": 2}[attribute]
        weights, bias = _train_probe(np.stack([train_c.matrix() for train_c, _ in pairs]),
                                     np.stack([train_c.label_indices()[index]
                                               for train_c, _ in pairs]),
                                     references[0][1].n_out, seed=5, epochs=80, lr=0.05)
        assert not np.array_equal(weights[0], weights[1])
        for w, b, (_, ref_layer) in zip(weights, bias, references):
            assert w.tobytes() == ref_layer.weights.tobytes()
            assert b.tobytes() == ref_layer.bias.tobytes()

    @pytest.mark.parametrize("what", ["row count", "dim", "class count"])
    def test_pairs_that_cannot_stack_rejected_naming_why(self, what):
        train_c, test_c = trial_corpora()
        rows = train_c.embeddings
        if what == "row count":
            rows = rows[:-1]
        elif what == "dim":
            rows = [dataclasses.replace(e, vector=e.vector[:-1]) for e in rows]
        else:  # one speaker per (gender, accent)
            first: dict[tuple[str, str], str] = {}
            rows = [dataclasses.replace(e, speaker_id=first.setdefault((e.gender, e.accent),
                                                                       e.speaker_id))
                    for e in rows]
        other = corpus_from_rows(rows, split_tag="train")
        with pytest.raises(ValueError, match=f"probe pairs differ in {what}"):
            probe_attack([(train_c, test_c), (other, other)], "speaker", seed=0, epochs=1)

    def test_test_dim_must_match_train_dim(self):
        (train_c, test_c), _ = probe_pairs()
        narrow = corpus_from_rows([dataclasses.replace(e, vector=e.vector[:-1])
                                   for e in test_c.embeddings])
        with pytest.raises(ValueError, match="test corpus dim 5 != train corpus dim 6"):
            probe_attack([(train_c, narrow)], "gender", seed=0, epochs=1)

    def test_speaker_probe_on_original_corpus(self, desk_splits):
        train_c, _, test_c = desk_splits
        assert probe_attack([(train_c, test_c)], "speaker", seed=3)[0] >= 0.95

    def test_shuffled_labels_give_chance(self):
        # permutation oracle: shuffling labels against the vectors leaves
        # only chance accuracy, within 3 binomial sigmas.  One utterance
        # per speaker keeps the utterance-level shuffle label-consistent.
        r = np.random.default_rng(11)
        gender_dirs = {"f": r.normal(size=8), "m": r.normal(size=8)}

        def build(n, prefix):
            genders = ["f", "m"] * (n // 2)
            shuffled = [genders[i] for i in r.permutation(n)]
            rows = [Embedding(f"{prefix}{i}", f"{prefix}spk{i}", shuffled[i], "a00",
                              2.0 * gender_dirs[genders[i]] + 0.2 * r.normal(size=8))
                    for i in range(n)]
            return corpus_from_rows(rows)

        train_c = build(80, "tr")
        test_c = build(60, "te")
        [accuracy] = probe_attack([(train_c, test_c)], "gender", seed=2)
        sigma = math.sqrt(0.25 / len(test_c))
        assert abs(accuracy - 0.5) <= 3 * sigma

    def test_constant_vectors_give_majority_rate(self):
        rows = []
        for s, gender, n in (("s1", "f", 4), ("s2", "f", 4), ("s3", "m", 2)):
            for i in range(n):
                rows.append(Embedding(f"{s}-u{i}", s, gender, "a00",
                                      np.ones(4)))
        train_c = corpus_from_rows(rows, split_tag="train")
        test_rows = [Embedding(f"t{i}", s, g, "a00", np.ones(4))
                     for i, (s, g) in enumerate([("s1", "f"), ("s2", "f"),
                                                 ("s3", "m"), ("s3", "m")])]
        test_c = corpus_from_rows(test_rows, split_tag="test")
        # train majority is f; test has 2/4 f
        assert probe_attack([(train_c, test_c)], "gender", seed=0) == [0.5]

    def test_single_class_attribute_rejected(self):
        rows = [Embedding(f"u{i}", f"s{i}", "f", "a00", rng.normal(size=3))
                for i in range(4)]
        corpus = corpus_from_rows(rows)
        with pytest.raises(ValueError, match="class"):
            probe_attack([(corpus, corpus)], "gender", seed=0)


def evaluate_method(train_c, enroll_c, trial_c, method, n_nontarget_per_target, seed,
                    **kwargs):
    """evaluate_conditions on the corpora and their anonymization by ``method``,
    with the trial list make_trials builds from them."""
    original = (train_c, enroll_c, trial_c)
    anonymized = tuple(anonymize_corpus(corpus, method) for corpus in original)
    trials = make_trials(enroll_c, trial_c, n_nontarget_per_target, seed)
    return evaluate_conditions(original, anonymized, trials, seed, **kwargs)


class TestEvaluateConditions:
    def test_identity_method_gives_identical_rows(self):
        enroll_c, trial_c = trial_corpora()
        report = evaluate_method(enroll_c, enroll_c, trial_c,
                                 AnonymizationMethod("identity"),
                                 n_nontarget_per_target=3, seed=12,
                                 dataset_tag="t")
        assert len(report.rows) == 6  # 3 conditions x 2 genders
        by_condition = {}
        for row in report.rows:
            key = (row.gender,)
            value = (row.eer_pct, row.min_cllr, row.cllr, row.probe_speaker,
                     row.probe_gender, row.probe_accent)
            by_condition.setdefault(key, set()).add(value)
        for values in by_condition.values():
            assert len(values) == 1

    def test_each_side_enrolled_once(self, monkeypatch):
        enroll_c, trial_c = trial_corpora()
        enrolled = []
        real = metrics.enroll_speaker_models
        monkeypatch.setattr(metrics, "enroll_speaker_models",
                            lambda corpus: enrolled.append(corpus) or real(corpus))
        original = (enroll_c, enroll_c, trial_c)
        anonymized = tuple(c.with_vectors(-c.matrix()) for c in original)
        trials = make_trials(enroll_c, trial_c, 3, seed=12)
        evaluate_conditions(original, anonymized, trials, seed=12)
        assert len(enrolled) == 2
        assert enrolled[0] is original[1] and enrolled[1] is anonymized[1]

    def test_cllr_at_least_min_cllr_in_every_row(self, small_corpus_splits,
                                                 small_trained_model):
        train_c, valid_c, test_c = small_corpus_splits
        report = evaluate_method(train_c, test_c, valid_c,
                                 AnonymizationMethod("aan1", model=small_trained_model),
                                 n_nontarget_per_target=3, seed=12)
        assert len(report.rows) == 6
        for row in report.rows:
            assert row.cllr >= row.min_cllr >= 0.0
            assert 0.0 <= row.eer_pct <= 100.0


class TestFileFormats:
    def test_trials_round_trip(self, tmp_path):
        enroll_c, trial_c = trial_corpora()
        trials = make_trials(enroll_c, trial_c, 2, seed=3)
        path = tmp_path / "trials.csv"
        write_trials(trials, path)
        assert read_trials(path) == trials

    def test_report_round_trip(self, tmp_path):
        enroll_c, trial_c = trial_corpora()
        report = evaluate_method(enroll_c, enroll_c, trial_c,
                                 AnonymizationMethod("identity"),
                                 n_nontarget_per_target=2, seed=1)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        loaded = read_report_csv(path)
        assert loaded.rows == report.rows

    @pytest.mark.parametrize("column, cell", [("min_cllr", "abc"), ("eer_pct", "nan"),
                                              ("probe_accent", "inf"), ("cllr", "")])
    def test_report_cell_must_be_a_finite_number(self, tmp_path, column, cell):
        values = dict(zip(REPORT_COLUMNS, ["1", "synth", "10.0", "0.9", "1.1", "o",
                                           "a", "f", "0.5", "0.9", "0.4"]))
        values[column] = cell
        path = tmp_path / "report.csv"
        path.write_text(",".join(REPORT_COLUMNS) + "\n" + ",".join(values.values()) + "\n")
        with pytest.raises(ValueError) as info:
            read_report_csv(path)
        message = str(info.value)
        assert str(path) in message and "line 2" in message and column in message

    @pytest.mark.parametrize("reader, header", [
        (read_trials, "enroll_speaker,trial_utterance,is_target,gender"),
        (read_report_csv, ",".join(REPORT_COLUMNS))], ids=["trials", "report"])
    def test_not_utf8_names_the_line(self, tmp_path, reader, header):
        path = tmp_path / "file.csv"
        path.write_bytes(header.encode() + b"\ns\xff,u1,1,f\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: not utf-8 text$"):
            reader(path)

    @pytest.mark.parametrize("reader, header", [
        (read_trials, "enroll_speaker,trial_utterance,is_target,gender"),
        (read_report_csv, ",".join(REPORT_COLUMNS))], ids=["trials", "report"])
    def test_csv_error_names_the_line(self, tmp_path, reader, header):
        path = tmp_path / "file.csv"
        path.write_text(header + "\n" + "x" * (csv.field_size_limit() + 1) + ",u1,1,f\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: field larger"):
            reader(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_byte_mutation_raises_only_value_error_naming_path(self, data):
        trials = TrialList.from_rows([("s1", "u1", True, "f"), ("s2", "u1", False, "f"),
                                      ("s3", "u2", True, "m")])
        report = MetricsReport([ReportRow(dataset="synth", enroll="o", trial="a", gender="f",
                                          eer_pct=12.5, min_cllr=0.75, cllr=1.25,
                                          probe_speaker=0.5, probe_gender=0.875,
                                          probe_accent=0.25)])
        with tempfile.TemporaryDirectory() as tmp:
            for write, read, payload in ((write_trials, read_trials, trials),
                                         (write_report_csv, read_report_csv, report)):
                path = Path(tmp) / "file.csv"
                write(payload, path)
                valid = path.read_bytes()
                pos = data.draw(st.integers(0, len(valid) - 1))
                byte = data.draw(st.integers(0, 255))
                path.write_bytes(valid[:pos] + bytes([byte]) + valid[pos + 1:])
                try:
                    read(path)
                except ValueError as exc:
                    assert str(exc).startswith(f"{path}: ")

    def test_report_csv_layout(self, tmp_path):
        report = MetricsReport([ReportRow(dataset="synth", enroll="o", trial="a", gender="f",
                                          eer_pct=12.5, min_cllr=0.1, cllr=1.25,
                                          probe_speaker=0.5, probe_gender=0.875,
                                          probe_accent=0.25)])
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        assert path.read_text() == (
            "row,dataset,eer_pct,min_cllr,cllr,enroll,trial,gender,"
            "probe_speaker,probe_gender,probe_accent\n"
            "1,synth,12.5,0.10000000000000001,1.25,o,a,f,0.5,0.875,0.25\n")

    def test_table_layout(self):
        report = MetricsReport(rows=[])
        header = format_report_table(report).splitlines()[0].split()
        assert header == ["#", "dataset", "EER,%", "minCllr", "Cllr", "enroll",
                          "trial", "gen", "probe_spk", "probe_gen", "probe_acc"]
