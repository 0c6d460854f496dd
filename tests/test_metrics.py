import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spkdeid.anonymize import AnonymizationMethod
from spkdeid.dataset import AttributeStrength, CorpusSpec, Embedding, generate_corpus, \
    make_corpus, split_corpus
from spkdeid.metrics import (
    REPORT_COLUMNS,
    MetricsReport,
    ScoredTrials,
    Trial,
    compute_cllr,
    compute_eer,
    compute_min_cllr,
    cosine_score,
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

rng = np.random.default_rng(314)


def scored(targets, nontargets):
    trials = ([Trial("s", f"t{i}", True, "f") for i in range(len(targets))]
              + [Trial("s", f"n{i}", False, "f") for i in range(len(nontargets))])
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
        trials = [Trial("s", "u", True, "f")]
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
        for t in trials:
            by_utt.setdefault(t.trial_utterance, []).append(t)
        for utt_trials in by_utt.values():
            assert sum(t.is_target for t in utt_trials) == 1
            assert len(utt_trials) == 5

    def test_nontargets_same_gender_distinct(self):
        enroll_c, trial_c = trial_corpora()
        gender_of = {e.speaker_id: e.gender for e in enroll_c.embeddings}
        trials = make_trials(enroll_c, trial_c, n_nontarget_per_target=4, seed=1)
        utt_speaker = {e.utterance_id: e.speaker_id for e in trial_c.embeddings}
        by_utt = {}
        for t in trials:
            by_utt.setdefault(t.trial_utterance, []).append(t)
        for utt, utt_trials in by_utt.items():
            nontargets = [t.enroll_speaker for t in utt_trials if not t.is_target]
            assert len(set(nontargets)) == len(nontargets)
            assert utt_speaker[utt] not in nontargets
            for speaker in nontargets:
                assert gender_of[speaker] == utt_trials[0].gender

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


class TestEnrollModels:
    def test_single_utterance(self):
        v = rng.normal(size=4)
        corpus = make_corpus([Embedding("u1", "s1", "f", "a00", v),
                              Embedding("u2", "s2", "f", "a00", -v)])
        models = enroll_speaker_models(corpus)
        np.testing.assert_array_equal(models["s1"], v)

    def test_copies_average_to_original(self):
        v = rng.normal(size=4)
        corpus = make_corpus([Embedding(f"u{i}", "s1", "f", "a00", v.copy())
                              for i in range(3)]
                             + [Embedding("ux", "s2", "f", "a00", rng.normal(size=4))])
        np.testing.assert_allclose(enroll_speaker_models(corpus)["s1"], v, atol=1e-15)

    def test_opposite_vectors_flag_downstream(self):
        v = np.array([1.0, -2.0, 0.5])
        corpus = make_corpus([Embedding("u1", "s1", "f", "a00", v),
                              Embedding("u2", "s1", "f", "a00", -v),
                              Embedding("u3", "s2", "f", "a00", v)])
        models = enroll_speaker_models(corpus)
        np.testing.assert_array_equal(models["s1"], np.zeros(3))
        with pytest.raises(ValueError, match="degenerate"):
            cosine_score(models["s1"], v)


class TestScoreTrials:
    def test_scores_are_pairwise_cosines(self):
        enroll_c, trial_c = trial_corpora()
        trials = make_trials(enroll_c, trial_c, 2, seed=3)
        models = enroll_speaker_models(enroll_c)
        vectors = {e.utterance_id: e.vector for e in trial_c.embeddings}
        result = score_trials(trials, models, trial_c)
        for trial, score in zip(result.trials, result.scores):
            assert score == cosine_score(models[trial.enroll_speaker],
                                         vectors[trial.trial_utterance])

    def test_shuffling_trials_permutes_scores(self):
        enroll_c, trial_c = trial_corpora()
        trials = make_trials(enroll_c, trial_c, 2, seed=3)
        models = enroll_speaker_models(enroll_c)
        base = score_trials(trials, models, trial_c)
        perm = np.random.default_rng(0).permutation(len(trials))
        shuffled = score_trials([trials[i] for i in perm], models, trial_c)
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
        corpus = make_corpus(rows)
        pairs = st.tuples(st.integers(0, n_models - 1), st.integers(0, n_utts - 1))
        trials = [Trial(f"s{m}", f"u{u}", m == u, "f")
                  for m, u in data.draw(st.lists(pairs, max_size=30))]
        expected = [cosine_score(models[t.enroll_speaker],
                                 corpus.embeddings[int(t.trial_utterance[1:])].vector)
                    for t in trials]
        result = score_trials(trials, models, corpus)
        assert np.array_equal(result.scores, np.array(expected, dtype=np.float64))

    @pytest.mark.parametrize("speaker, utterance", [("zero", "u0"), ("s0", "uz")])
    def test_zero_vector_in_a_trial_rejected(self, speaker, utterance):
        corpus = make_corpus([Embedding("u0", "s0", "f", "a00", np.ones(3)),
                              Embedding("uz", "s1", "f", "a00", np.zeros(3))])
        models = {"s0": np.ones(3), "zero": np.zeros(3)}
        with pytest.raises(ValueError, match="degenerate"):
            score_trials([Trial("s0", "u0", True, "f"), Trial(speaker, utterance, False, "f")],
                         models, corpus)

    def test_missing_speaker_and_utterance_named(self):
        corpus = make_corpus([Embedding("u0", "s0", "f", "a00", np.ones(3))])
        models = {"s0": np.ones(3)}
        with pytest.raises(ValueError, match="'s9'"):
            score_trials([Trial("s9", "u0", True, "f")], models, corpus)
        with pytest.raises(ValueError, match="'u9'"):
            score_trials([Trial("s0", "u9", True, "f")], models, corpus)


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
        _, dw, db = dense_backward(layer, cache, d_logits)
        adam_step(layer.weights, dw, w_state, lr=lr)
        adam_step(layer.bias, db, b_state, lr=lr)
    test_logits, _ = dense_forward(layer, test_c.matrix())
    accuracy = float((test_logits.argmax(axis=1) == test_c.label_indices()[index]).mean())
    return accuracy, layer


class TestProbe:
    @pytest.mark.parametrize("attribute", ["speaker", "gender", "accent"])
    def test_flat_probe_matches_separate_arrays(self, attribute):
        train_c, test_c = trial_corpora()
        accuracy, ref_layer = reference_probe(train_c, test_c, attribute, seed=5,
                                              epochs=80, lr=0.05)
        assert probe_attack(train_c, test_c, attribute, seed=5, epochs=80,
                            lr=0.05) == accuracy
        index = {"gender": 0, "accent": 1, "speaker": 2}[attribute]
        layer = _train_probe(train_c.matrix(), train_c.label_indices()[index],
                             ref_layer.n_out, seed=5, epochs=80, lr=0.05)
        assert np.array_equal(layer.weights, ref_layer.weights)
        assert np.array_equal(layer.bias, ref_layer.bias)

    def test_speaker_probe_on_original_corpus(self, desk_splits):
        train_c, _, test_c = desk_splits
        assert probe_attack(train_c, test_c, "speaker", seed=3) >= 0.95

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
            return make_corpus(rows)

        train_c = build(80, "tr")
        test_c = build(60, "te")
        accuracy = probe_attack(train_c, test_c, "gender", seed=2)
        sigma = math.sqrt(0.25 / len(test_c))
        assert abs(accuracy - 0.5) <= 3 * sigma

    def test_constant_vectors_give_majority_rate(self):
        rows = []
        for s, gender, n in (("s1", "f", 4), ("s2", "f", 4), ("s3", "m", 2)):
            for i in range(n):
                rows.append(Embedding(f"{s}-u{i}", s, gender, "a00",
                                      np.ones(4)))
        train_c = make_corpus(rows, split_tag="train")
        test_rows = [Embedding(f"t{i}", s, g, "a00", np.ones(4))
                     for i, (s, g) in enumerate([("s1", "f"), ("s2", "f"),
                                                 ("s3", "m"), ("s3", "m")])]
        test_c = make_corpus(test_rows, split_tag="test")
        # train majority is f; test has 2/4 f
        assert probe_attack(train_c, test_c, "gender", seed=0) == 0.5

    def test_single_class_attribute_rejected(self):
        rows = [Embedding(f"u{i}", f"s{i}", "f", "a00", rng.normal(size=3))
                for i in range(4)]
        corpus = make_corpus(rows)
        with pytest.raises(ValueError, match="class"):
            probe_attack(corpus, corpus, "gender", seed=0)


class TestEvaluateConditions:
    def test_identity_method_gives_identical_rows(self):
        enroll_c, trial_c = trial_corpora()
        report = evaluate_conditions(enroll_c, enroll_c, trial_c,
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

    def test_cllr_at_least_min_cllr_in_every_row(self, small_corpus_splits,
                                                 small_trained_model):
        train_c, valid_c, test_c = small_corpus_splits
        report = evaluate_conditions(train_c, test_c, valid_c,
                                     AnonymizationMethod("aan1",
                                                         model=small_trained_model),
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
        report = evaluate_conditions(enroll_c, enroll_c, trial_c,
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

    def test_table_layout(self):
        report = MetricsReport(rows=[])
        header = format_report_table(report).splitlines()[0].split()
        assert header == ["#", "dataset", "EER,%", "minCllr", "Cllr", "enroll",
                          "trial", "gen", "probe_spk", "probe_gen", "probe_acc"]
