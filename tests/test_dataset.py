import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spkdeid.dataset import (
    AttributeStrength,
    CorpusSpec,
    Embedding,
    generate_corpus,
    make_corpus,
    read_corpus,
    split_corpus,
    write_corpus,
)


def small_spec(**overrides):
    base = dict(n_speakers=6, n_genders=2, n_accents=3,
                utterances_per_speaker=5, dim=8, seed=7)
    base.update(overrides)
    return CorpusSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        spec = small_spec(seed=7)
        assert generate_corpus(spec) == generate_corpus(spec)

    def test_different_seeds_differ(self):
        assert generate_corpus(small_spec(seed=1)) != generate_corpus(small_spec(seed=2))

    def test_counts(self):
        corpus = generate_corpus(small_spec(n_speakers=4, utterances_per_speaker=3))
        assert len(corpus) == 12
        assert len({e.speaker_id for e in corpus.embeddings}) == 4

    def test_zero_noise_collapses_speaker_utterances(self):
        corpus = generate_corpus(small_spec(
            noise_sigma=0.0, attribute_strength=AttributeStrength(speaker=1.0)))
        for utts in corpus.by_speaker().values():
            for e in utts[1:]:
                assert np.array_equal(e.vector, utts[0].vector)

    def test_speaker_level_attributes(self):
        corpus = generate_corpus(small_spec(n_speakers=10))
        for utts in corpus.by_speaker().values():
            assert len({(e.gender, e.accent) for e in utts}) == 1

    def test_round_robin_genders(self):
        corpus = generate_corpus(small_spec(n_speakers=10, n_genders=2))
        per_gender = {}
        for e in corpus.embeddings:
            per_gender.setdefault(e.gender, set()).add(e.speaker_id)
        assert sorted(len(s) for s in per_gender.values()) == [5, 5]

    def test_vocabs_lexicographic_contiguous(self):
        corpus = generate_corpus(small_spec())
        for vocab in (corpus.speaker_vocab, corpus.gender_vocab, corpus.accent_vocab):
            assert list(vocab.keys()) == sorted(vocab)
            assert sorted(vocab.values()) == list(range(len(vocab)))

    @pytest.mark.parametrize("field,value", [
        ("n_speakers", 0),
        ("n_genders", 0),
        ("utterances_per_speaker", 0),
        ("dim", 0),
    ])
    def test_invalid_counts_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            generate_corpus(small_spec(**{field: value}))

    def test_non_finite_strength_names_the_field(self):
        spec = small_spec(attribute_strength=AttributeStrength(gender=float("nan")))
        with pytest.raises(ValueError, match="attribute_strength.gender"):
            generate_corpus(spec)

    def test_fewer_speakers_than_genders_rejected(self):
        with pytest.raises(ValueError, match="n_speakers"):
            generate_corpus(small_spec(n_speakers=2, n_genders=3))


class TestSplit:
    def test_ten_per_speaker_holdout(self):
        corpus = generate_corpus(small_spec(utterances_per_speaker=30))
        train, valid, test = split_corpus(corpus, 10)
        for part, count in ((train, 10), (valid, 10), (test, 10)):
            assert all(len(utts) == count for utts in part.by_speaker().values())

    def test_zero_holdout(self):
        corpus = generate_corpus(small_spec())
        train, valid, test = split_corpus(corpus, 0)
        assert len(valid) == 0 and len(test) == 0
        assert train.embeddings == corpus.embeddings

    def test_insufficient_utterances_names_speaker(self):
        corpus = generate_corpus(small_spec(utterances_per_speaker=5))
        with pytest.raises(ValueError, match="s0000"):
            split_corpus(corpus, 10)

    def test_partition(self):
        corpus = generate_corpus(small_spec(utterances_per_speaker=7))
        train, valid, test = split_corpus(corpus, 2)
        ids = [e.utterance_id for part in (train, valid, test) for e in part.embeddings]
        assert sorted(ids) == sorted(e.utterance_id for e in corpus.embeddings)
        assert len(set(ids)) == len(ids)

    def test_holdout_taken_from_end_by_utterance_id(self):
        corpus = generate_corpus(small_spec(utterances_per_speaker=5))
        train, valid, test = split_corpus(corpus, 1)
        for e in valid.embeddings:
            assert e.utterance_id.endswith("u0004")
        for e in test.embeddings:
            assert e.utterance_id.endswith("u0003")

    def test_vocabs_copied(self):
        corpus = generate_corpus(small_spec())
        train, _, _ = split_corpus(corpus, 1)
        assert train.speaker_vocab == corpus.speaker_vocab
        assert train.split_tag == "train"


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        corpus = generate_corpus(small_spec())
        path = tmp_path / "corpus.csv"
        write_corpus(corpus, path)
        assert read_corpus(path) == corpus

    def test_round_trip_survives_rewrite(self, tmp_path):
        corpus = generate_corpus(small_spec())
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_corpus(corpus, first)
        write_corpus(read_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_wrong_row_length_reports_line(self, tmp_path):
        corpus = generate_corpus(small_spec(dim=3))
        path = tmp_path / "corpus.csv"
        write_corpus(corpus, path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_corpus(path)

    def test_bad_float_reports_line(self, tmp_path):
        corpus = generate_corpus(small_spec(dim=3))
        path = tmp_path / "corpus.csv"
        write_corpus(corpus, path)
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[-1] = "not-a-number"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_corpus(path)

    def test_vector_text_is_numpy_17g(self, tmp_path):
        corpus = generate_corpus(small_spec(dim=3))
        special = [[-0.0, 5e-324, 1.0 / 3.0], [1e300, -2.5e-310, 0.1]]
        vectors = corpus.matrix()
        vectors[:2] = special
        path = tmp_path / "corpus.csv"
        write_corpus(corpus.with_vectors(vectors), path)
        lines = path.read_text().splitlines()[1:]
        for line, row in zip(lines, vectors):
            assert line.split(",")[4:] == [format(v, ".17g") for v in row]

    def test_non_finite_row_names_first_bad_utterance(self, tmp_path):
        corpus = generate_corpus(small_spec(dim=3))
        vectors = corpus.matrix()
        vectors[[2, 4], 1] = np.nan
        path = tmp_path / "corpus.csv"
        with pytest.raises(ValueError, match=corpus.embeddings[2].utterance_id):
            write_corpus(corpus.with_vectors(vectors), path)
        assert not path.exists()

    def test_header_only_is_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("utterance_id,speaker_id,gender,accent,v0\n")
        with pytest.raises(ValueError, match="empty corpus"):
            read_corpus(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("qqq,speaker_id,gender,accent,v0\nu1,s1,f,a,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_corpus(path)


class TestInvariants:
    def test_duplicate_utterance_id_rejected(self):
        e = Embedding("u1", "s1", "f", "a00", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            make_corpus([e, e])

    def test_conflicting_speaker_attributes_rejected(self):
        rows = [Embedding("u1", "s1", "f", "a00", np.zeros(2)),
                Embedding("u2", "s1", "m", "a00", np.zeros(2))]
        with pytest.raises(ValueError, match="s1"):
            make_corpus(rows)

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_corpus([Embedding("u1", "s1", "f", "a00", np.array([1.0, np.inf]))])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           n_heldout=st.integers(min_value=0, max_value=2))
    def test_split_partitions_any_generated_corpus(self, seed, n_heldout):
        corpus = generate_corpus(small_spec(seed=seed))
        parts = split_corpus(corpus, n_heldout)
        ids = [e.utterance_id for part in parts for e in part.embeddings]
        assert sorted(ids) == sorted(e.utterance_id for e in corpus.embeddings)


def test_separability_nearest_class_mean():
    # oracle: nearest-class-mean speaker classifier on a held-out split
    spec = CorpusSpec(attribute_strength=AttributeStrength(speaker=1.0),
                      noise_sigma=0.05, seed=123)
    corpus = generate_corpus(spec)
    train, _, test = split_corpus(corpus, 10)
    speakers = sorted(train.speaker_vocab)
    means = np.stack([np.mean([e.vector for e in utts], axis=0)
                      for spk, utts in sorted(train.by_speaker().items())])
    correct = 0
    for e in test.embeddings:
        predicted = speakers[np.argmin(np.linalg.norm(means - e.vector, axis=1))]
        correct += predicted == e.speaker_id
    assert correct == len(test)
