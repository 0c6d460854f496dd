import csv
import dataclasses
import io
import tempfile
import tracemalloc
from pathlib import Path

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


def by_speaker(corpus):
    """Rows grouped by speaker, in order of first appearance."""
    out = {}
    for e in corpus.embeddings:
        out.setdefault(e.speaker_id, []).append(e)
    return out


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
        for utts in by_speaker(corpus).values():
            for e in utts[1:]:
                assert np.array_equal(e.vector, utts[0].vector)

    def test_speaker_level_attributes(self):
        corpus = generate_corpus(small_spec(n_speakers=10))
        for utts in by_speaker(corpus).values():
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
            assert all(len(utts) == count for utts in by_speaker(part).values())

    def test_zero_holdout(self):
        corpus = generate_corpus(small_spec())
        train, valid, test = split_corpus(corpus, 0)
        assert len(valid) == 0 and len(test) == 0
        assert train == dataclasses.replace(corpus, split_tag="train")

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
        vectors = corpus.matrix().copy()
        vectors[:2] = special
        path = tmp_path / "corpus.csv"
        write_corpus(corpus.with_vectors(vectors), path)
        lines = path.read_text().splitlines()[1:]
        for line, row in zip(lines, vectors):
            assert line.split(",")[4:] == [format(v, ".17g") for v in row]

    def test_non_finite_row_names_first_bad_utterance(self, tmp_path):
        corpus = generate_corpus(small_spec(dim=3))
        vectors = corpus.matrix().copy()
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


def oracle_read(path, split_tag="unsplit"):
    """The per-line csv.reader loop, one Embedding per row, that
    ``read_corpus`` must agree with: same corpus or same error text."""
    fixed = ["utterance_id", "speaker_id", "gender", "accent"]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty corpus")
        if header[:4] != fixed:
            raise ValueError(f"{path}: line 1: bad header, expected columns {fixed} first")
        dim = len(header) - 4
        if dim < 1 or header[4:] != [f"v{i}" for i in range(dim)]:
            raise ValueError(f"{path}: line 1: bad vector columns, expected v0..v{{D-1}}")
        rows = []
        for row in reader:
            line = reader.line_num
            if len(row) != 4 + dim:
                raise ValueError(f"{path}: line {line}: expected {4 + dim} fields, got {len(row)}")
            try:
                vector = np.array([float(x) for x in row[4:]], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: bad float: {exc}") from None
            if not np.all(np.isfinite(vector)):
                raise ValueError(f"{path}: line {line}: non-finite vector entries")
            rows.append(Embedding(*row[:4], vector))
    if not rows:
        raise ValueError(f"{path}: empty corpus")
    return make_corpus(rows, split_tag)


def oracle_write(corpus, path):
    """csv.writer with every float as f"{x:.17g}" and "\\n" line ends.

    Each row goes through a writer with a "\\r\\n" terminator, which quotes
    a field holding a CR as it quotes one holding a LF, and its terminator
    is then written as "\\n".
    """
    rows = [["utterance_id", "speaker_id", "gender", "accent"]
            + [f"v{i}" for i in range(corpus.dim)]]
    rows += [[e.utterance_id, e.speaker_id, e.gender, e.accent]
             + [f"{x:.17g}" for x in e.vector.tolist()] for e in corpus.embeddings]
    with open(path, "w", newline="") as fh:
        for row in rows:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\r\n").writerow(row)
            fh.write(buffer.getvalue().removesuffix("\r\n") + "\n")


HEADER = "utterance_id,speaker_id,gender,accent,v0,v1\n"


class TestReaderMatchesOracle:
    @pytest.mark.parametrize("text", [
        HEADER + 'u1,"s,1",f,"a ""x""",1.5,2\n"u\n2","s,1",f,"a ""x""",3,4\n',
        HEADER.replace("\n", "\r\n") + "u1,s1,f,a,1.5,2\r\nu2,s2,m,a,3,4\r\n",
        HEADER + "u1,s1,f,a,1.5,2\n\nu2,s2,m,a,3,4\n",
        HEADER + "u1,s1,f,a,1.5,2\n\n",
        HEADER + "u1,s1,f,a, 1.5 ,\t2\n",
        HEADER + "u1,s1,f,a,1_0,2\n",
        HEADER + "u1,s1,f,a,nan,2\n",
        HEADER + "u1,s1,f,a,1,-inf\n",
        HEADER + "u1,s1,f,a,1,2\nu2,s1,f,a,nan,2\nu3,s1,f,a,x,2\n",
        HEADER + "u1,s1,f,a,1\n",
        HEADER + "u1,s1,f,a,1,2,3\n",
        HEADER + 'u1,s1,f,a,"1.5",2\n',
        HEADER,
        HEADER.rstrip("\n"),
        "",
        "utterance_id,speaker_id,gender,accent\nu1,s1,f,a\n",
        HEADER + "u1,s1,f,a,1.5\x1c,2\n",
        HEADER + "u1,s1,f,a,\u0661\u0662,2\n",
        HEADER + "u1,s\x001,f,a,1,2\n",
        HEADER + 'u1,s1,f,a,1.5,2\nu2,s1,f,a,3,4\n"u3",s1,f,a,5,6\n',
        HEADER + "u1,s1,f,a,1.5,2\nu2,s2,m,a,3,4",
        HEADER + "u1,s1,f,a,1.5,2\nu2,s1,f,a,nan,2\n",
    ], ids=["quoted-labels", "crlf", "blank-line", "trailing-blank-line", "spaces",
            "underscore", "nan", "inf", "nan-before-bad-float", "short-row", "long-row",
            "quoted-float", "header-only", "header-no-newline", "empty-file", "no-vectors",
            "file-separator-after-number", "arabic-indic-digits", "nul-in-label",
            "quoted-row-after-plain-rows", "last-line-no-newline", "nan-after-plain-rows"])
    def test_same_corpus_or_same_error(self, tmp_path, text):
        path = tmp_path / "corpus.csv"
        path.write_bytes(text.encode())
        try:
            expected = oracle_read(path, "test")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_corpus(path, "test")
            assert str(got.value) == str(exc)
        else:
            assert read_corpus(path, "test") == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.one_of(
        st.text(alphabet="0123456789.eE+-", max_size=8),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".17g")),
        st.sampled_from(["-0", "5e-324", "2.2250738585072009e-308", "1e309"])),
        min_size=1, max_size=3), min_size=1, max_size=3))
    def test_vector_fields_same_bits_or_same_error(self, rows):
        # the fields of the plain form: every one that numpy parses must get
        # the bits ``float`` gives it, and every other must end as the oracle does
        header = ",".join(["utterance_id,speaker_id,gender,accent"]
                          + [f"v{j}" for j in range(len(rows[0]))])
        text = header + "\n" + "".join(f"u{i},s1,f,a,{','.join(fields)}\n"
                                        for i, fields in enumerate(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.csv"
            path.write_text(text)
            try:
                expected = oracle_read(path)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    read_corpus(path)
                assert str(got.value) == str(exc)
            else:
                got = read_corpus(path)
                assert got == expected
                assert got.vectors.tobytes() == expected.vectors.tobytes()

    def test_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes((HEADER + "u1,s1,f,a,1,2\nu2,s\xff,f,a,1,2\n").encode("latin-1"))
        with pytest.raises(ValueError, match=f"{path}: line 3: not utf-8 text"):
            read_corpus(path)

    def test_csv_error_names_the_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        long_label = "x" * (csv.field_size_limit() + 1)
        path.write_text(HEADER + f"u1,s1,f,a,1,2\nu2,{long_label},f,a,1,2\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: field larger"):
            read_corpus(path)

    @pytest.mark.parametrize("rows,message", [
        ("u1,s1,f,a,1,2\nu1,s2,f,a,1,2\n", "line 3: duplicate utterance_id 'u1'"),
        ("u1,s1,f,a,1,2\nu2,s1,m,a,1,2\n", "line 3: speaker 's1' has conflicting"),
    ])
    def test_corpus_errors_name_path_and_line(self, tmp_path, rows, message):
        path = tmp_path / "corpus.csv"
        path.write_text(HEADER + rows)
        with pytest.raises(ValueError, match=f"{path}: {message}"):
            read_corpus(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_byte_mutation_raises_only_value_error_naming_path(self, data):
        valid = ("utterance_id,speaker_id,gender,accent,v0,v1,v2\n"
                 "s0000-u0000,s0000,f,a00,1.5,-0.25,3e-05\n"
                 "s0000-u0001,s0000,f,a00,0.125,2,-7.5\n"
                 "s0001-u0000,s0001,m,a01,-1,0.5,1e+300\n").encode()
        pos = data.draw(st.integers(0, len(valid) - 1))
        byte = data.draw(st.integers(0, 255))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.csv"
            path.write_bytes(valid[:pos] + bytes([byte]) + valid[pos + 1:])
            try:
                read_corpus(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")


class TestWriterMatchesOracle:
    @pytest.mark.parametrize("labels", [
        [("u1", "s1", "f", "a00"), ("u2", "s2", "m", "a01")],
        [("u,1", 's"1', "f", "a\nb"), ("u2", "s 2", "", "a\nb")],
        [("u\r1", "s\r1", "f", "a"), ("", "s2", "m", "a\r")],
    ], ids=["plain", "comma-quote-newline-empty", "cr-empty-id"])
    def test_same_bytes(self, tmp_path, labels):
        rng = np.random.default_rng(3)
        corpus = make_corpus([Embedding(*row, rng.standard_normal(4)
                                        * 10.0 ** rng.integers(-300, 300)) for row in labels])
        write_corpus(corpus, tmp_path / "got.csv")
        oracle_write(corpus, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert read_corpus(tmp_path / "got.csv") == corpus

    def test_generated_corpus_same_bytes(self, tmp_path):
        corpus = generate_corpus(small_spec())
        write_corpus(corpus, tmp_path / "got.csv")
        oracle_write(corpus, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_csv_round_trip_memory_is_about_the_result():
    # a corpus the size of the vox64 train split; streaming rows keeps the
    # working memory of a write plus a read far below one block of 1024
    # parsed rows (several MB)
    corpus = generate_corpus(small_spec(n_speakers=1251, n_accents=30,
                                        utterances_per_speaker=2, dim=64))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        tracemalloc.start()
        try:
            write_corpus(corpus, path)
            result = read_corpus(path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result == corpus
    assert peak - kept < 2_000_000


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
                      for spk, utts in sorted(by_speaker(train).items())])
    correct = 0
    for e in test.embeddings:
        predicted = speakers[np.argmin(np.linalg.norm(means - e.vector, axis=1))]
        correct += predicted == e.speaker_id
    assert correct == len(test)
