import csv
import dataclasses
import hashlib
import io
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spkdeid import dataset as dataset_module
from spkdeid.dataset import (
    LABELS,
    AttributeStrength,
    CorpusSpec,
    Embedding,
    _decimal,
    _format_rows,
    forget_file_digests,
    generate_corpus,
    read_corpus,
    sha256_file,
    split_corpus,
    write_corpus,
)

from conftest import corpus_from_rows


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
        # each vocabulary is the sorted tuple of its labels, and the index
        # array uses every position of it
        corpus = generate_corpus(small_spec())
        for vocab, index in ((corpus.speaker_vocab, corpus.speakers),
                             (corpus.gender_vocab, corpus.genders),
                             (corpus.accent_vocab, corpus.accents)):
            assert type(vocab) is tuple
            assert list(vocab) == sorted(set(vocab))
            assert set(index.tolist()) == set(range(len(vocab)))

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
    return corpus_from_rows(rows, split_tag)


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
        # every vector field the reader accepts must get the bits ``float``
        # gives it, and every other must end as the oracle does
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
        corpus = corpus_from_rows([Embedding(*row, rng.standard_normal(4)
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

    @pytest.mark.parametrize("block_values", [1, 10, None])
    def test_same_bytes_across_blocks(self, tmp_path, monkeypatch, block_values):
        # a block holds one row, several rows with a partial last block, or
        # the whole corpus; zeros and out-of-range magnitudes go to "%"
        if block_values is not None:
            monkeypatch.setattr("spkdeid.dataset._BLOCK_VALUES", block_values)
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((23, 3)) * 10.0 ** rng.integers(-14, 18, (23, 3))
        vectors[::4, 1] = 0.0
        vectors[1, 2] = -0.0
        corpus = generate_corpus(small_spec(n_speakers=23, utterances_per_speaker=1,
                                            dim=3)).with_vectors(vectors)
        write_corpus(corpus, tmp_path / "got.csv")
        oracle_write(corpus, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def formatted(values):
    """``_format_rows`` of ``values`` as one column, without line ends."""
    return [line.removesuffix("\n") for line in
            _format_rows(np.array(values, dtype=np.float64).reshape(-1, 1))]


def ulp_neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


class TestFloatFormat:
    """The CSV writer's float formatter against ``"%.17g" %``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), min_size=1, max_size=40))
    def test_any_finite_bit_pattern(self, patterns):
        values = [v for v in struct.unpack(f"<{len(patterns)}d",
                                           struct.pack(f"<{len(patterns)}Q", *patterns))
                  if np.isfinite(v)]
        assert formatted(values) == ["%.17g" % v for v in values]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=24),
           st.integers(min_value=1, max_value=6))
    def test_rows_are_comma_joined_lines(self, values, dim):
        block = np.resize(np.array(values), (len(values) // dim + 1, dim))
        assert _format_rows(block) == [",".join("%.17g" % v for v in row) + "\n"
                                       for row in block.tolist()]

    @pytest.mark.parametrize("values", [
        [0.0, -0.0],
        [5e-324, -5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308],
        ulp_neighbours(1e-5) + ulp_neighbours(1e-4) + ulp_neighbours(-1e-4),
        ulp_neighbours(1e16) + ulp_neighbours(1e17) + ulp_neighbours(2.0 ** 51),
        [v for k in range(-20, 24) for v in ulp_neighbours(10.0 ** k)],
        [v for k in range(-12, 17) for v in ulp_neighbours(-9.5 * 10.0 ** k)],
        [1e-11, 9.999999999999999e-12, 0.1, 0.5, 1.0, 100.0, 123456.0, -2.5e-7],
    ], ids=["zeros", "subnormal-and-smallest-normal", "fixed-to-exponent",
            "large", "powers-of-ten", "negative-every-exponent", "short"])
    def test_named_cases(self, values):
        assert formatted(values) == ["%.17g" % v for v in values]

    def test_covered_range_needs_no_fallback(self):
        # log10 misses the exponent of some of these by one; the formatter
        # corrects it rather than handing them to "%"
        values = [v for k in range(-10, 16) for v in ulp_neighbours(10.0 ** k)]
        values += list(np.random.default_rng(0).standard_normal(1000))
        assert _decimal(np.array(values))[2].all()

    def test_exact_ties_round_half_to_even(self):
        assert formatted([1234567890123456.75, 1234567890123456.25]) == \
            ["1234567890123456.8", "1234567890123456.2"]


def sidecar(path):
    return path.with_name(path.name + ".parsed")


def files_and_mtimes(directory):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in directory.iterdir()}


def assert_same_read(got, want):
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.utterance_ids == want.utterance_ids
    for label in LABELS:
        assert getattr(got, f"{label}_vocab") == getattr(want, f"{label}_vocab")
    for a, b in zip(got.label_indices(), want.label_indices()):
        assert a.tolist() == b.tolist()


# labels a sidecar must keep apart as a parse does: "\x1c"-"\x1e", "\x85" and
# "\u2028" end a line for str.splitlines but not for a CSV reader
PLAIN_CHARS = ["a", "b", " ", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u00e9"]
SPECIAL_FLOATS = [-0.0, 5e-324, -2.5e-310, 2.2250738585072009e-308, 1e308, -1e308]


class TestSidecar:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_read_with_sidecar_equals_read_without(self, data):
        n = data.draw(st.integers(1, 6))
        dim = data.draw(st.integers(1, 3))
        label = st.text(alphabet=st.sampled_from(PLAIN_CHARS), max_size=3)
        ids = data.draw(st.lists(label, min_size=n, max_size=n, unique=True))
        speakers = data.draw(st.lists(label, min_size=n, max_size=n))
        attributes = {s: (data.draw(label), data.draw(label)) for s in sorted(set(speakers))}
        value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(SPECIAL_FLOATS))
        rows = data.draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                                  min_size=n, max_size=n))
        corpus = corpus_from_rows([Embedding(u, s, *attributes[s], np.array(v))
                                   for u, s, v in zip(ids, speakers, rows)])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.csv"
            write_corpus(corpus, path)
            assert sidecar(path).exists()
            with_sidecar = read_corpus(path, "test")
            sidecar(path).unlink()
            without = read_corpus(path, "test")
        assert_same_read(with_sidecar, without)
        assert_same_read(with_sidecar, corpus)
        assert with_sidecar.split_tag == "test"

    def test_matching_sidecar_is_read_without_parsing(self, tmp_path, monkeypatch):
        corpus = generate_corpus(small_spec())
        path = tmp_path / "corpus.csv"
        write_corpus(corpus, path)

        def no_parse(*args):
            raise AssertionError("parsed a file that has a matching sidecar")

        monkeypatch.setattr("spkdeid.dataset._read_rows", no_parse)
        monkeypatch.setattr("spkdeid.dataset.csv_rows", no_parse)
        assert_same_read(read_corpus(path), corpus)

    def test_csv_edited_after_writing_reads_as_the_edit(self, tmp_path):
        corpus = generate_corpus(small_spec(dim=3))
        path = tmp_path / "corpus.csv"
        write_corpus(corpus, path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[0], fields[4] = "edited", "0.5"
        lines[1] = ",".join(fields)
        path.write_text("".join(lines))
        vectors = corpus.vectors.copy()
        vectors[0, 0] = 0.5
        edited = dataclasses.replace(corpus.with_vectors(vectors),
                                     utterance_ids=["edited"] + corpus.utterance_ids[1:])
        assert_same_read(read_corpus(path), edited)

    def test_flipped_float_byte_reads_the_csv_values(self, tmp_path):
        corpus = generate_corpus(small_spec())
        path = tmp_path / "corpus.csv"
        write_corpus(corpus, path)
        raw = bytearray(sidecar(path).read_bytes())
        raw[-33] ^= 0x40  # the exponent byte of the last float
        sidecar(path).write_bytes(bytes(raw))
        assert_same_read(read_corpus(path), corpus)

    @pytest.mark.parametrize("damage", [
        lambda raw, other: b"",
        lambda raw, other: raw[:-1],
        lambda raw, other: raw[:30],
        lambda raw, other: raw + b"\0",
        lambda raw, other: bytes(len(raw)),
        lambda raw, other: b"not a sidecar\n" * 100,
        lambda raw, other: other,
    ], ids=["empty", "truncated-digest", "truncated-header", "trailing-byte", "zeros",
            "garbage", "stale"])
    def test_damaged_sidecar_falls_back_to_a_parse(self, tmp_path, damage):
        corpus = generate_corpus(small_spec())
        other = corpus.with_vectors(corpus.vectors + 1.0)
        path = tmp_path / "corpus.csv"
        write_corpus(other, path)
        stale = sidecar(path).read_bytes()
        write_corpus(corpus, path)
        sidecar(path).write_bytes(damage(sidecar(path).read_bytes(), stale))
        assert_same_read(read_corpus(path), corpus)

    @pytest.mark.parametrize("label, reads_back", [
        ("s,1", True), ('s"1', True), ("s\r1", True), ("s\n1", True), ("s\x001", False),
        ("s" * (csv.field_size_limit() + 1), False),
    ], ids=["comma", "quote", "cr", "lf", "nul", "longer-than-the-field-limit"])
    def test_no_sidecar_unless_labels_are_plain(self, tmp_path, label, reads_back):
        corpus = corpus_from_rows([Embedding("u1", label, "f", "a", np.array([1.5])),
                                   Embedding("u2", "s2", "m", "a", np.array([-0.0]))])
        path = tmp_path / "corpus.csv"
        write_corpus(corpus, path)
        assert not sidecar(path).exists()
        if reads_back:
            assert_same_read(read_corpus(path), corpus)

    def test_duplicate_ids_same_error_with_and_without_sidecar(self, tmp_path):
        corpus = generate_corpus(small_spec())
        ids = list(corpus.utterance_ids)
        ids[3] = ids[1]
        path = tmp_path / "corpus.csv"
        write_corpus(dataclasses.replace(corpus, utterance_ids=ids), path)
        assert sidecar(path).exists()
        with pytest.raises(ValueError) as with_sidecar:
            read_corpus(path)
        sidecar(path).unlink()
        with pytest.raises(ValueError) as without:
            read_corpus(path)
        assert str(with_sidecar.value) == str(without.value) == \
            f"{path}: line 5: duplicate utterance_id {ids[1]!r}"

    def test_read_writes_nothing(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus(generate_corpus(small_spec()), path)
        for _ in range(2):  # with the sidecar, then without it
            before = files_and_mtimes(tmp_path)
            read_corpus(path)
            assert files_and_mtimes(tmp_path) == before
            sidecar(path).unlink(missing_ok=True)

    def test_no_sidecar_for_a_device(self):
        write_corpus(generate_corpus(small_spec()), os.devnull)
        assert not os.path.exists(os.devnull + ".parsed")


class TestFileDigests:
    @pytest.fixture()
    def fallback(self, monkeypatch):
        """The paths that ``sha256_file`` reads and hashes itself."""
        hashed = []
        original = dataset_module._hash_file

        def recording(path):
            hashed.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(dataset_module, "_hash_file", recording)
        forget_file_digests()
        yield hashed
        forget_file_digests()

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "corpus.csv"
        write_corpus(generate_corpus(small_spec()), path)
        return path

    def test_written_file_is_not_hashed_again(self, path, fallback):
        write_corpus(generate_corpus(small_spec()), path)
        assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert fallback == []

    @pytest.mark.parametrize("sidecar_state", ["matching", "stale"])
    def test_file_read_through_a_sidecar_is_not_hashed_again(self, path, fallback,
                                                             sidecar_state):
        # a stale sidecar is checked against a hash of the CSV's own bytes,
        # which stays the CSV's digest while the CSV is parsed
        if sidecar_state == "stale":
            raw = bytearray(sidecar(path).read_bytes())
            raw[-1] ^= 1
            sidecar(path).write_bytes(bytes(raw))
        read_corpus(path)
        assert sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()
        assert fallback == []

    def test_file_read_without_a_sidecar_or_forgotten_is_hashed(self, path, fallback):
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        sidecar(path).unlink()
        read_corpus(path)
        assert sha256_file(path) == expected and fallback == ["corpus.csv"]
        write_corpus(read_corpus(path), path)
        forget_file_digests()
        assert sha256_file(path) == expected and fallback == ["corpus.csv"] * 2

    @pytest.mark.parametrize("change", ["size", "mtime", "inode"])
    def test_file_changed_since_is_hashed_again(self, path, fallback, change):
        # each part of the file's identity alone tells a rewritten file from
        # the one hashed; the other parts are kept as they were
        read_corpus(path)
        before = os.stat(path)
        raw = path.read_bytes()
        edited = raw + b"\n" if change == "size" else raw[:-2] + bytes([raw[-2] ^ 1]) + b"\n"
        if change == "inode":
            path.with_suffix(".new").write_bytes(edited)
            os.replace(path.with_suffix(".new"), path)
        else:
            path.write_bytes(edited)
        mtime = before.st_mtime_ns + (10 ** 9 if change == "mtime" else 0)
        os.utime(path, ns=(before.st_atime_ns, mtime))
        after = os.stat(path)
        assert ((after.st_size != before.st_size, after.st_mtime_ns != before.st_mtime_ns,
                 after.st_ino != before.st_ino)
                == tuple(change == part for part in ("size", "mtime", "inode")))
        assert sha256_file(path) == hashlib.sha256(edited).hexdigest()
        assert fallback == ["corpus.csv"]


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
            corpus_from_rows([e, e])

    def test_conflicting_speaker_attributes_rejected(self):
        rows = [Embedding("u1", "s1", "f", "a00", np.zeros(2)),
                Embedding("u2", "s1", "m", "a00", np.zeros(2))]
        with pytest.raises(ValueError, match="s1"):
            corpus_from_rows(rows)

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            corpus_from_rows([Embedding("u1", "s1", "f", "a00", np.array([1.0, np.inf]))])

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
